"""Fixed-step simulation of N oscillators coupled through the algebraic bus.

The network is algebraic, so the bus term of every inverter's field is one
linear form of the states: kappa*v_o = g . x with the coupling vector
g = kappa*beta*Y/Y_sigma.  The per-inverter dynamics are deliberately
assembled as

    dx_k/dt = h(x_k) + kappa*v_o(t) [+ d_k(t)]

with the identical bus term for every k, which is the structure the
synchronization certificate relies on.  All inverters advance with classical
RK4; the step loop records times and states only, and
``Trajectory.bus_and_currents`` computes the bus voltage and branch currents
of the rows its reader asks for.  Fixed stepping keeps runs bit-exact for a
given scenario and seed; start-up impedance removal is aligned to the step
boundary at or after t_z, which splits a run into two segments with constant
admittances, listed once a run in ``Trajectory.segments``.  After each
block of ``DIVERGENCE_BLOCK`` steps the loop checks the new rows and tells
an optional sink how many rows are final, so that a reader (the CLI's CSV
formatters) can follow the run as it is recorded.  A run is strictly
sequential, but distinct scenarios share no mutable state and can be
simulated concurrently.

The step loop is bound by interpreter overhead, not arithmetic: an N = 4
state is four complex numbers.  So a step is one Python call,
``rk4_increment``, with the coupled field fused into it: the four field
evaluations run inline, and there is no field function to call.
``simulate`` builds one set of RK4 buffers per run (``_Workspace``: the six
RK4 stages as the rows of one (6, N) block, the views a step reads and the
0-d scratch) and one tuple of field operands per admittance segment
(``_bind_field``); the step that starts at t_z switches to the second
tuple.  A step unpacks both tuples once and writes into the buffers with
``out=`` ufunc calls, allocating no array and casting no operand.  Each
evaluation writes the half-step increment (dt/2)*dx/dt, its constants scaled
by dt/2 once per segment, so each RK4 stage state is one add, and one
multiply doubles a2 and a3 together: a step makes 37 numpy calls (33 ufunc
calls and 4 dots).  The scalar operands are 0-d arrays of the operand's own
dtype: under numpy's scalar promotion rules (NEP 50) a Python float or
complex is converted afresh on every call, and a 0-d array goes through the
same stride-0 loop.  The bus term g . x goes into a 0-d buffer, and the
step calls ufuncs through module-level aliases, which cuts the name lookups
around each call.  ``rk4_increment`` states the identities by which its
in-place arithmetic keeps the bits of the allocating form; the test oracle
``tests/oracles.py`` keeps the callable-field kernel and field that it
fuses, and the step must give their bits.  On a 2-vCPU AVX-512 Xeon
(Python 3.11.7, numpy 2.4.6) a traced case II step with N = 4 took
12.2 µs against 13.0 µs with a closure field called four times a step
(medians of 12 alternated benchmark pairs, ``BENCH_fused_step.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .network import (NetworkConfig, branch_currents, pcc_voltage,
                      total_admittance)
from .oscillator import InverterParams, check_finite

DIVERGENCE_NORM = 100.0     # pu, far outside any modeled regime
DIVERGENCE_BLOCK = 64       # steps recorded between two divergence checks
MAX_DT_OMEGA = 0.2          # resolution guard: > ~31 steps per cycle
STEP_TOL = 1e-9             # relative tolerance of t_end/dt to a whole number
# Largest trajectory a run may record, (16*N + 8)*(S+1) bytes for S steps
# and N inverters (t and x).  1 GiB admits case II with N = 500 up to
# t_end = 13.40 s, over six times the ~160 MB of N = 500 at t_end = 2 s.
# Post-processing adds 8*S bytes of synchronization error series, 32*S bytes
# of it as the list of Python floats report.json is encoded from, and the
# temporaries of one block of sync_error's states and of the output's rows
# (a few MB at any S), which leaves room for it and for the output of such a
# run on a machine with a few GB of memory.
MAX_TRAJECTORY_BYTES = 2**30

WAVEFORMS = ("constant", "rotating")


class SimulationDiverged(RuntimeError):
    """A state left the modeled regime at time ``t``.

    ``inverter`` is 0-based (the message numbers it from 1), ``last_norm``
    is the largest |x| of the last finite recorded state, and ``trajectory``
    holds every recorded state up to it.
    """

    def __init__(self, t: float, inverter: int, last_norm: float,
                 trajectory: "Trajectory"):
        super().__init__(
            f"state of inverter {inverter + 1} diverged at t={t:.6g} s "
            f"(last finite norm {last_norm:.6g} pu)")
        self.t = t
        self.inverter = inverter
        self.last_norm = last_norm
        self.trajectory = trajectory


@dataclass(frozen=True)
class InitSpec:
    """Random initial-state policy: uniform angle, uniform norm, forced norms."""

    seed: int
    norm_bound: float = 1.0
    overrides: tuple[tuple[int, float], ...] = ()   # (0-based index, norm)

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", tuple(
            (int(k), float(v)) for k, v in self.overrides))
        check_finite(self, ("norm_bound",))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.norm_bound < 0:
            raise ValueError(f"norm_bound must be >= 0, got {self.norm_bound}")
        for k, v in self.overrides:
            if not 0 <= v < math.inf:
                raise ValueError(
                    f"override norm must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Bounded deterministic disturbance added to one inverter's derivative."""

    inverter: int           # 0-based index
    amplitude: float        # |d(t)| <= amplitude, pu/s
    waveform: str = "rotating"

    def __post_init__(self) -> None:
        check_finite(self, ("amplitude",))
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.waveform not in WAVEFORMS:
            raise ValueError(
                f"waveform must be one of {WAVEFORMS}, got {self.waveform!r}")


def check_grid(n: int, t_end: float, dt: float) -> None:
    """Refuse a time grid that is not whole steps of dt, or whose n-inverter
    trajectory would exceed ``MAX_TRAJECTORY_BYTES``."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not dt <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= dt, got {t_end}")
    steps = t_end / dt
    if abs(steps - round(steps)) > STEP_TOL * steps:
        raise ValueError(
            f"t_end = {t_end} is not a whole multiple of dt = {dt}")
    size = (16 * n + 8) * (round(steps) + 1)  # integer: no overflow
    if size > MAX_TRAJECTORY_BYTES:
        raise ValueError(
            f"n = {n}, t_end = {t_end} and dt = {dt} would record "
            f"{size:,} bytes of trajectory, more than the limit of "
            f"{MAX_TRAJECTORY_BYTES:,} bytes")


@dataclass(frozen=True)
class Scenario:
    """Everything one reproducible run needs."""

    params: tuple[InverterParams, ...]
    network: NetworkConfig
    t_end: float
    dt: float
    init: InitSpec
    disturbance: Optional[DisturbanceSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if not self.params:
            raise ValueError("scenario needs at least one inverter")
        if len(self.params) != self.network.n:
            raise ValueError(
                f"{len(self.params)} inverters but {self.network.n} branches")
        # numbered from 1 in messages, as in scenario files
        given = [("init override", k) for k, _ in self.init.overrides]
        if self.disturbance is not None:
            given.append(("disturbance", self.disturbance.inverter))
        for what, k in given:
            if not 0 <= k < self.n:
                raise ValueError(
                    f"{what} inverter {k + 1} out of range 1..{self.n}")
        ref = self.params[0]
        for k, p in enumerate(self.params[1:], start=2):
            for f in fields(InverterParams):
                if getattr(p, f.name) != getattr(ref, f.name):
                    raise ValueError(
                        f"inverter {k} differs in {f.name}: the local map "
                        "must be identical across inverters")
        # both admittance segments, so that a zero branch impedance or total
        # admittance is refused here rather than in the run
        for t in (0.0, math.inf):
            total_admittance(self.network, ref.omega0, t)
        check_grid(self.n, self.t_end, self.dt)
        if not 0.0 < self.dt * ref.omega0 < MAX_DT_OMEGA:
            raise ValueError(
                f"dt*omega0 = {self.dt * ref.omega0:.3g} outside (0, "
                f"{MAX_DT_OMEGA}): need > ~31 steps per cycle")

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid time series of states; ``bus_and_currents`` computes
    the bus voltage and branch currents of any rows."""

    t: np.ndarray           # (S+1,), s
    x: np.ndarray           # (S+1, N) complex, pu
    scenario: Scenario = field(repr=False)
    segments: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the admittance segments (first row, y, y_sigma): the rows before
        # k = searchsorted(t, t_z) start before t_z.  Built once a run: the
        # step loop binds its fields from them, and the CSV writer's forked
        # children share them
        net, omega0 = self.scenario.network, self.scenario.params[0].omega0
        k = int(np.searchsorted(self.t, net.t_z))
        self.segments = tuple(
            (row, net.admittances(omega0, t), total_admittance(net, omega0, t))
            for row, t in ((0, 0.0), (k, math.inf)))

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def bus_and_currents(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """Bus voltage, (rows,) complex V, and branch currents, (rows, N)
        complex A, of the consecutive rows ``rows``.

        Each row takes the admittances of its segment.  ``pcc_voltage`` and
        ``branch_currents`` are computed one segment at a time, and any rows
        get the bits of the same rows of whole segments, with one exception
        that is avoided here: a lone row takes other numpy loops (at N = 1,
        say, a complex multiply by y without the fused multiply-adds of the
        vector loop).  So the rows are computed with one more row on each
        side where their segment has it.  A segment may start past the last
        row.
        """
        span = range(len(self.t))[rows]
        if span.step != 1:
            raise ValueError(f"rows must be consecutive, got step {span.step}")
        start, stop = span.start, max(span.start, span.stop)
        lo, hi = max(start - 1, 0), min(stop + 1, len(self.t))
        edges = [min(max(row, lo), hi) for row, _, _ in self.segments]
        beta = self.scenario.params[0].beta
        v_o = np.empty(hi - lo, dtype=complex)
        out = np.empty((hi - lo, self.n), dtype=complex)
        for a, b, (_, y, y_sigma) in zip(edges, edges[1:] + [hi],
                                         self.segments):
            x, part = self.x[a:b], slice(a - lo, b - lo)
            v_o[part] = pcc_voltage(x, y, y_sigma, beta)
            branch_currents(x, v_o[part], y, beta, out=out[part])
        keep = slice(start - lo, stop - lo)
        return v_o[keep], out[keep]


def init_random(scenario: Scenario) -> np.ndarray:
    """Seeded initial state: uniform angles, uniform norms, forced overrides."""
    rng = np.random.default_rng(scenario.init.seed)
    n = scenario.n
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    norm = rng.uniform(0.0, scenario.init.norm_bound, n)
    for k, forced in scenario.init.overrides:
        norm[k] = forced
    return norm * np.exp(1j * theta)


def _disturbance_at(d: DisturbanceSpec, omega0: float, t: float) -> complex:
    if d.waveform == "constant":
        return complex(d.amplitude)
    return d.amplitude * np.exp(1j * omega0 * t)


# module-level ufunc aliases: one global lookup per call instead of a global
# and an attribute lookup
_add, _multiply = np.add, np.multiply


class _Workspace:
    """One run's RK4 buffers, which every step of ``simulate`` writes into,
    built for the run's state ``y``: the half-step increments a1..a4, the
    stage state and the accumulator as the rows of one (6, N) block, the
    view of a2 and a3 that doubles both in one call, the float views of
    ``y`` and of the stage state, the |x|^2 scratch with its even and odd
    elements, the 0-d bus buffer and the 0-d weights 2 and 1/3, all in
    ``parts``.  It belongs to one run, never to the module, so distinct runs
    can go on concurrently.  A plain class: a dataclass would add ~1 ms to
    ``import dvocsim``.
    """

    __slots__ = ("parts",)

    def __init__(self, y: np.ndarray):
        n = len(y)
        block = np.empty((6, n), dtype=complex)
        # a view costs about as much as a ufunc call, so every view a step
        # reads is built here
        sq = np.empty(2 * n)
        # a Python float operand takes on the state's dtype (NEP 50)
        two, third = (np.array(w, dtype=complex) for w in (2.0, 1 / 3))
        self.parts = (*block, block[1:3], y.view(np.float64),
                      block[4].view(np.float64), sq, sq[0::2], sq[1::2],
                      np.empty((), dtype=complex), two, third)


def _bind_field(p: InverterParams, g: np.ndarray,
                d: Optional[DisturbanceSpec], h: float) -> tuple:
    """The operands of the half-step increment h*F of the coupled field
    F(x_k) = (chi(x_k) - kappa*beta + j*omega0)*x_k + kappa*v_o (+
    disturbance on one inverter), with h = dt/2, for one admittance segment.

    ``g`` is the coupling vector kappa*beta*Y/Y_sigma, so g . x = kappa*v_o.
    The operands are the gain buffer, whose imaginary part holds h*omega0,
    and the view of its real part; the 0-d -h*xi and c0 = h*(xi*x_nom_sq2 -
    kappa*beta), which ``InverterParams`` keeps finite; the bound
    ``(h*g).dot``; the disturbance (None for none), h and omega0.  Bound
    once per segment, so that ``rk4_increment`` unpacks them as one tuple.
    """
    gain = np.full(len(g), complex(0.0, h * p.omega0))
    return (gain, gain.real, np.array(-h * p.xi),
            np.array(h * (p.xi * p.x_nom_sq2 - p.kappa_beta)), (h * g).dot,
            d, h, p.omega0)


def rk4_increment(field: tuple, t: float, y: np.ndarray, dt: float,
                  w: _Workspace) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of the coupled field from
    ``y`` at time ``t``, written into ``y`` and returned.

    Every simulation step in the package goes through this kernel.
    ``field`` holds the operands ``_bind_field`` returns, with h = dt/2,
    and ``w`` is the workspace built for ``y``, ``_Workspace(y)``.  Each of
    the four evaluations writes the half-step increment a_i = h*F(x) at its
    stage state x with the bits of the allocating
    ((-h*xi)*|x|^2 + c0 + j*(h*omega0))*x + np.dot(h*g, x) (+ h*d(t)) by
    three identities:

    * |x|^2 is one multiply of x's float view by itself and one add of its
      even and odd elements, term by term ``x.real**2 + x.imag**2``.  Not
      ``(x*x.conj()).real``: numpy's complex multiply uses fused
      multiply-adds where the CPU has them (AVX-512, say), which changes
      the trajectory.
    * the real gain is a float multiply and add into the real part of the
      gain buffer, whose imaginary part holds h*omega0: the allocating form
      adds c0 + j*h*omega0 to a float array cast to complex, and 0.0 +
      h*omega0 is h*omega0.
    * ``(h*g).dot(x, bus)`` runs the routine of ``np.dot(h*g, x)`` without
      its ``__array_function__`` dispatch.

    The classical step y + dt/6*(k1 + 2*k2 + 2*k3 + k4) is y + (a1 + 2*a2 +
    2*a3 + a4)/3, and the stage states y + dt/2*k1, y + dt/2*k2 and y +
    dt*k3 are y + a1, y + a2 and y + 2*a3.  Once a3 is written, a2 and a3
    are doubled in place with one multiply, exactly for finite values, so
    the step is

        y + (1/3)*((a1 + 2*a2) + 2*a3 + a4)

    in that order, each weight a 0-d complex array.  A Python float weight
    takes on y's dtype (NEP 50) as the 0-d weights do, so the bits are
    those of the same expression with Python floats.
    """
    gain, gain_re, neg_hxi, c0, dot, d, h, omega0 = field
    (a1, a2, a3, a4, ys, acc, a23, yv, ysv, sq, sq_re, sq_im, bus, two,
     third) = w.parts
    _multiply(yv, yv, sq)
    _add(sq_re, sq_im, gain_re)
    _multiply(neg_hxi, gain_re, gain_re)
    _add(gain_re, c0, gain_re)
    _multiply(gain, y, a1)
    dot(y, bus)
    _add(a1, bus, a1)
    if d is not None:
        a1[d.inverter] += h * _disturbance_at(d, omega0, t)
    _add(y, a1, ys)
    _multiply(ysv, ysv, sq)
    _add(sq_re, sq_im, gain_re)
    _multiply(neg_hxi, gain_re, gain_re)
    _add(gain_re, c0, gain_re)
    _multiply(gain, ys, a2)
    dot(ys, bus)
    _add(a2, bus, a2)
    if d is not None:
        a2[d.inverter] += h * _disturbance_at(d, omega0, t + 0.5 * dt)
    _add(y, a2, ys)
    _multiply(ysv, ysv, sq)
    _add(sq_re, sq_im, gain_re)
    _multiply(neg_hxi, gain_re, gain_re)
    _add(gain_re, c0, gain_re)
    _multiply(gain, ys, a3)
    dot(ys, bus)
    _add(a3, bus, a3)
    if d is not None:
        a3[d.inverter] += h * _disturbance_at(d, omega0, t + 0.5 * dt)
    _multiply(two, a23, a23)
    _add(y, a3, ys)
    _multiply(ysv, ysv, sq)
    _add(sq_re, sq_im, gain_re)
    _multiply(neg_hxi, gain_re, gain_re)
    _add(gain_re, c0, gain_re)
    _multiply(gain, ys, a4)
    dot(ys, bus)
    _add(a4, bus, a4)
    if d is not None:
        a4[d.inverter] += h * _disturbance_at(d, omega0, t + dt)
    _add(a1, a2, acc)
    _add(acc, a3, acc)
    _add(acc, a4, acc)
    return _add(y, _multiply(third, acc, acc), y)


def _first_diverged(rows: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, inverter) of the first state outside the modeled regime in a
    block of recorded rows, or None when every state is inside it."""
    bad = ~(np.abs(rows) <= DIVERGENCE_NORM)    # NaN compares false
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), rows.shape[1])


def simulate(scenario: Scenario, x0: Optional[np.ndarray] = None,
             sink=None) -> Trajectory:
    """Run the scenario on the uniform grid t_i = i*dt.

    ``x0`` overrides the seeded random initial state.  On divergence the
    trajectory up to the last finite state is attached to the raised
    :class:`SimulationDiverged`.

    ``sink``, if given, follows the run as it is recorded: the run is
    recorded into ``sink.traj``, a trajectory of the scenario on this grid,
    which is returned or raised with, and after each block of
    ``DIVERGENCE_BLOCK`` steps the loop calls ``sink.publish(rows, ended)``:
    rows 0..rows-1 are finite and checked, and ``ended`` says the run ends
    with them, which it does after the last block or, cut at its first
    diverged state, before the raise.
    """
    n = scenario.n
    steps = scenario.n_steps
    dt = scenario.dt
    p = scenario.params[0]

    if x0 is None:
        x = init_random(scenario)
    else:
        x = np.array(x0, dtype=complex)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("x0 must be a non-empty 1-d complex array")
        if not np.isfinite(x).all():
            raise ValueError("x0 contains non-finite components")
        if len(x) != n:
            raise ValueError(f"x0 has {len(x)} states, scenario has {n}")

    traj = (Trajectory(np.arange(steps + 1) * dt,
                       np.empty((steps + 1, n), dtype=complex), scenario)
            if sink is None else sink.traj)
    t_grid, xs = traj.t, traj.x
    xs[0] = x

    # the start-up extra impedance makes the admittances piecewise constant:
    # steps [0, k) start before t_z, steps [k, steps) at or after it
    k = traj.segments[1][0]
    d = scenario.disturbance
    if d is not None and d.amplitude == 0.0:
        d = None
    w = _Workspace(x)
    field, field_post = (
        _bind_field(p, p.kappa_beta * y / y_sigma, d, 0.5 * dt)
        for _, y, y_sigma in traj.segments)

    # the loop records states only and checks them once per block of rows;
    # the few steps it takes past a divergence must not warn
    with np.errstate(all="ignore"):
        for start in range(0, steps, DIVERGENCE_BLOCK):
            stop = min(start + DIVERGENCE_BLOCK, steps)
            for s in range(start, stop):
                if s == k:
                    field = field_post
                xs[s + 1] = rk4_increment(field, s * dt, x, dt, w)
            found = _first_diverged(xs[start + 1:stop + 1])
            if found is not None:
                row, inverter = found
                kept = start + row + 1      # rows 0..start+row are finite
                # the run keeps its segments, the second of which may now
                # start past its last row
                traj.t, traj.x = t_grid[:kept].copy(), xs[:kept].copy()
                if sink is not None:
                    sink.publish(kept, True)
                raise SimulationDiverged(
                    t_grid[kept], inverter, float(np.abs(xs[kept - 1]).max()),
                    traj)
            if sink is not None:
                sink.publish(stop + 1, stop == steps)
    return traj
