"""Fixed-step simulation of N oscillators coupled through the algebraic bus.

The network is algebraic, so the bus term of every inverter's field is one
linear form of the states: kappa*v_o = g . x with the coupling vector
g = kappa*beta*Y/Y_sigma.  The per-inverter dynamics are deliberately
assembled as

    dx_k/dt = h(x_k) + kappa*v_o(t) [+ d_k(t)]

with the identical bus term for every k, which is the structure the
synchronization certificate relies on.  All inverters advance with classical
RK4; the step loop records states only, and the bus voltage and branch
currents are computed from the recorded states afterwards.  Fixed stepping
keeps runs bit-exact for a given scenario and seed; start-up impedance
removal is aligned to the step boundary at or after t_z, which splits a run
into two segments with constant admittances.  A run is strictly sequential,
but distinct scenarios share no mutable state and can be simulated
concurrently.

The step loop is bound by interpreter overhead, not arithmetic: an N = 4
state is four complex numbers.  So ``simulate`` builds one set of RK4
buffers per run (``_Workspace``) and one field per admittance segment
(``_bind_field``), and every step writes into their buffers with ``out=``
ufunc calls, allocating no array and casting no operand.  The scalar
operands are 0-d arrays of the operand's own dtype: under numpy's scalar
promotion rules (NEP 50) a Python float or complex is converted afresh on
every call, and a 0-d array goes through the same stride-0 loop.  The bus
term g . x goes into a 0-d buffer.  Each field is a closure over its
segment's operands, the step that starts at t_z switches to the second one,
and the kernels call ufuncs through module-level aliases, which cuts the
name lookups around each call.  ``_bind_field`` states the identities by
which its in-place arithmetic keeps the bits of the allocating form.
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
# Largest trajectory a run may record, ~32*(S+1)*N bytes for S steps and N
# inverters (t, x, v_o and the currents).  1 GiB is three times case II with
# N = 500 at t_end = 2 s (~320 MB).  Post-processing adds 8*S bytes of
# synchronization error series and the temporaries of one block of 1,024
# steps (~12 MB at N = 500, at any S), which leaves room for it and for the
# output of such a run on a machine with a few GB of memory.
MAX_TRAJECTORY_BYTES = 2**30

WAVEFORMS = ("constant", "rotating")


class SimulationDiverged(RuntimeError):
    """A state left the modeled regime at time ``t``.

    ``last_norm`` is the largest |x| of the last finite recorded state, and
    ``trajectory`` holds every recorded state up to it.
    """

    def __init__(self, t: float, inverter: int, last_norm: float,
                 trajectory: "Trajectory"):
        super().__init__(
            f"state of inverter index {inverter} diverged at t={t:.6g} s "
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
    size = 32 * n * (round(steps) + 1)     # integer: no overflow for any n
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
        ref = self.params[0]
        for k, p in enumerate(self.params[1:], start=2):
            for f in fields(InverterParams):
                if getattr(p, f.name) != getattr(ref, f.name):
                    raise ValueError(
                        f"inverter {k} differs in {f.name}: the local map "
                        "must be identical across inverters")
        if self.network.omega_eval != ref.omega0:
            raise ValueError(
                f"network.omega_eval = {self.network.omega_eval} differs from "
                f"omega0 = {ref.omega0}: branch impedances must be evaluated "
                "at the oscillator frequency")
        check_grid(len(self.params), self.t_end, self.dt)
        if not 0.0 < self.dt * ref.omega0 < MAX_DT_OMEGA:
            raise ValueError(
                f"dt*omega0 = {self.dt * ref.omega0:.3g} outside (0, "
                f"{MAX_DT_OMEGA}): need > ~31 steps per cycle")
        if self.disturbance is not None and not (
                0 <= self.disturbance.inverter < len(self.params)):
            raise ValueError(
                f"disturbance inverter index {self.disturbance.inverter} "
                f"out of range for {len(self.params)} inverters")
        for k, _ in self.init.overrides:
            if not 0 <= k < len(self.params):
                raise ValueError(
                    f"init override index {k} out of range for "
                    f"{len(self.params)} inverters")

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid time series of states, bus voltage and branch currents."""

    t: np.ndarray           # (S+1,), s
    x: np.ndarray           # (S+1, N) complex, pu
    v_o: np.ndarray         # (S+1,) complex, V
    currents: np.ndarray    # (S+1, N) complex, A
    scenario: Scenario = field(repr=False)

    @property
    def n(self) -> int:
        return self.x.shape[1]


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
_add, _multiply, _subtract = np.add, np.multiply, np.subtract


class _Workspace:
    """One run's RK4 buffers, which every step of ``simulate`` writes into:
    the stages k1..k4, the stage state and the accumulator, and the 0-d
    weights.  It belongs to one run, never to the module, so distinct runs
    can go on concurrently.  A plain class: a dataclass would add ~1 ms to
    ``import dvocsim``.
    """

    __slots__ = ("stages", "weights")

    def __init__(self, n: int, dt: float):
        self.stages = tuple(np.empty(n, dtype=complex) for _ in range(6))
        # a Python float operand takes on the state's dtype (NEP 50)
        self.weights = tuple(np.array(w, dtype=complex)
                             for w in (0.5 * dt, dt, dt / 6.0, 2.0))


def _bind_field(p: InverterParams, y: np.ndarray, ys: np.ndarray,
                g: np.ndarray, d: Optional[DisturbanceSpec]):
    """The coupled derivative h(x_k) + kappa*v_o (+ disturbance on one
    inverter), as ``field(t, x, out)`` writing into ``out``.

    The field is a closure over its operands, bound once per admittance
    segment, so that an evaluation loads them from its cells.  ``y`` and
    ``ys`` are the run's state and RK4 stage state, whose float views are
    built here; any other contiguous complex ``x`` gets its view per call.
    ``g`` is the coupling vector kappa*beta*Y/Y_sigma, so g . x =
    kappa*v_o.  The result has the bits of the allocating h(x) + np.dot(g,
    x), with h(x) = (chi(x) - kappa*beta + j*omega0)*x, by three identities:

    * |x|^2 is one multiply of ``x.view(np.float64)`` by itself and one add
      of its even and odd elements, term by term ``x.real**2 + x.imag**2``.
      Not ``(x*x.conj()).real``: numpy's complex multiply uses fused
      multiply-adds where the CPU has them (AVX-512, say), which changes the
      trajectory.
    * chi - kappa*beta is a float add into the real part of ``gain``, whose
      imaginary part holds omega0: the allocating form adds -kappa*beta +
      j*omega0 to chi cast to complex, and 0.0 + omega0 is omega0.
    * ``g.dot(x, bus)`` runs the routine of ``np.dot(g, x)`` without its
      ``__array_function__`` dispatch.
    """
    # a view costs about as much as a ufunc call, so the states have
    # theirs built once
    yv, ysv = y.view(np.float64), ys.view(np.float64)
    sq = np.empty(2 * len(y))
    sq_re, sq_im = sq[0::2], sq[1::2]
    gain = np.full(len(y), complex(0.0, p.omega0))
    gain_re = gain.real
    xi = np.array(p.xi)
    x_nom_sq2 = np.array(p.x_nom_sq2)
    neg_kappa_beta = np.array(-p.kappa_beta)
    bus = np.empty((), dtype=complex)
    omega0 = p.omega0

    def field(t: float, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        xv = yv if x is y else ysv if x is ys else x.view(np.float64)
        _multiply(xv, xv, sq)
        _add(sq_re, sq_im, gain_re)
        _subtract(x_nom_sq2, gain_re, gain_re)
        _multiply(xi, gain_re, gain_re)
        _add(gain_re, neg_kappa_beta, gain_re)
        _multiply(gain, x, out)
        g.dot(x, bus)
        _add(out, bus, out)
        if d is not None:
            out[d.inverter] += _disturbance_at(d, omega0, t)
        return out

    return field


def rk4_increment(f, t: float, y: np.ndarray, dt: float,
                  w: _Workspace) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of dy/dt = f(t, y).

    Every simulation step in the package goes through this kernel.  ``w`` is
    a workspace built for ``len(y)`` and ``dt``, ``f(t, x, out)`` writes the
    derivative at ``x`` into ``out``, and the step is written into ``y`` and
    returned.  The ufunc calls and their order are those of ``y + dt/6*(k1 +
    2*k2 + 2*k3 + k4)`` with Python float weights, which take on y's dtype
    (NEP 50) as the 0-d weights do, so are the bits.
    """
    half, whole, sixth, two = w.weights
    k1, k2, k3, k4, ys, acc = w.stages
    f(t, y, k1)
    _add(y, _multiply(half, k1, acc), ys)
    f(t + 0.5 * dt, ys, k2)
    _add(y, _multiply(half, k2, acc), ys)
    f(t + 0.5 * dt, ys, k3)
    _add(y, _multiply(whole, k3, acc), ys)
    f(t + dt, ys, k4)
    _add(k1, _multiply(two, k2, acc), acc)
    _add(acc, _multiply(two, k3, ys), acc)
    _add(acc, k4, acc)
    return _add(y, _multiply(sixth, acc, acc), y)


def _first_diverged(rows: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, inverter) of the first state outside the modeled regime in a
    block of recorded rows, or None when every state is inside it."""
    bad = ~(np.abs(rows) <= DIVERGENCE_NORM)    # NaN compares false
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), rows.shape[1])


def _trajectory(scenario: Scenario, t: np.ndarray, xs: np.ndarray,
                k: int, segments) -> Trajectory:
    """The trajectory of the recorded states ``xs``, with the bus voltage and
    branch currents computed from them.

    Rows before ``k`` see the first of ``segments``' admittances
    ``(y, y_sigma)``, the rest the second's.  Both arrays are filled in
    place, one segment at a time, with no (rows, N) temporary.
    """
    beta = scenario.params[0].beta
    vs = np.empty(len(xs), dtype=complex)
    cs = np.empty(xs.shape, dtype=complex)
    k = min(k, len(xs))
    for rows, (y, y_sigma) in zip((slice(0, k), slice(k, len(xs))), segments):
        vs[rows] = pcc_voltage(xs[rows], y, y_sigma, beta)
        branch_currents(xs[rows], vs[rows], y, beta, out=cs[rows])
    return Trajectory(t, xs, vs, cs, scenario)


def simulate(scenario: Scenario,
             x0: Optional[np.ndarray] = None) -> Trajectory:
    """Run the scenario on the uniform grid t_i = i*dt.

    ``x0`` overrides the seeded random initial state.  On divergence the
    trajectory up to the last finite state is attached to the raised
    :class:`SimulationDiverged`.
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

    t_grid = np.arange(steps + 1) * dt
    xs = np.empty((steps + 1, n), dtype=complex)
    xs[0] = x

    # the start-up extra impedance makes the admittances piecewise constant:
    # steps [0, k) start before t_z, steps [k, steps) at or after it
    net = scenario.network
    segments = [(net.admittances(t), total_admittance(net, t))
                for t in (0.0, math.inf)]
    k = int(np.searchsorted(t_grid, net.t_z))
    d = scenario.disturbance
    if d is not None and d.amplitude == 0.0:
        d = None
    w = _Workspace(n, dt)
    field, field_post = (
        _bind_field(p, x, w.stages[4], p.kappa_beta * y / y_sigma, d)
        for y, y_sigma in segments)

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
                raise SimulationDiverged(
                    t_grid[kept], inverter, float(np.abs(xs[kept - 1]).max()),
                    _trajectory(scenario, t_grid[:kept].copy(),
                                xs[:kept].copy(), k, segments))
    return _trajectory(scenario, t_grid, xs, k, segments)
