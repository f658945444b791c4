"""Fixed-step simulation of N oscillators coupled through the algebraic bus.

Every step evaluates the common bus voltage from the current states (the
network is algebraic, solved by substitution) and advances all inverters with
classical RK4.  The per-inverter dynamics are deliberately assembled as

    dx_k/dt = h(x_k) + kappa*v_o(t) [+ d_k(t)]

with the identical bus term for every k, which is the structure the
synchronization certificate relies on.  Fixed stepping keeps runs bit-exact
for a given scenario and seed; start-up impedance removal is aligned to the
step boundary at or after t_z.  A run is strictly sequential, but distinct
scenarios share no mutable state and can be simulated concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .network import (NetworkConfig, branch_currents, pcc_voltage,
                      total_admittance)
from .oscillator import InverterParams, check_finite, local_map

DIVERGENCE_NORM = 100.0     # pu, far outside any modeled regime
MAX_DT_OMEGA = 0.2          # resolution guard: > ~31 steps per cycle
STEP_TOL = 1e-9             # relative tolerance of t_end/dt to a whole number
# Largest trajectory a run may record, ~32*(S+1)*N bytes for S steps and N
# inverters (t, x, v_o and the currents).  1 GiB is three times case II with
# N = 500 at t_end = 2 s (~320 MB), and leaves room for the post-processing
# and output of such a run on a machine with a few GB of memory.
MAX_TRAJECTORY_BYTES = 2**30

WAVEFORMS = ("constant", "rotating")


class SimulationDiverged(RuntimeError):
    """A state left the modeled regime; carries the partial trajectory."""

    def __init__(self, t: float, inverter: int,
                 trajectory: Optional["Trajectory"] = None):
        super().__init__(
            f"state of inverter index {inverter} diverged at t={t:.6g} s")
        self.t = t
        self.inverter = inverter
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


def _disturbance_at(scenario: Scenario, t: float) -> complex:
    d = scenario.disturbance
    if d is None or d.amplitude == 0.0:
        return 0j
    if d.waveform == "constant":
        return complex(d.amplitude)
    return d.amplitude * np.exp(1j * scenario.params[0].omega0 * t)


def _field(t: float, x: np.ndarray, scenario: Scenario,
           y: np.ndarray, y_sigma: complex) -> np.ndarray:
    """Coupled derivative h(x_k) + kappa*v_o (+ disturbance on one inverter)."""
    p = scenario.params[0]
    dx = local_map(x, p) + p.kappa * pcc_voltage(x, y, y_sigma, p.beta)
    if scenario.disturbance is not None:
        dx[scenario.disturbance.inverter] += _disturbance_at(scenario, t)
    return dx


def rk4_increment(f, t: float, y, dt: float):
    """One classical 4th-order Runge-Kutta step of dy/dt = f(t, y).

    Generic over scalars and arrays; this single kernel is what every
    simulation step in the package goes through.
    """
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_finite(x: np.ndarray, t: float) -> None:
    bad = ~(np.abs(x) <= DIVERGENCE_NORM)   # NaN compares false
    if bad.any():
        raise SimulationDiverged(t, int(np.argmax(bad)))


def simulate(scenario: Scenario,
             x0: Optional[np.ndarray] = None) -> Trajectory:
    """Run the scenario on the uniform grid t_i = i*dt.

    ``x0`` overrides the seeded random initial state (used by tests and
    sweeps that need full control of initial conditions).  On divergence the
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
    vs = np.empty(steps + 1, dtype=complex)
    cs = np.empty((steps + 1, n), dtype=complex)

    # the start-up extra impedance makes the admittances piecewise constant
    net = scenario.network
    y_pre, ysum_pre = net.admittances(0.0), total_admittance(net, 0.0)
    y_post, ysum_post = net.admittances(np.inf), total_admittance(net, np.inf)
    t_z = net.t_z

    def record(i: int, xi: np.ndarray) -> None:
        y, ysum = (y_pre, ysum_pre) if t_grid[i] < t_z else (y_post, ysum_post)
        v = pcc_voltage(xi, y, ysum, p.beta)
        xs[i] = xi
        vs[i] = v
        cs[i] = branch_currents(xi, v, y, p.beta)

    record(0, x)
    for s in range(steps):
        t_s = t_grid[s]
        y, ysum = (y_pre, ysum_pre) if t_s < t_z else (y_post, ysum_post)
        x = rk4_increment(
            lambda ts, xs: _field(ts, xs, scenario, y, ysum), t_s, x, dt)
        try:
            _check_finite(x, t_grid[s + 1])
        except SimulationDiverged as err:
            err.trajectory = Trajectory(
                t_grid[:s + 1].copy(), xs[:s + 1].copy(),
                vs[:s + 1].copy(), cs[:s + 1].copy(), scenario)
            raise
        record(s + 1, x)
    return Trajectory(t_grid, xs, vs, cs, scenario)
