"""Canned wind-plant scenarios and post-processing metrics.

Two stock configurations mirror the validation study layout:

* case I -- every branch is the bare 0.75 km collector line, no virtual
  impedance, no start-up impedance.
* case II -- virtual impedance scales each branch to 20x the case-I value
  except a designated low-impedance pair at 10.5x, and every branch carries a
  (multiplier - 1)x start-up series impedance removed at ``t_z``.

The downstream load is specified in per-unit of a base impedance tied to the
aggregate branch admittance: |z_net| = load_pu * domination_ratio / |sum(Y_i)|.
A large default ratio keeps the branch admittances dominant even while the
start-up impedances are in circuit, which the reduced algebraic model needs to
stay out of the oscillator-death regime during the soft start.

``build_metrics`` computes what the runs are meant to show: worst pairwise
state distance (synchronization) and its trailing-window mean (separation),
trailing-window current amplitudes and their ratios (proportional sharing),
steady amplitude, and the fitted exponential decay rate of the
synchronization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import (DisturbanceSpec, InitSpec, Scenario, Trajectory,
                     check_grid)
from .network import (BranchParams, NetworkConfig, OscillatorDeath,
                      particular_radius)
from .oscillator import InverterParams

# per-km collector line constants, ohm/km and H/km
LINE_R_PER_KM = 0.1153
LINE_L_PER_KM = 1.05e-3
LINE_KM = 0.75

CASE2_HIGH_MULT = 20.0
CASE2_LOW_MULT = 10.5

SYNC_THRESHOLD = 1e-3       # pu; "synchronized" means below this
DEFAULT_WINDOW = 0.04       # s; two cycles at 50 Hz

# sync_error's screen: below _SCREEN_MIN_N inverters it costs more than the
# pairs it saves (timed against all pairs on case II runs of 1,001 and 5,001
# steps, it breaks even at 24-28 and wins at 32 on every run); its upper
# bound is widened by a relative and an absolute margin
_SCREEN_MIN_N = 32
_SLACK = 1.0 + 2.0 ** -48
_FLOOR = 2.0 ** -1022
# sync_error's steps per block: on case II runs of 10,001 steps at N = 4 and
# 8, 1,024 was faster than 256, 512 or all steps at once, and within 0.2 ms
# of 2,048 and 4,096, which at N = 500 (2,001 steps) need twice its
# tracemalloc peak (23.2 against 11.9 MB)
_STEP_BLOCK = 1024


@dataclass(frozen=True)
class MetricsReport:
    """Quantities reported for one simulation run, in report.json's order."""

    sync_time: Optional[float]          # s; None if never achieved
    sync_threshold: float
    synchronized: bool                  # series below threshold in the window
    separation: float                   # pu, trailing-window mean of series
    current_amplitudes: tuple[float, ...]   # A, trailing-window RMS
    # None when branch 1 carries no current
    sharing_ratios: Optional[tuple[float, ...]]  # amplitudes over branch 1's
    sharing_ratio_error: Optional[float]  # max rel. deviation from |Y_i|/|Y_1|
    amplitude: float                    # pu, trailing-window mean of |x_1|
    fitted_rate: Optional[float]        # 1/s; None if the fit is degenerate
    window: float
    sync_error_series: np.ndarray       # max pairwise |x_i - x_j| per step, pu


def case2_low_indices(n: int) -> tuple[int, int]:
    """0-based positions of the low-impedance pair (units #11/#19 when present)."""
    if n >= 19:
        return (10, 18)
    return (1, 2)


def build_case(case_id: str, n: int, seed: int, *,
               t_end: float = 2.0, dt: float = 1e-4,
               load_pu: float = 1.0, load_angle: float = 0.0,
               domination_ratio: float = 1e4,
               zt_multiplier: float = 200.0, zt_jitter: bool = False,
               t_z: float = 0.4,
               base: Optional[InverterParams] = None,
               init: Optional[InitSpec] = None,
               disturbance: Optional[DisturbanceSpec] = None) -> Scenario:
    """Fully populated scenario for case I or II with n inverters."""
    case = str(case_id).strip().upper()
    if case in ("1", "I"):
        case = "I"
        if n < 2:
            raise ValueError(f"case I needs n >= 2, got {n}")
    elif case in ("2", "II"):
        case = "II"
        if n < 4:
            raise ValueError(f"case II needs n >= 4 so both impedance "
                             f"groups are populated, got {n}")
    else:
        raise ValueError(f"unknown case id {case_id!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 < load_pu < math.inf:
        raise ValueError(f"load_pu must be finite and > 0, got {load_pu}")
    if not 0.0 <= load_angle <= math.pi / 2:
        raise ValueError(f"load_angle must be in [0, pi/2], got {load_angle}")
    if not 0 < domination_ratio < math.inf:
        raise ValueError(f"domination_ratio must be finite and > 0, "
                         f"got {domination_ratio}")
    if not 1 <= zt_multiplier < math.inf:
        raise ValueError(f"zt_multiplier must be finite and >= 1, "
                         f"got {zt_multiplier}")
    check_grid(n, t_end, dt)

    if base is None:
        base = InverterParams()
    r_line = LINE_KM * LINE_R_PER_KM
    x_line = LINE_KM * base.omega0 * LINE_L_PER_KM

    if case == "I":
        mults = [1.0] * n
    else:
        low = case2_low_indices(n)
        mults = [CASE2_LOW_MULT if k in low else CASE2_HIGH_MULT
                 for k in range(n)]
    z_branch = np.array([complex(m * r_line, m * x_line) for m in mults])
    if case == "II" and zt_multiplier > 1:
        factors = np.ones(n)
        if zt_jitter:
            factors = np.random.default_rng([seed, 1]).uniform(0.8, 1.2, n)
        z_extras = [(zt_multiplier * f - 1.0) * z for f, z in
                    zip(factors, z_branch)]
    else:
        z_extras = [0j] * n
        t_z = 0.0

    # physical line plus virtual impedance scaling the branch to mult x line
    branches = tuple(
        BranchParams(r_f=r_line, l_f=LINE_KM * LINE_L_PER_KM,
                     r_v=(m - 1.0) * r_line, x_v=(m - 1.0) * x_line,
                     z_extra=z_extra)
        for m, z_extra in zip(mults, z_extras))
    y_sum = np.sum(1.0 / z_branch)
    z_net = (load_pu * domination_ratio / abs(y_sum)) * np.exp(1j * load_angle)
    network = NetworkConfig(branches=branches, z_net=complex(z_net),
                            omega_eval=base.omega0, t_z=t_z)

    if init is None:
        init = InitSpec(seed=seed, norm_bound=1.0, overrides=((0, 10.0),))
    return Scenario(params=(base,) * n, network=network, t_end=t_end, dt=dt,
                    init=init, disturbance=disturbance)


def _max_pair_distance(xt: np.ndarray) -> np.ndarray:
    """Per column of an (n, m) array, the largest |xt[i] - xt[j]| over
    i < j (0.0 for one row), with a running maximum over the rows."""
    out = np.zeros(xt.shape[1])
    for i in range(len(xt) - 1):
        np.maximum(out, np.abs(xt[i] - xt[i + 1:]).max(axis=0), out=out)
    return out


def _kept(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row's kept values, in order, as the columns of a (k, m) array,
    k the largest count; a shorter column repeats its first value."""
    row, col = np.nonzero(keep)
    count = keep.sum(axis=1)
    start = np.cumsum(count) - count
    out = np.empty((count.max(), len(keep)), values.dtype)
    out[:] = values[row[start], col[start]]
    out[np.arange(len(row)) - start[row], row] = values[row, col]
    return out


def sync_error(traj: Trajectory) -> np.ndarray:
    """Max pairwise |x_i - x_j| at each time step (zero for one inverter).

    The result is the maximum of the same ``np.abs(x_i - x_j)`` values as
    the comparison of all N(N-1)/2 pairs, bit for bit and NaN included;
    fewer pairs are compared.  That comparison runs each inverter against
    the higher-numbered ones on an (N, m) copy of the states of m steps,
    keeping a running per-step maximum; below ``_SCREEN_MIN_N`` inverters
    it runs on every pair.

    From ``_SCREEN_MIN_N`` inverters on, a screen picks each step's
    candidates.  The exact distances among the extreme states along re,
    im, re + im and re - im give a lower bound L.  With c the centre of
    the bounding box and R = max_j |x_j - c|, no partner of state k is
    farther than |x_k - c| + R, so a pair longer than L joins two states
    whose bound reaches L.  The bound is widened by ``_SLACK`` (16 ulp of
    1.0: numpy's complex abs is within ~2 ulp, and with the subtractions
    and sums the round-off stays below ~7) and by ``_FLOOR`` (the smallest
    normal double, as the relative margin rounds away below it), so no
    pair longer than L is lost.  A step whose states are all equal
    (R == 0) is 0.0.  A step with a non-finite bound (a non-finite state,
    or one so large that the bound overflows) keeps every state in order,
    so NaN and inf come out as from all pairs.  The other steps are
    grouped by candidate count within a factor of two; a group drops exact
    duplicates (after synchronization a step holds a few distinct values
    among hundreds of states) and compares the pairs left.

    The steps are taken in blocks of ``_STEP_BLOCK``, whose maxima are
    written into one (S,) series.  Every quantity above is per step (the
    extremes, the bound, the candidate groups, the dropped duplicates), so
    the blocks change no bit, and the memory beyond the series is
    O(_STEP_BLOCK*N) at any S.
    """
    x = traj.x
    out = np.empty(len(x))
    for start in range(0, len(x), _STEP_BLOCK):
        part = x[start:start + _STEP_BLOCK]
        out[start:start + len(part)] = (
            _max_pair_distance(part.T.copy()) if traj.n < _SCREEN_MIN_N
            else _screened(part))
    return out


def _screened(x: np.ndarray) -> np.ndarray:
    """``sync_error`` from its screen, for the (m, N) states of m steps."""
    steps = np.arange(len(x))
    re, im = x.real, x.imag
    with np.errstate(all="ignore"):
        ends = x[steps, [f(v, axis=1) for v in (re, im, re + im, re - im)
                         for f in (np.argmin, np.argmax)]]
        out = _max_pair_distance(ends)
        bound = np.abs(x - (ends[0].real + ends[1].real + 1j * (
            ends[2].imag + ends[3].imag))[:, None] * 0.5)
        reach = bound.max(axis=1)
        bound += reach[:, None]
        bound *= _SLACK
        bound += _FLOOR
    keep = ~(bound < out[:, None])
    keep[reach == 0] = False
    finite = np.isfinite(reach)
    out[~finite] = 0.0
    count = keep.sum(axis=1)
    rows = np.flatnonzero(count > 1)
    group = np.where(finite[rows], np.frexp(count[rows])[1], 0)
    # the group numbers in order (np.unique would import numpy.ma)
    for g in np.flatnonzero(np.bincount(group)):
        part = rows[group == g]
        cand = _kept(x[part], keep[part])
        if g:
            cand.sort(axis=0)
            first = np.ones(cand.shape, bool)
            np.not_equal(cand[1:], cand[:-1], out=first[1:])
            cand = _kept(cand.T, first.T)
        out[part] = np.maximum(_max_pair_distance(cand), out[part])
    return out


def sync_time(t: np.ndarray, series: np.ndarray,
              threshold: float = SYNC_THRESHOLD) -> Optional[float]:
    """First time from which the series stays below threshold, or None."""
    below = series < threshold
    if not below[-1]:
        return None
    # last index where the series is still >= threshold
    above = np.nonzero(~below)[0]
    if len(above) == 0:
        return float(t[0])
    return float(t[above[-1] + 1])


def fit_decay_rate(t: np.ndarray, series: np.ndarray,
                   t_start: Optional[float] = None,
                   t_stop: Optional[float] = None) -> float:
    """Exponential decay rate: sign-flipped LSQ slope of log(series) vs t.

    Non-positive samples are excluded; fewer than 4 usable points in the
    window is an error.
    """
    t = np.asarray(t, dtype=float)
    series = np.asarray(series, dtype=float)
    mask = series > 0
    if t_start is not None:
        mask &= t >= t_start
    if t_stop is not None:
        mask &= t <= t_stop
    if mask.sum() < 4:
        raise ValueError(
            f"decay fit needs at least 4 positive samples, got {mask.sum()}")
    slope, _ = np.polyfit(t[mask], np.log(series[mask]), 1)
    return float(-slope)


def build_metrics(traj: Trajectory, *,
                  window: float = DEFAULT_WINDOW) -> MetricsReport:
    """Post-processing of one run; window quantities average the trailing
    ``window`` seconds."""
    if not 0.0 < window < math.inf:
        raise ValueError(f"window must be finite and > 0, got {window}")
    if traj.t[-1] - traj.t[0] <= window:
        raise ValueError("trajectory is shorter than the averaging window")
    series = sync_error(traj)
    # the rows with t >= t[-1] - window, as a view
    sel = slice(np.searchsorted(traj.t, traj.t[-1] - window), None)

    amps = np.sqrt((np.abs(traj.currents[sel]) ** 2).mean(axis=0))
    y = np.abs(traj.scenario.network.admittances(math.inf))
    ratios = error = None
    if amps[0] > 0:
        shares = amps / amps[0]
        ratios = tuple(float(r) for r in shares)
        error = float(np.abs(shares / (y / y[0]) - 1.0).max())

    # fit the decay where the series is still well above the roundoff floor
    floor = max(1e-12, 1e-12 * float(series[0]))
    usable = np.nonzero(series > floor)[0]
    rate: Optional[float] = None
    if len(usable) > 4:
        stop = float(traj.t[usable[-1]])
        start = float(traj.t[min(3, len(traj.t) - 1)])
        try:
            rate = fit_decay_rate(traj.t, series, start, stop)
        except ValueError:
            rate = None
    return MetricsReport(
        sync_error_series=series,
        sync_time=sync_time(traj.t, series),
        sync_threshold=SYNC_THRESHOLD,
        current_amplitudes=tuple(float(a) for a in amps),
        sharing_ratios=ratios,
        sharing_ratio_error=error,
        synchronized=bool((series[sel] < SYNC_THRESHOLD).all()),
        separation=float(series[sel].mean()),
        amplitude=float(np.abs(traj.x[sel, 0]).mean()),
        fitted_rate=rate, window=window)


def predicted_r_star(scenario: Scenario):
    """Closed-form synchronized amplitude for a scenario (post start-up)."""
    from .network import k_sh
    ks = k_sh(scenario.network, math.inf)
    return particular_radius(ks.real, scenario.params[0])


__all__ = [
    "CASE2_HIGH_MULT", "CASE2_LOW_MULT", "DEFAULT_WINDOW", "SYNC_THRESHOLD",
    "MetricsReport", "OscillatorDeath", "build_case", "build_metrics",
    "case2_low_indices", "fit_decay_rate", "predicted_r_star", "sync_error",
    "sync_time",
]
