"""Decentralized contraction certificates for the closed-loop oscillator.

The local map h(x) = (chi*I + omega0*J - kappa*beta*I)x is contracting in the
Euclidean metric whenever

    margin c = kappa*beta - xi*2*Xnom^2 > 0,

because the symmetric Jacobian part is bounded above by -c for every state.
Since all coupled inverters share the identical bus-voltage input, a positive
margin certifies that any two trajectories approach each other at least as
fast as exp(-c*t), and that a bounded disturbance d produces at most a
|d|/c-radius steady separation.  Everything here is plain algebra on the
parameters plus sampled verification of the eigenvalue bound.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Optional

import numpy as np

from .oscillator import InverterParams, sym_lambda_max

ENVELOPE_FLOOR = 1e-12      # pu; round-off floor of envelope_check
ENVELOPE_SLACK = 0.05       # relative widening of envelope_check's envelope
# States sampled_lambda_check draws and evaluates at once: its buffers and
# sym_lambda_max's scratch peak at ~80 bytes a state (658,488 bytes under
# tracemalloc), so ~0.66 MB whatever the sample count
_SAMPLE_BLOCK = 8192
# The most samples sampled_lambda_check takes: what 1 GiB admitted when one
# array held every state (~96 bytes each); in blocks it bounds the run time
# (~1.1 s for a whole dvocsim certify process on a 2-vCPU host) rather than
# memory
_MAX_SAMPLES = 11_184_809


class NotContractingError(ValueError):
    """Raised when an operation requires a positive contraction margin."""


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the algebraic contraction check for one parameter set."""

    margin_c: float                         # kappa*beta - xi*2*Xnom^2, 1/s
    passed: bool                            # margin strictly positive
    lambda_max_sampled: Optional[float] = None
    error_ball_radius: Optional[float] = None   # pu per unit disturbance bound
    _: KW_ONLY
    params: InverterParams                  # last in report.json's order


@dataclass(frozen=True)
class EnvelopeResult:
    ok: bool
    first_violation_time: Optional[float] = None


def certificate_margin(params: InverterParams) -> CertificateReport:
    """Algebraic certificate: margin kappa*beta - xi*2*Xnom^2, pass iff > 0."""
    margin = params.kappa_beta - params.xi * params.x_nom_sq2
    return CertificateReport(margin_c=margin, passed=margin > 0, params=params)


def sampled_lambda_check(params: InverterParams, radius: float,
                         n_samples: int, seed: int) -> float:
    """Largest symmetric-Jacobian eigenvalue on sampled states of norm <=
    radius; the certificate bounds it by -margin_c.

    The origin (the analytic maximizer of the symmetric part's top eigenvalue)
    is always included ahead of the ``n_samples`` random states.  They go
    through ``sym_lambda_max`` in blocks of ``_SAMPLE_BLOCK`` states, keeping
    only the running maximum, so memory stays constant at any sample count.
    The blocks hold the states that one draw of all of them gives: the
    angles come from ``PCG64(seed)`` and the radii from a second
    ``PCG64(seed)`` advanced past the ``n_samples`` angles, as two
    successive draws of ``default_rng(seed)`` would.  One block and its
    draws are allocated per call and refilled in place: u from
    ``Generator.random`` scaled to 2*pi*u and radius*sqrt(u), the bits of
    ``uniform(0, 2*pi)`` and ``uniform(0, 1)``, and cos and sin written into
    the block's parts.  The radius must keep ``sym_lambda_max``'s largest
    intermediate, ~4*xi*radius^2, finite.
    """
    if not (radius > 0 and math.isfinite(4.0 * params.xi * radius * radius)):
        raise ValueError(f"radius must be finite and > 0, with 4*xi*radius^2 "
                         f"finite (xi = {params.xi}), got {radius}")
    if not 1 <= n_samples <= _MAX_SAMPLES:
        raise ValueError(f"n_samples must be 1 to {_MAX_SAMPLES:,} "
                         f"inclusive, got {n_samples:,}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    angles = np.random.Generator(np.random.PCG64(seed))
    radii = np.random.Generator(np.random.PCG64(seed).advance(n_samples))
    # one block, and its draws, for every block: the first holds the origin
    # and the last may be short
    size = min(_SAMPLE_BLOCK, n_samples + 1)
    block = np.zeros(size, dtype=complex)
    draws = np.empty((2, size))
    peak = -np.inf
    for start in range(0, n_samples + 1, _SAMPLE_BLOCK):
        states = block[:min(size, n_samples + 1 - start)]
        drawn = states[1:] if start == 0 else states    # the origin first
        theta, r = draws[:, :drawn.size]
        # uniform(0, 2*pi) is 0.0 + 2*pi*u and uniform(0, 1) is u, for the
        # u that random() draws: the same bits
        angles.random(out=theta)
        np.multiply(theta, 2.0 * np.pi, out=theta)
        radii.random(out=r)
        np.sqrt(r, out=r)
        np.multiply(r, radius, out=r)
        np.cos(theta, out=drawn.real)
        np.multiply(drawn.real, r, out=drawn.real)
        np.sin(theta, out=drawn.imag)
        np.multiply(drawn.imag, r, out=drawn.imag)
        peak = np.maximum(peak, sym_lambda_max(states, params).max())
    return float(peak)


def error_ball_radius(d_bar: float, c: float) -> float:
    """Steady separation bound d_bar/c for disturbances with |d| <= d_bar."""
    if not 0 <= d_bar < math.inf:
        raise ValueError(f"d_bar must be finite and >= 0, got {d_bar}")
    if not c > 0:
        raise NotContractingError(
            f"error ball needs a positive contraction margin, got c={c}")
    return d_bar / c


def envelope_check(t_i: np.ndarray, x_i: np.ndarray,
                   t_j: np.ndarray, x_j: np.ndarray,
                   c: float) -> EnvelopeResult:
    """Check |x_i(t) - x_j(t)| <= exp(-c*t)*|x_i(0) - x_j(0)|*(1 +
    ENVELOPE_SLACK), or at most ``ENVELOPE_FLOOR``.

    The two series must share one uniform time grid; the states are complex
    alpha + j*beta samples.  Reports the first grid time that exceeds the
    envelope.

    Once two trajectories have synchronized, round-off leaves them ~1e-16 pu
    apart while the envelope keeps decaying below that, so without a floor
    every long enough run would "violate" it.  States are O(1..10) pu, and
    the 1e-12 pu floor is ~4500 ulp of a unit amplitude: far above that
    round-off and far below any separation the certificate bounds.
    """
    t_i = np.asarray(t_i, dtype=float)
    t_j = np.asarray(t_j, dtype=float)
    if not c > 0:
        raise NotContractingError(
            f"envelope needs a positive contraction rate, got c={c}")
    if c == math.inf:       # -c*0.0 at the first grid time is NaN
        raise ValueError(
            f"envelope needs a finite contraction rate, got c={c}")
    if t_i.shape != t_j.shape or not np.array_equal(t_i, t_j):
        raise ValueError("trajectories are on different time grids")
    if len(t_i) != len(x_i) or len(t_j) != len(x_j):
        raise ValueError("time grid and state series lengths differ")
    if len(t_i) == 0:
        raise ValueError("the series are empty")
    if len(t_i) >= 3:
        steps = np.diff(t_i)
        if np.max(steps) - np.min(steps) > 1e-9 * max(np.max(np.abs(steps)), 1e-300):
            raise ValueError("time grid is not uniform")
    dist = np.abs(np.asarray(x_i) - np.asarray(x_j))
    envelope = dist[0] * np.exp(-c * (t_i - t_i[0])) * (1.0 + ENVELOPE_SLACK)
    bad = np.nonzero(dist > np.maximum(envelope, ENVELOPE_FLOOR))[0]
    if bad.size == 0:
        return EnvelopeResult(ok=True)
    return EnvelopeResult(ok=False, first_violation_time=float(t_i[bad[0]]))
