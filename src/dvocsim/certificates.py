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

import contextlib
import math
import os
import queue
import threading
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .oscillator import InverterParams, sym_lambda_max

ENVELOPE_FLOOR = 1e-12      # pu; round-off floor of envelope_check
ENVELOPE_SLACK = 0.05       # relative widening of envelope_check's envelope
# States sampled_lambda_check evaluates at once: the states and angles of
# two groups of _GROUP blocks and sym_lambda_max's scratch peak at ~145 bytes
# a state (1,188,660 bytes under tracemalloc; 1,184,976 on one CPU), so
# ~1.19 MB whatever the sample count
_SAMPLE_BLOCK = 8192
# Blocks per helper call of sampled_lambda_check: cos and sin of two blocks
# hold the GIL only at their ends, half as often as those of one block
_GROUP = 2
# The most samples sampled_lambda_check takes: what 1 GiB admitted when one
# array held every state (~96 bytes each); in blocks it bounds the run time
# (~0.9 s for a whole dvocsim certify process on a 2-vCPU host, 1.1-1.5 s
# on one CPU) rather than memory
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
    through ``sym_lambda_max`` in blocks of ``_SAMPLE_BLOCK`` states, in draw
    order, keeping only the running maximum, so memory stays constant at
    any sample count.  This thread draws the states and evaluates them; of
    the draws, only the cos and sin of the angles (``_polar``), the calls
    that run longest without the GIL, go through ``_polar_on``, a group of
    ``_GROUP`` blocks a call, group k + 1 asked for before group k is
    evaluated.  Block 0, which holds the origin, is a group of its own, and
    its cos and sin are this thread's: nothing waits for a helper to start.
    The radius must keep ``sym_lambda_max``'s largest intermediate,
    ~4*xi*radius^2, finite.

    The angles come from ``PCG64(seed)`` and the radii from a second
    ``PCG64(seed)`` advanced past the ``n_samples`` angles, as two
    successive draws of ``default_rng(seed)`` would.  Two groups' states
    and angles are refilled in place, group k in buffer k % 2: u from
    ``Generator.random`` scaled to 2*pi*u and radius*sqrt(u), the bits of
    ``uniform(0, 2*pi)`` and ``uniform(0, 1)``; a group's radii are drawn
    into its angles once its cos and sin are in the states' parts.
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
    # group k holds states max(edges[k], 0) up to edges[k] + step: block 0,
    # with the origin, then groups of _GROUP blocks; the last may be short
    total, step = n_samples + 1, _GROUP * _SAMPLE_BLOCK
    edges = range(min(_SAMPLE_BLOCK, total) - step, total, step)
    # each group's states, then its angles as floats, in one allocation:
    # glibc's malloc raises its mmap threshold to the largest one freed, so
    # from the second call on it comes from the heap without page faults
    size = min(step, total)
    rows = np.empty((len(edges[:2]), size + (size + 1) // 2), dtype=complex)
    pool = [(row[:size], row[size:].view(float)[:size]) for row in rows]
    rows[0, 0] = 0                                      # the origin

    def draw(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # group k's states, those drawn (not the origin) and their angles
        block, theta = pool[k % 2]
        states = block[:min(edges[k] + step, total) - max(edges[k], 0)]
        drawn = states[1:] if k == 0 else states      # the origin first
        theta = theta[:drawn.size]
        # uniform(0, 2*pi) is 0.0 + 2*pi*u and uniform(0, 1) is u, for the
        # u that random() draws: the same bits
        angles.random(out=theta)
        np.multiply(theta, 2.0 * np.pi, out=theta)
        return states, drawn, theta

    peak = -np.inf
    with _polar_on(n_samples >= _SAMPLE_BLOCK
                   and hasattr(os, "sched_getaffinity")
                   and len(os.sched_getaffinity(0)) > 1) as (submit, wait):
        group = draw(0)
        for k in range(len(edges)):
            states, drawn, theta = group
            if k + 1 < len(edges):
                group = draw(k + 1)
                submit(group[1:])
            if k == 0:
                _polar(drawn, theta)
            else:
                wait()
            r = theta       # free once its cos and sin are in the states
            radii.random(out=r)
            np.sqrt(r, out=r)
            np.multiply(r, radius, out=r)
            np.multiply(drawn.real, r, out=drawn.real)
            np.multiply(drawn.imag, r, out=drawn.imag)
            for start in range(0, states.size, _SAMPLE_BLOCK):
                block = states[start:start + _SAMPLE_BLOCK]
                peak = np.maximum(peak, sym_lambda_max(block, params).max())
    return float(peak)


def _polar(drawn: np.ndarray, theta: np.ndarray) -> None:
    """Write cos(theta) and sin(theta) into drawn's real and imag parts."""
    np.cos(theta, out=drawn.real)
    np.sin(theta, out=drawn.imag)


@contextlib.contextmanager
def _polar_on(helper: bool) -> Iterator[tuple[Callable, Callable]]:
    """``(submit, wait)``: ``submit((drawn, theta))`` asks for
    ``_polar(drawn, theta)`` and ``wait()`` returns once the oldest one
    asked for has run: on a helper thread if ``helper``, else on this one,
    and ``wait`` raises what the helper raised.  On leaving, the helper is
    stopped and joined: no thread outlives it.  No thread's CPU affinity is
    set.
    """
    if not helper:
        asked: list = []
        yield asked.append, lambda: _polar(*asked.pop(0))
        return
    todo: queue.SimpleQueue = queue.SimpleQueue()   # jobs, then None
    done: queue.SimpleQueue = queue.SimpleQueue()   # None or an exception

    def work() -> None:
        try:
            while (job := todo.get()) is not None:
                _polar(*job)
                done.put(None)
        except BaseException as err:    # raised in the caller's thread
            done.put(err)

    def wait() -> None:
        if (err := done.get()) is not None:
            raise err

    thread = threading.Thread(target=work, name="sampler", daemon=True)
    thread.start()
    try:
        yield todo.put, wait
    finally:
        todo.put(None)
        thread.join()


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
