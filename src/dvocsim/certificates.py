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
from typing import Iterator, Optional

import numpy as np

from .oscillator import InverterParams, sym_lambda_max

ENVELOPE_FLOOR = 1e-12      # pu; round-off floor of envelope_check
ENVELOPE_SLACK = 0.05       # relative widening of envelope_check's envelope
# States sampled_lambda_check draws and evaluates at once: with a block drawn
# ahead, two blocks' buffers and sym_lambda_max's scratch peak at ~113 bytes
# a state (929,645 bytes under tracemalloc; 659,776 with one block, on one
# CPU), so ~0.93 MB whatever the sample count
_SAMPLE_BLOCK = 8192
# The most samples sampled_lambda_check takes: what 1 GiB admitted when one
# array held every state (~96 bytes each); in blocks it bounds the run time
# (~0.8 s for a whole dvocsim certify process on a 2-vCPU host) rather than
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
    The blocks are those ``_blocks`` draws, in draw order: where this
    thread may run on two CPUs or more and there is more than one block, a
    helper thread draws block b + 1 while this thread evaluates block b
    (``_ahead``), else this thread draws each block before it evaluates it.
    The radius must keep ``sym_lambda_max``'s largest intermediate,
    ~4*xi*radius^2, finite.
    """
    if not (radius > 0 and math.isfinite(4.0 * params.xi * radius * radius)):
        raise ValueError(f"radius must be finite and > 0, with 4*xi*radius^2 "
                         f"finite (xi = {params.xi}), got {radius}")
    if not 1 <= n_samples <= _MAX_SAMPLES:
        raise ValueError(f"n_samples must be 1 to {_MAX_SAMPLES:,} "
                         f"inclusive, got {n_samples:,}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # a helper left to the scheduler may share this thread's CPU, and then
    # draws nothing ahead: without CPU affinity there is none
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else [])
    ahead = len(cpus) > 1 and n_samples >= _SAMPLE_BLOCK
    blocks = _blocks(radius, n_samples, seed, 2 if ahead else 1)
    peak = -np.inf
    with contextlib.closing(_ahead(blocks, cpus) if ahead else blocks) as drawn:
        for states in drawn:
            peak = np.maximum(peak, sym_lambda_max(states, params).max())
    return float(peak)


def _blocks(radius: float, n_samples: int, seed: int,
            buffers: int) -> Iterator[np.ndarray]:
    """The origin and ``n_samples`` states of norm <= radius, in blocks of
    ``_SAMPLE_BLOCK`` states that hold, in order, what one draw of all of
    them gives.

    The angles come from ``PCG64(seed)`` and the radii from a second
    ``PCG64(seed)`` advanced past the ``n_samples`` angles, as two
    successive draws of ``default_rng(seed)`` would.  ``buffers`` blocks,
    and their draws, are allocated per call and refilled in place, block k
    into buffer k % buffers: u from ``Generator.random`` scaled to 2*pi*u
    and radius*sqrt(u), the bits of ``uniform(0, 2*pi)`` and
    ``uniform(0, 1)``, and cos and sin written into the block's parts.  So
    a block is overwritten once ``buffers`` more have been asked for.
    """
    angles = np.random.Generator(np.random.PCG64(seed))
    radii = np.random.Generator(np.random.PCG64(seed).advance(n_samples))
    # the first block holds the origin and the last may be short
    size = min(_SAMPLE_BLOCK, n_samples + 1)
    pool = [(np.zeros(size, dtype=complex), np.empty((2, size)))
            for _ in range(buffers)]
    for k, start in enumerate(range(0, n_samples + 1, _SAMPLE_BLOCK)):
        block, draws = pool[k % buffers]
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
        yield states


def _ahead(items: Iterator[np.ndarray],
           cpus: list[int]) -> Iterator[np.ndarray]:
    """What ``items`` yields, in order, each taken from it on a helper
    thread while the caller works on the one before.

    The helper takes item k + 1 once the caller has item k, and item k + 2
    only once the caller asks for item k + 1, so ``items`` may refill item
    k's buffer with item k + 2.  It runs pinned to ``cpus[1]``, and the
    caller to ``cpus[0]``; an exception it raises is raised here.  When
    this ends or is closed, the helper is told to stop and joined, and the
    caller's affinity mask restored: no thread outlives it.
    """
    ready: queue.SimpleQueue = queue.SimpleQueue()  # items, then the end
    free = threading.Semaphore(2)   # buffers the caller is done with
    stop = threading.Event()

    def produce() -> None:
        try:
            os.sched_setaffinity(0, {cpus[1]})
            while free.acquire() and not stop.is_set():
                item = next(items, None)
                ready.put(item)
                if item is None:
                    return
        except BaseException as err:    # raised in the caller's thread
            ready.put(err)

    mask = os.sched_getaffinity(0)
    helper = threading.Thread(target=produce, name="sampler", daemon=True)
    helper.start()
    try:
        os.sched_setaffinity(0, {cpus[0]})
        while (item := ready.get()) is not None:
            if isinstance(item, BaseException):
                raise item
            yield item
            free.release()
    finally:
        stop.set()
        free.release()              # a helper waiting for a buffer wakes
        helper.join()
        os.sched_setaffinity(0, mask)


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
