"""Per-inverter oscillator dynamics: open loop, output feedback, Jacobian.

The grid-forming voltage state x of one inverter follows a Hopf-type limit
cycle oscillator in the stationary frame,

    dx/dt = chi(x)*x + omega0*J*x,      chi(x) = xi*(2*Xnom^2 - |x|^2),

which spirals onto the circle of radius sqrt(2)*Xnom at angular frequency
omega0.  The output-feedback term -kappa*(beta*x - v_o) pulls the state toward
the (scaled) bus voltage v_o.  The local part h(x) = (chi - kappa*beta)*I*x +
omega0*J*x is what the contraction certificates in :mod:`dvocsim.certificates`
analyze through its Jacobian (``jacobian_h``); the engine's field evaluates it
in place.  States are complex alpha + j*beta values in per-unit; beta (V/pu)
scales them to volts at the network boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

# Section IV plant constants: xi=10, 2*Xnom^2=1, beta = 690*sqrt(2)/sqrt(3) V
# (phase amplitude of a 690 V line-to-line system), 50 Hz grid, kappa=1 chosen
# so kappa*beta - xi*2*Xnom^2 reproduces the reported margin.
DEFAULT_BETA = 690.0 * math.sqrt(2.0) / math.sqrt(3.0)
DEFAULT_OMEGA0 = 2.0 * math.pi * 50.0


def check_finite(obj, names) -> None:
    """Raise ValueError naming the first of ``names`` whose value on ``obj``
    is NaN or infinite (either part of a complex value)."""
    for name in names:
        value = getattr(obj, name)
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class InverterParams:
    """Oscillator constants and controller gains, identical for every inverter.

    kappa is a bare gain; only the product kappa*beta (1/s) enters the
    dynamics and the contraction margin.  The series branch parts live in
    :class:`dvocsim.network.BranchParams`.
    """

    xi: float = 10.0
    x_nom_sq2: float = 1.0          # the quantity 2*Xnom^2, pu^2
    omega0: float = DEFAULT_OMEGA0
    kappa: float = 1.0
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        check_finite(self, [f.name for f in fields(self)])
        for name in ("xi", "x_nom_sq2", "omega0", "beta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if not math.isfinite(self.xi * self.x_nom_sq2):
            raise ValueError(
                f"xi = {self.xi} with x_nom_sq2 = {self.x_nom_sq2} makes "
                "xi*x_nom_sq2 overflow")
        if not math.isfinite(self.kappa_beta):
            raise ValueError(
                f"kappa = {self.kappa} with beta = {self.beta} makes "
                "kappa*beta overflow")

    @property
    def kappa_beta(self) -> float:
        return self.kappa * self.beta


def _jacobian_entries(x: np.ndarray, params: InverterParams, p: np.ndarray,
                      j01: np.ndarray, j10: np.ndarray, r: np.ndarray) -> None:
    """Write the entries [[p, j01], [j10, r]] of ``jacobian_h`` at the
    complex states ``x`` into four float arrays of x's shape.

    With a, b the parts of x, c = xi*(2*Xnom^2 - (a^2 + b^2)) - kappa*beta
    and s = 2*xi*a: p = c - s*a, j01 = -omega0 - s*b, j10 = omega0 - s*b and
    r = c - (2*xi*b)*b, each rounded in that order.  The parts are copied
    into contiguous arrays once; everything else is computed in the four
    outputs, so nothing else the size of x is allocated.
    """
    a = np.array(x.real)        # x's parts are 16 bytes apart
    b = np.array(x.imag)
    xi2 = 2.0 * params.xi
    np.multiply(a, a, out=p)
    np.multiply(b, b, out=r)
    np.add(p, r, out=p)
    np.subtract(params.x_nom_sq2, p, out=p)
    np.multiply(p, params.xi, out=p)
    np.subtract(p, params.kappa_beta, out=p)            # c
    np.multiply(a, xi2, out=j10)                        # s
    np.multiply(j10, b, out=j01)                        # s*b
    np.multiply(j10, a, out=j10)                        # s*a
    np.multiply(b, xi2, out=r)
    np.multiply(r, b, out=r)
    np.subtract(p, r, out=r)
    np.subtract(p, j10, out=p)
    np.subtract(params.omega0, j01, out=j10)
    np.subtract(-params.omega0, j01, out=j01)


def jacobian_h(x: complex | np.ndarray, params: InverterParams) -> np.ndarray:
    """Analytic Jacobian of the local map h(x) = (chi*I + omega0*J - kappa*beta*I)x.

    Equals (chi - kappa*beta)*I + omega0*J - 2*xi*x*x^T; the rotation omega0*J
    is its exact skew part for every x.  ``x`` is a complex state, scalar or
    array; the result has shape ``x.shape + (2, 2)``, its entries written by
    ``_jacobian_entries``, which ``sym_lambda_max`` shares.
    """
    x = np.asarray(x, dtype=complex)
    j = np.empty(x.shape + (2, 2))
    _jacobian_entries(x, params, j[..., 0, 0], j[..., 0, 1], j[..., 1, 0],
                      j[..., 1, 1])
    return j


def sym_lambda_max(x: complex | np.ndarray,
                   params: InverterParams) -> float | np.ndarray:
    """Largest eigenvalue of the symmetric Jacobian part (chi-kappa*beta)I - 2xi*x*x^T.

    Closed form for the symmetric 2x2 matrix [[p, q], [q, r]]:
    (p+r)/2 + sqrt(((p-r)/2)^2 + q^2), with q = (j01 + j10)/2, taken from
    ``jacobian_h``'s entries (``_jacobian_entries``) and computed in place in
    four float arrays of x's shape, in the order of that expression.
    Bounded above by xi*2*Xnom^2 - kappa*beta for all x.  ``x`` is a complex
    state, scalar or array; an array gives an array of its shape, a scalar a
    float.
    """
    x = np.asarray(x, dtype=complex)
    p, q, half_diff, r = (np.empty(x.shape) for _ in range(4))
    # q and half_diff hold j01 and j10 until they are summed
    _jacobian_entries(x, params, p, q, half_diff, r)
    np.add(q, half_diff, out=q)
    np.multiply(q, 0.5, out=q)
    np.subtract(p, r, out=half_diff)
    np.multiply(half_diff, 0.5, out=half_diff)
    np.hypot(half_diff, q, out=half_diff)
    np.add(p, r, out=p)
    np.multiply(p, 0.5, out=p)
    np.add(p, half_diff, out=p)
    return p if p.ndim else float(p)
