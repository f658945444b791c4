"""Per-inverter oscillator dynamics: open loop, output feedback, Jacobian.

The grid-forming voltage state x of one inverter follows a Hopf-type limit
cycle oscillator in the stationary frame,

    dx/dt = chi(x)*x + omega0*J*x,      chi(x) = xi*(2*Xnom^2 - |x|^2),

which spirals onto the circle of radius sqrt(2)*Xnom at angular frequency
omega0.  The output-feedback term -kappa*(beta*x - v_o) pulls the state toward
the (scaled) bus voltage v_o; the local part h(x) = (chi - kappa*beta)*I*x +
omega0*J*x (``local_map``) is what the contraction certificates in
:mod:`dvocsim.certificates` analyze.  States are complex alpha + j*beta values
in per-unit; beta (V/pu) scales them to volts at the network boundary.
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
        if not math.isfinite(self.kappa_beta):
            raise ValueError(
                f"kappa = {self.kappa} with beta = {self.beta} makes "
                "kappa*beta overflow")

    @property
    def kappa_beta(self) -> float:
        return self.kappa * self.beta


def chi(x: complex | np.ndarray, params: InverterParams) -> float | np.ndarray:
    """Amplitude-regulating scalar xi*(2*Xnom^2 - |x|^2).

    ``x`` is a complex state alpha + j*beta, scalar or array; the result has
    its shape.
    """
    return params.xi * (params.x_nom_sq2 - (x.real ** 2 + x.imag ** 2))


def local_map(x: complex | np.ndarray,
              params: InverterParams) -> complex | np.ndarray:
    """Local map h(x) = (chi(x) - kappa*beta + j*omega0)*x of one inverter.

    The coupled field of every inverter is h(x_k) plus the common bus term
    kappa*v_o.  ``x`` is a complex state, scalar or array; the result has its
    shape.
    """
    return (chi(x, params) + complex(-params.kappa_beta, params.omega0)) * x


def jacobian_h(x: complex | np.ndarray, params: InverterParams) -> np.ndarray:
    """Analytic Jacobian of the local map h(x) = (chi*I + omega0*J - kappa*beta*I)x.

    Equals (chi - kappa*beta)*I + omega0*J - 2*xi*x*x^T; the rotation omega0*J
    is its exact skew part for every x.  ``x`` is a complex state, scalar or
    array; the result has shape ``x.shape + (2, 2)``.
    """
    x = np.asarray(x, dtype=complex)
    a = x.real
    b = x.imag
    c = chi(x, params) - params.kappa_beta
    w = params.omega0
    xi2 = 2.0 * params.xi
    j = np.empty(x.shape + (2, 2))
    j[..., 0, 0] = c - xi2 * a * a
    j[..., 0, 1] = -w - xi2 * a * b
    j[..., 1, 0] = w - xi2 * a * b
    j[..., 1, 1] = c - xi2 * b * b
    return j


def sym_lambda_max(x: complex | np.ndarray,
                   params: InverterParams) -> float | np.ndarray:
    """Largest eigenvalue of the symmetric Jacobian part (chi-kappa*beta)I - 2xi*x*x^T.

    Closed form for the symmetric 2x2 matrix [[p, q], [q, r]]:
    (p+r)/2 + sqrt(((p-r)/2)^2 + q^2), taken from ``jacobian_h``'s entries.
    Bounded above by xi*2*Xnom^2 - kappa*beta for all x.  ``x`` is a complex
    state, scalar or array; an array gives an array of its shape, a scalar a
    float.
    """
    j = jacobian_h(x, params)
    p = j[..., 0, 0]
    r = j[..., 1, 1]
    q = 0.5 * (j[..., 0, 1] + j[..., 1, 0])
    half_diff = 0.5 * (p - r)
    lam = 0.5 * (p + r) + np.hypot(half_diff, q)
    return lam if lam.ndim else float(lam)
