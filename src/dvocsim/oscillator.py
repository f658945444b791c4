"""Per-inverter oscillator dynamics: open loop, output feedback, Jacobian.

The grid-forming voltage state x of one inverter follows a Hopf-type limit
cycle oscillator in the stationary frame,

    dx/dt = chi(x)*x + omega0*J*x,      chi(x) = xi*(2*Xnom^2 - |x|^2),

which spirals onto the circle of radius sqrt(2)*Xnom at angular frequency
omega0.  The output-feedback term -kappa*(beta*x - v_o) pulls the state toward
the (scaled) bus voltage v_o; the local part h(x) = (chi - kappa*beta)*I*x +
omega0*J*x is what the contraction certificates in :mod:`dvocsim.certificates`
analyze.  States are in per-unit; beta (V/pu) scales them to volts at the
network boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .phasor import Phasor

# Section IV plant constants: xi=10, 2*Xnom^2=1, beta = 690*sqrt(2)/sqrt(3) V
# (phase amplitude of a 690 V line-to-line system), 50 Hz grid, kappa=1 chosen
# so kappa*beta - xi*2*Xnom^2 reproduces the reported margin.
DEFAULT_BETA = 690.0 * math.sqrt(2.0) / math.sqrt(3.0)
DEFAULT_OMEGA0 = 2.0 * math.pi * 50.0

# Collector line, 0.75 km at 0.1153 ohm/km and 1.05 mH/km.
DEFAULT_R_F = 0.75 * 0.1153
DEFAULT_L_F = 0.75 * 1.05e-3


@dataclass(frozen=True)
class InverterParams:
    """Oscillator constants, controller gains and series branch parts.

    kappa is a bare gain; only the product kappa*beta (1/s) enters the
    dynamics and the contraction margin.
    """

    xi: float = 10.0
    x_nom_sq2: float = 1.0          # the quantity 2*Xnom^2, pu^2
    omega0: float = DEFAULT_OMEGA0
    kappa: float = 1.0
    beta: float = DEFAULT_BETA
    r_f: float = DEFAULT_R_F        # ohm
    l_f: float = DEFAULT_L_F        # H
    r_v: float = 0.0                # ohm, virtual resistance
    x_v: float = 0.0                # ohm, virtual reactance

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("xi", "x_nom_sq2", "omega0", "beta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.r_f + self.r_v <= 0 and self.omega0 * self.l_f + self.x_v == 0:
            raise ValueError("branch impedance is zero: need r_f + r_v > 0 "
                             "or omega0*l_f + x_v != 0")

    @property
    def kappa_beta(self) -> float:
        return self.kappa * self.beta


def chi(x: complex | np.ndarray,
        params: InverterParams) -> float | np.ndarray:
    """Amplitude-regulating scalar xi*(2*Xnom^2 - |x|^2).

    ``x`` is a complex state alpha + j*beta, scalar or array; the result has
    its shape.
    """
    return params.xi * (params.x_nom_sq2 - (x.real ** 2 + x.imag ** 2))


def open_loop_deriv(x: Phasor, params: InverterParams) -> Phasor:
    """Free-running oscillator field chi(x)*x + omega0*J*x."""
    c = chi(x.as_complex, params)
    return Phasor(c * x.alpha - params.omega0 * x.beta,
                  c * x.beta + params.omega0 * x.alpha)


def closed_loop_deriv(x: Phasor, v_o: Phasor, params: InverterParams) -> Phasor:
    """Oscillator field with output feedback -kappa*(beta*x - v_o)."""
    d = open_loop_deriv(x, params)
    k = params.kappa
    return Phasor(d.alpha - k * (params.beta * x.alpha - v_o.alpha),
                  d.beta - k * (params.beta * x.beta - v_o.beta))


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
