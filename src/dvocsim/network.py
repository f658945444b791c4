"""Algebraic phasor network: star of inverter branches into a common bus.

Every inverter drives its scaled internal voltage E_i through a series branch
impedance Z_i into the point of common coupling; the downstream grid plus load
is lumped into a single impedance z_net from the bus to ground.  Impedances
are evaluated quasi-statically at one frequency, so the network is a purely
algebraic map from internal voltages to bus voltage and branch currents:

    V = sum_i(Y_i * E_i) / Y_sigma,     I_i = (E_i - V) * Y_i,
    Y_sigma = sum_i(Y_i) + Y_net.

A start-up series impedance can be added per branch (``z_extra``); it is
active while t < t_z and dropped afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .oscillator import InverterParams, check_finite

_ZERO_TOL = 0.0  # impedances must be exactly representable as nonzero


class ZeroImpedanceError(ValueError):
    """Raised when a zero impedance would have to be inverted."""


@dataclass(frozen=True)
class BranchParams:
    """Series branch of one inverter: line part, virtual part, start-up extra."""

    r_f: float = 0.0
    l_f: float = 0.0
    r_v: float = 0.0
    x_v: float = 0.0
    z_extra: complex = 0j   # additional series impedance active for t < t_z

    def __post_init__(self) -> None:
        check_finite(self, [f.name for f in fields(self)])

    def impedance_at(self, omega: float, t: float = math.inf,
                     t_z: float = 0.0) -> complex:
        """Quasi-static series impedance (line + virtual) at frequency omega.

        Z = (r_f + r_v) + j*(omega*l_f + x_v), with r in ohm, l_f in H and the
        virtual reactance x_v already in ohm; z_extra is added while t < t_z.
        """
        if omega <= 0:
            raise ValueError(f"omega must be > 0, got {omega}")
        z = complex(self.r_f + self.r_v, omega * self.l_f + self.x_v)
        if t < t_z:
            z += self.z_extra
        return z


@dataclass(frozen=True)
class NetworkConfig:
    """Star network: per-inverter branches, downstream impedance, frequency."""

    branches: tuple[BranchParams, ...]
    z_net: complex
    omega_eval: float
    t_z: float = 0.0        # removal time of every branch's z_extra, s

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValueError("network needs at least one branch")
        check_finite(self, ("z_net", "omega_eval", "t_z"))
        if abs(self.z_net) <= _ZERO_TOL:
            raise ValueError("z_net must be nonzero")
        if self.omega_eval <= 0:
            raise ValueError(f"omega_eval must be > 0, got {self.omega_eval}")
        if self.t_z < 0:
            raise ValueError(f"t_z must be >= 0, got {self.t_z}")
        for i, b in enumerate(self.branches):
            for t in (0.0, math.inf):
                if abs(b.impedance_at(self.omega_eval, t, self.t_z)) <= _ZERO_TOL:
                    raise ZeroImpedanceError(f"branch {i + 1} has zero impedance")
        for t in (0.0, math.inf):
            if abs(total_admittance(self, t)) <= _ZERO_TOL:
                when = "t < t_z" if t < self.t_z else "t >= t_z"
                raise ValueError(f"z_net = {self.z_net} makes the total "
                                 "admittance sum(Y_i) + 1/z_net zero for "
                                 f"{when}")

    @property
    def n(self) -> int:
        return len(self.branches)

    def admittances(self, t: float = math.inf) -> np.ndarray:
        return 1.0 / np.array([b.impedance_at(self.omega_eval, t, self.t_z)
                               for b in self.branches])

    @property
    def y_net(self) -> complex:
        return 1.0 / self.z_net


@dataclass(frozen=True)
class OscillatorDeath:
    """Marker for a negative amplitude radicand: the only steady amplitude is 0."""

    radicand: float


@dataclass(frozen=True)
class SynchronizedSteady:
    """Closed-form synchronized periodic solution of the coupled plant."""

    r_star: float               # internal amplitude, pu
    v_pcc_amplitude: float      # bus voltage amplitude, V
    current_amplitudes: tuple[float, ...]   # per-branch amplitude, A
    k_sh: complex


def total_admittance(cfg: NetworkConfig, t: float) -> complex:
    """Sum of active branch admittances plus the downstream admittance."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return complex(cfg.admittances(t).sum()) + cfg.y_net


def pcc_voltage(x: np.ndarray, y: np.ndarray, y_sigma: complex,
                scale: float) -> complex | np.ndarray:
    """Bus voltage sum_i(Y_i * E_i) / Y_sigma for internal voltages E = scale*x.

    ``x`` holds the complex states of all inverters along its last axis, ``y``
    their branch admittances and ``y_sigma`` the total admittance
    (``total_admittance``).  A 1-d ``x`` gives one voltage; leading axes of
    ``x`` (one row per time, say) give one voltage per row.
    """
    return scale * (x @ y) / y_sigma


def branch_currents(x: np.ndarray, v: complex | np.ndarray, y: np.ndarray,
                    scale: float, out: Optional[np.ndarray] = None
                    ) -> np.ndarray:
    """Per-branch currents (scale*x_i - V) * Y_i flowing into the bus.

    ``x`` may carry leading axes, with one bus voltage in ``v`` per row.  The
    result is written to ``out`` (shape of ``x``) when given.
    """
    out = np.multiply(x, scale, out=out, dtype=complex)
    out -= np.expand_dims(v, -1)
    out *= y
    return out


def k_sh(cfg: NetworkConfig, t: float) -> complex:
    """Synchronized bus-to-internal voltage ratio sum(Y_i)/Y_sigma.

    Approaches 1 when the branch admittances dominate the downstream
    admittance.  The imaginary part is a model-validity diagnostic; the
    synchronized amplitude depends only on the real part.
    """
    y_sigma = total_admittance(cfg, t)
    return complex(cfg.admittances(t).sum()) / y_sigma


def particular_radius(k_sh_real: float, params: InverterParams
                      ) -> Union[float, OscillatorDeath]:
    """Amplitude of the synchronized periodic solution.

    r*^2 = 2*Xnom^2 - kappa*beta*(1 - K_sh)/xi.  A negative radicand means the
    feedback outweighs the oscillator's amplitude regulation and the only
    steady solution is x = 0 (oscillator death) -- a modeled outcome, not an
    error.
    """
    radicand = params.x_nom_sq2 - params.kappa_beta * (1.0 - k_sh_real) / params.xi
    if radicand <= 0:
        return OscillatorDeath(radicand)
    return math.sqrt(radicand)


def synchronized_steady(params: InverterParams, cfg: NetworkConfig,
                        t: float = math.inf
                        ) -> Union[SynchronizedSteady, OscillatorDeath]:
    """Closed-form synchronized solution: amplitudes of x, bus voltage, currents.

    Evaluated by default with start-up impedances removed (t = inf).  The
    current sharing ratio |I_i| : |I_j| equals |Y_i| : |Y_j| independent of the
    downstream impedance.
    """
    ks = k_sh(cfg, t)
    r = particular_radius(ks.real, params)
    if isinstance(r, OscillatorDeath):
        return r
    y = cfg.admittances(t)
    y_sigma = total_admittance(cfg, t)
    scale = params.beta * r
    currents = np.abs(y * cfg.y_net / y_sigma) * scale
    return SynchronizedSteady(
        r_star=r,
        v_pcc_amplitude=abs(ks) * scale,
        current_amplitudes=tuple(float(c) for c in currents),
        k_sh=ks,
    )
