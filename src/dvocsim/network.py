"""Algebraic phasor network: star of inverter branches into a common bus.

Every inverter drives its scaled internal voltage E_i through a series branch
impedance Z_i into the point of common coupling; the downstream grid plus load
is lumped into a single impedance z_net from the bus to ground.  The network
holds the branches' R, L and X parts and no frequency: every function that
evaluates an impedance takes the frequency ``omega`` (the oscillators'
``omega0``), so the network is a purely algebraic map from internal voltages
to bus voltage and branch currents:

    V = sum_i(Y_i * E_i) / Y_sigma,     I_i = (E_i - V) * Y_i,
    Y_sigma = sum_i(Y_i) + Y_net.

A start-up series impedance can be added per branch (``z_extra``); it is
active while t < t_z and dropped afterwards.  A zero branch impedance or a
zero Y_sigma is refused where it would be divided by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .oscillator import InverterParams, check_finite


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

    def impedance_at(self, omega: float) -> complex:
        """Quasi-static series impedance (line + virtual) at frequency omega.

        Z = (r_f + r_v) + j*(omega*l_f + x_v), with r in ohm, l_f in H and the
        virtual reactance x_v already in ohm; z_extra is not included.
        """
        if omega <= 0:
            raise ValueError(f"omega must be > 0, got {omega}")
        return complex(self.r_f + self.r_v, omega * self.l_f + self.x_v)


@dataclass(frozen=True)
class NetworkConfig:
    """Star network: per-inverter branches, downstream impedance, start-up
    removal time; no frequency, which ``admittances`` is given."""

    branches: tuple[BranchParams, ...]
    z_net: complex
    t_z: float = 0.0        # removal time of every branch's z_extra, s

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValueError("network needs at least one branch")
        check_finite(self, ("z_net", "t_z"))
        if self.z_net == 0:
            raise ValueError("z_net must be nonzero")
        if self.t_z < 0:
            raise ValueError(f"t_z must be >= 0, got {self.t_z}")

    @property
    def n(self) -> int:
        return len(self.branches)

    def admittances(self, omega: float, t: float = math.inf) -> np.ndarray:
        """Branch admittances 1/Z_i at frequency omega and time t, with each
        z_extra in Z_i while t < t_z; raises ZeroImpedanceError naming the
        first branch whose Z_i is zero."""
        z = np.array([b.impedance_at(omega) for b in self.branches])
        if t < self.t_z:
            z += [b.z_extra for b in self.branches]
        zero = np.flatnonzero(z == 0)
        if zero.size:
            raise ZeroImpedanceError(f"branch {zero[0] + 1} has zero impedance")
        return 1.0 / z

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


def total_admittance(cfg: NetworkConfig, omega: float, t: float) -> complex:
    """Sum of active branch admittances plus the downstream admittance, at
    frequency omega; raises ValueError when it is zero."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    y_sigma = complex(cfg.admittances(omega, t).sum()) + cfg.y_net
    if y_sigma == 0:
        when = "t < t_z" if t < cfg.t_z else "t >= t_z"
        raise ValueError(f"z_net = {cfg.z_net} makes the total admittance "
                         f"sum(Y_i) + 1/z_net zero for {when}")
    return y_sigma


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


def k_sh(cfg: NetworkConfig, omega: float) -> complex:
    """Synchronized bus-to-internal voltage ratio sum(Y_i)/Y_sigma at
    frequency omega, with the start-up impedances removed.

    Approaches 1 when the branch admittances dominate the downstream
    admittance.  The imaginary part is a model-validity diagnostic; the
    synchronized amplitude depends only on the real part.
    """
    y_sigma = total_admittance(cfg, omega, math.inf)
    return complex(cfg.admittances(omega).sum()) / y_sigma


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


def synchronized_steady(params: InverterParams, cfg: NetworkConfig
                        ) -> Union[SynchronizedSteady, OscillatorDeath]:
    """Closed-form synchronized solution: amplitudes of x, bus voltage, currents.

    Evaluated at the oscillators' omega0 with the start-up impedances removed.
    The current sharing ratio |I_i| : |I_j| equals |Y_i| : |Y_j| independent
    of the downstream impedance.
    """
    ks = k_sh(cfg, params.omega0)
    r = particular_radius(ks.real, params)
    if isinstance(r, OscillatorDeath):
        return r
    y = cfg.admittances(params.omega0)
    y_sigma = total_admittance(cfg, params.omega0, math.inf)
    scale = params.beta * r
    currents = np.abs(y * cfg.y_net / y_sigma) * scale
    return SynchronizedSteady(
        r_star=r,
        v_pcc_amplitude=abs(ks) * scale,
        current_amplitudes=tuple(float(c) for c in currents),
        k_sh=ks,
    )
