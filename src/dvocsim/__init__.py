"""Parallel grid-forming oscillator simulation with contraction certificates.

The package simulates N voltage-forming oscillators coupled through an
algebraic star network, checks the decentralized algebraic inequality that
certifies their exponential synchronization, and reproduces the proportional
current-sharing law set by the branch (virtual) impedances.
"""

from .certificates import (CertificateReport, EnvelopeResult,
                           NotContractingError, certificate_margin,
                           envelope_check, error_ball_radius,
                           sampled_lambda_check)
from .engine import (DisturbanceSpec, InitSpec, Scenario, SimulationDiverged,
                     Trajectory, init_random, rk4_increment, simulate)
from .network import (BranchParams, NetworkConfig, OscillatorDeath,
                      SynchronizedSteady, ZeroImpedanceError, branch_currents,
                      k_sh, particular_radius, pcc_voltage,
                      synchronized_steady, total_admittance)
from .oscillator import InverterParams, jacobian_h, sym_lambda_max
from .scenarios import (MetricsReport, build_case, build_metrics,
                        fit_decay_rate, sync_error, sync_time)

__version__ = "0.1.0"

__all__ = [
    "BranchParams", "CertificateReport", "DisturbanceSpec", "EnvelopeResult",
    "InitSpec", "InverterParams", "MetricsReport", "NetworkConfig",
    "NotContractingError", "OscillatorDeath", "Scenario",
    "SimulationDiverged", "SynchronizedSteady", "Trajectory",
    "ZeroImpedanceError", "branch_currents", "build_case", "build_metrics",
    "certificate_margin", "envelope_check", "error_ball_radius",
    "fit_decay_rate", "init_random", "jacobian_h", "k_sh",
    "particular_radius", "pcc_voltage", "rk4_increment",
    "sampled_lambda_check", "simulate", "sym_lambda_max", "sync_error",
    "sync_time", "synchronized_steady", "total_admittance",
]
