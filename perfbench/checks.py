"""Correctness checks that do not re-run dvocsim's formulas for what they check.

* Branch admittances are rebuilt here from the branch parts the scenario
  carries (line plus virtual impedance at omega0, start-up impedance gone).
* The synchronized bus ratio K_sh comes from a dense Kirchhoff solve of the
  star network, not from the library's admittance-weighted average.
* The contraction margin is the certificate inequality written out here from
  the oscillator constants.
* The envelope check has a round-off floor (``ROUNDOFF_FLOOR``), which the
  library's ``envelope_check`` lacks; see NOTES.md.
"""

from __future__ import annotations

import math

import numpy as np

SHARING_TOL = 0.02          # acceptance criterion 2: ratios within 2 %
AMPLITUDE_TOL = 1e-3        # acceptance criterion 5: r* within 1e-3 relative
ENVELOPE_SLACK = 0.05       # the envelope factor criterion 4 uses
# States are O(1..10) pu; 1e-12 pu is ~4500 ulp of a unit amplitude, far
# above the ~1e-16 distances round-off leaves between synchronized states
# and far below any distance the certificate is meant to bound.
ROUNDOFF_FLOOR = 1e-12      # pu
CERTIFY_MARGIN = 553.38     # paper's stock margin, 1/s, +/- 0.01
CERTIFY_MARGIN_TOL = 0.01


def margin(osc: dict) -> float:
    """kappa*beta - xi*2*Xnom^2 from the oscillator constants."""
    return osc["kappa"] * osc["beta"] - osc["xi"] * osc["x_nom_sq2"]


def branch_admittances(branches: list[dict], omega0: float) -> np.ndarray:
    """Post-start-up admittances 1 / ((r_f + r_v) + j(omega0*l_f + x_v))."""
    return np.array([1.0 / complex(b["r_f"] + b["r_v"],
                                   omega0 * b["l_f"] + b["x_v"])
                     for b in branches])


def sync_bus_ratio(y: np.ndarray, z_net: complex) -> complex:
    """Bus voltage of the star network when every internal voltage is 1.

    Dense Kirchhoff system in [V, I_1..I_n]: V + I_k/Y_k = 1 per branch and
    sum(I_k) - V/z_net = 0 at the bus.
    """
    n = len(y)
    a = np.zeros((n + 1, n + 1), dtype=complex)
    b = np.ones(n + 1, dtype=complex)
    a[0, 0] = -1.0 / z_net
    a[0, 1:] = 1.0
    b[0] = 0.0
    for k in range(n):
        a[k + 1, 0] = 1.0
        a[k + 1, k + 1] = 1.0 / y[k]
    return complex(np.linalg.solve(a, b)[0])


def sync_amplitude(osc: dict, k_sh: complex) -> float:
    """Radius at which the synchronized radial rate vanishes.

    With every state equal to x the bus term is kappa*beta*K_sh*x, so
    d|x|/dt = (xi*(2Xnom^2 - |x|^2) - kappa*beta*(1 - Re K_sh))|x|.
    """
    kb = osc["kappa"] * osc["beta"]
    return math.sqrt(osc["x_nom_sq2"] - kb * (1.0 - k_sh.real) / osc["xi"])


def scenario_dicts(scenario) -> tuple[dict, list[dict], complex]:
    """Oscillator constants, branch parts and z_net read off a Scenario."""
    p = scenario.params[0]
    osc = {k: getattr(p, k) for k in ("xi", "x_nom_sq2", "omega0", "kappa",
                                      "beta")}
    branches = [{"r_f": b.r_f, "l_f": b.l_f, "r_v": b.r_v, "x_v": b.x_v}
                for b in scenario.network.branches]
    return osc, branches, scenario.network.z_net


def sharing_problem(ratios, branches: list[dict], omega0: float):
    """Message if measured sharing ratios miss |Y_k|/|Y_1| by > 2 %."""
    y = np.abs(branch_admittances(branches, omega0))
    err = float(np.max(np.abs(np.asarray(ratios) / (y / y[0]) - 1.0)))
    if not err <= SHARING_TOL:
        return f"sharing ratios off |Y_k|/|Y_1| by {err:.3g}"
    return None


def rate_problem(fitted_rate, c: float):
    """Message unless the fitted decay rate is at least the margin."""
    if fitted_rate is None or not fitted_rate >= c:
        return f"fitted_rate {fitted_rate} below margin_c {c:.6g}"
    return None


def envelope_holds(t: np.ndarray, x_i: np.ndarray, x_j: np.ndarray,
                   c: float) -> bool:
    """|x_i - x_j| <= max(exp(-c t)|x_i(0) - x_j(0)|(1 + slack), floor)."""
    dist = np.abs(x_i - x_j)
    envelope = dist[0] * np.exp(-c * (t - t[0])) * (1.0 + ENVELOPE_SLACK)
    return bool(np.all(dist <= np.maximum(envelope, ROUNDOFF_FLOOR)))
