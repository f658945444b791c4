"""Stationary-frame phasor conventions on complex alpha + j*beta values.

A state, voltage or current is the complex number alpha + j*beta; an
impedance or admittance acts on it by complex multiplication (a
rotation-scaling of the 2-vector).  These tests check that convention where
the package applies it: branch currents, branch admittances and impedances,
and the alpha/beta and three-phase columns of the time-series output.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dvocsim.cli import write_timeseries
from dvocsim.engine import Trajectory
from dvocsim.network import (BranchParams, NetworkConfig, ZeroImpedanceError,
                             branch_currents)
from dvocsim.scenarios import build_case

OMEGA0 = 2 * math.pi * 50

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
magnitudes = st.floats(min_value=1e-6, max_value=1e6)
angles = st.floats(min_value=0.0, max_value=2 * math.pi)


def polar(mag, ang):
    return complex(mag * math.cos(ang), mag * math.sin(ang))


def times(x, y):
    """Current through admittance y driven by voltage x (bus at zero)."""
    return complex(branch_currents(np.array([x]), 0j, np.array([y]), 1.0)[0])


def network(*zs):
    return NetworkConfig(tuple(BranchParams(r_v=z.real, x_v=z.imag)
                               for z in zs),
                         z_net=1 + 0j, omega_eval=OMEGA0)


def phase_rows(tmp_path, currents):
    """CSV rows of a one-inverter trajectory with the given branch currents."""
    currents = np.asarray(currents, dtype=complex)
    t = np.arange(len(currents)) * 1e-4
    traj = Trajectory(t, currents[:, None] / 500.0,
                      np.zeros(len(t), complex), currents[:, None],
                      build_case("I", 2, seed=0, t_end=0.01))
    path = tmp_path / "ts.csv"
    write_timeseries(traj, path)
    with path.open() as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


class TestComplexMul:
    def test_rotation_by_j(self):
        assert times(1 + 0j, 1j) == 1j

    def test_real_scaling(self):
        assert times(2 + 0j, 3 + 0j) == 6 + 0j

    def test_one_plus_j_squared(self):
        # (1+j)(1+j) = 2j
        assert times(1 + 1j, 1 + 1j) == 2j

    @given(finite, finite, magnitudes, angles)
    def test_norm_multiplicative(self, a, b, mag, ang):
        x = complex(a, b)
        z = polar(mag, ang)
        got = abs(times(x, z))
        assert got == pytest.approx(abs(x) * abs(z), rel=1e-12, abs=1e-300)

    @given(finite, finite, magnitudes, angles, magnitudes, angles)
    def test_associative(self, a, b, m1, a1, m2, a2):
        x = complex(a, b)
        z1, z2 = polar(m1, a1), polar(m2, a2)
        lhs = times(times(x, z1), z2)
        rhs = times(x, z1 * z2)
        scale = abs(x) * abs(z1) * abs(z2) + 1e-300
        assert lhs.real == pytest.approx(rhs.real, abs=1e-12 * scale)
        assert lhs.imag == pytest.approx(rhs.imag, abs=1e-12 * scale)

    @given(finite, finite, magnitudes, angles, st.floats(min_value=-100, max_value=100))
    def test_commutes_with_scalar(self, a, b, mag, ang, s):
        x = complex(a, b)
        z = polar(mag, ang)
        lhs = complex(branch_currents(np.array([x]), 0j, np.array([z]), s)[0])
        rhs = times(x, z)
        scale = abs(s) * abs(x) * abs(z) + 1e-300
        assert lhs.real == pytest.approx(s * rhs.real, abs=1e-12 * scale)
        assert lhs.imag == pytest.approx(s * rhs.imag, abs=1e-12 * scale)


class TestAdmittance:
    def test_real(self):
        assert network(2 + 0j).admittances()[0] == 0.5 + 0j

    def test_pure_reactance(self):
        assert network(2j).admittances()[0] == -0.5j

    def test_three_four(self):
        # conjugate over squared norm 25
        y = network(3 + 4j).admittances()[0]
        assert y == pytest.approx(0.12 - 0.16j, rel=1e-15)

    def test_zero_raises_with_label(self):
        with pytest.raises(ZeroImpedanceError, match="branch 3"):
            network(1 + 0j, 1 + 0j, 0j)

    @given(magnitudes, angles)
    def test_involution(self, mag, ang):
        z = polar(mag, ang)
        back = 1.0 / network(z).admittances()[0]
        assert back.real == pytest.approx(z.real, rel=1e-12, abs=1e-12 * mag)
        assert back.imag == pytest.approx(z.imag, rel=1e-12, abs=1e-12 * mag)


class TestBranchImpedance:
    def test_collector_line(self):
        z = BranchParams(r_f=0.1153, l_f=1.05e-3).impedance_at(OMEGA0)
        assert z == complex(0.1153, OMEGA0 * 1.05e-3)

    def test_pure_virtual_resistance(self):
        assert BranchParams(r_v=1).impedance_at(123.0) == 1 + 0j

    def test_sums_of_parts(self):
        assert BranchParams(r_f=1, r_v=2, x_v=3).impedance_at(77.0) == 3 + 3j

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError, match="omega"):
            BranchParams(r_f=1).impedance_at(0.0)


class TestInvClarke:
    """Phase columns i_a, i_b, i_c of the time series (amplitude-invariant)."""

    def test_alpha_axis(self, tmp_path):
        header, rows = phase_rows(tmp_path, [1 + 0j])
        i = header.index("i_a_1")
        assert rows[0][i:i + 3] == [1, -0.5, -0.5]

    def test_zero(self, tmp_path):
        header, rows = phase_rows(tmp_path, [0j])
        i = header.index("i_a_1")
        assert rows[0][i:i + 3] == [0, 0, 0]

    def test_beta_axis(self, tmp_path):
        header, rows = phase_rows(tmp_path, [1j])
        a, b, c = rows[0][header.index("i_a_1"):header.index("i_a_1") + 3]
        assert a == 0
        assert b == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
        assert c == pytest.approx(-math.sqrt(3) / 2, rel=1e-15)

    def test_balanced(self, tmp_path):
        rng = np.random.default_rng(3)
        currents = rng.uniform(-1e6, 1e6, 200) + 1j * rng.uniform(-1e6, 1e6, 200)
        header, rows = phase_rows(tmp_path, currents)
        i = header.index("i_a_1")
        for z, row in zip(currents, rows):
            scale = abs(z.real) + abs(z.imag) + 1
            assert sum(row[i:i + 3]) == pytest.approx(0.0, abs=1e-12 * scale)


def test_phasor_complex_bridge(tmp_path):
    # the alpha/beta columns are the real/imaginary parts of the complex value
    header, rows = phase_rows(tmp_path, [0.3 - 0.4j])
    i = header.index("i_alpha_1")
    assert rows[0][i:i + 2] == [0.3, -0.4]
    assert math.hypot(*rows[0][i:i + 2]) == pytest.approx(0.5)
