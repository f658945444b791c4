import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import central_difference_jacobian, local_increment, local_map
from dvocsim.network import BranchParams
from dvocsim.oscillator import InverterParams, jacobian_h, sym_lambda_max

P = InverterParams()        # xi=10, 2Xnom^2=1, kappa=1, beta=690*sqrt2/sqrt3
P_OPEN = InverterParams(kappa=0.0)
BETA = P.beta
W0 = P.omega0

states = st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(lambda t: complex(*t))


def oracle_inputs(shape, radius):
    """Complex states of ``shape`` in the disk of ``radius``, the origin and
    the cycle's (1, 0) first; a scalar shape gives a complex."""
    rng = np.random.default_rng(len(shape))
    size = math.prod(shape)
    x = radius * np.sqrt(rng.uniform(0, 1, size + 2)) * np.exp(
        1j * rng.uniform(0, 2 * math.pi, size + 2))
    x[:2] = 0j, 1 + 0j
    return complex(x[2]) if shape == () else x[:size].reshape(shape)


def closed_loop(x, v_o, params):
    """Field of one inverter fed the bus voltage v_o, as the engine adds it."""
    return local_map(x, params) + params.kappa * v_o


def as_vec(v):
    """Local map on a real 2-vector, for finite differences."""
    d = local_map(complex(v[0], v[1]), P)
    return np.array([d.real, d.imag])


class TestParams:
    def test_defaults(self):
        assert BETA == pytest.approx(563.3826408, abs=1e-6)
        assert W0 == pytest.approx(100 * math.pi)
        assert P.kappa_beta == BETA

    @pytest.mark.parametrize("field", ["xi", "x_nom_sq2", "omega0", "beta"])
    def test_positive_fields(self, field):
        with pytest.raises(ValueError, match=field):
            InverterParams(**{field: -1.0})

    def test_kappa_nonnegative(self):
        with pytest.raises(ValueError, match="kappa"):
            InverterParams(kappa=-0.1)

    def test_overflowing_kappa_beta_names_kappa(self):
        with pytest.raises(ValueError, match=r"^kappa = 1e\+308 with beta = "
                           r"563\.[0-9]+ makes kappa\*beta overflow$"):
            InverterParams(kappa=1e308)
        assert InverterParams(kappa=1e300).kappa_beta < math.inf

    def test_overflowing_amplitude_gain_names_xi_and_x_nom_sq2(self):
        # xi*x_nom_sq2 would make margin_c -inf and the field's gain overflow
        with pytest.raises(ValueError, match=r"^xi = 1e\+300 with x_nom_sq2 = "
                           r"10000000000\.0 makes xi\*x_nom_sq2 overflow$"):
            InverterParams(xi=1e300, x_nom_sq2=1e10)
        assert InverterParams(xi=1e300, x_nom_sq2=1.0).xi < math.inf

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["xi", "x_nom_sq2", "omega0", "kappa",
                                       "beta", "r_f", "l_f", "r_v", "x_v"])
    def test_non_finite_fields(self, field, value):
        # an inverter's branch parts are held by its BranchParams
        owner = (InverterParams if field in
                 {f.name for f in fields(InverterParams)} else BranchParams)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            owner(**{field: value})


class TestChi:
    def test_limit_cycle_boundary(self):
        assert oracles.chi(1 + 0j, P) == 0.0

    def test_origin(self):
        assert oracles.chi(0j, P) == 10.0

    def test_outside(self):
        assert oracles.chi(1 + 1j, P) == -10.0


def closure_cell(f, name):
    """The value a closure ``f`` holds under ``name``."""
    return f.__closure__[f.__code__.co_freevars.index(name)].cell_contents


class TestInPlaceForm:
    """The oracle in-place field, whose bits the engine's fused step
    reproduces (``test_engine.TestFusedStep``), writes the bits of the
    allocating ``local_increment(x, h) + np.dot(h*g, x)``, for finite and
    non-finite states, given the run's state, its stage state or any other
    array."""

    @pytest.mark.parametrize("where", ["state", "stage", "other"])
    def test_same_bits(self, where):
        params = InverterParams(xi=7.5, x_nom_sq2=1.3, kappa=0.7)
        h = 0.5 * 7e-5
        rng = np.random.default_rng(5)
        parts = np.concatenate([rng.normal(0.0, 2.0, 40),
                                [0.0, -0.0, 1e-300, -1e300]])
        special = np.concatenate([parts, [math.inf, -math.inf, math.nan]])
        g = rng.normal(0.0, 50.0, 64) + 1j * rng.normal(0.0, 50.0, 64)
        for pool in (parts, special):
            x = np.empty(64, dtype=complex)
            x.real, x.imag = rng.choice(pool, 64), rng.choice(pool, 64)
            # only ``at`` holds x, so reading another array's view fails
            y, ys = np.zeros(64, dtype=complex), np.zeros(64, dtype=complex)
            field = oracles.coupled_field(params, y, ys, g, None, h)
            at = {"state": y, "stage": ys, "other": x.copy()}[where]
            at[:] = x
            out = np.empty(64, dtype=complex)
            with np.errstate(all="ignore"):
                want_gain =((-h * params.xi) * (x.real ** 2 + x.imag ** 2)
                             + complex(h * (params.xi * params.x_nom_sq2
                                            - params.kappa_beta),
                                       h * params.omega0))
                want = local_increment(x, params, h) + np.dot(h * g, x)
                got = field(0.0, at, out)
            assert got is out
            # the gain alone, as a non-finite state makes g . x NaN
            gain = closure_cell(field, "gain")
            assert gain.tobytes() == want_gain.tobytes()
            assert got.tobytes() == want.tobytes()


class TestOpenLoop:
    """With kappa = 0 the local map is the free-running oscillator."""

    def test_pure_rotation_on_cycle(self):
        d = local_map(1 + 0j, P_OPEN)
        assert d.real == 0.0
        assert d.imag == pytest.approx(100 * math.pi)

    def test_origin_equilibrium(self):
        assert local_map(0j, P_OPEN) == 0j

    def test_radial_growth(self):
        # dr/dt = xi*(2Xnom^2 - r^2)*r = 10*0.75*0.5 at r = 0.5
        x = 0.5 * complex(math.cos(0.7), math.sin(0.7))
        d = local_map(x, P_OPEN)
        r_dot = (x.real * d.real + x.imag * d.imag) / abs(x)
        assert r_dot == pytest.approx(3.75, rel=1e-12)


class TestClosedLoop:
    def test_controller_off(self):
        x, v = 0.3 - 0.8j, 50.0 + 20.0j
        assert closed_loop(x, v, P_OPEN) == local_map(x, P_OPEN)

    def test_zero_tracking_error(self):
        x = 1 + 0j
        assert closed_loop(x, BETA * x, P) == local_map(x, P_OPEN)

    def test_full_feedback(self):
        d = closed_loop(1 + 0j, 0j, P)
        assert d.real == pytest.approx(-BETA)
        assert d.imag == pytest.approx(100 * math.pi)

    @given(states, states, st.floats(0, 2 * math.pi))
    def test_rotation_equivariance(self, x, v, theta):
        rot = complex(math.cos(theta), math.sin(theta))
        lhs = closed_loop(x * rot, v * rot, P)
        rhs = closed_loop(x, v, P) * rot
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))

    @given(states, st.floats(0.0, 1.0))
    def test_radial_decoupling(self, x, k_sh):
        # with v_o = K*beta*x the radius obeys
        # dr/dt = (xi*(2Xnom^2 - r^2) - kappa*beta*(1-K)) * r
        r = abs(x)
        d = closed_loop(x, k_sh * BETA * x, P)
        got = x.real * d.real + x.imag * d.imag     # r * dr/dt
        want = (oracles.chi(x, P) - P.kappa_beta * (1 - k_sh)) * r * r
        assert got == pytest.approx(want, abs=1e-9 * (1 + abs(want)))


class TestJacobian:
    def test_origin(self):
        j = jacobian_h(0j, P)
        c = 10.0 - BETA
        assert np.allclose(j, [[c, -W0], [W0, c]], rtol=0, atol=1e-12)

    def test_on_cycle(self):
        j = jacobian_h(1 + 0j, P)
        want = np.array([[-BETA - 20.0, -W0], [W0, -BETA]])
        assert np.allclose(j, want, rtol=1e-14)

    def test_finite_difference_single(self):
        x = np.array([0.3, -0.7])
        fd = central_difference_jacobian(as_vec, x, h=1e-6)
        assert np.abs(jacobian_h(complex(*x), P) - fd).max() < 1e-5

    def test_finite_difference_sampled(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            x = rng.uniform(-1, 1, 2)
            x *= rng.uniform(0, 2) / max(np.hypot(*x), 1e-9)
            fd = central_difference_jacobian(as_vec, x, h=1e-6)
            assert np.abs(jacobian_h(complex(*x), P) - fd).max() < 1e-5

    def test_array_equals_stacked_scalars(self):
        rng = np.random.default_rng(11)
        x = (rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12)).reshape(3, 4)
        stacked = np.array([[jacobian_h(complex(z), P) for z in row] for row in x])
        j = jacobian_h(x, P)
        assert j.shape == (3, 4, 2, 2)
        assert np.array_equal(j, stacked)

    @given(states)
    def test_skew_part_is_rotation(self, x):
        j = jacobian_h(x, P)
        skew = 0.5 * (j - j.T)
        assert skew[0, 1] == -W0
        assert skew[1, 0] == W0
        assert skew[0, 0] == 0.0 and skew[1, 1] == 0.0


class TestAgainstOracle:
    # every entry and eigenvalue has the bits of the allocating expressions;
    # 2e153 is near the largest state at which they stay finite at xi = 10
    @pytest.mark.parametrize("params", [P, P_OPEN], ids=["kappa1", "kappa0"])
    @pytest.mark.parametrize("radius", [0.5, 2.0, 2e153])
    @pytest.mark.parametrize("shape", [(), (1,), (2,), (257,), (20, 15)])
    def test_bits(self, shape, radius, params):
        x = oracle_inputs(shape, radius)
        want = oracles.sym_lambda_max(x, params)
        got = sym_lambda_max(x, params)
        assert np.shape(got) == shape
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        j = jacobian_h(x, params)
        entries = np.moveaxis(j.reshape(np.shape(x) + (4,)), -1, 0)
        assert entries.tobytes() == np.array(
            oracles.jacobian_entries(x, params)).tobytes()

    @pytest.mark.parametrize("view", ["strided", "transposed", "0-d"])
    def test_bits_of_views(self, view):
        x = oracle_inputs((20, 15), 2.0)
        x = {"strided": x[::3, 1::2], "transposed": x.T,
             "0-d": np.asarray(x[3, 4])}[view]
        want = oracles.sym_lambda_max(x, P)
        got = sym_lambda_max(x, P)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestSymLambdaMax:
    def test_origin_equality_case(self):
        assert sym_lambda_max(0j, P) == pytest.approx(10.0 - BETA)

    def test_on_cycle(self):
        # eigenvalues {chi - kb - 2 xi, chi - kb} with chi = 0
        assert sym_lambda_max(1 + 0j, P) == pytest.approx(-BETA, rel=1e-12)

    def test_against_eigvalsh(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = complex(*rng.uniform(-2, 2, 2))
            j = jacobian_h(x, P)
            want = np.linalg.eigvalsh(0.5 * (j + j.T)).max()
            assert sym_lambda_max(x, P) == pytest.approx(want, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("shape", [(200,), (20, 15)])
    def test_array_against_eigvalsh(self, shape):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)
        j = jacobian_h(x, P)
        want = np.linalg.eigvalsh(0.5 * (j + np.swapaxes(j, -1, -2)))[..., -1]
        got = sym_lambda_max(x, P)
        assert got.shape == shape
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_scalar_gives_float(self):
        assert type(sym_lambda_max(0.3 - 0.4j, P)) is float

    def test_origin_is_exact_maximizer(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([[0j], rng.uniform(-2, 2, 500)
                            + 1j * rng.uniform(-2, 2, 500)])
        lam = sym_lambda_max(x, P)
        assert lam.max() == P.xi * P.x_nom_sq2 - P.kappa_beta
        assert np.argmax(lam) == 0

    def test_uniform_bound(self):
        rng = np.random.default_rng(99)
        bound = P.xi * P.x_nom_sq2 - P.kappa_beta
        for _ in range(1000):
            theta = rng.uniform(0, 2 * math.pi)
            r = 2.0 * math.sqrt(rng.uniform())
            lam = sym_lambda_max(complex(r * math.cos(theta), r * math.sin(theta)), P)
            assert lam <= bound + 1e-9
