"""Independent oracles used to pin expected values.

Everything here deliberately avoids the library's own code paths: the network
oracle is a dense linear solve instead of the closed-form admittance average,
the amplitude oracle is the closed-form logistic solution of the radial ODE,
the local increment is the allocating form of the engine's in-place field,
the callable-field RK4 kernel and the in-place coupled field it runs are
the engine's fused step taken apart, with ``np.add`` and ``np.multiply`` in
its order,
the Jacobian entries and the top eigenvalue of its symmetric part are the
allocating forms of the in-place ones, the sampled states are one draw of all
of them at once, the two-inverter field oracle and the star-network
integrator are written in flat real arithmetic, and the least-squares slope
is exact rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np


def dense_star_solve(e, z_branch, z_net):
    """Solve the star network as an (n+1)-unknown dense complex system.

    Unknowns [V, I_1, ..., I_n]; equations V + Z_i*I_i = E_i for each branch
    and sum(I_i) - V/Z_net = 0 (KCL at the bus).  Returns (V, currents).
    """
    n = len(e)
    a = np.zeros((n + 1, n + 1), dtype=complex)
    b = np.zeros(n + 1, dtype=complex)
    a[0, 0] = -1.0 / z_net
    a[0, 1:] = 1.0
    for i in range(n):
        a[i + 1, 0] = 1.0
        a[i + 1, i + 1] = z_branch[i]
        b[i + 1] = e[i]
    sol = np.linalg.solve(a, b)
    return sol[0], sol[1:]


def logistic_radius(r0, t, xi=10.0, amp_sq=1.0):
    """Closed form of dr/dt = xi*(amp_sq - r^2)*r; u = r^2 is logistic."""
    u0 = r0 * r0
    u = amp_sq * u0 / (u0 + (amp_sq - u0) * math.exp(-2.0 * xi * amp_sq * t))
    return math.sqrt(u)


def chi(x, params):
    """Amplitude-regulating scalar xi*(2*Xnom^2 - |x|^2), with |x|^2 written
    out as x.real**2 + x.imag**2; ``x`` is a complex state, scalar or
    array, and the result has its shape."""
    return params.xi * (params.x_nom_sq2 - (x.real ** 2 + x.imag ** 2))


def local_map(x, params):
    """Local map h(x) = (chi(x) - kappa*beta + j*omega0)*x of one inverter,
    allocating.

    The coupled field of every inverter is h(x_k) plus the common bus term
    kappa*v_o.  ``x`` is a complex state, scalar or array; the result has its
    shape.
    """
    return (chi(x, params) + complex(-params.kappa_beta, params.omega0)) * x


def local_increment(x, params, h):
    """Half-step increment h*h(x) of the local map, allocating, in the
    arithmetic of the engine's field: the constants are scaled once,
    c0 = h*(xi*2*Xnom^2 - kappa*beta), and the gain is
    (-h*xi)*|x|^2 + c0 + j*h*omega0.

    The engine's in-place field for the step h = dt/2 must give the bits of
    this form plus ``np.dot(h*g, x)``.
    """
    c0 = h * (params.xi * params.x_nom_sq2 - params.kappa_beta)
    amp = (-h * params.xi) * (x.real ** 2 + x.imag ** 2)
    return (amp + complex(c0, h * params.omega0)) * x


def rk4_workspace(n):
    """Buffers of ``rk4_kernel`` for an n-element complex state: the stages
    a1..a4, the stage state and the accumulator, and the 0-d complex
    weights 2 and 1/3."""
    stages = tuple(np.empty(n, dtype=complex) for _ in range(6))
    return stages, tuple(np.array(w, dtype=complex) for w in (2.0, 1 / 3))


def rk4_kernel(f, t, y, dt, w):
    """One classical RK4 step of dy/dt = F(t, y) from any field, in place.

    ``w`` is ``rk4_workspace(len(y))`` and ``f(t, x, out)`` writes the
    half-step increment (dt/2)*F(t, x) into ``out``; the step is written
    into ``y`` and returned.  With a_i = (dt/2)*k_i it is
    y + (1/3)*((a1 + 2*a2) + 2*a3 + a4), a3 doubled in place before it
    makes the last stage state y + 2*a3, each weight a 0-d complex array:
    the engine's fused step must give its bits running ``coupled_field``.
    """
    stages, (two, third) = w
    a1, a2, a3, a4, ys, acc = stages
    f(t, y, a1)
    np.add(y, a1, ys)
    f(t + 0.5 * dt, ys, a2)
    np.add(y, a2, ys)
    f(t + 0.5 * dt, ys, a3)
    np.add(y, np.multiply(two, a3, a3), ys)
    f(t + dt, ys, a4)
    np.add(a1, np.multiply(two, a2, acc), acc)
    np.add(acc, a3, acc)
    np.add(acc, a4, acc)
    return np.add(y, np.multiply(third, acc, acc), y)


def coupled_field(p, y, ys, g, d, h):
    """The half-step increment h*F of the coupled field F(x_k) = (chi(x_k)
    - kappa*beta + j*omega0)*x_k + g . x (+ disturbance ``d`` on one
    inverter), in place, as ``field(t, x, out)`` for ``rk4_kernel``.

    A closure over the operands scaled by h once: the gain buffer with
    h*omega0 in its imaginary part, the 0-d -h*xi and c0 = h*(xi*x_nom_sq2
    - kappa*beta), and h*g.  ``y`` and ``ys`` are the state and the stage
    state, whose float views are built here; any other contiguous complex
    ``x`` gets its view per call.  It must give the bits of the allocating
    ``local_increment(x, p, h) + np.dot(h*g, x)`` (+ h*d(t)).
    """
    yv, ysv = y.view(np.float64), ys.view(np.float64)
    sq = np.empty(2 * len(y))
    sq_re, sq_im = sq[0::2], sq[1::2]
    gain = np.full(len(y), complex(0.0, h * p.omega0))
    gain_re = gain.real
    neg_hxi = np.array(-h * p.xi)
    c0 = np.array(h * (p.xi * p.x_nom_sq2 - p.kappa_beta))
    g_h = h * g
    bus = np.empty((), dtype=complex)

    def field(t, x, out):
        xv = yv if x is y else ysv if x is ys else x.view(np.float64)
        np.multiply(xv, xv, sq)
        np.add(sq_re, sq_im, gain_re)
        np.multiply(neg_hxi, gain_re, gain_re)
        np.add(gain_re, c0, gain_re)
        np.multiply(gain, x, out)
        g_h.dot(x, bus)
        np.add(out, bus, out)
        if d is not None:
            out[d.inverter] += h * (
                complex(d.amplitude) if d.waveform == "constant"
                else d.amplitude * np.exp(1j * p.omega0 * t))
        return out

    return field


def jacobian_entries(x, params):
    """Entries (p, j01, j10, r) of the local map's Jacobian
    (chi - kappa*beta)*I + omega0*J - 2*xi*x*x^T at the complex states
    ``x``, allocating, each written out as one expression."""
    x = np.asarray(x, dtype=complex)
    a = x.real
    b = x.imag
    c = params.xi * (params.x_nom_sq2 - (a ** 2 + b ** 2)) - params.kappa_beta
    w = params.omega0
    xi2 = 2.0 * params.xi
    return (c - xi2 * a * a, -w - xi2 * a * b, w - xi2 * a * b,
            c - xi2 * b * b)


def sym_lambda_max(x, params):
    """Largest eigenvalue of the Jacobian's symmetric part at the complex
    states ``x``, allocating: (p + r)/2 + hypot((p - r)/2, q) with
    q = (j01 + j10)/2, from ``jacobian_entries``."""
    p, j01, j10, r = jacobian_entries(x, params)
    q = 0.5 * (j01 + j10)
    half_diff = 0.5 * (p - r)
    return 0.5 * (p + r) + np.hypot(half_diff, q)


def sampled_states(radius, n, seed):
    """The origin followed by ``n`` states of norm <= radius, uniform in the
    disk, drawn at once: all angles from ``default_rng(seed)``, then all
    radii from the same generator."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    states = np.zeros(n + 1, dtype=complex)
    states.real[1:] = r * np.cos(theta)
    states.imag[1:] = r * np.sin(theta)
    return states


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cinv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


def _cadd(*terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def flat_two_inverter_field(y, xi, amp_sq, omega0, kappa, beta,
                            z1, z2, z_net):
    """Hand-assembled 4-real-state derivative of two coupled oscillators.

    y = [x1_alpha, x1_beta, x2_alpha, x2_beta]; impedances as (re, im) pairs.
    Uses only flat tuple arithmetic, no complex dtype and no library calls.
    """
    x1 = (y[0], y[1])
    x2 = (y[2], y[3])
    y1 = _cinv(z1)
    y2 = _cinv(z2)
    ynet = _cinv(z_net)
    ysig = _cadd(y1, y2, ynet)
    e1 = (beta * x1[0], beta * x1[1])
    e2 = (beta * x2[0], beta * x2[1])
    num = _cadd(_cmul(y1, e1), _cmul(y2, e2))
    v = _cmul(num, _cinv(ysig))

    out = []
    for x in (x1, x2):
        c = xi * (amp_sq - x[0] * x[0] - x[1] * x[1])
        da = c * x[0] - omega0 * x[1] - kappa * (beta * x[0] - v[0])
        db = c * x[1] + omega0 * x[0] - kappa * (beta * x[1] - v[1])
        out += [da, db]
    return np.array(out)


def flat_star_rk4(x0, xi, amp_sq, omega0, kappa, beta, branches, z_net,
                  t_z, dt, steps, disturbance=None):
    """Classical RK4 of n oscillators on the star network, in flat arithmetic.

    x0 is a list of (re, im) initial states; each branch is a tuple
    (r_f, l_f, r_v, x_v, z_extra) with z_extra as (re, im), active for steps
    that start before t_z; z_net is (re, im).  ``disturbance`` is
    (inverter, amplitude, waveform) with waveform "constant" (a real
    amplitude) or "rotating" (amplitude * e^(j*omega0*t)).  Branch
    admittances come from the branch parts, the bus voltage from KCL at the
    bus, sum_i (E_i - V)*Y_i = V/z_net.  Returns (xs, vs, currents): per
    recorded step the states, the bus voltage and the branch currents, all
    as (re, im) tuples, with each row's admittances chosen by its own time.
    """
    def admittances(before_t_z):
        ys = []
        for r_f, l_f, r_v, x_v, z_extra in branches:
            z = (r_f + r_v, omega0 * l_f + x_v)
            if before_t_z:
                z = _cadd(z, z_extra)
            ys.append(_cinv(z))
        return ys

    def bus(x, ys):
        num = _cadd(*[_cmul(y, (beta * a, beta * b)) for y, (a, b) in zip(ys, x)])
        return _cmul(num, _cinv(_cadd(*ys, _cinv(z_net))))

    def field(t, x, ys):
        v = bus(x, ys)
        out = []
        for k, (a, b) in enumerate(x):
            c = xi * (amp_sq - a * a - b * b)
            da = c * a - omega0 * b - kappa * (beta * a - v[0])
            db = c * b + omega0 * a - kappa * (beta * b - v[1])
            if disturbance is not None and k == disturbance[0]:
                amp = disturbance[1]
                if disturbance[2] == "constant":
                    da += amp
                else:
                    da += amp * math.cos(omega0 * t)
                    db += amp * math.sin(omega0 * t)
            out.append((da, db))
        return out

    def shift(x, k, h):
        return [(a + h * ka, b + h * kb) for (a, b), (ka, kb) in zip(x, k)]

    y_pre, y_post = admittances(True), admittances(False)
    x = [tuple(s) for s in x0]
    xs = [x]
    for s in range(steps):
        t = s * dt
        ys = y_pre if t < t_z else y_post
        k1 = field(t, x, ys)
        k2 = field(t + 0.5 * dt, shift(x, k1, 0.5 * dt), ys)
        k3 = field(t + 0.5 * dt, shift(x, k2, 0.5 * dt), ys)
        k4 = field(t + dt, shift(x, k3, dt), ys)
        x = [(a + dt / 6.0 * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
              b + dt / 6.0 * (q1 + 2.0 * q2 + 2.0 * q3 + q4))
             for (a, b), (p1, q1), (p2, q2), (p3, q3), (p4, q4)
             in zip(x, k1, k2, k3, k4)]
        xs.append(x)
    vs, currents = [], []
    for s, x in enumerate(xs):
        ys = y_pre if s * dt < t_z else y_post
        v = bus(x, ys)
        vs.append(v)
        currents.append([_cmul((beta * a - v[0], beta * b - v[1]), y)
                         for (a, b), y in zip(x, ys)])
    return xs, vs, currents


def pairwise_max_distance(x):
    """Per row of an (S, N) complex array, the largest |x_i - x_j| over all
    ordered pairs i != j, one pair at a time; 0.0 for one column.  The
    distance is numpy's scalar abs, which rounds as its array abs does
    (Python's abs(complex) calls libm's hypot, which can differ in the last
    bit).  A NaN distance propagates, as numpy's maximum does."""
    out = np.zeros(len(x))
    for s, row in enumerate(x):
        for i, a in enumerate(row):
            for j, b in enumerate(row):
                if i != j:
                    d = np.abs(a - b)
                    if d != d or d > out[s]:
                        out[s] = d
    return out


def all_pairs_max_distance(x):
    """Per row of an (S, N) complex array, the largest np.abs(x_i - x_j)
    over all pairs i < j (0.0 for one column), vectorized over rows: each
    column against the higher-numbered ones, on an (N, S) copy, with a
    running per-row maximum.  This is the comparison of all pairs that
    sync_error's screen must reproduce bit for bit, NaN included."""
    xt = x.T.copy()
    out = np.zeros(len(x))
    for i in range(len(xt) - 1):
        np.maximum(out, np.abs(xt[i] - xt[i + 1:]).max(axis=0), out=out)
    return out


def exact_lsq_slope(t, y):
    """Exact least-squares slope of y against t, as a Fraction.

    Every float of ``t`` and ``y`` is taken at its exact binary value, and
    the normal equations are solved without rounding:
    slope = (n*sum(t*y) - sum(t)*sum(y)) / (n*sum(t*t) - sum(t)**2).
    """
    t = [Fraction(float(v)) for v in t]
    y = [Fraction(float(v)) for v in y]
    n = len(t)
    st, sy = sum(t), sum(y)
    sty = sum(a * b for a, b in zip(t, y))
    stt = sum(a * a for a in t)
    return (n * sty - st * sy) / (n * stt - st * st)


def central_difference_jacobian(f, x, h=1e-6):
    """Central finite-difference Jacobian of f: R^2 -> R^2 at x."""
    j = np.zeros((2, 2))
    for col in range(2):
        dx = np.zeros(2)
        dx[col] = h
        plus = np.asarray(f(x + dx), dtype=float)
        minus = np.asarray(f(x - dx), dtype=float)
        j[:, col] = (plus - minus) / (2.0 * h)
    return j
