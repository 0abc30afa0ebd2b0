import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from rqtraj import kleingordon as kg
from rqtraj.config import parse_config
from rqtraj.pipeline import build_basis, build_grid, build_potential, build_setup

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# Reference oracles: sequential step-by-step loops over a uniform grid.
# They propagate two independent columns of the linear system
#     phi'  = dphi
#     dphi' = u(x) * phi
# with scalar ``math`` arithmetic.  ``magnus_pair`` steps by the production
# step, the exponential of the fourth-order Magnus generator; ``euler_pair``
# by the Euler comparison step; ``rk4_pair`` by classical RK4, an
# independent fourth-order method that the Magnus step must agree with
# within RK4's own error.


def magnus_matrix(h, u0, um, u1):
    """exp(Omega) for Omega = [[delta, h], [h ubar, -delta]], as (m00, m01, m10, m11)."""
    ubar = (u0 + 4.0 * um + u1) / 6.0
    delta = h * h * (u0 - u1) / 12.0
    s2 = delta * delta + h * h * ubar
    r = math.sqrt(abs(s2))
    if s2 < 0:
        c, s = math.cos(r), math.sin(r) / r
    elif s2 > 0:
        c, s = math.cosh(r), math.sinh(r) / r
    else:
        c, s = 1.0, 1.0
    return c + s * delta, s * h, s * h * ubar, c - s * delta


def magnus_pair(u_nodes, u_mid, h, y0):
    u = [float(v) for v in u_nodes]
    um = [float(v) for v in u_mid]
    n = len(u)
    p1, d1, p2, d2 = (float(v) for v in y0)
    h = float(h)
    phi1 = np.empty(n)
    dphi1 = np.empty(n)
    phi2 = np.empty(n)
    dphi2 = np.empty(n)
    for i in range(n - 1):
        phi1[i], dphi1[i], phi2[i], dphi2[i] = p1, d1, p2, d2
        ma, mb, mc, md = magnus_matrix(h, u[i], um[i], u[i + 1])
        p1, d1 = ma * p1 + mb * d1, mc * p1 + md * d1
        p2, d2 = ma * p2 + mb * d2, mc * p2 + md * d2
    phi1[n - 1], dphi1[n - 1], phi2[n - 1], dphi2[n - 1] = p1, d1, p2, d2
    return phi1, dphi1, phi2, dphi2


def euler_pair(u_nodes, h, y0):
    u = [float(v) for v in u_nodes]
    n = len(u)
    p1, d1, p2, d2 = (float(v) for v in y0)
    h = float(h)
    phi1 = np.empty(n)
    dphi1 = np.empty(n)
    phi2 = np.empty(n)
    dphi2 = np.empty(n)
    for i in range(n - 1):
        phi1[i], dphi1[i], phi2[i], dphi2[i] = p1, d1, p2, d2
        ui = u[i]
        p1, d1 = p1 + h * d1, d1 + h * ui * p1
        p2, d2 = p2 + h * d2, d2 + h * ui * p2
    phi1[n - 1], dphi1[n - 1], phi2[n - 1], dphi2[n - 1] = p1, d1, p2, d2
    return phi1, dphi1, phi2, dphi2


def _rk4_step(p, d, h, u0, um, u1):
    k1p = d
    k1d = u0 * p
    k2p = d + 0.5 * h * k1d
    k2d = um * (p + 0.5 * h * k1p)
    k3p = d + 0.5 * h * k2d
    k3d = um * (p + 0.5 * h * k2p)
    k4p = d + h * k3d
    k4d = u1 * (p + h * k3p)
    return (
        p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p),
        d + h / 6.0 * (k1d + 2.0 * (k2d + k3d) + k4d),
    )


def rk4_pair(u_nodes, u_mid, h, y0):
    u = [float(v) for v in u_nodes]
    um = [float(v) for v in u_mid]
    n = len(u)
    p1, d1, p2, d2 = (float(v) for v in y0)
    h = float(h)
    phi1 = np.empty(n)
    dphi1 = np.empty(n)
    phi2 = np.empty(n)
    dphi2 = np.empty(n)
    for i in range(n - 1):
        phi1[i], dphi1[i], phi2[i], dphi2[i] = p1, d1, p2, d2
        p1, d1 = _rk4_step(p1, d1, h, u[i], um[i], u[i + 1])
        p2, d2 = _rk4_step(p2, d2, h, u[i], um[i], u[i + 1])
    phi1[n - 1], dphi1[n - 1], phi2[n - 1], dphi2[n - 1] = p1, d1, p2, d2
    return phi1, dphi1, phi2, dphi2


def scan_pair(method, u, u_mid, h, y0):
    """The production kernel: blocked prefix product of the step matrices."""
    return kg._scan(method, h, u, u_mid, y0)


# Reference oracle of the production kernel: the whole-array blocked
# product it replaced.  It builds every step matrix at once, by the
# production step's operations, copies each entry into the block layout,
# and writes the states through full-size temporaries; the chunked,
# in-place kernel must match it bit for bit.


def blocked_step_matrices(method, h, u_nodes, u_mid=None):
    u0 = u_nodes[:-1]
    if method == "euler":
        one = np.ones_like(u0)
        return one, np.full_like(u0, h), h * u0, one
    ubar = (u0 + 4.0 * u_mid + u_nodes[1:]) / 6.0
    delta = (h * h / 12.0) * (u0 - u_nodes[1:])
    s2 = delta * delta + (h * h) * ubar
    r = np.sqrt(np.abs(s2))
    c = np.where(s2 < 0, np.cos(r), np.cosh(r))
    s = np.where(s2 < 0, np.sin(r), np.sinh(r))
    s = np.divide(s, r, out=np.ones_like(r), where=r > 0)
    return c + s * delta, s * h, s * h * ubar, c - s * delta


def blocked_propagate(mats, y0):
    steps = mats[0].size
    block = math.isqrt(steps - 1) + 1
    nblocks = -(-steps // block)
    pad = nblocks * block - steps
    a, b, c, d = (
        np.concatenate([m, np.full(pad, fill)]).reshape(nblocks, block).T.copy()
        for m, fill in zip(mats, (1.0, 0.0, 0.0, 1.0))
    )
    for j in range(1, block):
        a[j], b[j], c[j], d[j] = (
            a[j] * a[j - 1] + b[j] * c[j - 1],
            a[j] * b[j - 1] + b[j] * d[j - 1],
            c[j] * a[j - 1] + d[j] * c[j - 1],
            c[j] * b[j - 1] + d[j] * d[j - 1],
        )
    p1, d1, p2, d2 = y0
    starts = np.empty((4, nblocks))
    for k, (ta, tb, tc, td) in enumerate(zip(a[-1].tolist(), b[-1].tolist(),
                                              c[-1].tolist(), d[-1].tolist())):
        starts[:, k] = p1, d1, p2, d2
        p1, d1 = ta * p1 + tb * d1, tc * p1 + td * d1
        p2, d2 = ta * p2 + tb * d2, tc * p2 + td * d2
    sp1, sd1, sp2, sd2 = starts
    states = (a * sp1 + b * sd1, c * sp1 + d * sd1, a * sp2 + b * sd2, c * sp2 + d * sd2)
    return tuple(np.concatenate([[y], s.T.ravel()[:steps]]) for y, s in zip(y0, states))


def _assert_bit_equal(u, u_mid, h, y0):
    for method, mid in (("euler", None), ("rk4", u_mid)):
        got = scan_pair(method, u, mid, h, y0)
        ref = blocked_propagate(blocked_step_matrices(method, h, u, mid), y0)
        assert len(got) == 4
        for name, g, r in zip(("phi1", "dphi1", "phi2", "dphi2"), got, ref):
            assert np.array_equal(g, r), f"{method} {name}"


def _problem(n=4001, x_max=700.0):
    x = np.linspace(-800.0, x_max, n)
    ev = 2.0 - 1e-3 * x
    u = (0.511**2 - ev * ev) / 197.327**2
    h = float(x[1] - x[0])
    u_mid_x = x[:-1] + 0.5 * h
    ev_m = 2.0 - 1e-3 * u_mid_x
    u_mid = (0.511**2 - ev_m * ev_m) / 197.327**2
    y0 = (0.0, 0.019, 1.0, 0.0)
    return u, u_mid, h, y0


def _assert_normwise(got, ref, tol=1e-13):
    """max|got - ref| / max|ref| <= tol for each of the four columns.

    A reassociated product cannot match the loop elementwise to this
    precision where a column passes through zero, so the bound is normwise.
    """
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


def test_euler_parity_with_fallback():
    u, _, h, y0 = _problem()
    _assert_normwise(scan_pair("euler", u, None, h, y0), euler_pair(u, h, y0))


def test_rk4_parity_with_fallback():
    """The ``rk4`` method runs the Magnus step; the loop steps by it too."""
    u, u_mid, h, y0 = _problem()
    _assert_normwise(scan_pair("rk4", u, u_mid, h, y0), magnus_pair(u, u_mid, h, y0))


@pytest.mark.parametrize("n", [2, 3, 17, 18, 4003])
def test_scan_parity_block_sizes(n):
    """Grids too short for a second block, and last blocks of every fill."""
    u, u_mid, h, y0 = _problem(n)
    _assert_normwise(scan_pair("euler", u, None, h, y0), euler_pair(u, h, y0))
    _assert_normwise(scan_pair("rk4", u, u_mid, h, y0), magnus_pair(u, u_mid, h, y0))


def test_scan_parity_through_turning_point():
    """(E - V)^2 = (m0 c^2)^2 at x = 1489 fm: oscillatory, then evanescent."""
    u, u_mid, h, y0 = _problem(n=8001, x_max=2000.0)
    assert u[0] < 0 < u[-1]
    _assert_normwise(scan_pair("euler", u, None, h, y0), euler_pair(u, h, y0))
    _assert_normwise(scan_pair("rk4", u, u_mid, h, y0), magnus_pair(u, u_mid, h, y0))


@pytest.mark.parametrize("n, x_max", [(4001, 700.0), (8001, 2000.0)])
def test_magnus_agrees_with_rk4_within_its_error(n, x_max):
    """RK4 is an independent fourth-order step.  The Magnus states differ
    from its states by RK4's own error, estimated by step doubling as
    16/15 of max|rk4(h) - rk4(h/2)| (1e-11 to 1e-10 of max|phi| here),
    within 5 % (0.6 % measured): the Magnus error is a small part of it."""
    u, u_mid, h, y0 = _problem(n, x_max)
    u_half, mid_half, _, _ = _problem(2 * n - 1, x_max)
    magnus = scan_pair("rk4", u, u_mid, h, y0)
    rk4 = rk4_pair(u, u_mid, h, y0)
    rk4_half = rk4_pair(u_half, mid_half, h / 2, y0)
    for m, r, r2 in zip(magnus, rk4, rk4_half):
        err = 16 / 15 * np.max(np.abs(r - r2[::2]))
        assert err > 1e-12 * np.max(np.abs(r))
        assert np.max(np.abs(m - r)) == pytest.approx(err, rel=0.05)


@pytest.mark.parametrize("u0, um, u1", [
    (-1.0e-4, -0.99e-4, -0.98e-4),      # oscillatory: s2 < 0
    (2.0e-4, 2.1e-4, 2.2e-4),           # evanescent: s2 > 0
    (0.0, 0.0, 0.0),                    # r = 0
    (-2.0e-4, 1.0e-5, 2.0e-4),          # through u = 0 within the step
], ids=["oscillatory", "evanescent", "zero", "turning"])
def test_step_matrix_is_the_exponential(u0, um, u1):
    """Each step matrix is exp(Omega) to round-off, Omega the fourth-order
    Magnus generator [[delta, h], [h ubar, -delta]], with the exponential
    taken by mpmath at 30 digits; its determinant is 1 to 1e-15.  The
    sequential oracle's scalar matrix is checked the same way."""
    h = 4.0
    mats = kg._step_matrices("rk4", h, np.array([u0, u1]), np.array([um]))
    got = np.array([float(m[0]) for m in mats]).reshape(2, 2)
    with mp.workdps(30):
        u0_, um_, u1_, h_ = (mp.mpf(v) for v in (u0, um, u1, h))
        ubar = (u0_ + 4 * um_ + u1_) / 6
        delta = h_**2 * (u0_ - u1_) / 12
        exact = mp.expm(mp.matrix([[delta, h_], [h_ * ubar, -delta]]))
        exact = np.array([[float(exact[i, j]) for j in range(2)] for i in range(2)])
    assert np.max(np.abs(got - exact)) <= 1e-15 * np.max(np.abs(exact))
    assert abs(got[0, 0] * got[1, 1] - got[0, 1] * got[1, 0] - 1.0) <= 1e-15
    oracle = np.array(magnus_matrix(h, u0, um, u1)).reshape(2, 2)
    assert np.max(np.abs(oracle - exact)) <= 1e-15 * np.max(np.abs(exact))


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["oscillatory", "evanescent"])
def test_constant_u_is_exact(sign):
    """For constant u every step is the exact transfer matrix, so the states
    are (sin, cos) or (sinh, cosh) to round-off of the prefix products,
    within 2e-13 of max|phi| at a coarse step and at half of it (1.6e-14
    and 2.6e-14, and 6.0e-14 and 3.7e-14 measured)."""
    k = 0.01
    x_max = 2000.0 if sign < 0 else 200.0
    fns = (np.sin, np.cos) if sign < 0 else (np.sinh, np.cosh)
    for n in (501, 1001):
        x = np.linspace(0.0, x_max, n)
        h = float(x[1] - x[0])
        u = np.full(n, sign * k * k)
        got = scan_pair("rk4", u, u[:-1], h, (0.0, k, 1.0, 0.0))
        exact = (fns[0](k * x), k * fns[1](k * x), fns[1](k * x), sign * k * fns[0](k * x))
        _assert_normwise(got, exact, tol=2e-13)


def test_rk4_drift_on_fig3_grid():
    """The 34 251-point fig3 basis keeps its Wronskian to round-off."""
    cfg = parse_config(CONFIGS / "fig3.cfg")
    basis = build_basis(cfg, build_setup(cfg), build_potential(cfg))
    assert basis.grid.size == 34251
    assert kg.wronskian_drift(basis) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 17, 18, 4003])
def test_scan_is_bit_equal_to_the_whole_array_product(n):
    _assert_bit_equal(*_problem(n))


@pytest.mark.parametrize("chunk", [1, 128, 1000])
def test_scan_does_not_depend_on_the_chunk(monkeypatch, chunk):
    """63 blocks of 64 steps, 1, 2 or 15 blocks per chunk: the last chunk
    holds 1, 1 or 3 blocks, the last of them padded."""
    monkeypatch.setattr(kg, "SCAN_CHUNK", chunk)
    _assert_bit_equal(*_problem(4003))


def test_scan_is_bit_equal_on_the_fig3_grid():
    cfg = parse_config(CONFIGS / "fig3.cfg")
    setup, pot = build_setup(cfg), build_potential(cfg)
    grid = build_grid(cfg)
    h = float(grid[1] - grid[0])
    u = -kg.wavenumber_sq(setup, pot, grid)
    u_mid = -kg.wavenumber_sq(setup, pot, grid[:-1] + 0.5 * h)
    assert grid.size == 34251 and kg.SCAN_CHUNK < grid.size
    _assert_bit_equal(u, u_mid, h, (0.0, 0.019, 1.0, 0.0))
