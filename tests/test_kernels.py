from pathlib import Path

import numpy as np
import pytest

from rqtraj import kleingordon as kg
from rqtraj.config import parse_config
from rqtraj.pipeline import build_basis, build_potential, build_setup

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# Reference oracle: the sequential step-by-step loop (formerly the package's
# pure-Python fallback kernel), kept verbatim.  It propagates two
# independent columns of the linear system
#     phi'  = dphi
#     dphi' = u(x) * phi
# over a uniform grid.


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
    return kg._propagate(kg._step_matrices(method, h, u, u_mid), y0)


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
    u, u_mid, h, y0 = _problem()
    _assert_normwise(scan_pair("rk4", u, u_mid, h, y0), rk4_pair(u, u_mid, h, y0))


@pytest.mark.parametrize("n", [2, 3, 17, 18, 4003])
def test_scan_parity_block_sizes(n):
    """Grids too short for a second block, and last blocks of every fill."""
    u, u_mid, h, y0 = _problem(n)
    _assert_normwise(scan_pair("euler", u, None, h, y0), euler_pair(u, h, y0))
    _assert_normwise(scan_pair("rk4", u, u_mid, h, y0), rk4_pair(u, u_mid, h, y0))


def test_scan_parity_through_turning_point():
    """(E - V)^2 = (m0 c^2)^2 at x = 1489 fm: oscillatory, then evanescent."""
    u, u_mid, h, y0 = _problem(n=8001, x_max=2000.0)
    assert u[0] < 0 < u[-1]
    _assert_normwise(scan_pair("euler", u, None, h, y0), euler_pair(u, h, y0))
    _assert_normwise(scan_pair("rk4", u, u_mid, h, y0), rk4_pair(u, u_mid, h, y0))


def test_fallback_rk4_order():
    """Production RK4 kernel alone: fourth-order convergence on sin/cos."""
    k = 0.01
    errs = []
    for n in (501, 1001):
        x = np.linspace(0.0, 2000.0, n)
        h = float(x[1] - x[0])
        u = np.full(n, -k * k)
        u_mid = np.full(n - 1, -k * k)
        phi1, dphi1, phi2, dphi2 = scan_pair("rk4", u, u_mid, h, (0.0, k, 1.0, 0.0))
        errs.append(np.max(np.abs(phi1 - np.sin(k * x))))
    assert errs[0] / errs[1] > 12


def test_rk4_drift_on_fig3_grid():
    """The 137 001-point fig3 basis keeps its Wronskian to round-off."""
    cfg = parse_config(CONFIGS / "fig3.cfg")
    basis = build_basis(cfg, build_setup(cfg), build_potential(cfg))
    assert basis.grid.size == 137001
    assert kg.wronskian_drift(basis) < 1e-12
