"""fig3's numeric basis against the exact solution of its wave equation.

The basis is stepped by the fourth-order Magnus exponential (the ``rk4``
value of ``[numerics] method``) over fig3's range on three explicit grids:
0.05 fm, where the step's error is below round-off; fig3's own 0.2 fm; and
0.5 fm, where the step's error is well above round-off.

For V = g x the Klein-Gordon equation
phi'' + ((E - g x)^2 - m0c2^2) / (hbar c)^2 phi = 0 becomes Weber's
equation y'' + (z^2/4 - a) y = 0 (DLMF 12.2.3) in
z = (E - g x) / sigma, sigma = sqrt(g hbar c / 2), a = m0c2^2 / (2 g hbar c).
W(a, z) and W(a, -z) solve it with Wronskian 1 in z (DLMF 12.14.5), so each
basis column is a fixed combination of the two, matched to the column's
initial data at grid_min.  Checked against it: the columns, their
Wronskian, the zeros of phi2 and the closed-form momentum derivatives
(Pc, Pc', Pc'') that the quantum Hamilton-Jacobi check uses.
"""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from rqtraj import pipeline
from rqtraj.action import ReducedAction
from rqtraj.config import parse_config
from rqtraj.kleingordon import wavenumber_sq
from rqtraj.model import HiddenParams
from rqtraj.trajectory import _zeros_of
from tests.conftest import with_keys

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fig3.cfg"
POINTS = 21


@pytest.fixture(scope="module")
def fig3():
    """fig3's basis on the 0.05, 0.2 and 0.5 fm grids, and at 30 digits the
    exact columns with their x derivatives at POINTS points of the 0.05 fm
    grid that all three grids share (1 fm apart at least), and the exact
    first, middle and last zeros of phi2."""
    cfg = parse_config(CONFIG)
    setup, pot = pipeline.build_setup(cfg), pipeline.build_potential(cfg)
    basis, mid, coarse = (pipeline.build_basis(with_keys(cfg, grid_step=step).validate(),
                                               setup, pot)
                          for step in (0.05, 0.2, 0.5))
    with mp.workdps(30):
        g, hbar_c = mp.mpf(pot.slope), mp.mpf(setup.hbar_c)
        a = mp.mpf(setup.m0c2) ** 2 / (2 * g * hbar_c)
        sigma = mp.sqrt(g * hbar_c / 2)
        dz_dx = -g / sigma
        # pcfw evaluates W(a, s) = 2 Re[c U(ia, r)] with r = s e^(-i pi/4)
        # (DLMF 12.14); U'(b, r) = r U(b, r) / 2 - U(b - 1, r) (DLMF 12.8.3)
        k = mp.sqrt(1 + mp.exp(2 * mp.pi * a)) - mp.exp(mp.pi * a)
        c = (mp.sqrt(k / 2) * mp.exp(mp.pi * a / 4)
             * mp.expj(mp.pi / 8 + mp.im(mp.loggamma(0.5 + 1j * a)) / 2))

        def z(x):
            return (mp.mpf(setup.E) - g * mp.mpf(x)) / sigma

        def w(s):
            return mp.pcfw(a, s)

        def dw(s):
            r = s * mp.expjpi(-0.25)
            u, u_down = mp.pcfu(1j * a, r), mp.pcfu(1j * a - 1, r)
            return 2 * mp.re(c * mp.expjpi(-0.25) * (r * u / 2 - u_down))

        # (phi, phi') at grid_min of u = W(a, z) and v = W(a, -z), by column
        z0 = z(basis.grid[0])
        start = mp.matrix([[w(z0), w(-z0)], [dz_dx * dw(z0), -dz_dx * dw(-z0)]])
        coef = [mp.lu_solve(start, mp.matrix([phi[0], dphi[0]]))
                for phi, dphi in ((basis.phi1, basis.dphi1), (basis.phi2, basis.dphi2))]
        rows = 20 * np.round(np.linspace(0, basis.grid.size - 1, POINTS) / 20).astype(int)
        columns = {name: [] for name in ("phi1", "dphi1", "phi2", "dphi2")}
        for x in basis.grid[rows]:
            s = z(x)
            u, v, du, dv = w(s), w(-s), dz_dx * dw(s), -dz_dx * dw(-s)
            for (c_u, c_v), (phi, dphi) in zip(coef, (("phi1", "dphi1"), ("phi2", "dphi2"))):
                columns[phi].append(c_u * u + c_v * v)
                columns[dphi].append(c_u * du + c_v * dv)
        exact = np.array([[float(v) for v in columns[name]] for name in ("phi1", "phi2")])
        zeros = _zeros_of(basis.grid, basis.phi2, basis.dphi2)
        picked = [0, zeros.size // 2, zeros.size - 1]
        exact_zeros = [float(mp.findroot(lambda x: coef[1][0] * w(z(x)) + coef[1][1] * w(-z(x)),
                                         mp.mpf(zeros[i])))
                       for i in picked]
        # the basis's phi1' phi2 - phi1 phi2' from the z-Wronskian of (u, v)
        wronskian = -(coef[0][0] * coef[1][1] - coef[0][1] * coef[1][0]) * dz_dx
        return {"basis": basis, "mid": mid, "coarse": coarse, "setup": setup, "pot": pot,
                "a": float(a),
                "z": (float(z0), float(z(basis.grid[-1]))),
                "rows": rows, "exact": exact, "columns": columns,
                "wronskian": float(wronskian), "exact_wronskian": wronskian,
                "picked": picked, "exact_zeros": exact_zeros,
                "unit_wronskian": float(-w(z0) * dw(-z0) - dw(z0) * w(-z0)),
                "dw_vs_diff": float(max(abs(dw(s) - mp.diff(w, s)) for s in (z0, -z0)))}


def test_fig3_is_weber_equation_in_its_range(fig3):
    assert fig3["a"] == pytest.approx(0.6616, abs=5e-5)
    assert fig3["z"] == pytest.approx((23.56, 1.751), abs=5e-3)
    assert fig3["unit_wronskian"] == pytest.approx(1.0, abs=1e-25)
    assert fig3["dw_vs_diff"] <= 1e-25


@pytest.mark.parametrize("column", ["phi1", "phi2"])
def test_basis_matches_the_exact_solution(fig3, column):
    """Within 1e-13 of max|phi| at every checked point (3.6e-14 for phi1,
    7.2e-15 for phi2): the round-off of the prefix products.  RK4 steps
    were 3.4e-12 and 6.4e-12 off; with grid[1] - grid[0], 3.6e-12 relative
    off the grid's mean spacing, RK4's phi2 was 6.7e-10 off."""
    phi = getattr(fig3["basis"], column)
    exact = fig3["exact"][int(column[-1]) - 1]
    assert np.max(np.abs(phi[fig3["rows"]] - exact)) <= 1e-13 * np.max(np.abs(phi))


def _error_on(fig3, name, column, ratio):
    """max|phi - exact| / max|phi| at the checked points of the basis
    ``name``, whose step is ``ratio`` times 0.05 fm."""
    basis = fig3[name]
    rows = fig3["rows"] // ratio
    np.testing.assert_allclose(basis.grid[rows], fig3["basis"].grid[fig3["rows"]],
                               rtol=0, atol=1e-9)
    phi = getattr(basis, column)
    exact = fig3["exact"][int(column[-1]) - 1]
    return np.max(np.abs(phi[rows] - exact)) / np.max(np.abs(phi))


@pytest.mark.parametrize("column, bound", [("phi1", 1.7e-14), ("phi2", 3.5e-13)])
def test_fig3_step_basis_matches_the_exact_solution(fig3, column, bound):
    """At fig3's own 0.2 fm step: within twice the measured error, 8.0e-15
    of max|phi| for phi1 and 1.7e-13 for phi2 (3.6e-14 and 7.2e-15 at
    0.05 fm)."""
    assert _error_on(fig3, "mid", column, 4) <= bound


@pytest.mark.parametrize("column", ["phi1", "phi2"])
def test_coarse_basis_matches_the_exact_solution(fig3, column):
    """At a 0.5 fm step the step's own error shows: within 2e-11 of max|phi|
    (1.3e-14 for phi1 and 6.8e-12 for phi2 measured).  RK4 at this step
    was 6.4e-8 off."""
    assert _error_on(fig3, "coarse", column, 10) <= 2e-11


def test_rk4_wronskian_holds_the_exact_constant(fig3):
    """The exact Wronskian is k0 at grid_min; the basis keeps it to 5.5e-14,
    round-off of the prefix products of steps of determinant 1 (RK4 kept
    it to 4.4e-14)."""
    basis = fig3["basis"]
    exact = fig3["wronskian"]
    assert exact == pytest.approx(basis.dphi1[0], rel=1e-14)
    assert np.max(np.abs(basis.wronskian_pointwise() / exact - 1.0)) <= 1e-12


def test_phi2_zeros_match_the_exact_zeros(fig3):
    """The first, middle and last of the 43 phi2 zeros, placed on the cubic
    Hermite of (phi2, phi2') by ``_zeros_of``, lie within 1e-10 fm of the
    exact ones on the 0.05 and the 0.2 fm grid (measured: 0, 4.5e-13 and
    1.1e-13 fm at 0.05 fm; 5.5e-12, 6.8e-12 and 2.0e-11 fm at 0.2 fm).
    Linear interpolation left 2.65e-9, 1.06e-9 and 1.9e-11 fm at 0.05 fm,
    and its first zero was 1.7e-7 fm off at 0.2 fm."""
    for name in ("basis", "mid"):
        basis = fig3[name]
        zeros = _zeros_of(basis.grid, basis.phi2, basis.dphi2)
        assert zeros.size == 43, name
        np.testing.assert_allclose(zeros[fig3["picked"]], fig3["exact_zeros"], rtol=0,
                                   atol=1e-10, err_msg=name)


@pytest.mark.parametrize("a, b", [(4.0, 2.5), (8.0, -3.0), (5.0, 2.0)])
def test_momentum_derivatives_match_the_exact_closed_forms(fig3, a, b):
    """Pc, Pc' and Pc'' of each fig3 set against the same closed forms on
    the exact columns: within 1e-12, 1e-12 and 5e-12 of their largest
    exact value at the checked points (at most 9.0e-14, 7.1e-14 and 5.8e-13
    measured; 1.9e-9, 2.5e-9 and 9.6e-9 with RK4 steps)."""
    basis, rows, cols = fig3["basis"], fig3["rows"], fig3["columns"]
    setup = fig3["setup"]
    ra = ReducedAction(basis, HiddenParams(a, b), setup)
    got = ra.momentum_derivatives(-wavenumber_sq(setup, fig3["pot"], basis.grid[rows]), rows)
    exact = []
    with mp.workdps(30):
        hbar_c, m2 = mp.mpf(setup.hbar_c), mp.mpf(setup.m0c2) ** 2
        for i, x in enumerate(basis.grid[rows]):
            phi2, dphi2 = cols["phi2"][i], cols["dphi2"][i]
            psi = a * cols["phi1"][i] + b * phi2
            dpsi = a * cols["dphi1"][i] + b * dphi2
            ev = mp.mpf(setup.E) - mp.mpf(fig3["pot"].slope) * mp.mpf(x)
            u = (m2 - ev**2) / hbar_c**2                 # phi'' = u phi
            denom = phi2**2 + psi**2
            dd = 2 * (phi2 * dphi2 + psi * dpsi)
            ddd = 2 * (dphi2**2 + dpsi**2 + u * denom)
            pc = hbar_c * a * fig3["exact_wronskian"] / denom
            exact.append([float(v) for v in (pc, -pc * dd / denom,
                                             pc * (2 * dd**2 / denom**2 - ddd / denom))])
    exact = np.array(exact).T
    for name, value, ref, tol in zip(("Pc", "Pc'", "Pc''"), got, exact, (1e-12, 1e-12, 5e-12)):
        assert np.max(np.abs(value - ref)) <= tol * np.max(np.abs(ref)), name
