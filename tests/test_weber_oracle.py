"""fig3's RK4 basis against the exact solution of its wave equation.

For V = g x the Klein-Gordon equation
phi'' + ((E - g x)^2 - m0c2^2) / (hbar c)^2 phi = 0 becomes Weber's
equation y'' + (z^2/4 - a) y = 0 (DLMF 12.2.3) in
z = (E - g x) / sigma, sigma = sqrt(g hbar c / 2), a = m0c2^2 / (2 g hbar c).
W(a, z) and W(a, -z) solve it with Wronskian 1 in z (DLMF 12.14.5), so each
basis column is a fixed combination of the two, matched to the column's
initial data at grid_min.
"""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from rqtraj import pipeline
from rqtraj.config import parse_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fig3.cfg"
POINTS = 21


@pytest.fixture(scope="module")
def fig3():
    """The RK4 basis and, at 30 digits, the exact columns at POINTS grid points."""
    cfg = parse_config(CONFIG)
    setup, pot = pipeline.build_setup(cfg), pipeline.build_potential(cfg)
    basis = pipeline.build_basis(cfg, setup, pot)
    with mp.workdps(30):
        g, hbar_c = mp.mpf(pot.slope), mp.mpf(setup.hbar_c)
        a = mp.mpf(setup.m0c2) ** 2 / (2 * g * hbar_c)
        sigma = mp.sqrt(g * hbar_c / 2)
        dz_dx = -g / sigma

        def z(x):
            return (mp.mpf(setup.E) - g * mp.mpf(x)) / sigma

        def w(s):
            return mp.pcfw(a, s)

        def dw(s):
            return mp.diff(w, s)

        # (phi, phi') at grid_min of u = W(a, z) and v = W(a, -z), by column
        z0 = z(basis.grid[0])
        start = mp.matrix([[w(z0), w(-z0)], [dz_dx * dw(z0), -dz_dx * dw(-z0)]])
        coef = [mp.lu_solve(start, mp.matrix([phi[0], dphi[0]]))
                for phi, dphi in ((basis.phi1, basis.dphi1), (basis.phi2, basis.dphi2))]
        rows = np.linspace(0, basis.grid.size - 1, POINTS).astype(int)
        exact = np.array([[float(c[0] * w(z(x)) + c[1] * w(-z(x))) for x in basis.grid[rows]]
                          for c in coef])
        # the basis's phi1' phi2 - phi1 phi2' from the z-Wronskian of (u, v)
        wronskian = -(coef[0][0] * coef[1][1] - coef[0][1] * coef[1][0]) * dz_dx
        return {"basis": basis, "a": float(a), "z": (float(z0), float(z(basis.grid[-1]))),
                "rows": rows, "exact": exact, "wronskian": float(wronskian),
                "unit_wronskian": float(-w(z0) * dw(-z0) - dw(z0) * w(-z0))}


def test_fig3_is_weber_equation_in_its_range(fig3):
    assert fig3["a"] == pytest.approx(0.6616, abs=5e-5)
    assert fig3["z"] == pytest.approx((23.56, 1.751), abs=5e-3)
    assert fig3["unit_wronskian"] == pytest.approx(1.0, abs=1e-25)


@pytest.mark.parametrize("column", ["phi1", "phi2"])
def test_rk4_basis_matches_the_exact_solution(fig3, column):
    """Within 1e-9 of max|phi| at every checked point (6.7e-10 for phi2)."""
    phi = getattr(fig3["basis"], column)
    exact = fig3["exact"][int(column[-1]) - 1]
    assert np.max(np.abs(phi[fig3["rows"]] - exact)) <= 1e-9 * np.max(np.abs(phi))


def test_rk4_wronskian_holds_the_exact_constant(fig3):
    """The exact Wronskian is k0 at grid_min; RK4 keeps it to 6.7e-14."""
    basis = fig3["basis"]
    exact = fig3["wronskian"]
    assert exact == pytest.approx(basis.dphi1[0], rel=1e-14)
    assert np.max(np.abs(basis.wronskian_pointwise() / exact - 1.0)) <= 1e-12
