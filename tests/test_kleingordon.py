import numpy as np
import pytest

import rqtraj as rq
from rqtraj.errors import DependentInitials, StepTooLarge, TurningPointSingular
from tests.conftest import oscillatory_wavenumber


def test_constant_basis_oscillatory_values(electron2):
    grid = np.linspace(0.0, 500.0, 1001)
    basis = rq.solve_constant(electron2, 0.0, grid)
    k = oscillatory_wavenumber(electron2)
    assert k == pytest.approx(9.79906e-3, rel=1e-5)  # sqrt(4 - 0.511^2)/(hbar c)
    assert basis.wronskian == pytest.approx(k, rel=1e-12)
    # x = 0 column values follow the sin/cos convention
    assert basis.phi1[0] == 0.0
    assert basis.phi2[0] == 1.0
    assert basis.dphi1[0] == pytest.approx(k)
    assert basis.dphi2[0] == 0.0
    assert rq.wronskian_drift(basis) < 1e-12


def test_constant_basis_evanescent(evanescent03):
    grid = np.linspace(-50.0, 50.0, 101)
    basis = rq.solve_constant(evanescent03, 0.0, grid)
    kappa = np.sqrt(0.511**2 - 0.3**2) / evanescent03.hbar_c
    assert kappa == pytest.approx(2.0964e-3, rel=1e-4)
    assert basis.wronskian == pytest.approx(kappa, rel=1e-12)
    mid = np.argmin(np.abs(grid))
    assert basis.phi1[mid] == pytest.approx(np.sinh(kappa * grid[mid]))
    assert basis.phi2[mid] == pytest.approx(np.cosh(kappa * grid[mid]))
    assert rq.wronskian_drift(basis) < 1e-12


def test_constant_basis_turning_point():
    s = rq.PhysicalSetup(E=0.511, m0c2=0.511)
    with pytest.raises(TurningPointSingular):
        rq.solve_constant(s, 0.0, np.linspace(0, 1, 5))


def test_numeric_single_point(electron2, const_pot):
    with pytest.raises(ValueError, match="at least 2 points"):
        rq.solve_numeric(electron2, const_pot, np.array([3.0]), init1=(0.2, 1.1), init2=(1.0, -0.4))


def test_numeric_dependent_initials(electron2, const_pot):
    with pytest.raises(DependentInitials):
        rq.solve_numeric(electron2, const_pot, np.linspace(0, 10, 11), init1=(1.0, 2.0), init2=(2.0, 4.0))


def test_numeric_step_guard(electron2, const_pot):
    k = oscillatory_wavenumber(electron2)
    coarse = np.arange(0.0, 100.0, 0.2 / k)  # |k h| = 0.2 > 0.1
    with pytest.raises(StepTooLarge):
        rq.solve_numeric(electron2, const_pot, coarse)


def test_numeric_requires_uniform_grid(electron2, const_pot):
    with pytest.raises(ValueError):
        rq.solve_numeric(electron2, const_pot, np.array([0.0, 1.0, 3.0]))


def test_rk4_matches_analytic_10_wavelengths(electron2, const_pot):
    """The ``rk4`` method at step 1/(100 k) tracks the closed form over 10
    wavelengths to round-off: each Magnus step is exact for constant u
    (8.5e-14 of max|phi| and a drift of 1.7e-13 measured; RK4 steps were
    held to 1e-8 and 1e-6)."""
    k = oscillatory_wavenumber(electron2)
    h = 1.0 / (100 * k)
    n = int(round(10 * 2 * np.pi / k / h)) + 1
    grid = np.arange(n) * h
    ana = rq.solve_constant(electron2, 0.0, grid)
    num = rq.solve_numeric(electron2, const_pot, grid, method="rk4", init1=(0.0, k), init2=(1.0, 0.0))
    for a, b in ((ana.phi1, num.phi1), (ana.phi2, num.phi2)):
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-12
    assert rq.wronskian_drift(num) < 1e-12


def test_euler_drift_dwarfs_rk4(electron2, const_pot):
    k = oscillatory_wavenumber(electron2)
    h = 1.0 / (100 * k)
    n = int(round(10 * 2 * np.pi / k / h)) + 1
    grid = np.arange(n) * h
    rk4 = rq.solve_numeric(electron2, const_pot, grid, method="rk4", init1=(0.0, k), init2=(1.0, 0.0))
    eul = rq.solve_numeric(electron2, const_pot, grid, method="euler", init1=(0.0, k), init2=(1.0, 0.0))
    assert rq.wronskian_drift(eul) / rq.wronskian_drift(rk4) >= 1e2


def test_basis_recombination_leaves_momentum_invariant(electron2, const_basis):
    """An invertible recombination with transformed (a, b) gives the same P(x)."""
    a, b = 0.7, -1.3
    mat = np.array([[1.1, 0.3], [-0.2, 0.9]])
    phi1n = mat[0, 0] * const_basis.phi1 + mat[0, 1] * const_basis.phi2
    phi2n = mat[1, 0] * const_basis.phi1 + mat[1, 1] * const_basis.phi2
    dphi1n = mat[0, 0] * const_basis.dphi1 + mat[0, 1] * const_basis.dphi2
    dphi2n = mat[1, 0] * const_basis.dphi1 + mat[1, 1] * const_basis.dphi2
    recomb = rq.SolutionBasis(const_basis.grid, phi1n, dphi1n, phi2n, dphi2n)

    n_form = np.array([[a * a, a * b], [a * b, 1 + b * b]])
    minv = np.linalg.inv(mat)
    kf = minv.T @ n_form @ minv
    lam = np.linalg.det(kf) / kf[0, 0]
    a_p = float(np.sqrt(kf[0, 0] / lam))
    b_p = float(kf[0, 1] / (lam * a_p))

    p_old = rq.ReducedAction(const_basis, rq.HiddenParams(a, b), electron2).momentum_grid
    p_new = rq.ReducedAction(recomb, rq.HiddenParams(a_p, b_p), electron2).momentum_grid
    if p_new[0] * p_old[0] < 0:
        p_new = -p_new
    assert np.max(np.abs(p_new - p_old) / np.abs(p_old)) < 1e-8


def test_basis_csv_roundtrip(tmp_path, const_basis):
    path = tmp_path / "basis.csv"
    const_basis.to_csv(path, header=["config_hash: deadbeef"])
    from rqtraj.output import read_csv

    meta, cols = read_csv(path)
    assert meta["config_hash"] == "deadbeef"
    assert list(cols) == ["x_fm", "phi1", "dphi1_per_fm", "phi2", "dphi2_per_fm", "wronskian_per_fm"]
    assert np.array_equal(cols["phi1"], const_basis.phi1)


def test_step_guard_rejects_a_nan_potential(electron2):
    """|k h| > 0.1 is false for a NaN, so the guard asks for |k h| <= 0.1."""

    class NanAt(rq.LinearPotential):
        def v(self, x):
            v = super().v(x)
            v[v.size // 2] = np.nan
            return v

    grid = np.linspace(-500.0, 500.0, 5001)
    with pytest.raises(StepTooLarge, match="nan"):
        rq.solve_numeric(electron2, NanAt(1e-3), grid)
