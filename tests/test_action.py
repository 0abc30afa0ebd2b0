from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtraj as rq
from rqtraj import pipeline
from rqtraj.action import unwrap_phase
from rqtraj.config import parse_config
from rqtraj.errors import BranchResolutionError
from tests.conftest import oscillatory_wavenumber


def test_s0_is_linear_for_classical_params(electron2, const_basis):
    """a=1, b=0 on the sin/cos basis: S0 = hbar k x across branch crossings."""
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(1.0, 0.0), electron2)
    k = oscillatory_wavenumber(electron2)
    expected = electron2.hbar * k * const_basis.grid
    assert ra.s0(0.0) == 0.0
    assert np.max(np.abs(ra.s0_grid - expected)) / np.max(np.abs(expected)) < 1e-10
    # the window spans > 3 pole crossings of the arctan argument
    assert ra.branch_grid[-1] >= 3


def test_s0_offset_at_origin(electron2, const_basis):
    # phi1(0) = 0, so S0(x0) anchors at hbar * arctan(b)
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(1.0, 2.0), electron2)
    assert ra.s0_grid[0] == pytest.approx(electron2.hbar * np.arctan(2.0), rel=1e-12)


def test_momentum_constant_for_classical_params(electron2, const_basis):
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(1.0, 0.0), electron2)
    p_cl = np.sqrt(4.0 - 0.511**2)
    assert np.max(np.abs(ra.momentum_grid - p_cl)) / p_cl < 1e-12


def test_momentum_scaled_at_origin(electron2, const_basis):
    # x = 0 has phi1 = 0, phi2 = 1: P = hbar_c * a * k
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(2.0, 0.0), electron2)
    k = oscillatory_wavenumber(electron2)
    assert ra.momentum(0.0) == pytest.approx(2.0 * electron2.hbar_c * k, rel=1e-12)


def test_momentum_matches_s0_finite_difference(electron2):
    """Fourth-order stencil of S0 reproduces the closed-form momentum to 1e-6."""
    k = oscillatory_wavenumber(electron2)
    h = 1.0 / (200 * k)
    grid = np.arange(int(round(2.5 * 2 * np.pi / k / h))) * h
    basis = rq.solve_constant(electron2, 0.0, grid)
    for a, b in ((1.0, 0.0), (4 / 3, -1.05), (2.0, 0.5)):
        ra = rq.ReducedAction(basis, rq.HiddenParams(a, b), electron2)
        s0 = ra.s0_grid
        p_fd = (s0[:-4] - 8 * s0[1:-3] + 8 * s0[3:-1] - s0[4:]) / (12 * h)
        p_fd = p_fd * electron2.c_fm_s  # MeV s / fm -> MeV/c
        rel = np.abs(p_fd - ra.momentum_grid[2:-2]) / np.abs(ra.momentum_grid[2:-2])
        assert np.max(rel) < 1e-6, (a, b)


@given(a=st.floats(0.1, 5.0), b=st.floats(-4.0, 4.0))
@settings(max_examples=50, deadline=None)
def test_momentum_never_vanishes(a, b):
    s = rq.PhysicalSetup(E=2.0, m0c2=0.511)
    k = oscillatory_wavenumber(s)
    grid = np.arange(0.0, 2.5 * 2 * np.pi / k, 1.0 / (200 * k))
    basis = rq.solve_constant(s, 0.0, grid)
    ra = rq.ReducedAction(basis, rq.HiddenParams(a, b), s)
    assert np.min(np.abs(ra.momentum_grid)) > 0.0
    # monotone action for positive a W
    assert np.all(np.diff(ra.s0_grid) > 0)


def test_s0_continuous_across_branches(electron2, const_basis):
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(0.25, 8.0), electron2)
    steps = np.abs(np.diff(ra.s0_grid))
    assert np.max(steps) < np.pi * electron2.hbar  # no branch-sized jumps


def test_branch_counter_increments(electron2, const_basis):
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(1.0, 0.0), electron2)
    n = ra.branch_grid
    assert n[0] == 0
    assert np.all(np.diff(n) >= 0)
    assert set(np.diff(n)) <= {0, 1}


def test_branch_resolution_guard(electron2):
    """A grid too coarse for a peaky parameter set must refuse, not alias."""
    k = oscillatory_wavenumber(electron2)
    grid = np.arange(0.0, 2 * 2 * np.pi / k, 1.0 / (70 * k))
    basis = rq.solve_constant(electron2, 0.0, grid)
    with pytest.raises(BranchResolutionError):
        rq.ReducedAction(basis, rq.HiddenParams(0.02, 40.0), electron2)


def test_s0_increment_between_nodes_is_pi_hbar(electron2, const_basis):
    """S0 advances by exactly pi hbar across one node interval."""
    k = oscillatory_wavenumber(electron2)
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(4 / 3, -1.05), electron2)
    x_a, x_b = np.pi / (2 * k), 3 * np.pi / (2 * k)  # adjacent phi2 zeros
    s_a = np.interp(x_a, const_basis.grid, ra.s0_grid)
    s_b = np.interp(x_b, const_basis.grid, ra.s0_grid)
    assert s_b - s_a == pytest.approx(np.pi * electron2.hbar, rel=1e-4)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def test_unwrap_phase_matches_numpy_on_the_fig3_basis():
    """The sparse unwrap is np.unwrap bit for bit on every fig3 set's phase."""
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "fig3.cfg")
    setup = pipeline.build_setup(cfg)
    pot = pipeline.build_potential(cfg)
    basis = pipeline.build_basis(cfg, setup, pot)
    for a, b in cfg.param_sets:
        p = np.arctan2(a * basis.phi1 + b * basis.phi2, basis.phi2)
        assert np.count_nonzero(np.abs(np.diff(p)) >= np.pi) > 0
        assert np.array_equal(_bits(unwrap_phase(p)), _bits(np.unwrap(p))), (a, b)


@pytest.mark.parametrize("p", [
    np.linspace(-1.0, 1.0, 101),                       # no cut at all
    np.array([0.0, np.pi, 0.0, -np.pi, 0.0]),          # steps of exactly +pi and -pi
    np.array([1.0, 1.0 + np.pi, 1.0, 1.0 - np.pi]),    # the same away from zero
    np.array([3.0, -3.0, 3.0, 2 * np.pi + 3.0, -7.0]),  # cuts and multi-period jumps
    np.array([-0.0, -0.0, 0.5, -0.0]),                 # signed zeros
    np.array([0.0, np.nan, 1.0, 5.0]),                 # nan spreads as in numpy
    np.array([2.0]),
    np.array([]),
])
def test_unwrap_phase_matches_numpy(p):
    assert np.array_equal(_bits(unwrap_phase(p)), _bits(np.unwrap(p)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-20.0, 20.0), min_size=0, max_size=60))
def test_unwrap_phase_matches_numpy_on_random_phases(values):
    p = np.array(values, dtype=float)
    assert np.array_equal(_bits(unwrap_phase(p)), _bits(np.unwrap(p)))
