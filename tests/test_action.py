from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtraj as rq
from rqtraj import pipeline
from rqtraj.config import parse_config
from rqtraj.errors import BranchResolutionError
from tests.conftest import oscillatory_wavenumber, s0_at


def test_s0_is_linear_for_classical_params(electron2, const_basis):
    """a=1, b=0 on the sin/cos basis: S0 = hbar k x across branch crossings."""
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(1.0, 0.0), electron2)
    k = oscillatory_wavenumber(electron2)
    expected = electron2.hbar * k * const_basis.grid
    assert ra.s0_grid[0] == 0.0
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
    assert ra.momentum_grid[0] == pytest.approx(2.0 * electron2.hbar_c * k, rel=1e-12)


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
    with pytest.raises(BranchResolutionError,
                       match=r"^phase step of -?\d\.\d+ rad between x = \d+\.\d+ and "
                             r"\d+\.\d+ fm approaches pi"):
        rq.ReducedAction(basis, rq.HiddenParams(0.02, 40.0), electron2)


def test_s0_increment_between_nodes_is_pi_hbar(electron2, const_basis):
    """S0 advances by exactly pi hbar across one node interval."""
    k = oscillatory_wavenumber(electron2)
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(4 / 3, -1.05), electron2)
    x_a, x_b = np.pi / (2 * k), 3 * np.pi / (2 * k)  # adjacent phi2 zeros
    assert s0_at(ra, x_b) - s0_at(ra, x_a) == pytest.approx(np.pi * electron2.hbar, rel=1e-9)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def momentum_derivatives_stored(ra, u_nodes, rows=slice(None)):
    """``ReducedAction.momentum_derivatives`` as it was when the action kept
    psi, psi' and D grid-long: each factor on the whole grid, then the rows.
    Kept as the oracle of the per-block rebuild."""
    a, b = ra.params.a, ra.params.b
    basis = ra.basis
    psi_all = a * basis.phi1 + b * basis.phi2
    dpsi_all = a * basis.dphi1 + b * basis.dphi2
    denom_all = basis.phi2**2 + psi_all**2
    phi2, dphi2 = basis.phi2[rows], basis.dphi2[rows]
    psi, dpsi, denom = psi_all[rows], dpsi_all[rows], denom_all[rows]
    dd = 2.0 * (phi2 * dphi2 + psi * dpsi)
    ddd = 2.0 * (dphi2**2 + u_nodes * phi2**2 + dpsi**2 + u_nodes * psi**2)
    pc = ra.momentum_grid[rows]
    pcp = -pc * dd / denom
    pcpp = pc * (2.0 * dd**2 / denom**2 - ddd / denom)
    return pc, pcp, pcpp


@pytest.fixture(scope="module")
def fig3_stage():
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "fig3.cfg")
    setup = pipeline.build_setup(cfg)
    pot = pipeline.build_potential(cfg)
    return cfg, setup, pot, pipeline.build_basis(cfg, setup, pot)


def test_momentum_derivatives_per_block_match_the_stored_arrays(fig3_stage):
    """Every fig3 set, on the first block, a middle one, the short last one
    and the whole grid: Pc, Pc' and Pc'' bit for bit."""
    from rqtraj.analysis import STENCIL_BLOCK
    from rqtraj.kleingordon import wavenumber_sq

    cfg, setup, pot, basis = fig3_stage
    n = basis.grid.size
    last = (n - 1) // STENCIL_BLOCK * STENCIL_BLOCK
    for a, b in cfg.param_sets:
        ra = rq.ReducedAction(basis, rq.HiddenParams(a, b), setup)
        for rows in (slice(0, STENCIL_BLOCK), slice(3 * STENCIL_BLOCK, 4 * STENCIL_BLOCK),
                     slice(last, last + STENCIL_BLOCK), slice(None)):
            u = -wavenumber_sq(setup, pot, basis.grid[rows])
            got = ra.momentum_derivatives(u, rows)
            for g, r in zip(got, momentum_derivatives_stored(ra, u, rows)):
                assert np.array_equal(_bits(g), _bits(r)), (a, b, rows)


def reduced_action_arrays(basis, hp, setup):
    """S0, P, the branch counter and the unwrapped S0 in fresh arrays, kept
    as the oracle of the in-place construction.  S0 is the running sum of
    each step's two-vector atan2 from the arctan branch value at the grid
    origin; P and the branch counter are built as they were from the
    ``np.unwrap`` of the absolute angle, whose S0 comes last."""
    a, b = hp.a, hp.b
    phi2 = basis.phi2
    psi = a * basis.phi1 + b * phi2
    denom = phi2**2 + psi**2
    with np.errstate(divide="ignore"):
        branch0 = np.arctan(psi / phi2)
    steps = np.arctan2(psi[1:] * phi2[:-1] - psi[:-1] * phi2[1:],
                       phi2[:-1] * phi2[1:] + psi[:-1] * psi[1:])
    theta = np.cumsum(np.concatenate(([branch0[0]], steps)))
    unwrapped = np.unwrap(np.arctan2(psi, phi2))
    unwrapped = unwrapped - unwrapped[0] + branch0[0]
    return (setup.hbar * theta, setup.hbar_c * a * basis.wronskian / denom,
            np.rint((unwrapped - branch0) / np.pi).astype(int), setup.hbar * unwrapped)


def test_reduced_action_is_bit_equal_to_fresh_arrays(fig3_stage, electron2, const_basis):
    """S0 bit for bit against the running sum of the steps, and within 1e-11
    rad of the unwrapped phase; P and the branch counter bit for bit against
    the unwrap oracle, so the emitted branch column is the unwrap's."""
    cfg, setup, _, basis = fig3_stage
    cases = [(basis, setup, (a, b)) for a, b in cfg.param_sets]
    cases += [(const_basis, electron2, ab) for ab in ((1.0, 0.0), (4 / 3, -1.05), (0.25, 8.0))]
    for bs, su, ab in cases:
        ra = rq.ReducedAction(bs, rq.HiddenParams(*ab), su)
        *oracle, s0_unwrapped = reduced_action_arrays(bs, rq.HiddenParams(*ab), su)
        got = (ra.s0_grid, ra.momentum_grid, ra.branch_grid)
        for g, r in zip(got, oracle):
            assert g.dtype == r.dtype and np.array_equal(g.view(np.int64), r.view(np.int64)), ab
        assert np.max(np.abs(ra.s0_grid - s0_unwrapped)) <= 1e-11 * su.hbar, ab


def test_reduced_action_owns_three_grid_long_arrays(fig3_stage):
    """S0, P and the branch counter, each its own buffer; nothing else of
    the grid's length, and nothing more is left allocated."""
    import tracemalloc

    cfg, setup, _, basis = fig3_stage
    n = basis.grid.size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ra = rq.ReducedAction(basis, rq.HiddenParams(*cfg.param_sets[0]), setup)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    grid_long = {k for k, v in vars(ra).items() if isinstance(v, np.ndarray) and v.size == n}
    assert grid_long == {"s0_grid", "momentum_grid", "branch_grid"}
    assert all(getattr(ra, k).flags.owndata for k in grid_long)
    assert 3 * 8 * n <= kept < 3 * 8 * n + 2**16, kept
