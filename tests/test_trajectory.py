import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtraj as rq
from rqtraj.errors import (
    BasisGapError,
    EnergyEqualsPotential,
    RegimeError,
    RqtError,
    TooFewSamples,
    TurningPointInRange,
    TurningPointSingular,
)
from rqtraj import trajectory
from rqtraj.config import parse_config
from rqtraj.kleingordon import uniform_step
from rqtraj.model import regime_tags
from rqtraj.pipeline import _stage
from tests.conftest import oscillatory_wavenumber

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_cumulative_simpson_fourth_order():
    exact = lambda x: 1.0 - np.cos(x)
    errs = []
    for n in (201, 401):
        x = np.linspace(0.0, 3.0, n)
        t = rq.cumulative_simpson(np.sin(x), x[1] - x[0])
        errs.append(np.max(np.abs(t - exact(x))))
    assert errs[0] / errs[1] > 12  # fourth order: ~16x per halving


def test_cumulative_simpson_small_inputs():
    assert np.allclose(rq.cumulative_simpson(np.array([1.0]), 0.1), [0.0])
    two = rq.cumulative_simpson(np.array([1.0, 3.0]), 0.5)
    assert two == pytest.approx([0.0, 1.0])  # trapezoid fallback


def cumulative_simpson_gather(f, h):
    """The index-array form of ``cumulative_simpson`` kept as its oracle."""
    n = f.size
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * h * (f[0] + f[1])
        return out
    npairs = (n - 1) // 2
    i = 2 * np.arange(npairs)
    pair_inc = h / 3.0 * (f[i] + 4.0 * f[i + 1] + f[i + 2])
    even_vals = np.concatenate(([0.0], np.cumsum(pair_inc)))
    out[2 * np.arange(npairs + 1)] = even_vals
    j = 2 * np.arange(npairs)
    out[j + 1] = out[j] + h / 12.0 * (5.0 * f[j] + 8.0 * f[j + 1] - f[j + 2])
    if n % 2 == 0:
        out[n - 1] = out[n - 2] + h / 12.0 * (
            -f[n - 3] + 8.0 * f[n - 2] + 5.0 * f[n - 1]
        )
    return out


def cumulative_simpson_fresh(f, h):
    """``cumulative_simpson`` as it was before it built the table in place:
    each step into a new array.  Kept as the oracle of the in-place table."""
    n = f.size
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * h * (f[0] + f[1])
        return out
    npairs = (n - 1) // 2
    f0 = f[0 : 2 * npairs : 2]
    f1 = f[1 : 2 * npairs : 2]
    f2 = f[2 : 2 * npairs + 1 : 2]
    pair_inc = h / 3.0 * (f0 + 4.0 * f1 + f2)
    out[0 : 2 * npairs + 1 : 2] = np.concatenate(([0.0], np.cumsum(pair_inc)))
    out[1 : 2 * npairs : 2] = out[0 : 2 * npairs : 2] + h / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    if n % 2 == 0:
        out[n - 1] = out[n - 2] + h / 12.0 * (
            -f[n - 3] + 8.0 * f[n - 2] + 5.0 * f[n - 1]
        )
    return out


@pytest.mark.parametrize("n", [*range(0, 10), 100_001, 100_002])
def test_cumulative_simpson_matches_gather_oracle(n):
    f = np.random.default_rng(n).normal(size=n) * 1e-21
    kept = f.copy()
    got = rq.cumulative_simpson(f, 0.05)
    assert np.array_equal(got.view(np.int64), cumulative_simpson_gather(f, 0.05).view(np.int64))
    assert np.array_equal(got.view(np.int64), cumulative_simpson_fresh(f, 0.05).view(np.int64))
    assert np.array_equal(f.view(np.int64), kept.view(np.int64))       # input untouched


def zeros_of_sign_product(x, y):
    """``_zeros_of`` as it was, from the product of np.sign; kept as its oracle."""
    s = np.sign(y)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    return x[idx] - y[idx] * (x[idx + 1] - x[idx]) / (y[idx + 1] - y[idx])


@pytest.mark.parametrize("y", [
    np.array([-1.0, 2.0, -3.0, 4.0]),                  # a sign change at every step
    np.array([1.0, 0.0, -1.0, -0.0, 1.0]),             # exact zeros are no sign change
    np.array([-0.0, 1.0, -0.0, -1.0, 0.0]),            # nor are signed zeros
    np.array([1.0, np.nan, -1.0, np.nan, 1.0, -1.0]),  # nor a NaN end
    np.array([3.0]),
    np.array([]),
])
def test_zeros_of_matches_the_sign_product(y):
    x = np.arange(y.size, dtype=float) * 0.5 - 1.0
    got = trajectory._zeros_of(x, y)
    ref = zeros_of_sign_product(x, y)
    assert np.array_equal(got, ref, equal_nan=True)


def test_zeros_of_matches_the_sign_product_on_fig3():
    cfg = parse_config(CONFIGS / "fig3.cfg")
    _, _, basis = _stage(cfg)
    got = trajectory._zeros_of(basis.grid, basis.phi2)
    assert got.size == 43
    assert np.array_equal(got.view(np.int64),
                          zeros_of_sign_product(basis.grid, basis.phi2).view(np.int64))


def test_regime_tags_of_a_scalar_a_0d_array_and_nan():
    """constant_regime passes a scalar; the tags are then a 0-d array."""
    s = rq.PhysicalSetup(E=2.0, m0c2=0.511)
    for ev, regime in ((1.5, rq.Regime.OSCILLATORY), (0.3, rq.Regime.EVANESCENT),
                       (0.511, rq.Regime.TURNING_POINT), (float("nan"), rq.Regime.TURNING_POINT)):
        for value in (ev, np.float64(ev), np.array(ev)):
            tags = regime_tags(s, value)
            assert tags.shape == () and tags.dtype == np.uint8
            assert rq.model.REGIMES[int(tags)] is regime, (value, regime)
    ev = np.array([1.5, np.nan, 0.3, -1.5])
    kept = ev.copy()
    assert regime_tags(s, ev).tolist() == [0, 2, 1, 0]
    assert np.array_equal(ev, kept, equal_nan=True)                   # input untouched


def test_classical_params_give_straight_line(electron2):
    """a = 1, b = 0 collapses to x = v_cl t + x0 with v_cl = c sqrt(disc)/(E-U0)."""
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(1.0, 0.0),
                                       10.0, (0.0, 5 * dt), 4001)
    v_cl = rq.classical_velocity(electron2, rq.ConstantPotential(0.0), 0.0) * rq.FM_PER_M
    assert np.max(np.abs(tr.x - (10.0 + v_cl * tr.t))) / np.max(np.abs(tr.x)) < 1e-9
    assert tr.x[0] == pytest.approx(10.0)  # x(0) honors x0 when b = 0


def test_all_curves_pass_common_nodes(electron2):
    dt = rq.node_period(electron2, 0.0)
    dx = rq.node_spacing(electron2, 0.0)
    t_nodes = (np.arange(4) + 0.5) * dt
    for a, b in ((1.0, 0.0), (0.2, 0.0), (4 / 3, -1.05), (0.25, 8.0)):
        tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(a, b),
                                           0.0, (0.0, 5 * dt), 40001)
        x_at_nodes = np.interp(t_nodes, tr.t, tr.x)
        expected = (np.arange(4) + 0.5) * dx
        assert np.max(np.abs(x_at_nodes - expected)) < 1e-3 * dx, (a, b)


def test_trace_monotone_and_branch(electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.25, 8.0),
                                       0.0, (0.0, 3 * dt), 30001)
    # monotone up to float resolution (dwell steps can round to zero increment)
    assert np.all(np.diff(tr.x) >= 0)
    assert tr.x[-1] > tr.x[0]
    assert np.all(np.diff(tr.t) > 0)
    assert set(np.diff(tr.branch)) <= {0, 1}


def test_direction_reversal(electron2):
    dt = rq.node_period(electron2, 0.0)
    back = dataclasses.replace(electron2, direction=-1)
    tr = rq.trace_constant_oscillatory(back, 0.0, rq.HiddenParams(0.2, 0.0),
                                       0.0, (0.0, 2 * dt), 2001)
    assert np.all(np.diff(tr.x) < 0)
    fwd = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                        0.0, (0.0, 2 * dt), 2001)
    assert np.allclose(tr.x, -fwd.x, atol=1e-9)


def test_closure_on_closed_forms(electron2):
    """Law-of-motion closure with centered-difference xdot, all parameter sets."""
    dt = rq.node_period(electron2, 0.0)
    for (a, b), n in (
        ((1.0, 0.0), 2001),
        ((0.2, 0.0), 20001),
        ((4 / 3, -1.05), 20001),
        ((0.25, 8.0), 400001),
    ):
        tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(a, b),
                                           0.0, (0.0, 5 * dt), n)
        assert rq.closure_residual(tr).max_residual <= 1e-4, (a, b)


def test_oscillatory_regime_guards(electron2, evanescent03):
    with pytest.raises(RegimeError):
        rq.trace_constant_oscillatory(evanescent03, 0.0, rq.HiddenParams(1.0, 0.0),
                                      0.0, (0.0, 1e-21))
    with pytest.raises(TurningPointSingular):
        rq.trace_constant_oscillatory(rq.PhysicalSetup(E=0.511, m0c2=0.511), 0.0,
                                      rq.HiddenParams(1.0, 0.0), 0.0, (0.0, 1e-21))
    with pytest.raises(RegimeError):
        rq.trace_constant_evanescent(electron2, 0.0, rq.HiddenParams(1.0, 0.0),
                                     0.0, (0.0, 1e-21), window_fm=2e4)
    # E = U0 is typed, not a division by E - U0
    with pytest.raises(EnergyEqualsPotential):
        rq.trace_constant_evanescent(evanescent03, evanescent03.E, rq.HiddenParams(1.0, 0.0),
                                     0.0, (0.0, 1e-21), window_fm=2e4)


def test_hbar_scaling_self_similarity(electron2):
    """Scaled hbar: x_eps(t) = eps * x_1(t/eps) for the same (a, b) family."""
    dt = rq.node_period(electron2, 0.0)
    hp = rq.HiddenParams(0.2, 0.0)
    tr1 = rq.trace_constant_oscillatory(electron2, 0.0, hp, 0.0, (0.0, 2 * dt), 2001)
    half = electron2.scaled_hbar(0.5)
    tr2 = rq.trace_constant_oscillatory(half, 0.0, hp, 0.0, (0.0, dt), 2001)
    x_ref = 0.5 * np.interp(tr2.t / 0.5, tr1.t, tr1.x)
    assert np.max(np.abs(tr2.x - x_ref)) < 1e-9 * np.max(np.abs(tr2.x))
    assert rq.node_period(half, 0.0) == pytest.approx(0.5 * dt, rel=1e-12)
    assert rq.node_spacing(half, 0.0) == pytest.approx(
        0.5 * rq.node_spacing(electron2, 0.0), rel=1e-12
    )


def test_evanescent_start_position(evanescent03):
    hp = rq.HiddenParams(0.25, 8.0)
    tr = rq.trace_constant_evanescent(evanescent03, 0.0, hp, 5.0, (0.0, 1e-21),
                                      101, window_fm=1e9)
    scale = evanescent03.hbar_c / (2 * np.sqrt(0.511**2 - 0.3**2))
    assert tr.x[0] == pytest.approx(scale * np.log(8.0 / 0.25) + 5.0, rel=1e-12)


def test_evanescent_divergence_bisection_oracle(evanescent03):
    """Reported divergence equals the bisection root of the tangent argument."""
    hp = rq.HiddenParams(0.25, 8.0)
    tr = rq.trace_constant_evanescent(evanescent03, 0.0, hp, 0.0, (0.0, 2.5e-21), 1001,
                                      window_fm=2e4)
    t_star = tr.meta["events"]["divergence_time_s"]

    m_gap = 0.511**2 - 0.3**2
    omega_e = m_gap / (evanescent03.hbar * 0.3)
    lo, hi = 1e-23, 2.4e-21
    f = lambda t: np.cos(omega_e * t)  # tangent diverges at cos = 0
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(t_star - 0.5 * (lo + hi)) / t_star < 1e-9
    # the in-text prose expression differs by a factor 2: logged, not asserted
    assert tr.meta["events"]["prose_divergence_time_s"] == pytest.approx(t_star / 2)


def test_evanescent_window_halt(evanescent03):
    hp = rq.HiddenParams(0.25, 8.0)
    tr = rq.trace_constant_evanescent(evanescent03, 0.0, hp, 0.0, (0.0, 2.5e-21),
                                      4001, window_fm=2000.0)
    assert tr.meta["events"]["halt"] == "DivergenceReached"
    assert tr.t.size < 4001
    assert np.max(np.abs(tr.x - 0.0)) <= 2000.0 * (1 + 1e-12)


def test_evanescent_log_zero_divergence(evanescent03):
    """Negative b puts the log-argument zero before the tangent pole."""
    hp = rq.HiddenParams(0.25, -2.0)
    (_, kind), _ = rq.evanescent_divergence_times(evanescent03, 0.0, hp)
    assert kind == "log_zero"


@pytest.mark.parametrize("u0", [0.0, 0.6], ids=["E-U0=+0.3", "E-U0=-0.3"])
@pytest.mark.parametrize("direction", [+1, -1])
def test_evanescent_divergence_is_the_first_sign_change(evanescent03, u0, direction):
    """The trace's divergence is the first zero after t = 0 of cos(theta)
    (tangent pole) or of sin(theta) + b cos(theta) (log-argument zero), on
    the phase theta = sigma omega_e t the trace runs on."""
    setup = dataclasses.replace(evanescent03, direction=direction)
    hp = rq.HiddenParams(0.25, 8.0)
    events = rq.trace_constant_evanescent(setup, u0, hp, 0.0, (0.0, 4e-21), 101,
                                          window_fm=2e4).meta["events"]
    ev = setup.E - u0
    t = np.linspace(0.0, 4e-21, 2_000_001)
    theta = direction * (setup.m0c2**2 - ev**2) / (setup.hbar * ev) * t
    first = {}
    for kind, f in (("tan_singularity", np.cos(theta)),
                    ("log_zero", np.sin(theta) + hp.b * np.cos(theta))):
        first[kind] = t[np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0] + 1]
    kind = min(first, key=first.get)
    assert events["divergence_kind"] == kind
    assert abs(events["divergence_time_s"] - first[kind]) <= t[1]


def test_quadrature_matches_closed_form(electron2, const_pot):
    """Shift-free t(x) comparison against the closed form at 1e-6."""
    k = oscillatory_wavenumber(electron2)
    hp = rq.HiddenParams(2.0, 0.5)
    h = 0.005 / k
    grid = np.arange(int(round(2.6 * np.pi / k / h))) * h  # > 5 node intervals
    basis = rq.solve_constant(electron2, 0.0, grid)
    tq = rq.trace_quadrature(rq.ReducedAction(basis, hp, electron2), const_pot, 0.0,
                             "psi_zero")

    disc = 4.0 - 0.511**2
    omega = disc / (electron2.hbar * 2.0)
    phase = k * tq.x
    m = np.floor(phase / np.pi + 0.5)
    t_exact = (np.arctan(hp.a * np.tan(phase - m * np.pi) + hp.b) + np.pi * m) / omega
    dt_q = tq.t - tq.t[0]
    dt_e = t_exact - t_exact[0]
    scale = np.maximum(np.abs(dt_e), 1e-3 * rq.node_period(electron2, 0.0))
    assert np.max(np.abs(dt_q - dt_e) / scale) < 1e-6
    assert rq.closure_residual(tq).max_residual < 1e-4


def test_quadrature_velocity_identity(electron2, const_pot, const_basis):
    """Emitted v equals kinetic term over momentum pointwise."""
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(4 / 3, -1.05), electron2)
    tq = rq.trace_quadrature(ra, const_pot, 100.0, "exact")
    kin = rq.kinetic_term(electron2, const_pot, tq.x)
    v_def = electron2.c_fm_s * kin / tq.momentum
    # centered-difference velocity agrees with the definition used to emit t
    # (this fixture samples at 1/(100 k); resolution-limited, not a closure bound)
    xd = tq.velocity_centered()
    assert np.max(np.abs(xd / v_def[1:-1] - 1.0)) < 5e-4
    # and the algebraic identity v = kin/P holds to rounding on the stored data
    sel = np.isin(const_basis.grid, tq.x)
    assert np.allclose(ra.momentum_grid[sel], tq.momentum, rtol=1e-10)


def test_quadrature_turning_point_truncation(electron2):
    pot = rq.LinearPotential(1e-3)
    h = 0.1
    grid = np.arange(-200.0, 1600.0 + h / 2, h)  # crosses the turning point at 1489
    k0 = oscillatory_wavenumber(electron2, u0=float(pot.v(np.array([-200.0]))[0]))
    basis = rq.solve_numeric(electron2, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))
    ra = rq.ReducedAction(basis, rq.HiddenParams(2.0, 0.5), electron2)
    tr = rq.trace_quadrature(ra, pot, 0.0, "exact")
    assert tr.meta["events"]["halt"] == "TurningPointInRange"
    assert tr.x[-1] < 1489.0


def test_quadrature_descending_trace_comes_out_ascending(electron2):
    """direction -1 makes t(x) decrease along the grid; the samples come out
    reversed, t ascending, and mirror the direction +1 trace exactly."""
    pot = rq.LinearPotential(1e-3)
    grid = np.arange(-200.0, 400.0 + 0.025, 0.05)
    k0 = oscillatory_wavenumber(electron2, u0=float(pot.v(np.array([-200.0]))[0]))
    basis = rq.solve_numeric(electron2, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))
    hp = rq.HiddenParams(4.0, 2.5)
    up, down = (
        rq.trace_quadrature(
            rq.ReducedAction(basis, hp, dataclasses.replace(electron2, direction=sign)),
            pot, 0.0, "exact")
        for sign in (+1, -1)
    )
    assert np.all(np.diff(down.t) > 0) and np.all(np.diff(down.x) < 0)
    assert np.array_equal(down.t, -up.t[::-1])
    assert np.array_equal(down.x, up.x[::-1])
    assert np.array_equal(down.momentum, up.momentum[::-1])
    assert np.array_equal(down.branch, up.branch[::-1])
    assert down.regime.tolist() == up.regime[::-1].tolist()


@pytest.fixture
def fig3_past_turning():
    """fig3's particle and V = 1e-3 x on the grid -500 + 0.05 k fm up to 2400 fm:
    turning point at 1489.001 fm, between grid points; E = V at 2000 fm."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=0.510999)
    pot = rq.LinearPotential(1e-3)
    grid = -500.0 + 0.05 * np.arange(58001)
    k0 = oscillatory_wavenumber(setup, u0=float(pot.v(grid[:1])[0]))
    return setup, pot, rq.solve_numeric(setup, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))


def basis_on(basis, lo, hi):
    """``basis`` on its grid points from lo to hi (both grid points)."""
    rows = slice(basis.index_of(lo), basis.index_of(hi) + 1)
    return rq.SolutionBasis(basis.grid[rows], basis.phi1[rows], basis.dphi1[rows],
                            basis.phi2[rows], basis.dphi2[rows])


def assert_regime_tags(setup, pot, tr, tags):
    """uint8 codes that decode to the nested np.where of the regime rule."""
    ev = setup.E - pot.v(tr.x)
    disc = ev * ev - setup.rest_sq
    tol = rq.model.REGIME_REL_TOL * setup.rest_sq
    expected = np.where(disc > tol, "oscillatory",
                        np.where(disc < -tol, "evanescent", "turning"))
    names = rq.model.REGIME_TEXT[tr.regime]
    assert tr.regime.dtype == np.uint8
    assert names.tolist() == expected.tolist()
    assert set(names.tolist()) == tags


@pytest.mark.parametrize("x_range, tags", [
    ((-500.0, 1400.0), {"oscillatory"}),
    ((1600.0, 1900.0), {"evanescent"}),
])
def test_quadrature_regime_tags_keep_dtype_and_values(fig3_past_turning, x_range, tags):
    setup, pot, basis = fig3_past_turning
    ra = rq.ReducedAction(basis_on(basis, *x_range), rq.HiddenParams(2.0, 0.5), setup)
    tr = rq.trace_quadrature(ra, pot, x_range[0] + 100.0, "exact")
    assert_regime_tags(setup, pot, tr, tags)


def test_quadrature_unresolved_turning_point_halts(fig3_past_turning):
    """No grid point falls in the slow zone around the turning point at
    1489.001 fm, so 1/v changes sign between two grid points: the trace
    ends before the first step whose dt turns, with a halt event, and t and
    x stay strictly monotone (no sort, no jump in x)."""
    setup, pot, basis = fig3_past_turning
    ra = rq.ReducedAction(basis_on(basis, -500.0, 1900.0), rq.HiddenParams(2.0, 0.5), setup)
    tr = rq.trace_quadrature(ra, pot, 0.0, "exact")
    assert tr.meta["events"] == {"halt": TurningPointInRange.__name__}
    assert np.all(np.diff(tr.t) > 0)
    assert np.all(np.diff(tr.x) > 0)
    assert tr.x[0] == -500.0 and 1488.0 < tr.x[-1] < 1489.001
    assert np.shares_memory(tr.x, basis.grid)           # a view, not a sorted copy


@settings(max_examples=60, deadline=None)
@given(
    slope=st.floats(2e-4, 3e-3).flatmap(lambda g: st.sampled_from([g, -g])),
    a=st.floats(0.1, 10.0).flatmap(lambda a: st.sampled_from([a, -a])),
    b=st.floats(-10.0, 10.0),
    start=st.floats(-1.2, 0.3),
    length=st.floats(20.0, 2500.0),
    step=st.sampled_from([0.05, 0.1, 0.25]),
    x0_frac=st.floats(0.0, 1.0),
    direction=st.sampled_from([+1, -1]),
    sync=st.sampled_from(["exact", "psi_zero", "phi2_zero"]),
)
def test_quadrature_trace_property(slope, a, b, start, length, step, x0_frac,
                                   direction, sync):
    """Linear potentials on grids before, across and past the turning point
    x_t = (E - m0c2) / g: a returned trace has strictly increasing t,
    strictly monotone x and no NaN, and carries a halt event exactly when
    its grid was cut; anything else is a typed RqtError."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=0.510999, direction=direction)
    pot = rq.LinearPotential(slope)
    x_turn = (setup.E - setup.m0c2) / slope
    lo = x_turn + start * abs(x_turn)
    grid = lo + step * np.arange(int(min(length, 40000 * step) / step) + 1)
    x0 = float(grid[0]) + x0_frac * float(grid[-1] - grid[0])
    try:
        basis = rq.solve_numeric(setup, pot, grid)
        ra = rq.ReducedAction(basis, rq.HiddenParams(a, b), setup)
        tr = rq.trace_quadrature(ra, pot, x0, sync)
    except RqtError:
        return
    assert np.all(np.diff(tr.t) > 0)
    dx = np.diff(tr.x)
    assert np.all(dx > 0) or np.all(dx < 0)
    for column in (tr.t, tr.x, tr.momentum):
        assert not np.isnan(column).any()
    assert ("halt" in tr.meta["events"]) == (tr.t.size < grid.size)


def test_quadrature_energy_equals_potential_is_an_error(electron2):
    """E - V changes sign at x = 2000 fm inside the grid: 1/v flips sign."""
    pot = rq.LinearPotential(1e-3)
    grid = np.arange(1600.0, 2400.0 + 0.025, 0.05)
    basis = rq.solve_numeric(electron2, pot, grid, init1=(0.0, 1.0), init2=(1.0, 0.0))
    ra = rq.ReducedAction(basis, rq.HiddenParams(4.0, 2.5), electron2)
    with pytest.raises(EnergyEqualsPotential, match="vanishes or changes sign"):
        rq.trace_quadrature(ra, pot, 1700.0, "exact")
    # a grid that stops short of E = V traces as before
    short = rq.ReducedAction(basis_on(basis, 1600.0, 1900.0), ra.params, electron2)
    tr = rq.trace_quadrature(short, pot, 1700.0, "exact")
    assert np.all(np.diff(tr.t) > 0)
    assert set(rq.model.REGIME_TEXT[tr.regime].tolist()) == {"evanescent"}


@pytest.mark.parametrize("m0c2", [0.510999, 0.511])
def test_quadrature_past_energy_equals_potential_halts_at_the_turning_point(m0c2):
    """fig3's potential on -500 + 0.05 k fm up to 2400 fm, E = V at 2000 fm.
    With m0c2 = 0.511 MeV the turning point 1489 fm is a grid point (the
    slow-zone cut ends the trace), with 0.510999 MeV it lies between grid
    points (the dt cut ends it): either way the trace halts there, and E = V
    beyond the cut is no error.  A grid that starts past the turning point
    still meets E = V and raises."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=m0c2)
    pot = rq.LinearPotential(1e-3)
    grid = -500.0 + 0.05 * np.arange(58001)
    k0 = oscillatory_wavenumber(setup, u0=float(pot.v(grid[:1])[0]))
    basis = rq.solve_numeric(setup, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))
    ra = rq.ReducedAction(basis, rq.HiddenParams(2.0, 0.5), setup)
    x_turn = (setup.E - m0c2) / 1e-3
    tr = rq.trace_quadrature(ra, pot, 0.0, "exact")
    assert tr.meta["events"] == {"halt": TurningPointInRange.__name__}
    assert np.all(np.diff(tr.t) > 0) and np.all(np.diff(tr.x) > 0)
    assert x_turn - 0.15 < tr.x[-1] < x_turn
    past = rq.ReducedAction(basis_on(basis, 1600.0, 2400.0), ra.params, setup)
    with pytest.raises(EnergyEqualsPotential, match=r"inside \[1600.0, 2000.05"):
        rq.trace_quadrature(past, pot, 1700.0, "exact")


def test_quadrature_takes_only_its_own_action(const_pot, const_basis):
    """Setup, direction, basis and (a, b) all come from the action: the
    trace's samples are views of its grid and its arrays."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=0.511, direction=-1)
    hp = rq.HiddenParams(4 / 3, -1.05)
    ra = rq.ReducedAction(const_basis, hp, setup)
    tr = rq.trace_quadrature(ra, const_pot, 100.0, "exact")
    assert tr.setup is setup and tr.meta["params"] is hp
    assert np.all(np.diff(tr.x) < 0)                     # direction -1: x runs down
    for got, own in ((tr.x, const_basis.grid), (tr.momentum, ra.momentum_grid),
                     (tr.branch, ra.branch_grid)):
        assert np.shares_memory(got, own)


def test_quadrature_range_guards(electron2, const_pot, const_basis):
    """An x0 outside the basis grid, and a grid of fewer than 3 points,
    are BasisGapError."""
    ra = rq.ReducedAction(const_basis, rq.HiddenParams(1.0, 0.0), electron2)
    for x0 in (-50.0, float(const_basis.grid[-1]) + 100.0):
        with pytest.raises(BasisGapError, match="x0 outside"):
            rq.trace_quadrature(ra, const_pot, x0, "exact")
    two = rq.ReducedAction(basis_on(const_basis, *const_basis.grid[:2]), ra.params, electron2)
    with pytest.raises(BasisGapError, match="fewer than 3"):
        rq.trace_quadrature(two, const_pot, 0.0, "exact")


def test_classical_trace_constant_line(electron2, const_pot):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.classical_trace(electron2, const_pot, 0.0, t_range=(0.0, 3 * dt))
    v = rq.classical_velocity(electron2, const_pot, 0.0) * rq.FM_PER_M
    assert np.max(np.abs(tr.x - v * tr.t)) <= 1e-9 * np.max(np.abs(tr.x))


def test_classical_trace_linear_arc(electron2):
    pot = rq.LinearPotential(1e-3)
    x_turn = (2.0 - 0.511) / 1e-3
    tr = rq.classical_trace(electron2, pot, 0.0, x_range=(0.0, x_turn))
    assert tr.x[-1] == pytest.approx(x_turn, rel=1e-9)
    # velocity approaches zero at the turning point
    v_end = (tr.x[-1] - tr.x[-2]) / (tr.t[-1] - tr.t[-2])
    assert abs(v_end) < 0.05 * electron2.c_fm_s
    # and the trace is hbar-independent
    tr2 = rq.classical_trace(electron2.scaled_hbar(0.25), pot, 0.0, x_range=(0.0, x_turn))
    assert np.array_equal(tr.t, tr2.t) and np.array_equal(tr.x, tr2.x)


def test_classical_trace_tags_its_turning_point():
    """fig3's particle on V = 1e-3 x: the arc ends at the turning point
    1489.001 fm with P = 0, and that row alone is tagged turning."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=0.510999)
    tr = rq.classical_trace(setup, rq.LinearPotential(1e-3), -500.0,
                            x_range=(-500.0, 2400.0), n_samples=2001)
    assert tr.x[-1] == pytest.approx(1489.001, rel=1e-12) and tr.momentum[-1] == 0.0
    names = rq.model.REGIME_TEXT[tr.regime]
    assert names[-1] == "turning"
    assert set(names[:-1].tolist()) == {"oscillatory"}


@pytest.mark.parametrize("direction", [+1, -1])
def test_classical_trace_zero_slope_is_the_free_line(direction):
    """V = 0 x has no turning point: the free straight line x0 + v t."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=0.511, direction=direction)
    tr = rq.classical_trace(setup, rq.LinearPotential(0.0), -100.0, x_range=(-500.0, 500.0),
                            n_samples=2001)
    v = direction * setup.c_fm_s * np.sqrt(2.0**2 - 0.511**2) / 2.0
    assert tr.t.size == 2001 and np.all(np.diff(tr.t) > 0)
    np.testing.assert_allclose(tr.x, -100.0 + v * tr.t, rtol=0, atol=1e-9)


@pytest.mark.parametrize("direction", [+1, -1])
def test_classical_trace_tabulated_is_monotone_without_a_sort(direction):
    """The tabulated classical curve is a Simpson quadrature of 1/v, whose
    sign is the direction's: the samples come out reversed for -1."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=0.511, direction=direction)
    xt = np.linspace(-1000.0, 1000.0, 401)
    pot = rq.TabulatedPotential(xt, 1e-4 * xt + 0.05 * np.sin(xt / 200.0))
    tr = rq.classical_trace(setup, pot, 100.0, x_range=(-900.0, 900.0), n_samples=2001)
    assert np.all(np.diff(tr.t) > 0)
    assert np.all(direction * np.diff(tr.x) > 0)
    assert tr.x[0] == -900.0 * direction
    assert abs(np.interp(100.0, tr.x[::direction], tr.t[::direction])) < 1e-9 * (tr.t[-1] - tr.t[0])


def test_trajectory_csv(tmp_path, electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                       0.0, (0.0, dt), 101)
    path = tmp_path / "traj.csv"
    tr.meta["events"].update(note="test", t_star=0.1, unset=None)
    tr.to_csv(path, header=["config_hash: 123"])
    from rqtraj.output import read_csv

    meta, cols = read_csv(path)
    assert meta["config_hash"] == "123"
    assert meta["note"] == "test"
    assert meta["t_star"] == "1.0000000000000001e-01" and "unset" not in meta
    assert list(cols) == ["t_s", "x_fm", "branch_n", "regime", "P_MeV_per_c"]
    assert cols["regime"][0] == "oscillatory"


def _trace_at(t):
    zeros = np.zeros(t.size)
    return rq.Trajectory(t=t, x=zeros, branch=zeros.astype(int),
                         regime=np.zeros(t.size, np.uint8), momentum=zeros)


@pytest.mark.parametrize("regime", [
    np.full(3, "oscillatory"),          # names, not codes
    np.zeros(3, np.int64),              # codes of the wrong width
    np.zeros(2, np.uint8),              # one code short
])
def test_trajectory_regime_must_be_one_uint8_code_per_sample(regime):
    t = np.arange(3.0)
    with pytest.raises(TypeError, match="uint8"):
        rq.Trajectory(t=t, x=t, branch=np.zeros(3, int), regime=regime, momentum=t)


_EDGE = st.one_of(st.integers(-5, 3005).map(float), st.floats(-5.0, 3005.0))


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 3000), samples=st.integers(2, 500), edges=st.tuples(_EDGE, _EDGE))
def test_window_rows_rule(n, samples, edges):
    """At most ``samples`` rows, first and last in-window rows kept, one stride."""
    t = np.arange(n, dtype=float)
    t_min, t_max = sorted(edges)
    inside = np.flatnonzero((t >= t_min) & (t <= t_max))
    tr = _trace_at(t)
    if inside.size < 2:
        with pytest.raises(TooFewSamples):
            tr.window_rows(t_min, t_max, samples)
        return
    rows = np.arange(n)[tr.window_rows(t_min, t_max, samples)]
    assert rows.size <= samples
    assert rows[0] == inside[0] and rows[-1] == inside[-1]
    assert np.all(np.diff(t[rows]) > 0)
    steps = np.diff(rows)
    k = -(-(inside.size - 1) // (samples - 1))
    assert np.all(steps[:-1] == k) and 0 < steps[-1] <= k
    if inside.size <= samples:
        assert np.array_equal(rows, inside)      # the identity when the rows fit


def test_window_rows_is_the_identity_for_closed_forms(electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                       0.0, (0.0, 3 * dt), 1001)
    assert tr.window_rows(0.0, 3 * dt, 1001) == slice(0, 1001, 1)    # views, no copies


def trace_quadrature_whole_array(action, pot, x0, sync):
    """The five columns of ``trace_quadrature`` as it computed them before it
    worked in place: each step into a new array.  Kept as the oracle of the
    in-place trace (checks omitted), with the same step h, the grid's mean
    spacing."""
    setup, basis, hp = action.setup, action.basis, action.params
    grid = basis.grid
    h = uniform_step(grid)
    ev = setup.E - np.asarray(pot.v(grid), dtype=float)
    with np.errstate(divide="ignore"):
        kin = ev - setup.rest_sq / ev
    pc = action.momentum_grid
    v = setup.direction * setup.c_fm_s * kin / pc
    slow = np.abs(v) < trajectory.SLOW_ZONE_FRAC * setup.c_fm_s
    cut = int(np.argmax(slow)) if slow.any() else grid.size
    xs, v = grid[:cut], v[:cut]
    regime = regime_tags(setup, ev[:cut])
    tt = trajectory.cumulative_simpson(1.0 / v, h)
    turned = ~(np.diff(tt) * np.sign(tt[1] - tt[0]) > 0)
    cut = int(np.argmax(turned)) + 1 if turned.any() else xs.size
    xs, regime, tt = xs[:cut], regime[:cut], tt[:cut]
    if sync == "psi_zero":
        psi = hp.a * basis.phi1 + hp.b * basis.phi2
        anchor = trajectory._zero_near(basis.grid, psi, x0, "a*phi1 + b*phi2")
        anchor = min(max(anchor, xs[0]), xs[-1])
    elif sync == "phi2_zero":
        anchor = trajectory._zero_near(basis.grid, basis.phi2, x0, "phi2")
        anchor = min(max(anchor, xs[0]), xs[-1])
    else:
        anchor = xs[int(np.argmin(np.abs(xs - x0)))]
    tt = tt - np.interp(anchor, xs, tt)
    rows = slice(xs.size)
    order = slice(None) if tt[-1] > tt[0] else slice(None, None, -1)
    return (tt[order], xs[order], action.branch_grid[rows][order], regime[order],
            action.momentum_grid[rows][order])


def test_quadrature_trace_is_bit_equal_to_the_whole_array_trace():
    """Each fig3 set and each sync mode: all five columns, bit for bit."""
    cfg = parse_config(CONFIGS / "fig3.cfg")
    setup, pot, basis = _stage(cfg)
    for a, b in cfg.param_sets:
        ra = rq.ReducedAction(basis, rq.HiddenParams(a, b), setup)
        for sync in ("exact", "psi_zero", "phi2_zero"):
            tr = rq.trace_quadrature(ra, pot, cfg.x0, sync)
            got = (tr.t, tr.x, tr.branch, tr.regime, tr.momentum)
            for name, g, r in zip(("t", "x", "branch", "regime", "momentum"), got,
                                  trace_quadrature_whole_array(ra, pot, cfg.x0, sync)):
                assert g.dtype == r.dtype and np.array_equal(g, r), (a, b, sync, name)
