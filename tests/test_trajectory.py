import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtraj as rq
from rqtraj.errors import BasisGapError, RegimeError, TooFewSamples, TurningPointSingular
from tests.conftest import oscillatory_wavenumber


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
    back = electron2.with_direction(-1)
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
                                     0.0, (0.0, 1e-21))


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
    tr = rq.trace_constant_evanescent(evanescent03, 0.0, hp, 0.0, (0.0, 2.5e-21), 1001)
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
    events, _ = rq.evanescent_divergence_times(evanescent03, 0.0, hp)
    kinds = [k for _, k in events[:1]]
    assert kinds == ["log_zero"]


def test_quadrature_matches_closed_form(electron2, const_pot):
    """Shift-free t(x) comparison against the closed form at 1e-6."""
    k = oscillatory_wavenumber(electron2)
    hp = rq.HiddenParams(2.0, 0.5)
    h = 0.005 / k
    grid = np.arange(int(round(2.6 * np.pi / k / h))) * h  # > 5 node intervals
    basis = rq.solve_constant(electron2, 0.0, grid)
    tq = rq.trace_quadrature(electron2, const_pot, basis, hp, 0.0,
                             (grid[0], grid[-1]), sync="psi_zero")

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
    hp = rq.HiddenParams(4 / 3, -1.05)
    tq = rq.trace_quadrature(electron2, const_pot, const_basis, hp, 100.0,
                             (0.0, float(const_basis.grid[-1])))
    kin = rq.kinetic_term(electron2, const_pot, tq.x)
    v_def = electron2.c_fm_s * kin / tq.momentum
    # centered-difference velocity agrees with the definition used to emit t
    # (this fixture samples at 1/(100 k); resolution-limited, not a closure bound)
    xd = tq.velocity_centered()
    assert np.max(np.abs(xd / v_def[1:-1] - 1.0)) < 5e-4
    # and the algebraic identity v = kin/P holds to rounding on the stored data
    ra = rq.ReducedAction(const_basis, hp, electron2)
    sel = np.isin(const_basis.grid, tq.x)
    assert np.allclose(ra.momentum_grid[sel], tq.momentum, rtol=1e-10)


def test_quadrature_turning_point_truncation(electron2):
    pot = rq.LinearPotential(1e-3)
    h = 0.1
    grid = np.arange(-200.0, 1600.0 + h / 2, h)  # crosses the turning point at 1489
    k0 = oscillatory_wavenumber(electron2, u0=float(pot.v(np.array([-200.0]))[0]))
    basis = rq.solve_numeric(electron2, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))
    tr = rq.trace_quadrature(electron2, pot, basis, rq.HiddenParams(2.0, 0.5),
                             0.0, (-200.0, 1600.0))
    assert tr.meta["events"]["halt"] == "TurningPointInRange"
    assert tr.x[-1] < 1489.0


def test_quadrature_range_guards(electron2, const_pot, const_basis):
    hp = rq.HiddenParams(1.0, 0.0)
    hi = float(const_basis.grid[-1])
    with pytest.raises(BasisGapError):
        rq.trace_quadrature(electron2, const_pot, const_basis, hp, 0.0, (0.0, hi + 100.0))
    with pytest.raises(BasisGapError):
        rq.trace_quadrature(electron2, const_pot, const_basis, hp, -50.0, (0.0, hi))


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


def test_trajectory_csv(tmp_path, electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                       0.0, (0.0, dt), 101)
    path = tmp_path / "traj.csv"
    tr.to_csv(path, header=["config_hash: 123"], footer=["note: test"])
    from rqtraj.output import read_csv

    meta, cols = read_csv(path)
    assert meta["config_hash"] == "123"
    assert meta["note"] == "test"
    assert list(cols) == ["t_s", "x_fm", "branch_n", "regime", "P_MeV_per_c"]
    assert cols["regime"][0] == "oscillatory"


def _trace_at(t):
    zeros = np.zeros(t.size)
    return rq.Trajectory(t=t, x=zeros, branch=zeros.astype(int),
                         regime=np.full(t.size, "oscillatory"), momentum=zeros)


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
