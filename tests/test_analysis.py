import copy
import dataclasses
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rqtraj as rq
from rqtraj import build, pipeline, trajectory
from rqtraj.analysis import (
    _STENCIL_WEIGHTS, _firqnl_terms, _gradient_rows, _stencil_blocks,
)
from rqtraj.kleingordon import UNIFORM_REL_TOL, uniform_step, wavenumber_sq
from rqtraj.model import kinetic_term
from rqtraj.config import RunConfig, parse_config
from rqtraj.constants import BLOCK
from rqtraj.errors import InsufficientTrajectories, RegimeError, TooFewSamples
from rqtraj.output import write_json
from tests.conftest import (classical_momentum, classical_speed, oscillatory_wavenumber,
                            s0_at, with_keys)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FIG1_SETS = ((0.2, 0.0), (4 / 3, -1.05), (0.25, 8.0))
FIG3_SETS = ((4.0, 2.5), (8.0, -3.0), (5.0, 2.0))


def fig1_traces(setup, u0=0.0, n=200001, periods=5.0):
    dt = rq.node_period(setup, u0)
    return [
        rq.trace_constant_oscillatory(setup, u0, rq.HiddenParams(a, b), 0.0,
                                      (0.0, periods * dt), n)
        for a, b in FIG1_SETS
    ]


def linear_pipeline(setup, lo=-2000.0, hi=1200.0, h=0.05, x0=-400.0):
    pot = rq.LinearPotential(1e-3)
    grid = np.arange(lo, hi + h / 2, h)
    k0 = oscillatory_wavenumber(setup, u0=float(pot.v(np.array([lo]))[0]))
    basis = rq.solve_numeric(setup, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))
    trajs = [
        rq.trace_quadrature(rq.ReducedAction(basis, rq.HiddenParams(a, b), setup), pot,
                            x0, "phi2_zero")
        for a, b in FIG3_SETS
    ]
    return pot, basis, trajs


def test_closed_form_node_values(electron2):
    """Frozen values for the 2-MeV electron node ladder."""
    rep = rq.nodes_closed_form(electron2, 0.0, (0.0, 6 * rq.node_period(electron2, 0.0)))
    assert len(rep.times) == 6
    # pi hbar c / sqrt(4 - 0.511^2) = 320.60 fm = 3.2060e-13 m
    assert rep.dx[0] == pytest.approx(320.6016, rel=1e-6)
    assert rep.dx[0] * 1e-15 == pytest.approx(3.2060e-13, rel=1e-4)
    assert rep.dt[0] == pytest.approx(1.106125e-21, rel=1e-6)
    assert rep.times[0] == pytest.approx(0.5 * rep.dt[0], rel=1e-12)
    assert np.allclose(rep.wavelength, 2 * rep.dx)
    # dx/dt equals the classical velocity (internal consistency)
    v = rep.dx[0] / rep.dt[0] * 1e-15  # fm/s -> m/s
    assert v == pytest.approx(classical_speed(electron2), rel=1e-12)
    # mean momentum per interval: pi hbar c / dx = sqrt(disc)
    assert rep.mean_momentum[0] == pytest.approx(np.sqrt(4 - 0.511**2), rel=1e-12)


def test_node_values_scale_linearly_in_hbar(electron2):
    for eps in (0.5, 0.25):
        scaled = electron2.scaled_hbar(eps)
        assert rq.node_spacing(scaled, 0.0) / rq.node_spacing(electron2, 0.0) == pytest.approx(eps, abs=1e-12)
        assert rq.node_period(scaled, 0.0) / rq.node_period(electron2, 0.0) == pytest.approx(eps, abs=1e-12)


def test_de_broglie(electron2):
    lam = rq.de_broglie(electron2, 0.0)
    assert lam == pytest.approx(641.2032, rel=1e-6)
    assert lam * 1e-15 == pytest.approx(6.4120e-13, rel=1e-4)
    assert lam == pytest.approx(2 * rq.node_spacing(electron2, 0.0), rel=1e-12)
    # momentum round trip: pi hbar c / dx equals the classical momentum
    p = np.pi * electron2.hbar_c / rq.node_spacing(electron2, 0.0)
    assert p == pytest.approx(classical_momentum(electron2), rel=1e-12)
    with pytest.raises(RegimeError):
        rq.de_broglie(rq.PhysicalSetup(E=0.3, m0c2=0.511), 0.0)


def test_de_broglie_scales_linearly(electron2):
    lam = rq.de_broglie(electron2, 0.0)
    assert rq.de_broglie(electron2.scaled_hbar(0.25), 0.0) == pytest.approx(0.25 * lam, rel=1e-12)


def test_detect_nodes_matches_closed_form(electron2):
    """For E - U0 = +2 and -2 MeV (both oscillatory) and either direction,
    the ladder lies along direction * sign(E - U0), and the fig1 family
    arrives at its rungs at the closed-form times, within 1e-6 node
    periods (the crossing clusters were 7.5e-6 off on fig1)."""
    for u0, direction in itertools.product((0.0, 4.0), (+1, -1)):
        setup = dataclasses.replace(electron2, direction=direction)
        trs = fig1_traces(setup, u0)
        t_range = (trs[0].t[0], trs[0].t[-1])
        closed = rq.nodes_closed_form(setup, u0, t_range)
        curves = [(tr.t, tr.x) for tr in trs]
        rep = rq.detect_nodes(curves, closed.positions, setup, t_range)
        case = f"U0 = {u0}, direction {direction:+d}"
        assert len(closed.times) == 5, case
        np.testing.assert_array_equal(rep.positions, closed.positions, err_msg=case)
        # rungs in any order: the nodes come out in time order
        reverse = rq.detect_nodes(curves, closed.positions[::-1], setup, t_range)
        np.testing.assert_array_equal(reverse.positions, closed.positions, err_msg=case)
        period = rq.node_period(setup, u0)
        assert np.max(np.abs(rep.times - closed.times)) <= 1e-6 * period, case
        np.testing.assert_allclose(rep.dt, closed.dt, rtol=2e-6, err_msg=case)
        np.testing.assert_allclose(rep.dx, closed.dx, rtol=1e-12, err_msg=case)
        assert rep.method == "rung-arrivals"


def test_detect_nodes_identical_curves_degenerate(electron2):
    """Identical curves arrive at every rung at one time: spread 0."""
    dt = rq.node_period(electron2, 0.0)
    tr1 = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                        0.0, (0.0, 3 * dt), 20001)
    tr2 = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                        0.0, (0.0, 3 * dt), 20001)
    rungs = rq.nodes_closed_form(electron2, 0.0, (0.0, 3 * dt)).positions
    rep = rq.detect_nodes([(tr1.t, tr1.x), (tr2.t, tr2.x)], rungs, electron2, (0.0, 3 * dt))
    np.testing.assert_array_equal(rep.positions, rungs)
    assert list(rep.extras["arrival_spread_s"]) == [0.0, 0.0, 0.0]
    assert list(rep.extras["arrival_spread_per_period"]) == [0.0, 0.0, 0.0]


def test_detect_nodes_empty_window_or_no_rungs(electron2):
    """No common rows in the window, or no rung inside it, gives an empty
    report, not an error."""
    dt = rq.node_period(electron2, 0.0)
    trs = fig1_traces(electron2, n=2001)
    curves = [(tr.t, tr.x) for tr in trs]
    rungs = rq.nodes_closed_form(electron2, 0.0, (0.0, 5 * dt)).positions
    cases = {
        "window after every row": (curves, rungs, (6 * dt, 7 * dt)),
        "rows between two rungs": (curves, rungs, (0.6 * dt, 1.4 * dt)),
        "no common rows": ([(t[:500], x[:500]) for t, x in curves[:2]]
                           + [(curves[2][0][-500:], curves[2][1][-500:])],
                           rungs, (0.0, 5 * dt)),
        "rungs outside every curve": (curves, rungs + 1e6, (0.0, 5 * dt)),
        "no rungs": (curves, np.empty(0), (0.0, 5 * dt)),
        "rungs None": (curves, None, (0.0, 5 * dt)),
    }
    for case, (cs, rs, t_range) in cases.items():
        rep = rq.detect_nodes(cs, rs, electron2, t_range)
        for name in ("times", "positions", "dt", "dx", "mean_momentum", "wavelength"):
            assert getattr(rep, name).size == 0, (case, name)
        assert rep.extras["arrival_spread_s"].size == 0, case
        assert "arrival_spread_per_period" not in rep.extras, case
        assert rep.to_dict()["times"] == [], case


def test_detect_nodes_needs_two(electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                       0.0, (0.0, dt), 101)
    with pytest.raises(InsufficientTrajectories):
        rq.detect_nodes([(tr.t, tr.x)], np.array([tr.x[50]]), electron2, (0.0, dt))


def _zeros_in_window(zeros, curves, t_range):
    """The zeros between max_i x_i(t_lo) and min_i x_i(t_hi), t_lo and t_hi
    the first and last times inside t_range that every curve holds (x
    ascending along t)."""
    t_lo = max(t[t >= t_range[0]][0] for t, _ in curves)
    t_hi = min(t[t <= t_range[1]][-1] for t, _ in curves)
    x_lo = max(np.interp(t_lo, t, x) for t, x in curves)
    x_hi = min(np.interp(t_hi, t, x) for t, x in curves)
    return zeros[(x_lo <= zeros) & (zeros <= x_hi)]


def test_detect_nodes_linear_potential(electron2):
    """Fig-3 parameter sets: the nodes are the phi2 zeros in the window,
    every one of them, bit for bit, and dx is their spacing, which grows
    toward the turning point."""
    from rqtraj.trajectory import _zeros_of

    pot, basis, trajs = linear_pipeline(electron2)
    zeros = _zeros_of(basis.grid, basis.phi2, basis.dphi2)
    curves = [(tr.t, tr.x) for tr in trajs]
    t_range = (-1.0, 1.0)                      # every row of every trace
    rep = rq.detect_nodes(curves, zeros, electron2, t_range)
    inside = _zeros_in_window(zeros, curves, t_range)
    assert len(rep.times) == inside.size >= 10
    np.testing.assert_array_equal(rep.positions, inside)
    np.testing.assert_array_equal(rep.dx, np.diff(inside))
    assert np.all(np.diff(rep.times) > 0)
    assert np.all(np.diff(np.diff(zeros)) > 0)


def test_fig3_analyze_reports_every_rung_of_the_reference(tmp_path):
    """fig3 analyze reports as many nodes as the benchmark's reference
    counts (``perfbench/clirun.py``, ``accuracy``): the phi2 zeros of the
    written basis between max_i x_i(t_lo) and min_i x_i(t_hi) of the
    written trajectory files.  They are the 42 zeros after the sync
    anchor, each with its arrival spread."""
    from rqtraj.output import read_csv
    from rqtraj.trajectory import _zeros_of

    cfg = with_keys(parse_config(CONFIGS / "fig3.cfg"),
                              out_dir=str(tmp_path)).validate()
    pipeline.run_analyze(cfg)
    pipeline.run_trace(cfg)
    pipeline.run_basis(cfg)
    _, basis = read_csv(tmp_path / "basis_rk4.csv")
    zeros = _zeros_of(basis["x_fm"], basis["phi2"], basis["dphi2_per_fm"])
    curves = []
    for i in range(len(cfg.param_sets)):
        _, cols = read_csv(tmp_path / f"trajectory_{i}.csv")
        curves.append((cols["t_s"], cols["x_fm"]))
    reference = _zeros_in_window(zeros, curves, (cfg.t_min, cfg.t_max))
    nodes = json.loads((tmp_path / "nodes_detected.json").read_text())
    assert len(nodes["positions"]) == reference.size == 42
    np.testing.assert_array_equal(nodes["positions"], reference)
    np.testing.assert_array_equal(reference, zeros[1:])
    # the benchmark places its reference zeros by the secant: the same count
    x, y = basis["x_fm"], basis["phi2"]
    i = np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0)
    secant = x[i] - y[i] * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
    assert _zeros_in_window(secant, curves, (cfg.t_min, cfg.t_max)).size == 42
    assert len(nodes["extras"]["arrival_spread_s"]) == 42
    assert len(nodes["extras"]["arrival_spread_per_period"]) == 42


def _family_arrivals(cfg):
    """(setup, rungs, each set's arrival times at the rungs, the (t, x)
    curves) of a config's family, as ``analyze`` traces it: the phi2 zeros
    of a quadrature config, the closed-form ladder of a constant one."""
    setup, pot, basis = pipeline._stage(cfg)
    curves = []
    for _, tr, ra in pipeline._family(cfg, setup, pot, basis):
        del ra
        curves.append((tr.t, tr.x))
    if basis is None:
        rungs = rq.nodes_closed_form(setup, cfg.u0, (cfg.t_min, cfg.t_max), x0=cfg.x0).positions
    else:
        rungs = pipeline._phi2_zeros(basis)
    return setup, rungs, np.array([trajectory._cubic_at(x, t, rungs) for t, x in curves]), curves


def test_fig3_arrivals_converge_to_a_fine_grid_run():
    """fig3 on its 0.2 fm grid against the same run at 0.0125 fm: every
    set's arrival at each of the 43 rungs agrees within 1e-10 node periods
    at x0 (2.81e-22 s; 6.8e-11 measured).  With Simpson of 1/v, linear
    zeros and linear arrivals the 0.2 fm run was 1.7e-7 to 5.7e-7 periods
    off, and the 0.05 fm run 7e-9 to 2.3e-8."""
    cfg = parse_config(CONFIGS / "fig3.cfg")
    setup, rungs, arrivals, _ = _family_arrivals(cfg)
    _, fine_rungs, fine, _ = _family_arrivals(with_keys(cfg, grid_step=0.0125).validate())
    period = rq.node_period(setup, float(pipeline.build_potential(cfg).v(cfg.x0)))
    assert rungs.size == fine_rungs.size == 43
    assert np.max(np.abs(rungs - fine_rungs)) <= 1e-10
    assert np.all(np.isfinite(arrivals))
    assert np.max(np.abs(arrivals - fine)) <= 1e-10 * period


def test_fig1_arrivals_match_the_closed_form_ladder():
    """fig1's three sets arrive at each rung of the closed-form ladder at its
    closed-form time within 1e-11 node periods (1.4e-15, 3.4e-15 and
    8.6e-13 measured; linear interpolation of t over x gave 3e-13, 8.1e-9
    and 6.2e-8), and analyze's node times carry that."""
    cfg = parse_config(CONFIGS / "fig1.cfg")
    setup, rungs, arrivals, curves = _family_arrivals(cfg)
    closed = rq.nodes_closed_form(setup, cfg.u0, (cfg.t_min, cfg.t_max), x0=cfg.x0)
    period = rq.node_period(setup, cfg.u0)
    assert closed.times.size == 5
    assert np.max(np.abs(arrivals - closed.times)) <= 1e-11 * period
    nodes = rq.detect_nodes(curves, rungs, setup, (cfg.t_min, cfg.t_max))
    assert np.max(np.abs(nodes.times - closed.times)) <= 1e-11 * period
    assert np.max(nodes.extras["arrival_spread_s"]) <= 2e-11 * period


def test_mean_momentum_is_parameter_free(electron2):
    """Between adjacent nodes the action-difference momentum is (a, b)-independent.

    The endpoints must sit at the nodes themselves (zeros of phi2); there the
    action increment is pi hbar for every family member.
    """
    k = oscillatory_wavenumber(electron2)
    h = 5e-4 / k
    grid = np.arange(0.0, 2.2 * np.pi / k, h)
    basis = rq.solve_constant(electron2, 0.0, grid)
    x_a, x_b = np.pi / (2 * k), 3 * np.pi / (2 * k)  # exact adjacent nodes
    p_cl = np.sqrt(4 - 0.511**2)
    values = []
    for a, b in ((1.0, 0.0), (0.2, 0.0), (4 / 3, -1.05), (0.25, 8.0), (2.0, 0.5)):
        ra = rq.ReducedAction(basis, rq.HiddenParams(a, b), electron2)
        ds = s0_at(ra, x_b) - s0_at(ra, x_a)
        values.append(ds / (x_b - x_a) * electron2.c_fm_s)
    assert np.ptp(values) / p_cl < 1e-9
    for v in values:
        assert v == pytest.approx(p_cl, rel=1e-9)
        assert v == pytest.approx(np.pi * electron2.hbar_c / (x_b - x_a), rel=1e-9)
    # the S0 rows of the grid points nearest the nodes agree at the snap resolution
    ra = rq.ReducedAction(basis, rq.HiddenParams(1.0, 0.0), electron2)
    i, j = (int(np.argmin(np.abs(grid - x))) for x in (x_a, x_b))
    mean = (ra.s0_grid[j] - ra.s0_grid[i]) / (grid[j] - grid[i]) * electron2.c_fm_s
    assert mean == pytest.approx(p_cl, rel=1e-6)


def test_mean_momentum_short_interval_limit(electron2):
    """Mean over a short centered interval approaches the pointwise momentum."""
    k = oscillatory_wavenumber(electron2)
    h = 1e-3 / k
    grid = np.arange(0.0, 1000.0, h)
    basis = rq.solve_constant(electron2, 0.0, grid)
    ra = rq.ReducedAction(basis, rq.HiddenParams(4 / 3, -1.05), electron2)
    j = 500
    mean = (ra.s0_grid[j + 1] - ra.s0_grid[j - 1]) / (grid[j + 1] - grid[j - 1]) * electron2.c_fm_s
    assert mean == pytest.approx(ra.momentum_grid[j], rel=1e-4)


def test_mean_momentum_telescopes(electron2):
    """Multiple node gaps give the same mean as a single gap (pi hbar each)."""
    k = oscillatory_wavenumber(electron2)
    h = 5e-4 / k
    grid = np.arange(0.0, 4.2 * np.pi / k, h)
    basis = rq.solve_constant(electron2, 0.0, grid)
    ra = rq.ReducedAction(basis, rq.HiddenParams(0.25, 8.0), electron2)

    def mean_between(x_a, x_b):
        return (s0_at(ra, x_b) - s0_at(ra, x_a)) / (x_b - x_a) * electron2.c_fm_s

    p_one = mean_between(np.pi / (2 * k), 3 * np.pi / (2 * k))
    p_many = mean_between(np.pi / (2 * k), 7 * np.pi / (2 * k))
    assert p_many == pytest.approx(p_one, rel=1e-9)


def test_first_integral_closed_form(electron2):
    dt = rq.node_period(electron2, 0.0)
    for (a, b), n in (((0.2, 0.0), 4001), ((4 / 3, -1.05), 2501)):
        tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(a, b),
                                           0.0, (0.0, 3 * dt), n)
        rep = rq.firqnl_residual(tr)
        assert rep.max_residual <= 1e-6, (a, b, rep.max_residual)


def test_first_integral_classical_line(electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(1.0, 0.0),
                                       0.0, (0.0, 3 * dt), 2001)
    assert rq.firqnl_residual(tr).max_residual < 1e-6


def test_first_integral_negative_control(electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(4 / 3, -1.05),
                                       0.0, (0.0, 3 * dt), 2501)
    bad = rq.Trajectory(tr.t, 1.01 * tr.x, tr.branch, tr.regime, tr.momentum, tr.meta)
    assert rq.firqnl_residual(bad).max_residual > 1e-2


def closed_form_motion(action, pot):
    """xdot, xddot and xdddot on the action's grid from closed forms only.

    xdot = sigma c kin / Pc, and d/dt = xdot d/dx through Pc, Pc', Pc''
    (``momentum_derivatives``), kin' = -V' (1 + m2/w^2) and
    kin'' = -V'' (1 + m2/w^2) - 2 m2 V'^2 / w^3, with w = E - V.
    """
    setup, x = action.setup, action.grid
    pc, pcp, pcpp = action.momentum_derivatives(-wavenumber_sq(setup, pot, x))
    w, vp, vpp, m2 = setup.E - pot.v(x), pot.dv(x), pot.d2v(x), setup.rest_sq
    kin = kinetic_term(setup, pot, x)
    kinp = -vp * (1.0 + m2 / w**2)
    kinpp = -vpp * (1.0 + m2 / w**2) - 2.0 * m2 * vp**2 / w**3
    sc = setup.direction * setup.c_fm_s
    v = sc * kin / pc
    vx = sc * (kinp / pc - kin * pcp / pc**2)
    vxx = sc * (kinpp / pc - 2.0 * kinp * pcp / pc**2 - kin * pcpp / pc**2
                + 2.0 * kin * pcp**2 / pc**3)
    return v, v * vx, v * vx**2 + v**2 * vxx


class SteeperSlope(rq.LinearPotential):
    """V' 1 % too large, V and V'' exact."""

    def dv(self, x):
        return 1.01 * super().dv(x)


def formula_residual(name, pot=None):
    """The largest first-integral residual over the sets of config ``name``,
    its terms fed closed-form motion (``pot`` replaces the config's potential
    in the terms only), and the bound 2 x Wronskian drift + 1e-14."""
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
    setup, true_pot = pipeline.build_setup(cfg), pipeline.build_potential(cfg)
    basis = pipeline.build_basis(cfg, setup, true_pot)
    worst = 0.0
    for a, b in cfg.param_sets:
        action = rq.ReducedAction(basis, rq.HiddenParams(a, b), setup)
        motion = closed_form_motion(action, true_pot)
        worst = max(worst, float(_firqnl_terms(setup, pot or true_pot, action.grid, *motion).max()))
    return worst, 2.0 * rq.wronskian_drift(basis) + 1e-14


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_first_integral_formula_holds_on_closed_form_motion(name):
    """The paper's third-order equation as ``_firqnl_terms`` transcribes it.
    Given the quantum HJ it is an identity, so on closed-form motion its
    residual is about twice the Wronskian drift: 1.7e-15 on fig1's analytic
    basis, 8.2e-14 on fig3's numeric basis, whose drift is 5.5e-14."""
    worst, bound = formula_residual(name)
    assert worst <= bound


def test_first_integral_formula_sees_a_wrong_force_term():
    """With V' 1 % off in the terms, fig3's sets read 1.7e-2 to 2.6e-2."""
    worst, bound = formula_residual("fig3", SteeperSlope(1e-3))
    assert worst > bound


def test_first_integral_linear_quadrature(electron2):
    pot, basis, trajs = linear_pipeline(electron2)
    for tr in trajs:
        assert rq.firqnl_residual(tr, stride=4).max_residual <= 1e-3
        assert rq.closure_residual(tr).max_residual <= 1e-4


def test_first_integral_too_few_samples(electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                       0.0, (0.0, dt), 5)
    with pytest.raises(TooFewSamples):
        rq.firqnl_residual(tr)


def test_first_integral_rejects_bad_arguments(electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0),
                                       0.0, (0.0, dt), 201)
    for stride in (0, -1, 2.5, True, "2"):
        with pytest.raises(ValueError, match="stride"):
            rq.firqnl_residual(tr, stride=stride)
    assert (rq.firqnl_residual(tr, stride=np.int64(2)).max_residual
            == rq.firqnl_residual(tr, stride=2).max_residual)


def test_first_integral_rejects_non_uniform_samples(electron2):
    dt = rq.node_period(electron2, 0.0)
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(4 / 3, -1.05),
                                       0.0, (0.0, 3 * dt), 2501)
    t = tr.t.copy()
    t[1000] += 1e-6 * (t[1] - t[0])
    with pytest.raises(RegimeError, match="uniform"):
        rq.firqnl_residual(dataclasses.replace(tr, t=t))

    _, _, trajs = linear_pipeline(electron2, lo=-600.0, hi=200.0, h=0.1, x0=-200.0)
    tr = trajs[0]
    x = tr.x.copy()
    x[x.size // 2] += 1e-6 * (x[1] - x[0])
    with pytest.raises(RegimeError, match="uniform"):
        rq.firqnl_residual(dataclasses.replace(tr, x=x), stride=4)


def stencil_derivatives(t, x, stride: int = 1):
    """First three derivatives of x(t) on uniform t, arrays aligned with
    t[3*stride : -3*stride]: the blocks of ``_stencil_blocks`` put together."""
    m, blocks = _stencil_blocks(t, x, stride)
    out = np.empty((3, m))
    for lo, hi, block in blocks:
        out[:, lo:hi] = block
    return tuple(out)


def test_uniform_is_one_rule(electron2):
    """The numeric solve, the quadrature trace and the stencil accept and
    refuse the same grids."""
    pot, basis, _ = linear_pipeline(electron2, lo=-600.0, hi=200.0, h=0.1, x0=-200.0)
    hp = rq.HiddenParams(*FIG3_SETS[0])
    grid = basis.grid
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    for scale, uniform in ((0.5, True), (2.0, False)):
        bent = grid.copy()
        bent[grid.size // 2 :] += scale * UNIFORM_REL_TOL * h
        assert (uniform_step(bent) is not None) == uniform
        ra = rq.ReducedAction(dataclasses.replace(basis, grid=bent), hp, electron2)
        if uniform:
            rq.solve_numeric(electron2, pot, bent)
            rq.trace_quadrature(ra, pot, -200.0, "exact")
            stencil_derivatives(bent, np.sin(bent / 50.0))
        else:
            with pytest.raises(ValueError, match="uniform"):
                rq.solve_numeric(electron2, pot, bent)
            with pytest.raises(ValueError, match="uniform"):
                rq.trace_quadrature(ra, pot, -200.0, "exact")
            with pytest.raises(RegimeError, match="uniform"):
                stencil_derivatives(bent, np.sin(bent / 50.0))


def test_first_integral_auto_takes_the_uniform_variable(electron2):
    """A classical linear-potential arc is uniform in x, not in t: the check
    differentiates t(x), and refuses a trace uniform in neither."""
    pot = rq.LinearPotential(1e-3)
    tr = rq.classical_trace(electron2, pot, 0.0, x_range=(0.0, 1000.0))
    assert uniform_step(tr.t) is None and uniform_step(tr.x) is not None
    auto = rq.firqnl_residual(tr)
    ref = firqnl_whole_array(tr, electron2, pot, "x", 1)
    assert np.array_equal(auto.residuals, ref)
    assert np.isfinite(auto.max_residual)
    x = tr.x.copy()
    x[x.size // 2] += 1e-6 * (x[1] - x[0])
    with pytest.raises(RegimeError, match="uniform"):
        rq.firqnl_residual(dataclasses.replace(tr, x=x))


def test_analyze_records_non_uniform_trace(tmp_path, monkeypatch):
    """A non-uniform trace becomes first_integral_error, not a number."""
    cfg = with_keys(parse_config(CONFIGS / "fig1.cfg"), samples=2001,
                              out_dir=str(tmp_path))
    trace = pipeline.trace_constant_oscillatory

    def skewed(setup, u0, hp, *args):
        tr = trace(setup, u0, hp, *args)
        if hp.b == -1.05:
            t = tr.t.copy()
            t[1000] += 1e-6 * (t[1] - t[0])
            tr = dataclasses.replace(tr, t=t)
        return tr

    monkeypatch.setattr(pipeline, "trace_constant_oscillatory", skewed)
    manifest = pipeline.run_analyze(cfg)
    per_set = json.loads((tmp_path / "validation.json").read_text())["per_set"]
    assert [("first_integral_max" in e, "first_integral_error" in e) for e in per_set] == [
        (True, False), (False, True), (True, False)]
    assert "uniform" in per_set[1]["first_integral_error"]
    labels = [label for label, _ in manifest["summary"]]
    assert "first-integral max (a=1.33333, b=-1.05)" not in labels
    assert "first-integral max (a=0.2, b=0)" in labels


def test_analyze_records_a_check_that_cannot_run(tmp_path):
    """Two samples per trace: closure and first integral record their errors
    (both stencils need 7 samples)."""
    cfg = with_keys(parse_config(CONFIGS / "fig1.cfg"), samples=2,
                              out_dir=str(tmp_path)).validate()
    manifest = pipeline.run_analyze(cfg)
    per_set = json.loads((tmp_path / "validation.json").read_text())["per_set"]
    for entry in per_set:
        assert entry["closure_error"] == "need at least 7 samples"
        assert "closure_max" not in entry and "first_integral_error" in entry
        assert "quantum_hj_max" not in entry      # a closed form builds no action
    assert not any(label.startswith("closure") for label, _ in manifest["summary"])


def lagrange_oracle(t, x, stride):
    """First three derivatives at each window centre of the degree-6
    interpolant through the actual samples, in exact rational arithmetic."""
    tf = [Fraction(v) for v in t]
    xf = [Fraction(v) for v in x]
    out = ([], [], [])
    for c in range(3 * stride, t.size - 3 * stride):
        window = [c + (j - 3) * stride for j in range(7)]
        nodes = [tf[i] - tf[c] for i in window]
        coef = [Fraction(0)] * 7  # the interpolant, lowest power first
        for j, i in enumerate(window):
            basis = [Fraction(xf[i] - xf[c])]  # (x_j - x_c) L_j(s)
            for q, node in enumerate(nodes):
                if q != j:
                    basis = [
                        ((basis[p - 1] if p else 0) - node * (basis[p] if p < len(basis) else 0))
                        / (nodes[j] - node)
                        for p in range(len(basis) + 1)
                    ]
            coef = [a + b for a, b in zip(coef, basis)]
        for k in (1, 2, 3):
            out[k - 1].append(math.factorial(k) * coef[k])
    return out


def _relative_errors(t, x, stride):
    oracle = lagrange_oracle(t, x, stride)
    got = stencil_derivatives(t, x, stride=stride)
    return [
        float(max(abs(Fraction(g) - o) for g, o in zip(d.tolist(), ref)) / max(abs(o) for o in ref))
        for d, ref in zip(got, oracle)
    ]


@pytest.mark.parametrize("direction", [+1, -1])
def test_stencil_matches_exact_oracle(electron2, direction):
    """linspace t and arange x are a few ulps off uniform; the stencil
    follows the samples where they are, as the interpolant does."""
    setup = dataclasses.replace(electron2, direction=direction)
    # fig1-like closed form: linspace t, stride 1
    tr = rq.trace_constant_oscillatory(setup, 0.0, rq.HiddenParams(4 / 3, -1.05), 0.0,
                                       (0.0, 5.5e-21), 50001)
    cut = slice(20000, 20300)
    errs = _relative_errors(tr.t[cut], tr.x[cut], 1)
    assert errs[0] <= 1e-14 and errs[1] <= 1e-11 and errs[2] <= 1e-9, errs
    # quadrature: arange x (descending for direction -), stride 4
    _, _, trajs = linear_pipeline(setup)
    tr = trajs[0]
    assert np.sign(tr.x[-1] - tr.x[0]) == direction
    cut = slice(30000, 30300)
    errs = _relative_errors(tr.x[cut], tr.t[cut], 4)
    assert errs[0] <= 1e-14 and errs[1] <= 1e-11 and errs[2] <= 1e-9, errs


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("order", [1, -1])
def test_stencil_exact_on_degree_six_polynomial(stride, order):
    """Samples, differences and sums are exact here: only the final division rounds."""
    t = np.arange(-150, 150)[::order] / 16.0
    x = 3 * t**6 - 5 * t**5 + t**4 - 7 * t**3 + 2 * t**2 - t + 11
    for err in _relative_errors(t, x, stride):
        assert err <= 4 * np.finfo(float).eps, err


@pytest.mark.parametrize("steps_per_length", [100, 1600])
def test_stencil_at_the_uniformity_tolerance(steps_per_length):
    """Jitter just inside UNIFORM_REL_TOL still gives every derivative within
    10 * UNIFORM_REL_TOL of the interpolant through the actual samples;
    twice that jitter is refused."""
    rng = np.random.default_rng(7)
    h = 1.0 / steps_per_length
    ideal = 5.0 + h * np.arange(200)
    jitter = rng.uniform(-0.45, 0.45, ideal.size) * UNIFORM_REL_TOL * h
    t = ideal + jitter
    x = np.sin(t) + 0.3 * np.cos(1.7 * t)
    for err in _relative_errors(t, x, 1):
        assert err <= 10 * UNIFORM_REL_TOL, err
    t = ideal + 2 * jitter
    with pytest.raises(RegimeError, match="uniform"):
        stencil_derivatives(t, np.sin(t) + 0.3 * np.cos(1.7 * t))


def stencil_whole_array(t, x, stride):
    """``stencil_derivatives`` as one pass over all windows, kept as the
    oracle of the blocked evaluation (checks omitted)."""
    n = t.size
    h = uniform_step(t)
    hs = h * stride
    xd = np.gradient(x, h, edge_order=2)
    m = n - 6 * stride
    tc = t[3 * stride : 3 * stride + m]
    xc = x[3 * stride : 3 * stride + m]
    offsets = (0, 1, 2, 4, 5, 6)
    values, shifts = [], []
    for j in offsets:
        win = slice(j * stride, j * stride + m)
        delta = (t[win] - tc) - (j - 3) * hs
        values.append(x[win] - xc)
        shifts.append(xd[win] * delta)
    out = []
    for k, (weights, denom) in enumerate(_STENCIL_WEIGHTS, start=1):
        acc = sum(weights[j] * d for j, d in zip(offsets, values))
        acc -= sum(weights[j] * s for j, s in zip(offsets, shifts))
        out.append(acc / (denom * hs**k))
    return tuple(out)


def firqnl_whole_array(traj, setup, pot, independent_var, stride):
    """Per-sample residuals of ``firqnl_residual`` as whole-array operations,
    kept as the oracle of the blocked evaluation."""
    if independent_var == "x":
        tp, tpp, tppp = stencil_whole_array(traj.x, traj.t, stride)
        xd = 1.0 / tp
        xdd = -tpp / tp**3
        xddd = (3.0 * tpp**2 - tppp * tp) / tp**5
    else:
        xd, xdd, xddd = stencil_whole_array(traj.t, traj.x, stride)
    x_in = traj.x[3 * stride : -3 * stride]
    c = setup.c_fm_s
    hb = setup.hbar
    m2 = setup.rest_sq
    w = setup.E - np.asarray(pot.v(x_in), dtype=float)
    vp = np.asarray(pot.dv(x_in), dtype=float)
    vpp = np.asarray(pot.d2v(x_in), dtype=float)
    q = w * w - m2
    t1 = q**3 * ((1.0 - xd**2 / c**2) - m2 / w**2)
    t2 = -(hb**2 / 2.0) * ((w**4 - m2**2) / w) * (xdd * vp)
    t3 = -(hb**2 / 2.0) * ((w**4 - m2**2) / w) * (xd**2 * vpp)
    t4 = (hb**2 / 2.0) * q**2 * (1.5 * (xdd / xd) ** 2 - xddd / xd)
    t5 = -(hb**2 / 4.0) * (4.0 * m2 * (1.0 - m2 / w**2) + 3.0 * (w + m2 / w) ** 2) * (xd * vp) ** 2
    total = t1 + t2 + t3 + t4 + t5
    pieces = np.stack([
        np.abs(q**3 * (1.0 - xd**2 / c**2)),
        np.abs(q**3 * m2 / w**2),
        np.abs(t2),
        np.abs(t3),
        np.abs((hb**2 / 2.0) * q**2 * 1.5 * (xdd / xd) ** 2),
        np.abs((hb**2 / 2.0) * q**2 * xddd / xd),
        np.abs(t5),
    ])
    return np.abs(total) / np.max(pieces, axis=0)


# The block-edge cases of the blocked checks straddle the second block edge
# (EDGE - 1, EDGE, EDGE + 1 windows or grid points) and run one past the
# fourth (2 EDGE + 1).
EDGE = 2 * BLOCK


@pytest.fixture(scope="module")
def block_traces():
    """Traces long enough for 2 * EDGE + 1 windows at stride 4:
    a closed form (uniform t) and a linear-potential quadrature (uniform x),
    and a tabulated potential whose dV and d2V are both non-zero."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=0.511)
    n = 2 * EDGE + 1 + 24
    closed = rq.trace_constant_oscillatory(setup, 0.0, rq.HiddenParams(4 / 3, -1.05), 0.0,
                                           (0.0, 4e-21), n)
    lo = -1000.0
    pot = rq.LinearPotential(1e-3)
    grid = lo + 0.05 * np.arange(n)
    k0 = oscillatory_wavenumber(setup, u0=float(pot.v(grid[:1])[0]))
    basis = rq.solve_numeric(setup, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))
    quad = rq.trace_quadrature(rq.ReducedAction(basis, rq.HiddenParams(4.0, 2.5), setup),
                               pot, lo, "exact")
    xt = np.linspace(-2000.0, 2000.0, 4001)
    tab = rq.TabulatedPotential(xt, 1e-3 * xt + 2e-7 * xt**2 + 0.05 * np.sin(xt / 300.0))
    return setup, {"t": closed, "x": quad}, tab


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("windows", [1, EDGE - 1, EDGE, EDGE + 1,
                                     2 * EDGE + 1])
@pytest.mark.parametrize("var", ["t", "x"])
def test_blocked_first_integral_is_bit_equal(block_traces, var, windows, stride):
    setup, traces, tab = block_traces
    full = traces[var]
    rows = slice(0, windows + 6 * stride)
    tr = dataclasses.replace(full, t=full.t[rows], x=full.x[rows], branch=full.branch[rows],
                             regime=full.regime[rows], momentum=full.momentum[rows])
    u, y = (tr.x, tr.t) if var == "x" else (tr.t, tr.x)
    for got, ref in zip(stencil_derivatives(u, y, stride=stride),
                        stencil_whole_array(u, y, stride)):
        assert got.size == windows
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for pot in (tr.potential, tab):
        on_pot = dataclasses.replace(tr, meta={**tr.meta, "potential": pot})
        got = rq.firqnl_residual(on_pot, stride=stride).residuals
        ref = firqnl_whole_array(tr, setup, pot, var, stride)
        assert got.size == windows
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def stencil_gradient_rows(n, stride):
    """(lo, hi) of the gradient rows each block of ``_stencil_blocks`` reads."""
    m = n - 6 * stride
    return [(lo, min(lo + BLOCK, m) + 6 * stride) for lo in range(0, m, BLOCK)]


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("kind", ["uniform", "linspace"])
def test_gradient_rows_are_bit_equal_to_the_whole_trace_gradient(kind, stride):
    """Every block of the stencil, the first and the last included, and
    single rows at both ends: np.gradient of the whole trace on its mean
    step, bit for bit.  A step of 0.75 is exact, so 0.75 * arange has all
    steps equal; linspace steps differ in their last bits."""
    n = 2 * EDGE + 6 * stride + 101
    t = np.linspace(-3.0, 7.0, n) if kind == "linspace" else 0.75 * np.arange(n)
    x = np.sin(t / 7.0) + 1e-3 * t**2
    h = uniform_step(t)
    ref = np.gradient(x, h, edge_order=2)
    rows = stencil_gradient_rows(n, stride) + [(0, 1), (n - 1, n), (1, 2), (n - 2, n - 1)]
    for lo, hi in rows:
        got = _gradient_rows(x, lo, hi, h)
        assert np.array_equal(got.view(np.int64), ref[lo:hi].view(np.int64)), (lo, hi)


def closure_whole_array(traj):
    """``closure_residual`` as one pass over the whole trace, kept as the
    oracle of the blocked evaluation: xdot from the first row of
    ``stencil_whole_array`` at stride 1, along the uniform variable."""
    setup, pot = traj.setup, traj.potential
    if uniform_step(traj.t) is not None:
        xd = stencil_whole_array(traj.t, traj.x, 1)[0]
    else:
        xd = 1.0 / stencil_whole_array(traj.x, traj.t, 1)[0]
    kin = kinetic_term(setup, pot, traj.x[3:-3])
    return np.abs(xd * traj.momentum[3:-3] / (setup.direction * setup.c_fm_s * kin) - 1.0)


@pytest.mark.parametrize("n", [3, 4, EDGE + 1, EDGE + 2, EDGE + 3,
                               2 * EDGE + 3])
@pytest.mark.parametrize("var", ["t", "x"])
def test_blocked_closure_is_bit_equal(block_traces, var, n):
    """n - 2 windows, the count of the centred difference this check used on
    n samples: 1 and 2 windows, and the block edges EDGE - 1,
    EDGE, EDGE + 1 and 2 EDGE + 1.  Six samples
    are too few."""
    _, traces, _ = block_traces
    full = traces[var]
    rows = slice(0, n + 4)
    tr = dataclasses.replace(full, t=full.t[rows], x=full.x[rows], branch=full.branch[rows],
                             regime=full.regime[rows], momentum=full.momentum[rows])
    got = rq.closure_residual(tr).residuals
    assert got.size == n - 2
    assert np.array_equal(got.view(np.int64), closure_whole_array(tr).view(np.int64))
    short = dataclasses.replace(tr, t=tr.t[:6], x=tr.x[:6], branch=tr.branch[:6],
                                regime=tr.regime[:6], momentum=tr.momentum[:6])
    with pytest.raises(TooFewSamples, match="7 samples"):
        rq.closure_residual(short)


def test_closure_converges_at_the_stencil_order(electron2):
    """The closure check's xdot is the 7-point first derivative, so on a
    trace sampled coarsely enough that truncation dominates, halving the
    spacing divides the residual by at least 30 (sixth order: 64; 52 to 63
    measured).  Along t on a closed form, and along x on a linear-potential
    quadrature trace.  The centred difference it replaced divided it by 4."""
    dt = rq.node_period(electron2, 0.0)
    along_t = [rq.closure_residual(rq.trace_constant_oscillatory(
                   electron2, 0.0, rq.HiddenParams(4 / 3, -1.05), 0.0, (0.0, 3 * dt), n)
               ).max_residual for n in (151, 301, 601, 1201)]
    along_x = []
    for h in (1.6, 0.8, 0.4):
        _, _, trajs = linear_pipeline(electron2, lo=-2000.0, hi=0.0, h=h, x0=-1000.0)
        along_x.append(rq.closure_residual(trajs[0]).max_residual)
    for residuals in (along_t, along_x):
        assert residuals[-1] > 1e-11                   # still above round-off
        for coarse, fine in zip(residuals, residuals[1:]):
            assert coarse / fine >= 30, residuals


# Per-set maxima of fig3's analyze with the Simpson trace on the 0.05 fm
# grid, the stencil at stride 4 and the centred-difference closure: (closure,
# first integral) for (4, 2.5), (8, -3) and (5, 2).
FIG3_SIMPSON_MAXIMA = ((3.5091051e-05, 5.9399953e-05), (9.6322039e-05, 4.2731929e-04),
                       (3.7585367e-05, 6.8151050e-05))


def test_fig3_residuals_stay_at_or_below_the_simpson_trace(tmp_path):
    """A grid, stride or rule change cannot raise fig3's residuals silently.
    Each set's closure maximum stays at or below the Simpson trace's (it is
    2.5e-8, 4.8e-7 and 3.0e-8 now), and each first-integral maximum at or
    below it to 1e-3 of its value: the (4, 2.5) maximum reads 5.94179e-5
    against 5.93999e-5, and noise of 1e-16 relative in t alone doubles it,
    so its late digits are round-off of t."""
    cfg = with_keys(parse_config(CONFIGS / "fig3.cfg"), out_dir=str(tmp_path))
    pipeline.run_analyze(cfg)
    per_set = json.loads((tmp_path / "validation.json").read_text())["per_set"]
    assert [(e["a"], e["b"]) for e in per_set] == list(FIG3_SETS)
    for entry, (closure, first_integral) in zip(per_set, FIG3_SIMPSON_MAXIMA):
        assert entry["closure_max"] <= closure
        assert entry["first_integral_max"] <= first_integral * (1 + 1e-3)


def test_analyze_builds_one_reduced_action_per_set(tmp_path, monkeypatch):
    """The trace and the quantum-HJ check of a set share one ReducedAction."""
    built = []

    class Counted(rq.ReducedAction):
        def __init__(self, basis, params, setup):
            built.append((params.a, params.b))
            super().__init__(basis, params, setup)

    monkeypatch.setattr(pipeline, "ReducedAction", Counted)
    monkeypatch.setattr(trajectory, "ReducedAction", Counted)
    cfg = RunConfig(potential_kind="linear", grid_min=-500.0, grid_max=500.0, grid_step=0.2,
                    x0=-500.0, param_sets=[(4.0, 2.5), (8.0, -3.0), (5.0, 2.0)],
                    sync="phi2_zero", out_dir=str(tmp_path)).validate()
    pipeline.run_analyze(cfg)
    assert built == [(4.0, 2.5), (8.0, -3.0), (5.0, 2.0)]
    per_set = json.loads((tmp_path / "validation.json").read_text())["per_set"]
    assert all("quantum_hj_max" in e for e in per_set)


@pytest.mark.parametrize("name, expected", [
    ("fig1", (5.731321e-4, 3.298805e-4, 2.759214e-2)),
    ("fig3", (5.941793e-5, 4.183189e-4, 6.790526e-5)),
])
def test_first_integral_committed_configs(tmp_path, name, expected):
    """Per-set maxima pinned at the values of the oracle-checked stencil.
    fig3's are those of the phase-rule trace on its 0.2 fm grid at stride 1
    (5.939995e-5, 4.273193e-4 and 6.815105e-5 for the Simpson trace on the
    0.05 fm grid at stride 4)."""
    cfg = with_keys(parse_config(CONFIGS / f"{name}.cfg"), out_dir=str(tmp_path))
    pipeline.run_analyze(cfg)
    per_set = json.loads((tmp_path / "validation.json").read_text())["per_set"]
    got = [e["first_integral_max"] for e in per_set]
    assert got == pytest.approx(expected, rel=1e-6)


def test_analyze_of_a_constant_potential_builds_no_basis_and_no_action(tmp_path, monkeypatch):
    """fig1's closed forms need no basis, so ``analyze`` solves none, builds
    no action and runs no quantum-HJ check: each set records its closure and
    first-integral maxima only.  ``test_quantum_hj_analytic_basis`` checks
    the closed-form algebra that check would read."""
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for module, name in ((pipeline, "build_basis"), (build, "solve_constant"),
                         (pipeline, "ReducedAction"), (trajectory, "ReducedAction"),
                         (pipeline, "rqshje_residual")):
        monkeypatch.setattr(module, name, forbidden(name))
    cfg = with_keys(parse_config(CONFIGS / "fig1.cfg"), out_dir=str(tmp_path))
    pipeline.run_analyze(cfg)
    per_set = json.loads((tmp_path / "validation.json").read_text())["per_set"]
    assert [sorted(e) for e in per_set] == [["a", "b", "closure_max", "first_integral_max"]] * 3


def _committed_sets(name):
    """(setup, V, basis, sets) of a committed config, on ``build_basis``'s basis."""
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    setup, pot = build.build_setup(cfg), build.build_potential(cfg)
    return setup, pot, build.build_basis(cfg, setup, pot), cfg.param_sets


@pytest.mark.parametrize("case, bound", [("grid", 1e-9), ("fig1", 1e-12), ("fig2", 1e-12)],
                         ids=["grid", "fig1", "fig2"])
def test_quantum_hj_analytic_basis(electron2, const_basis, const_pot, case, bound):
    """The closed-form basis solves the quantum HJ equation to round-off:
    on a grid of 1/(100 k) steps, and on the basis and sets of the
    committed fig1 and fig2 configs (3.6e-13 and 4.9e-16), which
    ``analyze`` does not check per run.  1e-12 is perfbench's round-off
    floor for this residual."""
    if case == "grid":
        setup, pot, basis = electron2, const_pot, const_basis
        sets = ((1.0, 0.0), (0.2, 0.0), (4 / 3, -1.05), (0.25, 8.0), (2.0, 0.5))
    else:
        setup, pot, basis, sets = _committed_sets(case)
    for a, b in sets:
        ra = rq.ReducedAction(basis, rq.HiddenParams(a, b), setup)
        assert rq.rqshje_residual(ra, pot=pot).max_residual <= bound, (a, b)


def test_quantum_hj_rk4_convergence(electron2):
    """The ``rk4`` basis converges at fourth order while its quantum-HJ
    residual stays at round-off.  At steps 6.4, 3.2 and 1.6 fm (|k h| up to
    0.096) the basis is 2.4e-8, 1.5e-9 and 9.2e-11 of max|phi| off a 0.1 fm
    solve, ratios of 16.0; the residual, which measures the Wronskian that
    every Magnus step keeps, is below 1.1e-14 at each.  RK4 steps drifted
    the Wronskian at fourth order too, and that was the residual."""
    pot = rq.LinearPotential(1e-3)
    lo, hi = -1000.0, 600.0
    k0 = oscillatory_wavenumber(electron2, u0=float(pot.v(np.array([lo]))[0]))

    def solve(h):
        grid = lo + h * np.arange(round((hi - lo) / h) + 1)
        return rq.solve_numeric(electron2, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))

    ref = solve(0.1)
    errs = []
    for h in (6.4, 3.2, 1.6):
        basis = solve(h)
        rows = slice(None, None, round(h / 0.1))
        errs.append(max(np.max(np.abs(getattr(basis, c) - getattr(ref, c)[rows]))
                        / np.max(np.abs(getattr(ref, c))) for c in ("phi1", "phi2")))
        ra = rq.ReducedAction(basis, rq.HiddenParams(4.0, 2.5), electron2)
        assert rq.rqshje_residual(ra, pot=pot).max_residual <= 1e-13, h
    assert errs[2] >= 1e-11
    assert errs[0] / errs[1] >= 15 and errs[1] / errs[2] >= 15


def rqshje_whole_array(ra, pot):
    """The whole-grid quantum-HJ residual that the blocked one must equal."""
    setup = ra.setup
    x = ra.grid
    pc, pcp, pcpp = ra.momentum_derivatives(-wavenumber_sq(setup, pot, x))
    ev = setup.E - np.asarray(pot.v(x), dtype=float)
    t1 = pc * pc
    t2 = -(setup.hbar_c**2 / 2.0) * (1.5 * (pcp / pc) ** 2 - pcpp / pc)
    t3 = setup.rest_sq - ev * ev
    scale = np.max(np.abs(np.stack([t1, t2, t3])), axis=0)
    return np.abs(t1 + t2 + t3) / scale


@pytest.mark.parametrize("n", [EDGE - 1, EDGE, EDGE + 1,
                               2 * EDGE + 1])
@pytest.mark.parametrize("kind", ["linear", "tabulated"])
def test_blocked_quantum_hj_is_bit_equal(electron2, n, kind):
    xt = np.linspace(-2000.0, 2000.0, 4001)
    pot = rq.LinearPotential(1e-3) if kind == "linear" else rq.TabulatedPotential(
        xt, 1e-3 * xt + 2e-7 * xt**2 + 0.05 * np.sin(xt / 300.0))
    grid = -1000.0 + 0.05 * np.arange(n)
    k0 = oscillatory_wavenumber(electron2, u0=float(pot.v(grid[:1])[0]))
    basis = rq.solve_numeric(electron2, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))
    ra = rq.ReducedAction(basis, rq.HiddenParams(4.0, 2.5), electron2)
    got = rq.rqshje_residual(ra, pot=pot).residuals
    assert got.size == n
    assert np.array_equal(got.view(np.int64), rqshje_whole_array(ra, pot).view(np.int64))


def test_node_report_json(tmp_path, electron2):
    rep = rq.nodes_closed_form(electron2, 0.0, (0.0, 4 * rq.node_period(electron2, 0.0)))
    path = tmp_path / "nodes.json"
    write_json(path, rep.to_dict())
    data = json.loads(path.read_text())
    assert data["units"]["positions"] == "fm"
    assert len(data["times"]) == 4


def test_array_records_compare_by_identity(const_basis, electron2):
    """A record of arrays equals itself only: a copy with equal arrays is
    unequal, and comparing never tests an array's truth value."""
    tr = rq.trace_constant_oscillatory(electron2, 0.0, rq.HiddenParams(0.2, 0.0), 0.0,
                                       (0.0, 1e-21), 11)
    nodes = rq.NodeReport(np.zeros(2), np.zeros(2), np.ones(1), np.ones(1), np.ones(1),
                          np.ones(1), "closed_form")
    for record in (const_basis, tr, nodes, rq.closure_residual(tr)):
        twin = copy.deepcopy(record)
        assert record == record
        assert (record == twin) is False
        assert record != twin
