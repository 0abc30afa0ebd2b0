import dataclasses
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rqtraj as rq
from rqtraj import pipeline, trajectory
from rqtraj.analysis import (
    STENCIL_BLOCK, _STENCIL_WEIGHTS, _exact_step, _gradient_rows, _stencil_blocks,
)
from rqtraj.kleingordon import UNIFORM_REL_TOL, uniform_step, wavenumber_sq
from rqtraj.model import kinetic_term
from rqtraj.config import RunConfig, parse_config
from rqtraj.errors import InsufficientTrajectories, RegimeError, TooFewSamples
from rqtraj.output import write_json
from tests.conftest import oscillatory_wavenumber

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
    assert v == pytest.approx(
        rq.classical_velocity(electron2, rq.ConstantPotential(0.0), 0.0), rel=1e-12
    )
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
    assert p == pytest.approx(
        rq.classical_momentum(electron2, rq.ConstantPotential(0.0), 0.0), rel=1e-12
    )
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
    zeros = _zeros_of(basis.grid, basis.phi2)
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

    cfg = dataclasses.replace(parse_config(CONFIGS / "fig3.cfg"),
                              out_dir=str(tmp_path)).validate()
    pipeline.run_analyze(cfg)
    pipeline.run_trace(cfg)
    pipeline.run_basis(cfg)
    _, basis = read_csv(tmp_path / "basis_rk4.csv")
    zeros = _zeros_of(basis["x_fm"], basis["phi2"])
    curves = []
    for i in range(len(cfg.param_sets)):
        _, cols = read_csv(tmp_path / f"trajectory_{i}.csv")
        curves.append((cols["t_s"], cols["x_fm"]))
    reference = _zeros_in_window(zeros, curves, (cfg.t_min, cfg.t_max))
    nodes = json.loads((tmp_path / "nodes_detected.json").read_text())
    assert len(nodes["positions"]) == reference.size == 42
    np.testing.assert_array_equal(nodes["positions"], reference)
    np.testing.assert_array_equal(reference, zeros[1:])
    assert len(nodes["extras"]["arrival_spread_s"]) == 42
    assert len(nodes["extras"]["arrival_spread_per_period"]) == 42


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
        ds = np.interp(x_b, grid, ra.s0_grid) - np.interp(x_a, grid, ra.s0_grid)
        values.append(ds / (x_b - x_a) * electron2.c_fm_s)
    assert np.ptp(values) / p_cl < 1e-6
    for v in values:
        assert v == pytest.approx(p_cl, rel=1e-6)
        assert v == pytest.approx(np.pi * electron2.hbar_c / (x_b - x_a), rel=1e-6)
    # the grid-point API agrees at the snap resolution
    ra = rq.ReducedAction(basis, rq.HiddenParams(1.0, 0.0), electron2)
    snap = lambda x: float(grid[np.argmin(np.abs(grid - x))])
    assert rq.mean_momentum(ra, snap(x_a), snap(x_b)) == pytest.approx(p_cl, rel=1e-6)


def test_mean_momentum_short_interval_limit(electron2):
    """Mean over a short centered interval approaches the pointwise momentum."""
    k = oscillatory_wavenumber(electron2)
    h = 1e-3 / k
    grid = np.arange(0.0, 1000.0, h)
    basis = rq.solve_constant(electron2, 0.0, grid)
    ra = rq.ReducedAction(basis, rq.HiddenParams(4 / 3, -1.05), electron2)
    j = 500
    mean = rq.mean_momentum(ra, float(grid[j - 1]), float(grid[j + 1]))
    assert mean == pytest.approx(ra.momentum(float(grid[j])), rel=1e-4)


def test_mean_momentum_telescopes(electron2):
    """Multiple node gaps give the same mean as a single gap (pi hbar each)."""
    k = oscillatory_wavenumber(electron2)
    h = 5e-4 / k
    grid = np.arange(0.0, 4.2 * np.pi / k, h)
    basis = rq.solve_constant(electron2, 0.0, grid)
    ra = rq.ReducedAction(basis, rq.HiddenParams(0.25, 8.0), electron2)

    def mean_between(x_a, x_b):
        ds = np.interp(x_b, grid, ra.s0_grid) - np.interp(x_a, grid, ra.s0_grid)
        return ds / (x_b - x_a) * electron2.c_fm_s

    p_one = mean_between(np.pi / (2 * k), 3 * np.pi / (2 * k))
    p_many = mean_between(np.pi / (2 * k), 7 * np.pi / (2 * k))
    assert p_many == pytest.approx(p_one, rel=1e-6)


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
    cfg = dataclasses.replace(parse_config(CONFIGS / "fig1.cfg"), samples=2001,
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
    """Two samples per trace: closure and first integral record their errors."""
    cfg = dataclasses.replace(parse_config(CONFIGS / "fig1.cfg"), samples=2,
                              out_dir=str(tmp_path)).validate()
    manifest = pipeline.run_analyze(cfg)
    per_set = json.loads((tmp_path / "validation.json").read_text())["per_set"]
    for entry in per_set:
        assert entry["closure_error"] == "closure needs at least 3 samples"
        assert "closure_max" not in entry and "first_integral_error" in entry
        assert "quantum_hj_max" in entry
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
    xd = np.gradient(x, t, edge_order=2)
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


@pytest.fixture(scope="module")
def block_traces():
    """Traces long enough for 2 * STENCIL_BLOCK + 1 windows at stride 4:
    a closed form (uniform t) and a linear-potential quadrature (uniform x),
    and a tabulated potential whose dV and d2V are both non-zero."""
    setup = rq.PhysicalSetup(E=2.0, m0c2=0.511)
    n = 2 * STENCIL_BLOCK + 1 + 24
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
@pytest.mark.parametrize("windows", [1, STENCIL_BLOCK - 1, STENCIL_BLOCK, STENCIL_BLOCK + 1,
                                     2 * STENCIL_BLOCK + 1])
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
    return [(lo, min(lo + STENCIL_BLOCK, m) + 6 * stride) for lo in range(0, m, STENCIL_BLOCK)]


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("kind", ["uniform", "linspace", "uniform_inside"])
def test_gradient_rows_are_bit_equal_to_the_whole_trace_gradient(kind, stride):
    """Every block of the stencil, the first and the last included, and
    single rows at both ends: np.gradient of the whole trace, bit for bit.
    A step of 0.75 is exact, so 0.75 * arange has all steps equal (numpy's
    uniform formula); linspace steps differ in their last bits; and
    "uniform_inside" is that exact grid with one late sample moved, so the
    first block is exactly uniform inside a non-uniform trace, where a
    gradient of the block alone would take the other formula."""
    n = 2 * STENCIL_BLOCK + 6 * stride + 101
    t = np.linspace(-3.0, 7.0, n) if kind == "linspace" else 0.75 * np.arange(n)
    if kind == "uniform_inside":
        t[-3] += 1e-9
    x = np.sin(t / 7.0) + 1e-3 * t**2
    ref = np.gradient(x, t, edge_order=2)
    step = _exact_step(t)
    assert (step is None) == (kind != "uniform")
    rows = stencil_gradient_rows(n, stride) + [(0, 1), (n - 1, n), (1, 2), (n - 2, n - 1)]
    for lo, hi in rows:
        got = _gradient_rows(x, t, lo, hi, step)
        assert np.array_equal(got.view(np.int64), ref[lo:hi].view(np.int64)), (lo, hi)
    if kind == "uniform_inside":
        lo, hi = rows[0]
        alone = np.gradient(x[: hi + 1], t[: hi + 1], edge_order=2)[lo:hi]
        assert not np.array_equal(alone, ref[lo:hi])


def closure_whole_array(traj):
    """``closure_residual`` as one pass over the whole trace, kept as the
    oracle of the blocked evaluation."""
    setup, pot = traj.setup, traj.potential
    xd = traj.velocity_centered()
    kin = kinetic_term(setup, pot, traj.x[1:-1])
    return np.abs(xd * traj.momentum[1:-1] / (setup.direction * setup.c_fm_s * kin) - 1.0)


@pytest.mark.parametrize("n", [3, 4, STENCIL_BLOCK + 1, STENCIL_BLOCK + 2, STENCIL_BLOCK + 3,
                               2 * STENCIL_BLOCK + 3])
@pytest.mark.parametrize("var", ["t", "x"])
def test_blocked_closure_is_bit_equal(block_traces, var, n):
    _, traces, _ = block_traces
    full = traces[var]
    rows = slice(0, n)
    tr = dataclasses.replace(full, t=full.t[rows], x=full.x[rows], branch=full.branch[rows],
                             regime=full.regime[rows], momentum=full.momentum[rows])
    got = rq.closure_residual(tr).residuals
    assert got.size == n - 2
    assert np.array_equal(got.view(np.int64), closure_whole_array(tr).view(np.int64))


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
    ("fig3", (5.939995e-5, 4.273193e-4, 6.815105e-5)),
])
def test_first_integral_committed_configs(tmp_path, name, expected):
    """Per-set maxima pinned at the values of the oracle-checked stencil."""
    cfg = dataclasses.replace(parse_config(CONFIGS / f"{name}.cfg"), out_dir=str(tmp_path))
    pipeline.run_analyze(cfg)
    per_set = json.loads((tmp_path / "validation.json").read_text())["per_set"]
    got = [e["first_integral_max"] for e in per_set]
    assert got == pytest.approx(expected, rel=1e-6)


def test_quantum_hj_analytic_basis(electron2, const_basis, const_pot):
    for a, b in ((1.0, 0.0), (0.2, 0.0), (4 / 3, -1.05), (0.25, 8.0), (2.0, 0.5)):
        ra = rq.ReducedAction(const_basis, rq.HiddenParams(a, b), electron2)
        assert rq.rqshje_residual(ra, pot=const_pot).max_residual <= 1e-9, (a, b)


def test_quantum_hj_rk4_convergence(electron2):
    pot = rq.LinearPotential(1e-3)
    lo, hi = -1000.0, 500.0
    res = []
    for h in (0.8, 0.4, 0.2):
        grid = np.arange(lo, hi + h / 2, h)
        k0 = oscillatory_wavenumber(electron2, u0=float(pot.v(np.array([lo]))[0]))
        basis = rq.solve_numeric(electron2, pot, grid, init1=(0.0, k0), init2=(1.0, 0.0))
        ra = rq.ReducedAction(basis, rq.HiddenParams(4.0, 2.5), electron2)
        res.append(rq.rqshje_residual(ra, pot=pot).max_residual)
    assert res[0] / res[1] >= 3.9
    assert res[1] / res[2] >= 3.9


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


@pytest.mark.parametrize("n", [STENCIL_BLOCK - 1, STENCIL_BLOCK, STENCIL_BLOCK + 1,
                               2 * STENCIL_BLOCK + 1])
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
