import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtraj as rq
from rqtraj import pipeline
from rqtraj.config import RunConfig, parse_config, parse_config_text
from rqtraj.errors import ConfigError
from rqtraj.model import REGIME_TEXT
from rqtraj.output import config_hash, read_csv, write_csv
from tests.conftest import run_cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_const_config(out_dir, **overrides):
    cfg = RunConfig(
        energy=2.0,
        potential_kind="constant",
        u0=0.0,
        param_sets=[(0.2, 0.0), (4 / 3, -1.05), (0.25, 8.0)],
        x0=0.0,
        t_min=0.0,
        t_max=5 * rq.node_period(rq.PhysicalSetup(E=2.0, m0c2=0.510999), 0.0),
        samples=50001,
        grid_min=-200.0,
        grid_max=2000.0,
        grid_step=0.5,
        out_dir=str(out_dir),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg.validate()


def test_config_round_trip_bit_exact(tmp_path):
    cfg = small_const_config(tmp_path, t_max=5.4321e-21, param_sets=[(0.1, -2.25)])
    text = cfg.canonical_text()
    back = parse_config_text(text)
    assert back.canonical_text() == text
    for field in ("energy", "rest_energy", "t_max", "grid_step", "x0"):
        assert getattr(back, field) == getattr(cfg, field)
    assert back.param_sets == cfg.param_sets
    assert back.hash == cfg.hash


def canonical_text_oracle(cfg):
    """The hand-written canonical text the table-driven one replaced, verbatim."""
    self = cfg
    sets = "; ".join(f"{a!r},{b!r}" for a, b in self.param_sets)
    return (
        "[particle]\n"
        f"rest_energy = {self.rest_energy!r} MeV\n"
        f"energy = {self.energy!r} MeV\n"
        f"hbar_scale = {self.hbar_scale!r}\n"
        "\n[potential]\n"
        f"kind = {self.potential_kind}\n"
        f"u0 = {self.u0!r} MeV\n"
        f"slope = {self.slope!r} MeV/fm\n"
        f"file = {self.table_file}\n"
        "\n[trajectories]\n"
        f"sets = {sets}\n"
        f"x0 = {self.x0!r} fm\n"
        f"t_min = {self.t_min!r} s\n"
        f"t_max = {self.t_max!r} s\n"
        f"samples = {self.samples}\n"
        f"window = {self.window!r} fm\n"
        f"direction = {'+' if self.direction > 0 else '-'}\n"
        f"sync = {self.sync}\n"
        "\n[numerics]\n"
        f"method = {self.method}\n"
        f"basis_init = {self.basis_init}\n"
        f"grid_min = {self.grid_min!r} fm\n"
        f"grid_max = {self.grid_max!r} fm\n"
        f"grid_step = {self.grid_step!r} fm\n"
        "\n[output]\n"
        f"dir = {self.out_dir}\n"
    )


EDGE_FLOATS = [-0.0, 5e-324, 1e300, 0.1]
# edge values first, so shrinking lands on them; then any finite double
any_float = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
positive = st.sampled_from([5e-324, 1e300, 0.1]) | st.floats(min_value=5e-324, allow_infinity=False)
ordered = st.tuples(any_float, any_float).filter(lambda p: p[0] != p[1]).map(sorted)
nonzero = any_float.filter(lambda v: v != 0)
path_text = st.text(alphabet="abcXYZ019/_.-%", min_size=1, max_size=12)


@st.composite
def run_configs(draw):
    grid_min, grid_max = draw(ordered)
    t_min, t_max = draw(ordered)
    return RunConfig(
        rest_energy=draw(positive), energy=draw(any_float), hbar_scale=draw(positive),
        potential_kind=draw(st.sampled_from(["constant", "linear", "tabulated"])),
        u0=draw(any_float), slope=draw(any_float), table_file=draw(path_text),
        param_sets=draw(st.lists(st.tuples(nonzero, any_float), min_size=1, max_size=4)),
        x0=draw(any_float), t_min=t_min, t_max=t_max,
        samples=draw(st.integers(2, 10**9)), window=draw(positive),
        direction=draw(st.sampled_from([1, -1])),
        sync=draw(st.sampled_from(["psi_zero", "phi2_zero", "exact"])),
        method=draw(st.sampled_from(["rk4", "euler"])),
        basis_init=draw(st.sampled_from(["sincos", "unit"])),
        grid_min=grid_min, grid_max=grid_max, grid_step=draw(positive),
        out_dir=draw(path_text),
    ).validate()


@given(cfg=run_configs())
@settings(max_examples=300, deadline=None)
def test_canonical_text_matches_oracle_and_round_trips(cfg):
    text = cfg.canonical_text()
    assert text == canonical_text_oracle(cfg)
    assert parse_config_text(text).canonical_text() == text


@pytest.mark.parametrize("field, values", [
    ("potential_kind", ["constant", "linear", "tabulated"]),
    ("direction", [1, -1]),
    ("sync", ["psi_zero", "phi2_zero", "exact"]),
    ("method", ["rk4", "euler"]),
    ("basis_init", ["sincos", "unit"]),
])
def test_canonical_text_every_choice(field, values):
    for value in values:
        cfg = RunConfig(table_file="v.tab", **{field: value}).validate()
        text = cfg.canonical_text()
        assert text == canonical_text_oracle(cfg)
        assert getattr(parse_config_text(text), field) == value


@pytest.mark.parametrize("name, digest", [
    ("fig1", "6f63c3b0aff241fb17b58e7f6c9c265c0701c36676b91cd77d6b1cfb48b6af45"),
    ("fig2", "960390210b612cbc988c806ca3f1288390f6b2499eb2a683e1fb2d8e58a7c4fc"),
    ("fig3", "ef4387cf1191801d358c0e89a5e5cc148cdaaf19743f5a495c4f256e9c2d2190"),
])
def test_committed_config_hashes_are_pinned(name, digest):
    assert parse_config(CONFIGS / f"{name}.cfg").hash == digest


@pytest.mark.parametrize("text, line, words", [
    ("[particle]\nenergy = nan MeV\n", 2, "energy.*not a finite number"),
    ("[particle]\nenergy = 2.0 MeV\nhbar_scale = inf\n", 3, "hbar_scale.*not a finite"),
    ("[trajectories]\nx0 = 0.0 fm\nsets = 0.2,0; 1.0,nan\n", 3, "sets.*not a finite"),
    ("[numerics]\ngrid_stpe = 5.0 fm\n", 2, "unknown key"),
    ("[particle]\nenergy = 2.0 MeV\n\n[numerisc]\ngrid_step = 5.0 fm\n", 4, r"unknown section \[numerisc\]"),
    ("[DEFAULT]\nenergy = 2.0 MeV\n", 1, r"unknown section \[DEFAULT\]"),
    ("[trajectories]\nsets = \n", 2, "sets.*at least one"),
    ("[trajectories]\nsets = ;\n", 2, "sets.*at least one"),
    ("[trajectories]\nsamples = 2.9\n", 2, "samples.*whole number"),
    ("[trajectories]\nsamples = 1\n", 2, "samples.*above 1"),
    ("[particle]\nrest_energy = 0.0 MeV\n", 2, "rest_energy.*above 0"),
    ("[numerics]\nmethod = rk5\n", 2, "method.*one of"),
    ("# energy first\n[particle]\nEnergy = 2.0\n", 3, "energy.*MeV"),
    ("[particle]\nrest_energy = 0.5 MeV\nENERGY  : 2.0 GeV\n", 3, "energy.*MeV"),
])
def test_config_rejections_name_the_line(text, line, words):
    with pytest.raises(ConfigError, match=rf"^config line {line}: .*{words}"):
        parse_config_text(text)


def test_config_whole_float_samples_still_parse():
    assert parse_config_text("[trajectories]\nsamples = 20001.0\n").samples == 20001


def test_config_percent_sign_is_literal():
    # canonical_text writes paths verbatim, so no interpolation on the way back
    assert parse_config_text("[output]\ndir = runs/100%\n").out_dir == "runs/100%"


def test_config_requires_units():
    with pytest.raises(ConfigError, match=r"line \d+.*energy.*MeV"):
        parse_config_text("[particle]\nenergy = 2.0\n")
    with pytest.raises(ConfigError, match="MeV"):
        parse_config_text("[particle]\nenergy = 2.0 GeV\n")


def test_config_rejects_zero_a():
    with pytest.raises(ConfigError, match="non-zero"):
        parse_config_text("[trajectories]\nsets = 0,1\n")


def test_config_rejects_bad_direction():
    with pytest.raises(ConfigError, match="direction"):
        parse_config_text("[trajectories]\ndirection = up\n")


def test_cli_exit_code_2_on_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[trajectories]\nsets = 0,1\n")
    result = run_cli(["trace", "--config", str(bad)])
    assert result.exit_code == 2
    assert "non-zero" in result.output


@pytest.mark.parametrize("text, extra", [
    ("[particle]\nenergy = nan MeV\n", []),
    ("[particle]\nenergy = 2.0 MeV\n", ["hbar_scale = nan"]),
    ("[numerics]\ngrid_stpe = 5.0 fm\n", []),
    ("[numerisc]\ngrid_step = 5.0 fm\n", []),
    ("[trajectories]\nsamples = 2.9\n", []),
    ("[trajectories]\nwindow = -5.0 fm\n", []),
    ("[trajectories]\nwindow = 0.0 fm\n", []),
])
def test_cli_exit_code_2_on_malformed_config(tmp_path, text, extra):
    """``extra`` lines go at the end of the file."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(text + "".join(f"{line}\n" for line in extra))
    result = run_cli(["trace", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("table, cause", [
    (None, "No such file"),
    ([("x_fm", [0.0, 1.0, 2.0])], "needs 2 columns"),
    ([("x_fm", [0.0, 2.0, 1.0]), ("V_MeV", [0.0, 0.0, 0.0])], "strictly increasing"),
])
def test_cli_exit_code_2_on_unreadable_table(tmp_path, table, cause):
    path = tmp_path / "v.tab"
    if table is not None:
        write_csv(path, [], [(name, np.array(values)) for name, values in table])
    cfgp = tmp_path / "run.cfg"
    RunConfig(potential_kind="tabulated", table_file=str(path)).to_file(cfgp)
    result = run_cli(["trace", "--config", str(cfgp), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output and str(path) in result.output
    assert cause in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("command", [["basis"], ["trace"], ["analyze"], ["figure", "--figure", "3"]])
def test_cli_exit_code_2_on_non_finite_table(tmp_path, command, bad):
    """One V of a 201-row table is nan or inf: every command stops before it
    writes a file.  Unchecked, basis wrote a drift of nan and a CSV of nan
    fields, trace failed with a ValueError traceback and analyze reported
    E = V."""
    path = tmp_path / "v.tab"
    x = np.linspace(-600.0, 600.0, 201)
    v = 1e-3 * x
    v[100] = bad
    write_csv(path, [], [("x_fm", x), ("V_MeV", v)])
    cfgp = tmp_path / "run.cfg"
    RunConfig(potential_kind="tabulated", table_file=str(path), grid_min=-500.0,
              grid_max=500.0, grid_step=0.2, x0=-500.0, param_sets=[(4.0, 2.5), (8.0, -3.0)],
              sync="phi2_zero").to_file(cfgp)
    result = run_cli([*command, "--config", str(cfgp), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output and str(path) in result.output
    assert "must be finite" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_figure_exit_code_2_on_empty_sets(tmp_path):
    text = (CONFIGS / "fig2.cfg").read_text().replace("sets = 0.25,8", "sets = ")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    result = run_cli(["figure", "--config", str(bad), "--figure", "2",
                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output and "sets" in result.output


def edited_config(tmp_path, name, **changes):
    """Committed config ``name`` with ``changes``, written to tmp_path/out."""
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "out"), **changes).validate()
    path = tmp_path / f"{name}_edited.cfg"
    cfg.to_file(path)
    return path


def test_cli_energy_equals_constant_potential(tmp_path):
    """fig2 with U0 = E: trace records the typed error per set, analyze
    exits 3 with it, and neither ends in a traceback."""
    path = edited_config(tmp_path, "fig2", u0=0.3)
    result = run_cli(["trace", "--config", str(path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert [e["status"] for e in manifest["sets"]] == ["error"]
    assert manifest["sets"][0]["error"].startswith("EnergyEqualsPotential: ")
    result = run_cli(["analyze", "--config", str(path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "numerical failure: EnergyEqualsPotential" in result.output


@pytest.mark.parametrize("name, figure, changes, error", [
    ("fig2", 2, {"u0": 0.3}, "EnergyEqualsPotential"),
    ("fig1", 1, {"energy": 0.510999 * (1 - 1e-14)}, "TurningPointSingular"),
])
def test_cli_figure_without_a_curve_exits_3(tmp_path, name, figure, changes, error):
    path = edited_config(tmp_path, name, **changes)
    result = run_cli(["figure", "--config", str(path), "--figure", str(figure)])
    assert result.exit_code == 3, result.output
    assert f"numerical failure: RqtError: figure {figure} has no trajectory to plot (" \
        in result.output
    assert f"a=0.25, b=8: {error}: " in result.output
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("sign", [1, -1])
def test_cli_turning_band_is_one_behaviour(tmp_path, sign):
    """fig1 with E - U0 = m0c2 (1 +- 1e-14): every set is a typed error on
    both sides of the band, and analyze and figure exit 3."""
    path = edited_config(tmp_path, "fig1", energy=0.510999 * (1 + sign * 1e-14))
    result = run_cli(["trace", "--config", str(path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert len(manifest["sets"]) == 3
    for entry in manifest["sets"]:
        assert entry["status"] == "error"
        assert entry["error"].startswith("TurningPointSingular: ")
    result = run_cli(["analyze", "--config", str(path)])
    assert result.exit_code == 3, result.output
    assert "numerical failure: TurningPointSingular" in result.output
    result = run_cli(["figure", "--config", str(path), "--figure", "1",
                      "--out", str(tmp_path / "figure")])
    assert result.exit_code == 3, result.output
    assert not list((tmp_path / "figure").glob("*"))


def test_cli_grid_of_one_point_is_a_config_error(tmp_path):
    path = edited_config(tmp_path, "fig1", grid_step=5000.0)
    result = run_cli(["basis", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert "config error: [numerics] grid_step 5000.0 fm leaves 1 grid point" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_3_on_numerical_failure(tmp_path):
    cfg = RunConfig(potential_kind="linear", slope=1e-3, grid_min=-500.0,
                    grid_max=500.0, grid_step=40.0, out_dir=str(tmp_path / "o"))
    path = tmp_path / "steptoolarge.cfg"
    cfg.to_file(path)
    result = run_cli(["basis", "--config", str(path)])
    assert result.exit_code == 3


def test_cli_basis_constant(tmp_path):
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out").to_file(cfgp)
    result = run_cli(["basis", "--config", str(cfgp)])
    assert result.exit_code == 0, result.output
    meta, cols = read_csv(tmp_path / "out" / "basis_analytic.csv")
    w = cols["wronskian_per_fm"]
    assert np.max(np.abs(w / w[0] - 1)) < 1e-12
    assert "config_hash" in meta


def test_cli_basis_compare_methods(tmp_path):
    cfg = RunConfig(potential_kind="linear", slope=1e-3, grid_min=-500.0,
                    grid_max=500.0, grid_step=0.2, out_dir=str(tmp_path / "out"))
    cfgp = tmp_path / "lin.cfg"
    cfg.to_file(cfgp)
    result = run_cli(["basis", "--config", str(cfgp), "--compare-methods"])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "basis_manifest.json").read_text())
    assert set(manifest["drift"]) == {"euler", "rk4"}
    assert manifest["drift"]["euler"] > 1e2 * manifest["drift"]["rk4"]
    assert (tmp_path / "out" / "basis_euler.csv").exists()
    assert (tmp_path / "out" / "basis_rk4.csv").exists()


def test_cli_trace_emits_per_set_files(tmp_path):
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out", samples=5001).to_file(cfgp)
    result = run_cli(["trace", "--config", str(cfgp)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert len(manifest["sets"]) == 3
    assert all(s["status"] == "ok" for s in manifest["sets"])
    assert Path(manifest["classical"]).exists()
    for s in manifest["sets"]:
        meta, cols = read_csv(s["file"])
        assert meta["config_hash"] == manifest["config_hash"]
        assert list(cols)[:4] == ["t_s", "x_fm", "branch_n", "regime"]


def test_cli_trace_continues_after_per_set_error(tmp_path):
    # second set is fine, first set hits the branch-resolution guard on a
    # deliberately coarse sampling of an extremely peaky staircase
    cfg = small_const_config(tmp_path / "out", samples=5001,
                             param_sets=[(1.0, 0.0), (0.2, 0.0)])
    cfg.energy = cfg.rest_energy  # turning point: closed form must refuse
    cfgp = tmp_path / "c.cfg"
    cfg.to_file(cfgp)
    result = run_cli(["trace", "--config", str(cfgp)])
    assert result.exit_code == 0
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert all(s["status"] == "error" for s in manifest["sets"])
    assert "TurningPointSingular" in manifest["sets"][0]["error"]


def test_cli_trace_evanescent_divergence_marker(tmp_path):
    cfg = RunConfig(energy=0.3, potential_kind="constant", u0=0.0,
                    param_sets=[(0.25, 8.0)], t_min=0.0, t_max=1.9e-21,
                    samples=2001, window=2.0e4, out_dir=str(tmp_path / "out"))
    cfgp = tmp_path / "e.cfg"
    cfg.to_file(cfgp)
    result = run_cli(["trace", "--config", str(cfgp)])
    assert result.exit_code == 0, result.output
    meta, cols = read_csv(tmp_path / "out" / "trajectory_0.csv")
    assert "divergence_time_s" in meta
    assert float(meta["divergence_time_s"]) > 0
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert manifest["sets"][0]["divergence_kind"] == "tan_singularity"
    assert cols["regime"][0] == "evanescent"


def test_fig3_trace_writes_a_row_view_inside_the_window(tmp_path):
    cfg = parse_config(CONFIGS / "fig3.cfg")
    cfg.out_dir = str(tmp_path / "out")
    manifest = pipeline.run_trace(cfg)
    trajs = [tr for _, tr, _ in pipeline._family(cfg, *pipeline._stage(cfg))]
    for entry, tr in zip(manifest["sets"], trajs):
        assert entry["status"] == "ok"
        _, cols = read_csv(entry["file"])
        t = cols["t_s"]
        assert t[0] >= cfg.t_min and t[-1] <= cfg.t_max
        assert t.size <= cfg.samples < tr.t.size
        # first and last in-window rows of the full trace are both written
        inside = np.flatnonzero((tr.t >= cfg.t_min) & (tr.t <= cfg.t_max))
        assert t[0] == tr.t[inside[0]] and t[-1] == tr.t[inside[-1]]
        # every written row is a row the trace computed
        found = np.searchsorted(tr.t, t)
        for name, full in (("t_s", tr.t), ("x_fm", tr.x), ("P_MeV_per_c", tr.momentum)):
            assert np.array_equal(cols[name], full[found]), name
        assert np.array_equal(cols["branch_n"], tr.branch[found])
        assert cols["regime"].tolist() == REGIME_TEXT[tr.regime[found]].tolist()


def test_cli_trace_empty_window_is_a_per_set_error(tmp_path):
    cfg = RunConfig(potential_kind="linear", grid_min=-500.0, grid_max=500.0, grid_step=0.2,
                    x0=-500.0, param_sets=[(4.0, 2.5), (8.0, -3.0)], sync="phi2_zero",
                    t_min=1.0, t_max=2.0, out_dir=str(tmp_path / "out")).validate()
    cfgp = tmp_path / "c.cfg"
    cfg.to_file(cfgp)
    result = run_cli(["trace", "--config", str(cfgp)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    for entry in manifest["sets"]:
        assert entry["status"] == "error"
        assert entry["error"].startswith("TooFewSamples: 0 of 5001 trace rows")
    assert not list((tmp_path / "out").glob("trajectory_*.csv"))


def test_cli_trace_grid_step_that_does_not_divide_the_span(tmp_path):
    """grid_step = 0.3 fm leaves the grid on [-500, 500] fm ending at 499.9
    fm: each set traces the grid as built, to its last point, and writes
    its file."""
    cfg = RunConfig(potential_kind="linear", grid_min=-500.0, grid_max=500.0, grid_step=0.3,
                    x0=-500.0, param_sets=[(4.0, 2.5), (8.0, -3.0)], sync="phi2_zero",
                    out_dir=str(tmp_path / "out")).validate()
    cfgp = tmp_path / "c.cfg"
    cfg.to_file(cfgp)
    result = run_cli(["trace", "--config", str(cfgp)])
    assert result.exit_code == 0, result.output
    grid = pipeline.build_grid(cfg)
    assert grid[-1] < cfg.grid_max - 0.05
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert len(manifest["sets"]) == 2
    for entry in manifest["sets"]:
        assert entry["status"] == "ok", entry
        assert Path(entry["file"]).is_file()
        assert entry["end_x_fm"] == grid[-1]


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_a_trace_that_ends_before_t_max_records_its_end(tmp_path, name):
    """fig3's traces stop at the end of the grid, x = 1450 fm, before t_max:
    each carries end_t_s and end_x_fm, its last row, in its manifest entry
    and its CSV footer.  fig1's and fig2's closed forms run to t_max and
    carry neither.  No trace starts after t_min, so none carries a start."""
    cfg = dataclasses.replace(parse_config(CONFIGS / f"{name}.cfg"),
                              out_dir=str(tmp_path / "out"))
    manifest = pipeline.run_trace(cfg)
    trajs = [tr for _, tr, _ in pipeline._family(cfg, *pipeline._stage(cfg))]
    assert len(trajs) == len(manifest["sets"])
    for entry, tr in zip(manifest["sets"], trajs):
        footer, _ = read_csv(entry["file"])
        if name == "fig3":
            assert tr.t[-1] < cfg.t_max and tr.x[-1] == pipeline.build_grid(cfg)[-1]
            assert (entry["end_t_s"], entry["end_x_fm"]) == (tr.t[-1], tr.x[-1])
            assert (float(footer["end_t_s"]), float(footer["end_x_fm"])) == (tr.t[-1], tr.x[-1])
        else:
            assert tr.t[-1] == cfg.t_max
            for key in ("end_t_s", "end_x_fm"):
                assert key not in entry and key not in footer and key not in tr.meta["events"]
        assert tr.t[0] <= cfg.t_min
        for key in ("start_t_s", "start_x_fm"):
            assert key not in entry and key not in footer and key not in tr.meta["events"]


def test_a_trace_that_starts_after_t_min_records_its_start(tmp_path):
    """fig3 with t_min = -1.0e-20 s: each trace begins at the grid start,
    x = -5400 fm, a few 1e-23 s before t = 0 and long after t_min, and
    carries start_t_s and start_x_fm, its first row, in its manifest entry
    and its CSV footer."""
    cfg = dataclasses.replace(parse_config(CONFIGS / "fig3.cfg"), t_min=-1.0e-20,
                              out_dir=str(tmp_path / "out")).validate()
    manifest = pipeline.run_trace(cfg)
    trajs = [tr for _, tr, _ in pipeline._family(cfg, *pipeline._stage(cfg))]
    assert len(trajs) == len(manifest["sets"]) == 3
    for entry, tr in zip(manifest["sets"], trajs):
        assert cfg.t_min < tr.t[0] < 0.0 and tr.x[0] == cfg.grid_min
        footer, _ = read_csv(entry["file"])
        assert (entry["start_t_s"], entry["start_x_fm"]) == (tr.t[0], tr.x[0])
        assert (float(footer["start_t_s"]), float(footer["start_x_fm"])) == (tr.t[0], tr.x[0])
        assert "halt" not in entry


@pytest.mark.parametrize("name, figure, digests", [
    ("fig1", 1, {
        "classical.csv": "88f052e42ef35da833c3cd1572b4f6ad4b1aab64bb31624709c8a63652f5306d",
        "figure1.gp": "cc7228c3dbd68745de517e713c6a6c1730355f7929658d35702bad1c8b370c1a",
        "figure1_manifest.json":
            "ddbf0cff0e0a8bbda9a98376b255726466d2f0ceb9fc77c78d0d35259919f5c2",
        "nodes.csv": "2bc36557dc888ad62baca192f978b243a6ab6d3f8d53c3182f338503b2271456",
        "trace_manifest.json":
            "9f71a8ac7e3a1663361dc2481db9d4b3141809f415df7c4f6a86e2e1f32164c7",
        "trajectory_0.csv": "a7281471b0af7593e5853974f09e4779cf5e6112cee71f0d0cd4980aa68e60c8",
        "trajectory_1.csv": "71769b89a09561176ef3884875817fe19344149bc90c8965bda55f47d7e30a86",
        "trajectory_2.csv": "473b1cd331e272933f826db4121d78a4ea710eb09078bf3bfa73d0d7957c1c62",
    }),
    ("fig2", 2, {
        "figure2.gp": "5cba4442b3bd0eb97c45a191c85fd6d0418b05c4ceefb90c3a7d9a136b1a2aa4",
        "figure2_manifest.json":
            "7b52c65c04fac94fea4632d0be89c1cceebcdcc97c8c32859f0928b400ae37f4",
        "trace_manifest.json":
            "9edc98a043c5c3c8d7e594b49d76ced983cd8ae742b83365d64d5390f6d35a7b",
        "trajectory_0.csv": "c8637a4f0fcf7631837fb80a3f11766c192127389cf6e2d9c46de439a9a35dcf",
    }),
])
def test_closed_form_figure_outputs_are_pinned(tmp_path, monkeypatch, name, figure, digests):
    """Every closed-form row lies in its window, so the files keep their bytes."""
    monkeypatch.chdir(tmp_path)              # the config's relative out dir
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    pipeline.run_figure(cfg, figure)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / cfg.out_dir).iterdir()}
    assert written == digests


# fig1 from t_min: the closed-form ladder rungs n with t_min <= t_n <= t_max
WINDOW_RUNGS = [(2.0e-21, [2, 3, 4]), (-2.0e-21, [-2, -1, 0, 1, 2, 3, 4])]


@pytest.mark.parametrize("t_min, rungs", WINDOW_RUNGS)
def test_figure_node_markers_are_the_rungs_in_the_window(tmp_path, t_min, rungs):
    """fig1 from t_min: the markers are the ladder rungs t_min <= t_n <= t_max.

    From 2e-21 s they are 2.77, 3.88 and 4.98e-21 s, not the rungs at 0.55
    and 1.66e-21 s before the window; the family meets at the rungs before
    t = 0 too.
    """
    cfg = dataclasses.replace(parse_config(CONFIGS / "fig1.cfg"), t_min=t_min,
                              out_dir=str(tmp_path / "out")).validate()
    pipeline.run_figure(cfg, 1)
    _, cols = read_csv(tmp_path / "out" / "nodes.csv")
    setup = pipeline.build_setup(cfg)
    n = np.array(rungs, dtype=float)
    np.testing.assert_array_equal(cols["t_s"], (n + 0.5) * rq.node_period(setup, cfg.u0))
    np.testing.assert_array_equal(cols["x_fm"], (n + 0.5) * rq.node_spacing(setup, cfg.u0))
    assert t_min <= cols["t_s"].min() and cols["t_s"].max() <= cfg.t_max


@pytest.mark.parametrize("t_min, rungs", WINDOW_RUNGS)
def test_analyze_closed_form_nodes_are_the_rungs_in_the_window(tmp_path, t_min, rungs):
    """fig1 analyze from t_min: nodes_closed_form.json lists the rungs the
    figure marks, not rungs 0-9 whatever the window."""
    cfg = dataclasses.replace(parse_config(CONFIGS / "fig1.cfg"), t_min=t_min,
                              out_dir=str(tmp_path / "out")).validate()
    pipeline.run_analyze(cfg)
    nodes = json.loads((tmp_path / "out" / "nodes_closed_form.json").read_text())
    setup = pipeline.build_setup(cfg)
    dt, dx = rq.node_period(setup, cfg.u0), rq.node_spacing(setup, cfg.u0)
    n = np.array(rungs, dtype=float)
    np.testing.assert_array_equal(nodes["times"], (n + 0.5) * dt)
    np.testing.assert_array_equal(nodes["positions"], (n + 0.5) * dx)
    assert nodes["dt"] == [dt] * (n.size - 1) and nodes["dx"] == [dx] * (n.size - 1)


FIG3_DIGESTS = {
    "analyze_manifest.json": "dc9e4a601b13ce8355a412eeff4e5e876ac16da938ee6b8696d21e69df196e1a",
    "classical.csv": "71c9bb0191a2570f5df5ca08524077377245882df3e685fdc070c7e5ce717fb2",
    "figure3.gp": "8aeec211273e5e0163275ae56bf544dc2887853a982c8f77e90aa42c3ecb2aa3",
    "figure3_manifest.json": "b858a09d0e99a2bf61e8ad6a168e61e54d1b4ae39d559563d6fed37d6124e93d",
    "nodes.csv": "0ea12171b379e38162fb35fe336a5a6b5e7e5a16a70dcae7e4ad6b0f3b49db44",
    "nodes_detected.json": "b74290b4bf29d6916eea823f449227d95c0ca3fa4026a2d8c8387cd9b49127d3",
    "trace_manifest.json": "ec01e61c090026a116df270d82cd3a9eeec75a51465b7ed2bcd1f85f336bd665",
    "trajectory_0.csv": "d6555cbab72d7521b712036ac5d4481f5ba3771f5de2c1d509a8b3771a8d878d",
    "trajectory_1.csv": "149cec3263c25fd3fc5637f06c31b3db97390eda34cf528b149412814111ff84",
    "trajectory_2.csv": "8d743764dd894af2ef3adba2a73e29e6047ec9f0423141a2351ac5f48b2d5981",
    "validation.json": "6539a4a27d4f548b2e49af5aa251443b9a785ea7251e2f9306be7b611273fd14",
}


BASIS_DIGESTS = {
    "fig1": {
        "basis_analytic.csv": "e27af5b5c21b20157020a6285d7550cb1b1c7a4006e8c56ecf29f3c0e0003f58",
        "basis_manifest.json": "63c59ec8e022bcb311971e17a0899345e1343f4831c1aaa677e77f63be462619",
    },
    "fig2": {
        "basis_analytic.csv": "ca33a50c1769a39035865939929aa05ce6bd458503dc0f2f0a0b6d9edc67e561",
        "basis_manifest.json": "7d8a04c5bec56e6e22a30bb7fe452f076a9e2c30d812eef1402836d3799f7162",
    },
    "fig3": {
        "basis_euler.csv": "8d347b487af9bb5674fd02ce001687815fd709a62e36c20ce64ea9e2a4076a16",
        "basis_manifest.json": "f467a1cb15448398017c7b2b848832af06a9692bbbf0f7d5e7d4629d5d843bda",
        "basis_rk4.csv": "8665ed8b82c418ee02343e5ffa5001585340cb8a2f1c2c5ce271035c31fab272",
    },
}


@pytest.mark.parametrize("name", sorted(BASIS_DIGESTS))
def test_basis_outputs_are_pinned(tmp_path, monkeypatch, name):
    """basis --compare-methods: the closed-form and RK4/Euler bases keep every byte."""
    monkeypatch.chdir(tmp_path)              # the config's relative out dir
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    pipeline.run_basis(cfg, compare_methods=True)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / cfg.out_dir).iterdir()}
    assert written == BASIS_DIGESTS[name]


def test_quadrature_outputs_are_pinned(tmp_path, monkeypatch):
    """fig3 analyze and figure 3: the quadrature trace, node detection and
    validators keep every byte."""
    monkeypatch.chdir(tmp_path)              # the config's relative out dir
    cfg = parse_config(CONFIGS / "fig3.cfg")
    pipeline.run_analyze(cfg)
    pipeline.run_figure(cfg, 3)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / cfg.out_dir).iterdir()}
    assert written == FIG3_DIGESTS


@pytest.mark.parametrize("run, limit_mib", [
    (lambda cfg: pipeline.build_basis(cfg, pipeline.build_setup(cfg),
                                      pipeline.build_potential(cfg)), 12.5),
    (lambda cfg: pipeline.run_basis(cfg, compare_methods=True), 12.5),
    (pipeline.run_trace, 12.5),
    (pipeline.run_analyze, 14.5),
    (lambda cfg: pipeline.run_figure(cfg, 3), 14.5),
], ids=["build_basis", "basis", "trace", "analyze", "figure"])
def test_fig3_live_memory_peak(tmp_path, monkeypatch, run, limit_mib):
    """Live data of each fig3 command, by tracemalloc in process.  The
    in-place scan, one basis alive at a time in basis --compare-methods,
    one set's action and trace alive at a time, an action of three arrays,
    checks that work in blocks, only t and x kept for node detection, which
    runs once the basis is freed, the in-place trace and a one-byte regime
    code per trace row keep the peaks near 11.7 (the RK4 solve alone, and
    basis), 12.1 (trace) and 14.1 MiB (analyze, figure).  With the
    whole-array scan and whole trajectories kept for node detection the
    peaks were 20.9, 21.0, 25.1 and 25.1 MiB (build_basis, basis, analyze,
    figure); with an action that kept psi, psi' and D and whole-trace
    gradients, 16.6 (trace) and 18.6 MiB (analyze, figure)."""
    monkeypatch.chdir(tmp_path)              # the config's relative out dir
    cfg = parse_config(CONFIGS / "fig3.cfg")
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("name, digests", [
    ("fig1", {
        "analyze_manifest.json":
            "176b6628ec3a500937bb9ea0f3b4e2361dd67a92930f96b8bb33604bc06546c7",
        "nodes_closed_form.json":
            "eb8c12a2d6ec54d6ef1cc5cc7820493ab63d12e5e32f99c7e83820aa64b3127b",
        "nodes_detected.json":
            "a4247b7e48a6075e8f2d241802d6408364b1688d35cba1025f0840f923141014",
        "validation.json": "4f0c312243b379c5f081439ec353a1dbc87a454ed28bcb8dd39efecc6e3757c0",
    }),
    ("fig2", {
        "analyze_manifest.json":
            "0def5046f980ece91084af3239895421dcd758242eb46ba9f30990ad61d069f1",
        "validation.json": "35cef0ff37fbcba5ca572761d66ca00c991a5d2819aa6399be8292c6808c97d0",
    }),
])
def test_closed_form_analyze_outputs_are_pinned(tmp_path, monkeypatch, name, digests):
    """fig1 and fig2 analyze: node reports and validators keep every byte.

    fig1's closed-form ladder holds the five rungs up to t_max = 5.5e-21 s."""
    monkeypatch.chdir(tmp_path)              # the config's relative out dir
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    pipeline.run_analyze(cfg)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / cfg.out_dir).iterdir()}
    assert written == digests


def test_energy_equals_potential_is_a_per_set_error(tmp_path):
    """fig3 moved to [1600, 2400] fm: E - V changes sign at 2000 fm."""
    cfg = parse_config(CONFIGS / "fig3.cfg")
    cfg = dataclasses.replace(cfg, grid_min=1600.0, grid_max=2400.0, x0=1700.0,
                              sync="exact", out_dir=str(tmp_path / "out")).validate()
    manifest = pipeline.run_trace(cfg)
    assert [e["status"] for e in manifest["sets"]] == ["error"] * 3
    for entry in manifest["sets"]:
        assert entry["error"].startswith("EnergyEqualsPotential: E - V vanishes")
    assert not list((tmp_path / "out").glob("trajectory_*.csv"))


def test_cli_outputs_are_deterministic(tmp_path):
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out", samples=2001).to_file(cfgp)
    snap = {}
    for round_ in range(2):
        result = run_cli(["trace", "--config", str(cfgp)])
        assert result.exit_code == 0
        for f in sorted((tmp_path / "out").iterdir()):
            data = f.read_bytes()
            if round_ == 0:
                snap[f.name] = data
            else:
                assert snap[f.name] == data, f"{f.name} not byte-identical"


def test_cli_analyze_summary(tmp_path):
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out").to_file(cfgp)
    result = run_cli(["analyze", "--config", str(cfgp)])
    assert result.exit_code == 0, result.output
    assert "de Broglie wavelength" in result.output
    assert "dx == lambda/2" in result.output and "pass" in result.output
    nodes = json.loads((tmp_path / "out" / "nodes_detected.json").read_text())
    assert nodes["config_hash"]
    dx = np.array(nodes["dx"])
    assert np.max(np.abs(dx - 320.6016)) / 320.6016 < 1e-3
    # plumbing-grade sampling here; the acceptance suite pins the closure
    # tolerance at criterion-grade sampling
    val = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert all(e["closure_max"] < 5e-3 for e in val["per_set"])
    assert all(e["quantum_hj_max"] < 1e-9 for e in val["per_set"])


def test_cli_analyze_epsilon_scaling(tmp_path):
    dx = {}
    for eps, out in ((1.0, "out1"), (0.5, "out2")):
        cfgp = tmp_path / f"{out}.cfg"
        small_const_config(tmp_path / out, hbar_scale=eps).to_file(cfgp)
        res = run_cli(["analyze", "--config", str(cfgp)])
        assert res.exit_code == 0, res.output
        nodes = json.loads((tmp_path / out / "nodes_closed_form.json").read_text())
        dx[eps] = nodes["dx"][0]
    assert dx[0.5] / dx[1.0] == pytest.approx(0.5, abs=1e-12)


def test_cli_figure_scripts(tmp_path):
    res = run_cli(["figure", "--config", str(CONFIGS / "fig2.cfg"),
                   "--figure", "2", "--out", str(tmp_path / "f2")])
    assert res.exit_code == 0, res.output
    script = (tmp_path / "f2" / "figure2.gp").read_text()
    assert "set arrow" in script and "asymptote" in script
    assert "config_hash" in script


def test_console_entry_point(tmp_path):
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out", samples=501).to_file(cfgp)
    proc = subprocess.run(
        [sys.executable, "-m", "rqtraj.cli", "trace", "--config", str(cfgp)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["trace"],
    ["trace", "--config", "{tmp}/missing.cfg"],
    ["trace", "--config", "{tmp}"],
    ["trace", "--config", "{cfg}", "--out", "{cfg}"],
    ["figure", "--config", "{cfg}", "--figure", "4"],
    ["plot", "--config", "{cfg}"],
], ids=["no-config", "missing-config", "config-is-a-directory", "out-is-a-file",
        "figure-4", "unknown-command"])
def test_cli_usage_errors_exit_2(tmp_path, argv):
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out").to_file(cfgp)
    result = run_cli([arg.format(tmp=tmp_path, cfg=cfgp) for arg in argv])
    assert result.exit_code == 2, result.output
    assert "usage: rqtraj" in result.output and "error: " in result.output
    assert not (tmp_path / "out").exists()


def test_cli_unreadable_config_exits_2(tmp_path, monkeypatch):
    """A config that exists but cannot be read (faked: root reads any file)."""
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out").to_file(cfgp)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    result = run_cli(["trace", "--config", str(cfgp)])
    assert result.exit_code == 2, result.output
    assert f"argument --config: file {str(cfgp)!r} is not readable" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_help_lists_every_command():
    result = run_cli(["--help"])
    assert result.exit_code == 0, result.output
    for command in ("basis", "trace", "analyze", "figure"):
        assert re.search(rf"^ +{command} +\S", result.output, re.MULTILINE), command


def test_cli_import_loads_neither_click_nor_openssl():
    """Every command pays for what ``import rqtraj.cli`` loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rq.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rqtraj.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "rqtraj.cli" in loaded and "click" not in loaded
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("no builtin sha256 module: config_hash falls back to hashlib")
    assert not loaded & {"hashlib", "_hashlib"}


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_config_hash_is_the_sha256_of_the_canonical_text(name):
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    assert cfg.hash == hashlib.sha256(cfg.canonical_text().encode()).hexdigest()


def test_config_hash_of_non_ascii_text():
    text = "[output]\ndir = ħc/λ — 197.3 MeV·fm ✓\n"
    assert config_hash(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()
