import ast
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rqtraj as rq
from rqtraj import pipeline
from rqtraj.config import MAX_GRID_POINTS, RunConfig, config_hash, parse_config, parse_config_text
from rqtraj.errors import ConfigError
from rqtraj.model import REGIME_TEXT
from rqtraj.output import read_csv, write_csv
from tests.conftest import run_cli, with_keys

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


def test_run_config_keeps_fresh_defaults_and_rejects_unknown_names():
    """Each RunConfig gets its own default ``param_sets`` list, a name that
    is no key is a TypeError, and a key can be set after construction."""
    first, second = RunConfig(), RunConfig()
    first.param_sets.append((1.0, 1.0))
    assert second.param_sets == [(0.2, 0.0), (4.0 / 3.0, -1.05), (0.25, 8.0)]
    with pytest.raises(TypeError, match="window"):
        RunConfig(window=2e4)
    second.out_dir = "elsewhere"
    assert second.canonical_text().endswith("[output]\ndir = elsewhere\n")


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
        f"direction = {'+' if self.direction > 0 else '-'}\n"
        f"sync = {self.sync}\n"
        "\n[numerics]\n"
        f"method = {self.method}\n"
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
    # a step that leaves the grid between 2 and MAX_GRID_POINTS points
    grid_step = (grid_max - grid_min) / draw(st.integers(1, MAX_GRID_POINTS - 1))
    assume(0 < grid_step < math.inf)
    t_min, t_max = draw(ordered)
    kind = draw(st.sampled_from(["constant", "linear", "tabulated"]))
    if kind == "constant":
        x0 = draw(any_float)
    else:
        # a linear or tabulated x0 lies on the grid, up to build_grid's last point
        last = grid_min + grid_step * round((grid_max - grid_min) / grid_step)
        x0 = draw(st.floats(min_value=grid_min, max_value=min(grid_max, last)))
    return RunConfig(
        rest_energy=draw(positive), energy=draw(any_float), hbar_scale=draw(positive),
        potential_kind=kind,
        u0=draw(any_float), slope=draw(any_float), table_file=draw(path_text),
        param_sets=draw(st.lists(st.tuples(nonzero, any_float), min_size=1, max_size=4)),
        x0=x0, t_min=t_min, t_max=t_max,
        samples=draw(st.integers(2, MAX_GRID_POINTS)),
        direction=draw(st.sampled_from([1, -1])),
        sync=draw(st.sampled_from(["psi_zero", "phi2_zero", "exact"])),
        grid_min=grid_min, grid_max=grid_max, grid_step=grid_step,
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
    ("method", ["rk4"]),
])
def test_canonical_text_every_choice(field, values):
    for value in values:
        cfg = RunConfig(table_file="v.tab", **{field: value}).validate()
        text = cfg.canonical_text()
        assert text == canonical_text_oracle(cfg)
        assert getattr(parse_config_text(text), field) == value


CONFIG_DIGESTS = {
    "fig1": "539cf97bc0d6ec1bc1cc7c2364116b6e0b1266e10bc004e69d3fae792b7f03a1",
    "fig2": "1c0c2658fa282a3077ee4eaa162345ca59ae162ddb80bc4b09afdaefaa679eb3",
    "fig3": "e6cc409b3b51d1bb98631ca14bbdef30f19d08f4b9adcb6b7f60ec7b808a7453",
}


@pytest.mark.parametrize("name", sorted(CONFIG_DIGESTS))
def test_committed_config_hashes_are_pinned(name):
    assert parse_config(CONFIGS / f"{name}.cfg").hash == CONFIG_DIGESTS[name]


@pytest.mark.parametrize("text, line, words", [
    ("[particle]\nenergy = nan MeV\n", 2, "energy.*not a finite number"),
    ("[particle]\nenergy = 2.0 MeV\nhbar_scale = inf\n", 3, "hbar_scale.*not a finite"),
    ("[trajectories]\nx0 = 0.0 fm\nsets = 0.2,0; 1.0,nan\n", 3, "sets.*not a finite"),
    ("[numerics]\ngrid_stpe = 5.0 fm\n", 2, "unknown key"),
    ("[trajectories]\nsamples = 2001\nwindow = 2.0e4 fm\n", 3, "window: unknown key"),
    ("[numerics]\nmethod = rk4\nbasis_init = sincos\n", 3, "basis_init: unknown key"),
    ("[particle]\nenergy = 2.0 MeV\n\n[numerisc]\ngrid_step = 5.0 fm\n", 4, r"unknown section \[numerisc\]"),
    ("[DEFAULT]\nenergy = 2.0 MeV\n", 1, r"unknown section \[DEFAULT\]"),
    ("[trajectories]\nsets = \n", 2, "sets.*at least one"),
    ("[trajectories]\nsets = ;\n", 2, "sets.*at least one"),
    ("[trajectories]\nsamples = 2.9\n", 2, "samples.*whole number"),
    ("[trajectories]\nsamples = 1\n", 2, "samples.*above 1"),
    ("[trajectories]\nsamples = 1e12\n", 2, f"samples.*at most {MAX_GRID_POINTS}"),
    ("[particle]\nrest_energy = 0.0 MeV\n", 2, "rest_energy.*above 0"),
    ("[numerics]\nmethod = rk5\n", 2, "method.*one of"),
    ("[numerics]\nmethod = euler\n", 2, "method: must be one of rk4, got 'euler'"),
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


@pytest.mark.parametrize("step, words", [
    ("7000.0", "leaves 1 grid point"),
    ("5e-324", "leaves no finite number of grid points"),
    ("1e-12", f"leaves over {MAX_GRID_POINTS} grid points"),
    ("1e-300", f"leaves over {MAX_GRID_POINTS} grid points"),
])
def test_config_rejects_a_grid_of_one_point_or_unbounded(step, words):
    """On the default grid, [-2000, 1200] fm: 1e-12 fm would give 3.2e15
    points and 1e-300 fm a 304-digit count."""
    with pytest.raises(ConfigError, match=rf"^\[numerics\] grid_step {step} fm .*{words}"):
        parse_config_text(f"[numerics]\ngrid_step = {step} fm\n")


def test_grid_cap_is_inclusive_and_far_above_fig3():
    at_cap = RunConfig(grid_min=0.0, grid_max=MAX_GRID_POINTS - 1.0, grid_step=1.0)
    assert at_cap.validate().grid_points() == MAX_GRID_POINTS
    with pytest.raises(ConfigError, match="leaves over"):
        with_keys(at_cap, grid_max=float(MAX_GRID_POINTS)).validate()
    assert parse_config(CONFIGS / "fig3.cfg").grid_points() == 34251
    assert MAX_GRID_POINTS >= 50 * 140001


def test_cli_grid_over_the_cap_is_a_config_error(tmp_path):
    path = tmp_path / "huge.cfg"
    cfg = parse_config(CONFIGS / "fig2.cfg")
    with_keys(cfg, out_dir=str(tmp_path / "out"), grid_step=1e-12).to_file(path)
    result = run_cli(["basis", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert "config error: [numerics] grid_step 1e-12 fm leaves over" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


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
    ("[trajectories]\nsamples = 1e12\n", []),
    ("[trajectories]\nwindow = -5.0 fm\n", []),
    ("[trajectories]\nwindow = 0.0 fm\n", []),
    ("[numerics]\nbasis_init = sincos\n", []),
    ("[numerics]\nmethod = euler\n", []),
])
def test_cli_exit_code_2_on_malformed_config(tmp_path, text, extra):
    """``extra`` lines go at the end of the file.  ``window`` and
    ``basis_init`` are keys no more, so any value of them is an unknown key;
    ``euler`` is the crude comparison of ``basis --compare-methods`` only."""
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
    ("x,V\n-10,0.0\n0\n10,0.0\n", "line 3 has 1 fields; the header has 2"),
    ("x,V\n-10,0.0\n\n0\n10,0.0\n", "line 4 has 1 fields; the header has 2"),
])
def test_cli_exit_code_2_on_unreadable_table(tmp_path, table, cause):
    """``table`` is raw text, columns for ``write_csv``, or None for no file."""
    path = tmp_path / "v.tab"
    if isinstance(table, str):
        path.write_text(table)
    elif table is not None:
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


def test_a_table_that_ends_in_blank_lines_traces_as_without_them(tmp_path):
    """A hand-written table often ends in a blank line: read_csv takes an
    empty or whitespace-only line for no row, so the trace files are those of
    the table without it."""
    path = tmp_path / "v.tab"
    cfgp = tmp_path / "run.cfg"
    RunConfig(potential_kind="tabulated", table_file=str(path), grid_min=-500.0,
              grid_max=500.0, grid_step=0.2, x0=-500.0, param_sets=[(4.0, 2.5), (8.0, -3.0)],
              sync="phi2_zero").to_file(cfgp)
    rows = "".join(f"{x!r},{1e-3 * x!r}\n" for x in np.linspace(-600.0, 600.0, 201).tolist())
    written = []
    for ending in ("", "\n", " \t\n\n"):
        path.write_text("x_fm,V_MeV\n" + rows + ending)
        out = tmp_path / f"out{len(written)}"
        result = run_cli(["trace", "--config", str(cfgp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        written.append({f.name: f.read_bytes() for f in out.glob("*.csv")})
    assert sorted(written[0]) == ["classical.csv", "trajectory_0.csv", "trajectory_1.csv"]
    assert written[1] == written[0] and written[2] == written[0]


def test_out_only_moves_the_output(tmp_path):
    """fig1 analyze and figure 1 under two --out paths of different lengths:
    every CSV, gnuplot script, node report and validation.json holds the
    same bytes, and the manifests agree once the directory is replaced."""
    outs = [tmp_path / "o", tmp_path / "a_longer_name" / "o"]
    for out in outs:
        for argv in (["analyze"], ["figure", "--figure", "1"]):
            result = run_cli([*argv, "--config", str(CONFIGS / "fig1.cfg"), "--out", str(out)])
            assert result.exit_code == 0, result.output
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    assert {"nodes.csv", "figure1.gp", "nodes_detected.json", "validation.json"} <= set(names)
    for name in names:
        first, second = ((out / name).read_bytes() for out in outs)
        if name.endswith("_manifest.json"):
            first = first.replace(str(outs[0]).encode(), str(outs[1]).encode())
        assert first == second, name


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
    cfg = with_keys(cfg, out_dir=str(tmp_path / "out"), **changes).validate()
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
    path = tmp_path / "one_point.cfg"
    cfg = parse_config(CONFIGS / "fig1.cfg")
    with_keys(cfg, out_dir=str(tmp_path / "out"), grid_step=5000.0).to_file(path)
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
                    samples=2001, out_dir=str(tmp_path / "out"))
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
    """fig3's traces stop at the end of the grid, x = 1450 fm, and fig2's at
    its divergence time t* = 1.8126e-21 s, both before t_max: each carries
    end_t_s and end_x_fm, its last row, in its manifest entry and its CSV
    footer, and fig2's holds the 19 081 samples before t*.  fig1's closed
    forms run to t_max and carry neither.  No trace starts after t_min, so
    none carries a start."""
    cfg = with_keys(parse_config(CONFIGS / f"{name}.cfg"),
                              out_dir=str(tmp_path / "out"))
    manifest = pipeline.run_trace(cfg)
    trajs = [tr for _, tr, _ in pipeline._family(cfg, *pipeline._stage(cfg))]
    assert len(trajs) == len(manifest["sets"])
    for entry, tr in zip(manifest["sets"], trajs):
        footer, cols = read_csv(entry["file"])
        if name == "fig2":
            assert tr.t.size == cols["t_s"].size == 19081
            assert tr.t[-1] < entry["divergence_time_s"] < cfg.t_max
            assert footer["halt"] == entry["halt"] == "DivergenceReached"
        if name != "fig1":
            assert tr.t[-1] < cfg.t_max
            assert (entry["end_t_s"], entry["end_x_fm"]) == (tr.t[-1], tr.x[-1])
            assert (float(footer["end_t_s"]), float(footer["end_x_fm"])) == (tr.t[-1], tr.x[-1])
            if name == "fig3":
                assert tr.x[-1] == pipeline.build_grid(cfg)[-1]
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
    cfg = with_keys(parse_config(CONFIGS / "fig3.cfg"), t_min=-1.0e-20,
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
        "classical.csv": "f8b4c95cd8c3dce0905f8f9dcc45457e5ffaf7726f93ab3927629c156d9d074d",
        "figure1.gp": "97c70110ce9279013a4dbe6e80b3f82e3f4185bd4e0352ee1f7b127c2b2150ef",
        "figure1_manifest.json":
            "e3ec43dd86d8b78803754b6197a1ccd1a384f2a7d37293377d9c6213bcfbb945",
        "nodes.csv": "609e90305f740e85732d220c46f8dd874ce9123d607fbd1b72f82685b080d2a4",
        "trace_manifest.json":
            "5395d1fcb4c20840fba1727208cd2b279433ba9e6650646ac58c39b5378dd4de",
        "trajectory_0.csv": "10dceb552e5c542056afdef2bd00bb47eda2924adce5529f19c95cfe863be75d",
        "trajectory_1.csv": "44822a02d25b3d804610886bd9e401213161dae28a83f8b7499b62de9143d3d7",
        "trajectory_2.csv": "911b85341c571d3abbf406939d6de13309171cc4a55f3056e395d1b78b5060f0",
    }),
    ("fig2", 2, {
        "figure2.gp": "25d2e9c3f092a126f3e1684330e1b96089b62690d258b57c4e74c4782442a31c",
        "figure2_manifest.json":
            "7802f0aa4a41aee7767c9b4d227960902cc51b5aa3ea3f202bb5aca85a1d9f61",
        "trace_manifest.json":
            "b662a1e788e7be891a515674fa04bf64e5e3515893f8bc09657a52b001d9def7",
        "trajectory_0.csv": "252b45aa134c3d8fbb5bd7b83a38f7af0a85655470096ee9bc622c257e6ae8d1",
    }),
])
def test_closed_form_figure_outputs_are_pinned(tmp_path, monkeypatch, name, figure, digests):
    """Every closed-form row lies in its window, so the files keep their bytes.
    fig2's trace holds the samples before its divergence time."""
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
    cfg = with_keys(parse_config(CONFIGS / "fig1.cfg"), t_min=t_min,
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
    cfg = with_keys(parse_config(CONFIGS / "fig1.cfg"), t_min=t_min,
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
    "analyze_manifest.json": "44a6e0e32945f916697ecd145518a2bcba80d38063d24aa12103e635c757cee8",
    "classical.csv": "d1daa0675beb96fb8f5ce96dcb4ea1004fa544f6857ddb5ec58625fc833ae44d",
    "figure3.gp": "f01605e260ad3e5bfcde24698c01ba2ec3fc2b34ab51eb0471184dbbc695f948",
    "figure3_manifest.json": "0cf3eaf25df8dbb57e308e561a3eee6ced24f2f8a93b9ca5953620d9654ea58d",
    "nodes.csv": "9c7067b0969d33d96620f4cc1b09abfccfaffd3f6d8569aa03bad703b6440f6b",
    "nodes_detected.json": "14eab44ac189bc520da87e8f639578a754a5d4fcd9445a4805a93e7a8a446b47",
    "trace_manifest.json": "501edd9f78db42e71506a2e10f9252aeacf7cb68d34364c8c5623e30e3d3e0a3",
    "trajectory_0.csv": "2ed08e3158bd3ab93b723d66ef67dbdc5f82fb2970583b19d3b616d2494a71a8",
    "trajectory_1.csv": "a9c65d9c2a50c792a674fbcedf83c1102cca08f998de2bdf5c0496acf5f31cdb",
    "trajectory_2.csv": "03511715ce975514bda108afdfd933af60cd0a8459800362f91b049a6e697c26",
    "validation.json": "b6774a4afcf58978f3f2ba4333b1fbb8a739de22abfd355cd2c5fb2608f09b60",
}


BASIS_DIGESTS = {
    "fig1": {
        "basis_analytic.csv": "99bd4dad3e59abb51e8caa240425c5f13f0154f66787a15430726a14d5b3a3c9",
        "basis_manifest.json": "fc0a24acfed8145b7d8ffe9b844a9c351bae6d58585018845286e49c3a93ad18",
    },
    "fig2": {
        "basis_analytic.csv": "005b902c5a408d9756d3bb3d5590aedd4f95adaf93a49fa471dfc402e439b4d3",
        "basis_manifest.json": "07aed147a53c98cf6c680e6a33803dbadcd0d17f329d2d6894987bf142242572",
    },
    "fig3": {
        "basis_euler.csv": "f39ca9671efad5832986f6b466ae7866ecdb8a8c74fd5354e654a2cd22c81135",
        "basis_manifest.json": "f5d0d1e5add4f2ac42d7abfd7445432bff1bd7bc86613e6d92828d273c70fd5d",
        "basis_rk4.csv": "8b0785f49446d2df85884e4d27c296084b922099045d34b95108d872c2b9306d",
    },
}


@pytest.mark.parametrize("name", sorted(BASIS_DIGESTS))
def test_basis_outputs_are_pinned(tmp_path, monkeypatch, name):
    """basis --compare-methods: the closed-form, Magnus (rk4) and Euler bases keep every byte."""
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


def traced_peak(run, cfg):
    """tracemalloc's peak of ``run(cfg)``, in bytes."""
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run, limit_mib", [
    (lambda cfg: pipeline.build_basis(cfg, pipeline.build_setup(cfg),
                                      pipeline.build_potential(cfg)), 4.3),
    (lambda cfg: pipeline.run_basis(cfg, compare_methods=True), 4.4),
    (pipeline.run_trace, 4.5),
    (pipeline.run_analyze, 4.3),
    (lambda cfg: pipeline.run_figure(cfg, 3), 4.5),
], ids=["build_basis", "basis", "trace", "analyze", "figure"])
def test_fig3_live_memory_peak(tmp_path, monkeypatch, run, limit_mib):
    """Live data of each fig3 command, by tracemalloc in process.  The
    in-place scan, one basis alive at a time in basis --compare-methods,
    one set's action and trace alive at a time, an action of three arrays,
    checks and CSV blocks of ``constants.BLOCK`` values, node detection
    that keeps each set's arrivals only, the in-place trace and a one-byte
    regime code per trace row keep the peaks of fig3's 34 251-point grid
    near 3.7 (the numeric solve alone, and analyze), 3.8 (basis) and
    3.9 MiB (trace, figure), each limit about 15 % above.  With CSV blocks
    of 8192 rows (49 k values on the six-column basis files), stencil
    blocks of 16 384 windows and every set's (t, x) kept for node
    detection they were 7.0 (basis), 5.5 (trace, figure) and 5.2 MiB
    (analyze).  On the 137 001-point grid of 0.05 fm they were 11.7
    (solve, basis), 12.1 (trace) and 14.1 MiB (analyze, figure).  With the
    whole-array scan and whole trajectories kept for node detection the
    peaks were 20.9, 21.0, 25.1 and 25.1 MiB (build_basis, basis, analyze,
    figure); with an action that kept psi, psi' and D and whole-trace
    gradients, 16.6 (trace) and 18.6 MiB (analyze, figure)."""
    monkeypatch.chdir(tmp_path)              # the config's relative out dir
    peak = traced_peak(run, parse_config(CONFIGS / "fig3.cfg"))
    assert peak <= limit_mib * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("run, limit_mib", [
    (pipeline.run_trace, 2.9),
    (pipeline.run_analyze, 3.35),
    (lambda cfg: pipeline.run_figure(cfg, 1), 2.9),
], ids=["trace", "analyze", "figure"])
def test_fig1_live_memory_peak(tmp_path, monkeypatch, run, limit_mib):
    """Live data of each fig1 command (three closed-form sets of 50 001
    samples), by tracemalloc in process: 2.55 (trace, figure) and 2.9 MiB
    (analyze), each limit about 15 % above.  One trace's five columns take
    1.6 MB; the closed form, the checks and the CSV writer add one block
    of temporaries each, and analyze keeps of each earlier set only its
    arrivals at the five rungs.  With whole-array closed forms, stencil
    blocks of 16 384 windows and every set's (t, x) kept for node
    detection the peaks were 4.4 (trace, figure) and 5.8 MiB (analyze)."""
    monkeypatch.chdir(tmp_path)              # the config's relative out dir
    peak = traced_peak(run, parse_config(CONFIGS / "fig1.cfg"))
    assert peak <= limit_mib * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("name, digests", [
    ("fig1", {
        "analyze_manifest.json":
            "e966067a96a7b1ac412b8d6f4ad5545f10a3ba8c69d804079b5d9b3cd2b57114",
        "nodes_closed_form.json":
            "5c2ada9ddbb74d11eb6bf2058e4330c5e14f18805a52fd3f36caa60671671d9c",
        "nodes_detected.json":
            "c6b2429ef61e464d3cc4c49507ef4728905087341d9adf018713e48e495a1faa",
        "validation.json": "0b09db15ad8ce4044f8567f01a286c59f29d912e69468bf2841de1323276f025",
    }),
    ("fig2", {
        "analyze_manifest.json":
            "36a6e8daba67a27aae89d5f68a3f71e7f5577bdd9a2ec337fe669ed9e3f3dd80",
        "validation.json": "865fb0f44ac68229642a53abffa94debfdfd02fcc9d9e7ab5ab9867f9a19617d",
    }),
])
def test_closed_form_analyze_outputs_are_pinned(tmp_path, monkeypatch, name, digests):
    """fig1 and fig2 analyze: node reports and validators keep every byte.

    fig1's closed-form ladder holds the five rungs up to t_max = 5.5e-21 s.
    fig1's validation.json and manifest hold no quantum-HJ maxima: a closed
    form builds no action (``test_quantum_hj_analytic_basis`` checks that
    algebra on fig1's basis)."""
    monkeypatch.chdir(tmp_path)              # the config's relative out dir
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    pipeline.run_analyze(cfg)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / cfg.out_dir).iterdir()}
    assert written == digests


def test_energy_equals_potential_is_a_per_set_error(tmp_path):
    """fig3 moved to [1600, 2400] fm: E - V changes sign at 2000 fm."""
    cfg = parse_config(CONFIGS / "fig3.cfg")
    cfg = with_keys(cfg, grid_min=1600.0, grid_max=2400.0, x0=1700.0,
                              sync="exact", out_dir=str(tmp_path / "out")).validate()
    manifest = pipeline.run_trace(cfg)
    assert [e["status"] for e in manifest["sets"]] == ["error"] * 3
    for entry in manifest["sets"]:
        assert entry["error"].startswith("EnergyEqualsPotential: E - V vanishes")
    assert not list((tmp_path / "out").glob("trajectory_*.csv"))


def test_tabulated_classical_curve_with_x0_off_the_grid_is_an_error(tmp_path):
    """A tabulated V with x0 50 fm below the grid is a config error, exit 2
    before numpy loads and with no file written: neither the quadrature
    trace nor the classical curve has a t = 0 there (the classical curve
    was once clamped to the grid end, and every set once failed after the
    whole basis was built).  The grid ends at build_grid's last point where
    that lies below grid_max, as the basis does."""
    table = tmp_path / "v.tab"
    x = np.linspace(-600.0, 600.0, 201)
    write_csv(table, [], [("x_fm", x), ("V_MeV", 1e-3 * x)])
    cfg = RunConfig(potential_kind="tabulated", table_file=str(table), grid_min=-500.0,
                    grid_max=500.0, grid_step=0.2, x0=-550.0, param_sets=[(4.0, 2.5)],
                    sync="phi2_zero", out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match=re.escape(
            "[trajectories] x0 -550.0 fm lies outside the grid [-500.0, 500.0] fm")):
        cfg.validate()
    cfgp = tmp_path / "off.cfg"
    cfg.to_file(cfgp)
    proc = _fresh_python(
        "import sys, rqtraj.cli\n"
        "try:\n"
        "    rqtraj.cli.main(sys.argv[1:])\n"
        "finally:\n"
        "    print('numpy' in sys.modules, file=sys.stderr)\n", "trace", "--config", str(cfgp))
    assert proc.returncode == 2, proc.stderr
    assert "config error: [trajectories] x0 -550.0 fm lies outside" in proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"
    assert not (tmp_path / "out").exists()

    # 0.3 fm steps on [0, 1] fm: the last grid point is 0.3 * 3 < 0.9 < 1
    last = 0.3 * 3
    for kind in ("linear", "tabulated"):
        short = with_keys(cfg, potential_kind=kind, grid_min=0.0, grid_max=1.0,
                          grid_step=0.3, x0=last)
        assert short.validate().x0 == last
        with pytest.raises(ConfigError, match=rf"x0 0.95 fm lies outside the grid \[0.0, {last!r}\]"):
            with_keys(short, x0=0.95).validate()
    # a constant potential's closed forms take any x0 as their origin
    assert with_keys(cfg, potential_kind="constant").validate().x0 == -550.0


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


def _tree_env(env=None):
    """``env`` (default: this process's environment) with rqtraj imported from this tree."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(rq.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    return env


def _fresh_python(code, *args, env=None):
    """Run ``code`` in a fresh interpreter with ``_tree_env(env)``."""
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=_tree_env(env))


# rqtraj modules that ``import rqtraj.cli`` and a config check may load
START_UP = {"rqtraj", "rqtraj.cli", "rqtraj.config", "rqtraj.errors", "rqtraj.constants"}


def test_cli_import_loads_neither_click_nor_openssl():
    """``import rqtraj.cli`` and ``parse_config(...).validate()``, the start-up
    every command pays, load neither click, OpenSSL, numpy, ``dataclasses``
    and ``inspect`` nor any rqtraj module but the CLI, the config and its
    errors and constants."""
    proc = _fresh_python(
        "import sys, rqtraj.cli\n"
        "from rqtraj.config import parse_config\n"
        "parse_config(sys.argv[1]).validate()\n"
        "print(*sorted(sys.modules))\n",
        str(CONFIGS / "fig3.cfg"))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "rqtraj.cli" in loaded and "click" not in loaded
    assert not loaded & {"numpy", "dataclasses", "inspect"}
    assert {m for m in loaded if m.split(".")[0] == "rqtraj"} <= START_UP
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("no builtin sha256 module: config_hash falls back to hashlib")
    assert not loaded & {"hashlib", "_hashlib"}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["trace", "--no-such-option"], 2),
    (["trace", "--config", "{unknown_key}"], 2),
])
def test_cli_exits_before_numpy_loads(tmp_path, argv, code):
    """Help, a usage error and a config error end before numpy,
    ``dataclasses`` or ``inspect`` is imported."""
    unknown_key = tmp_path / "unknown_key.cfg"
    unknown_key.write_text("[numerics]\ngrid_stpe = 5.0 fm\n")
    argv = [arg.format(unknown_key=unknown_key) for arg in argv]
    proc = _fresh_python(
        "import sys, rqtraj.cli\n"
        "try:\n"
        "    rqtraj.cli.main(sys.argv[1:])\n"
        "finally:\n"
        "    print(*(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')),\n"
        "          file=sys.stderr)\n", *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False False False"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_computing_command_defaults_to_one_openblas_thread(tmp_path, preset, expected):
    """A fresh computing process sets OPENBLAS_NUM_THREADS=1 before numpy loads,
    so on Linux it runs one thread; a preset value wins.  It also freezes the
    objects its imports built."""
    cfgp = tmp_path / "run.cfg"
    small_const_config(tmp_path / "out", samples=501).to_file(cfgp)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = _fresh_python(
        "import gc, os, sys, rqtraj.cli\n"
        "rqtraj.cli.main(sys.argv[1:])\n"
        "linux = os.path.isdir('/proc/self/task')\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "      len(os.listdir('/proc/self/task')) if linux else None,\n"
        "      gc.get_freeze_count())\n",
        "basis", "--config", str(cfgp), env=env)
    assert proc.returncode == 0, proc.stderr
    value, threads, frozen = proc.stdout.splitlines()[-1].split()
    assert value == expected
    if preset is None and threads != "None":
        assert threads == "1"
    assert int(frozen) > 0


def test_in_process_main_leaves_the_environment_alone(tmp_path, monkeypatch):
    """With numpy already loaded, ``main`` sets no environment variable and
    freezes nothing."""
    assert "numpy" in sys.modules
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    cfgp = tmp_path / "run.cfg"
    small_const_config(tmp_path / "out", samples=501).to_file(cfgp)
    before, frozen = dict(os.environ), gc.get_freeze_count()
    result = run_cli(["basis", "--config", str(cfgp)])
    assert result.exit_code == 0, result.output
    assert dict(os.environ) == before
    assert gc.get_freeze_count() == frozen


def test_basis_loads_only_its_modules(tmp_path):
    """A fresh ``basis`` loads neither the pipeline nor the action, trajectory
    and analysis modules, which it never runs."""
    cfgp = tmp_path / "run.cfg"
    small_const_config(tmp_path / "out", samples=501).to_file(cfgp)
    proc = _fresh_python(
        "import sys, rqtraj.cli\n"
        "rqtraj.cli.main(sys.argv[1:])\n"
        "print(*sorted(sys.modules))\n",
        "basis", "--config", str(cfgp))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "rqtraj.build" in loaded
    assert not loaded & {f"rqtraj.{name}" for name in
                         ("pipeline", "action", "trajectory", "analysis")}


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_ends_a_command_without_a_traceback(tmp_path, unbuffered):
    """A reader that closes the pipe at once (``| head``) leaves every file
    written, exit code 0 and no traceback, whether a print or the final flush
    meets the closed pipe."""
    cfgp = tmp_path / "run.cfg"
    small_const_config(tmp_path / "out", samples=501).to_file(cfgp)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "rqtraj.cli", "analyze", "--config", str(cfgp)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_tree_env(env))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert (tmp_path / "out" / "analyze_manifest.json").is_file()


# numpy names whose routines call BLAS
BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


def _blas_uses(path):
    """``file:line`` of each ``@``, ``@=`` or BLAS-named attribute or import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield f"{path.name}:{node.lineno}"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield f"{path.name}:{node.lineno}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any(BLAS_NAMES & set(name.split(".")) for name in names):
                yield f"{path.name}:{node.lineno}"


def test_rqtraj_makes_no_blas_call():
    """No source module multiplies matrices or calls a BLAS-backed numpy routine."""
    src = Path(rq.__file__).resolve().parent
    found = [use for path in sorted(src.glob("*.py")) for use in _blas_uses(path)]
    assert not found, (
        "the CLI's single-thread default (OPENBLAS_NUM_THREADS=1, set in cli._run) "
        f"assumes rqtraj makes no BLAS call; found one at {', '.join(found)}")


def test_exports_load_on_first_access():
    """Each exported name is its submodule's object; unknown names stay absent."""
    for name, module in rq._HOME.items():
        assert getattr(rq, name) is getattr(importlib.import_module(f"rqtraj.{module}"), name)
    assert set(rq.__all__) == set(rq._HOME)
    assert set(rq.__all__) | set(rq._SUBMODULES) <= set(dir(rq))
    assert getattr(rq, "NO_SUCH", None) is None
    with pytest.raises(AttributeError, match="NO_SUCH"):
        rq.NO_SUCH
    proc = _fresh_python("import rqtraj; print(rqtraj.output.write_csv.__module__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rqtraj.output"]


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
def test_config_hash_is_the_sha256_of_the_canonical_text(name):
    """The hash covers the canonical text up to its [output] section, the
    last one: where the files go is not what they hold."""
    cfg = parse_config(CONFIGS / f"{name}.cfg")
    hashed, found, output = cfg.canonical_text().partition("\n[output]\n")
    assert found and output == f"dir = {cfg.out_dir}\n"
    assert cfg.hash == hashlib.sha256(hashed.encode()).hexdigest()
    assert cfg.hash == with_keys(cfg, out_dir="elsewhere/else").hash
    assert cfg.hash != with_keys(cfg, samples=cfg.samples + 1).hash


def test_config_hash_of_non_ascii_text():
    text = "[output]\ndir = ħc/λ — 197.3 MeV·fm ✓\n"
    assert config_hash(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_tabulated_config_hash_covers_the_table(tmp_path):
    """One path holding two different tables gives two hashes, and the trace
    files carry them; a table file that cannot be read is a config error."""
    table = tmp_path / "v.tab"
    cfgp = tmp_path / "run.cfg"
    cfg = RunConfig(potential_kind="tabulated", table_file=str(table), grid_min=-500.0,
                    grid_max=500.0, grid_step=0.2, x0=-500.0, param_sets=[(4.0, 2.5)],
                    sync="phi2_zero")
    cfg.to_file(cfgp)
    x = np.linspace(-600.0, 600.0, 201)
    stamps = []
    for slope in (1e-3, 2e-3):
        write_csv(table, [], [("x_fm", x), ("V_MeV", slope * x)])
        out = tmp_path / f"out{len(stamps)}"
        result = run_cli(["trace", "--config", str(cfgp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        meta, _ = read_csv(out / "trajectory_0.csv")
        assert meta["config_hash"] == cfg.hash
        stamps.append(cfg.hash)
    assert stamps[0] != stamps[1]
    assert cfg.hash == with_keys(cfg, out_dir="elsewhere").hash
    table.unlink()
    with pytest.raises(ConfigError, match=r"\[potential\] file .*v\.tab"):
        cfg.hash
    result = run_cli(["trace", "--config", str(cfgp), "--out", str(tmp_path / "gone")])
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "gone").exists()
