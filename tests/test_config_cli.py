import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtraj as rq
from rqtraj import pipeline
from rqtraj.cli import main
from rqtraj.config import RunConfig, parse_config, parse_config_text
from rqtraj.errors import ConfigError
from rqtraj.output import read_csv

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
        samples=draw(st.integers(2, 10**9)), window=draw(any_float),
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
    result = CliRunner().invoke(main, ["trace", "--config", str(bad)])
    assert result.exit_code == 2
    assert "non-zero" in (result.output + str(result.stderr_bytes or b""))


@pytest.mark.parametrize("text, extra", [
    ("[particle]\nenergy = nan MeV\n", []),
    ("[particle]\nenergy = 2.0 MeV\n", ["hbar_scale = nan"]),
    ("[numerics]\ngrid_stpe = 5.0 fm\n", []),
    ("[numerisc]\ngrid_step = 5.0 fm\n", []),
    ("[trajectories]\nsamples = 2.9\n", []),
])
def test_cli_exit_code_2_on_malformed_config(tmp_path, text, extra):
    """``extra`` lines go at the end of the file."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(text + "".join(f"{line}\n" for line in extra))
    result = CliRunner().invoke(main, ["trace", "--config", str(bad),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_figure_exit_code_2_on_empty_sets(tmp_path):
    text = (CONFIGS / "fig2.cfg").read_text().replace("sets = 0.25,8", "sets = ")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    result = CliRunner().invoke(main, ["figure", "--config", str(bad), "--figure", "2",
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
    result = CliRunner().invoke(main, ["trace", "--config", str(path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert [e["status"] for e in manifest["sets"]] == ["error"]
    assert manifest["sets"][0]["error"].startswith("EnergyEqualsPotential: ")
    result = CliRunner().invoke(main, ["analyze", "--config", str(path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "numerical failure: EnergyEqualsPotential" in result.output


@pytest.mark.parametrize("name, figure, changes, error", [
    ("fig2", 2, {"u0": 0.3}, "EnergyEqualsPotential"),
    ("fig1", 1, {"energy": 0.510999 * (1 - 1e-14)}, "TurningPointSingular"),
])
def test_cli_figure_without_a_curve_exits_3(tmp_path, name, figure, changes, error):
    path = edited_config(tmp_path, name, **changes)
    result = CliRunner().invoke(main, ["figure", "--config", str(path),
                                       "--figure", str(figure)])
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
    runner = CliRunner()
    result = runner.invoke(main, ["trace", "--config", str(path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    assert len(manifest["sets"]) == 3
    for entry in manifest["sets"]:
        assert entry["status"] == "error"
        assert entry["error"].startswith("TurningPointSingular: ")
    result = runner.invoke(main, ["analyze", "--config", str(path)])
    assert result.exit_code == 3, result.output
    assert "numerical failure: TurningPointSingular" in result.output
    result = runner.invoke(main, ["figure", "--config", str(path), "--figure", "1",
                                  "--out", str(tmp_path / "figure")])
    assert result.exit_code == 3, result.output
    assert not list((tmp_path / "figure").glob("*"))


def test_cli_grid_of_one_point_is_a_config_error(tmp_path):
    path = edited_config(tmp_path, "fig1", grid_step=5000.0)
    result = CliRunner().invoke(main, ["basis", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert "config error: [numerics] grid_step 5000.0 fm leaves 1 grid point" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_3_on_numerical_failure(tmp_path):
    cfg = RunConfig(potential_kind="linear", slope=1e-3, grid_min=-500.0,
                    grid_max=500.0, grid_step=40.0, out_dir=str(tmp_path / "o"))
    path = tmp_path / "steptoolarge.cfg"
    cfg.to_file(path)
    result = CliRunner().invoke(main, ["basis", "--config", str(path)])
    assert result.exit_code == 3


def test_cli_basis_constant(tmp_path):
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out").to_file(cfgp)
    result = CliRunner().invoke(main, ["basis", "--config", str(cfgp)])
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
    result = CliRunner().invoke(main, ["basis", "--config", str(cfgp), "--compare-methods"])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "basis_manifest.json").read_text())
    assert set(manifest["drift"]) == {"euler", "rk4"}
    assert manifest["drift"]["euler"] > 1e2 * manifest["drift"]["rk4"]
    assert (tmp_path / "out" / "basis_euler.csv").exists()
    assert (tmp_path / "out" / "basis_rk4.csv").exists()


def test_cli_trace_emits_per_set_files(tmp_path):
    cfgp = tmp_path / "c.cfg"
    small_const_config(tmp_path / "out", samples=5001).to_file(cfgp)
    result = CliRunner().invoke(main, ["trace", "--config", str(cfgp)])
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
    result = CliRunner().invoke(main, ["trace", "--config", str(cfgp)])
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
    result = CliRunner().invoke(main, ["trace", "--config", str(cfgp)])
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
        assert cols["regime"].tolist() == tr.regime[found].tolist()


def test_cli_trace_empty_window_is_a_per_set_error(tmp_path):
    cfg = RunConfig(potential_kind="linear", grid_min=-500.0, grid_max=500.0, grid_step=0.2,
                    x0=-500.0, param_sets=[(4.0, 2.5), (8.0, -3.0)], sync="phi2_zero",
                    t_min=1.0, t_max=2.0, out_dir=str(tmp_path / "out")).validate()
    cfgp = tmp_path / "c.cfg"
    cfg.to_file(cfgp)
    result = CliRunner().invoke(main, ["trace", "--config", str(cfgp)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "trace_manifest.json").read_text())
    for entry in manifest["sets"]:
        assert entry["status"] == "error"
        assert entry["error"].startswith("TooFewSamples: 0 of 5001 trace rows")
    assert not list((tmp_path / "out").glob("trajectory_*.csv"))


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


FIG3_DIGESTS = {
    "analyze_manifest.json": "919abb01b9524ea04c926dcc7d7432c633d964f0d9173880b8502bda15498f82",
    "classical.csv": "71c9bb0191a2570f5df5ca08524077377245882df3e685fdc070c7e5ce717fb2",
    "figure3.gp": "8aeec211273e5e0163275ae56bf544dc2887853a982c8f77e90aa42c3ecb2aa3",
    "figure3_manifest.json": "2d931e85b2c798284d411dd1dcbdde049976f31bca31b227671b46cf4dd2d60c",
    "nodes.csv": "cb6b6db3ac5a21c44155c4f4cdba0980956d8014836e07dd4e46e71e1648c3b9",
    "nodes_detected.json": "f2eb1d1ec905839b404cdc68c0af9fd4724facf11e0ea054e9a3c54bce4bf149",
    "trace_manifest.json": "3b53701e84bc83bd35058ed10497ab4f8ee53a4db3bb20bbf41eb29f1fd40d37",
    "trajectory_0.csv": "26995557e7ddcb4fa3368ed4a1781e2a846d908ddd3ec0de601447510adc64b8",
    "trajectory_1.csv": "ae273bc7a2231cdcc32769f47a06d7b6269a282f392e7d411043f2f7f78c83df",
    "trajectory_2.csv": "6540b1657d840bc0e448e8310b125f0ef6d4ce255a93e9cf0783b319b4a14559",
    "validation.json": "b1bb3c6ad7a5257371889a3c626769bba0cd0c5188f95318257a175494d096cb",
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
        "basis_euler.csv": "2d329a909ace270a1d6cb8d21303f7f8c9f969edfd11ae5fc4f9994bb915659e",
        "basis_manifest.json": "5a02d178dfc6df16c5833cb2d4eb6a025d85dd64117ce371c2b7b81d5389d175",
        "basis_rk4.csv": "4d2e9da6c19131b7d68a90c4ee89149f1923a25e6a03d27ebcca23462e3786c1",
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


@pytest.mark.parametrize("name, digests", [
    ("fig1", {
        "analyze_manifest.json":
            "176b6628ec3a500937bb9ea0f3b4e2361dd67a92930f96b8bb33604bc06546c7",
        "nodes_closed_form.json":
            "c9ba3f7b8d5485940a1a6bf17e49270861a1fb68916dfac0aa0d3894dd198c92",
        "nodes_detected.json":
            "ab710bc00673a266984973d1a038061d310714abc2ce32759e872c1a55d5e127",
        "validation.json": "4f0c312243b379c5f081439ec353a1dbc87a454ed28bcb8dd39efecc6e3757c0",
    }),
    ("fig2", {
        "analyze_manifest.json":
            "0def5046f980ece91084af3239895421dcd758242eb46ba9f30990ad61d069f1",
        "validation.json": "35cef0ff37fbcba5ca572761d66ca00c991a5d2819aa6399be8292c6808c97d0",
    }),
])
def test_closed_form_analyze_outputs_are_pinned(tmp_path, monkeypatch, name, digests):
    """fig1 and fig2 analyze: node reports and validators keep every byte."""
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
    runner = CliRunner()
    snap = {}
    for round_ in range(2):
        result = runner.invoke(main, ["trace", "--config", str(cfgp)])
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
    result = CliRunner().invoke(main, ["analyze", "--config", str(cfgp)])
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
    runner = CliRunner()
    dx = {}
    for eps, out in ((1.0, "out1"), (0.5, "out2")):
        cfgp = tmp_path / f"{out}.cfg"
        small_const_config(tmp_path / out, hbar_scale=eps).to_file(cfgp)
        res = runner.invoke(main, ["analyze", "--config", str(cfgp)])
        assert res.exit_code == 0, res.output
        nodes = json.loads((tmp_path / out / "nodes_closed_form.json").read_text())
        dx[eps] = nodes["dx"][0]
    assert dx[0.5] / dx[1.0] == pytest.approx(0.5, abs=1e-12)


def test_cli_figure_scripts(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["figure", "--config", str(CONFIGS / "fig2.cfg"),
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
