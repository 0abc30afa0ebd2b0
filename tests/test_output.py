"""CSV writer: byte parity with the per-cell reference, and CLI round trips."""

import dataclasses
import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rqtraj import pipeline
from rqtraj.config import RunConfig, parse_config
from rqtraj.model import REGIME_TEXT
from rqtraj.trajectory import _zeros_of
from rqtraj.output import (
    BLOCK_ROWS, FAST_MAX, FAST_MIN, LINE_BREAKS, _fast_digits, read_csv, write_csv,
)
from tests.conftest import run_cli


def reference_csv(header_comments, columns, footer_comments=()):
    """Per-cell writer the row-template writer must match byte for byte;
    a (name, codes, labels) column writes labels[code]."""
    def fmt(value: float) -> str:
        return f"{float(value):.16e}"

    names = [column[0] for column in columns]
    arrays = [np.asarray(column[1]) for column in columns]
    labels = [column[2] if len(column) == 3 else None for column in columns]
    n = len(arrays[0]) if arrays else 0
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(names))
    for i in range(n):
        row = []
        for arr, texts in zip(arrays, labels):
            v = arr[i]
            if texts is not None:
                row.append(texts[v])
            else:
                row.append(fmt(v) if isinstance(v, (float, np.floating)) else str(v))
        lines.append(",".join(row))
    lines.extend(f"# {c}" for c in footer_comments)
    return ("\n".join(lines) + "\n").encode("utf-8")


def assert_parity(path, header, columns, footer=()):
    write_csv(path, header, columns, footer_comments=footer)
    assert path.read_bytes() == reference_csv(header, columns, footer)


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
                    1.7976931348623157e308, 0.1, -2.5e-17, 1.0])


def test_parity_special_floats(tmp_path):
    assert_parity(tmp_path / "s.csv", ["config_hash: abc"],
                  [("v", SPECIAL), ("neg", -SPECIAL)])


def test_parity_column_dtypes(tmp_path):
    n = SPECIAL.size
    with np.errstate(over="ignore"):
        f32 = SPECIAL.astype(np.float32)
    columns = [
        ("f64", SPECIAL),
        ("f32", f32),
        ("i64", np.arange(-3, n - 3, dtype=np.int64)),
        ("u8", np.arange(n, dtype=np.uint8)),
        ("flag", np.arange(n) % 3 == 0),
        ("regime", np.arange(n, dtype=np.uint8) % 3, REGIME_TEXT),
        ("label", np.arange(n, dtype=np.uint16)[::-1] % 4, ["ψ₂", "", "naïve", "s3"]),
        ("one", np.ones(n, dtype=np.uint64), ("never", "always")),
    ]
    assert_parity(tmp_path / "d.csv", ["a: 1", "b: 2"], columns, footer=["halt: x"])


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 1])
def test_parity_block_edges(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = [
        ("t_s", rng.standard_normal(n) * 1e-21),
        ("branch_n", rng.integers(-5, 5, n)),
        ("regime", rng.integers(0, 3, n, dtype=np.uint8), REGIME_TEXT),
        ("x_fm", rng.standard_normal(n) * 1e3),
        ("note", rng.integers(0, 2, n, dtype=np.uint16), ("ψ₂ node", "naïve")),
    ]
    assert_parity(tmp_path / "b.csv", ["h: 1"], columns, footer=["f: 1", "g: 2"])


def test_parity_three_digit_exponents_at_block_edges(tmp_path):
    """Texts longer than a 24-byte field, at the first and last row of blocks.

    Blocks 0, 1 and 3 hold such values in the first and the last column
    (the last one ends its row with a newline); block 2, between them,
    holds none, only the largest double whose exponent has two digits.
    """
    n = 3 * BLOCK_ROWS + 5
    rng = np.random.default_rng(16)
    first, middle, last = (rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
                           for _ in range(3))
    longest_short = np.nextafter(1e100, 0)
    assert len(b"%.16e" % longest_short) == 22 and len(b"%.16e" % -1e-100) == 24
    long_values = [-1e-100, 1e100, 5e-324, -5e-324]
    for rows, column in (([0, BLOCK_ROWS - 1, BLOCK_ROWS, n - 1], first),
                         ([n - 1, BLOCK_ROWS, BLOCK_ROWS - 1, 0], last)):
        column[rows] = long_values
    first[[1, 2 * BLOCK_ROWS]] = longest_short
    last[[2 * BLOCK_ROWS, 3 * BLOCK_ROWS - 1]] = -longest_short
    columns = [("first", first), ("middle", middle), ("last", last)]
    assert_parity(tmp_path / "x.csv", ["h: 1"], columns)


INT64 = np.iinfo(np.int64)
INT_COLUMNS = {
    "random full-range int64": np.random.default_rng(7).integers(
        INT64.min, INT64.max, 2 * BLOCK_ROWS + 3, dtype=np.int64, endpoint=True),
    "int64 min and max": np.array([INT64.min, INT64.max, -1, 0, 1, INT64.min + 1,
                                   INT64.max - 1, INT64.min], dtype=np.int64),
    "uint64 above 2**63": np.array([2**63, 2**63 + 1, 2**64 - 1, 0, 2**63 - 1, 2**64 - 1],
                                   dtype=np.uint64),
    "bool": np.random.default_rng(8).integers(0, 2, BLOCK_ROWS + 5).astype(bool),
    "every value distinct": np.random.default_rng(9).permutation(
        np.arange(BLOCK_ROWS + 1, dtype=np.int64) * 1_000_003 - 10**12),
}


@pytest.mark.parametrize("name", INT_COLUMNS)
def test_parity_int_columns(tmp_path, name):
    values = INT_COLUMNS[name]
    assert_parity(tmp_path / "i.csv", [], [("v", values), ("w", values[::-1].copy())])


def test_parity_no_columns(tmp_path):
    assert_parity(tmp_path / "e.csv", ["only: header"], [], footer=["end"])


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)))
def test_parity_random_float64(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("h") / "r.csv"
    assert_parity(path, ["h: 1"], [("a", values), ("b", values[::-1].copy())])


ROW_COUNTS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
_BREAKING = ",\0" + LINE_BREAKS
# each kind of column: its dtype and the values a column of it is drawn from;
# a labelled column draws its labels, and its codes are indices into them
KINDS = {
    "float64": (np.float64, st.floats()),       # subnormals, nan and +-inf included
    "float32": (np.float32, st.floats(width=32)),
    "int64": (np.int64, st.integers(INT64.min, INT64.max)),
    "uint64": (np.uint64, st.integers(0, 2**64 - 1)),
    "bool": (bool, st.booleans()),
    "labelled": (st.sampled_from([np.uint8, np.uint16, np.uint64]),
                 st.text(st.characters(codec="utf-8", exclude_characters=_BREAKING),
                         max_size=12)),
}


@st.composite
def tables(draw):
    """1-7 columns, 1-3 of them float, placed first, in the middle or last;
    each column tiles a drawn pool of values over one of ROW_COUNTS rows."""
    n = draw(st.sampled_from(ROW_COUNTS))
    floats = draw(st.lists(st.sampled_from(["float64", "float32"]), min_size=1, max_size=3))
    others = draw(st.lists(st.sampled_from([k for k in KINDS if not k.startswith("float")]),
                           max_size=4))
    place = draw(st.sampled_from(["first", "middle", "last"]))
    at = {"first": 0, "middle": len(others) // 2, "last": len(others)}[place]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for j, kind in enumerate(others[:at] + floats + others[at:]):
        dtype, values = KINDS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=20))
        tiled = rng.permutation(np.arange(n) % len(pool))
        if kind == "labelled":
            pool[0] += "\u03c8"
            columns.append((f"{kind}_{j}", tiled.astype(draw(dtype)), pool))
        else:
            columns.append((f"{kind}_{j}", np.array(pool, dtype=dtype)[tiled]))
    return columns


@settings(max_examples=40, deadline=None)
@given(tables())
def test_parity_mixed_tables(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("t") / "t.csv"
    assert_parity(path, ["h: 1"], columns, footer=["f: 1"])


def test_parity_random_bit_patterns(tmp_path):
    """Every 64-bit pattern is a float64 (both signs, nan, inf, subnormals)."""
    bits = np.random.default_rng(20261018).integers(0, 2**64, 2**20, dtype=np.uint64)
    values = bits.view(np.float64)
    assert np.signbit(values).any() and not np.signbit(values).all()
    assert_parity(tmp_path / "bits.csv", [], [("v", values)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=20))
def test_parity_any_float(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("f") / "f.csv"
    assert_parity(path, [], [("v", np.array(values)), ("w", -np.array(values))])


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])


NAMED = {
    "zeros": [0.0, -0.0],
    "subnormal and normal minimum": [2.0**-1074, 2.0**-1022],
    "largest double": [np.finfo(np.float64).max],
    "powers of ten": _neighbours([10.0**q for q in range(-30, 31)]),
    "exponent width": _neighbours([1e-100, 1e-99, 1e99, 1e100]),
    "fast range ends": _neighbours([FAST_MIN, FAST_MAX, 1e-281, 1e281]),
    "ties": [1500000000000000.25, 1500000000000000.75, -2000000000000000.75],
    "just below their power of ten": [1e-79, 1e-175, 1e23, 1e-280],
}


@pytest.mark.parametrize("name", NAMED)
def test_parity_named_floats(tmp_path, name):
    values = np.asarray(NAMED[name], dtype=np.float64)
    assert_parity(tmp_path / "n.csv", [], [("v", values), ("neg", -values)])


def test_parity_when_log10_rounds_low(tmp_path, monkeypatch):
    """A log10 one ulp low puts powers of ten at D = 10**17: they fall back."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    values = np.concatenate([NAMED["powers of ten"], NAMED["just below their power of ten"]])
    assert_parity(tmp_path / "p.csv", [], [("v", values)])


def test_fallback_fires_on_a_handful_of_fig3_basis_values(tmp_path):
    """The per-value fallback is exercised by real output, and rarely."""
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "fig3.cfg")
    basis = pipeline.build_basis(cfg, pipeline.build_setup(cfg), pipeline.build_potential(cfg))
    columns = [("x_fm", basis.grid), ("phi1", basis.phi1), ("dphi1_per_fm", basis.dphi1),
               ("phi2", basis.phi2), ("dphi2_per_fm", basis.dphi2),
               ("wronskian_per_fm", basis.wronskian_pointwise())]
    slow = np.zeros(basis.grid.size, dtype=bool)
    for _, values in columns:
        slow |= ~_fast_digits(values)[2]
    assert 1 <= slow.sum() <= 12, slow.sum()     # 4 of 822 006 values when written
    rows = np.flatnonzero(np.convolve(slow, np.ones(5), mode="same"))
    assert_parity(tmp_path / "basis.csv", [],
                  [(name, values[rows]) for name, values in columns])


@pytest.mark.parametrize("second", [5, 3])
def test_write_csv_rejects_ragged_columns(tmp_path, second):
    path = tmp_path / "sub" / "ragged.csv"
    with pytest.raises(ValueError, match="'x_fm'"):
        write_csv(path, [], [("t_s", np.zeros(4)), ("x_fm", np.zeros(second))])
    assert not path.exists()


@pytest.mark.parametrize("values", [
    ["a", "a,b"], ["a\nb", "c"], ["a\rb", "c"], ["a\0b", "c"], ["a", "b\u2028c"],
    [","], ["ok", "nul\0"], ["\x85"], ["a\r\n", "b"],
])
def test_write_csv_rejects_values_that_break_rows(tmp_path, values):
    """Labels are checked up front, those no code uses included."""
    path = tmp_path / "sub" / "bad.csv"
    with pytest.raises(ValueError, match="'tag' has a value holding ',', NUL or a line break"):
        write_csv(path, [], [("t_s", np.zeros(2)), ("tag", np.zeros(2, np.uint8), values)])
    assert not path.parent.exists()


@pytest.mark.parametrize("column", [
    ("tag", np.array(["a", "b"])),
    ("tag", np.array([b"a", b"b"])),
    ("tag", np.array(["a", 1], dtype=object)),
    ("tag", np.array([1 + 2j, 0j])),
    ("tag", np.array(["2026-01-01", "2026-01-02"], dtype="datetime64[D]")),
    ("tag", np.array([0, 1]), ("a", "b")),
    ("tag", np.array([0.0, 1.0]), ("a", "b")),
], ids=["str", "bytes", "object", "complex", "datetime", "int64 codes", "float codes"])
def test_write_csv_rejects_columns_that_are_not_numbers(tmp_path, column):
    path = tmp_path / "sub" / "bad.csv"
    with pytest.raises(TypeError, match="'tag'"):
        write_csv(path, [], [("t_s", np.zeros(2)), column])
    assert not path.parent.exists()


def test_write_csv_rejects_codes_past_their_labels(tmp_path):
    path = tmp_path / "sub" / "bad.csv"
    with pytest.raises(ValueError, match="'tag' has a code past its 2 labels"):
        write_csv(path, [], [("tag", np.array([0, 2, 1], np.uint8), ("a", "b"))])
    assert not path.parent.exists()


@pytest.mark.parametrize("header, footer, name, match", [
    (["line1\nx,y"], [], "x", "comment 'line1"),
    ([], ["halt: a\rb"], "x", "comment 'halt"),
    (["ok"], [], "x,y", "column name"),
    (["ok"], [], "x\ny", "column name"),
])
def test_write_csv_rejects_comments_and_names_that_break_rows(tmp_path, header, footer,
                                                              name, match):
    path = tmp_path / "sub" / "bad.csv"
    with pytest.raises(ValueError, match=match):
        write_csv(path, header, [(name, np.zeros(2))], footer_comments=footer)
    assert not path.parent.exists()


def test_utf8_round_trip(tmp_path):
    path = tmp_path / "u.csv"
    columns = [("x_fm", np.array([1.0, -2.5, 0.1])),
               ("label", np.array([0, 1, 2], np.uint8), ["ψ₂ node", "naïve", "ascii"]),
               ("tag", np.array([0, 2, 1], np.uint16), ("Schrödinger", "ħ", "7"))]
    assert_parity(path, ["note: ħc = 197.327 MeV fm"], columns, footer=["end: ∎"])
    meta, cols = read_csv(path)
    assert meta == {"note": "ħc = 197.327 MeV fm", "end": "∎"}
    assert cols["label"].tolist() == ["ψ₂ node", "naïve", "ascii"]
    assert cols["tag"].tolist() == ["Schrödinger", "7", "ħ"]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_round_trip(path, columns):
    meta, cols = read_csv(path)
    assert list(cols) == [name for name, _ in columns]
    for name, arr in columns:
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            np.testing.assert_array_equal(_bits(cols[name]), _bits(arr), err_msg=name)
        else:
            assert cols[name].tolist() == arr.tolist(), name
    return meta


def _linear_config(out_dir):
    return RunConfig(potential_kind="linear", slope=1e-3, grid_min=-500.0, grid_max=500.0,
                     grid_step=0.2, x0=-500.0, param_sets=[(4.0, 2.5), (8.0, -3.0)],
                     sync="phi2_zero", out_dir=str(out_dir)).validate()


def _evanescent_config(out_dir):
    # the halt window sits inside the first branch, so sampling stops before t*
    return RunConfig(energy=0.3, potential_kind="constant", u0=0.0,
                     param_sets=[(0.25, 8.0)], t_min=0.0, t_max=1.9e-21, samples=2001,
                     window=1500.0, out_dir=str(out_dir)).validate()


@pytest.mark.parametrize("make_config", [_linear_config, _evanescent_config])
def test_cli_csv_round_trip_bit_exact(tmp_path, make_config):
    cfg = make_config(tmp_path / "out")
    cfgp = tmp_path / "run.cfg"
    cfg.to_file(cfgp)
    for command in ("basis", "trace"):
        result = run_cli([command, "--config", str(cfgp)])
        assert result.exit_code == 0, result.output

    setup, pot, basis = pipeline._stage(cfg)
    trajs = [tr for _, tr, _ in pipeline._family(cfg, setup, pot, basis)]
    method = "analytic" if cfg.potential_kind == "constant" else cfg.method
    basis = pipeline.build_basis(cfg, setup, pot)
    assert_round_trip(tmp_path / "out" / f"basis_{method}.csv", [
        ("x_fm", basis.grid), ("phi1", basis.phi1), ("dphi1_per_fm", basis.dphi1),
        ("phi2", basis.phi2), ("dphi2_per_fm", basis.dphi2),
        ("wronskian_per_fm", basis.wronskian_pointwise()),
    ])
    for i, tr in enumerate(trajs):
        # the file is the [t_min, t_max] row view of the full trace
        rows = np.arange(tr.t.size)[tr.window_rows(cfg.t_min, cfg.t_max, cfg.samples)]
        path = tmp_path / "out" / f"trajectory_{i}.csv"
        meta = assert_round_trip(path, [
            ("t_s", tr.t[rows]), ("x_fm", tr.x[rows]), ("branch_n", tr.branch[rows]),
            ("regime", REGIME_TEXT[tr.regime[rows]]), ("P_MeV_per_c", tr.momentum[rows]),
        ])
        # and the written rows sit in the full trace at the selected indices
        _, cols = read_csv(path)
        assert np.array_equal(np.searchsorted(tr.t, cols["t_s"]), rows)
        events = tr.meta.get("events", {})
        if cfg.potential_kind == "constant":
            assert meta["halt"] == events["halt"] == "DivergenceReached"
            assert float(meta["divergence_time_s"]) == events["divergence_time_s"]
            assert meta["divergence_kind"] == "tan_singularity"
            assert tr.t[-1] < events["divergence_time_s"]


@pytest.mark.parametrize("make_config", [_linear_config, _evanescent_config])
def test_cli_figure_number_only_names_the_outputs(tmp_path, make_config):
    """--figure N changes the title and the PNG name, not what is drawn."""
    cfgp = tmp_path / "run.cfg"
    make_config(tmp_path / "out").to_file(cfgp)
    scripts = []
    for n in (1, 2):
        result = run_cli(["figure", "--config", str(cfgp), "--figure", str(n)])
        assert result.exit_code == 0, result.output
        scripts.append((tmp_path / "out" / f"figure{n}.gp").read_text().splitlines())
    assert len(scripts[0]) == len(scripts[1])
    changed = [(a, b) for a, b in zip(*scripts) if a != b]
    assert changed == [("# figure 1", "# figure 2"),
                       ("set output 'figure1.png'", "set output 'figure2.png'")]
    if make_config is _evanescent_config:
        assert all("finite-time asymptote" in "\n".join(s) for s in scripts)
    else:
        assert all("'nodes.csv'" in "\n".join(s) for s in scripts)


def test_cli_figure_plots_the_sets_that_trace(tmp_path):
    """A set whose action cannot be built is recorded and the figure goes on
    with the others: curves, node markers and the manifest."""
    cfg = _linear_config(tmp_path / "out")
    cfg = dataclasses.replace(cfg, param_sets=[*cfg.param_sets, (1e5, 0.0)]).validate()
    cfgp = tmp_path / "run.cfg"
    cfg.to_file(cfgp)
    result = run_cli(["figure", "--config", str(cfgp), "--figure", "3"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    manifest = json.loads((out / "figure3_manifest.json").read_text())
    assert [e["status"] for e in manifest["sets"]] == ["ok", "ok", "error"]
    assert manifest["sets"][2]["error"].startswith("BranchResolutionError: ")
    script = (out / "figure3.gp").read_text()
    assert "'trajectory_0.csv'" in script and "'trajectory_1.csv'" in script
    assert "trajectory_2.csv" not in script
    assert not (out / "trajectory_2.csv").exists()
    assert "'nodes.csv'" in script and (out / "nodes.csv").exists()


@pytest.mark.parametrize("run, changes, basis_builds", [
    (pipeline.run_trace, {}, 1),
    # E = V at 2000 fm: each set's trace fails after its action is built
    (pipeline.run_trace, {"grid_min": 1600.0, "grid_max": 2400.0, "x0": 1700.0,
                          "sync": "exact"}, 1),
    (pipeline.run_analyze, {}, 1),
    (lambda cfg: pipeline.run_figure(cfg, 3), {}, None),
])
def test_set_loops_hold_one_action_at_a_time(tmp_path, monkeypatch, run, changes,
                                             basis_builds):
    """A set's ReducedAction is dropped before the next one is built."""
    actions, builds = [], []
    new_action, build_basis = pipeline.ReducedAction, pipeline.build_basis

    def one_at_a_time(*args, **kwargs):
        assert all(ref() is None for ref in actions), "an earlier action is alive"
        ra = new_action(*args, **kwargs)
        actions.append(weakref.ref(ra))
        return ra

    def counted(*args, **kwargs):
        builds.append(args)
        return build_basis(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ReducedAction", one_at_a_time)
    monkeypatch.setattr(pipeline, "build_basis", counted)
    run(dataclasses.replace(_linear_config(tmp_path / "out"), **changes).validate())
    assert len(actions) >= 2
    if basis_builds is not None:
        assert len(builds) == basis_builds


@pytest.mark.parametrize("run", [
    pipeline.run_analyze,
    lambda cfg: pipeline.run_figure(cfg, 3),
], ids=["analyze", "figure"])
def test_node_detection_runs_after_the_basis_is_freed(tmp_path, monkeypatch, run):
    """Node detection gets the zeros of phi2 as its rungs, taken from the
    basis of the set loop, and runs once every basis is dead."""
    bases, detected = [], []
    build_basis, detect = pipeline.build_basis, pipeline.detect_nodes

    def recorded_basis(*args, **kwargs):
        basis = build_basis(*args, **kwargs)
        bases.append((weakref.ref(basis), _zeros_of(basis.grid, basis.phi2)))
        return basis

    def after_the_basis(curves, rungs, setup, t_range):
        assert all(ref() is None for ref, _ in bases), "a basis is alive"
        assert np.array_equal(rungs, bases[-1][1])
        detected.append(len(curves))
        return detect(curves, rungs, setup, t_range)

    monkeypatch.setattr(pipeline, "build_basis", recorded_basis)
    monkeypatch.setattr(pipeline, "detect_nodes", after_the_basis)
    cfg = _linear_config(tmp_path / "out")
    run(cfg)
    assert detected == [len(cfg.param_sets)]


@pytest.mark.parametrize("run, checks", [
    (pipeline.run_analyze, 4),
    (lambda cfg: pipeline.run_figure(cfg, 3), 0),
], ids=["analyze", "figure"])
def test_set_loops_keep_only_t_and_x(tmp_path, monkeypatch, run, checks):
    """A set's ReducedAction is dead before its closure and first-integral
    checks run, and its trajectory before the next set's action is built.
    Once analyze's set loop or figure's node pass ends, no trajectory is
    alive: node detection gets each trace's own t and x arrays."""
    actions, traces, checked = [], [], []
    new_action, trace, detect = (pipeline.ReducedAction, pipeline.trace_quadrature,
                                 pipeline.detect_nodes)

    def dead(refs):
        return all(ref() is None for ref in refs)

    def recorded_action(*args, **kwargs):
        assert dead(actions), "an earlier action is alive"
        assert dead(ref for ref, _, _ in traces), "an earlier trajectory is alive"
        ra = new_action(*args, **kwargs)
        actions.append(weakref.ref(ra))
        return ra

    def recorded_trace(*args, **kwargs):
        tr = trace(*args, **kwargs)
        traces.append((weakref.ref(tr), tr.t, tr.x))
        return tr

    def after_the_action(check):
        def checked_once_dead(tr, *args, **kwargs):
            assert dead(actions), f"{check.__name__} runs while the action is alive"
            checked.append(check.__name__)
            return check(tr, *args, **kwargs)
        return checked_once_dead

    def from_t_and_x(curves, rungs, setup, t_range):
        assert dead(ref for ref, _, _ in traces), "a trajectory is alive"
        kept = traces[-len(curves):]
        assert all(t is kt and x is kx for (t, x), (_, kt, kx) in zip(curves, kept))
        return detect(curves, rungs, setup, t_range)

    monkeypatch.setattr(pipeline, "ReducedAction", recorded_action)
    monkeypatch.setattr(pipeline, "trace_quadrature", recorded_trace)
    for name in ("closure_residual", "firqnl_residual"):
        monkeypatch.setattr(pipeline, name, after_the_action(getattr(pipeline, name)))
    monkeypatch.setattr(pipeline, "detect_nodes", from_t_and_x)
    run(_linear_config(tmp_path / "out"))
    assert len(checked) == checks
    assert len(traces) >= 2 and dead(ref for ref, _, _ in traces)
