"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import re
import resource
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from clirun import check_manifest  # noqa: E402
from spawner import Spawner  # noqa: E402
from traced import Tracer, layer_metrics, run_in_process  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_and_workload_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_zero_reproduces_committed_config(workload):
    committed = (ROOT / "configs" / f"{workload}.cfg").read_bytes()
    assert config_text(workload, 0).encode() == committed


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_other_seeds_scale_only_the_hidden_parameters(workload):
    base = config_text(workload, 0).splitlines()
    for seed in (1, 2):
        text = config_text(workload, seed)
        assert text == config_text(workload, seed)
        lines = text.splitlines()
        changed = [i for i, (a, b) in enumerate(zip(base, lines)) if a != b]
        assert len(lines) == len(base) and len(changed) == 1
        old = [tuple(map(float, s.split(","))) for s in base[changed[0]][7:].split(";")]
        new = [tuple(map(float, s.split(","))) for s in lines[changed[0]][7:].split(";")]
        for (a0, b0), (a1, b1) in zip(old, new):
            assert 0.9 <= a1 / a0 <= 1.1
            assert b0 == b1 == 0 or 0.9 <= b1 / b0 <= 1.1


def test_output_check_flags_non_finite_csv_values(tmp_path):
    digest = "0" * 64
    csv = tmp_path / "t.csv"
    csv.write_text(f"# config_hash: {digest}\nt_s,x_fm\n1.0e+00,nan\n")
    manifest = tmp_path / "m_manifest.json"
    manifest.write_text(json.dumps({"config_hash": digest, "files": ["t.csv"]}))
    problems, _ = check_manifest(tmp_path, manifest, digest)
    assert problems == ["t.csv: non-finite value in a numeric column"]
    csv.write_text(f"# config_hash: {digest}\nt_s,regime\n1.0e+00,evanescent\n")
    assert check_manifest(tmp_path, manifest, digest)[0] == []


def test_spawned_process_peak_rss_excludes_the_benchmark_process(tmp_path):
    # this process's peak so far is the floor the spawner starts with
    floor_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with Spawner() as spawner:
        # raise this process's peak well above the floor, then start a trivial child
        ballast = np.ones(int((floor_mb + 256) * 1e6) // 8)
        wall, code, rss_mb = spawner.run([sys.executable, "-c", "pass"], tmp_path,
                                         dict(os.environ), tmp_path / "child")
        del ballast
    assert code == 0 and wall > 0
    assert (tmp_path / "child.out").is_file() and (tmp_path / "child.err").is_file()
    assert rss_mb < floor_mb + 128


def test_traced_fig3_run_counts_two_basis_builds_per_figure(tmp_path):
    cfg = tmp_path / "fig3.cfg"
    cfg.write_text(config_text("fig3", 0))
    tracer = Tracer("test")
    run_in_process(ROOT, cfg, tmp_path / "out", WORKLOADS["fig3"], tracer)
    metrics = layer_metrics(tracer)
    assert metrics["pipeline.basis_builds"] == 2
    assert metrics["pipeline.traces"] == 6
    reported = set(metrics) | {"cli.overhead_s", "bench.tracing_overhead_s",
                               "src.loc", "src.generated_loc"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}
