"""The benchmark run by ``run.py``: end-to-end repetitions, traced runs, the report."""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from statistics import median

from clirun import (
    CALIBRATION_REF_S, PROBE, accuracy, calibrate, check_manifest, compare_digests, program_env,
    run_rep,
)
from traced import Tracer, import_program, layer_metrics, run_in_process
from workloads import WORKLOADS, config_text

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = ("basis", "analyze", "figure")


def _config_hash(cfg_text: str) -> str:
    config, _ = import_program(ROOT)
    return config.parse_config_text(cfg_text).hash


class Work:
    """Scratch directory inside the checkout, removed when the run ends."""

    def __init__(self, name: str):
        self.path = ROOT / ".perfbench_work" / name
        shutil.rmtree(self.path, ignore_errors=True)
        self.count = 0

    def fresh(self, tag: str) -> Path:
        self.count += 1
        return self.path / f"{self.count:03d}-{tag}"

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def end_to_end(workload: str, seed: int, seconds: float, work: Work, spawner):
    """Timed repetitions: the first on seed 0 (accuracy is read from it), the rest on ``seed``.

    A seed rescales a and b only, which leaves the work unchanged, so the
    committed-config repetition is one more timing sample.  Accuracy from it
    is exact and seed-independent; on seeded inputs the worst-set residuals
    move 20-30 % from seed to seed, which is input variation, not noise.
    """
    config, _ = import_program(ROOT)
    figure = WORKLOADS[workload]
    ref_text, text = config_text(workload, 0), config_text(workload, seed)
    hashes = {t: _config_hash(t) for t in (ref_text, text)}

    # compile bytecode and fill the page cache before anything is timed
    warm = work.fresh("warm-up")
    warm.mkdir(parents=True)
    (warm / "workload.cfg").write_text(ref_text)
    spawner.run([sys.executable, "-c", PROBE, "workload.cfg"], warm, program_env(ROOT), warm / "setup")

    reps, cals, first_of, acc = [], [], {}, {}
    t0 = time.perf_counter()
    while len(reps) < 3 or time.perf_counter() - t0 < seconds:
        rep_text = ref_text if not reps else text
        rep_dir = work.fresh("rep")
        cal = []
        rep = run_rep(spawner, ROOT, figure, rep_text, rep_dir, hashes[rep_text],
                      before_each=lambda: cal.append(calibrate(spawner, warm)))
        cals.append(cal)
        if rep_text in first_of:
            compare_digests(first_of[rep_text], rep)
        first_of.setdefault(rep_text, rep)
        if not reps and not rep.failed:
            acc = accuracy(rep_dir, ref_text, config.parse_config_text(ref_text))
        shutil.rmtree(rep_dir)
        reps.append(rep)
        print(f"{workload:5s} rep {len(reps)} " + " ".join(
            f"{op}={rep.wall[op]:.4f}s" for op in ("setup", *COMMANDS))
            + " calibration=" + ",".join(f"{c:.4f}s" for c in cal))
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    # each repetition's wall times scaled to the reference machine speed:
    # the shared machine's speed drifts by tens of percent over minutes, and
    # the calibration process, run before every timed one, drifts with it
    scale = [CALIBRATION_REF_S / median(cal) for cal in cals]
    metrics = {f"{op}_s": median([r.wall[op] * f for r, f in zip(reps, scale)])
               for op in ("setup", *COMMANDS)}
    metrics["peak_rss_mb"] = median([max(r.rss_mb.values()) for r in reps])
    for key in ("closure_max", "first_integral_max", "quantum_hj_max",
                "wronskian_drift", "node_count_ratio"):
        if key in acc:
            metrics[key] = acc[key]
    info = {
        "repetitions": len(reps),
        "calibration_s": median([c for cal in cals for c in cal]),
        **{f"wall_{op}_s": median([r.wall[op] for r in reps]) for op in ("setup", *COMMANDS)},
        "error_rate": failed / attempted,
        "node_count_gap": acc.get("node_count_gap"),
        "nodes_detected": acc.get("nodes_detected"),
        "nodes_reference": acc.get("nodes_reference"),
        "quantum_hj_source": acc.get("quantum_hj_source"),
        "raw_quantum_hj_max": acc.get("raw_quantum_hj_max"),
        "raw_wronskian_drift": acc.get("raw_wronskian_drift"),
    }
    return metrics, info, attempted, failed, [p for r in reps for p in r.problems], []


def _src_loc():
    src = ROOT / "src"
    loc = sum(sum(1 for ln in p.read_text().splitlines() if ln.strip())
              for p in src.rglob("*.py"))
    gen = sum(sum(1 for ln in p.read_text(errors="replace").splitlines() if ln.strip())
              for p in src.rglob("*.c"))
    return loc, gen


def per_layer(workload: str, seed: int, seconds: float, work: Work, spawner):
    """CLI repetition, untraced and traced in-process runs, until time is up."""
    figure = WORKLOADS[workload]
    text = config_text(workload, seed)
    expected = _config_hash(text)
    attempted = failed = 0
    problems, samples, spans = [], [], []
    t0 = last = time.perf_counter()
    # a repetition here takes about a third of a run, so stop when the next
    # one would overrun rather than after it does
    while not samples or 2 * time.perf_counter() - last - t0 <= seconds:
        last = time.perf_counter()
        rep_dir = work.fresh("cli")
        rep = run_rep(spawner, ROOT, figure, text, rep_dir, expected)
        shutil.rmtree(rep_dir)
        attempted += rep.attempted
        failed += rep.failed
        problems += rep.problems

        runs = {}
        for mode in ("plain", "traced"):
            run_dir = work.fresh(mode)
            run_dir.mkdir(parents=True)
            (run_dir / "workload.cfg").write_text(text)
            tracer = Tracer(f"{workload}-{seed}-{len(samples)}") if mode == "traced" else None
            times, cfg = run_in_process(ROOT, run_dir / "workload.cfg", run_dir / "out",
                                           figure, tracer)
            attempted += len(COMMANDS)
            seen = set()
            for m in sorted((run_dir / "out").glob("*_manifest.json")):
                bad, _ = check_manifest(run_dir, m, cfg.hash, seen)
                if bad:
                    failed += 1
                    problems += [f"{mode} {p}" for p in bad]
            shutil.rmtree(run_dir)
            runs[mode] = (times, tracer)

        plain, _ = runs["plain"]
        traced_times, tracer = runs["traced"]
        spans += [sp.to_dict() for sp in tracer.spans]
        m = layer_metrics(tracer)
        m["cli.overhead_s"] = sum(rep.wall[op] for op in COMMANDS) - sum(plain.values())
        m["bench.tracing_overhead_s"] = sum(traced_times.values()) - sum(plain.values())
        samples.append(m)

    metrics = {name: median([s[name] for s in samples]) for name in samples[0]}
    metrics["src.loc"], metrics["src.generated_loc"] = _src_loc()
    info = {"repetitions": len(samples), "error_rate": failed / attempted}
    return metrics, info, attempted, failed, problems, spans


def _environment() -> dict:
    """The hardware and software a recorded result was measured on."""
    import numpy
    import rqtraj

    cpuinfo = Path("/proc/cpuinfo")
    models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
              if ln.startswith("model name")] if cpuinfo.is_file() else []
    return {"cpus": os.cpu_count(), "cpu_model": models[0] if models else platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "kernel_backend": getattr(rqtraj, "KERNEL_BACKEND", None)}


def _report(workload, metrics, info, units, problems):
    for name, value in metrics.items():
        print(f"{workload:5s} {name:28s} {value:.6g} {units.get(name, '')}")
    for name, value in info.items():
        if value is not None:
            shown = f"{value:.6g}" if isinstance(value, float) else value
            unit = "s" if name.endswith("_s") else {
                "error_rate": "ratio", "node_count_gap": "count",
                "raw_quantum_hj_max": "1", "raw_wronskian_drift": "1"}.get(name, "")
            print(f"{workload:5s} {name:28s} {shown} {unit}")
    for p in problems:
        print(f"{workload:5s} FAILED CHECK: {p}", file=sys.stderr)


def run(args, spawner) -> int:
    """Run the workloads ``args`` names and print the report; return the exit code."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    attempted = failed = 0
    results, spans = {}, []
    for workload, trace in jobs:
        work = Work(f"{workload}-{trace}")
        try:
            job = per_layer if trace else end_to_end
            metrics, info, att, fail, problems, run_spans = job(workload, args.seed, seconds, work,
                                                                spawner)
        finally:
            work.close()
        _report(workload, metrics, info, units, problems)
        attempted += att
        failed += fail
        spans += run_spans
        results.setdefault(workload, {}).update(metrics)
        results[workload].setdefault("info", {})[f"trace{trace}"] = info

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.workload == "all":
        out_metrics = results
    else:
        got = results[args.workload]
        out_metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                       for m in wanted if m["name"] in got}
    correct = failed == 0 and (args.workload == "all" or len(out_metrics) == len(wanted))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}
    if args.out:
        record = {**result, "environment": _environment(), "seed": args.seed,
                  "seconds": seconds, "spans": spans}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1

