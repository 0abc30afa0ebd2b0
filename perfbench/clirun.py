"""End-to-end repetitions: each CLI command as a fresh process, outputs checked.

A repetition runs, in order and one process at a time: a set-up probe (a
fresh interpreter that imports ``rqtraj.cli`` and parses the config), then
``basis --compare-methods``, ``analyze`` and ``figure --figure N``.  The
commands run with the repetition directory as working directory, so the
config's relative ``[output] dir`` lands in a fresh directory while the
emitted bytes (which embed the config hash and relative paths) stay
comparable across repetitions.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROBE = (
    "import sys, rqtraj.cli\n"
    "from rqtraj.config import parse_config\n"
    "parse_config(sys.argv[1]).validate()\n"
)

# A fixed job that does not touch rqtraj but has its mix of work: a fresh
# interpreter, the numpy import, per-value float formatting and vector maths.
# Its wall time tracks how fast the shared machine runs at that moment.
CALIBRATION = (
    "import numpy as np\n"
    "x = np.linspace(0.0, 1.0, 60000)\n"
    "s = ','.join(f'{v:.16e}' for v in x)\n"
    "a = np.random.default_rng(0).random(400000)\n"
    "for _ in range(4):\n"
    "    a = np.sort(np.sin(a) * 1e3)\n"
)
# Calibration wall time that defines the reference machine speed: about the
# median recorded with perfbench/baseline.json (0.42-0.45 s per workload on
# a 2-core Xeon VM).  A scaled time is the wall time the command takes when
# the calibration reads this.
CALIBRATION_REF_S = 0.43

# Resolution of quantum_hj_max and wronskian_drift, both relative (to the
# largest term, and to the Wronskian at the first grid point).  Values below
# it are round-off, which a reassociation that keeps the accuracy moves by
# 50-200 %; they are reported as this floor so that only a change above
# round-off can move the gated figure.
ROUNDOFF_FLOOR = 1e-12

# a float the writers emit for NaN or +-inf: the whole CSV field reads nan/inf
_NONFINITE = re.compile(rb"(?:^|,)[+-]?(?:nan|inf)(?:,|$)", re.MULTILINE | re.IGNORECASE)


def commands(figure: int):
    """(operation name, rqtraj CLI arguments, manifests the command writes)."""
    return [
        ("basis", ["basis", "--compare-methods"], ["basis_manifest.json"]),
        ("analyze", ["analyze"], ["analyze_manifest.json"]),
        ("figure", ["figure", "--figure", str(figure)],
         [f"figure{figure}_manifest.json", "trace_manifest.json"]),
    ]


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def calibrate(spawner, cwd: Path) -> float:
    """Wall seconds of one calibration process."""
    wall, code, _ = spawner.run([sys.executable, "-c", CALIBRATION], cwd, dict(os.environ),
                                cwd / "calibration")
    if code != 0:
        raise RuntimeError(f"calibration process exited with code {code}")
    return wall


def check_manifest(cwd: Path, manifest_path: Path, expected_hash: str, seen=None):
    """Problems found in one manifest and the files it lists, plus their digests.

    Files named in ``seen`` were checked already and are skipped; the names
    checked here are added to it.
    """
    seen = set() if seen is None else seen
    problems, digests = [], {}
    if not manifest_path.is_file():
        return [f"{manifest_path.name}: missing"], digests
    manifest = json.loads(manifest_path.read_text())
    digests[manifest_path.name] = hashlib.sha256(manifest_path.read_bytes()).hexdigest()
    if manifest.get("config_hash") != expected_hash:
        problems.append(f"{manifest_path.name}: config_hash does not match the config")
    for entry in manifest.get("sets", []):
        if entry.get("status") != "ok":
            problems.append(f"{manifest_path.name}: set a={entry.get('a')} b={entry.get('b')} "
                            f"status {entry.get('status')}: {entry.get('error')}")
    for name in manifest.get("files", []):
        if name in seen:
            continue
        seen.add(name)
        path = cwd / name
        if not path.is_file():
            problems.append(f"{manifest_path.name}: listed file {name} missing")
            continue
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".csv":
            if f"# config_hash: {expected_hash}\n".encode() not in data[:4096]:
                problems.append(f"{name}: header config_hash does not match the config")
            lowered = data.lower()
            if (b"nan" in lowered or b"inf" in lowered) and _NONFINITE.search(data):
                problems.append(f"{name}: non-finite value in a numeric column")
        elif path.suffix == ".json":
            if json.loads(data).get("config_hash") != expected_hash:
                problems.append(f"{name}: config_hash does not match the config")
    return problems, digests


@dataclass
class Rep:
    """One repetition: per-operation wall times, peak RSS, failures, digests."""

    wall: dict = field(default_factory=dict)
    rss_mb: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def fail(self, op: str, problems):
        self.failed += 1
        self.problems.extend(f"{op}: {p}" for p in problems)


def run_rep(spawner, root: Path, figure: int, cfg_text: str, rep_dir: Path, expected_hash: str,
            before_each=lambda: None) -> Rep:
    """One repetition in ``rep_dir``, every process started by ``spawner``.

    ``before_each`` runs before every timed process.
    """
    rep_dir.mkdir(parents=True)
    cfg_name = "workload.cfg"
    (rep_dir / cfg_name).write_text(cfg_text)
    env = program_env(root)
    rep = Rep()
    seen = set()

    rep.attempted += 1
    before_each()
    wall, code, _ = spawner.run([sys.executable, "-c", PROBE, cfg_name], rep_dir, env,
                                rep_dir / "setup")
    rep.wall["setup"] = wall
    if code != 0:
        rep.fail("setup", [f"exit code {code}: {(rep_dir / 'setup.err').read_text()[-500:]}"])

    for op, args, manifests in commands(figure):
        rep.attempted += 1
        before_each()
        wall, code, rss = spawner.run(
            [sys.executable, "-m", "rqtraj.cli", *args, "--config", cfg_name],
            rep_dir, env, rep_dir / op)
        rep.wall[op], rep.rss_mb[op] = wall, rss
        if code != 0:
            rep.fail(op, [f"exit code {code}: {(rep_dir / f'{op}.err').read_text()[-500:]}"])
            continue
        out = out_dir(rep_dir, cfg_text)
        problems = []
        for m in manifests:
            p, d = check_manifest(rep_dir, out / m, expected_hash, seen)
            problems += p
            rep.digests.update({f"{op}/{k}": v for k, v in d.items()})
        if problems:
            rep.fail(op, problems)
    return rep


def out_dir(rep_dir: Path, cfg_text: str) -> Path:
    """Where the CLI writes, from the config's relative ``[output] dir``."""
    return rep_dir / re.search(r"^dir = (.*)$", cfg_text, re.MULTILINE).group(1).strip()


def compare_digests(first: Rep, rep: Rep):
    """Count, as failed operations of ``rep``, outputs that differ from ``first``."""
    changed = {}
    for key, digest in rep.digests.items():
        if first.digests.get(key) != digest:
            op, name = key.split("/", 1)
            changed.setdefault(op, []).append(f"{name} differs from the first repetition")
    for op, problems in changed.items():
        rep.fail(op, problems)


# ----------------------------------------------------------------------
# accuracy read back from the emitted files
# ----------------------------------------------------------------------

def read_columns(path: Path, names):
    """Named float columns of a CSV written by ``rqtraj.output.write_csv``."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    idx = [header.index(n) for n in names]
    rows = [ln.split(",") for ln in lines[1:]]
    return [np.array([r[i] for r in rows]).astype(float) for i in idx]


def _zeros(x, y):
    s = np.sign(y)
    i = np.nonzero(s[:-1] * s[1:] < 0)[0]
    return x[i] - y[i] * (x[i + 1] - x[i]) / (y[i + 1] - y[i])


def accuracy(rep_dir: Path, cfg_text: str, cfg) -> dict:
    """Accuracy of one repetition's outputs, from the files the CLI emitted.

    ``cfg`` is the parsed config (``rqtraj.config.RunConfig``).  Node counts
    are taken inside the common time window of the emitted trajectories; the
    reference is the closed-form node ladder when ``nodes_closed_form.json``
    exists, otherwise the zeros of phi2 of the configured numeric basis, and
    zero for a single evanescent set (which has no nodes).
    """
    out = out_dir(rep_dir, cfg_text)
    per_set = json.loads((out / "validation.json").read_text())["per_set"]
    acc = {
        "closure_max": max(e["closure_max"] for e in per_set),
        "first_integral_max": max(e["first_integral_max"] for e in per_set),
    }
    qhj = [e["quantum_hj_max"] for e in per_set if "quantum_hj_max" in e]
    acc["raw_quantum_hj_max"] = max(qhj) if qhj else _quantum_hj_from_basis(out, cfg)
    acc["quantum_hj_source"] = "validation.json" if qhj else "emitted basis"
    drift = json.loads((out / "basis_manifest.json").read_text())["drift"]
    acc["raw_wronskian_drift"] = drift.get(cfg.method, drift.get("analytic"))
    for key in ("quantum_hj_max", "wronskian_drift"):
        acc[key] = max(acc[f"raw_{key}"], ROUNDOFF_FLOOR)

    trajs = [read_columns(out / f"trajectory_{i}.csv", ["t_s", "x_fm"])
             for i in range(len(cfg.param_sets))]
    t_lo = max(t[0] for t, _ in trajs)
    t_hi = min(t[-1] for t, _ in trajs)
    detected_path = out / "nodes_detected.json"
    detected = len(json.loads(detected_path.read_text())["times"]) if detected_path.is_file() else 0
    closed_path = out / "nodes_closed_form.json"
    if closed_path.is_file():
        closed = json.loads(closed_path.read_text())
        t0, dt = closed["times"][0], closed["dt"][0]
        n_lo = int(np.ceil((t_lo - t0) / dt))
        n_hi = int(np.floor((t_hi - t0) / dt))
        reference = max(n_hi - n_lo + 1, 0)
    elif cfg.potential_kind != "constant":
        x, phi2 = read_columns(out / f"basis_{cfg.method}.csv", ["x_fm", "phi2"])
        x_lo = max(np.interp(t_lo, t, xx) for t, xx in trajs)
        x_hi = min(np.interp(t_hi, t, xx) for t, xx in trajs)
        z = _zeros(x, phi2)
        reference = int(np.count_nonzero((z >= x_lo) & (z <= x_hi)))
    else:
        reference = 0
    acc["nodes_detected"] = detected
    acc["nodes_reference"] = reference
    # one set has no pairwise crossings, so no detection to compare
    acc["node_count_gap"] = abs(detected - reference) if len(trajs) > 1 else None
    acc["node_count_ratio"] = (
        1.0 if detected == reference else min(detected, reference) / max(detected, reference)
    )
    return acc


def _quantum_hj_from_basis(out: Path, cfg) -> float:
    """Quantum-HJ residual on the emitted analytic basis.

    ``analyze`` skips this validator for evanescent constant potentials; the
    benchmark applies the package's own validator to the basis the CLI wrote,
    so every workload reports the metric.
    """
    from rqtraj.action import ReducedAction
    from rqtraj.analysis import rqshje_residual
    from rqtraj.kleingordon import SolutionBasis
    from rqtraj.model import HiddenParams
    from rqtraj.pipeline import build_potential, build_setup

    cols = read_columns(out / "basis_analytic.csv", ["x_fm", "phi1", "dphi1_per_fm", "phi2", "dphi2_per_fm"])
    basis = SolutionBasis(*cols)
    setup, pot = build_setup(cfg), build_potential(cfg)
    return max(
        rqshje_residual(ReducedAction(basis, HiddenParams(a, b), setup), setup, pot).max_residual
        for a, b in cfg.param_sets
    )
