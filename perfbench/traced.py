"""In-process runs of the pipeline, untraced and traced, and the per-layer metrics.

The traced run wraps the public functions of each ``rqtraj`` module (and
the one private helper that finds pairwise crossings) for its duration
only.  Every module attribute bound to a wrapped function is patched, so
calls through ``from .x import y`` aliases are seen too.  Spans live in
memory: name, start, end, parent and run id; counts are recorded at the
same boundaries.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: str = ""
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
                "run": self.run, "self_s": self.self_s, "counts": self.counts}


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), parent=parent, run=self.run)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += sp.duration

    def descendants(self, index: int):
        """Spans nested (at any depth) inside span ``index``."""
        inside = {index}
        for i in range(index + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
                yield self.spans[i]


# ----------------------------------------------------------------------
# what gets wrapped, and what each wrapper counts
# ----------------------------------------------------------------------

def _count_trace(sp, args, kwargs, result):
    sp.counts["samples"] = int(result.t.size)
    sp.counts["halt"] = int(bool(result.meta.get("events", {}).get("halt")))
    hp = result.meta["params"]
    sp.counts["set"] = (hp.a, hp.b) if hp is not None else None


def _count_grid(sp, args, kwargs, result):
    sp.counts["grid_points"] = int(result.grid.size)


def _count_nodes(sp, args, kwargs, result):
    sp.counts["nodes"] = int(result.times.size)
    sp.counts["clusters"] = int(result.extras.get("n_clusters_total", 0))


def _count_crossings(sp, args, kwargs, result):
    sp.counts["crossings"] = int(result[0].size)


def _count_firqnl(sp, args, kwargs, result):
    traj = args[0]
    stride = kwargs.get("stride", 1)
    sp.counts["windows"] = max(int(traj.t.size) - 6 * stride, 0)


def _count_csv(sp, args, kwargs, result):
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    sp.counts["rows"] = len(columns[0][1]) if columns else 0
    sp.counts["bytes"] = Path(args[0]).stat().st_size


# (module, attribute, span name, counter)
TARGETS = [
    ("rqtraj.config", "parse_config", "config.parse", None),
    ("rqtraj.pipeline", "run_basis", "pipeline.basis", None),
    ("rqtraj.pipeline", "run_analyze", "pipeline.analyze", None),
    ("rqtraj.pipeline", "run_figure", "pipeline.figure", None),
    ("rqtraj.pipeline", "run_trace", "pipeline.trace", None),
    ("rqtraj.pipeline", "build_basis", "pipeline.build_basis", None),
    ("rqtraj.kleingordon", "solve_numeric", "kleingordon.solve_numeric", _count_grid),
    ("rqtraj.kleingordon", "solve_constant", "kleingordon.solve_constant", _count_grid),
    ("rqtraj.kleingordon", "wronskian_drift", "kleingordon.wronskian_drift", None),
    ("rqtraj.action", "ReducedAction", "action.reduced_action", _count_grid),
    ("rqtraj.trajectory", "trace_constant_oscillatory", "trajectory.trace", _count_trace),
    ("rqtraj.trajectory", "trace_constant_evanescent", "trajectory.trace", _count_trace),
    ("rqtraj.trajectory", "trace_quadrature", "trajectory.trace", _count_trace),
    ("rqtraj.trajectory", "classical_trace", "trajectory.classical", None),
    ("rqtraj.analysis", "detect_nodes", "analysis.detect_nodes", _count_nodes),
    ("rqtraj.analysis", "_pairwise_crossings", "analysis.crossings", _count_crossings),
    ("rqtraj.analysis", "nodes_closed_form", "analysis.nodes_closed_form", None),
    ("rqtraj.analysis", "firqnl_residual", "analysis.firqnl", _count_firqnl),
    ("rqtraj.analysis", "closure_residual", "analysis.closure", None),
    ("rqtraj.analysis", "rqshje_residual", "analysis.rqshje", None),
    ("rqtraj.output", "write_csv", "output.write_csv", _count_csv),
    ("rqtraj.output", "write_json", "output.write_json", None),
]

# layers whose peak allocation is measured with tracemalloc (it slows
# allocation-heavy code, so it is limited to the layer that reports it)
MEMORY_SPANS = {"analysis.firqnl"}


def _wrap(tracer: Tracer, fn, name: str, counter):
    def wrapper(*args, **kwargs):
        span_name = name
        if name == "kleingordon.solve_numeric":
            span_name = f"kleingordon.{kwargs.get('method', args[3] if len(args) > 3 else 'rk4')}"
        with tracer.span(span_name) as sp:
            if span_name in MEMORY_SPANS:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if span_name in MEMORY_SPANS:
                    sp.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                counter(sp, args, kwargs, result)
            return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every rqtraj module attribute bound to a target; undo on exit."""
    patched = []
    modules = [m for n, m in list(sys.modules.items()) if n == "rqtraj" or n.startswith("rqtraj.")]
    try:
        for mod_name, attr, name, counter in TARGETS:
            fn = getattr(sys.modules[mod_name], attr, None)
            if fn is None:
                print(f"perfbench: {mod_name}.{attr} not found; span {name} not recorded",
                      file=sys.stderr)
                continue
            wrapper = _wrap(tracer, fn, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, fn))
        yield tracer
    finally:
        for mod, key, fn in reversed(patched):
            setattr(mod, key, fn)


# ----------------------------------------------------------------------
# one in-process repetition
# ----------------------------------------------------------------------

def import_program(root: Path):
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import rqtraj.cli  # noqa: F401  (loads every module the CLI uses)
    import rqtraj.config
    import rqtraj.pipeline

    return rqtraj.config, rqtraj.pipeline


def run_in_process(root: Path, cfg_path: Path, out_dir: Path, figure: int, tracer: Tracer = None):
    """basis --compare-methods, analyze, figure N in this process.

    Returns (inclusive seconds per command, config).  With a tracer the
    calls go through the instrumented functions.
    """
    config, pipeline = import_program(root)
    times = {}
    with instrumented(tracer) if tracer else nullcontext():
        cfg = config.parse_config(cfg_path).validate()
        cfg.out_dir = str(out_dir)
        for op, call in (
            ("basis", lambda: pipeline.run_basis(cfg, True)),
            ("analyze", lambda: pipeline.run_analyze(cfg)),
            ("figure", lambda: pipeline.run_figure(cfg, figure)),
        ):
            t0 = time.perf_counter()
            call()
            times[op] = time.perf_counter() - t0
    return times, cfg


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced repetition."""
    spans = tracer.spans

    def self_s(name):
        return sum(s.self_s for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def first(name):
        return next(i for i, s in enumerate(spans) if s.name == name)

    m = {}
    rk4_s = self_s("kleingordon.rk4")
    rk4_points = count("kleingordon.rk4", "grid_points")
    m["kleingordon.rk4_s"] = rk4_s
    m["kleingordon.euler_s"] = self_s("kleingordon.euler")
    m["kleingordon.grid_points"] = rk4_points
    m["kleingordon.points_per_s"] = rk4_points / rk4_s if rk4_s > 0 else 0.0
    # per RK4 step: u at nodes and midpoints in, four state arrays out, float64
    m["kleingordon.bytes_computed"] = 6 * 8 * rk4_points
    m["action.reduced_action_s"] = self_s("action.reduced_action")
    m["action.grid_points"] = count("action.reduced_action", "grid_points")
    m["trajectory.trace_s"] = self_s("trajectory.trace")
    m["trajectory.samples"] = count("trajectory.trace", "samples")
    m["trajectory.classical_s"] = self_s("trajectory.classical")
    m["trajectory.halt_events"] = count("trajectory.trace", "halt")
    m["analysis.detect_nodes_s"] = self_s("analysis.detect_nodes") + self_s("analysis.crossings")
    m["analysis.crossings"] = count("analysis.crossings", "crossings")
    clusters = count("analysis.detect_nodes", "clusters")
    m["analysis.clusters"] = clusters
    m["analysis.node_yield"] = count("analysis.detect_nodes", "nodes") / clusters if clusters else 0.0
    m["analysis.firqnl_s"] = self_s("analysis.firqnl")
    m["analysis.firqnl_windows"] = count("analysis.firqnl", "windows")
    m["analysis.firqnl_peak_mb"] = max(
        (s.counts.get("peak_bytes", 0) for s in spans if s.name == "analysis.firqnl"), default=0
    ) / 1e6
    m["analysis.closure_s"] = self_s("analysis.closure")
    m["analysis.rqshje_s"] = self_s("analysis.rqshje")
    csv_s = self_s("output.write_csv")
    csv_bytes = count("output.write_csv", "bytes")
    m["output.write_csv_s"] = csv_s
    m["output.csv_rows"] = count("output.write_csv", "rows")
    m["output.csv_bytes"] = csv_bytes
    m["output.csv_mb_per_s"] = csv_bytes / 1e6 / csv_s if csv_s > 0 else 0.0
    m["output.write_json_s"] = self_s("output.write_json")
    m["config.parse_s"] = self_s("config.parse")

    fig = first("pipeline.figure")
    inside = list(tracer.descendants(fig))
    builds = [s for s in inside if s.name == "pipeline.build_basis"]
    traces = [s for s in inside if s.name == "trajectory.trace"]
    seen, repeat = set(), sum(s.duration for s in builds[1:])
    for s in traces:
        key = s.counts.get("set")
        if key in seen:
            repeat += s.duration
        seen.add(key)
    m["pipeline.basis_s"] = spans[first("pipeline.basis")].duration
    m["pipeline.analyze_s"] = spans[first("pipeline.analyze")].duration
    m["pipeline.figure_s"] = spans[fig].duration
    m["pipeline.basis_builds"] = len(builds)
    m["pipeline.traces"] = len(traces)
    m["pipeline.repeat_s"] = repeat
    return m
