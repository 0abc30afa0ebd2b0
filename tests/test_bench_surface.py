"""The rqtraj surface the benchmark's traced run calls.

``perfbench/traced.py`` wraps the functions listed in its ``TARGETS`` and
only warns on stderr when one is missing, so a renamed function would drop
its per-layer metrics without a failure.  These tests fail instead.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rqtraj as rq

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


# Targets the traced run still names after the program deleted them, with
# the reason; it warns and records no span for them.  Each goes with its
# TARGETS line, and a target missing for any other reason fails the test.
GONE = {
    "rqtraj.analysis._pairwise_crossings":
        "no caller since detect_nodes reads rung arrivals; analysis.crossings read 0 before",
}


def test_every_traced_target_resolves(traced):
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in traced.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == sorted(GONE)


def test_the_benchmark_imports_load_every_traced_module(traced):
    """``instrumented`` reads each target's module from ``sys.modules`` after
    ``import_program`` imported only the CLI, the config and the pipeline."""
    modules = sorted({mod for mod, _, _, _ in traced.TARGETS})
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rqtraj.cli, rqtraj.config, rqtraj.pipeline\n"
         "print(*[m for m in sys.argv[1:] if m not in sys.modules])\n", *modules],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(rq.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("fn, position, name", [
    (rq.solve_numeric, 3, "method"),
    (rq.firqnl_residual, 1, "stride"),
    (rq.output.write_csv, 2, "columns"),
])
def test_arguments_the_span_counters_read(fn, position, name):
    """The wrappers read these arguments by position or by keyword."""
    assert list(inspect.signature(fn).parameters)[position] == name


def test_positional_calls_of_the_benchmark(electron2, const_basis):
    b = const_basis
    basis = rq.SolutionBasis(b.grid, b.phi1, b.dphi1, b.phi2, b.dphi2)
    assert basis.wronskian == b.wronskian
    pot = rq.ConstantPotential(0.0)
    action = rq.ReducedAction(basis, rq.HiddenParams(0.2, 0.0), electron2)
    assert np.isfinite(rq.rqshje_residual(action, electron2, pot).max_residual)


def test_traces_carry_params_and_events(electron2, evanescent03):
    hp = rq.HiddenParams(0.25, 8.0)
    dt = rq.node_period(electron2, 0.0)
    pot = rq.LinearPotential(1e-3)
    grid = np.arange(-500.0, 500.1, 0.2)
    basis = rq.solve_numeric(electron2, pot, grid, init1=(0.0, 1.0), init2=(1.0, 0.0))
    traces = [
        rq.trace_constant_oscillatory(electron2, 0.0, hp, 0.0, (0.0, dt), 101),
        rq.trace_constant_evanescent(evanescent03, 0.0, hp, 0.0, (0.0, 1e-21), 101),
        rq.trace_quadrature(rq.ReducedAction(basis, hp, electron2), pot, 0.0, "exact"),
    ]
    for tr in traces:
        assert tr.meta["params"] == hp
        assert isinstance(tr.meta["events"], dict)
