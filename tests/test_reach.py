"""Every function of ``src/rqtraj`` runs in some CLI command, or is declared exempt.

The four commands run in process under ``trace.Trace(count=1)``: on the
committed fig1-3 configs, with ``basis --compare-methods`` as the benchmark
runs it, and on two small configs written here for the features that no
committed config uses, a tabulated potential and ``hbar_scale`` != 1.  A
function of which no command executes a line is reported as
``file:line name`` unless ``EXEMPT`` gives its reason.  An exempt name that
no longer exists, or that a command now reaches, fails the test too, so the
list stays at its minimum.
"""

import ast
import importlib
import sys
import trace
from pathlib import Path

import numpy as np

import rqtraj
from rqtraj.config import RunConfig
from rqtraj.output import write_csv
from tests.conftest import run_cli

SRC = Path(rqtraj.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

EXEMPT = {
    "__init__.__getattr__": "library API: loads a name's submodule on first access",
    "__init__.__dir__": "library API: lists the lazily loaded names",
    "model.Potential.v": "abstract: every potential overrides it",
    "model.Potential.dv": "abstract: every potential overrides it",
    "model.Potential.d2v": "abstract: every potential overrides it",
    "config._line_of": "error path: the line of an unknown section or a rejected key",
    "config.RunConfig.to_file": "test helper: writes a config built in code",
    "model.f_function": "the paper's Lagrangian, for the claims ledger (ROADMAP item 9)",
    "model.lagrangian": "the paper's Lagrangian, for the claims ledger (ROADMAP item 9)",
    "model.classify_regime": "the regime check of f_function (ROADMAP item 9)",
}


def functions(path):
    """(qualified name, def line, body lines) of every def in one source file."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                # the body after the docstring: the def line runs at import
                body = child.body[1 if ast.get_docstring(child) is not None else 0:] or child.body
                found.append((name, child.lineno, range(body[0].lineno, child.end_lineno + 1)))
            visit(child, name)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def small_configs(tmp_path):
    """A tabulated V = 1e-3 x and a constant V with hbar scaled by 0.5."""
    table = tmp_path / "v.tab"
    x = np.linspace(-600.0, 600.0, 201)
    write_csv(table, [], [("x_fm", x), ("V_MeV", 1e-3 * x)])
    configs = {
        "tabulated": RunConfig(potential_kind="tabulated", table_file=str(table), grid_min=-500.0,
                               grid_max=500.0, grid_step=0.2, x0=-500.0,
                               param_sets=[(4.0, 2.5), (8.0, -3.0)], sync="phi2_zero"),
        "hbar": RunConfig(hbar_scale=0.5, samples=501, grid_step=0.5),
    }
    for name, cfg in configs.items():
        cfg.to_file(tmp_path / f"{name}.cfg")
    return [(tmp_path / f"{name}.cfg", 1, []) for name in configs]


def command_lines(tmp_path):
    runs = [(CONFIGS / f"fig{n}.cfg", n, ["--compare-methods"]) for n in (1, 2, 3)]
    lines = []
    for cfg, n, basis_flags in runs + small_configs(tmp_path):
        out = ["--config", str(cfg), "--out", str(tmp_path / "out" / cfg.stem)]
        lines += [["basis", *basis_flags, *out], ["trace", *out], ["analyze", *out],
                  ["figure", "--figure", str(n), *out]]
    return lines


def test_every_function_runs_in_a_command(tmp_path):
    sources = sorted(SRC.glob("*.py"))
    argvs = command_lines(tmp_path)
    for path in sources:
        # imported before tracing, so that only function bodies count, and
        # with empty caches, so that a function built on first use runs again
        module = importlib.import_module("rqtraj" if path.stem == "__init__"
                                         else f"rqtraj.{path.stem}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    for argv in argvs:
        result = tracer.runfunc(run_cli, argv)
        assert result.exit_code == 0, (argv, result.output)
    executed = {}
    for filename, line in tracer.results().counts:
        executed.setdefault(Path(filename).resolve(), set()).add(line)

    unreached, reached_exempt, names = [], [], set()
    for path in sources:
        for name, def_line, body in functions(path):
            names.add(name)
            if executed.get(path, set()).isdisjoint(body):
                if name not in EXEMPT:
                    unreached.append(f"src/rqtraj/{path.name}:{def_line} {name}")
            elif name in EXEMPT:
                reached_exempt.append(name)
    assert not unreached, "no command executes a line of:\n" + "\n".join(unreached)
    assert not reached_exempt, f"exempt but reached by a command: {reached_exempt}"
    gone = sorted(EXEMPT.keys() - names)
    assert not gone, f"exempt but gone: {gone}"
