"""Command-line surface: basis / trace / analyze / figure.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical failure
(regime or tolerance details go to stderr).  Exit 2 covers argparse's
usage errors (a missing or unknown command or option, a ``--config`` that
does not exist, is a directory or is not readable, an ``--out`` that is an
existing file, a ``--figure`` other than 1, 2 or 3) and what
``parse_config`` checks (an unknown section or key, such as the removed
``window`` and ``basis_init``, an empty ``sets``, a fractional ``samples``
or one above ``config.MAX_GRID_POINTS``, a nan or inf value such as
``hbar_scale = nan``, a grid of fewer than two or more than
``config.MAX_GRID_POINTS`` points, an ``x0`` outside the grid of a linear
or tabulated potential), all reported before numpy loads; the
command's module loads after them and checks the tabulated-potential file
(missing, fewer than two columns, a non-blank row whose field count
differs from the header's, no increasing grid, a nan or inf entry).  Then
no file is written.  Every run parameter is a config key; ``--out`` only
moves the output directory (the config hash leaves [output] out, so only
the paths a manifest lists follow it).
``figure --figure N`` draws what the sets carry (an asymptote for each
divergence time, node markers whenever the run yields nodes); N only
names the title, the PNG, the script and the manifest.  ``figure`` exits
3 when no set traces, and then writes no file.
A closed standard output (``| head``) ends a command with 0 and no
traceback: every file is written before the first line is printed.

Until the command's module loads, a process (``import rqtraj.cli``, then
parsing and checking the config) loads from the standard library only
argparse, configparser and re with what they import, pathlib and a
builtin sha256, and from rqtraj only ``cli``, ``config``, ``errors`` and
``constants``: no numpy, no OpenSSL, no ``dataclasses`` and so no
``inspect``, ``ast`` or ``dis``.
``basis`` loads ``build`` (numpy, the model, the solver and the writers);
``trace``, ``analyze`` and ``figure`` load ``pipeline``, which adds the
action, trajectory and analysis modules.
A command that loads numpy itself first sets ``OPENBLAS_NUM_THREADS=1``
unless the variable is already set: rqtraj makes no BLAS call, and the
worker threads numpy's OpenBLAS would start slow every command's start-up.
Such a process then freezes what its imports built (``gc.freeze``), so
neither a later collection nor the shutdown walks those objects again.
"""

import argparse
import gc
import importlib
import os
import sys

from .config import parse_config
from .errors import ConfigError, RqtError


def _config_file(path):
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
    return path


def _out_dir(path):
    if os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"directory {path!r} is a file")
    return path


def _run(args, module, runner, *extra):
    try:
        cfg = parse_config(args.config_path)
        if args.out is not None:
            cfg.out_dir = args.out
        fresh = "numpy" not in sys.modules
        if fresh:
            os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        run = getattr(importlib.import_module(f".{module}", __package__), runner)
        if fresh:
            gc.freeze()
        return run(cfg, *extra)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(2)
    except RqtError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(3)


def basis(args):
    """Solve the wave-equation basis and export it as CSV."""
    manifest = _run(args, "build", "run_basis", args.compare_methods)
    print("wronskian drift by method:")
    for m, d in manifest["drift"].items():
        print(f"  {m:>8s}: {d:.6e}")
    for f in manifest["files"]:
        print(f"wrote {f}")


def trace(args):
    """Trace one trajectory per hidden-parameter set."""
    manifest = _run(args, "pipeline", "run_trace")
    for entry in manifest["sets"]:
        if entry["status"] == "ok":
            note = ""
            if entry.get("divergence_time_s"):
                note = f"  (divergence at t = {entry['divergence_time_s']:.6e} s)"
            print(f"a={entry['a']:g} b={entry['b']:g}: {entry['file']}{note}")
        else:
            print(f"a={entry['a']:g} b={entry['b']:g}: {entry['error']}", file=sys.stderr)
    if manifest.get("classical"):
        print(f"classical: {manifest['classical']}")


def analyze(args):
    """Detect nodes, compute spacings/wavelengths, run the validators."""
    manifest = _run(args, "pipeline", "run_analyze")
    width = max(len(k) for k, _ in manifest["summary"]) if manifest["summary"] else 0
    for key, val in manifest["summary"]:
        print(f"  {key:<{width}s}  {val}")
    for f in manifest["files"]:
        print(f"wrote {f}")


def figure(args):
    """Emit data CSVs plus a gnuplot script for one of the three figures."""
    manifest = _run(args, "pipeline", "run_figure", args.figure_n)
    print(f"plot script: {manifest['plot_script']}")
    for f in manifest["files"]:
        print(f"wrote {f}")


def _command(commands, run) -> argparse.ArgumentParser:
    """The subcommand named after ``run``, with the options every command takes."""
    sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__)
    sub.set_defaults(run=run)
    sub.add_argument("--config", dest="config_path", metavar="PATH", required=True,
                     type=_config_file, help="Run configuration file.")
    sub.add_argument("--out", metavar="DIR", type=_out_dir, default=None,
                     help="Output directory (overrides config).")
    return sub


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqtraj",
        description="Relativistic quantum trajectories: solve, trace, analyze, plot.")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)
    _command(commands, basis).add_argument(
        "--compare-methods", action="store_true",
        help="Emit the Magnus (rk4) and Euler bases with a drift comparison.")
    _command(commands, trace)
    _command(commands, analyze)
    _command(commands, figure).add_argument(
        "--figure", dest="figure_n", metavar="N", type=int, choices=(1, 2, 3), required=True,
        help="Figure number (1, 2 or 3): names the title, PNG, script and manifest.")
    return parser


def main(argv=None):
    """Run one command on ``argv`` (default ``sys.argv[1:]``).

    Returns on success; exits through ``SystemExit`` with code 2 on a usage
    or configuration error and 3 on a numerical failure.
    """
    args = _parser().parse_args(argv)
    try:
        args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    main()
