"""Command-line surface: basis / trace / analyze / figure.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (regime
or tolerance details go to stderr).  Exit 2 also covers an unknown section
or key, an empty ``sets``, a fractional ``samples``, a nan or inf value
such as ``hbar_scale = nan``, ``window <= 0``, a grid of fewer than two
points and a tabulated-potential file that is missing, has fewer than two
columns or has no increasing grid; then no file is written.  Every run
parameter is a config key; ``--out`` only moves the output directory.
``figure --figure N`` draws what the sets carry (an asymptote for each
divergence time, node markers whenever the run yields nodes); N only
names the title, the PNG, the script and the manifest.  ``figure`` exits
3 when no set traces, and then writes no file.
"""

from __future__ import annotations

import sys

import click

from . import pipeline
from .config import parse_config
from .errors import ConfigError, RqtError


def _load_config(path, out):
    cfg = parse_config(path)
    if out is not None:
        cfg.out_dir = out
    return cfg


def _common(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Run configuration file.")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default=None,
                      help="Output directory (overrides config).")(fn)
    return fn


@click.group()
def main():
    """Relativistic quantum trajectories: solve, trace, analyze, plot."""


def _run(cfg_args, runner, *extra):
    try:
        return runner(_load_config(*cfg_args), *extra)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except RqtError as exc:
        click.echo(f"numerical failure: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)


@main.command()
@_common
@click.option("--compare-methods", is_flag=True,
              help="Emit both Euler and RK4 bases with a drift comparison.")
def basis(config_path, out, compare_methods):
    """Solve the wave-equation basis and export it as CSV."""
    manifest = _run((config_path, out), pipeline.run_basis, compare_methods)
    click.echo("wronskian drift by method:")
    for m, d in manifest["drift"].items():
        click.echo(f"  {m:>8s}: {d:.6e}")
    for f in manifest["files"]:
        click.echo(f"wrote {f}")


@main.command()
@_common
def trace(config_path, out):
    """Trace one trajectory per hidden-parameter set."""
    manifest = _run((config_path, out), pipeline.run_trace)
    for entry in manifest["sets"]:
        if entry["status"] == "ok":
            note = ""
            if entry.get("divergence_time_s"):
                note = f"  (divergence at t = {entry['divergence_time_s']:.6e} s)"
            click.echo(f"a={entry['a']:g} b={entry['b']:g}: {entry['file']}{note}")
        else:
            click.echo(f"a={entry['a']:g} b={entry['b']:g}: {entry['error']}", err=True)
    if manifest.get("classical"):
        click.echo(f"classical: {manifest['classical']}")


@main.command()
@_common
def analyze(config_path, out):
    """Detect nodes, compute spacings/wavelengths, run the validators."""
    manifest = _run((config_path, out), pipeline.run_analyze)
    width = max(len(k) for k, _ in manifest["summary"]) if manifest["summary"] else 0
    for key, val in manifest["summary"]:
        click.echo(f"  {key:<{width}s}  {val}")
    for f in manifest["files"]:
        click.echo(f"wrote {f}")


@main.command()
@_common
@click.option("--figure", "figure_n", type=click.IntRange(1, 3), required=True,
              help="Figure number (1, 2 or 3): names the title, PNG, script and manifest.")
def figure(config_path, out, figure_n):
    """Emit data CSVs plus a gnuplot script for one of the three figures."""
    manifest = _run((config_path, out), pipeline.run_figure, figure_n)
    click.echo(f"plot script: {manifest['plot_script']}")
    for f in manifest["files"]:
        click.echo(f"wrote {f}")


if __name__ == "__main__":
    main()
