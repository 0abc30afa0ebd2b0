"""Config-driven pipelines behind the CLI: trace, analyze, figure.

``basis`` and the setup, potential, grid and basis builders live in
``build``, which loads no action, trajectory or analysis module; their
names are imported here too.

Every pipeline returns a manifest dict (also written to JSON) listing the
emitted files; every emitted file embeds the resolved config hash.  Runs
are fully deterministic: identical configs produce byte-identical output.

Each command traces the (a, b) family through ``_family``.  A set whose
action or trace fails with an ``RqtError``: ``trace`` records the error in
the set's manifest entry and goes on with the next set; ``figure`` does
the same, plots the sets that traced and finds nodes among them, and
raises before writing any file when no set traced; ``analyze`` raises at
the first failed set.

Nodes are the rungs where every (a, b) of the family meets: the
closed-form ladder for an oscillatory constant potential, the zeros of
phi2 on the basis grid for a quadrature config (placed on the cubic
Hermite of phi2 and phi2'), none for an evanescent family.  ``analyze``
and the node pass of ``figure`` give them to ``analysis.detect_nodes``,
which reports each trace's arrival time there inside [t_min, t_max].

``analyze``'s closure and first-integral checks run the 7-point stencil at
stride 1 on every trace, along t for a closed form and along x for a
quadrature trace, so they measure the sampling the trace was computed on.
Its quantum-HJ check runs on quadrature actions only: a constant potential
builds no basis and no action (a test checks the closed-form algebra).

The sets run one at a time, each in one order: a quadrature set's action
is built, its trace is taken from it, ``analyze`` runs the quantum-HJ
check on the action, the action is dropped, ``analyze`` runs the closure
and first-integral checks on the trace, and only the trace's t and x are
kept for node detection (``analyze`` and the node pass of ``figure``).  The
trace pass of ``trace`` and ``figure`` drops each trace once its file is
written.  So no more than one set's action and trace are alive at a time.

What is alive at each stage of a quadrature run (n grid points):

* basis: the grid and phi1, phi1', phi2, phi2' (5 n floats), kept until
  the set loop ends;
* action: its three arrays S0, P and branch (``action``); S0 is the
  running sum of the phase steps, which the action rebuilds from the
  basis when the trace asks for them, and the quantum-HJ check rebuilds
  what else it reads one block at a time;
* trace: its t and regime columns and views of the grid and the action;
  the phase steps and the per-step times live only while it is taken;
  the closure and first-integral checks work in blocks and make only
  their residual arrays;
* the t and x of each earlier set, while node detection needs them; x is
  a view of the grid.

Once the set loop ends, ``analyze`` and the node pass of ``figure`` take
the zeros of phi2 from the basis and drop it, so node detection runs
beside the kept (t, x) curves and the grid alone.
"""

from __future__ import annotations

from pathlib import Path

from .action import ReducedAction
from .analysis import (
    closure_residual,
    de_broglie,
    detect_nodes,
    firqnl_residual,
    nodes_closed_form,
    rqshje_residual,
)
from .build import _header, build_basis, build_grid, build_potential, build_setup, run_basis
from .config import KEYS, RunConfig
from .errors import RqtError
from .model import HiddenParams, PhysicalSetup, Regime, constant_regime
from .output import write_csv, write_json
from .trajectory import (
    classical_trace,
    node_period,
    node_spacing,
    trace_constant_evanescent,
    trace_constant_oscillatory,
    trace_quadrature,
    _zeros_of,
)


def _oscillatory_constant(cfg: RunConfig, setup: PhysicalSetup) -> bool:
    # raises at E = U0 and at a turning point
    return (cfg.potential_kind == "constant"
            and constant_regime(setup, cfg.u0)[0] is Regime.OSCILLATORY)


def _stage(cfg: RunConfig):
    """Setup, potential and the basis a quadrature trace needs (None for a
    constant potential, whose traces are closed forms)."""
    setup = build_setup(cfg)
    pot = build_potential(cfg)
    basis = None if cfg.potential_kind == "constant" else build_basis(cfg, setup, pot)
    return setup, pot, basis


def _traced(cfg: RunConfig, setup, pot, basis, hp: HiddenParams):
    """(set ``hp``'s trajectory or the RqtError that ended it, its
    ReducedAction on ``basis``, or None without a basis).

    With a basis the trace is a quadrature of the action, which ``analyze``'s
    quantum-HJ check also reads; without one it is a closed form.
    A trace whose first row lies after t_min gets ``start_t_s`` and
    ``start_x_fm`` events, and one whose last row lies before t_max gets
    ``end_t_s`` and ``end_x_fm``: that row's t and x, so the CSV footer and
    the manifest entry say which part of [t_min, t_max] the trace misses.
    """
    ra = None
    try:
        if basis is not None:
            ra = ReducedAction(basis, hp, setup)
            tr = trace_quadrature(ra, pot, cfg.x0, cfg.sync)
        else:
            closed = (trace_constant_oscillatory if _oscillatory_constant(cfg, setup)
                      else trace_constant_evanescent)
            tr = closed(setup, cfg.u0, hp, cfg.x0, (cfg.t_min, cfg.t_max), cfg.samples)
        if tr.t[0] > cfg.t_min:
            tr.meta["events"].update(start_t_s=float(tr.t[0]), start_x_fm=float(tr.x[0]))
        if tr.t[-1] < cfg.t_max:
            tr.meta["events"].update(end_t_s=float(tr.t[-1]), end_x_fm=float(tr.x[-1]))
    except RqtError as exc:
        tr = exc.with_traceback(None)       # its frames would keep the action alive
    return tr, ra


def _family(cfg: RunConfig, setup, pot, basis):
    """Per set: (HiddenParams, *``_traced``), one set at a time.

    The generator binds neither the trajectory nor the action while it
    waits, so each lives only as long as the caller keeps it.  Every
    caller drops the action once the last check that reads it has run,
    and the trajectory, keeping at most its t and x, before it asks for
    the next set.
    """
    for a, b in cfg.param_sets:
        hp = HiddenParams(a, b)
        yield (hp, *_traced(cfg, setup, pot, basis, hp))


def _phi2_zeros(basis):
    """The zeros of phi2 on the basis grid, placed on the cubic Hermite of
    (phi2, phi2'), or None without a basis."""
    return None if basis is None else _zeros_of(basis.grid, basis.phi2, basis.dphi2)


def _detected_nodes(cfg: RunConfig, curves, rungs, setup):
    """The traced curves' (t, x) arrivals at the rungs inside [t_min, t_max];
    None below two curves."""
    return (detect_nodes(curves, rungs, setup, (cfg.t_min, cfg.t_max))
            if len(curves) > 1 else None)


def _trace_sets(cfg: RunConfig):
    """Write each set's trajectory CSV: the trace manifest so far, setup and potential."""
    setup, pot, basis = _stage(cfg)
    out = Path(cfg.out_dir)
    manifest = {"command": "trace", "config_hash": cfg.hash, "sets": [], "files": [],
                "config": {name: getattr(cfg, name) for name, *_ in KEYS}}
    # no enumerate: its cached result tuple would keep the last action alive
    for hp, tr, ra in _family(cfg, setup, pot, basis):
        del ra                                  # one action alive at a time
        entry = {"a": hp.a, "b": hp.b}
        try:
            if isinstance(tr, RqtError):
                raise tr
            rows = tr.window_rows(cfg.t_min, cfg.t_max, cfg.samples)
            path = out / f"trajectory_{len(manifest['sets'])}.csv"
            tr.to_csv(path, header=_header(cfg, [f"a: {hp.a!r}", f"b: {hp.b!r}"]), rows=rows)
            entry.update(file=str(path), status="ok", **tr.meta["events"])
        except RqtError as exc:
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        del tr                                  # written: free it before the next set
        manifest["sets"].append(entry)
        if entry.get("file"):
            manifest["files"].append(entry["file"])
    return manifest, setup, pot


def _close_trace(cfg: RunConfig, manifest: dict, setup, pot) -> dict:
    """Add the classical curve where it exists and write trace_manifest.json."""
    out = Path(cfg.out_dir)
    try:
        cl = classical_trace(setup, pot, cfg.x0, t_range=(cfg.t_min, cfg.t_max),
                             x_range=(cfg.grid_min, cfg.grid_max), n_samples=cfg.samples)
        path = out / "classical.csv"
        cl.to_csv(path, header=_header(cfg, ["curve: classical"]))
        manifest["classical"] = str(path)
        manifest["files"].append(str(path))
    except RqtError as exc:
        manifest["classical_error"] = f"{type(exc).__name__}: {exc}"
    write_json(out / "trace_manifest.json", manifest)
    return manifest


def run_trace(cfg: RunConfig) -> dict:
    return _close_trace(cfg, *_trace_sets(cfg))


# Each set's residual checks, in summary order: key stem in validation.json
# ("<stem>_max", or "<stem>_error" when the check raises), summary label,
# and the check of a trace or of a quadrature action (with V; closed forms
# build none).  Both trace checks run the 7-point stencil at stride 1 on
# every sample.  The checks look their functions up when they run, so a
# wrapper bound to the module name is seen.
_CHECKS = (
    ("closure", "closure", "trace", lambda tr: closure_residual(tr)),
    ("first_integral", "first-integral", "trace", lambda tr: firqnl_residual(tr)),
    ("quantum_hj", "quantum-HJ", "action", lambda ra, pot: rqshje_residual(ra, pot=pot)),
)


def _validate(entry: dict, subject: str, *args):
    """Add the maxima of the checks of ``subject`` ("trace" or "action") to a set's entry."""
    for stem, _, of, check in _CHECKS:
        if of == subject:
            try:
                entry[f"{stem}_max"] = check(*args).max_residual
            except RqtError as exc:
                entry[f"{stem}_error"] = str(exc)


def run_analyze(cfg: RunConfig) -> dict:
    setup, pot, basis = _stage(cfg)
    out = Path(cfg.out_dir)
    curves, per_set = [], []
    for hp, tr, ra in _family(cfg, setup, pot, basis):
        if isinstance(tr, RqtError):
            raise tr
        per_set.append({"a": hp.a, "b": hp.b})
        if ra is not None:
            _validate(per_set[-1], "action", ra, pot)
        del ra                                  # no check reads it from here on
        _validate(per_set[-1], "trace", tr)
        curves.append((tr.t, tr.x))
        del tr                                  # node detection reads t and x only
    zeros = _phi2_zeros(basis)
    del basis                                   # freed before node detection

    manifest = {"command": "analyze", "config_hash": cfg.hash, "files": []}
    summary = []

    closed = (nodes_closed_form(setup, cfg.u0, x0=cfg.x0, t_range=(cfg.t_min, cfg.t_max))
              if _oscillatory_constant(cfg, setup) else None)
    nodes = _detected_nodes(cfg, curves, zeros if closed is None else closed.positions, setup)
    if nodes is not None:
        nodes_path = out / "nodes_detected.json"
        payload = nodes.to_dict()
        payload["config_hash"] = cfg.hash
        write_json(nodes_path, payload)
        manifest["files"].append(str(nodes_path))
        if len(nodes.dx):
            summary.append(("detected node count", f"{len(nodes.times)}"))
            summary.append(("detected dx [fm]", " ".join(f"{v:.4g}" for v in nodes.dx[:6])))
            summary.append(("wavelength 2*dx [fm]", " ".join(f"{v:.4g}" for v in nodes.wavelength[:6])))

    if closed is not None:
        closed_path = out / "nodes_closed_form.json"
        payload = closed.to_dict()
        payload["config_hash"] = cfg.hash
        write_json(closed_path, payload)
        manifest["files"].append(str(closed_path))
        lam = de_broglie(setup, cfg.u0)
        summary.append(("node spacing dx [fm]", f"{node_spacing(setup, cfg.u0):.6g}"))
        summary.append(("node period dt [s]", f"{node_period(setup, cfg.u0):.6g}"))
        summary.append(("de Broglie wavelength [fm]", f"{lam:.6g}"))
        summary.append(("dx == lambda/2", "pass" if abs(2 * node_spacing(setup, cfg.u0) / lam - 1) < 1e-12 else "FAIL"))

    for entry in per_set:
        for stem, label, *_ in _CHECKS:
            if f"{stem}_max" in entry:
                summary.append((f"{label} max (a={entry['a']:g}, b={entry['b']:g})",
                                f"{entry[f'{stem}_max']:.3e}"))

    val_path = out / "validation.json"
    write_json(val_path, {"config_hash": cfg.hash, "per_set": per_set})
    manifest["files"].append(str(val_path))
    manifest["summary"] = summary
    write_json(out / "analyze_manifest.json", manifest)
    return manifest


GNUPLOT_TEMPLATE = """# {title}
# config_hash: {hash}
set terminal pngcairo size 900,700
set output '{png}'
set xlabel 't (10^{{-20}} s)'
set ylabel 'x (10^{{-12}} m)'
set key top left
{extras}
plot {plots}
"""


def _gp_curve(fname, title, style="lines"):
    # t [s] -> units of 1e-20 s; x [fm] -> units of 1e-12 m
    return f"'{fname}' using ($1/1e-20):($2/1e3) with {style} title '{title}'"


def run_figure(cfg: RunConfig, figure: int) -> dict:
    out = Path(cfg.out_dir)
    manifest, setup, pot = _trace_sets(cfg)
    if not any(entry.get("file") for entry in manifest["sets"]):
        errors = "; ".join(f"a={e['a']:g}, b={e['b']:g}: {e['error']}" for e in manifest["sets"])
        raise RqtError(f"figure {figure} has no trajectory to plot ({errors})")
    _close_trace(cfg, manifest, setup, pot)
    manifest["command"] = f"figure{figure}"

    plots = []
    for entry in manifest["sets"]:
        if entry.get("file"):
            name = Path(entry["file"]).name
            plots.append(_gp_curve(name, f"a={entry['a']:g}, b={entry['b']:g}"))
    if manifest.get("classical"):
        plots.append(_gp_curve(Path(manifest["classical"]).name,
                               "purely relativistic trajectory"))

    extras = []
    for entry in manifest["sets"]:
        t_star = entry.get("divergence_time_s")
        if t_star is not None:
            extras.append(f"set arrow from {t_star / 1e-20},graph 0 to "
                          f"{t_star / 1e-20},graph 1 nohead dashtype 2")
            extras.append(f'set label "finite-time asymptote" at '
                          f"{t_star / 1e-20},graph 0.5 right offset -1,0")

    nodes = None
    if _oscillatory_constant(cfg, setup):
        nodes = nodes_closed_form(setup, cfg.u0, x0=cfg.x0, t_range=(cfg.t_min, cfg.t_max))
    elif cfg.potential_kind != "constant":
        # the node pass builds the basis and traces the family again
        setup, pot, basis = _stage(cfg)
        curves = []
        for _, tr, ra in _family(cfg, setup, pot, basis):
            del ra                              # one action alive at a time
            if not isinstance(tr, RqtError):
                curves.append((tr.t, tr.x))
            del tr                              # node detection reads t and x only
        zeros = _phi2_zeros(basis)
        del basis                               # freed before node detection
        nodes = _detected_nodes(cfg, curves, zeros, setup)
    if nodes is not None and len(nodes.times):
        nodes_path = out / "nodes.csv"
        write_csv(nodes_path, _header(cfg, ["curve: nodes"]),
                  [("t_s", nodes.times), ("x_fm", nodes.positions)])
        manifest["files"].append(str(nodes_path))
        manifest["nodes"] = str(nodes_path)
        plots.append(_gp_curve("nodes.csv", "nodes", style="points pt 7 ps 1.2"))

    script = GNUPLOT_TEMPLATE.format(
        title=f"figure {figure}",
        hash=cfg.hash,
        png=f"figure{figure}.png",
        extras="\n".join(extras),
        plots=", \\\n     ".join(plots),
    )
    gp_path = out / f"figure{figure}.gp"
    gp_path.write_text(script)
    manifest["files"].append(str(gp_path))
    manifest["plot_script"] = str(gp_path)
    write_json(out / f"figure{figure}_manifest.json", manifest)
    return manifest
