"""Config-driven pipelines behind the CLI: basis, trace, analyze, figure.

Every pipeline returns a manifest dict (also written to JSON) listing the
emitted files; every emitted file embeds the resolved config hash.  Runs
are fully deterministic: identical configs produce byte-identical output.

Each command traces the (a, b) family through ``_family``.  A set whose
action or trace fails with an ``RqtError``: ``trace`` records the error in
the set's manifest entry and goes on with the next set; ``figure`` does
the same, plots the sets that traced and finds nodes among them, and
raises before writing any file when no set traced; ``analyze`` raises at
the first failed set.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .action import ReducedAction
from .analysis import (
    closure_residual,
    de_broglie,
    detect_nodes,
    firqnl_residual,
    nodes_closed_form,
    rqshje_residual,
)
from .config import RunConfig, config_dict
from .errors import ConfigError, RqtError
from .kleingordon import solve_constant, solve_numeric, wronskian_drift
from .model import (
    ConstantPotential,
    HiddenParams,
    LinearPotential,
    PhysicalSetup,
    Regime,
    TabulatedPotential,
    constant_regime,
    regime_discriminant,
)
from .output import read_csv, write_csv, write_json
from .trajectory import (
    classical_trace,
    node_period,
    node_spacing,
    trace_constant_evanescent,
    trace_constant_oscillatory,
    trace_quadrature,
)


def build_setup(cfg: RunConfig) -> PhysicalSetup:
    base = PhysicalSetup(E=cfg.energy, m0c2=cfg.rest_energy, direction=cfg.direction)
    return base.scaled_hbar(cfg.hbar_scale) if cfg.hbar_scale != 1.0 else base


def build_potential(cfg: RunConfig):
    if cfg.potential_kind == "constant":
        return ConstantPotential(cfg.u0)
    if cfg.potential_kind == "linear":
        return LinearPotential(cfg.slope)
    meta, cols = read_csv(cfg.table_file)
    names = list(cols)
    return TabulatedPotential(cols[names[0]], cols[names[1]])


def build_grid(cfg: RunConfig) -> np.ndarray:
    n = int(round((cfg.grid_max - cfg.grid_min) / cfg.grid_step)) + 1
    if n < 2:
        raise ConfigError(
            f"[numerics] grid_step {cfg.grid_step!r} fm leaves {n} grid point on "
            f"[{cfg.grid_min!r}, {cfg.grid_max!r}] fm; the grid needs at least 2"
        )
    return cfg.grid_min + cfg.grid_step * np.arange(n)


def build_basis(cfg: RunConfig, setup: PhysicalSetup, pot, method=None):
    grid = build_grid(cfg)
    if cfg.potential_kind == "constant":
        return solve_constant(setup, cfg.u0, grid)
    if cfg.basis_init == "sincos":
        k0 = np.sqrt(abs(regime_discriminant(setup, pot, grid[0]))) / setup.hbar_c
        init1 = (0.0, k0)
    else:
        init1 = (0.0, 1.0)
    return solve_numeric(
        setup, pot, grid, method=method or cfg.method, init1=init1, init2=(1.0, 0.0)
    )


def _oscillatory_constant(cfg: RunConfig, setup: PhysicalSetup) -> bool:
    # raises at E = U0 and at a turning point
    return (cfg.potential_kind == "constant"
            and constant_regime(setup, cfg.u0)[0] is Regime.OSCILLATORY)


def _header(cfg: RunConfig, extra=()):
    return [f"config_hash: {cfg.hash}", *extra]


def run_basis(cfg: RunConfig, compare_methods: bool = False) -> dict:
    setup = build_setup(cfg)
    pot = build_potential(cfg)
    out = Path(cfg.out_dir)
    manifest = {"command": "basis", "config_hash": cfg.hash, "files": [], "drift": {}}

    methods = ["analytic"] if cfg.potential_kind == "constant" else (
        ["euler", "rk4"] if compare_methods else [cfg.method]
    )
    for method in methods:
        basis = build_basis(cfg, setup, pot, method=method)
        path = out / f"basis_{method}.csv"
        basis.to_csv(path, header=_header(cfg, [f"method: {method}"]))
        drift = wronskian_drift(basis)
        manifest["files"].append(str(path))
        manifest["drift"][method] = drift
    write_json(out / "basis_manifest.json", manifest)
    return manifest


def _stage(cfg: RunConfig):
    """Setup, potential and the basis a quadrature trace needs (None for a
    constant potential, whose traces are closed forms)."""
    setup = build_setup(cfg)
    pot = build_potential(cfg)
    basis = None if cfg.potential_kind == "constant" else build_basis(cfg, setup, pot)
    return setup, pot, basis


def _family(cfg: RunConfig, setup, pot, basis):
    """Per set: (HiddenParams, its trajectory or the RqtError that ended it,
    its ReducedAction on ``basis``, or None without a basis).

    A quadrature trace is built from the action; closed forms ignore it.
    A set's action is dropped here before the next one is built, so one is
    alive at a time as long as the caller drops the one it got.
    """
    for a, b in cfg.param_sets:
        hp = HiddenParams(a, b)
        ra = None
        try:
            if basis is not None:
                ra = ReducedAction(basis, hp, setup)
            if cfg.potential_kind != "constant":
                tr = trace_quadrature(ra, pot, cfg.x0, (cfg.grid_min, cfg.grid_max),
                                      sync=cfg.sync)
            elif _oscillatory_constant(cfg, setup):
                tr = trace_constant_oscillatory(
                    setup, cfg.u0, hp, cfg.x0, (cfg.t_min, cfg.t_max), cfg.samples
                )
            else:
                tr = trace_constant_evanescent(
                    setup, cfg.u0, hp, cfg.x0, (cfg.t_min, cfg.t_max), cfg.samples,
                    window_fm=cfg.window,
                )
        except RqtError as exc:
            tr = exc.with_traceback(None)       # its frames would keep the action alive
        yield hp, tr, ra


def _detected_nodes(cfg: RunConfig, setup: PhysicalSetup, trajs, basis):
    """Nodes where the traced curves meet; None below two curves."""
    if len(trajs) < 2:
        return None
    if _oscillatory_constant(cfg, setup):
        radius = 0.02 * node_period(setup, cfg.u0)
    else:
        # linear-case node clusters drift; merge within a few percent of the
        # common window
        radius = 0.04 * (min(t.t[-1] for t in trajs) - max(t.t[0] for t in trajs))
    return detect_nodes(trajs, cluster_radius=radius, basis=basis)


def _trace_sets(cfg: RunConfig):
    """Write each set's trajectory CSV: the trace manifest so far, setup and potential."""
    setup, pot, basis = _stage(cfg)
    out = Path(cfg.out_dir)
    manifest = {"command": "trace", "config_hash": cfg.hash,
                "config": config_dict(cfg), "sets": [], "files": []}
    # no enumerate: its cached result tuple would keep the last action alive
    for hp, tr, ra in _family(cfg, setup, pot, basis):
        del ra                                  # one action alive at a time
        entry = {"a": hp.a, "b": hp.b}
        try:
            if isinstance(tr, RqtError):
                raise tr
            rows = tr.window_rows(cfg.t_min, cfg.t_max, cfg.samples)
            path = out / f"trajectory_{len(manifest['sets'])}.csv"
            footer = []
            ev = tr.meta.get("events", {})
            if ev.get("halt"):
                footer.append(f"halt: {ev['halt']}")
            if ev.get("divergence_time_s") is not None:
                footer.append(f"divergence_time_s: {ev['divergence_time_s']:.16e}")
                footer.append(f"divergence_kind: {ev['divergence_kind']}")
                footer.append(
                    f"prose_divergence_time_s: {ev['prose_divergence_time_s']:.16e}"
                )
            tr.to_csv(path, header=_header(cfg, [f"a: {hp.a!r}", f"b: {hp.b!r}"]),
                      footer=footer, rows=rows)
            entry["file"] = str(path)
            entry["status"] = "ok"
            entry.update(ev)
        except RqtError as exc:
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        manifest["sets"].append(entry)
        if entry.get("file"):
            manifest["files"].append(entry["file"])
    return manifest, setup, pot


def _close_trace(cfg: RunConfig, manifest: dict, setup, pot) -> dict:
    """Add the classical curve where it exists and write trace_manifest.json."""
    out = Path(cfg.out_dir)
    try:
        if cfg.potential_kind == "constant":
            cl = classical_trace(setup, pot, cfg.x0, t_range=(cfg.t_min, cfg.t_max),
                                 n_samples=cfg.samples)
        else:
            cl = classical_trace(setup, pot, cfg.x0,
                                 x_range=(cfg.grid_min, cfg.grid_max),
                                 n_samples=min(cfg.samples, 20001))
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
# and the check of a trace (with its stride) or of an action (with V).
_CHECKS = (
    ("closure", "closure", "trace", lambda tr, stride: closure_residual(tr)),
    ("first_integral", "first-integral", "trace",
     lambda tr, stride: firqnl_residual(tr, stride=stride)),
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
    oscillatory_const = _oscillatory_constant(cfg, setup)

    # the quantum-HJ check needs an action, so closed forms get a basis too
    hj_basis = build_basis(cfg, setup, pot) if oscillatory_const else basis
    trajs, per_set = [], []
    for hp, tr, ra in _family(cfg, setup, pot, hj_basis):
        if isinstance(tr, RqtError):
            raise tr
        trajs.append(tr)
        per_set.append({"a": hp.a, "b": hp.b})
        if ra is not None:
            _validate(per_set[-1], "action", ra, pot)
        del ra                                  # analyze holds one action at a time

    manifest = {"command": "analyze", "config_hash": cfg.hash, "files": []}
    summary = []

    nodes = _detected_nodes(cfg, setup, trajs, basis)
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

    if oscillatory_const:
        closed = nodes_closed_form(setup, cfg.u0, count=10, x0=cfg.x0)
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

    # the trace checks run once no action is alive
    for entry, tr in zip(per_set, trajs):
        _validate(entry, "trace", tr, 1 if basis is None else 4)
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
    if figure == 2:
        entry = manifest["sets"][0]
        t_star = entry.get("divergence_time_s")
        if t_star is not None:
            extras.append(f"set arrow from {t_star / 1e-20},graph 0 to "
                          f"{t_star / 1e-20},graph 1 nohead dashtype 2")
            extras.append(f'set label "finite-time asymptote" at '
                          f"{t_star / 1e-20},graph 0.5 right offset -1,0")
    else:
        # node markers
        setup_nodes = None
        if _oscillatory_constant(cfg, setup):
            count = int((cfg.t_max - cfg.t_min) / node_period(setup, cfg.u0)) + 1
            setup_nodes = nodes_closed_form(setup, cfg.u0, count=count, x0=cfg.x0)
        elif cfg.potential_kind != "constant":
            # the node pass builds the basis and traces the family again
            setup, pot, basis = _stage(cfg)
            trajs = []
            for _, tr, ra in _family(cfg, setup, pot, basis):
                del ra                          # one action alive at a time
                if not isinstance(tr, RqtError):
                    trajs.append(tr)
            setup_nodes = _detected_nodes(cfg, setup, trajs, basis)
        if setup_nodes is not None and len(setup_nodes.times):
            nodes_path = out / "nodes.csv"
            write_csv(nodes_path, _header(cfg, ["curve: nodes"]),
                      [("t_s", setup_nodes.times), ("x_fm", setup_nodes.positions)])
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
