"""Config-driven pipelines behind the CLI: basis, trace, analyze, figure.

Every pipeline returns a manifest dict (also written to JSON) listing the
emitted files; every emitted file embeds the resolved config hash.  Runs
are fully deterministic: identical configs produce byte-identical output.
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


def _cluster_radius(cfg: RunConfig, setup: PhysicalSetup, trajs) -> float:
    """Merge radius for node detection across the trajectory family."""
    if _oscillatory_constant(cfg, setup):
        return 0.02 * node_period(setup, cfg.u0)
    # linear-case node clusters drift; merge within a few percent of the
    # common window
    span = min(t.t[-1] for t in trajs) - max(t.t[0] for t in trajs)
    return 0.04 * span


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


def _trace_one(cfg: RunConfig, setup, pot, basis, hp: HiddenParams):
    """One set's trajectory and the ReducedAction of ``basis`` and (a, b).

    A quadrature trace is built from that action; closed forms ignore it.
    Without a basis the action is None.
    """
    ra = None if basis is None else ReducedAction(basis, hp, setup)
    if cfg.potential_kind != "constant":
        tr = trace_quadrature(ra, pot, cfg.x0, (cfg.grid_min, cfg.grid_max), sync=cfg.sync)
    elif _oscillatory_constant(cfg, setup):
        tr = trace_constant_oscillatory(
            setup, cfg.u0, hp, cfg.x0, (cfg.t_min, cfg.t_max), cfg.samples
        )
    else:
        tr = trace_constant_evanescent(
            setup, cfg.u0, hp, cfg.x0, (cfg.t_min, cfg.t_max), cfg.samples,
            window_fm=cfg.window,
        )
    return tr, ra


def run_trace(cfg: RunConfig) -> dict:
    setup = build_setup(cfg)
    pot = build_potential(cfg)
    out = Path(cfg.out_dir)
    basis = None if cfg.potential_kind == "constant" else build_basis(cfg, setup, pot)

    manifest = {"command": "trace", "config_hash": cfg.hash,
                "config": config_dict(cfg), "sets": [], "files": []}
    for i, (a, b) in enumerate(cfg.param_sets):
        entry = {"a": a, "b": b}
        try:
            tr = _trace_one(cfg, setup, pot, basis, HiddenParams(a, b))[0]
            rows = tr.window_rows(cfg.t_min, cfg.t_max, cfg.samples)
            path = out / f"trajectory_{i}.csv"
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
            tr.to_csv(path, header=_header(cfg, [f"a: {a!r}", f"b: {b!r}"]),
                      footer=footer, rows=rows)
            entry["file"] = str(path)
            entry["status"] = "ok"
            entry.update({k: v for k, v in ev.items()})
        except RqtError as exc:
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        manifest["sets"].append(entry)
        if entry.get("file"):
            manifest["files"].append(entry["file"])

    # classical reference curve when the region is classically allowed
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


def _trace_objects(cfg: RunConfig):
    setup = build_setup(cfg)
    pot = build_potential(cfg)
    basis = None if cfg.potential_kind == "constant" else build_basis(cfg, setup, pot)
    trajs = [_trace_one(cfg, setup, pot, basis, HiddenParams(a, b))[0]
             for a, b in cfg.param_sets]
    return setup, pot, basis, trajs


def run_analyze(cfg: RunConfig) -> dict:
    setup = build_setup(cfg)
    pot = build_potential(cfg)
    basis = None if cfg.potential_kind == "constant" else build_basis(cfg, setup, pot)
    out = Path(cfg.out_dir)
    oscillatory_const = _oscillatory_constant(cfg, setup)

    # the quantum-HJ check needs a basis; closed-form traces carry none
    hj_basis = build_basis(cfg, setup, pot) if oscillatory_const else basis
    trajs, hj_max = [], []
    for a, b in cfg.param_sets:
        tr, ra = _trace_one(cfg, setup, pot, hj_basis, HiddenParams(a, b))
        trajs.append(tr)
        hj_max.append(None if ra is None else rqshje_residual(ra, pot=pot).max_residual)
        del ra                                      # analyze holds one action at a time

    manifest = {"command": "analyze", "config_hash": cfg.hash, "files": []}
    summary = []

    nodes = None
    if len(trajs) >= 2:
        nodes = detect_nodes(trajs, cluster_radius=_cluster_radius(cfg, setup, trajs),
                             basis=basis)
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

    validation = {"config_hash": cfg.hash, "per_set": []}
    for (a, b), tr, hj in zip(cfg.param_sets, trajs, hj_max):
        entry = {"a": a, "b": b}
        entry["closure_max"] = closure_residual(tr).max_residual
        try:
            entry["first_integral_max"] = firqnl_residual(tr, stride=4 if basis is not None else 1).max_residual
        except RqtError as exc:
            entry["first_integral_error"] = str(exc)
        if hj is not None:
            entry["quantum_hj_max"] = hj
        validation["per_set"].append(entry)
        summary.append((f"closure max (a={a:g}, b={b:g})", f"{entry['closure_max']:.3e}"))
        if "first_integral_max" in entry:
            summary.append((f"first-integral max (a={a:g}, b={b:g})",
                            f"{entry['first_integral_max']:.3e}"))
        if "quantum_hj_max" in entry:
            summary.append((f"quantum-HJ max (a={a:g}, b={b:g})",
                            f"{entry['quantum_hj_max']:.3e}"))

    val_path = out / "validation.json"
    write_json(val_path, validation)
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
    out.mkdir(parents=True, exist_ok=True)
    manifest = run_trace(cfg)
    if not any(entry.get("file") for entry in manifest["sets"]):
        errors = "; ".join(f"a={e['a']:g}, b={e['b']:g}: {e['error']}" for e in manifest["sets"])
        raise RqtError(f"figure {figure} has no trajectory to plot ({errors})")
    manifest["command"] = f"figure{figure}"
    setup = build_setup(cfg)

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
            _, _, basis, trajs = _trace_objects(cfg)
            if len(trajs) >= 2:
                setup_nodes = detect_nodes(
                    trajs, cluster_radius=_cluster_radius(cfg, setup, trajs), basis=basis
                )
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
