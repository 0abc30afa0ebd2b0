"""Setup, potential, grid and basis of a config, and the ``basis`` command."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .kleingordon import solve_constant, solve_numeric, wronskian_drift
from .model import (ConstantPotential, LinearPotential, PhysicalSetup, TabulatedPotential,
                    regime_discriminant)
from .output import read_csv, write_json


def build_setup(cfg: RunConfig) -> PhysicalSetup:
    base = PhysicalSetup(E=cfg.energy, m0c2=cfg.rest_energy, direction=cfg.direction)
    return base.scaled_hbar(cfg.hbar_scale) if cfg.hbar_scale != 1.0 else base


def build_potential(cfg: RunConfig):
    if cfg.potential_kind == "constant":
        return ConstantPotential(cfg.u0)
    if cfg.potential_kind == "linear":
        return LinearPotential(cfg.slope)
    try:
        _, cols = read_csv(cfg.table_file)
        if len(cols) < 2:
            raise ValueError(f"needs 2 columns (x, V), has {len(cols)}")
        return TabulatedPotential(*list(cols.values())[:2])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[potential] file {cfg.table_file!r}: {exc}") from None


def build_grid(cfg: RunConfig) -> np.ndarray:
    return cfg.grid_min + cfg.grid_step * np.arange(cfg.grid_points())


def build_basis(cfg: RunConfig, setup: PhysicalSetup, pot, method=None):
    grid = build_grid(cfg)
    if cfg.potential_kind == "constant":
        return solve_constant(setup, cfg.u0, grid)
    # phi1 starts as sin(k0 (x - x_min)), k0 the local wavenumber at the grid start
    k0 = np.sqrt(abs(regime_discriminant(setup, pot, grid[0]))) / setup.hbar_c
    return solve_numeric(
        setup, pot, grid, method=method or cfg.method, init1=(0.0, k0), init2=(1.0, 0.0)
    )


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
        del basis  # one basis alive at a time: free it before the next solve
    write_json(out / "basis_manifest.json", manifest)
    return manifest
