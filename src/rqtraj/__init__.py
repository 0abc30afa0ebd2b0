"""Trajectory-based relativistic quantum dynamics of a 1-D spinless particle.

Pipeline: wave-equation solution basis -> reduced action and conjugate
momentum -> trajectory family x(t; a, b) -> node / wavelength analysis ->
independent residual validation.

Names and submodules load on first access (PEP 562), so ``import
rqtraj.cli`` and parsing a config load no numpy and no computing module.
"""

import importlib

_EXPORTS = {
    "action": ["ReducedAction"],
    "analysis": ["NodeReport", "ValidationReport", "closure_residual", "de_broglie",
                 "detect_nodes", "firqnl_residual", "nodes_closed_form", "rqshje_residual"],
    "constants": ["C_M_PER_S", "ELECTRON_MEV", "FM_PER_M", "HBAR_MEV_S", "HBARC_MEV_FM"],
    "kleingordon": ["SolutionBasis", "solve_constant", "solve_numeric", "wronskian_drift"],
    "model": ["ConstantPotential", "HiddenParams", "LinearPotential", "PhysicalSetup",
              "Potential", "Regime", "TabulatedPotential", "classify_regime", "f_function",
              "kinetic_term", "lagrangian"],
    "trajectory": ["Trajectory", "classical_trace",
                   "evanescent_divergence_times", "node_period", "node_spacing",
                   "trace_constant_evanescent", "trace_constant_oscillatory",
                   "trace_quadrature"],
}
_SUBMODULES = {*_EXPORTS, "build", "cli", "config", "errors", "output", "pipeline"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
