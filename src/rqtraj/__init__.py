"""Trajectory-based relativistic quantum dynamics of a 1-D spinless particle.

Pipeline: wave-equation solution basis -> reduced action and conjugate
momentum -> trajectory family x(t; a, b) -> node / wavelength analysis ->
independent residual validation.
"""

from .action import ReducedAction
from .analysis import (
    NodeReport,
    ValidationReport,
    closure_residual,
    de_broglie,
    detect_nodes,
    firqnl_residual,
    limit_checks,
    mean_momentum,
    nodes_closed_form,
    pp0_bound,
    pp0_distance,
    rqshje_residual,
)
from .constants import C_M_PER_S, ELECTRON_MEV, FM_PER_M, HBAR_MEV_S, HBARC_MEV_FM
from .kleingordon import (
    SolutionBasis,
    kg_residual,
    solve_constant,
    solve_numeric,
    wronskian_drift,
)
from .model import (
    ConstantPotential,
    HiddenParams,
    LinearPotential,
    PhysicalSetup,
    Potential,
    Regime,
    TabulatedPotential,
    classical_momentum,
    classical_velocity,
    classify_regime,
    f_function,
    hamiltonian,
    kinetic_term,
    lagrangian,
)
from .trajectory import (
    Trajectory,
    classical_trace,
    cumulative_simpson,
    evanescent_divergence_times,
    node_period,
    node_spacing,
    trace_constant_evanescent,
    trace_constant_oscillatory,
    trace_quadrature,
)

__version__ = "0.1.0"
