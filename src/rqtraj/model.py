"""Physical setup, potentials and pointwise quantities of the trajectory formalism.

Conventions used throughout the package:

* energies in MeV, positions in fm, times in s;
* momenta are quoted in MeV/c, i.e. the stored number is P*c in MeV;
* velocities at the API surface are in m/s, internal kinematics use fm/s;
* the regime of a point is set by the sign of (E - V)^2 - (m0 c^2)^2:
  positive is oscillatory, negative evanescent, zero a turning point.
  States with E - V < 0 but (E - V)^2 above the rest-energy square are
  treated as oscillatory (antiparticle-branch); the non-relativistic
  "E - V < 0 means forbidden" reading does not apply here.

This module is the one home of that rule: ``regime_tags`` applies it to an
array of E - V values, giving uint8 codes into ``REGIMES`` (``classify_regime``
and the regime columns of the quadrature and classical traces use it), and
``constant_regime`` is the one check of a constant potential V = U0, used by
its closed-form basis, its traces, its node spacing and its de Broglie
wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar

import numpy as np

from .constants import C_M_PER_S, ELECTRON_MEV, FM_PER_M, HBAR_MEV_S
from .errors import (
    EnergyEqualsPotential,
    NonPositiveF,
    SuperluminalArgument,
    TurningPointSingular,
)

REGIME_REL_TOL = 1e-12      # on (E-V)^2 - m2, relative to m2
ENERGY_REL_TOL = 1e-12      # on |E-V|, relative to m0c2


class Regime(Enum):
    OSCILLATORY = "oscillatory"
    EVANESCENT = "evanescent"
    TURNING_POINT = "turning"


# regime columns hold uint8 codes into REGIMES; REGIME_TEXT[codes] names them
REGIMES = tuple(Regime)
REGIME_TEXT = np.array([r.value for r in REGIMES])


@dataclass(frozen=True)
class PhysicalSetup:
    """Fixed stage for one problem: energies, hbar and motion direction.

    The light speed ``c`` is a class constant and ``hbar_c`` is derived from
    ``hbar`` and ``c``, so the constant set is consistent by construction.
    ``direction`` is the +-1 sign of the trajectory law.
    """

    E: float                      # total energy [MeV]
    m0c2: float = ELECTRON_MEV    # rest energy [MeV]
    hbar: float = HBAR_MEV_S      # [MeV s]
    direction: int = +1

    c: ClassVar[float] = C_M_PER_S    # [m/s]

    def __post_init__(self):
        if self.m0c2 <= 0:
            raise ValueError("rest energy must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")

    @property
    def hbar_c(self) -> float:
        """hbar c [MeV fm]."""
        return self.hbar * self.c * FM_PER_M

    @property
    def c_fm_s(self) -> float:
        """Light speed in fm/s."""
        return self.c * FM_PER_M

    @property
    def rest_sq(self) -> float:
        """(m0 c^2)^2 [MeV^2]."""
        return self.m0c2 * self.m0c2

    def scaled_hbar(self, eps: float) -> "PhysicalSetup":
        """Setup with hbar, and so hbar_c, scaled by eps."""
        if eps <= 0:
            raise ValueError("hbar scale must be positive")
        return replace(self, hbar=self.hbar * eps)


@dataclass(frozen=True)
class HiddenParams:
    """Pair (a, b) selecting one trajectory out of the fixed-energy family.

    a = 0 would collapse the reduced action to a constant and is rejected.
    (1, 0) gives the purely relativistic trajectory for a constant potential.
    """

    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("hidden parameter a must be non-zero")


class Potential:
    """Potential V(x) with first and second derivative evaluators.

    Values in MeV, derivatives in MeV/fm and MeV/fm^2; x in fm.
    """

    def v(self, x):
        raise NotImplementedError

    def dv(self, x):
        raise NotImplementedError

    def d2v(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPotential(Potential):
    u0: float = 0.0

    def v(self, x):
        return np.zeros_like(np.asarray(x, dtype=float)) + self.u0

    def dv(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def d2v(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class LinearPotential(Potential):
    """V(x) = slope * x, slope in MeV/fm."""

    slope: float

    def v(self, x):
        return self.slope * np.asarray(x, dtype=float)

    def dv(self, x):
        return np.zeros_like(np.asarray(x, dtype=float)) + self.slope

    def d2v(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class TabulatedPotential(Potential):
    """Potential sampled on a strictly increasing grid of finite values.

    Derivatives come from centered differences of the samples (second order
    in the grid step) and are linearly interpolated between nodes.
    """

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise ValueError("tabulated potential needs >= 3 grid points")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have the same length")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated grid and values must be finite (no nan or inf)")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("tabulated grid must be strictly increasing")
        self.grid = grid
        self.values = values
        self._dv = np.gradient(values, grid, edge_order=2)
        self._d2v = np.gradient(self._dv, grid, edge_order=2)
        for arr in (self.grid, self.values, self._dv, self._d2v):
            arr.flags.writeable = False

    def v(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self.values)

    def dv(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self._dv)

    def d2v(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self._d2v)


def _scalar(x):
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def kinetic_term(setup: PhysicalSetup, pot: Potential, x):
    """Right side of the law of motion: E - V - (m0 c^2)^2 / (E - V)  [MeV].

    Equals xdot * P on a trajectory (P the conjugate momentum in natural
    units).  Raises when E - V(x) is numerically zero.
    """
    ev = setup.E - np.asarray(pot.v(x), dtype=float)
    if np.any(np.abs(ev) < ENERGY_REL_TOL * setup.m0c2):
        raise EnergyEqualsPotential("E - V(x) vanishes; kinetic term undefined")
    return _scalar(ev - setup.rest_sq / ev)


def regime_discriminant(setup: PhysicalSetup, pot: Potential, x):
    """(E - V)^2 - (m0 c^2)^2 [MeV^2]; sign decides the regime."""
    ev = setup.E - np.asarray(pot.v(x), dtype=float)
    return _scalar(ev * ev - setup.rest_sq)


def regime_tags(setup: PhysicalSetup, ev) -> np.ndarray:
    """Regime of each E - V in ``ev`` [MeV], as uint8 codes into REGIMES.

    disc = (E - V)^2 - (m0 c^2)^2 decides: a disc within
    REGIME_REL_TOL * (m0 c^2)^2 of zero, or NaN, is a turning point,
    otherwise its sign gives oscillatory or evanescent.  ``ev`` may be a
    scalar or a 0-d array; the tags then are a 0-d array.  disc is worked
    out in one buffer of ev's shape, in place.
    """
    ev = np.asarray(ev, dtype=float)
    disc = np.multiply(ev, ev, out=np.empty(ev.shape))
    disc -= setup.rest_sq
    tol = REGIME_REL_TOL * setup.rest_sq
    tags = np.zeros(disc.shape, np.uint8)
    tags[disc < -tol] = REGIMES.index(Regime.EVANESCENT)
    tags[~(np.abs(disc, out=disc) > tol)] = REGIMES.index(Regime.TURNING_POINT)
    return tags


def classify_regime(setup: PhysicalSetup, pot: Potential, x) -> Regime:
    return REGIMES[int(regime_tags(setup, setup.E - np.asarray(pot.v(float(x)), dtype=float)))]


def constant_regime(setup: PhysicalSetup, u0: float):
    """(regime, E - U0, disc) of the constant potential V = U0.

    disc = (E - U0)^2 - (m0 c^2)^2 [MeV^2].  Raises EnergyEqualsPotential
    at E = U0 (the check of ``kinetic_term``) and TurningPointSingular when
    the regime is a turning point.
    """
    kinetic_term(setup, ConstantPotential(u0), 0.0)
    ev = setup.E - u0
    regime = REGIMES[int(regime_tags(setup, ev))]
    if regime is Regime.TURNING_POINT:
        raise TurningPointSingular("(E-U0)^2 equals the rest-energy square")
    return regime, ev, ev * ev - setup.rest_sq


def f_function(setup: PhysicalSetup, pot: Potential, x, momentum):
    """Velocity-field factor f = (Pc)^2 / [(E-V)^2 - (m0 c^2)^2], dimensionless.

    ``momentum`` in MeV/c.  f -> 1 when the momentum equals the classical
    relativistic one; only defined at oscillatory points.
    """
    regime = classify_regime(setup, pot, x)
    if regime is Regime.TURNING_POINT:
        raise TurningPointSingular("f diverges at a turning point")
    disc = regime_discriminant(setup, pot, x)
    f = float(momentum) ** 2 / disc
    if f <= 0:
        raise NonPositiveF(f"f = {f:.6g} <= 0 (evanescent point?)")
    return f


def lagrangian(setup: PhysicalSetup, pot: Potential, x, xdot, f):
    """-m0 c^2 sqrt(1 - (xdot^2/c^2) f) - V(x)  [MeV]; xdot in m/s."""
    rad = 1.0 - (float(xdot) / setup.c) ** 2 * float(f)
    if rad <= 0:
        raise SuperluminalArgument(f"radicand {rad:.6g} <= 0")
    return -setup.m0c2 * math.sqrt(rad) - float(pot.v(x))
