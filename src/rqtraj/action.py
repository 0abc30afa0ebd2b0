"""Reduced action S0 and conjugate momentum built from a solution basis.

S0(x) = hbar * arctan(a phi1/phi2 + b), continued across the zeros of phi2
by integer multiples of pi so it stays monotone.  The continuous phase is
exactly atan2(a phi1 + b phi2, phi2) unwrapped along the grid; its x
derivative gives the closed-form momentum

    P c = hbar c * a W(x) / [phi2^2 + (a phi1 + b phi2)^2]   [MeV],

which never vanishes (a != 0, W != 0, positive denominator).

The unwrap (``unwrap_phase``) is bit-equal to ``np.unwrap``: it applies
numpy's own correction at the few steps whose jump reaches pi and adds the
cumulative sum of that sparse correction, instead of some dozen full
passes over the grid.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchResolutionError
from .kleingordon import SolutionBasis
from .model import HiddenParams, PhysicalSetup
from .output import write_csv


def unwrap_phase(p: np.ndarray) -> np.ndarray:
    """``np.unwrap(p)`` for a 1-D float array, bit for bit.

    Only steps d with |d| >= pi (or NaN) are corrected, each by numpy's
    rule mod(d + pi, 2 pi) - pi - d, with a step of exactly +pi kept at +pi
    (numpy's boundary rule); every other step's correction is exactly 0,
    as in numpy, so the cumulative sum matches term by term.
    """
    d = np.diff(p)
    jump = np.flatnonzero(~(np.abs(d) < np.pi))
    dj = d[jump]
    ddmod = np.mod(dj + np.pi, 2 * np.pi) - np.pi
    ddmod[(ddmod == -np.pi) & (dj > 0)] = np.pi
    correct = np.zeros(d.shape)
    correct[jump] = ddmod - dj
    out = p.copy()
    out[1:] += np.cumsum(correct)
    return out


class ReducedAction:
    """Immutable view of S0, P and the branch counter over the basis grid."""

    def __init__(self, basis: SolutionBasis, params: HiddenParams, setup: PhysicalSetup):
        self.basis = basis
        self.params = params
        self.setup = setup

        a, b = params.a, params.b
        psi = a * basis.phi1 + b * basis.phi2
        dpsi = a * basis.dphi1 + b * basis.dphi2
        denom = basis.phi2**2 + psi**2
        # the exact solution has a position-independent Wronskian; using the
        # anchor value keeps P consistent with one normalization and lets
        # validation residuals see any solver drift
        w0 = basis.wronskian

        theta = unwrap_phase(np.arctan2(psi, basis.phi2))
        jumps = np.abs(np.diff(theta))
        if jumps.size and np.max(jumps) > 0.95 * np.pi:
            raise BranchResolutionError(
                "per-step phase jump approaches pi; refine the basis grid"
            )

        # arctan branch values: phi2 -> 0 gives +-pi/2 via IEEE infinities
        with np.errstate(divide="ignore"):
            arctan_branch0 = np.arctan(psi / basis.phi2)

        # anchor: S0 at the grid origin sits on branch zero
        theta = theta - theta[0] + arctan_branch0[0]

        self._psi = psi
        self._dpsi = dpsi
        self._denom = denom
        self.s0_grid = setup.hbar * theta                        # [MeV s]
        self.momentum_grid = setup.hbar_c * a * w0 / denom       # [MeV/c]
        self.branch_grid = np.rint((theta - arctan_branch0) / np.pi).astype(int)

    @property
    def grid(self) -> np.ndarray:
        return self.basis.grid

    def s0(self, x) -> float:
        """S0 at a grid point [MeV s]."""
        return float(self.s0_grid[self.basis.index_of(float(x))])

    def momentum(self, x) -> float:
        """Conjugate momentum at a grid point [MeV/c]."""
        return float(self.momentum_grid[self.basis.index_of(float(x))])

    def branch(self, x) -> int:
        return int(self.branch_grid[self.basis.index_of(float(x))])

    def momentum_derivatives(self, u_nodes: np.ndarray, rows: slice = slice(None)):
        """(Pc, Pc', Pc'') on grid[rows], closed form [MeV, MeV/fm, MeV/fm^2].

        Uses phi'' = u phi to express second derivatives through carried
        state only; ``u_nodes`` is u(x) on grid[rows] [1/fm^2].  Each value
        depends on its own grid point only.
        """
        b = self.basis
        phi2, dphi2 = b.phi2[rows], b.dphi2[rows]
        psi, dpsi, denom = self._psi[rows], self._dpsi[rows], self._denom[rows]
        dd = 2.0 * (phi2 * dphi2 + psi * dpsi)
        ddd = 2.0 * (dphi2**2 + u_nodes * phi2**2 + dpsi**2 + u_nodes * psi**2)
        pc = self.momentum_grid[rows]
        pcp = -pc * dd / denom
        pcpp = pc * (2.0 * dd**2 / denom**2 - ddd / denom)
        return pc, pcp, pcpp

    def to_csv(self, path, header=()):
        write_csv(
            path,
            header,
            [
                ("x_fm", self.grid),
                ("S0_MeV_s", self.s0_grid),
                ("P_MeV_per_c", self.momentum_grid),
                ("branch_n", self.branch_grid),
            ],
        )
