"""Reduced action S0 and conjugate momentum built from a solution basis.

S0(x) = hbar * arctan(a phi1/phi2 + b), continued across the zeros of phi2
by integer multiples of pi so it stays monotone.  The continuous phase is
exactly atan2(a phi1 + b phi2, phi2) unwrapped along the grid; its x
derivative gives the closed-form momentum

    P c = hbar c * a W(x) / [phi2^2 + (a phi1 + b phi2)^2]   [MeV],

which never vanishes (a != 0, W != 0, positive denominator).

The unwrap (``unwrap_phase``) is bit-equal to ``np.unwrap`` and runs in
place: it applies numpy's own correction at the few steps whose jump
reaches pi and adds the running sum of those sparse corrections to each
stretch of the grid between two of them, instead of some dozen full
passes over the grid.

A ``ReducedAction`` keeps three grid-long arrays, S0, P and the branch
counter, built in place in the buffers of psi = a phi1 + b phi2 and of the
phase.  psi, psi' and the denominator D = phi2^2 + psi^2 are rebuilt from
the basis for the rows that ``momentum_derivatives`` is asked for, so the
quantum-HJ check evaluates them one block at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchResolutionError
from .kleingordon import SolutionBasis
from .model import HiddenParams, PhysicalSetup


def unwrap_phase(p: np.ndarray) -> np.ndarray:
    """Unwrap a 1-D float array in place; returns it, equal to ``np.unwrap(p)``
    bit for bit.

    Only steps d with |d| >= pi (or NaN) are corrected, each by numpy's
    rule mod(d + pi, 2 pi) - pi - d, with a step of exactly +pi kept at +pi
    (numpy's boundary rule).  numpy adds the cumulative sum of a correction
    that is exactly 0 at every other step; adding 0.0 leaves that sum as it
    is, so each stretch after a corrected step gets the running sum of the
    corrections so far, and the stretch before the first one gets the +0.0
    that turns a -0.0 into +0.0, as in numpy.
    """
    d = np.diff(p)
    jump = np.flatnonzero(~(np.abs(d, out=d) < np.pi))
    del d
    dj = p[jump + 1] - p[jump]
    ddmod = np.mod(dj + np.pi, 2 * np.pi) - np.pi
    ddmod[(ddmod == -np.pi) & (dj > 0)] = np.pi
    level = np.cumsum(ddmod - dj)
    starts = [1, *(jump + 1).tolist()]
    ends = [*starts[1:], p.size]
    for lo, hi, add in zip(starts, ends, [0.0, *level.tolist()]):
        p[lo:hi] += add
    return p


class ReducedAction:
    """Immutable view of S0, P and the branch counter over the basis grid."""

    def __init__(self, basis: SolutionBasis, params: HiddenParams, setup: PhysicalSetup):
        self.basis = basis
        self.params = params
        self.setup = setup

        a, b = params.a, params.b
        phi2 = basis.phi2
        psi = np.multiply(a, basis.phi1)
        theta = np.multiply(b, phi2)
        psi += theta                                    # a phi1 + b phi2
        unwrap_phase(np.arctan2(psi, phi2, out=theta))
        jumps = np.diff(theta)
        if jumps.size and np.max(np.abs(jumps, out=jumps)) > 0.95 * np.pi:
            raise BranchResolutionError(
                "per-step phase jump approaches pi; refine the basis grid"
            )
        del jumps

        # arctan branch values: phi2 -> 0 gives +-pi/2 via IEEE infinities
        with np.errstate(divide="ignore"):
            branch = np.divide(psi, phi2)
        np.arctan(branch, out=branch)
        # anchor: S0 at the grid origin sits on branch zero
        theta -= theta[0]
        theta += branch[0]
        np.subtract(theta, branch, out=branch)
        branch /= np.pi
        self.branch_grid = np.rint(branch, out=branch).astype(int)

        # the exact solution has a position-independent Wronskian; using the
        # anchor value keeps P consistent with one normalization and lets
        # validation residuals see any solver drift
        w0 = basis.wronskian
        denom = np.add(np.square(phi2, out=branch), np.square(psi, out=psi), out=psi)
        del branch
        self.momentum_grid = np.divide(setup.hbar_c * a * w0, denom, out=denom)  # [MeV/c]
        self.s0_grid = np.multiply(setup.hbar, theta, out=theta)                  # [MeV s]

    @property
    def grid(self) -> np.ndarray:
        return self.basis.grid

    def momentum_derivatives(self, u_nodes: np.ndarray, rows: slice = slice(None)):
        """(Pc, Pc', Pc'') on grid[rows], closed form [MeV, MeV/fm, MeV/fm^2].

        Uses phi'' = u phi to express second derivatives through carried
        state only; ``u_nodes`` is u(x) on grid[rows] [1/fm^2].  Each value
        depends on its own grid point only.  psi = a phi1 + b phi2, psi'
        and D = phi2^2 + psi^2 are rebuilt from the basis on grid[rows] by
        the operations that built P, so they equal its factors bit for bit.
        """
        bs, a, b = self.basis, self.params.a, self.params.b
        phi2, dphi2 = bs.phi2[rows], bs.dphi2[rows]
        psi = a * bs.phi1[rows] + b * phi2
        dpsi = a * bs.dphi1[rows] + b * dphi2
        denom = phi2**2 + psi**2
        # in place, each sum and product in the order of
        # dd = 2 (phi2 phi2' + psi psi'),
        # ddd = 2 (phi2'^2 + u phi2^2 + psi'^2 + u psi^2),
        # Pc' = -Pc dd / D and Pc'' = Pc (2 dd^2 / D^2 - ddd / D)
        tmp = phi2 * dphi2
        dd = psi * dpsi
        dd += tmp
        dd *= 2.0
        ddd = np.square(dphi2)
        ddd += np.multiply(u_nodes, np.square(phi2, out=tmp), out=tmp)
        ddd += np.square(dpsi, out=dpsi)
        ddd += np.multiply(u_nodes, np.square(psi, out=psi), out=psi)
        ddd *= 2.0
        del dpsi, psi
        pc = self.momentum_grid[rows]
        pcp = np.negative(pc)
        pcp *= dd
        pcp /= denom
        pcpp = np.square(dd, out=dd)
        pcpp *= 2.0
        pcpp /= np.square(denom, out=tmp)
        pcpp -= np.divide(ddd, denom, out=ddd)
        pcpp *= pc
        return pc, pcp, pcpp
