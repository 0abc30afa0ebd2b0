"""Reduced action S0 and conjugate momentum built from a solution basis.

S0(x) = hbar * arctan(a phi1/phi2 + b), continued across the zeros of phi2
by integer multiples of pi so it stays monotone.  The continuous phase
theta = S0 / hbar is the angle of the vector (phi2, a phi1 + b phi2); its x
derivative gives the closed-form momentum

    P c = hbar c * a W(x) / [phi2^2 + (a phi1 + b phi2)^2]   [MeV],

which never vanishes (a != 0, W != 0, positive denominator).

theta advances between two grid rows by the angle between the rows' two
vectors (``phase_steps``), and S0 is hbar times its value at the grid
origin plus the running sum of those steps, so the phase rule's trace,
which integrates the same steps, reads the same phase as S0.

A ``ReducedAction`` keeps three grid-long arrays, S0, P and the branch
counter.  The phase steps, and psi = a phi1 + b phi2, psi' and the
denominator D = phi2^2 + psi^2, are rebuilt from the basis when they are
asked for: ``phase_steps`` for the rows up to a cut, and
``momentum_derivatives`` for a block of rows, so the quantum-HJ check
evaluates them one block at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchResolutionError
from .kleingordon import SolutionBasis
from .model import HiddenParams, PhysicalSetup


class ReducedAction:
    """Immutable view of S0, P and the branch counter over the basis grid."""

    def __init__(self, basis: SolutionBasis, params: HiddenParams, setup: PhysicalSetup):
        self.basis = basis
        self.params = params
        self.setup = setup

        a, b = params.a, params.b
        phi2 = basis.phi2
        steps = self.phase_steps()
        if steps.size:
            i = int(np.argmax(np.abs(steps)))
            if abs(steps[i]) > 0.95 * np.pi:
                raise BranchResolutionError(
                    f"phase step of {steps[i]:.4g} rad between x = {float(basis.grid[i])!r} "
                    f"and {float(basis.grid[i + 1])!r} fm approaches pi; refine the basis grid"
                )
        psi = np.multiply(a, basis.phi1)
        branch = np.multiply(b, phi2)
        psi += branch                                   # a phi1 + b phi2

        # arctan branch values: phi2 -> 0 gives +-pi/2 via IEEE infinities
        with np.errstate(divide="ignore"):
            np.divide(psi, phi2, out=branch)
        np.arctan(branch, out=branch)
        # anchor: S0 at the grid origin sits on branch zero
        theta = np.concatenate(([branch[0]], steps))
        del steps
        np.cumsum(theta, out=theta)
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

    def phase_steps(self, stop: int | None = None) -> np.ndarray:
        """The step of theta = S0 / hbar between each pair of neighbouring
        rows among grid points 0 ... stop - 1 [rad].

        Each step is the atan2 of the rows' two (phi2, a phi1 + b phi2)
        vectors, so it is exact to round-off of the step itself, however
        far theta has run, and lies in (-pi, pi].
        """
        bs, a, b = self.basis, self.params.a, self.params.b
        phi2 = bs.phi2[:stop]
        psi = np.multiply(a, bs.phi1[:stop])
        psi += np.multiply(b, phi2)
        return np.arctan2(psi[1:] * phi2[:-1] - psi[:-1] * phi2[1:],
                          phi2[:-1] * phi2[1:] + psi[:-1] * psi[1:])

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
