"""Two-solution basis of the stationary wave equation on a position grid.

The second-order form integrated here is
    phi'' = u(x) phi,   u(x) = [(m0 c^2)^2 - (E - V)^2] / (hbar c)^2,
so u < 0 gives oscillatory solutions and u > 0 exponential ones.  Constant
potentials get the closed-form sin/cos (or sinh/cosh) pair; anything else is
propagated as a first-order system carrying (phi, phi') so the Wronskian
stays accurate.  RK4 is the default; the first-order Euler scheme is kept
as a deliberately crude comparison option.

The system is linear, so one Euler or RK4 step is a 2x2 transfer matrix,
y_{i+1} = M_i y_i with y = (phi, phi'), and both basis columns share it.
The grid states are the prefix products of the M_i, taken in two levels
(Blelloch, "Prefix sums and their applications", CMU-CS-90-190, 1990):
within blocks of about sqrt(n) steps the products run in sequence,
vectorised across blocks, and one short loop carries the state from block
to block.  The M_i are built with array arithmetic SCAN_CHUNK steps at a
time, straight into the block layout; the products run in place there,
and each column's states are written straight into its output array, so
no grid-long copy of the matrices exists.  Every product and sum is the
one of the whole-array blocked product this layout replaced, in the same
order, so the states are bit-identical to it (the tests keep it as an
oracle).  The blocking reassociates the sequential step-by-step product,
so results agree with that to round-off in the max norm, not digit for
digit near the zeros of phi; the sequential loop is kept in the tests as
the reference it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisGapError, DependentInitials, StepTooLarge
from .model import PhysicalSetup, Potential, Regime, constant_regime
from .output import write_csv


@dataclass
class SolutionBasis:
    """Grid samples of two independent real solutions and their derivatives.

    Wronskian convention: W = phi1' phi2 - phi1 phi2', so the oscillatory
    sin/cos pair has W = k > 0.  For the pure second-order form W is a
    constant of the motion; pointwise drift measures solver quality.
    """

    grid: np.ndarray          # [fm], strictly increasing
    phi1: np.ndarray
    dphi1: np.ndarray         # [1/fm]
    phi2: np.ndarray
    dphi2: np.ndarray

    def __post_init__(self):
        if self.grid.size >= 2 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("basis grid must be strictly increasing")
        if abs(self.wronskian) == 0.0:
            raise DependentInitials("zero Wronskian: columns are dependent")

    @property
    def wronskian(self) -> float:
        """W at the first grid point [1/fm]."""
        return float(
            self.dphi1[0] * self.phi2[0] - self.phi1[0] * self.dphi2[0]
        )

    def wronskian_pointwise(self) -> np.ndarray:
        return self.dphi1 * self.phi2 - self.phi1 * self.dphi2

    def index_of(self, x: float) -> int:
        """Index of the grid point at x (must lie on the grid)."""
        i = int(np.searchsorted(self.grid, x))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.grid.size and np.isclose(
                self.grid[j], x, rtol=0.0, atol=1e-9 * max(1.0, abs(x))
            ):
                return j
        raise BasisGapError(f"x = {x} is not a grid point of the basis")

    def to_csv(self, path, header=()):
        write_csv(
            path,
            header,
            [
                ("x_fm", self.grid),
                ("phi1", self.phi1),
                ("dphi1_per_fm", self.dphi1),
                ("phi2", self.phi2),
                ("dphi2_per_fm", self.dphi2),
                ("wronskian_per_fm", self.wronskian_pointwise()),
            ],
        )


# Largest relative deviation of a step from the mean step that still counts
# as uniform.  Grids built by linspace or start + step * arange deviate by a
# few ulps of their largest magnitude: at most 1.5e-11 of the step on the
# fig1-3 traces.
UNIFORM_REL_TOL = 1e-8


def uniform_step(grid) -> float | None:
    """Signed mean step of a uniformly spaced grid, or None if it is not one.

    The package's one rule for "uniform": the mean step
    h = (grid[-1] - grid[0]) / (n - 1) is nonzero and finite, and every step
    is within UNIFORM_REL_TOL * |h| of it.  The numeric solve and the
    quadrature trace step by this h, not by grid[1] - grid[0], which can sit
    ulps of the largest |x| off it; the first-integral stencil applies the
    rule too.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        return None
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    dev = np.diff(grid)
    dev -= h
    spread = np.max(np.abs(dev, out=dev))
    if h != 0 and spread <= UNIFORM_REL_TOL * abs(h):
        return float(h)
    return None


def wavenumber_sq(setup: PhysicalSetup, pot: Potential, x):
    """-u(x) = [(E-V)^2 - (m0 c^2)^2] / (hbar c)^2  [1/fm^2]."""
    ev = setup.E - np.asarray(pot.v(x), dtype=float)
    return (ev * ev - setup.rest_sq) / setup.hbar_c**2


def solve_constant(setup: PhysicalSetup, u0: float, grid) -> SolutionBasis:
    """Closed-form basis for V = u0.

    Oscillatory: (sin kx, cos kx) with k = sqrt((E-u0)^2 - (m0c2)^2)/(hbar c),
    W = k.  Evanescent: (sinh Kx, cosh Kx), W = K.  E = U0 and a
    turning-point configuration raise (``model.constant_regime``).
    """
    grid = np.asarray(grid, dtype=float)
    regime, _, disc = constant_regime(setup, u0)
    if regime is Regime.OSCILLATORY:
        k = np.sqrt(disc) / setup.hbar_c
        basis = SolutionBasis(
            grid=grid,
            phi1=np.sin(k * grid),
            dphi1=k * np.cos(k * grid),
            phi2=np.cos(k * grid),
            dphi2=-k * np.sin(k * grid),
        )
    else:
        kappa = np.sqrt(-disc) / setup.hbar_c
        basis = SolutionBasis(
            grid=grid,
            phi1=np.sinh(kappa * grid),
            dphi1=kappa * np.cosh(kappa * grid),
            phi2=np.cosh(kappa * grid),
            dphi2=kappa * np.sinh(kappa * grid),
        )
    return basis


def _rk4_step(p, d, h, u0, um, u1):
    """One RK4 step of (phi, phi'); u0, um, u1 are u at its start, middle and end."""
    k1p = d
    k1d = u0 * p
    k2p = d + 0.5 * h * k1d
    k2d = um * (p + 0.5 * h * k1p)
    k3p = d + 0.5 * h * k2d
    k3d = um * (p + 0.5 * h * k2p)
    k4p = d + h * k3d
    k4d = u1 * (p + h * k3p)
    return (
        p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p),
        d + h / 6.0 * (k1d + 2.0 * (k2d + k3d) + k4d),
    )


def _step_matrices(method, h, u_nodes, u_mid=None):
    """Entries (m00, m01, m10, m11) of every step's transfer matrix M_i."""
    u0 = u_nodes[:-1]
    if method == "euler":
        one = np.ones_like(u0)
        return one, np.full_like(u0, h), h * u0, one
    # the RK4 step applied to the unit columns (1, 0) and (0, 1)
    m00, m10 = _rk4_step(1.0, 0.0, h, u0, u_mid, u_nodes[1:])
    m01, m11 = _rk4_step(0.0, 1.0, h, u0, u_mid, u_nodes[1:])
    return m00, m01, m10, m11


# Steps whose transfer matrices are built at a time: the dozen temporaries
# of a chunk stay small beside the grid-long arrays.
SCAN_CHUNK = 16384


def _scan_layout(method, h, u_nodes, u_mid):
    """The entries (a, b, c, d) of every step matrix, as (4, block, nblocks).

    The block length is ceil(sqrt(steps)); entry [j, k] is step j of block
    k, so a row is one contiguous vector across the blocks.  The last block
    is padded with identities.  The matrices are built SCAN_CHUNK steps
    (whole blocks) at a time straight into this layout.

    The four entries are one allocation: freed after the scan, it lifts
    glibc's dynamic mmap threshold above the grid-long arrays of the later
    stages, which then reuse freed heap pages instead of faulting in fresh
    ones (fig3 ``run_basis(compare_methods=True)`` in process: 5.7 k minor
    page faults, 28.6 k with four separate arrays).
    """
    steps = u_nodes.size - 1
    block = math.isqrt(steps - 1) + 1
    nblocks = -(-steps // block)
    layout = np.empty((4, block, nblocks))
    per = max(SCAN_CHUNK // block, 1)
    for k0 in range(0, nblocks, per):
        k1 = min(k0 + per, nblocks)
        lo, hi = k0 * block, min(k1 * block, steps)
        mats = _step_matrices(method, h, u_nodes[lo:hi + 1],
                              None if u_mid is None else u_mid[lo:hi])
        for m, entry, fill in zip(layout, mats, (1.0, 0.0, 0.0, 1.0)):
            pad = (k1 - k0) * block - (hi - lo)
            if pad:
                entry = np.concatenate([entry, np.full(pad, fill)])
            m[:, k0:k1] = entry.reshape(k1 - k0, block).T
    return layout


def _states(x, w, starts, y, n):
    """Both columns' states x p + w q from one row pair (x, w) of the products.

    ``starts`` = (p1, q1, p2, q2) holds each column's state at every block
    start and ``y`` = (y1, y2) its value at grid point 0.  Each column is
    the first n values, one per grid point, of a buffer of x.size + 1
    whose entry k * block + j + 1 is the state after step j of block k.
    x and w are scaled in place, so both are spent.
    """
    p1, q1, p2, q2 = (s[:, None] for s in starts)
    col1, col2 = np.empty(x.size + 1), np.empty(x.size + 1)
    col1[0], col2[0] = y
    # row k of s and of x.T, w.T is block k, so the writes are contiguous
    s1, s2 = (col[1:].reshape(x.shape[1], x.shape[0]) for col in (col1, col2))
    x, w = x.T, w.T
    np.multiply(x, p1, out=s1)
    np.multiply(w, q2, out=s2)
    s2 += np.multiply(x, p2, out=x)
    s1 += np.multiply(w, q1, out=w)
    return col1[:n], col2[:n]


def _scan(method, h, u_nodes, u_mid, y0):
    """Grid states (phi1, dphi1, phi2, dphi2) of both columns from y0.

    Blocked prefix product of the step matrices (``_scan_layout``): the
    products run in place within the blocks, one short loop carries the
    state from block to block, and each column's states go straight into
    its output (``_states``).
    """
    a, b, c, d = _scan_layout(method, h, u_nodes, u_mid)

    # row j becomes M_j times the product of rows 0 .. j - 1
    tmp = np.empty(a.shape[1])
    for j in range(1, a.shape[0]):
        ma, mb, mc, md = a[j], b[j], c[j], d[j]
        pa, pb, pc, pd = a[j - 1], b[j - 1], c[j - 1], d[j - 1]
        na, nb, nc, nd = ma * pa, ma * pb, mc * pa, mc * pb
        na += np.multiply(mb, pc, out=tmp)
        nb += np.multiply(mb, pd, out=tmp)
        nc += np.multiply(md, pc, out=tmp)
        nd += np.multiply(md, pd, out=tmp)
        a[j], b[j], c[j], d[j] = na, nb, nc, nd

    # carry the state across blocks with each block's full product
    p1, d1, p2, d2 = y0
    starts = np.empty((4, a.shape[1]))
    for k, (ta, tb, tc, td) in enumerate(zip(a[-1].tolist(), b[-1].tolist(),
                                              c[-1].tolist(), d[-1].tolist())):
        starts[:, k] = p1, d1, p2, d2
        p1, d1 = ta * p1 + tb * d1, tc * p1 + td * d1
        p2, d2 = ta * p2 + tb * d2, tc * p2 + td * d2

    phi1, phi2 = _states(a, b, starts, (y0[0], y0[2]), u_nodes.size)
    dphi1, dphi2 = _states(c, d, starts, (y0[1], y0[3]), u_nodes.size)
    return phi1, dphi1, phi2, dphi2


def solve_numeric(
    setup: PhysicalSetup,
    pot: Potential,
    grid,
    method: str = "rk4",
    init1=(0.0, 1.0),
    init2=(1.0, 0.0),
) -> SolutionBasis:
    """Integrate the basis over a uniform grid as a first-order system.

    ``init1``/``init2`` are (phi, phi') at the first grid point; the defaults
    mirror the sin/cos convention at the origin up to normalization.  The
    step guard rejects |k h| > 0.1 where k is the largest local wavenumber,
    and a NaN |k h| (a NaN potential value on the grid).

    Each Euler or RK4 step is built as the 2x2 matrix it applies to
    (phi, phi'), and the grid states are the blocked prefix products of
    those matrices, taken in place (see the module docstring).  They
    equal the step-by-step loop up to the order of the floating-point
    products: the tests check max|difference| / max|loop| <= 1e-13
    against that loop.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array of at least 2 points")
    w0 = init1[1] * init2[0] - init1[0] * init2[1]
    if w0 == 0.0:
        raise DependentInitials("initial conditions are linearly dependent")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")

    h = uniform_step(grid)
    if h is None:
        raise ValueError("numeric solve requires a uniform grid")

    u_nodes = -wavenumber_sq(setup, pot, grid)
    kmax = float(np.sqrt(np.max(np.abs(u_nodes))))
    if not kmax * h <= 0.1:                        # NaN fails too
        raise StepTooLarge(f"|k h| = {kmax * h:.3g} > 0.1; refine the grid")

    y0 = (float(init1[0]), float(init1[1]), float(init2[0]), float(init2[1]))
    u_mid = -wavenumber_sq(setup, pot, grid[:-1] + 0.5 * h) if method == "rk4" else None
    phi1, dphi1, phi2, dphi2 = _scan(method, h, u_nodes, u_mid, y0)

    return SolutionBasis(
        grid=grid,
        phi1=phi1,
        dphi1=dphi1,
        phi2=phi2,
        dphi2=dphi2,
    )


def wronskian_drift(basis: SolutionBasis) -> float:
    """max over the grid of |W(x)/W(x0) - 1| (zero for closed forms)."""
    if basis.grid.size < 2:
        raise ValueError("drift needs at least two grid points")
    w = basis.wronskian_pointwise()
    return float(np.max(np.abs(w / w[0] - 1.0)))

