"""Node detection, wavelength relations and trajectory/action validators.

The nodes of an (a, b) family are the rungs where S0 = hbar arctan(a phi1 /
phi2 + b) takes the same value for every (a, b): the zeros of phi2, which
for a constant potential are the closed-form ladder (``nodes_closed_form``).
``detect_nodes`` takes the rungs as given and reports when each trajectory
arrives there, so it needs no threshold of its own.

Validators are residual-based and dimensionless: each equation's terms are
evaluated in MeV-based units and the sum is normalized by the largest term
magnitude, so tolerances compare like with like across configurations
whose raw scales span many orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import ReducedAction
from .errors import InsufficientTrajectories, RegimeError, TooFewSamples
from .kleingordon import UNIFORM_REL_TOL, uniform_step, wavenumber_sq
from .model import PhysicalSetup, Potential, Regime, constant_regime, kinetic_term
from .trajectory import Trajectory, _cubic_at, node_period, node_spacing, window_bounds


@dataclass(eq=False)  # equality is identity: the fields are arrays
class NodeReport:
    """Node times/positions and the per-interval spacing quantities.

    One entry per node, in time order, and per interval between adjacent
    nodes dt, dx = |x_{n+1} - x_n|, mean_momentum = pi hbar c / dx (in
    MeV/c) and wavelength = 2 dx, the de Broglie wavelength reconstructed
    from the node spacing.  ``extras`` holds the arrays a method adds per node.
    """

    times: np.ndarray            # [s]
    positions: np.ndarray        # [fm]
    dt: np.ndarray               # [s]
    dx: np.ndarray               # [fm]
    mean_momentum: np.ndarray    # [MeV/c]
    wavelength: np.ndarray       # [fm]
    method: str
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "method": self.method,
            "units": {
                "times": "s",
                "positions": "fm",
                "dt": "s",
                "dx": "fm",
                "mean_momentum": "MeV/c",
                "wavelength": "fm",
            },
            "times": list(map(float, self.times)),
            "positions": list(map(float, self.positions)),
            "dt": list(map(float, self.dt)),
            "dx": list(map(float, self.dx)),
            "mean_momentum": list(map(float, self.mean_momentum)),
            "wavelength": list(map(float, self.wavelength)),
            "extras": {k: list(map(float, v)) for k, v in self.extras.items()},
        }


@dataclass(eq=False)  # equality is identity: the fields are arrays
class ValidationReport:
    """Per-sample normalized residuals and their maximum."""

    kind: str
    residuals: np.ndarray
    max_residual: float


def _summary(kind, residuals) -> ValidationReport:
    residuals = np.asarray(residuals, dtype=float)
    return ValidationReport(kind, residuals, float(np.max(residuals)) if residuals.size else 0.0)


# ----------------------------------------------------------------------
# nodes and wavelengths
# ----------------------------------------------------------------------

def nodes_closed_form(
    setup: PhysicalSetup, u0: float, t_range, x0: float = 0.0
) -> NodeReport:
    """Node pattern of the constant-potential family (a W > 0 convention).

    t_n = (n + 1/2) pi hbar |E-U0| / ((E-U0)^2 - m2), x_n = x0 + direction *
    sign(E-U0) * (n + 1/2) * pi hbar c / sqrt((E-U0)^2 - m2), for every n
    with t_min <= t_n <= t_max, ``t_range`` = (t_min, t_max).  The traces
    move along direction * sign(E-U0): E - U0 < 0 is oscillatory too
    (``model``), and its ladder lies on the other side of x0.
    """
    dt = node_period(setup, u0)
    dx = node_spacing(setup, u0)
    # one rung past each end, then the cut on the times as computed
    t_min, t_max = t_range
    n = np.arange(np.floor(t_min / dt - 0.5), np.floor(t_max / dt + 0.5) + 1)
    n = n[(t_min <= (n + 0.5) * dt) & ((n + 0.5) * dt <= t_max)]
    times = (n + 0.5) * dt
    positions = x0 + setup.direction * np.sign(setup.E - u0) * (n + 0.5) * dx
    dts = np.full(max(n.size - 1, 0), dt)
    dxs = np.full(max(n.size - 1, 0), dx)
    return NodeReport(
        times=times,
        positions=positions,
        dt=dts,
        dx=dxs,
        mean_momentum=np.pi * setup.hbar_c / dxs,
        wavelength=2.0 * dxs,
        method="closed-form",
    )


def detect_nodes(curves, rungs, setup: PhysicalSetup, t_range) -> NodeReport:
    """Nodes of one trajectory family: its arrival times at the rungs.

    ``curves`` holds each trajectory's samples as a (t, x) pair of arrays,
    t ascending and x monotone; ``rungs`` the positions [fm] where the
    family meets, or None; ``setup`` the family's.  Each curve is turned so
    that x ascends, and the cubic of t over x through the four rows around
    a rung (``trajectory._cubic_at``) gives its arrival time at every rung
    inside its x range.  t_lo and t_hi are the first and last
    times that every curve holds inside ``t_range`` = (t_min, t_max), by
    ``trajectory.window_bounds``, the rule of the trajectory files, and a
    rung is a node when every arrival lies in [t_lo, t_hi].  Its time is
    the mean arrival, its position the rung.  The extras give each node's
    ``arrival_spread_s``, latest minus earliest arrival, and from two nodes
    up ``arrival_spread_per_period``, that spread over the local node
    period (np.gradient of the node times).  No common rows, or no rung
    inside them, gives an empty report.
    """
    curves = list(curves)
    if len(curves) < 2:
        raise InsufficientTrajectories("need at least two trajectories")
    rungs = np.empty(0) if rungs is None else np.asarray(rungs, dtype=float)

    t_min, t_max = t_range
    t_lo, t_hi = -np.inf, np.inf
    arrivals = []
    for t, x in curves:
        lo, hi = window_bounds(t, t_min, t_max)
        if hi > lo:
            t_lo, t_hi = max(t_lo, t[lo]), min(t_hi, t[hi - 1])
        else:
            t_lo, t_hi = np.inf, -np.inf        # no common rows
        if x[-1] < x[0]:
            t, x = t[::-1], x[::-1]
        arrivals.append(_cubic_at(x, t, rungs))
    arrivals = np.array(arrivals)
    node = np.all((t_lo <= arrivals) & (arrivals <= t_hi), axis=0)
    arrivals, positions = arrivals[:, node], rungs[node]

    times = arrivals.sum(axis=0) / len(curves)
    order = np.argsort(times)
    times, positions, arrivals = times[order], positions[order], arrivals[:, order]
    dxs = np.abs(np.diff(positions))
    extras = {"arrival_spread_s": arrivals.max(axis=0) - arrivals.min(axis=0)}
    if times.size >= 2:
        extras["arrival_spread_per_period"] = extras["arrival_spread_s"] / np.gradient(times)

    with np.errstate(divide="ignore"):
        mean_p = np.pi * setup.hbar_c / dxs

    return NodeReport(
        times=times,
        positions=positions,
        dt=np.diff(times),
        dx=dxs,
        mean_momentum=mean_p,
        wavelength=2.0 * dxs,
        method="rung-arrivals",
        extras=extras,
    )


def de_broglie(setup: PhysicalSetup, u0: float) -> float:
    """Wavelength h c / sqrt((E-U0)^2 - m2) = h/p for a constant potential [fm]."""
    regime, _, disc = constant_regime(setup, u0)
    if regime is not Regime.OSCILLATORY:
        raise RegimeError("de Broglie wavelength needs an oscillatory configuration")
    return float(2.0 * np.pi * setup.hbar_c / np.sqrt(disc))


# ----------------------------------------------------------------------
# residual validators
# ----------------------------------------------------------------------

# Centred 7-point weights on offsets -3..3 (Fornberg 1988): the first three
# derivatives at 0 of the degree-6 interpolant, in units of the step.  The
# integer numerators are exact in binary; each sum is divided by its
# denominator once.
_STENCIL_WEIGHTS = (
    ((-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0), 60.0),
    ((2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0), 180.0),
    ((1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0), 8.0),
)


# Windows (or grid points) evaluated per block: a block's temporaries
# (about 20 arrays of this many float64s) stay in the processor's caches,
# where whole-trace arrays would stream through memory once per operation.
STENCIL_BLOCK = 16384


def _gradient_rows(f, lo: int, hi: int, h: float):
    """np.gradient(f, h, edge_order=2)[lo:hi], bit for bit, from f on
    lo - 1 .. hi (at least 3 samples): a value reads its two neighbours, or
    at an end of f the three samples there."""
    n = f.size
    a, b = max(min(lo - 1, n - 3), 0), min(max(hi + 1, 3), n)
    return np.gradient(f[a:b], h, edge_order=2)[lo - a : hi - a]


def _stencil_block(t, x, xd, hs, stride: int, lo: int, hi: int, weights):
    """The derivatives of the rows of ``weights`` (a prefix of
    ``_STENCIL_WEIGHTS``) at windows lo..hi-1 (centres 3*stride + lo ...).

    A uniform float grid is not exactly uniform: linspace or arange put
    sample j of a window off its ideal place t[centre] + offset * hs by
    delta_j, up to an ulp of max|t|, and the fixed weights would turn that
    into a relative error (delta / hs) (L / hs)^(k-1) in the k-th
    derivative, L the length on which x varies.  So every sample is moved
    onto its ideal place to first order, x[j] - xd[j] * delta_j, with xd
    from np.gradient on the mean step, on samples lo .. hi + 6*stride - 1;
    what is left, the error of xd too, is second order in delta / hs.
    The correction is summed apart from the window-centred values, whose
    weighted sums stay exact where x varies smoothly.

    Sums run in place, term by term in the order of the whole-array
    expression sum(w_j * d_j), so every value is the same to the bit.  Each
    sample's difference and shift is added to all three sums before the
    next one is formed, so only the sums live through the loop.
    """
    c = 3 * stride
    tc = t[c + lo : c + hi]
    xc = x[c + lo : c + hi]
    accs = [np.zeros(hi - lo) for _ in weights]
    shifts = [np.zeros(hi - lo) for _ in weights]
    term = np.empty(hi - lo)
    # the centre offset contributes nothing to window-centred values
    for j in (0, 1, 2, 4, 5, 6):
        win = slice(j * stride + lo, j * stride + hi)
        d = x[win] - xc
        delta = t[win] - tc
        delta -= (j - 3) * hs
        delta *= xd[j * stride : j * stride + hi - lo]
        for (row, _), acc, shift in zip(weights, accs, shifts):
            acc += np.multiply(row[j], d, out=term)
            shift += np.multiply(row[j], delta, out=term)
    for k, ((_, denom), acc, shift) in enumerate(zip(weights, accs, shifts), start=1):
        acc -= shift
        acc /= denom * hs**k
    return accs


def _stencil_blocks(t, x, stride: int, weights=_STENCIL_WEIGHTS):
    """The checked 7-point stencil: (m, an iterator of (lo, hi, derivatives)),
    the derivatives those of the rows of ``weights``, by default (d1, d2, d3).

    Raises TooFewSamples below 6*stride + 1 samples and RegimeError when t
    is not uniform by ``kleingordon.uniform_step`` before it returns; the
    iterator then evaluates the windows in blocks lo..hi-1 of at most
    ``STENCIL_BLOCK``.  Each block takes np.gradient of x on the mean step
    h (the shift correction of ``_stencil_block``) on its own samples plus
    a one-sample halo (``_gradient_rows``), so the only array of the
    trace's length made here is the np.diff of ``uniform_step``.
    """
    n = t.size
    if n < 6 * stride + 1:
        raise TooFewSamples(f"need at least {6 * stride + 1} samples")
    h = uniform_step(t)
    if h is None:
        raise RegimeError(f"stencil needs uniform samples: steps within {UNIFORM_REL_TOL:g} "
                          "of their mean")
    hs = h * stride
    m = n - 6 * stride

    def blocks():
        for lo in range(0, m, STENCIL_BLOCK):
            hi = min(lo + STENCIL_BLOCK, m)
            xd = _gradient_rows(x, lo, hi + 6 * stride, h)
            derivs = _stencil_block(t, x, xd, hs, stride, lo, hi, weights)
            del xd                          # not kept while the caller runs
            yield lo, hi, derivs

    return m, blocks()


def closure_residual(traj: Trajectory) -> ValidationReport:
    """Law-of-motion closure |xdot P / (sigma kin) - 1| with xdot from the
    7-point stencil.

    Setup (with the direction sign sigma) and potential are the trace's own,
    ``traj.meta["setup"]`` and ``traj.meta["potential"]``.

    P is the trace's own closed-form momentum, so the residual tests how the
    emitted trace is sampled: the stencil's truncation and round-off, and a
    quadrature trace's own error.

    xdot is the first-derivative row of the stencil of ``firqnl_residual``
    (``_stencil_blocks``, with its shift correction) at stride 1, along the
    variable the trace samples uniformly: d1 of x(t) when t is uniform,
    1 / d1 of t(x) otherwise.  So both sampled checks measure the same
    sampling, at sixth order in the spacing.  Only that row is evaluated,
    block by block into one residual array, at the window centres, from the
    fourth sample to the fourth from last.  TooFewSamples below 7 samples,
    RegimeError when neither variable is uniform.
    """
    setup, pot = traj.setup, traj.potential
    along_t = uniform_step(traj.t) is not None
    u, y = (traj.t, traj.x) if along_t else (traj.x, traj.t)
    m, blocks = _stencil_blocks(u, y, 1, _STENCIL_WEIGHTS[:1])
    res = np.empty(m)
    for lo, hi, (d1,) in blocks:
        xd = d1 if along_t else np.divide(1.0, d1, out=d1)         # [fm/s]
        rows = slice(3 + lo, 3 + hi)
        kin = kinetic_term(setup, pot, traj.x[rows])
        res[lo:hi] = np.abs(xd * traj.momentum[rows] / (setup.direction * setup.c_fm_s * kin)
                            - 1.0)
    return _summary("closure", res)


def firqnl_residual(traj: Trajectory, stride: int = 1) -> ValidationReport:
    """Normalized residual of the third-order first integral of the motion.

    Setup and potential are the trace's own, ``traj.meta["setup"]`` and
    ``traj.meta["potential"]``.  Five terms are evaluated per interior
    sample (derivatives from the fixed 7-point centred stencil, see
    ``_stencil_blocks``) and the sum is divided by the largest term
    magnitude.  For constant potentials the potential-derivative terms are
    identically zero.  The equation follows from the quantum HJ, so the
    residual tests how the emitted trace is sampled (the stencil's
    truncation and round-off).

    Derivatives are taken along the variable the trace samples uniformly
    (``kleingordon.uniform_step``): x(t) windows when t is uniform (closed
    forms, linspace t), t(x) windows otherwise (quadrature and classical
    linear or tabulated traces, uniform x).  ``stride`` is a positive int
    spacing the stencil over every stride-th sample; a bad ``stride``
    raises ValueError.  When neither variable is uniform RegimeError is
    raised, and TooFewSamples below 6*stride + 1 samples.

    The stencil runs block by block (``_stencil_blocks``), its gradient
    too, and so do the five terms, into one residual array; the other
    arrays of the trace's length are the np.diff of ``uniform_step``, on t
    and then in ``_stencil_blocks``.  Every value comes from the same
    operations in the same order as a whole-array evaluation, so the
    residuals are bit-identical to it and do not depend on the block size.
    """
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be a positive int, not {stride!r}")
    setup, pot = traj.setup, traj.potential
    along_t = uniform_step(traj.t) is not None
    u, y = (traj.t, traj.x) if along_t else (traj.x, traj.t)
    m, blocks = _stencil_blocks(u, y, stride)
    res = np.empty(m)
    for lo, hi, (d1, d2, d3) in blocks:
        if along_t:
            xd, xdd, xddd = d1, d2, d3
        else:
            xd = 1.0 / d1
            xdd = -d2 / d1**3
            xddd = (3.0 * d2**2 - d3 * d1) / d1**5
        del d1, d2, d3
        x_in = traj.x[3 * stride + lo : 3 * stride + hi]
        res[lo:hi] = _firqnl_terms(setup, pot, x_in, xd, xdd, xddd)
    return _summary("first-integral", res)


def _firqnl_terms(setup: PhysicalSetup, pot: Potential, x_in, xd, xdd, xddd):
    """Normalized first-integral residual at positions x_in (one block)."""
    c = setup.c_fm_s
    hb = setup.hbar
    m2 = setup.rest_sq
    w = setup.E - np.asarray(pot.v(x_in), dtype=float)
    vp = np.asarray(pot.dv(x_in), dtype=float)
    vpp = np.asarray(pot.d2v(x_in), dtype=float)
    q = w * w - m2
    # each subexpression once; every term keeps its order of operations.
    # Each term goes into the total, and its magnitude into the scale, as
    # soon as it is formed, and every piece is freed after its last use
    q3 = q**3
    hq2 = (hb**2 / 2.0) * q**2
    del q
    w2 = w**2
    mw = m2 / w2
    xd2 = xd**2
    lorentz = 1.0 - xd2 / c**2
    # normalize by the largest displayed piece; the q^3 m2/w^2 monomial never
    # vanishes, so the denominator is bounded away from zero even where the
    # signed terms cross zero together
    total = q3 * (lorentz - mw)
    scale = np.abs(q3 * lorentz)
    del lorentz
    np.maximum(scale, np.abs(q3 * m2 / w2), out=scale)
    del q3, w2
    wq = (w**4 - m2**2) / w
    t2 = -(hb**2 / 2.0) * wq * (xdd * vp)
    total += t2
    np.maximum(scale, np.abs(t2, out=t2), out=scale)
    del t2
    t3 = -(hb**2 / 2.0) * wq * (xd2 * vpp)
    total += t3
    np.maximum(scale, np.abs(t3, out=t3), out=scale)
    del t3, wq, xd2, vpp
    r = xdd / xd
    total += hq2 * (1.5 * r**2 - xddd / xd)
    np.maximum(scale, np.abs(hq2 * 1.5 * r**2), out=scale)
    np.maximum(scale, np.abs(hq2 * xddd / xd), out=scale)
    del r, hq2
    t5 = -(hb**2 / 4.0) * (4.0 * m2 * (1.0 - mw) + 3.0 * (w + m2 / w) ** 2) * (xd * vp) ** 2
    total += t5
    np.maximum(scale, np.abs(t5, out=t5), out=scale)
    return np.divide(np.abs(total, out=total), scale, out=total)


def rqshje_residual(
    ra: ReducedAction, setup: PhysicalSetup = None, pot: Potential = None
) -> ValidationReport:
    """Normalized residual of the quantum Hamilton-Jacobi equation on the grid.

    Terms (each in MeV^2): (Pc)^2, the Schwarzian-type correction
    -(hbar c)^2/2 [3/2 (Pc'/Pc)^2 - Pc''/Pc], and m2 - (E-V)^2.  Momentum
    derivatives are closed-form (no differencing).  The grid, basis and
    (a, b) are those of ``ra``; so is the setup unless ``setup`` is given.
    ``pot`` is required.

    With closed-form Pc, Pc' and Pc'' the residual is |1 - W(x)^2 / W0^2|
    up to round-off: it tests the basis's Wronskian, and through it the
    closed-form algebra, but not a phase error that keeps W constant.

    Grid points are evaluated in blocks of ``STENCIL_BLOCK`` into one
    residual array, psi, psi' and D too (``ReducedAction.momentum_derivatives``
    rebuilds them from the basis per block); every value comes from the
    same operations as on the whole grid, so the residuals are
    bit-identical to it.
    """
    setup = setup or ra.setup
    if pot is None:
        raise ValueError("potential required")
    res = np.empty(ra.grid.size)
    for lo in range(0, res.size, STENCIL_BLOCK):
        rows = slice(lo, lo + STENCIL_BLOCK)
        x = ra.grid[rows]
        pc, pcp, pcpp = ra.momentum_derivatives(-wavenumber_sq(setup, pot, x), rows)
        # in place: t2 in pcp's buffer, t3 in that of E - V
        t1 = pc * pc
        np.square(np.divide(pcp, pc, out=pcp), out=pcp)
        pcp *= 1.5
        pcp -= np.divide(pcpp, pc, out=pcpp)
        t2 = np.multiply(-(setup.hbar_c**2 / 2.0), pcp, out=pcp)
        del pcpp
        ev = setup.E - np.asarray(pot.v(x), dtype=float)
        t3 = np.subtract(setup.rest_sq, np.multiply(ev, ev, out=ev), out=ev)
        total = t1 + t2
        total += t3
        scale = np.abs(t1, out=t1)
        np.maximum(scale, np.abs(t2, out=t2), out=scale)
        np.maximum(scale, np.abs(t3, out=t3), out=scale)
        np.divide(np.abs(total, out=total), scale, out=res[rows])
    return _summary("quantum-hj", res)
