"""Trajectories x(t): closed forms for constant potentials, quadrature otherwise.

The trajectory law integrated here is

    dx/dt = sigma * (1 / hbar a W) * [E - V - (m0c2)^2/(E-V)] * [phi2^2 + (a phi1 + b phi2)^2]

with sigma = +-1 the direction sign.  For a constant potential the time
equation inverts in closed form to an arctan-of-tan staircase whose branch
constant advances by pi at every node crossing; the node pattern
(t_n, x_n) is shared by the whole (a, b) family.  For general potentials
the right side depends on x only, so t(x) is accumulated over the basis
grid by the phase rule: t = (hbar / sigma) integral of dtheta / kin, with
theta = S0 / hbar, by the end-corrected trapezoid in theta, fourth order
in the step (no stiffness where the velocity peaks, since no time stepping
is involved, and a weight 1/kin that varies on the scale of the potential,
not of the nodes).  For a constant potential the rule is the closed form.
Points between grid rows are placed with the derivative the rows carry:
zeros of phi2 and of a phi1 + b phi2 on the cubic Hermite of the value
and its x derivative (``_zeros_of``), times on the cubic through four rows
(``_cubic_at``).  The quadrature reads setup, basis and (a, b) from the
ReducedAction it is given and runs over the basis's whole grid, so the
grid is the one x range.  A turning point ends the quadrature trace with
a ``halt: TurningPointInRange`` event, whether a grid point resolves it
(|v| under SLOW_ZONE_FRAC * c) or 1/v changes sign between two grid
points, so every quadrature trace has strictly monotone t and x.  The
classical reference of a tabulated or flat potential takes the same
end-corrected trapezoid (``_end_corrected_steps``), of 1/v in x.  An
evanescent closed form ends at its analytic divergence time t*, with a
``halt: DivergenceReached`` event when that drops rows.  Both closed forms
are evaluated one block of samples at a time into their output columns.

Every emitted sample carries the conjugate momentum so validators can test
the closure xdot * P = sigma * [E - V - (m0c2)^2/(E-V)] sample by sample.
A trajectory file holds ``window_rows`` of the trace: computed rows only,
never resampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import ReducedAction
from .constants import BLOCK
from .errors import BasisGapError, EnergyEqualsPotential, RegimeError, TooFewSamples
from .kleingordon import uniform_step
from .model import (
    ConstantPotential,
    HiddenParams,
    LinearPotential,
    PhysicalSetup,
    Potential,
    REGIME_TEXT,
    Regime,
    constant_regime,
    kinetic_term,
    regime_tags,
)
from .output import write_csv

# A quadrature trace ends where |v| falls under this fraction of c: a
# turning point on (or within rounding of) a grid point.
SLOW_ZONE_FRAC = 1e-6


def window_bounds(t, t_min: float, t_max: float):
    """(lo, hi) such that rows lo .. hi - 1 of the ascending t are the ones
    with t_min <= t <= t_max: the window of a trajectory file."""
    return (int(np.searchsorted(t, t_min, side="left")),
            int(np.searchsorted(t, t_max, side="right")))


@dataclass(eq=False)  # equality is identity: the fields are arrays
class Trajectory:
    """Ordered (t, x) samples with branch index, regime tags and metadata.

    t in seconds, x in fm, momentum in MeV/c (signed).  ``regime`` holds one
    uint8 code into ``model.REGIMES`` per sample.  ``meta`` carries the
    producing ``setup``, ``potential`` and ``params`` and the ``events``
    (divergence, halt, end of a short trace).
    """

    t: np.ndarray
    x: np.ndarray
    branch: np.ndarray
    regime: np.ndarray
    momentum: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if getattr(self.regime, "dtype", None) != np.uint8 or self.regime.shape != self.t.shape:
            raise TypeError("regime must be one uint8 code into model.REGIMES per sample")
        # block by block, so the check makes no array of the trace's length
        steps = self.t.size - 1
        for lo in range(0, steps, BLOCK):
            hi = min(lo + BLOCK, steps)
            if not np.all(self.t[lo + 1:hi + 1] > self.t[lo:hi]):
                raise ValueError("sample times must be strictly increasing")

    @property
    def setup(self) -> PhysicalSetup:
        return self.meta["setup"]

    @property
    def potential(self) -> Potential:
        return self.meta["potential"]

    def window_rows(self, t_min: float, t_max: float, samples: int):
        """At most ``samples`` rows with t_min <= t <= t_max, as a row index.

        Of the n rows inside the window this keeps every k-th from the first,
        k = ceil((n - 1) / (samples - 1)), and the last; when the n rows fit
        (k = 1) that is all of them.  Returns a slice when the stride ends on
        the last row (a column indexed by it is a view, not a copy), else an
        index array.  Raises TooFewSamples when fewer than two rows lie
        inside.
        """
        lo, hi = window_bounds(self.t, t_min, t_max)
        if hi - lo < 2:
            raise TooFewSamples(
                f"{max(hi - lo, 0)} of {self.t.size} trace rows lie inside "
                f"[{t_min!r}, {t_max!r}] s; a trajectory file needs 2"
            )
        k = -(-(hi - 1 - lo) // (samples - 1))
        if (hi - 1 - lo) % k == 0:
            return slice(lo, hi, k)
        return np.append(np.arange(lo, hi - 1, k), hi - 1)

    def to_csv(self, path, header=(), rows=slice(None)):
        """Write the ``rows`` (a slice or an index array) of the trace as CSV, then one
        ``key: value`` line per ``meta["events"]`` entry that is not None (floats %.16e).
        The regime column is the rows' uint8 codes, written as their names in
        ``model.REGIME_TEXT``."""
        footer = [f"{k}: {v:.16e}" if isinstance(v, float) else f"{k}: {v}"
                  for k, v in self.meta.get("events", {}).items() if v is not None]
        write_csv(
            path,
            header,
            [
                ("t_s", self.t[rows]),
                ("x_fm", self.x[rows]),
                ("branch_n", self.branch[rows]),
                ("regime", self.regime[rows], REGIME_TEXT),
                ("P_MeV_per_c", self.momentum[rows]),
            ],
            footer_comments=footer,
        )


def _reduce_phase(theta: np.ndarray):
    """Split theta into branch index n and residual in [-pi/2, pi/2).

    The pairing is made consistent by construction (residual recomputed from
    n), so the tangent of the residual and the branch term can never
    disagree, even for samples within rounding of a pole.
    """
    n = np.floor(theta / np.pi + 0.5)
    res = theta - n * np.pi
    low = res < -np.pi / 2
    n = np.where(low, n - 1.0, n)
    res = np.where(low, res + np.pi, res)
    high = res >= np.pi / 2
    n = np.where(high, n + 1.0, n)
    res = np.where(high, res - np.pi, res)
    return n, res


def _constant_oscillatory_fields(setup: PhysicalSetup, u0: float):
    regime, ev, disc = constant_regime(setup, u0)
    if regime is not Regime.OSCILLATORY:
        raise RegimeError("oscillatory trace requested with evanescent parameters")
    k = np.sqrt(disc) / setup.hbar_c          # [1/fm]
    omega = disc / (setup.hbar * ev)          # [1/s], sign follows E-U0
    return k, omega


def node_period(setup: PhysicalSetup, u0: float) -> float:
    """Time between adjacent nodes |pi hbar (E-U0) / ((E-U0)^2 - m2)| [s]."""
    _, omega = _constant_oscillatory_fields(setup, u0)
    return float(np.pi / abs(omega))


def node_spacing(setup: PhysicalSetup, u0: float) -> float:
    """Distance between adjacent nodes pi hbar c / sqrt((E-U0)^2 - m2) [fm]."""
    k, _ = _constant_oscillatory_fields(setup, u0)
    return float(np.pi / k)


def trace_constant_oscillatory(
    setup: PhysicalSetup,
    u0: float,
    hp: HiddenParams,
    x0: float,
    t_range,
    n_samples: int = 4096,
) -> Trajectory:
    """Closed-form staircase trajectory for a constant potential.

    ``x0`` is the additive constant of the closed form (the basis origin
    shared by a trajectory family; node positions are x0 + (n + 1/2) pi/k).
    x(0) = x0 + arctan(-b/a)/k, which is x0 exactly when b = 0.

    The closed form is evaluated ``constants.BLOCK`` samples at a time into
    the x, branch and momentum columns, so its temporaries do not grow with
    ``n_samples``; every value is elementwise, the same as in one pass.
    """
    k, omega = _constant_oscillatory_fields(setup, u0)
    a, b = hp.a, hp.b
    sigma = setup.direction

    t = np.linspace(t_range[0], t_range[1], n_samples)
    x, momentum = np.empty(t.shape), np.empty(t.shape)
    branch, tags = np.empty(t.shape, dtype=int), np.zeros(t.shape, np.uint8)
    for lo in range(0, t.size, BLOCK):
        rows = slice(lo, lo + BLOCK)
        n_branch, theta_res = _reduce_phase(omega * (sigma * t[rows]))
        with np.errstate(over="ignore", invalid="ignore"):
            u = (np.tan(theta_res) - b) / a
        phase = np.arctan(u) + np.sign(a) * np.pi * n_branch
        x[rows] = phase / k + x0
        branch[rows] = n_branch
        # direction only mirrors x(t); samples stay ascending in t
        d = np.cos(phase) ** 2 + (a * np.sin(phase) + b * np.cos(phase)) ** 2
        momentum[rows] = setup.hbar_c * a * k / d       # [MeV/c]

    return Trajectory(
        t=t,
        x=x,
        branch=branch,
        regime=tags,
        momentum=momentum,
        meta={
            "setup": setup,
            "potential": ConstantPotential(u0),
            "params": hp,
            "events": {},
        },
    )


def evanescent_divergence_times(
    setup: PhysicalSetup, u0: float, hp: HiddenParams, t_min: float = 0.0
):
    """First singular time of the evanescent closed form after t_min.

    The trace runs on theta = rate * t, rate = sigma * omega_e with sigma
    the direction sign and omega_e = (m2 - (E-U0)^2) / (hbar (E-U0)).  Two
    families of theta0 + n pi: the tangent pole, theta0 = pi/2, sends x to
    +infinity ("tan_singularity"); the log argument's zero, theta0 =
    arctan(-b), sends x to -infinity ("log_zero").  With q = (t_min rate -
    theta0) / pi, the first n after t_min is floor(q) + 1 when rate > 0 and
    ceil(q) - 1 when rate < 0.  Returns ((t, kind), prose_value), (t, kind)
    the earlier family's time; prose_value, for comparison only, is the
    (2n+1) pi hbar (E-U0) / (4 ((E-U0)^2 - m2)) value quoted in prose in the
    source literature, which does not match the closed form (factor 2 and
    sign).  E = U0 and a turning point raise (``model.constant_regime``).
    """
    _, ev, disc = constant_regime(setup, u0)
    rate = -disc / (setup.hbar * ev) * setup.direction
    first = []
    for theta0, kind in ((np.pi / 2, "tan_singularity"), (np.arctan(-hp.b), "log_zero")):
        q = (t_min * rate - theta0) / np.pi
        n = np.floor(q) + 1 if rate > 0 else np.ceil(q) - 1
        first.append(((theta0 + n * np.pi) / rate, kind))
    prose_value = abs(np.pi * setup.hbar * ev / (4.0 * disc))
    return min(first), prose_value


def trace_constant_evanescent(
    setup: PhysicalSetup,
    u0: float,
    hp: HiddenParams,
    x0: float,
    t_range,
    n_samples: int = 4096,
) -> Trajectory:
    """Closed-form trajectory in the classically forbidden constant-potential case.

    x(t) = (hbar c / 2 sqrt(m2 - (E-U0)^2)) ln|(tan(omega_e t) + b)/a| + x0,
    omega_e = (m2 - (E-U0)^2)/(hbar (E-U0)).  The particle covers an infinite
    distance in finite time, at t* = ``evanescent_divergence_times`` after
    t_range[0].  Of the ``n_samples`` times on ``t_range`` the trace keeps
    those with t < t* whose x is finite: the rows up to the pole or log zero
    at t*, less a first row at a log zero (b = 0 at t = 0).  When that drops
    a row the events hold ``halt: DivergenceReached``; they always hold t*
    (``divergence_time_s``), its kind and the prose value.  A trace that
    keeps no row raises TooFewSamples.  Like the oscillatory form it is
    evaluated ``constants.BLOCK`` samples at a time into its columns; each
    block's kept rows move down over the rows dropped before it, and the
    columns are the first rows of those arrays.
    """
    regime, ev, disc = constant_regime(setup, u0)
    if regime is not Regime.EVANESCENT:
        raise RegimeError("evanescent trace requested with oscillatory parameters")
    m_gap = -disc

    # [MeV], negative for 0 < E-U0 < m0c2
    kin = kinetic_term(setup, ConstantPotential(u0), x0)
    kappa2 = np.sqrt(m_gap)                   # sqrt(m2 - (E-U0)^2) [MeV]
    scale = setup.hbar_c / (2.0 * kappa2)     # [fm]
    omega_e = m_gap / (setup.hbar * ev)       # [1/s]
    sigma = setup.direction

    (t_star, kind), prose_value = evanescent_divergence_times(setup, u0, hp, t_min=t_range[0])
    t = np.linspace(t_range[0], t_range[1], n_samples)
    x, momentum = np.empty(t.shape), np.empty(t.shape)
    branch, tags = np.zeros(t.shape, dtype=int), np.ones(t.shape, np.uint8)
    kept = 0
    for lo in range(0, t.size, BLOCK):
        tb = t[lo:lo + BLOCK]
        _, theta_res = _reduce_phase(omega_e * (sigma * tb))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tan_arg = np.tan(theta_res)
            log_arg = (tan_arg + hp.b) / hp.a
            xb = scale * np.log(np.abs(log_arg)) + x0
            # analytic velocity -> momentum through the closure identity
            dxdt = scale * omega_e * sigma * (1.0 + tan_arg**2) / (tan_arg + hp.b)
            pb = sigma * kin * setup.c_fm_s / dxdt   # [MeV/c]
        # the block's rows before t* with a finite x, moved down over the
        # rows dropped so far (the indexed copies are made before the writes)
        keep = tb < t_star
        keep &= np.isfinite(xb)
        end = kept + int(np.count_nonzero(keep))
        t[kept:end], x[kept:end], momentum[kept:end] = tb[keep], xb[keep], pb[keep]
        kept = end

    events = {}
    if kept < t.size:
        if not kept:
            raise TooFewSamples(f"no sample of [{t_range[0]!r}, {t_range[1]!r}] s lies "
                                f"before the divergence at {float(t_star)!r} s")
        t, x, branch, tags, momentum = (t[:kept], x[:kept], branch[:kept], tags[:kept],
                                        momentum[:kept])
        events["halt"] = "DivergenceReached"
    events["divergence_time_s"] = float(t_star)
    events["divergence_kind"] = kind
    events["prose_divergence_time_s"] = float(prose_value)

    return Trajectory(
        t=t,
        x=x,
        branch=branch,
        regime=tags,
        momentum=momentum,
        meta={
            "setup": setup,
            "potential": ConstantPotential(u0),
            "params": hp,
            "events": events,
        },
    )


def _zeros_of(x: np.ndarray, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Sign-change zeros of ``y`` on the grid ``x``, placed on the cubic Hermite
    interpolant of (y, dy) over their step, ``dy`` the x derivative of y.

    A step changes sign when one end is below 0 and the other above it; an
    exact zero (of either sign) or a NaN at an end is no sign change.  Each
    zero starts from the secant's and takes three Newton steps on the cubic
    in the step's unit variable s, kept in [0, 1]: the linear start is off
    by O(h^2) and each step squares the error, so the cubic's own O(h^4)
    error is what remains.
    """
    below, above = y < 0, y > 0
    change = below[:-1] & above[1:]
    change |= above[:-1] & below[1:]
    idx = np.flatnonzero(change)
    h = x[idx + 1] - x[idx]
    y0, y1 = y[idx], y[idx + 1]
    m0, m1 = dy[idx] * h, dy[idx + 1] * h
    # y0 + m0 s + c2 s^2 + c3 s^3 on s in [0, 1]
    c2 = 3.0 * (y1 - y0) - 2.0 * m0 - m1
    c3 = 2.0 * (y0 - y1) + m0 + m1
    s = y0 / (y0 - y1)
    for _ in range(3):
        s -= (y0 + s * (m0 + s * (c2 + s * c3))) / (m0 + s * (2.0 * c2 + s * (3.0 * c3)))
        np.clip(s, 0.0, 1.0, out=s)
    return x[idx] + s * h


def _zero_near(grid: np.ndarray, values: np.ndarray, derivs: np.ndarray, x_target: float,
               what: str) -> float:
    """Position of the sign-change zero of ``values`` (x derivative ``derivs``)
    nearest x_target, by ``_zeros_of``."""
    xz = _zeros_of(grid, values, derivs)
    if xz.size == 0:
        raise BasisGapError(f"no zero of {what} inside the basis grid")
    return float(xz[np.argmin(np.abs(xz - x_target))])


def _cubic_at(x: np.ndarray, y: np.ndarray, xq):
    """y at each xq from the cubic through the four rows of the ascending
    ``x`` around it (all rows when there are fewer), NaN outside
    [x[0], x[-1]].

    The rows are the two on either side of xq, shifted inward at the ends.
    The Lagrange weights are products of ratios, so at a row's own x they
    are exactly 1 and 0 and the value is that row's y.
    """
    xq = np.asarray(xq, dtype=float)
    k = min(x.size, 4)
    first = np.clip(np.searchsorted(x, xq) - 2, 0, x.size - k)
    rows = first[..., None] + np.arange(k)
    xs, ys = x[rows], y[rows]
    out = np.zeros(xq.shape)
    for j in range(k):
        weight = np.ones(xq.shape)
        for m in range(k):
            if m != j:
                weight *= (xq - xs[..., m]) / (xs[..., j] - xs[..., m])
        out += weight * ys[..., j]
    out[(xq < x[0]) | (xq > x[-1])] = np.nan
    return out


def _end_corrected_steps(d, f, fdot) -> np.ndarray:
    """Per-step integrals d (f_i + f_i+1) / 2 - d^2 / 12 (fdot_i+1 - fdot_i)
    of the trapezoid with its Euler-Maclaurin end correction (Davis and
    Rabinowitz 1984): fourth order in the step d (one value, or one per
    step), exact for a cubic f.  ``fdot`` is df/d(variable of d) at each
    sample."""
    corr = np.subtract(fdot[1:], fdot[:-1])
    corr *= np.square(d) / 12.0
    out = np.add(f[:-1], f[1:])
    out *= d
    out *= 0.5
    out -= corr
    return out


def trace_quadrature(
    action: ReducedAction,
    pot: Potential,
    x0: float,
    sync: str,
) -> Trajectory:
    """Trajectory t(x) by the phase rule over the whole basis grid.

    Setup, basis and (a, b) are those of ``action``, the direction sign
    that of ``action.setup``, and the x range that of ``action.basis``: the
    trace starts at the first grid point and runs to the last one or to a
    turning point.  ``sync`` fixes the time origin: "exact" puts
    t = 0 at the grid point nearest x0.  "psi_zero" puts t = 0 where
    a phi1 + b phi2 vanishes nearest x0 (the convention of the
    constant-potential closed form, whose t = 0 has a zero reduced action).
    "phi2_zero" puts t = 0 at the zero of phi2 nearest x0, a point all
    members of the (a, b) family cross at the same phase, so every synced
    trajectory passes through it at t = 0.  Either zero convention makes a
    family share its nodes (exactly for a constant potential, to within a
    slow drift otherwise).  The zero is placed by ``_zeros_of`` and its
    time by ``_cubic_at``.  An x0 outside the grid, or a grid of fewer than
    3 points, raises BasisGapError.

    The phase rule: the law of motion gives dt = (hbar / sigma) g dtheta,
    with theta = S0 / hbar and g = 1 / kin, kin = E - V - m0c2^2 / (E - V).
    g varies on the scale of the potential, while 1/v peaks at every node.
    Each step's dtheta is the action's ``phase_steps``, the atan2 of the
    step's two (phi2, a phi1 + b phi2) vectors, whose running sum is S0 /
    hbar.  A difference of neighbouring ``s0_grid`` rows would give the same
    step with the round-off of the sum, which grows with S0.  Each step adds
    the trapezoid in theta with its Euler-Maclaurin end correction (Davis
    and Rabinowitz 1984),
    (hbar / sigma) [dtheta (g_i + g_i+1) / 2 - dtheta^2 / 12 (gdot_i+1 - gdot_i)],
    gdot = dg/dtheta = g' hbar c / Pc, g' = V' (1 + m0c2^2 / (E - V)^2) / kin^2
    in closed form: fourth order in the step.  For a constant potential
    gdot = 0 and the rule is the closed form t = hbar dtheta / (sigma kin).

    A turning point ends the trace, with ``halt: TurningPointInRange`` in
    the events: the trace stops before the first grid point where |v| falls
    under SLOW_ZONE_FRAC * c, and before the first step whose dt is zero,
    not finite or has the opposite sign to the first step, or over which
    kin changes sign (a turning point between grid points, where 1/v
    changes sign).  So t(x) is strictly monotone, and the samples come out
    in grid order or reversed, as views of the grid and of the action's
    arrays, with t ascending and x strictly monotone.  E = V on the rows
    the trace keeps, or between the last of them and the first row it
    drops, raises EnergyEqualsPotential: the law of motion divides by
    E - V, and 1/v changes sign there.  So a grid that reaches past a
    turning point halts there whether or not a grid point falls in the
    slow zone.

    The per-step arrays share buffers, the time shift is subtracted in
    place, and every value comes from the same operations as in an
    evaluation into fresh arrays, which the tests keep as the oracle, so
    the five columns are bit-identical to it.
    """
    setup, basis, hp = action.setup, action.basis, action.params
    grid = basis.grid
    if not (grid[0] <= x0 <= grid[-1]):
        raise BasisGapError("x0 outside the basis grid")
    if grid.size < 3:
        raise BasisGapError("fewer than 3 points in the basis grid")
    if uniform_step(grid) is None:
        raise ValueError("quadrature requires a uniform basis grid")

    # model.kinetic_term inline: its E = V check would look at every row of
    # the grid, where the one below looks at the rows the trace keeps
    pc = action.momentum_grid
    ev = setup.E - np.asarray(pot.v(grid), dtype=float)
    with np.errstate(divide="ignore"):                # E = V is checked below
        kin = np.divide(setup.rest_sq, ev)
    np.subtract(ev, kin, out=kin)                     # [MeV]

    # turning point on a grid point: the slow zone, |v| < SLOW_ZONE_FRAC c,
    # v = sigma c kin / Pc
    v = np.multiply(setup.direction * setup.c_fm_s, kin)
    v /= pc
    v_slow = SLOW_ZONE_FRAC * setup.c_fm_s
    slow = v < v_slow
    slow &= v > -v_slow
    del v
    cut = int(np.argmax(slow)) if slow.any() else grid.size
    del slow
    if cut < 3:
        raise RegimeError("entire grid is inside the slow/turning zone")
    xs, ev, kin, pc = grid[:cut], ev[:cut], kin[:cut], pc[:cut]
    regime = regime_tags(setup, ev)

    with np.errstate(divide="ignore", invalid="ignore"):  # E = V rows: checked below
        # gdot = dg/dtheta = V' (1 + m0c2^2 / (E - V)^2) / kin^2 * hbar c / Pc,
        # in the buffer of E - V
        gdot = np.divide(setup.rest_sq, np.square(ev, out=ev), out=ev)
        del ev
        gdot += 1.0
        gdot *= np.asarray(pot.dv(xs), dtype=float)
        gdot /= np.square(kin)
        gdot *= setup.hbar_c
        gdot /= pc
        g = np.divide(1.0, kin, out=kin)
        del kin
        dth = action.phase_steps(cut)
        dt = _end_corrected_steps(dth, g, gdot)
        dt *= setup.direction * setup.hbar
        del dth, gdot
    # turning point between grid points: kin, and so dt, changes sign
    turned = ~(dt * np.sign(dt[0]) > 0)
    turned |= ~(g[:-1] * g[1:] > 0)
    del g
    cut = int(np.argmax(turned)) + 1 if turned.any() else xs.size
    del turned
    # E = V on the kept rows or between the last of them and the first row
    # dropped: either cut can come from the sign change of E - V itself
    ev = setup.E - np.asarray(pot.v(grid[:cut + 1]), dtype=float)
    if not (ev.min() > 0.0 or ev.max() < 0.0):
        end = float(grid[ev.size - 1])
        raise EnergyEqualsPotential(
            f"E - V vanishes or changes sign inside [{float(xs[0])!r}, {end!r}] fm"
        )
    if cut < 3:
        raise RegimeError("turning point within two grid steps of the grid start")
    xs, regime = xs[:cut], regime[:cut]
    tt = np.empty(cut)
    tt[0] = 0.0
    np.cumsum(dt[:cut - 1], out=tt[1:])
    del dt

    # time origin
    if sync == "psi_zero":
        psi = hp.a * basis.phi1 + hp.b * basis.phi2
        dpsi = hp.a * basis.dphi1 + hp.b * basis.dphi2
        anchor = _zero_near(basis.grid, psi, dpsi, x0, "a*phi1 + b*phi2")
        del psi, dpsi
        anchor = min(max(anchor, xs[0]), xs[-1])
    elif sync == "phi2_zero":
        anchor = _zero_near(basis.grid, basis.phi2, basis.dphi2, x0, "phi2")
        anchor = min(max(anchor, xs[0]), xs[-1])
    elif sync == "exact":
        anchor = xs[int(np.argmin(np.abs(xs - x0)))]
    else:
        raise ValueError(f"unknown sync mode {sync!r}")
    tt -= _cubic_at(xs, tt, anchor)

    rows = slice(xs.size)
    order = slice(None) if tt[-1] > tt[0] else slice(None, None, -1)
    events = {"halt": "TurningPointInRange"} if xs.size < grid.size else {}

    return Trajectory(
        t=tt[order],
        x=xs[order],
        branch=action.branch_grid[rows][order],
        regime=regime[order],
        momentum=action.momentum_grid[rows][order],
        meta={
            "setup": setup,
            "potential": pot,
            "params": hp,
            "events": events,
        },
    )


def classical_trace(
    setup: PhysicalSetup,
    pot: Potential,
    x0: float,
    t_range=None,
    x_range=None,
    n_samples: int = 1024,
) -> Trajectory:
    """Classical relativistic reference trajectory (hbar plays no role).

    Constant potential: straight line sampled over t_range.  Linear
    potential of non-zero slope: closed-form decelerated arc sampled over
    x_range clipped at the turning point; a range wholly past it raises
    RegimeError.  Otherwise (tabulated, or slope 0): the end-corrected
    trapezoid of 1/v = (E - V) / (sigma c Pc) over x_range, stepping by
    ``uniform_step``, with d(1/v)/dx = sigma V' m0c2^2 / (c Pc^3) in closed
    form, and t = 0 at x0 by ``_cubic_at``; an x0 outside x_range raises
    BasisGapError.  The samples come out with t ascending.  The regime column
    is ``model.regime_tags`` of E - V at the sampled x, so a turning point
    that ends the arc is tagged as one.
    """
    sigma = setup.direction
    if isinstance(pot, ConstantPotential):
        if t_range is None:
            raise ValueError("t_range required for a constant potential")
        ev = setup.E - pot.u0
        disc = ev * ev - setup.rest_sq
        if disc <= 0 or ev <= 0:
            raise RegimeError("classical trace needs E - V > m0c2")
        vel = sigma * setup.c_fm_s * np.sqrt(disc) / ev
        t = np.linspace(t_range[0], t_range[1], n_samples)
        x = x0 + vel * t
        pc = np.full(t.shape, np.sqrt(disc))
    elif isinstance(pot, LinearPotential) and pot.slope != 0:
        if x_range is None:
            raise ValueError("x_range required for a linear potential")
        g = pot.slope
        x_turn = (setup.E - setup.m0c2) / g
        lo, hi = float(min(x_range)), float(max(x_range))
        if g > 0:
            hi = min(hi, x_turn)
        else:
            lo = max(lo, x_turn)
        if not lo < hi:
            raise RegimeError(f"x_range holds no span on the allowed side of the turning "
                              f"point at {x_turn!r} fm")
        x = np.linspace(lo, hi, n_samples)
        ev = setup.E - g * x
        pc = np.sqrt(np.maximum(ev * ev - setup.rest_sq, 0.0))
        ev0 = setup.E - g * x0
        disc0 = ev0 * ev0 - setup.rest_sq
        if disc0 <= 0 or ev0 <= 0:
            raise RegimeError("x0 is not in the classically allowed region")
        t = sigma * (np.sqrt(disc0) - pc) / (g * setup.c_fm_s)
        # Pc falls toward the turning point on either slope, so t rises with x
        # for sigma = +1 and falls for -1
        t, x, pc = t[::sigma], x[::sigma], pc[::sigma]
    else:
        if x_range is None or not min(x_range) < max(x_range) or n_samples < 2:
            raise ValueError("x_range with two distinct ends and n_samples >= 2 required "
                             "for a non-constant potential")
        x = np.linspace(float(min(x_range)), float(max(x_range)), n_samples)
        if not x[0] <= x0 <= x[-1]:
            raise BasisGapError(f"x0 = {float(x0)!r} fm outside x_range "
                                f"[{float(x[0])!r}, {float(x[-1])!r}] fm")
        ev = setup.E - np.asarray(pot.v(x), dtype=float)
        disc = ev * ev - setup.rest_sq
        if np.any(disc <= 0) or np.any(ev <= 0):
            raise RegimeError("classically forbidden point inside x_range")
        pc = np.sqrt(disc)
        # 1/v = (E - V) / (sigma c Pc), d(1/v)/dx = sigma V' m0c2^2 / (c Pc^3)
        cpc = sigma * setup.c_fm_s * pc
        dinv_v = np.asarray(pot.dv(x), dtype=float) * setup.rest_sq / (cpc * disc)
        t = np.concatenate(([0.0], np.cumsum(_end_corrected_steps(uniform_step(x), ev / cpc,
                                                                  dinv_v))))
        t -= _cubic_at(x, t, x0)
        # 1/v keeps the sign of sigma, so t(x) runs up for sigma = +1, down for -1
        t, x, pc = t[::sigma], x[::sigma], pc[::sigma]

    return Trajectory(
        t=t,
        x=x,
        branch=np.zeros(t.shape, dtype=int),
        regime=regime_tags(setup, setup.E - np.asarray(pot.v(x), dtype=float)),
        momentum=pc,
        meta={
            "setup": setup,
            "potential": pot,
            "params": None,
            "events": {},
        },
    )
