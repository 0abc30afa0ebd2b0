"""Trajectories x(t): closed forms for constant potentials, quadrature otherwise.

The trajectory law integrated here is

    dx/dt = sigma * (1 / hbar a W) * [E - V - (m0c2)^2/(E-V)] * [phi2^2 + (a phi1 + b phi2)^2]

with sigma = +-1 the direction sign.  For a constant potential the time
equation inverts in closed form to an arctan-of-tan staircase whose branch
constant advances by pi at every node crossing; the node pattern
(t_n, x_n) is shared by the whole (a, b) family.  For general potentials
the right side depends on x only, so t(x) is accumulated by composite
Simpson quadrature on the basis grid (no stiffness where the velocity
peaks, since no time stepping is involved).  The quadrature reads setup,
basis and (a, b) from the ReducedAction it is given.  A turning point ends
it with a ``TurningPointInRange`` halt event, whether a grid point resolves
it (|v| under SLOW_ZONE_FRAC * c) or 1/v changes sign between two grid
points, so every quadrature trace has strictly monotone t and x.

Every emitted sample carries the conjugate momentum so validators can test
the closure xdot * P = sigma * [E - V - (m0c2)^2/(E-V)] sample by sample.
A trajectory file holds ``window_rows`` of the trace: computed rows only,
never resampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import ReducedAction
from .errors import (
    BasisGapError,
    EnergyEqualsPotential,
    RegimeError,
    TooFewSamples,
    TurningPointInRange,
    TurningPointSingular,
)
from .kleingordon import uniform_step
from .model import (
    ConstantPotential,
    HiddenParams,
    LinearPotential,
    PhysicalSetup,
    Potential,
    REGIME_REL_TOL,
    kinetic_term,
)
from .output import write_csv

# A quadrature trace ends where |v| falls under this fraction of c: a
# turning point on (or within rounding of) a grid point.
SLOW_ZONE_FRAC = 1e-6


@dataclass
class Trajectory:
    """Ordered (t, x) samples with branch index, regime tags and metadata.

    t in seconds, x in fm, momentum in MeV/c (signed).  ``meta`` carries the
    producing setup/potential/params and any events (divergence, truncation).
    """

    t: np.ndarray
    x: np.ndarray
    branch: np.ndarray
    regime: np.ndarray
    momentum: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.t.size >= 2 and not np.all(np.diff(self.t) > 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def setup(self) -> PhysicalSetup:
        return self.meta["setup"]

    @property
    def potential(self) -> Potential:
        return self.meta["potential"]

    def velocity_centered(self):
        """Centered-difference xdot on interior samples [fm/s]."""
        dt = self.t[2:] - self.t[:-2]
        return (self.x[2:] - self.x[:-2]) / dt

    def window_rows(self, t_min: float, t_max: float, samples: int):
        """At most ``samples`` rows with t_min <= t <= t_max, as a row index.

        Of the n rows inside the window this keeps every k-th from the first,
        k = ceil((n - 1) / (samples - 1)), and the last; when the n rows fit
        (k = 1) that is all of them.  Returns a slice when the stride ends on
        the last row (a column indexed by it is a view, not a copy), else an
        index array.  Raises TooFewSamples when fewer than two rows lie
        inside.
        """
        lo = int(np.searchsorted(self.t, t_min, side="left"))
        hi = int(np.searchsorted(self.t, t_max, side="right"))
        if hi - lo < 2:
            raise TooFewSamples(
                f"{max(hi - lo, 0)} of {self.t.size} trace rows lie inside "
                f"[{t_min!r}, {t_max!r}] s; a trajectory file needs 2"
            )
        k = -(-(hi - 1 - lo) // (samples - 1))
        if (hi - 1 - lo) % k == 0:
            return slice(lo, hi, k)
        return np.append(np.arange(lo, hi - 1, k), hi - 1)

    def to_csv(self, path, header=(), footer=(), rows=slice(None)):
        """Write the ``rows`` (a slice or an index array) of the trace as CSV."""
        write_csv(
            path,
            header,
            [
                ("t_s", self.t[rows]),
                ("x_fm", self.x[rows]),
                ("branch_n", self.branch[rows]),
                ("regime", self.regime[rows]),
                ("P_MeV_per_c", self.momentum[rows]),
            ],
            footer_comments=footer,
        )


def cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of samples f on a uniform grid, Simpson weights.

    Even indices see plain composite Simpson; odd indices add the half-pair
    rule h/12 (5 f0 + 8 f1 - f2), so the whole table is fourth order.
    """
    n = f.size
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * h * (f[0] + f[1])
        return out

    npairs = (n - 1) // 2
    f0 = f[0 : 2 * npairs : 2]
    f1 = f[1 : 2 * npairs : 2]
    f2 = f[2 : 2 * npairs + 1 : 2]
    pair_inc = h / 3.0 * (f0 + 4.0 * f1 + f2)
    out[0 : 2 * npairs + 1 : 2] = np.concatenate(([0.0], np.cumsum(pair_inc)))
    out[1 : 2 * npairs : 2] = out[0 : 2 * npairs : 2] + h / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    if n % 2 == 0:
        # trailing odd interval: right half of the last full parabola
        out[n - 1] = out[n - 2] + h / 12.0 * (
            -f[n - 3] + 8.0 * f[n - 2] + 5.0 * f[n - 1]
        )
    return out


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
    ev = setup.E - u0
    disc = ev * ev - setup.rest_sq
    tol = REGIME_REL_TOL * setup.rest_sq
    if abs(disc) <= tol:
        raise TurningPointSingular("(E-U0)^2 equals the rest-energy square")
    if disc < 0:
        raise RegimeError("oscillatory trace requested with evanescent parameters")
    k = np.sqrt(disc) / setup.hbar_c          # [1/fm]
    omega = disc / (setup.hbar * ev)          # [1/s], sign follows E-U0
    kin = disc / ev                           # [MeV]
    return disc, k, omega, kin


def node_period(setup: PhysicalSetup, u0: float) -> float:
    """Time between adjacent nodes |pi hbar (E-U0) / ((E-U0)^2 - m2)| [s]."""
    _, _, omega, _ = _constant_oscillatory_fields(setup, u0)
    return float(np.pi / abs(omega))


def node_spacing(setup: PhysicalSetup, u0: float) -> float:
    """Distance between adjacent nodes pi hbar c / sqrt((E-U0)^2 - m2) [fm]."""
    _, k, _, _ = _constant_oscillatory_fields(setup, u0)
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
    """
    disc, k, omega, kin = _constant_oscillatory_fields(setup, u0)
    a, b = hp.a, hp.b
    sigma = setup.direction

    t = np.linspace(t_range[0], t_range[1], n_samples)
    tau = sigma * t
    theta = omega * tau
    n_branch, theta_res = _reduce_phase(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        u = (np.tan(theta_res) - b) / a
    phase = np.arctan(u) + np.sign(a) * np.pi * n_branch
    x = phase / k + x0
    n_branch = n_branch.astype(int)

    # direction only mirrors x(t); samples stay ascending in t
    d = np.cos(phase) ** 2 + (a * np.sin(phase) + b * np.cos(phase)) ** 2
    momentum = setup.hbar_c * a * k / d       # [MeV/c]

    return Trajectory(
        t=t,
        x=x,
        branch=n_branch,
        regime=np.full(t.shape, "oscillatory"),
        momentum=momentum,
        meta={
            "setup": setup,
            "potential": ConstantPotential(u0),
            "params": hp,
            "x0": x0,
            "method": "closed-form",
            "node_period_s": node_period(setup, u0),
            "node_spacing_fm": node_spacing(setup, u0),
            "events": {},
        },
    )


def evanescent_divergence_times(
    setup: PhysicalSetup, u0: float, hp: HiddenParams, t_min: float = 0.0, count: int = 4
):
    """First few singular times of the evanescent closed form after t_min.

    Two families: the tangent argument reaching pi/2 (mod pi) sends x to
    +infinity; the log argument crossing zero sends x to -infinity.  Also
    returns, for comparison only, the (2n+1) pi hbar (E-U0) / (4 ((E-U0)^2 - m2))
    value quoted in prose in the source literature, which does not match the
    closed form (factor 2 and sign).
    """
    ev = setup.E - u0
    m_gap = setup.rest_sq - ev * ev
    omega_e = m_gap / (setup.hbar * ev)
    events = []
    n = 0
    while len(events) < 2 * count + 4 and n < 10 * count + 20:
        t_tan = (np.pi / 2 + n * np.pi) / omega_e
        if t_tan > t_min:
            events.append((t_tan, "tan_singularity"))
        t_log = (np.arctan(-hp.b) + n * np.pi) / omega_e
        if t_log > t_min:
            events.append((t_log, "log_zero"))
        n += 1
    events.sort()
    prose_value = abs(np.pi * setup.hbar * ev / (4.0 * (ev * ev - setup.rest_sq)))
    return events[: 2 * count], prose_value


def trace_constant_evanescent(
    setup: PhysicalSetup,
    u0: float,
    hp: HiddenParams,
    x0: float,
    t_range,
    n_samples: int = 4096,
    window_fm: float = None,
) -> Trajectory:
    """Closed-form trajectory in the classically forbidden constant-potential case.

    x(t) = (hbar c / 2 sqrt(m2 - (E-U0)^2)) ln|(tan(omega_e t) + b)/a| + x0,
    omega_e = (m2 - (E-U0)^2)/(hbar (E-U0)).  The particle covers an infinite
    distance in finite time: sampling stops once |x - x0| exceeds the window
    and the analytic divergence time is reported in the metadata.
    """
    ev = setup.E - u0
    m_gap = setup.rest_sq - ev * ev
    tol = REGIME_REL_TOL * setup.rest_sq
    if abs(m_gap) <= tol:
        raise TurningPointSingular("(E-U0)^2 equals the rest-energy square")
    if m_gap < 0:
        raise RegimeError("evanescent trace requested with oscillatory parameters")

    # [MeV], negative for 0 < E-U0 < m0c2; E = U0 raises EnergyEqualsPotential
    kin = kinetic_term(setup, ConstantPotential(u0), x0)
    kappa2 = np.sqrt(m_gap)                   # sqrt(m2 - (E-U0)^2) [MeV]
    scale = setup.hbar_c / (2.0 * kappa2)     # [fm]
    omega_e = m_gap / (setup.hbar * ev)       # [1/s]
    sigma = setup.direction

    if window_fm is None:
        window_fm = 20.0 * abs(scale)

    t = np.linspace(t_range[0], t_range[1], n_samples)
    tau = sigma * t
    _, theta_res = _reduce_phase(omega_e * tau)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tan_arg = np.tan(theta_res)
        log_arg = (tan_arg + hp.b) / hp.a
        x = scale * np.log(np.abs(log_arg)) + x0
        # analytic velocity -> momentum through the closure identity
        dxdt = scale * omega_e * sigma * (1.0 + tan_arg**2) / (tan_arg + hp.b)
        momentum = sigma * kin * setup.c_fm_s / dxdt   # [MeV/c]

    inside = np.abs(x - x0) <= window_fm
    inside &= np.isfinite(x)
    events = {}
    if not bool(np.all(inside)):
        first_out = int(np.argmin(inside))  # first False
        if first_out == 0:
            first_out = 1
        t, x, momentum = t[:first_out], x[:first_out], momentum[:first_out]
        events["halt"] = "DivergenceReached"

    sing, prose_value = evanescent_divergence_times(setup, u0, hp, t_min=min(0.0, t_range[0]))
    events["divergence_time_s"] = float(sing[0][0]) if sing else None
    events["divergence_kind"] = sing[0][1] if sing else None
    events["prose_divergence_time_s"] = float(prose_value)

    return Trajectory(
        t=t,
        x=x,
        branch=np.zeros(t.shape, dtype=int),
        regime=np.full(t.shape, "evanescent"),
        momentum=momentum,
        meta={
            "setup": setup,
            "potential": ConstantPotential(u0),
            "params": hp,
            "x0": x0,
            "method": "closed-form-evanescent",
            "window_fm": window_fm,
            "events": events,
        },
    )


def _zeros_of(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sign-change zeros of ``y`` on the grid ``x``, linearly interpolated."""
    s = np.sign(y)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    return x[idx] - y[idx] * (x[idx + 1] - x[idx]) / (y[idx + 1] - y[idx])


def _zero_near(grid: np.ndarray, values: np.ndarray, x_target: float, what: str) -> float:
    """Position of the sign-change zero of ``values`` nearest x_target."""
    xz = _zeros_of(grid, values)
    if xz.size == 0:
        raise BasisGapError(f"no zero of {what} inside the basis grid")
    return float(xz[np.argmin(np.abs(xz - x_target))])


def trace_quadrature(
    action: ReducedAction,
    pot: Potential,
    x0: float,
    x_range,
    sync: str = "exact",
) -> Trajectory:
    """Trajectory t(x) by composite Simpson quadrature of 1/v on the basis grid.

    Setup, basis and (a, b) are those of ``action``, the direction sign
    that of ``action.setup``.  ``sync`` fixes the time origin: "exact" puts
    t = 0 at the grid point nearest x0.  "psi_zero" puts t = 0 where
    a phi1 + b phi2 vanishes nearest x0 (the convention of the
    constant-potential closed form, whose t = 0 has a zero reduced action).
    "phi2_zero" puts t = 0 at the zero of phi2 nearest x0, a point all
    members of the (a, b) family cross at the same phase, so every synced
    trajectory passes through it at t = 0.  Either zero convention makes a
    family share its nodes (exactly for a constant potential, to within a
    slow drift otherwise).

    A turning point ends the trace, with ``halt: TurningPointInRange`` in
    the events: the trace stops before the first grid point where |v| falls
    under SLOW_ZONE_FRAC * c, and, after the Simpson table, before the
    first step whose dt is zero or has the opposite sign to the first step
    (a turning point between grid points, where 1/v changes sign).  So t(x)
    is strictly monotone, and the samples come out in grid order or
    reversed, as views of the grid and of the action's arrays, with t
    ascending and x strictly monotone.  E = V on the rows the trace keeps,
    or between the last of them and the first row it drops, raises
    EnergyEqualsPotential: the law of motion divides by E - V, and 1/v
    changes sign there.  So a range that reaches past a turning point
    halts there whether or not a grid point falls in the slow zone.
    """
    setup, basis, hp = action.setup, action.basis, action.params
    lo, hi = float(min(x_range)), float(max(x_range))
    if not basis.covers(lo, hi):
        raise BasisGapError("basis grid does not cover the requested x range")
    if not (lo <= x0 <= hi):
        raise BasisGapError("x0 outside the requested x range")

    grid = basis.grid
    # the grid is strictly increasing, so the selected points are one slice
    sel = slice(
        int(np.searchsorted(grid, lo - 1e-12 * max(1.0, abs(lo)), side="left")),
        int(np.searchsorted(grid, hi + 1e-12 * max(1.0, abs(hi)), side="right")),
    )
    xs = grid[sel]
    if xs.size < 3:
        raise BasisGapError("fewer than 3 basis points inside the x range")
    if uniform_step(xs) is None:
        raise ValueError("quadrature requires a uniform basis grid")
    h = float(xs[1] - xs[0])

    # model.kinetic_term inline: its E = V check would look at every row of
    # the range, where the one below looks at the rows the trace keeps
    ev = setup.E - np.asarray(pot.v(xs), dtype=float)
    with np.errstate(divide="ignore"):                # E = V is checked below
        kin = ev - setup.rest_sq / ev                 # [MeV]
    pc = action.momentum_grid[sel]                    # [MeV/c]
    v = setup.direction * setup.c_fm_s * kin / pc     # [fm/s]

    # turning point on a grid point: the slow zone
    slow = np.abs(v) < SLOW_ZONE_FRAC * setup.c_fm_s
    cut = int(np.argmax(slow)) if slow.any() else xs.size
    if cut < 3:
        raise RegimeError("entire range is inside the slow/turning zone")
    xs, v = xs[:cut], v[:cut]

    # regime tags; a disc within the tolerance of zero, or NaN, is "turning"
    disc = ev[:cut] * ev[:cut] - setup.rest_sq
    tol = REGIME_REL_TOL * setup.rest_sq
    regime = np.full(xs.shape, "oscillatory")
    regime[disc < -tol] = "evanescent"
    regime[~(np.abs(disc) > tol)] = "turning"

    tt = cumulative_simpson(1.0 / v, h)
    # turning point between grid points: 1/v, and so dt, changes sign
    turned = ~(np.diff(tt) * np.sign(tt[1] - tt[0]) > 0)
    cut = int(np.argmax(turned)) + 1 if turned.any() else xs.size
    # E = V on the kept rows or between the last of them and the first row
    # dropped: either cut can come from the sign change of E - V itself
    ev = ev[:cut + 1]
    if not (ev.min() > 0.0 or ev.max() < 0.0):
        end = float(grid[sel.start + ev.size - 1])
        raise EnergyEqualsPotential(
            f"E - V vanishes or changes sign inside [{float(xs[0])!r}, {end!r}] fm"
        )
    if cut < 3:
        raise RegimeError("turning point within two grid steps of the range start")
    xs, regime, tt = xs[:cut], regime[:cut], tt[:cut]

    # time origin
    if sync == "psi_zero":
        psi = hp.a * basis.phi1 + hp.b * basis.phi2
        anchor = _zero_near(basis.grid, psi, x0, "a*phi1 + b*phi2")
        anchor = min(max(anchor, xs[0]), xs[-1])
    elif sync == "phi2_zero":
        anchor = _zero_near(basis.grid, basis.phi2, x0, "phi2")
        anchor = min(max(anchor, xs[0]), xs[-1])
    elif sync == "exact":
        anchor = xs[int(np.argmin(np.abs(xs - x0)))]
    else:
        raise ValueError(f"unknown sync mode {sync!r}")
    tt = tt - np.interp(anchor, xs, tt)

    rows = slice(sel.start, sel.start + xs.size)
    order = slice(None) if tt[-1] > tt[0] else slice(None, None, -1)
    halted = rows.stop < sel.stop
    events = {"halt": TurningPointInRange.__name__} if halted else {}

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
            "x0": x0,
            "anchor_x_fm": float(anchor),
            "method": "quadrature-simpson",
            "sync": sync,
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
    potential: closed-form decelerated arc sampled over x_range (stops at
    the turning point).  Tabulated: Simpson quadrature of 1/v over x_range.
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
    elif isinstance(pot, LinearPotential):
        if x_range is None:
            raise ValueError("x_range required for a linear potential")
        g = pot.slope
        x_turn = (setup.E - setup.m0c2) / g if g != 0 else np.inf
        lo, hi = float(min(x_range)), float(max(x_range))
        if g > 0:
            hi = min(hi, x_turn)
        elif g < 0:
            lo = max(lo, x_turn)
        x = np.linspace(lo, hi, n_samples)
        ev = setup.E - g * x
        disc = np.maximum(ev * ev - setup.rest_sq, 0.0)
        ev0 = setup.E - g * x0
        disc0 = ev0 * ev0 - setup.rest_sq
        if disc0 <= 0 or ev0 <= 0:
            raise RegimeError("x0 is not in the classically allowed region")
        t = sigma * (np.sqrt(disc0) - np.sqrt(disc)) / (g * setup.c_fm_s)
        pc = np.sqrt(np.maximum(disc, 0.0))
        order = np.argsort(t)
        t, x, pc = t[order], x[order], pc[order]
        keep = np.concatenate(([True], np.diff(t) > 0))
        t, x, pc = t[keep], x[keep], pc[keep]
    else:
        if x_range is None:
            raise ValueError("x_range required for a tabulated potential")
        x = np.linspace(float(min(x_range)), float(max(x_range)), n_samples)
        h = x[1] - x[0]
        ev = setup.E - np.asarray(pot.v(x), dtype=float)
        disc = ev * ev - setup.rest_sq
        if np.any(disc <= 0) or np.any(ev <= 0):
            raise RegimeError("classically forbidden point inside x_range")
        vel = sigma * setup.c_fm_s * np.sqrt(disc) / ev
        t = cumulative_simpson(1.0 / vel, h)
        t = t - np.interp(x0, x, t)
        pc = np.sqrt(disc)
        # 1/v keeps the sign of sigma, so t(x) runs up for sigma = +1, down for -1
        t, x, pc = t[::sigma], x[::sigma], pc[::sigma]

    return Trajectory(
        t=t,
        x=x,
        branch=np.zeros(t.shape, dtype=int),
        regime=np.full(t.shape, "oscillatory"),
        momentum=pc,
        meta={
            "setup": setup,
            "potential": pot,
            "params": None,
            "x0": x0,
            "method": "classical",
            "events": {},
        },
    )
