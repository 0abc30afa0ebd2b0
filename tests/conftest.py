import contextlib
import io
import math
from typing import NamedTuple

import numpy as np
import pytest

import rqtraj as rq
from rqtraj.cli import main


@pytest.fixture
def electron2():
    """Electron with E - U0 = 2 MeV above a vanishing constant potential."""
    return rq.PhysicalSetup(E=2.0, m0c2=0.511)


@pytest.fixture
def const_pot():
    return rq.ConstantPotential(0.0)


@pytest.fixture
def evanescent03():
    """Electron with E - U0 = 0.3 MeV < m0c2: classically forbidden."""
    return rq.PhysicalSetup(E=0.3, m0c2=0.511)


def oscillatory_wavenumber(setup, u0=0.0):
    """Independent oracle for k: direct formula evaluation."""
    ev = setup.E - u0
    return np.sqrt(ev * ev - setup.m0c2**2) / setup.hbar_c


def classical_momentum(setup):
    """Oracle for the classical relativistic momentum at V = 0: p = sqrt(disc)
    [MeV/c], disc = E^2 - (m0 c^2)^2."""
    return math.sqrt(setup.E * setup.E - setup.rest_sq)


def classical_speed(setup):
    """Oracle for |xdot| of the classical relativistic motion at V = 0:
    c sqrt(disc) / E [m/s]."""
    return setup.c * classical_momentum(setup) / setup.E


def s0_at(ra, x):
    """S0 of the action ``ra`` at x [MeV s], by the cubic Hermite of
    (S0, Pc / c) over the grid step that holds x: fourth order in the step,
    where linear interpolation of S0 is second order."""
    grid = ra.grid
    i = min(max(int(np.searchsorted(grid, x)) - 1, 0), grid.size - 2)
    h = grid[i + 1] - grid[i]
    s = (x - grid[i]) / h
    y0, y1 = ra.s0_grid[i], ra.s0_grid[i + 1]
    m0, m1 = ra.momentum_grid[i:i + 2] * (h / ra.setup.c_fm_s)   # dS0/ds [MeV s]
    return (y0 * (1 + 2 * s) * (1 - s) ** 2 + m0 * s * (1 - s) ** 2
            + y1 * s**2 * (3 - 2 * s) - m1 * s**2 * (1 - s))


@pytest.fixture
def const_basis(electron2):
    """Analytic basis over ~3.2 wavelengths at step 1/(100 k)."""
    k = oscillatory_wavenumber(electron2)
    h = 1.0 / (100 * k)
    n = int(round(3.2 * 2 * np.pi / k / h))
    return rq.solve_constant(electron2, 0.0, np.arange(n) * h)


def with_keys(cfg, **changes):
    """A new ``RunConfig`` holding ``cfg``'s keys with ``changes`` applied, not validated."""
    return type(cfg)(**{**vars(cfg), **changes})


class CliResult(NamedTuple):
    exit_code: int
    output: str                       # stdout and stderr, interleaved
    exception: BaseException | None   # the SystemExit the command ended with


def run_cli(argv):
    """``rqtraj.cli.main(argv)`` in this process, its output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            main(argv)
        except SystemExit as exc:
            return CliResult(exc.code, buf.getvalue(), exc)
    return CliResult(0, buf.getvalue(), None)
