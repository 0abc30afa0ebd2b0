import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqtraj as rq
from rqtraj.errors import (
    EnergyEqualsPotential,
    NonPositiveF,
    SuperluminalArgument,
    TurningPointSingular,
)
from tests.conftest import classical_momentum, classical_speed


def test_constant_set_consistency():
    s = rq.PhysicalSetup(E=2.0, m0c2=0.511)
    # hbar_c / hbar must equal c in fm/s
    assert abs(s.hbar_c / s.hbar / (s.c * rq.FM_PER_M) - 1.0) < 1e-9
    assert abs(s.hbar_c - 197.327) < 1e-3  # quoted 6-digit value


def test_setup_validation():
    with pytest.raises(ValueError):
        rq.PhysicalSetup(E=1.0, m0c2=-0.5)
    with pytest.raises(ValueError):
        rq.PhysicalSetup(E=1.0, hbar=0.0)
    with pytest.raises(ValueError):
        rq.PhysicalSetup(E=1.0, direction=2)
    with pytest.raises(TypeError):
        rq.PhysicalSetup(E=1.0, hbar_c=196.0)  # derived from hbar and c, never given


def test_hbar_scaling_keeps_consistency():
    s = rq.PhysicalSetup(E=2.0).scaled_hbar(0.25)
    assert abs(s.hbar_c / s.hbar / (s.c * rq.FM_PER_M) - 1.0) < 1e-12
    assert s.hbar == pytest.approx(0.25 * rq.HBAR_MEV_S)


def test_hidden_params_reject_zero_a():
    with pytest.raises(ValueError):
        rq.HiddenParams(0.0, 1.0)
    rq.HiddenParams(1e-8, 0.0)  # small but nonzero is fine


def test_kinetic_term_value(electron2, const_pot):
    # 2 - 0.511^2/2, direct evaluation
    assert rq.kinetic_term(electron2, const_pot, 0.0) == pytest.approx(
        1.8694395, abs=1e-7
    )


def test_kinetic_term_turning_zero():
    s = rq.PhysicalSetup(E=2.0, m0c2=0.511)
    pot = rq.ConstantPotential(2.0 - 0.511)
    assert rq.kinetic_term(s, pot, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_kinetic_term_degenerate_energy():
    s = rq.PhysicalSetup(E=1.0, m0c2=0.511)
    with pytest.raises(EnergyEqualsPotential):
        rq.kinetic_term(s, rq.ConstantPotential(1.0), 0.0)


def test_kinetic_term_nonrelativistic_limit():
    # T << m0c2: right side approaches 2T with relative gap ~ T/(2 m0c2)
    m0c2 = 0.511
    t_kin = 1e-3 * m0c2
    s = rq.PhysicalSetup(E=m0c2 + t_kin, m0c2=m0c2)
    kin = rq.kinetic_term(s, rq.ConstantPotential(0.0), 0.0)
    assert abs(kin / (2 * t_kin) - 1.0) <= 1e-3


def test_classify_regime(electron2):
    pot0 = rq.ConstantPotential(0.0)
    assert rq.classify_regime(electron2, pot0, 0.0) is rq.Regime.OSCILLATORY
    s = rq.PhysicalSetup(E=0.3, m0c2=0.511)
    assert rq.classify_regime(s, pot0, 0.0) is rq.Regime.EVANESCENT
    s2 = rq.PhysicalSetup(E=0.511, m0c2=0.511)
    assert rq.classify_regime(s2, pot0, 0.0) is rq.Regime.TURNING_POINT


def test_regime_tags_rule():
    """disc within REGIME_REL_TOL * m2 of zero, or NaN, is a turning point."""
    s = rq.PhysicalSetup(E=2.0, m0c2=0.5)
    tol = rq.model.REGIME_REL_TOL * s.rest_sq
    disc = np.array([1.0, 2 * tol, 0.5 * tol, 0.0, -0.5 * tol, -2 * tol, -0.1, np.nan])
    ev = np.sqrt(s.rest_sq + disc)
    tags = rq.model.regime_tags(s, ev)
    assert tags.dtype == np.uint8
    assert rq.model.REGIME_TEXT[tags].tolist() == [
        "oscillatory", "oscillatory", "turning", "turning",
        "turning", "evanescent", "evanescent", "turning"]
    # antiparticle branch: the sign of E - V plays no part
    assert rq.model.regime_tags(s, -ev).tolist() == tags.tolist()
    for e, tag in zip(ev, tags):
        pot = rq.ConstantPotential(s.E - e)
        assert rq.classify_regime(s, pot, 0.0) is rq.model.REGIMES[tag]


@pytest.mark.parametrize("sign", [1, -1])
def test_turning_band_raises_on_both_sides(sign):
    """E - U0 = m0c2 (1 +- 1e-14): disc = +-2e-14 m2, inside the band."""
    s = rq.PhysicalSetup(E=0.511 * (1 + sign * 1e-14), m0c2=0.511)
    hp = rq.HiddenParams(0.25, 8.0)
    calls = [
        lambda: rq.solve_constant(s, 0.0, np.linspace(0.0, 1.0, 5)),
        lambda: rq.trace_constant_oscillatory(s, 0.0, hp, 0.0, (0.0, 1e-21)),
        lambda: rq.trace_constant_evanescent(s, 0.0, hp, 0.0, (0.0, 1e-21)),
        lambda: rq.node_period(s, 0.0),
        lambda: rq.de_broglie(s, 0.0),
    ]
    for call in calls:
        with pytest.raises(TurningPointSingular):
            call()


def test_energy_equals_constant_potential_is_typed():
    s = rq.PhysicalSetup(E=0.3, m0c2=0.511)
    hp = rq.HiddenParams(0.25, 8.0)
    with pytest.raises(EnergyEqualsPotential):
        rq.evanescent_divergence_times(s, 0.3, hp)
    with pytest.raises(EnergyEqualsPotential):
        rq.de_broglie(s, 0.3)


def test_antiparticle_branch_is_oscillatory():
    # E - U0 = -2 has (E-V)^2 above the rest-energy square
    s = rq.PhysicalSetup(E=-2.0, m0c2=0.511)
    assert rq.classify_regime(s, rq.ConstantPotential(0.0), 0.0) is rq.Regime.OSCILLATORY


def test_f_function(electron2, const_pot):
    p_cl = classical_momentum(electron2)
    assert rq.f_function(electron2, const_pot, 0.0, p_cl) == pytest.approx(1.0, rel=1e-12)
    assert rq.f_function(electron2, const_pot, 0.0, 2 * p_cl) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(NonPositiveF):
        rq.f_function(rq.PhysicalSetup(E=0.3, m0c2=0.511), const_pot, 0.0, 1.0)
    with pytest.raises(TurningPointSingular):
        rq.f_function(rq.PhysicalSetup(E=0.511, m0c2=0.511), const_pot, 0.0, 1.0)


def test_lagrangian(electron2, const_pot):
    # rest case
    assert rq.lagrangian(electron2, const_pot, 0.0, 0.0, 1.0) == pytest.approx(-0.511)
    # classical speed with f = 1: L = -(m0c2)^2/(E-U0) - U0
    v = classical_speed(electron2)
    assert rq.lagrangian(electron2, const_pot, 0.0, v, 1.0) == pytest.approx(
        -(0.511**2) / 2.0, rel=1e-12
    )
    with pytest.raises(SuperluminalArgument):
        rq.lagrangian(electron2, const_pot, 0.0, electron2.c, 1.0)


def test_pointwise_ops_are_hbar_free(electron2, const_pot):
    scaled = electron2.scaled_hbar(0.25)
    for s in (electron2, scaled):
        assert rq.kinetic_term(s, const_pot, 0.0) == rq.kinetic_term(electron2, const_pot, 0.0)


@given(
    e_over_m=st.floats(1.05, 50.0),
    m0c2=st.floats(0.1, 10.0),
    p_scale=st.floats(0.05, 20.0),
)
@settings(max_examples=200, deadline=None)
def test_energy_closure_property(e_over_m, m0c2, p_scale):
    """f(x, P) closes the energy for any momentum: sqrt((m0 c^2)^2 + P^2/f) + V = E."""
    s = rq.PhysicalSetup(E=e_over_m * m0c2, m0c2=m0c2)
    pot = rq.ConstantPotential(0.0)
    p = p_scale * classical_momentum(s)
    f = rq.f_function(s, pot, 0.0, p)
    assert math.sqrt(s.rest_sq + p**2 / f) == pytest.approx(s.E, rel=1e-9)


@given(ev=st.floats(0.05, 20.0), m0c2=st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_kinetic_sign_matches_regime(ev, m0c2):
    s = rq.PhysicalSetup(E=ev, m0c2=m0c2)
    pot = rq.ConstantPotential(0.0)
    regime = rq.classify_regime(s, pot, 0.0)
    if regime is rq.Regime.TURNING_POINT:
        return
    kin = rq.kinetic_term(s, pot, 0.0)
    if regime is rq.Regime.OSCILLATORY:
        assert kin > 0
    else:
        assert kin < 0


def test_linear_potential_derivatives():
    pot = rq.LinearPotential(1e-3)
    x = np.linspace(-50, 50, 11)
    assert np.allclose(pot.v(x), 1e-3 * x)
    assert np.all(pot.dv(x) == 1e-3)
    assert np.all(pot.d2v(x) == 0.0)


def test_constant_potential_derivatives():
    pot = rq.ConstantPotential(0.7)
    x = np.linspace(-5, 5, 7)
    assert np.all(pot.v(x) == 0.7)
    assert np.all(pot.dv(x) == 0.0)
    assert np.all(pot.d2v(x) == 0.0)


def test_tabulated_potential_quadratic_exact():
    grid = np.linspace(-10, 10, 201)
    vals = 0.3 + 0.05 * grid + 2e-4 * grid**2
    pot = rq.TabulatedPotential(grid, vals)
    x = np.linspace(-8, 8, 41)
    assert np.allclose(pot.v(x), 0.3 + 0.05 * x + 2e-4 * x**2, atol=1e-4)
    assert np.allclose(pot.dv(grid), 0.05 + 4e-4 * grid, atol=1e-10)
    assert np.allclose(pot.d2v(grid[2:-2]), 4e-4, atol=1e-10)


def test_tabulated_potential_centered_difference_order():
    # cubic contribution: derivative error shrinks ~4x per halving
    errs = []
    for n in (101, 201):
        grid = np.linspace(-1.0, 1.0, n)
        vals = np.sin(2.0 * grid)
        pot = rq.TabulatedPotential(grid, vals)
        errs.append(np.max(np.abs(pot.dv(grid[5:-5]) - 2.0 * np.cos(2.0 * grid[5:-5]))))
    assert errs[0] / errs[1] > 3.5


def test_tabulated_potential_validation():
    with pytest.raises(ValueError):
        rq.TabulatedPotential([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        rq.TabulatedPotential([0.0, 1.0], [1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["grid", "values"])
def test_tabulated_potential_rejects_non_finite_entries(column, bad):
    """A nan or inf would spread through the derivative tables into the basis."""
    grid = np.linspace(-600.0, 600.0, 201)
    cols = {"grid": grid, "values": 1e-3 * grid}
    cols[column][100 if column == "values" else -1] = bad
    with pytest.raises(ValueError, match="finite"):
        rq.TabulatedPotential(cols["grid"], cols["values"])
