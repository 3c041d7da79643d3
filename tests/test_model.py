"""Closed-form geometry and pressure laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lawe_spectra import model
from lawe_spectra.errors import ValidationError

import model_oracle

FOUR_PI = 4.0 * math.pi


@pytest.fixture(scope="module")
def canonical():
    return model.build_mass_distribution(0.5, 2.0, N=80)


def test_radius_closed_form(canonical):
    idx = np.arange(canonical.N + 1)
    expected = 1.0 - 0.5 ** idx.astype(float)
    assert np.allclose(canonical.radius, expected, rtol=0, atol=1e-15)
    assert canonical.radius[0] == 0.0
    # eta**I drops below one ulp of R_star around I=53; the float radii
    # saturate at R_star there, so strictness only holds before that
    assert np.all(np.diff(canonical.radius[:53]) > 0)
    assert np.all(np.diff(canonical.radius) >= 0)
    assert np.all(canonical.radius <= canonical.R_star)


def test_width_matches_radius_difference(canonical):
    # no width is stored: the couplings cancel the closed form
    # R_star*(1 - eta)*eta**(I-1), which must agree with the radii to
    # additive machine precision
    idx = np.arange(1, canonical.N + 1, dtype=float)
    width = canonical.R_star * (1.0 - canonical.eta) * canonical.eta ** (idx - 1.0)
    diff = np.diff(canonical.radius)
    assert np.max(np.abs(diff - width)) < 5e-16 * canonical.R_star


def test_enclosed_mass_telescopes(canonical):
    acc = np.cumsum(model_oracle.shell_masses(canonical))
    assert np.allclose(canonical.enclosed_mass, acc, rtol=1e-14, atol=0)
    assert canonical.enclosed_mass[-1] <= canonical.M_star


def test_shell_mass_closed_form(canonical):
    idx = np.arange(canonical.N + 1, dtype=float)
    # ln M(I) = ln(1 - 0.25) + I*ln 0.25, which no underflow limits
    expected = math.log(1.0 - 0.25) + idx * math.log(0.25)
    assert np.allclose(canonical.log_shell_mass(idx), expected, rtol=1e-14, atol=0)


def test_core_entries(canonical):
    assert canonical.radius[0] == 0.0
    # index 0 carries the leftover point mass
    assert math.exp(canonical.log_shell_mass(0)) == pytest.approx(0.75)
    assert canonical.enclosed_mass[0] == pytest.approx(0.75)


def test_log_forms_match_direct_values(canonical):
    i = np.arange(1, 40)
    direct = model_oracle.shell_masses(canonical)[i]
    assert np.allclose(np.exp(canonical.log_shell_mass(i)), direct, rtol=1e-12)


def test_validation_messages():
    with pytest.raises(ValidationError, match=r"eta must lie in \(0,1\)"):
        model.build_mass_distribution(1.5, 2.0)
    with pytest.raises(ValidationError, match=r"eta must lie in \(0,1\)"):
        model.build_mass_distribution(0.0, 2.0)
    with pytest.raises(ValidationError, match="gamma must be positive"):
        model.build_mass_distribution(0.5, 0.0)
    with pytest.raises(ValidationError, match="N must be an integer >= 2"):
        model.build_mass_distribution(0.5, 2.0, N=1)
    with pytest.raises(ValidationError, match="zeta must exceed -4"):
        model.coupling_constant(0.5, 2.0, zeta=-4.0)


@pytest.mark.parametrize("call", [
    lambda: model.profile_constant(0.5, 3000),
    lambda: model.coupling_constant(0.5, 3000),
    lambda: model.build_mass_distribution(0.5, 3000),
    lambda: model.build_mass_distribution(1e-309, 1.0),
], ids=["profile_constant", "coupling_constant", "mass_distribution", "tiny-eta"])
def test_steep_power_law_is_a_validation_error(call):
    # eta**-gamma or 1/eta beyond e**709 used to raise a bare OverflowError
    with pytest.raises(ValidationError, match="eta .* with gamma .* beyond the float range"):
        call()


def test_canonical_scaling_constants(canonical):
    assert canonical.lambda_star == pytest.approx(1.0, abs=0)
    assert model.coupling_constant(0.5, 2.0) == pytest.approx(1.6, abs=1e-15)
    assert model.profile_constant(0.5, 2.0) == pytest.approx(0.8, abs=1e-15)
    sp = model.scaling_params(canonical)
    assert sp.centre == 0.0
    assert sp.half_width == pytest.approx(3.2, abs=1e-15)
    assert sp.interval == pytest.approx((-3.2, 3.2), abs=1e-14)


def test_scaling_interval_shifts_with_zeta(canonical):
    sp = model.scaling_params(canonical, zeta=1.0)
    assert sp.kappa == pytest.approx(2.0, abs=1e-15)
    assert sp.interval == pytest.approx((-5.0, 3.0), abs=1e-14)


def test_geometric_profile_defaults(canonical):
    gp = model.gamma_profile(canonical)
    assert gp.kind == "geometric"
    assert gp.c == pytest.approx(0.8)
    assert np.all(gp.scaled == gp.c)


def test_profile_validation(canonical):
    with pytest.raises(ValidationError, match="perturbation must have shape"):
        model.gamma_profile(canonical, perturbation=np.zeros(3))
    with pytest.raises(ValidationError, match="must stay positive"):
        model.gamma_profile(canonical, perturbation=np.full(canonical.N + 1, -1.0))
    with pytest.raises(ValidationError, match="requires value"):
        model.gamma_profile(canonical, "constant")
    with pytest.raises(ValidationError, match="unknown profile kind"):
        model.gamma_profile(canonical, "linear")


def test_limit_pressure_tail_and_residual(canonical):
    pd = model.build_pd_distribution(canonical, pressure_mode="limit")
    # (P/M)(I) -> Lambda_star/(4 pi R_star) with a geometric correction
    tail = canonical.lambda_star / (FOUR_PI * canonical.R_star)
    assert pd.P_over_M[canonical.N] == pytest.approx(tail, rel=1e-12)
    # the limit law is not a hydrostatic equilibrium: the scale-free
    # defect settles at exactly 2 for eta=1/2, gamma=2
    assert model_oracle.tail_hse_residual(pd) == pytest.approx(2.0, abs=1e-12)


def test_hse_pressure_is_admissible(canonical):
    pd = model.build_pd_distribution(canonical, pressure_mode="hse")
    assert model_oracle.tail_hse_residual(pd) <= 1e-14
    # fixed point of the balance recursion is 1/(12 pi) for the
    # canonical eta=1/2, gamma=2 envelope
    assert pd.P_over_M[canonical.N] == pytest.approx(1.0 / (12.0 * math.pi), rel=1e-14)


def test_hse_recursion_identity(canonical):
    pd = model.build_pd_distribution(canonical, pressure_mode="hse")
    i = np.arange(1, canonical.N - 1)
    lhs = pd.P_over_M[i]
    g = canonical.G * canonical.enclosed_mass[i] / (FOUR_PI * canonical.radius[i] ** 4)
    rhs = canonical.eta ** canonical.gamma * (pd.P_over_M[i + 1] + g)
    assert np.allclose(lhs, rhs, rtol=1e-13)


def test_polytrope_pressure_defaults(canonical):
    gp = model.gamma_profile(canonical, "constant", value=2.0)
    pd = model.build_pd_distribution(canonical, gp, pressure_mode="polytrope")
    assert pd.e3 == pytest.approx(-1.0, abs=0)
    c_default = canonical.lambda_star * canonical.eta / (
        16.0 * math.pi ** 2 * canonical.R_star ** 4 * (1.0 - canonical.eta))
    assert pd.C_star == pytest.approx(c_default, rel=1e-15)
    # its couplings come in closed form: no P/M is stored
    assert pd.P_over_M is None


@pytest.mark.parametrize("gamma, Gamma, interval", [
    (2.0, 3.0, (-23.0, 1.0)),       # e3 = 0: mu_inf = 6 about c = 4 - 6*(1/2 + 2)
    (3.5345, 2.0, (4.0, 4.0)),      # e3 = 0.5345: the couplings vanish
    # e3 = +-4.4e-16, one ulp of 2.0, is a rounding of 0 and read as 0
    (2.2, 2.666666666666667, (-22.351699387022165, 0.5128011470854208)),
    (2.5, 2.333333333333333, (-22.63192632217428, -0.43339350879015726)),
    (2.0, 3.0 + 1e-12, (4.0, 4.0)),  # e3 = 1e-12 is no rounding: it decays
], ids=["e3=0", "e3+0.53", "e3+ulp", "e3-ulp", "e3+1e-12"])
def test_polytrope_essential_interval(gamma, Gamma, interval):
    dist = model.build_mass_distribution(0.5, gamma, N=40)
    pd = model.build_pd_distribution(dist, model.gamma_profile(dist, "constant", value=Gamma),
                                     pressure_mode="polytrope")
    assert pd.scaling.interval == interval


def test_growing_polytrope_couplings_have_no_interval(canonical):
    # e3 = -1: the raw couplings grow like eta**-I, and only the scaled
    # system has an essential spectrum
    gp = model.gamma_profile(canonical, "constant", value=2.0)
    pd = model.build_pd_distribution(canonical, gp, pressure_mode="polytrope")
    with pytest.raises(ValidationError, match=r"e3 = -1 < 0; run the scaled subcommand"):
        pd.scaling


def test_polytrope_e3_just_below_zero_has_no_interval(canonical):
    # e3 = -1e-12 lies far beyond the rounding of (gamma-1)*(Gamma-1) - 2
    # and keeps its sign: the couplings grow, however slowly
    gp = model.gamma_profile(canonical, "constant", value=3.0 - 1e-12)
    pd = model.build_pd_distribution(canonical, gp, pressure_mode="polytrope")
    assert pd.e3 == pytest.approx(-1e-12, rel=1e-3)
    with pytest.raises(ValidationError, match="< 0; run the scaled subcommand"):
        pd.scaling


def test_polytrope_requires_constant_profile(canonical):
    with pytest.raises(ValidationError, match="requires a constant Gamma profile"):
        model.build_pd_distribution(canonical, pressure_mode="polytrope")


@pytest.mark.parametrize("mode", ["limit", "hse"])
def test_shell_pressure_laws_require_geometric_profile(canonical, mode):
    gp = model.gamma_profile(canonical, "constant", value=2.0)
    with pytest.raises(ValidationError, match=f'"{mode}" requires a geometric Gamma'):
        model.build_pd_distribution(canonical, gp, pressure_mode=mode)


def test_pd_validation(canonical):
    with pytest.raises(ValidationError, match="unknown pressure_mode"):
        model.build_pd_distribution(canonical, pressure_mode="isothermal")


@pytest.mark.parametrize("gamma", [0.5, 2.0, 3.5345])
@pytest.mark.parametrize("eta", [0.01, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999])
def test_arrays_match_the_full_length_formulas_bit_for_bit(eta, gamma):
    # the model takes each power only where it still differs from its
    # limit; N runs from below the first exact limit past the underflow
    for N in (2, 64, 1500, 25000):
        dist = model.build_mass_distribution(eta, gamma, M_star=3.7, R_star=0.45, N=N)
        ref = model_oracle.mass_arrays(eta, gamma, M_star=3.7, R_star=0.45, N=N)
        got = (dist.radius, dist.enclosed_mass)
        for name, a, b in zip(("radius", "enclosed_mass"), got, ref):
            assert np.array_equal(a, b), (name, N)
        pd = model.build_pd_distribution(dist, pressure_mode="limit")
        assert np.array_equal(pd.P_over_M, model_oracle.pressure_limit(dist)), N


@given(
    eta=st.floats(0.05, 0.95),
    gamma=st.floats(0.5, 4.0),
    M_star=st.floats(0.1, 10.0),
    R_star=st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_mass_telescope_property(eta, gamma, M_star, R_star):
    dist = model.build_mass_distribution(eta, gamma, M_star=M_star, R_star=R_star, N=40)
    acc = np.cumsum(model_oracle.shell_masses(dist))
    assert np.allclose(dist.enclosed_mass, acc, rtol=1e-12, atol=1e-300)
    assert np.all(np.diff(dist.radius) >= 0)
    assert np.all(dist.radius <= R_star * (1 + 1e-12))
    # leftover tail mass is exactly the unbuilt shells
    assert dist.enclosed_mass[-1] == pytest.approx(
        M_star * (1 - eta ** (gamma * (dist.N + 1))), rel=1e-12)


@given(eta=st.floats(0.05, 0.95), gamma=st.floats(0.5, 4.0), zeta=st.floats(-3.9, 4.0))
@settings(max_examples=60, deadline=None)
def test_interval_symmetry_property(eta, gamma, zeta):
    kappa = model.coupling_constant(eta, gamma, zeta)
    assert 0 < kappa <= (4.0 + zeta) / 2.0
    dist = model.build_mass_distribution(eta, gamma, N=8)
    sp = model.scaling_params(dist, zeta)
    lo, hi = sp.interval
    assert lo < hi
    assert (lo + hi) / 2.0 == pytest.approx(-zeta * dist.lambda_star, rel=1e-10, abs=1e-12)
