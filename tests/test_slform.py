import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from lawe_spectra import slform
from lawe_spectra.errors import NumericalError, ValidationError

import magnus_oracle
import q0_oracle


@pytest.fixture(scope="module")
def poly24_trace():
    form = slform.CanonicalForm(slform.Polytropic(2, 4))
    return form, slform.integrate_canonical(form, 1.0, X_max=600.0)


@pytest.fixture(scope="module")
def thermal_trace():
    form = slform.CanonicalForm(slform.LinearThermal(1, 4, 2.5))
    return form, slform.integrate_canonical(form, 1.0, X_max=600.0)


def test_polytropic_profile_closed_forms():
    sl = eos = slform.Polytropic(2, 3)
    x = np.array([0.55, 0.7, 0.9])
    D = 1.0 - x
    assert np.allclose(eos.rho(x), D**2, rtol=1e-15)
    assert np.allclose(q0_oracle.pressure(eos, x), D**6, rtol=1e-15)
    assert np.allclose(eos.gamma_P(x), 3.0 * D**6, rtol=1e-15)
    assert np.allclose(sl.p(x), 3.0 * D**6 * x**4, rtol=1e-15)
    assert np.allclose(sl.w(x), D**2 * x**4, rtol=1e-15)
    # q = x^3 * K*a*b*(3b-4)*D^(ab-1)
    assert np.allclose(q0_oracle.q(sl, x), 30.0 * D**5 * x**3, rtol=1e-14)
    assert np.allclose(sl.W(x), D**-2 / math.sqrt(3.0), rtol=1e-15)


def test_linear_thermal_profile_closed_forms():
    eos = slform.LinearThermal(1, 4, 2.5, K0=2.0, L0=0.5)
    x = np.array([0.55, 0.7, 0.9])
    D = 1.0 - x
    assert np.allclose(eos.rho(x), D, rtol=1e-15)
    assert np.allclose(q0_oracle.pressure(eos, x), 2.0 * D**4 + 0.5 * D**2.5, rtol=1e-15)
    assert np.allclose(eos.gamma_P(x), 2.0 * D**4, rtol=1e-15)
    assert np.allclose(eos.p(x), 2.0 * D**4 * x**4, rtol=1e-15)
    assert np.allclose(eos.w(x), D * x**4, rtol=1e-15)
    # q = -x^3 * (ab*K0*D^(ab-1) + 4*c*L0*D^(c-1))
    assert np.allclose(q0_oracle.q(eos, x), -(8.0 * D**3 + 5.0 * D**1.5) * x**3,
                       rtol=1e-14)
    assert np.allclose(eos.W(x), D**-1.5 / math.sqrt(2.0), rtol=1e-15)


@pytest.mark.parametrize("eos", [
    slform.Polytropic(2, 3), slform.Polytropic(1.5, 2.2, K=0.7, R_delta=0.6),
    slform.LinearThermal(1, 4, 2.5), slform.LinearThermal(1.3, 3.1, 1.7, K0=0.8, L0=1.9)],
    ids=["poly", "poly-K", "thermal", "thermal-K0-L0"])
def test_q_is_minus_x3_derivative_of_3gamma_minus_4_pressure(eos):
    # q = -x^3 d/dx[(3 Gamma - 4) P], by central differences of the
    # layer's own P and Gamma*P, with a step relative to the depth
    x = np.array([0.65, 0.8, 0.95])
    h = 1e-5 * (eos.R_star - x)

    def f(t):
        return 3.0 * eos.gamma_P(t) - 4.0 * q0_oracle.pressure(eos, t)

    want = -x**3 * (f(x + h) - f(x - h)) / (2.0 * h)
    assert np.allclose(q0_oracle.q(eos, x), want, rtol=1e-8, atol=0.0)


def test_profile_validation():
    with pytest.raises(ValidationError, match="need K > 0, a > 0, b > 1"):
        slform.Polytropic(0, 3)
    with pytest.raises(ValidationError, match="need K > 0, a > 0, b > 1"):
        slform.Polytropic(2, 1.0)
    with pytest.raises(ValidationError, match="need K > 0, a > 0, b > 1"):
        slform.Polytropic(2, 3, K=0.0)
    with pytest.raises(ValidationError, match="need a >= 1, b >= 1, c > 0"):
        slform.LinearThermal(0.5, 4, 2.5)
    with pytest.raises(ValidationError, match="need a >= 1, b >= 1, c > 0"):
        slform.LinearThermal(1, 4, 0.0)
    with pytest.raises(ValidationError, match="need K0, L0 > 0"):
        slform.LinearThermal(1, 4, 2.5, K0=0)
    with pytest.raises(ValidationError, match="need 0 < R_delta < R_star"):
        slform.Polytropic(2, 3, R_delta=1.5)
    with pytest.raises(ValidationError, match="below the surface"):
        slform.Polytropic(2, 3).depth(1.0)


def test_hse_residual_matches_numeric_pressure_gradient():
    h, G = 1e-6, 1.7
    for eos in (slform.Polytropic(2, 3), slform.LinearThermal(1, 4, 2.5)):
        for x in (0.6, 0.8, 0.95):
            dP = (q0_oracle.pressure(eos, x + h) - q0_oracle.pressure(eos, x - h)) / (2.0 * h)
            want = dP + G * eos.rho(x) / x**2
            assert q0_oracle.hse_residual(eos, x, G) == pytest.approx(want, rel=1e-9)


def test_transform_closed_form_value():
    # s1 = -1 makes X(x) = (1/Dd - 1/D)/(-sqrt(C_p)); at x = 0.9 that is 8/sqrt(3)
    form = slform.CanonicalForm(slform.Polytropic(2, 3))
    assert float(form.X_of_x(0.9)) == pytest.approx(8.0 / math.sqrt(3.0), rel=1e-15)


def test_transform_roundtrip():
    cases = (slform.Polytropic(2, 3), slform.Polytropic(2, 4),
             slform.Polytropic(1, 2.5), slform.LinearThermal(1, 4, 2.5),
             slform.LinearThermal(1, 3, 1.0))
    for eos in cases:
        form = slform.CanonicalForm(eos)
        x = np.linspace(eos.R_delta, eos.R_star - 1e-6, 50)
        assert np.max(np.abs(form.x_of_X(form.X_of_x(x)) - x)) <= 5e-16


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 3.0), b=st.floats(1.1, 5.0), x=st.floats(0.55, 0.999))
@example(a=1.00001, b=3.0, x=0.75)  # s + 1 = -1e-5: cancellation lost 5 digits
def test_transform_roundtrip_property(a, b, x):
    form = slform.CanonicalForm(slform.Polytropic(a, b))
    assert float(form.x_of_X(form.X_of_x(x))) == pytest.approx(x, abs=1e-12)


def test_surface_image_finite_exactly_when_density_weight_integrable():
    assert slform.CanonicalForm(slform.Polytropic(2, 4)).unbounded
    assert slform.CanonicalForm(slform.LinearThermal(1, 4, 2.5)).unbounded
    form = slform.CanonicalForm(slform.Polytropic(1, 2.5))
    assert not form.unbounded
    # s1 = 0.25: image of the surface is Dd^s1/(s1*sqrt(C_p))
    want = 0.5**0.25 / (0.25 * math.sqrt(2.5))
    assert form.X_surface == pytest.approx(want, rel=1e-15)
    # X_of_x approaches the image like D^s1/(s1*sqrt(C_p))
    for D in (1e-6, 1e-10):
        gap = form.X_surface - float(form.X_of_x(1.0 - D))
        assert gap == pytest.approx(D**0.25 / (0.25 * math.sqrt(2.5)), rel=1e-6)


def test_integration_rejects_bad_window():
    form = slform.CanonicalForm(slform.Polytropic(1, 2.5))
    with pytest.raises(ValidationError, match="lam must be positive"):
        slform.integrate_canonical(form, 0.0, X_max=1.0)
    with pytest.raises(ValidationError, match="reaches past the finite image"):
        slform.integrate_canonical(form, 1.0, X_max=form.X_surface)
    tr = slform.integrate_canonical(form, 1.0, X_max=0.9 * form.X_surface)
    assert tr.x_grid[-1] < form.eos.R_star
    # 24 points per wavelength: 1.02e6 points, and a size past the float range
    unbounded = slform.CanonicalForm(slform.Polytropic(2, 4))
    for lam, X_max, size in ((2e7, 60.0, r"1\.025e\+06"), (1e300, 1e300, "inf")):
        with pytest.raises(ValidationError, match=f"grid of {size} points, more than 1000000"):
            slform.integrate_canonical(unbounded, lam, X_max=X_max)


def test_depth_floor_maps_back_through_x_of_X():
    # log branch (s = -1): X = log(Dd/D)/sqrt(C_p), with Dd = 1/2 and C_p = 3;
    # x = R_star - D keeps D only to about eps/1e-7 relative
    form = slform.CanonicalForm(slform.Polytropic(1, 3))
    assert form.X_at_depth(1e-7) == pytest.approx(math.log(0.5e7) / math.sqrt(3.0),
                                                  rel=1e-9)
    for eos in (slform.Polytropic(2, 4), slform.LinearThermal(1, 4, 1.5),
                slform.Polytropic(1, 2.5)):
        form = slform.CanonicalForm(eos)
        X = form.X_at_depth(1e-7)
        assert X < form.X_surface
        assert 1.0 - float(form.x_of_X(X)) == pytest.approx(1e-7, rel=1e-6)
    # a depth power too steep for doubles has no finite image
    assert slform.CanonicalForm(slform.Polytropic(4, 60)).X_at_depth(1e-7) == math.inf


def test_edge_quadratic_surface_factorization():
    assert slform.edge_quadratic(0.0, 2.0, 3.0) == 32.0
    for a, b in ((2, 3), (2, 4), (1, 5), (0.7, 2.2)):
        got = slform.edge_quadratic(1.0, a, b)
        want = a * (b + 1.0) * (a * (3.0 * b - 1.0) - 4.0)
        assert got == pytest.approx(want, abs=1e-12)
    # the factor a(3b-1) - 4 vanishes on the critical exponent line
    for b in (1.5, 2.0, 3.0, 5.0):
        a = 4.0 / (3.0 * b - 1.0)
        assert abs(slform.edge_quadratic(1.0, a, b)) <= 1.5e-14
    assert slform.edge_quadratic(1.0, 0.5, 3.0) == 0.0


def test_marginal_adiabatic_exponent_kills_first_order_term():
    # 3b - 4 = 0 removes the q/w contribution entirely
    form = slform.CanonicalForm(slform.Polytropic(3, 4.0 / 3.0))
    x = np.linspace(0.55, 0.95, 20)
    assert np.all(form.q1(x) == 0.0)
    assert np.array_equal(form.q0(x), form._q2(x, form.eos.depth(x)))


Q0_SLOPE_CASES = [
    # (a, b, fitted slope over depths 1e-7..1e-3); target is ab - a - 2
    (2, 3, 1.9997866553),
    (2, 4, 3.9998345352),
    (1, 5, 1.9996739719),
]


@pytest.mark.parametrize("a,b,frozen", Q0_SLOPE_CASES)
def test_q0_surface_slope(a, b, frozen):
    form = slform.CanonicalForm(slform.Polytropic(a, b))
    D = np.geomspace(1e-7, 1e-3, 60)
    x = form.eos.R_star * (1.0 - D)
    slope = np.polyfit(np.log(D), np.log(np.abs(form.q0(x))), 1)[0]
    target = a * b - a - 2.0
    assert slope == pytest.approx(target, rel=0.01)
    assert slope == pytest.approx(frozen, abs=1e-6)


def test_q0_dual_route_agreement():
    rng = np.random.default_rng(7)
    for eos in (slform.Polytropic(2, 4), slform.LinearThermal(1, 4, 2.5)):
        form = slform.CanonicalForm(eos)
        x = eos.R_delta + (eos.R_star - 1e-4 - eos.R_delta) * rng.random(20)
        closed = form.q0(x)
        nested = np.array([q0_oracle.q0_fd(form, float(xi)) for xi in x])
        rel = np.abs(closed - nested) / np.maximum(np.abs(closed), 1e-30)
        assert np.max(rel) < 1e-8


DERIVATIVE_EXPONENT_CASES = [
    # c, analytic (Q1', Q1'', Q2') exponents, measured log-depth fits
    (3.0, (1.5, 2.0, 1.5), (1.500155, 2.000258, 1.499574)),
    (1.2, (-0.3, 0.2, 1.5), (-0.300015, 0.200034, 1.499574)),
    (1.5, (0.0, 1.5, 1.5), (-0.000058, 1.500358, 1.499574)),
]


@pytest.mark.parametrize("c,analytic,fitted", DERIVATIVE_EXPONENT_CASES)
def test_canonical_derivative_exponents(c, analytic, fitted):
    eos = slform.LinearThermal(1, 4, c)
    form = slform.CanonicalForm(eos)
    assert slform.canonical_derivative_exponents(eos) == pytest.approx(analytic, abs=1e-12)
    D = np.geomspace(1e-7, 1e-3, 60)
    x = eos.R_star * (1.0 - D)
    for fn, ana, frz in zip((form.Q1_prime_X, form.Q1_second_X,
                             lambda x: form.q2_prime(x) / eos.W(x)),
                            analytic, fitted):
        slope = np.polyfit(np.log(D), np.log(np.abs(fn(x))), 1)[0]
        assert slope == pytest.approx(frz, abs=1e-4)
        assert slope == pytest.approx(ana, abs=2.5e-3)


ROUTE_CASES = [
    (slform.Polytropic(1, 1.5), "outside_scope", False),
    (slform.Polytropic(1, 2.0), "outside_scope", False),
    (slform.Polytropic(1, 2.5), "finite_interval", False),
    (slform.Polytropic(1, 3.0), "integrable_shifted_potential", True),
    (slform.Polytropic(2, 2.0), "integrable_shifted_potential", True),
    (slform.Polytropic(2, 3.0), "integrable_canonical_potential", True),
    (slform.Polytropic(2, 4.0), "integrable_canonical_potential", True),
    (slform.LinearThermal(1, 4, 0.9), "outside_scope", False),
    (slform.LinearThermal(1, 2.5, 2.0), "outside_scope", False),
    (slform.LinearThermal(1, 4, 3.5), "integrable_canonical_potential", True),
    (slform.LinearThermal(1, 4, 2.5), "bounded_vanishing_potential", True),
    (slform.LinearThermal(1, 5, 2.5), "bounded_vanishing_potential", True),
    (slform.LinearThermal(1, 4, 1.2), "unbounded_potential_wkb", True),
    (slform.LinearThermal(1, 4, 2.0), "unbounded_potential_wkb", True),
]


@pytest.mark.parametrize("eos,route,applies", ROUTE_CASES,
                         ids=[f"Poly-{e.a}-{e.b}" if e.c is None
                              else f"Line-{e.a}-{e.b}-{e.c}" for e, _, _ in ROUTE_CASES])
def test_classification_route(eos, route, applies):
    rep = slform.classify_sl_case(eos)
    assert rep.route == route
    assert rep.applies is applies
    assert all(ch.consistent for ch in rep.checks)


def test_classification_notes():
    assert "a(b-1) = 0.5 <= 1 excluded" in slform.classify_sl_case(
        slform.Polytropic(1, 1.5)).notes
    assert "k = -3.0" in slform.classify_sl_case(slform.Polytropic(1, 3.0)).notes
    assert "q0*W tends to a constant" in slform.classify_sl_case(
        slform.Polytropic(2, 3.0)).notes
    assert "log boundary" in slform.classify_sl_case(
        slform.LinearThermal(1, 4, 2.5)).notes
    assert "need ab-a >= 2 and c > a" in slform.classify_sl_case(
        slform.LinearThermal(1, 4, 0.9)).notes


def test_quadrature_check_tail_ratios():
    # W integrable up to the surface but q0*W is not: the cut-off
    # quadratures separate cleanly on the two sides of the 1.8 gate
    rep = slform.classify_sl_case(slform.Polytropic(1, 2.5))
    q0_check, qw_check = rep.checks
    assert q0_check.exponent == pytest.approx(-0.5)
    assert q0_check.integrable and q0_check.tail_ratio < 1.1
    assert qw_check.exponent == pytest.approx(-1.25)
    assert not qw_check.integrable and qw_check.tail_ratio > 2.0

    rep = slform.classify_sl_case(slform.LinearThermal(1, 4, 1.2))
    names = [ch.name for ch in rep.checks]
    assert names[0] == "W/sqrt(lam-Q1)"
    assert not rep.checks[0].integrable and rep.checks[0].tail_ratio > 1.8
    assert all(ch.integrable for ch in rep.checks[1:])


class _FlatForm:
    """Zero-potential canonical form over the full half-line."""

    X_surface = math.inf
    eos = slform.Polytropic(2, 4)

    def Q(self, X):
        return np.zeros_like(np.asarray(X, dtype=float))

    def x_of_X(self, X):
        return np.full_like(np.asarray(X, dtype=float), 0.75)


def test_flat_potential_integrates_to_sine():
    tr = slform.integrate_canonical(_FlatForm(), 1.0, X_max=100.0)
    assert np.max(np.abs(tr.Y - np.sin(tr.X_grid))) < 5e-9
    assert np.max(np.abs(tr.Y**2 + tr.Y_prime**2 - 1.0)) < 5e-9
    sign = np.sign(tr.Y)
    sign[sign == 0] = 1.0
    idx = np.nonzero(np.diff(sign))[0]
    X = tr.X_grid
    zeros = X[idx] - tr.Y[idx] * (X[idx + 1] - X[idx]) / (tr.Y[idx + 1] - tr.Y[idx])
    assert np.max(np.abs(np.diff(zeros) - math.pi)) < 1e-4
    fit = slform.wkb_fit(tr, _FlatForm())
    assert fit.residual < 1e-6
    assert abs(fit.alpha) == pytest.approx(0.5, abs=1e-6)
    assert abs(fit.beta) == pytest.approx(0.5, abs=1e-6)


def test_trace_fields_consistent(poly24_trace):
    form, tr = poly24_trace
    assert tr.X_grid[-1] == 600.0
    assert np.all(np.diff(tr.x_grid) > 0)
    sl = form.eos
    pw4 = (sl.p(tr.x_grid) * sl.w(tr.x_grid)) ** 0.25
    assert np.array_equal(tr.y, tr.Y / pw4)


def test_envelope_continuation(poly24_trace):
    form, tr = poly24_trace
    env = slform.extend_trace_asymptotic(tr, form)
    k = int(0.8 * tr.X_grid.size)
    assert env.amp_Y == np.max(np.abs(tr.Y[k:]))
    assert env.depth[0] > env.depth[-1]
    assert env.depth[-1] == pytest.approx(1e-8, rel=1e-12)
    # the displacement envelope grows toward the surface, the regularity
    # envelope decays there
    assert np.all(np.diff(env.env_delta_r) > 0)
    assert np.all(np.diff(env.env_R) < 0)
    # a trace that ends below ENVELOPE_DEPTH leaves nothing to continue
    deep = dataclasses.replace(tr, x_grid=np.append(tr.x_grid[:-1], 1.0 - 1e-9))
    with pytest.raises(ValidationError, match="trace already reaches depth"):
        slform.extend_trace_asymptotic(deep, form)


def test_regularity_decay_polytropic(poly24_trace):
    form, tr = poly24_trace
    rep = slform.regularity_check(tr, form.eos, slform.extend_trace_asymptotic(tr, form))
    assert rep.analytic_power == 2.5
    assert rep.lower_bound == 1.5
    assert rep.fitted_power == pytest.approx(2.5, abs=1e-3)
    assert rep.monotone and rep.within and rep.bound_satisfied
    assert rep.envelope_ratio == pytest.approx(1.0, abs=0.1)


def test_regularity_decay_thermal(thermal_trace):
    form, tr = thermal_trace
    rep = slform.regularity_check(tr, form.eos, slform.extend_trace_asymptotic(tr, form))
    assert rep.analytic_power == 1.25
    assert rep.lower_bound == 1.0
    assert rep.fitted_power == pytest.approx(1.250221, abs=1e-3)
    assert rep.monotone and rep.within and rep.bound_satisfied


def test_l2_growth_polytropic(poly24_trace):
    form, tr = poly24_trace
    rep = slform.l2_growth(tr, slform.extend_trace_asymptotic(tr, form))
    assert rep.slope == pytest.approx(1.104162, abs=1e-3)
    assert rep.r_squared > 0.999
    assert rep.max_growth_factor == pytest.approx(337.96, rel=0.01)
    assert rep.growth_exponent == pytest.approx(2.5, abs=1e-3)
    assert rep.diverges


def test_l2_growth_thermal(thermal_trace):
    form, tr = thermal_trace
    rep = slform.l2_growth(tr, slform.extend_trace_asymptotic(tr, form))
    assert rep.slope == pytest.approx(0.126593, abs=1e-3)
    assert rep.r_squared > 0.999
    assert rep.max_growth_factor == pytest.approx(18.08, rel=0.02)
    assert rep.growth_exponent == pytest.approx(1.25, abs=1e-3)
    assert rep.diverges


def test_l2_growth_refuses_an_envelope_under_a_decade(poly24_trace):
    # the growth factor compares the deepest depth decade with the one
    # above; an envelope that stops inside the first has no second
    form, tr = poly24_trace
    short = dataclasses.replace(tr, x_grid=np.append(tr.x_grid[:-1], 1.0 - 3e-8))
    env = slform.extend_trace_asymptotic(short, form)
    with pytest.raises(ValidationError, match="envelope spans depths .* decade above"):
        slform.l2_growth(short, env)


def test_wkb_fit_polytropic(poly24_trace):
    form, tr = poly24_trace
    fit = slform.wkb_fit(tr, form)
    assert fit.window == (300.0, 600.0)
    assert fit.residual < 1e-3
    # real seed: time-reversal pairs the two WKB branches
    assert abs(fit.alpha) == pytest.approx(abs(fit.beta), rel=1e-9)
    assert abs(fit.alpha) == pytest.approx(0.743022, abs=2e-3)
    assert list(fit.hypothesis_slopes) == ["V1"]
    assert fit.hypothesis_slopes["V1"] < -1.02


def test_wkb_fit_thermal(thermal_trace):
    form, tr = thermal_trace
    fit = slform.wkb_fit(tr, form)
    assert fit.residual < 1e-4
    assert abs(fit.alpha) == pytest.approx(0.254384, abs=2e-3)
    assert list(fit.hypothesis_slopes) == ["V2'"]


def test_wkb_fit_constant_potential_keeps_it_under_the_root():
    # c = a + 1: the potential tends to a nonzero constant, so the auto
    # split must leave it in V2 and check the correction quadratures
    form = slform.CanonicalForm(slform.LinearThermal(1, 4, 2.0))
    tr = slform.integrate_canonical(form, 1.0, X_max=400.0)
    fit = slform.wkb_fit(tr, form)
    assert fit.residual < 1e-6
    assert set(fit.hypothesis_slopes) == {"V2''/(lam-V2)^1.5", "V2'^2/(lam-V2)^2.5"}


class _SlowTailForm(_FlatForm):
    """A small potential decaying like X**-1/2, too slowly to be integrable."""

    def Q(self, X):
        return 1e-4 / np.sqrt(1.0 + np.asarray(X, dtype=float))


def test_wkb_fit_refuses_a_divergent_v1():
    # |Q| ends below 1e-3 lam, so the split takes V2 = 0 and V1 = Q, whose
    # tail slope -1/2 fails the V1 quadrature
    tr = slform.integrate_canonical(_SlowTailForm(), 1.0, X_max=100.0)
    with pytest.raises(ValidationError, match="V1 quadrature diverges"):
        slform.wkb_fit(tr, _SlowTailForm())


def test_wkb_fit_records_its_split(poly24_trace, thermal_trace):
    # the automatic split keeps Q under the root only while |Q| at the
    # window end exceeds 1e-3 lam: P(2,4)'s potential has decayed below
    # that by X = 600, LT(1,4,2.5)'s has not
    for (form, tr), auto in ((poly24_trace, "zero"), (thermal_trace, "q0")):
        assert (abs(float(form.Q(tr.X_grid[-1]))) > 1e-3 * tr.lam) == (auto == "q0")
        assert slform.wkb_fit(tr, form).split == auto


def test_zero_solution_has_zero_regularity():
    form = slform.CanonicalForm(slform.Polytropic(2, 4))
    X = np.linspace(0.0, 100.0, 2000)
    zero = np.zeros_like(X)
    tr = slform.CanonicalTrace(lam=1.0, X_grid=X, Y=zero, Y_prime=zero,
                               x_grid=form.x_of_X(X), y=zero)
    assert np.all(slform.trace_regularity(tr, form.eos) == 0.0)


def test_dying_solution_not_flagged_divergent():
    form = slform.CanonicalForm(slform.Polytropic(2, 4))
    sl = form.eos
    X = np.linspace(0.0, 100.0, 2000)
    xg = form.x_of_X(X)
    Y = np.clip(1.0 - X / 50.0, 0.0, None)
    y = Y / (sl.p(xg) * sl.w(xg)) ** 0.25
    tr = slform.CanonicalTrace(lam=1.0, X_grid=X, Y=Y, Y_prime=np.gradient(Y, X),
                               x_grid=xg, y=y)
    with np.errstate(divide="ignore"):
        rep = slform.l2_growth(tr, slform.extend_trace_asymptotic(tr, form))
    assert abs(rep.slope) < 1e-12
    assert not rep.diverges


def test_regularity_needs_a_long_trace():
    form = slform.CanonicalForm(slform.Polytropic(2, 4))
    X = np.linspace(0.0, 5.0, 100)
    one = np.ones_like(X)
    tr = slform.CanonicalTrace(lam=1.0, X_grid=X, Y=one, Y_prime=one,
                               x_grid=form.x_of_X(X), y=one)
    with pytest.raises(ValidationError, match="trace too short"):
        slform.regularity_check(tr, form.eos, slform.extend_trace_asymptotic(tr, form))


def _oracle(form, lam, grid):
    """(Y, Y') on ``grid`` from SciPy DOP853 at rtol 1e-13, the independent route."""
    sol = solve_ivp(lambda X, z: (z[1], (form.Q(X) - lam) * z[0]), (0.0, grid[-1]),
                    [0.0, 1.0], method="DOP853", t_eval=grid, rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y


def _rel_error(Y, Y_prime, ref):
    return max(np.max(np.abs(u - v)) / np.max(np.abs(v)) for u, v in zip((Y, Y_prime), ref))


# the seven equations of state of the benchmark's surface-ode workload
_BENCH_LAYERS = {
    "P(2,4)": slform.Polytropic(2, 4), "P(2,3)": slform.Polytropic(2, 3),
    "P(1,5)": slform.Polytropic(1, 5), "P(3,2)": slform.Polytropic(3, 2),
    "LT(1,4,2.5)": slform.LinearThermal(1, 4, 2.5),
    "LT(2,3,4)": slform.LinearThermal(2, 3, 4), "LT(1,4,1.5)": slform.LinearThermal(1, 4, 1.5),
}


@pytest.mark.parametrize("lam", [0.6, 2.0])
@pytest.mark.parametrize("name", sorted(_BENCH_LAYERS))
def test_magnus_agrees_with_dop853(name, lam):
    form = slform.CanonicalForm(_BENCH_LAYERS[name])
    tr = slform.integrate_canonical(form, lam, X_max=40.0)
    assert _rel_error(tr.Y, tr.Y_prime, _oracle(form, lam, tr.X_grid)) < 1e-8
    assert tr.substeps >= 4 and tr.error_estimate <= 1e-10


def test_magnus_is_sixth_order():
    # at a fixed output grid each doubling of the steps per interval
    # halves h and should cut the error 64-fold; on 200 intervals the
    # errors run from 6e-6 down to 2.5e-11, all above DOP853's own
    form = slform.CanonicalForm(slform.Polytropic(2, 4))
    grid = np.linspace(0.0, 50.0, 201)
    ref = _oracle(form, 1.0, grid)
    errs = [_rel_error(*slform._propagate(form, 1.0, grid[1], 200, m)[0], ref)
            for m in (1, 2, 4, 8)]
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    assert all(50.0 <= r <= 80.0 for r in ratios), ratios


def test_magnus_error_within_rtol():
    # Q falls to about -1200 here, so the steps per interval, and with
    # them the error, follow rtol
    form = slform.CanonicalForm(slform.LinearThermal(1, 4, 1.2))
    ref = None
    for rtol in (1e-6, 1e-8, 1e-10):
        tr = slform.integrate_canonical(form, 1.0, X_max=60.0, rtol=rtol)
        if ref is None:
            ref = _oracle(form, 1.0, tr.X_grid)
        err = _rel_error(tr.Y, tr.Y_prime, ref)
        assert err <= 10.0 * rtol
        assert tr.error_estimate <= rtol
        assert 0.5 <= err / tr.error_estimate <= 2.0


def test_magnus_stalls_on_an_unreachable_rtol():
    form = slform.CanonicalForm(slform.Polytropic(2, 4))
    with pytest.raises(NumericalError, match="roundoff keeps it above rtol"):
        slform.integrate_canonical(form, 1.0, X_max=60.0, rtol=1e-15)


def test_magnus_keeps_doubling_while_steps_are_unresolved():
    # Q reaches -7500, so at 4-8 steps per interval each step turns the
    # solution by several radians and the first doublings cut the
    # estimate by less than 4x; that is not yet roundoff
    form = slform.CanonicalForm(slform.LinearThermal(1, 4, 1.05))
    tr = slform.integrate_canonical(form, 1.0, X_max=100.0, rtol=1e-10)
    assert tr.error_estimate <= 1e-10
    # every level computed is listed: from 2 steps per interval, doubling,
    # up to the one kept
    levels = tr.levels
    assert levels[0] == 2 and levels[-1] == tr.substeps and len(levels) >= 4
    assert all(b == 2 * a for a, b in zip(levels, levels[1:]))


def test_doubling_estimate_floor_and_non_finite_solutions():
    Y = np.linspace(0.0, 1.0, 11)
    # identical solutions read the 64 eps floor, not 0
    assert slform._doubling_estimate((Y, Y), (Y, Y)) == 64.0 * np.finfo(float).eps
    # a difference of 63e-12 relative reads 1e-12 (order 6)
    est = slform._doubling_estimate((Y * (1.0 + 63e-12), Y), (Y, Y))
    assert est == pytest.approx(1e-12, rel=1e-3)
    # a NaN in either component, or an inf, is never read as converged
    bad = Y.copy()
    bad[5] = np.nan
    for coarse, fine in (((Y, Y), (Y, bad)), ((Y, bad), (Y, Y)), ((Y, Y), (bad, Y))):
        assert math.isnan(slform._doubling_estimate(coarse, fine))
    bad[5] = np.inf
    assert not math.isfinite(slform._doubling_estimate((Y, Y), (Y, bad)))


def test_prefix_products_match_sequential_products():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((4, 37))
    P = slform._prefix_products(T)
    acc = np.eye(2)
    for k in range(T.shape[1]):
        acc = T[:, k].reshape(2, 2) @ acc
        assert np.allclose(P[:, k].reshape(2, 2), acc, rtol=1e-12, atol=1e-12)


def _same_bits(u, v):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return u.shape == v.shape and u.tobytes() == v.tobytes()


class _FlatPotential:
    """A canonical form whose Q is the constant ``level``."""

    def __init__(self, level):
        self.level = level

    def Q(self, X):
        return np.full(np.shape(X), self.level)


# (form, lam): the seven benchmark layers at lam 1, where every polytrope
# has steps with k**2 > 0 near X = 0, a flat potential at lam = Q, where
# every kappa is 0, and one above lam, where every step takes cosh/sinh
_ORACLE_CASES = {
    **{name: (slform.CanonicalForm(eos), 1.0) for name, eos in _BENCH_LAYERS.items()},
    "flat-at-lam": (_FlatPotential(1.25), 1.25),
    "flat-above-lam": (_FlatPotential(2.0), 1.0),
}


@pytest.mark.parametrize("m", [4, 8, 16, 32])
@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
def test_propagate_is_bit_identical_to_the_allocating_kernels(name, m):
    # 2100 intervals over X in [0, 60]: two blocks of steps even at m = 4
    form, lam = _ORACLE_CASES[name]
    H = 60.0 / 2100
    (Y, Yp), turn = slform._propagate(form, lam, H, 2100, m)
    (Y0, Yp0), turn0 = magnus_oracle._propagate(form, lam, H, 2100, m,
                                                steps=magnus_oracle._magnus6_steps, nodes=3)
    assert _same_bits(Y, Y0) and _same_bits(Yp, Yp0)
    assert _same_bits(turn, turn0)


@pytest.mark.parametrize("lam", [0.6, 2.0])
@pytest.mark.parametrize("name", sorted(_BENCH_LAYERS))
def test_propagate_agrees_with_the_fourth_order_oracle(name, lam):
    # the two-node fourth-order step shares no code with the three-node
    # one; at 64 steps per interval both are within roundoff of the
    # solution, about 1e-13 here
    form = slform.CanonicalForm(_BENCH_LAYERS[name])
    n_int = int(slform.grid_points(lam, 40.0)) - 1
    H = 40.0 / n_int
    new, _ = slform._propagate(form, lam, H, n_int, 64)
    ref, _ = magnus_oracle._propagate(form, lam, H, n_int, 64)
    assert _rel_error(*new, ref) < 2e-10


def test_oracle_cases_take_both_step_branches():
    h = 60.0 / 2100 / 4
    for name, grows in (("P(2,4)", True), ("LT(1,4,2.5)", False),
                        ("flat-above-lam", True), ("flat-at-lam", False)):
        form, lam = _ORACLE_CASES[name]
        T, _ = slform._magnus_steps(form, lam, h, 0, 64)
        # a growing step has cosh(kappa) > 1 as the mean of its diagonal
        assert bool(np.any(0.5 * (T[0] + T[3]) > 1.0)) == grows, name
    # kappa = 0 everywhere: exp(Omega) = I + Omega with delta = fbar = 0
    T, turn = slform._magnus_steps(_FlatPotential(1.25), 1.25, h, 0, 64)
    assert turn == 0.0 and np.all(T == np.array([[1.0], [h], [0.0], [1.0]]))


@pytest.mark.parametrize("n", [1, 2, 3, 37, 1000])
def test_prefix_products_are_bit_identical_to_the_oracle(n):
    T = np.random.default_rng(n).standard_normal((4, n))
    before = T.copy()
    assert _same_bits(slform._prefix_products(T), magnus_oracle._prefix_products(T))
    assert _same_bits(T, before)


def test_slope_checks_are_bit_identical_to_the_oracle(monkeypatch):
    calls = []
    slope_check = slform._slope_check

    def recording(name, fn, eos, exponent):
        chk = slope_check(name, fn, eos, exponent)
        calls.append((chk, magnus_oracle._slope_check(name, fn, eos, exponent)))
        return chk

    monkeypatch.setattr(slform, "_slope_check", recording)
    for eos in _BENCH_LAYERS.values():
        slform.classify_sl_case(eos)
    # one check on each of the six integrable layers, four on the WKB one
    assert len(calls) == 10
    for new, old in calls:
        assert (new.name, new.integrable) == (old.name, old.integrable)
        assert _same_bits([new.exponent, new.fitted, new.tail_ratio],
                          [old.exponent, old.fitted, old.tail_ratio])
