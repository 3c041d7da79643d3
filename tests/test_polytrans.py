"""Grading transform, scaled stiff systems and displacement growth."""

import decimal
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lawe_spectra import discrete, model, polytrans, spectra
from lawe_spectra.errors import ValidationError

import discrete_oracle
import grading_oracle
import model_oracle

HALF_LOG2 = 0.5 * math.log(2.0)


@pytest.fixture(scope="module")
def stiff_pd():
    dist = model.build_mass_distribution(0.5, 2.0, N=2100)
    gp = model.gamma_profile(dist, "constant", value=2.0)
    return model.build_pd_distribution(dist, gp, pressure_mode="polytrope")


@pytest.fixture(scope="module")
def stiff_sys(stiff_pd):
    return polytrans.build_scaled_system(stiff_pd, 2000)


def _alpha(system):
    """alpha(I) = floor(I/2) on shells I = 1..n."""
    return np.arange(1, system.n + 1) // 2


def _weighted_operator(system):
    """n x n section of the weighted-formulation matrix T.

    Conjugating -W**2 X = A X by H moves the beta part of the diagonal
    into the shell-local frequencies; what is left is the vanishing
    diagonal theta*nu**(2*alpha) with the couplings mu.  Its essential
    spectrum is the single band [-2*mu_inf, 2*mu_inf].
    """
    diag = system.theta * system.nu ** (2.0 * _alpha(system).astype(float))
    return discrete.JacobiOperator(diag=diag, offdiag=-system.mu[:-1].copy(), i_start=1)


# ---------------------------------------------------------------------------
# grading transform


def test_grading_exponents_values():
    p, q = polytrans.grading_exponents(5)
    assert p.tolist() == [0, -1, -2, -4, -6]
    assert q.tolist() == [0, 0, 1, 2, 4]
    x, y = Fraction(2), Fraction(3)
    assert [x ** int(a) * y ** int(b) for a, b in zip(p, q)] == [
        1, Fraction(1, 2), Fraction(3, 4), Fraction(9, 16), Fraction(81, 64)]
    with pytest.raises(ValidationError, match="need n >= 1"):
        polytrans.grading_exponents(0)


@pytest.mark.parametrize("x, y", [(Fraction(2), Fraction(3)),
                                  (Fraction(-7, 4), Fraction(5, 9))])
def test_oracle_matches_exponents(x, y):
    # the running products of the rational oracle are the monomials
    # x**p * y**q, for every size the CLI draws
    for n in range(1, 65):
        p, q = polytrans.grading_exponents(n)
        assert grading_oracle.diag_transform(x, y, n) == [
            x ** int(a) * y ** int(b) for a, b in zip(p, q)]


def test_two_sided_product_pattern():
    # D(y,x)*D(x,y) entrywise equals (x*y)**-floor(j/2)
    p, q = polytrans.grading_exponents(64)
    assert np.array_equal(p + q, -(np.arange(1, 65) // 2))
    x, y = Fraction(2), Fraction(3)
    prod = [l * r for l, r in zip(grading_oracle.diag_transform(y, x, 4),
                                  grading_oracle.diag_transform(x, y, 4))]
    assert prod == [1, Fraction(1, 6), Fraction(1, 6), Fraction(1, 36)]


def test_similarity_check_rational_exact():
    n = 8
    a = [Fraction(k + 1, 3) for k in range(n)]
    b = [Fraction(2 - k, 5) or Fraction(1, 5) for k in range(n - 1)]
    c = [Fraction(k + 2, 7) for k in range(n - 1)]
    x, y = Fraction(3, 2), Fraction(5, 7)
    chk = polytrans.similarity_check(a, b, c, x, y)
    assert chk.exact
    assert grading_oracle.residual(a, b, c, x, y) == 0
    assert chk.n == n


def test_similarity_check_float_near_exact():
    rng = np.random.default_rng(2)
    n = 10
    a, b, c = rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n - 1), rng.uniform(0.5, 2, n - 1)
    chk = polytrans.similarity_check(list(a), list(b), list(c), 1.25, 0.8)
    # the exponent certificate depends on n only, so float inputs pass it
    assert chk.exact
    assert chk.max_residual < 1e-12
    # doubles are rationals: evaluated exactly, the identity leaves nothing
    assert grading_oracle.residual(a, b, c, 1.25, 0.8) == 0


@pytest.mark.parametrize("which", [0, 1], ids=["p", "q"])
def test_mutated_exponent_fails_certificate(monkeypatch, which):
    n = 9
    exact_exponents = polytrans.grading_exponents
    for k in range(n):
        def mutated(m, k=k):
            pq = list(exact_exponents(m))
            pq[which][k] += 1
            return tuple(pq)

        monkeypatch.setattr(polytrans, "grading_exponents", mutated)
        chk = polytrans.similarity_check([1.0] * n, [1.0] * (n - 1), [1.0] * (n - 1),
                                         1.5, 0.5)
        assert not chk.exact, k


def test_similarity_check_float_overflow_is_quiet():
    # x**-1024 overflows; the residual reads inf without a numpy warning,
    # and inf*0 entries (NaN) stay out of the maximum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chk = polytrans.similarity_check([1.0] * 64, [1.0] * 63, [1.0] * 63, 0.3, 1.7)
    assert chk.exact
    assert chk.max_residual == math.inf


def test_similarity_check_validation():
    with pytest.raises(ValidationError, match="len"):
        polytrans.similarity_check([1, 2], [1], [1, 2], 2, 3)
    with pytest.raises(ValidationError, match="nonzero"):
        polytrans.similarity_check([1, 2], [1], [1], 0, 3)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_similarity_identity_exact_on_rationals(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))

    def frac(lo=1):
        return Fraction(int(rng.integers(lo, 10)), int(rng.integers(1, 10)))

    a = [frac(-9) for _ in range(n)]
    b = [frac() for _ in range(n - 1)]
    c = [frac() for _ in range(n - 1)]
    x, y = frac(), frac()
    chk = polytrans.similarity_check(a, b, c, x, y)
    assert chk.exact
    assert grading_oracle.residual(a, b, c, x, y) == 0


# ---------------------------------------------------------------------------
# scaled system assembly


def test_scaled_limits_balanced(stiff_sys):
    s = stiff_sys
    assert s.nu == 0.5
    assert s.theta == pytest.approx(4.0)
    assert s.mu_inf == pytest.approx(4.0, abs=1e-14)
    assert s.beta_inf == pytest.approx(6.0, abs=1e-13)
    # the couplings and diagonal data reach their limits exactly
    assert s.mu[-1] == pytest.approx(4.0, abs=1e-12)
    assert s.beta[-1] == pytest.approx(6.0, abs=1e-12)
    assert np.all(s.mu[1000:] == 4.0)
    assert np.all(s.beta[1000:] == 6.0)


def test_scaled_operator_layout(stiff_sys):
    op = stiff_sys.operator()
    assert np.array_equal(op.offdiag, -stiff_sys.mu[:-1])
    assert np.array_equal(op.diag, stiff_sys.diag)
    w = _weighted_operator(stiff_sys)
    alpha = _alpha(stiff_sys).astype(float)
    assert np.allclose(w.diag, 4.0 * 0.5 ** (2.0 * alpha), rtol=1e-14)
    # alternating tail of the scaled diagonal: -beta/nu, -beta
    assert stiff_sys.diag[-1] == pytest.approx(-6.0, abs=1e-10)
    assert stiff_sys.diag[-2] == pytest.approx(-12.0, abs=1e-10)


def test_scaled_system_validation(stiff_pd):
    with pytest.raises(ValidationError, match="need 2 <= n"):
        polytrans.build_scaled_system(stiff_pd, stiff_pd.dist.N)
    dist = stiff_pd.dist
    gp3 = model.gamma_profile(dist, "constant", value=3.0)
    pd3 = model.build_pd_distribution(dist, gp3, pressure_mode="polytrope")
    with pytest.raises(ValidationError, match=r"nu = eta\*\*-e3 must lie in \(0, 1\)"):
        polytrans.build_scaled_system(pd3, 100)


def test_scaled_system_refuses_an_overflowing_base(stiff_pd):
    # Gamma 2000 at gamma 2 gives e3 = 1997, and eta**-e3 used to raise a
    # bare OverflowError
    dist = stiff_pd.dist
    gp = model.gamma_profile(dist, "constant", value=2000.0)
    pd = model.build_pd_distribution(dist, gp, pressure_mode="polytrope")
    with pytest.raises(ValidationError, match=r"eta 0.5 with gamma 2.0 and Gamma 2000.0 "
                                              r"give e3 = 1997.0"):
        polytrans.build_scaled_system(pd, 100)


def test_limit_coupling_by_profile_kind():
    dist = model.build_mass_distribution(0.5, 2.0, N=1200)
    pd_geo = model.build_pd_distribution(dist, pressure_mode="limit")
    with pytest.raises(ValidationError, match="trivial zero-coupling limit"):
        polytrans.build_scaled_system(pd_geo, 1190)
    # a constant profile goes with the polytrope only; under hse it once
    # gave a scaled system with a NaN limit coupling
    with pytest.raises(ValidationError, match='"hse" requires a geometric Gamma profile'):
        model.build_pd_distribution(
            dist, model.gamma_profile(dist, "constant", value=2.0), pressure_mode="hse")


@pytest.mark.parametrize("eta, gamma, Gamma", [(0.5, 2.0, 2.0), (0.45, 1.8, 2.3),
                                               (0.3, 1.5, 1.3), (0.5, 2.0, 2.8),
                                               (0.5, 2.0, 3.0), (0.05, 3.5345, 2.0)])
def test_closed_form_coupling_matches_the_raw_route(eta, gamma, Gamma):
    # the raw route divides P/M by the shell width; in floats both
    # underflow past I*ln(1/eta) of about 745 and once gave 0/0 = NaN, so
    # the oracle takes it in 40-digit decimals.  e3 runs from -1.85 to
    # +0.53; growing couplings are compared up to e**700, short of overflow
    dist = model.build_mass_distribution(eta, gamma, N=2100)
    pd = model.build_pd_distribution(dist, model.gamma_profile(dist, "constant", value=Gamma),
                                     pressure_mode="polytrope")
    i_hi = 2000 if pd.e3 >= 0.0 else min(2000, int(700.0 / (pd.e3 * math.log(eta))))
    raw = model_oracle.polytrope_coupling_decimal(pd, 1, i_hi)
    ref = np.array([float(g) for g in raw])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = discrete.coupling_values(pd, 1, i_hi)
    tiny = np.finfo(float).tiny
    normal = ref >= tiny
    assert np.max(np.abs(got[normal] / ref[normal] - 1.0)) < 1e-13
    # below the normal range the coupling fades to 0.0 with the true value
    assert np.all(np.abs(got[~normal] - ref[~normal]) <= tiny)
    if pd.e3 >= 0.0:
        return
    # the scaled couplings mu = nu**I * G3(I), nu = eta**-e3, in decimals too
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ln_nu = -decimal.Decimal(pd.e3) * decimal.Decimal(eta).ln()
        mu = np.array([float(g * (i * ln_nu).exp()) for i, g in enumerate(raw, start=1)])
    s = polytrans.build_scaled_system(pd, 2000)
    assert np.max(np.abs(s.mu[:i_hi] / mu - 1.0)) < 1e-13
    # r(I) -> R_star: mu approaches its limit from below
    assert np.all(np.diff(s.mu) >= 0.0)
    assert s.mu[-1] == pytest.approx(s.mu_inf, rel=1e-15)


@pytest.mark.parametrize("mode", ["limit", "hse"])
def test_scaled_system_refuses_a_geometric_profile(mode):
    dist = model.build_mass_distribution(0.5, 2.0, N=400)
    pd = model.build_pd_distribution(dist, pressure_mode=mode)
    with pytest.raises(ValidationError, match=f"got pressure_mode '{mode}'; geometric "
                                              f"profiles scale to the trivial zero-coupling"):
        polytrans.build_scaled_system(pd, 300)


# ---------------------------------------------------------------------------
# weighted formulation


def test_weighted_section_fills_single_band(stiff_pd):
    sys = polytrans.build_scaled_system(stiff_pd, 1200)
    op = discrete_oracle.with_interval(_weighted_operator(sys), (-8.0, 8.0))
    rep = spectra.spectrum_fill_report(op, pad=0.05)
    assert rep.fills
    assert rep.n_outliers == 0
    assert rep.max_gap == pytest.approx(0.0208, abs=5e-4)
    assert rep.n_inside == 1200


def test_negated_band_structure(stiff_pd):
    sys = polytrans.build_scaled_system(stiff_pd, 1200)
    bs = sys.limit_band_structure()
    assert bs.e1 == pytest.approx(6.0)
    assert bs.e2 == pytest.approx(12.0)
    assert bs.e_minus == pytest.approx(0.4559963, abs=1e-6)
    assert bs.e_plus == pytest.approx(17.5440037, abs=1e-6)
    op = sys.operator()
    rep = spectra.band_report(op, bs, pad=0.05)
    # finitely many discrete strays survive outside the essential bands
    assert rep.n_off_band == 4
    neg = -scipy.linalg.eigvalsh_tridiagonal(op.diag, op.offdiag)
    strays = np.sort(neg[discrete_oracle.band_distance(bs, neg) > 0.05])
    assert strays == pytest.approx([-29.7608, -1.0383, 7.4461, 11.9277], abs=2e-3)


def test_local_frequency_slope(stiff_sys):
    lf = polytrans.local_frequencies(stiff_sys, 0.0, i_min=2)
    assert lf.slope() == pytest.approx(HALF_LOG2, abs=1e-12)
    # nonzero lam only perturbs the tail fit at the 1e-7 level
    lf1 = polytrans.local_frequencies(stiff_sys, -1.0, i_min=2)
    assert lf1.slope() == pytest.approx(HALF_LOG2, rel=1e-5)


def test_local_frequencies_start_at_the_first_admissible_shell(stiff_sys):
    # shell 1 is evanescent at lam = 0 (see the guard test below)
    lf = polytrans.local_frequencies(stiff_sys, 0.0)
    assert int(lf.shells[0]) == 2
    ref = polytrans.local_frequencies(stiff_sys, 0.0, i_min=2)
    assert np.array_equal(lf.log_omega, ref.log_omega)
    # far above every beta term no shell is admissible
    with pytest.raises(ValidationError, match="no shell is admissible"):
        polytrans.local_frequencies(stiff_sys, 1e6)


def test_local_frequency_evanescent_guard(stiff_sys):
    with pytest.raises(ValidationError, match="evanescent region, try i_min >= 2"):
        polytrans.local_frequencies(stiff_sys, 0.0, i_min=1)
    with pytest.raises(ValidationError, match="i_min out of range"):
        polytrans.local_frequencies(stiff_sys, 0.0, i_min=0)


def test_cross_formulation_identity(stiff_pd, stiff_sys):
    # X = nu**alpha * Y turns a weighted-formulation tail solution into a
    # solution of the raw rows with shell-local frequencies:
    # (A X)(I) = -omega(I)**2 X(I)
    sys = stiff_sys
    op = discrete.assemble_jacobi(stiff_pd, 70, i_start=1)
    G2, G3 = op.diag, -op.offdiag
    for lam in (0.0, -1.0, 2.5):
        idx = np.arange(2, 61)
        alpha = idx // 2
        rhs = sys.theta * sys.nu ** (2.0 * alpha.astype(float)) - lam
        Y = np.empty(idx.size)
        y_prev, y_cur = 0.0, 1.0
        Y[0] = y_cur
        for k in range(idx.size - 1):
            i = int(idx[k])
            y_next = (rhs[k] * y_cur - sys.mu[i - 2] * y_prev) / sys.mu[i - 1]
            y_prev, y_cur = y_cur, y_next
            Y[k + 1] = y_cur
        X = sys.nu ** alpha.astype(float) * Y
        om2 = (-lam + sys.beta[idx - 1] * sys.nu ** (2.0 * alpha - idx)) \
            * sys.nu ** (-2.0 * alpha.astype(float))
        worst = 0.0
        for k in range(1, idx.size - 1):
            I = int(idx[k])
            row = -G3[I - 2] * X[k - 1] + G2[I - 1] * X[k] - G3[I - 1] * X[k + 1]
            scale = abs(G3[I - 2] * X[k - 1]) + abs(G2[I - 1] * X[k]) + abs(G3[I - 1] * X[k + 1])
            worst = max(worst, abs(row + om2[k] * X[k]) / scale)
        assert worst < 1e-10


def test_delta_r_growth_balanced(stiff_sys):
    gr = polytrans.delta_r_growth(stiff_sys, 0.0)
    assert abs(gr.solution_rate) < 1e-10
    assert gr.theory_displacement_rate == pytest.approx(HALF_LOG2, abs=1e-15)
    assert gr.displacement_rate == pytest.approx(HALF_LOG2, rel=1e-12)


def test_delta_r_growth_outside_band(stiff_sys):
    # lam = 10 sits beyond the weighted band [-8, 8]; the recurrence
    # solution grows like 2**I (root of 4*(s + 1/s) = 10)
    gr = polytrans.delta_r_growth(stiff_sys, 10.0)
    assert gr.solution_rate == pytest.approx(math.log(2.0), rel=0.05)


@pytest.mark.parametrize("lam", [0.0, 10.0])
def test_delta_r_growth_matches_the_numpy_scalar_loop(stiff_sys, lam):
    # the recurrence runs on Python floats: the same IEEE operations as on
    # NumPy scalars, so both rates agree bit for bit, inside the band and
    # beyond it, where the solution is rescaled past 1e250
    n, nu, mu = stiff_sys.n, stiff_sys.nu, stiff_sys.mu
    idx = np.arange(1, n + 1)
    rhs = stiff_sys.theta * np.exp(2.0 * (idx // 2) * math.log(nu)) - lam
    log_abs = np.empty(n)
    log_abs[0] = 0.0
    y_prev, y_cur, log_scale = np.float64(0.0), np.float64(1.0), 0.0
    for k in range(n - 1):
        y_prev, y_cur = y_cur, (rhs[k] * y_cur - (mu[k - 1] if k else 0.0) * y_prev) / mu[k]
        m = max(abs(y_prev), abs(y_cur))
        if m > 1e250:
            y_prev, y_cur, log_scale = y_prev / m, y_cur / m, log_scale + math.log(m)
        log_abs[k + 1] = log_scale + math.log(abs(y_cur))
    disp = (log_abs + (idx // 2) * math.log(nu)
            - 0.5 * stiff_sys.pd.dist.log_shell_mass(idx))
    gr = polytrans.delta_r_growth(stiff_sys, lam)
    assert gr.solution_rate == polytrans._envelope_fit(idx, log_abs)
    assert gr.displacement_rate == polytrans._envelope_fit(idx, disp)


def test_delta_r_growth_guards(stiff_sys):
    with pytest.raises(ValidationError, match="n = 8 leaves too short a range"):
        polytrans.delta_r_growth(polytrans.build_scaled_system(stiff_sys.pd, 8), 0.0)
    # the smallest C_star leaves the innermost couplings subnormal or zero
    dist = model.build_mass_distribution(0.99, 2.0, N=60)
    pd = model.build_pd_distribution(dist, model.gamma_profile(dist, "constant", value=2.0),
                                     pressure_mode="polytrope", C_star=5e-324)
    with pytest.raises(ValidationError, match="underflow to zero"):
        polytrans.delta_r_growth(polytrans.build_scaled_system(pd, 50), 0.0)


def test_unbalanced_scaling_base():
    # gamma=3/2 with Gamma=5/2 gives e3 = -5/4 and nu = eta**(5/4)
    dist = model.build_mass_distribution(0.5, 1.5, N=1300)
    gp = model.gamma_profile(dist, "constant", value=2.5)
    pd = model.build_pd_distribution(dist, gp, pressure_mode="polytrope")
    sys = polytrans.build_scaled_system(pd, 1200)
    assert pd.e3 == pytest.approx(-1.25)
    assert sys.nu == pytest.approx(0.5 ** 1.25, rel=1e-15)
    assert sys.mu_inf == pytest.approx(4.2044821, abs=1e-6)
    assert sys.beta_inf == pytest.approx(5.4730178, abs=1e-6)
    assert sys.mu[-1] == pytest.approx(sys.mu_inf, rel=1e-12)
    assert sys.beta[-1] == pytest.approx(sys.beta_inf, rel=1e-12)
    lf = polytrans.local_frequencies(sys, 0.0, i_min=2)
    assert lf.slope() == pytest.approx(0.5 * math.log(1.0 / sys.nu), rel=1e-12)
    gr = polytrans.delta_r_growth(sys, 0.0)
    expected = 0.5 * (1.5 * math.log(2.0) - math.log(1.0 / sys.nu))
    assert gr.theory_displacement_rate == pytest.approx(expected, abs=1e-15)
    assert gr.displacement_rate == pytest.approx(expected, rel=1e-4)
