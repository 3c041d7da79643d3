"""Operator assembly, tail classification and displacement recovery."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lawe_spectra import discrete, model
from lawe_spectra.discrete import CONVERGENCE_ORDER, classify_tail
from lawe_spectra.errors import ValidationError

import discrete_oracle


@pytest.fixture(scope="module")
def canonical_op():
    dist = model.build_mass_distribution(0.5, 2.0, N=60)
    pd = model.build_pd_distribution(dist, pressure_mode="limit")
    return discrete.assemble_jacobi(pd, 40, i_start=1)


def test_section_shape_and_signs(canonical_op):
    op = canonical_op
    assert op.n == 40
    assert op.diag.shape == (40,)
    assert op.offdiag.shape == (39,)
    assert op.i_start == 1
    assert np.array_equal(op.shells, np.arange(1, 41))
    # stored off-diagonal is -G3 with G3 > 0
    assert np.all(op.offdiag < 0)


def test_matvec_matches_dense(canonical_op):
    op = canonical_op
    rng = np.random.default_rng(3)
    x = rng.standard_normal(op.n)
    dense = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    assert np.allclose(op.matvec(x), dense @ x, rtol=1e-13, atol=1e-13)


def test_gauge_flip_preserves_spectrum(canonical_op):
    op = canonical_op
    flip = discrete_oracle.gauge_flipped(op)
    assert np.all(flip.offdiag > 0)
    w0 = scipy.linalg.eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True)
    w1 = scipy.linalg.eigh_tridiagonal(flip.diag, flip.offdiag, eigvals_only=True)
    assert np.allclose(w0, w1, rtol=0, atol=1e-12)


def test_coupling_limit(canonical_op):
    pd = canonical_op.pd
    g3 = discrete.coupling_values(pd, 1, 40)
    assert np.all(g3 > 0)
    sp = canonical_op.scaling
    # G3(I) -> kappa * Lambda_star
    assert g3[-1] == pytest.approx(sp.kappa * sp.lambda_star, rel=1e-10)
    with pytest.raises(ValidationError, match="couplings need"):
        discrete.coupling_values(pd, 0, 10)
    with pytest.raises(ValidationError, match="couplings need"):
        discrete.coupling_values(pd, 1, pd.dist.N)


@pytest.mark.parametrize("mode", ["limit", "hse"])
@given(eta=st.floats(0.2, 0.8), gamma=st.floats(1.0, 3.0),
       zeta=st.sampled_from([0.0, -1.0, 2.0]))
@settings(max_examples=10, deadline=None)
def test_section_tail_reaches_the_scaling_limits(mode, eta, gamma, zeta):
    # the interval every verdict is measured against must be the limit of
    # this pressure law's coefficients: under hse the specific pressure
    # tends to q/(1-q) of the limit law's, q = eta**gamma
    dist = model.build_mass_distribution(eta, gamma, N=500)
    op = discrete.assemble_jacobi(
        model.build_pd_distribution(dist, zeta=zeta, pressure_mode=mode), 480, i_start=16)
    sp = op.scaling
    assert sp == op.pd.scaling
    assert op.diag[-1] == pytest.approx(sp.centre, rel=1e-9, abs=1e-9)
    assert -op.offdiag[-1] == pytest.approx(sp.kappa * sp.lambda_star, rel=1e-9)


def test_assembly_validation(canonical_op):
    pd = canonical_op.pd
    with pytest.raises(ValidationError, match="need n >= 2"):
        discrete.assemble_jacobi(pd, 1)
    with pytest.raises(ValidationError, match="i_start must be >= 1"):
        discrete.assemble_jacobi(pd, 5, i_start=0)
    with pytest.raises(ValidationError, match="section reaches shell"):
        discrete.assemble_jacobi(pd, pd.dist.N, i_start=1)


def test_inner_section_is_principal_submatrix(canonical_op):
    pd = canonical_op.pd
    inner = discrete.assemble_jacobi(pd, 20, i_start=3)
    full = canonical_op
    assert np.allclose(inner.diag, full.diag[2:22], rtol=0, atol=0)
    assert np.allclose(inner.offdiag, full.offdiag[2:21], rtol=0, atol=0)


def test_scaling_requires_model(canonical_op):
    bare = discrete.JacobiOperator(diag=np.zeros(4), offdiag=np.zeros(3), i_start=1)
    with pytest.raises(ValidationError, match="no model data"):
        bare.scaling
    assert canonical_op.scaling.interval == pytest.approx((-3.2, 3.2))


# ---------------------------------------------------------------------------
# tail classification


K = np.arange(1, 201, dtype=float)

TAIL_CASES = [
    (5.0 + 1.0 / K, "power", "l2", 1.0),
    (5.0 + K ** -0.8, "power", "l2", 0.8),
    (5.0 + K ** -2.0, "power", "l1", 2.0),
    (5.0 + K ** -2.5, "power", "l1_weighted", 2.5),
    (5.0 + 0.9 ** K, "geometric", "l1_weighted", 0.9),
    (5.0 + K ** -0.3, "power", "limit_only", 0.3),
]


@pytest.mark.parametrize("seq,kind,mode,rate", TAIL_CASES)
def test_classify_tail_known_laws(seq, kind, mode, rate):
    tc = classify_tail(seq, limit=5.0)
    assert tc.kind == kind
    assert tc.mode == mode
    assert tc.rate == pytest.approx(rate, rel=1e-3)
    assert tc.r_squared > 0.999


def test_classify_divergent():
    tc = classify_tail(K ** 0.3, limit=0.0)
    assert tc.mode == "none"
    assert tc.rate == pytest.approx(-0.3, rel=1e-3)


def test_classify_exact_sequences():
    tc = classify_tail(np.full(200, 5.0), limit=5.0)
    assert tc.kind == "exact"
    assert tc.mode == "l1_weighted"
    assert tc.rate == math.inf
    # residuals lost below the roundoff floor count as exact too
    tc = classify_tail(5.0 + 1e-18 * K, limit=5.0)
    assert tc.kind == "exact"


def test_classify_aitken_limit():
    # geometric tails make the Aitken extrapolation exact
    tc = classify_tail(5.0 + 0.9 ** K)
    assert tc.kind == "geometric"
    assert tc.rate == pytest.approx(0.9, rel=1e-6)
    assert tc.limit == pytest.approx(5.0, abs=1e-12)


def test_classify_validation():
    with pytest.raises(ValidationError, match="at least 16"):
        classify_tail(np.ones(8))


@given(r=st.floats(0.55, 0.95), amp=st.floats(0.5, 10.0))
@settings(max_examples=40, deadline=None)
def test_geometric_rate_recovery(r, amp):
    # keep the tail above the classifier's roundoff floor: 0.55**60 ~ 3e-16
    # leaves enough live residuals in the fitted half
    seq = 2.0 + amp * r ** np.arange(1, 61, dtype=float)
    tc = classify_tail(seq, limit=2.0)
    assert tc.kind == "geometric"
    assert tc.mode == "l1_weighted"
    assert tc.rate == pytest.approx(r, rel=1e-4)


def test_convergence_order_nesting():
    assert CONVERGENCE_ORDER == ("none", "limit_only", "l2", "l1", "l1_weighted")


# ---------------------------------------------------------------------------
# coefficient decay toward the limit values


@pytest.mark.parametrize("eta,expected_diag,expected_off", [
    (0.4, -0.90678, -0.91389),
    (0.6, -0.51877, -0.52137),
])
def test_coefficient_decay_follows_eta(eta, expected_diag, expected_off):
    dist = model.build_mass_distribution(eta, 2.0, N=60)
    pd = model.build_pd_distribution(dist, pressure_mode="limit")
    op = discrete.assemble_jacobi(pd, 40, i_start=1)
    sp = op.scaling
    sh = op.shells
    j = np.arange(2, 31)
    with np.errstate(divide="ignore"):  # residual underflows past the fitted slice
        sd = np.polyfit(sh[j], np.log(np.abs(op.diag - sp.centre))[j], 1)[0]
        so = np.polyfit(sh[j], np.log(np.abs(np.abs(op.offdiag) - sp.kappa * sp.lambda_star))[j], 1)[0]
    assert sd == pytest.approx(expected_diag, abs=2e-3)
    assert so == pytest.approx(expected_off, abs=2e-3)
    # both within a few percent of the geometric rate ln(eta)
    assert sd == pytest.approx(math.log(eta), rel=0.03)
    assert so == pytest.approx(math.log(eta), rel=0.03)


def test_half_eta_offdiag_decays_twice_as_fast():
    # at eta = 1/2 the leading eta**I term of the off-diagonal residual
    # cancels; what remains is -1.6*eta**(2I)*(3/4 - eta**I/4)
    dist = model.build_mass_distribution(0.5, 2.0, N=60)
    pd = model.build_pd_distribution(dist, pressure_mode="limit")
    op = discrete.assemble_jacobi(pd, 40, i_start=1)
    sp = op.scaling
    sh = op.shells
    res = np.abs(np.abs(op.offdiag) - sp.kappa * sp.lambda_star)
    j = np.arange(2, 19)
    so = np.polyfit(sh[j], np.log(res[j]), 1)[0]
    assert so == pytest.approx(2.0 * math.log(0.5), rel=0.01)
    I = sh[j].astype(float)
    closed = 1.6 * 0.5 ** (2 * I) * (0.75 - 0.25 * 0.5 ** I)
    assert np.allclose(res[j], closed, rtol=1e-4)
    # the diagonal keeps the plain eta**I rate and stays above roundoff
    # much deeper, so it gets the longer window
    jd = np.arange(2, 31)
    sd = np.polyfit(sh[jd], np.log(np.abs(op.diag - sp.centre))[jd], 1)[0]
    assert sd == pytest.approx(math.log(0.5), rel=0.01)


def test_predict_spectrum_canonical(canonical_op):
    pred = discrete.predict_spectrum(canonical_op)
    assert pred.interval == pytest.approx((-3.2, 3.2))
    assert pred.mode == "l1_weighted"
    assert pred.diag_class.kind == "geometric"
    assert pred.diag_class.rate == pytest.approx(0.5, rel=1e-4)
    assert pred.essential_interval_known
    assert pred.finite_outside_moment
    assert pred.ac_fills_interval
    assert pred.no_eigenvalues_inside
    assert pred.edges_not_eigenvalues


# ---------------------------------------------------------------------------
# displacement recovery


def test_delta_r_log_identity(canonical_op):
    dist = canonical_op.pd.dist
    idx = np.arange(1, 31)
    X = np.sqrt(dist.shell_mass[idx])
    out = discrete_oracle.delta_r_log(X, dist, i_start=1)
    assert np.max(np.abs(out)) < 1e-12


def test_delta_r_bounded_verdicts(canonical_op):
    dist = canonical_op.pd.dist
    idx = np.arange(1, 41, dtype=float)
    log_m = dist.log_shell_mass(idx)
    # dr(I) = 0.9**I: bounded
    X = np.exp(0.5 * log_m + idx * math.log(0.9))
    dr, ok = discrete_oracle.delta_r_from_X(X, dist, i_start=1)
    assert ok
    assert np.allclose(dr, 0.9 ** idx, rtol=1e-10)
    # X constant means dr grows like eta**(-gamma*I/2): unbounded
    dr, ok = discrete_oracle.delta_r_from_X(np.ones(40), dist, i_start=1)
    assert not ok
    assert dr[-1] > 1e10


def test_delta_r_floor_masks_roundoff_tail(canonical_op):
    dist = canonical_op.pd.dist
    idx = np.arange(1, 41, dtype=float)
    log_m = dist.log_shell_mass(idx)
    X = np.exp(0.5 * log_m + idx * math.log(0.9))
    # a roundoff-level tail would blow up dr if it were not masked
    X[-6:] = 1e-15 * np.max(np.abs(X))
    _, ok = discrete_oracle.delta_r_from_X(X, dist, i_start=1)
    assert ok
    assert discrete_oracle.delta_r_from_X(np.zeros(12), dist, i_start=1)[1]


def test_batched_verdicts_match_single_vector_calls(canonical_op):
    dist = canonical_op.pd.dist
    idx = np.arange(3, 43, dtype=float)
    decaying = np.exp(0.5 * dist.log_shell_mass(idx) + idx * math.log(0.9))
    masked = decaying.copy()
    masked[-6:] = 1e-15 * np.max(masked)
    holed = -decaying.copy()
    holed[[0, 7, 20]] = 0.0
    V = np.column_stack([decaying, np.ones(40), masked, np.zeros(40), holed])
    ref = [discrete_oracle.delta_r_from_X(x, dist, i_start=3)[1] for x in V.T]
    assert ref == [True, False, True, True, True]
    assert discrete.delta_r_bounded(V, dist, i_start=3).tolist() == ref
    assert discrete.delta_r_bounded(V[:, :0], dist, i_start=3).shape == (0,)


def test_delta_r_sign_preserved(canonical_op):
    dist = canonical_op.pd.dist
    X = np.array([1.0, -1.0, 1.0, -1.0, 0.0, 1.0])
    dr, _ = discrete_oracle.delta_r_from_X(X, dist, i_start=1)
    assert np.all(np.sign(dr[:4]) == np.sign(X[:4]))
    assert dr[4] == 0.0
