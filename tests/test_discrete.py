"""Operator assembly, coefficient limits and displacement recovery."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lawe_spectra import discrete, model
from lawe_spectra.errors import ValidationError

import discrete_oracle
import model_oracle


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


# ---------------------------------------------------------------------------
# displacement recovery


def test_delta_r_log_identity(canonical_op):
    dist = canonical_op.pd.dist
    idx = np.arange(1, 31)
    X = np.sqrt(model_oracle.shell_masses(dist)[idx])
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
