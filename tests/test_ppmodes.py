"""Sparse block fields, the edge-mode ladder and its min-max interlacing."""

import numpy as np
import pytest

from lawe_spectra import discrete, ppmodes, spectra
from lawe_spectra.errors import ValidationError

import discrete_oracle


@pytest.fixture(scope="module")
def dsp():
    return ppmodes.construct_dsp(n=3000)


@pytest.fixture(scope="module")
def edge_modes(dsp):
    pd = ppmodes.theorem_model(dsp)
    op = discrete.assemble_jacobi(pd, dsp.extent, i_start=1)
    return op, ppmodes.detect_edge_eigenvalues(op, dsp)


def test_block_layout(dsp):
    assert dsp.blocks[:4] == ((6, 4), (15, 4), (26, 4), (41, 4))
    assert dsp.m_max == 70
    assert dsp.extent == 2939
    for m, (s, L) in enumerate(dsp.blocks, start=1):
        assert L >= 4 and L % 2 == 0
        assert s > dsp.spacing * m ** (dsp.p + 1.0)
    # at least two empty shells between consecutive blocks
    for (s0, L0), (s1, _) in zip(dsp.blocks, dsp.blocks[1:]):
        assert s1 - (s0 + L0) >= 3


def test_construct_validation():
    with pytest.raises(ValidationError, match="1/2 < alpha < 1"):
        ppmodes.construct_dsp(alpha=1.2, n=100)
    with pytest.raises(ValidationError, match="1/3 < p"):
        ppmodes.construct_dsp(p=0.2, n=100)
    with pytest.raises(ValidationError, match="spacing must be positive"):
        ppmodes.construct_dsp(spacing=0.0, n=100)
    with pytest.raises(ValidationError, match="no block fits"):
        ppmodes.construct_dsp(n=8)


def test_field_support(dsp):
    g = dsp.field(200)
    on = np.zeros(201, dtype=bool)
    for s, L in dsp.blocks:
        if s + L > 200:
            break
        on[s:s + L + 1] = True
        i = np.arange(s, s + L + 1)
        assert np.allclose(g[i], i.astype(float) ** -0.8)
    assert np.all(g[~on] == 0.0)
    assert np.all(np.abs(g) <= 6.0 ** -0.8)


def test_theorem_model_normalization(dsp):
    pd = ppmodes.theorem_model(dsp)
    sp = pd.scaling
    # G = 1/kappa makes the limit coupling exactly one
    assert sp.lambda_star == pytest.approx(1.0 / 1.6)
    assert sp.interval == pytest.approx((-2.0, 2.0))
    # canonical strength b = c/(Lambda_star*(4+zeta)) = 0.32
    base = 0.8
    s, L = dsp.blocks[0]
    i = np.arange(s, s + L + 1)
    bump = pd.gamma.scaled[i] - base
    assert np.allclose(bump, 0.32 * i.astype(float) ** -0.8, rtol=1e-12)


def test_ladder_below_lower_edge(edge_modes):
    op, em = edge_modes
    assert em.edge == -2.0
    assert em.count == 41
    assert np.all(em.values < -2.0)
    assert em.values[0] == pytest.approx(-2.1915055, abs=1e-5)
    assert em.values[1] == pytest.approx(-2.0876219, abs=1e-5)
    assert em.values[2] == pytest.approx(-2.0461394, abs=1e-5)
    # ascending eigenvalues means decreasing depths
    assert np.all(np.diff(em.depths) <= 0)


def test_ladder_fit(edge_modes):
    _, em = edge_modes
    slope, r2 = em.ladder_fit()
    assert slope == pytest.approx(-1.4467, abs=2e-3)
    assert r2 == pytest.approx(0.9869, abs=2e-3)


def test_mode_localization(edge_modes):
    _, em = edge_modes
    assert em.blocks[0] == 1
    assert em.in_block[0] == pytest.approx(0.9539, abs=1e-3)
    # only the deepest well traps 90 percent of its mode at this depth
    assert np.count_nonzero(em.in_block >= 0.9) == 1
    # raw displacements blow up at the surface for every detected mode
    assert not np.any(em.dr_bounded)


def test_nested_sections_interlace(dsp):
    # at i_start 1 each section is a leading principal submatrix of the
    # next, so by min-max its k-th eigenvalue bounds the k-th of every
    # longer section, and of the infinite operator, from above: the count
    # below the edge never falls and no value rises
    pd = ppmodes.theorem_model(dsp)
    found = []
    for n in (800, 1500, dsp.extent):
        op = discrete.assemble_jacobi(pd, n, i_start=1)
        glo, ghi = spectra.gershgorin_interval(op.diag, op.offdiag)
        found.append((ppmodes.detect_edge_eigenvalues(op, dsp).values,
                      spectra.default_tol(glo, ghi)))
    counts = [vals.size for vals, _ in found]
    assert counts == sorted(counts) and counts[0] > 0
    for (small, tol_s), (large, tol_l) in zip(found, found[1:]):
        assert np.all(small >= large[:small.size] - 2.0 * max(tol_s, tol_l))


def test_repulsive_field_binds_nothing(dsp):
    # a negative strength (analysis.b) subtracts the canonical field
    pd = ppmodes.theorem_model(dsp, b=-0.32)
    op = discrete.assemble_jacobi(pd, dsp.extent, i_start=1)
    em = ppmodes.detect_edge_eigenvalues(op, dsp)
    assert em.count == 0
    # no ladder to fit: slope and r**2 are None
    assert em.ladder_fit() == (None, None)


def _block_of_per_mode(dsp, shells, mass):
    """Reference assignment: one masked pass over the section per block."""
    best_m, best_frac = 0, 0.0
    total = float(np.sum(mass))
    for m in range(1, dsp.m_max + 1):
        s, L = dsp.blocks[m - 1]
        sel = (shells >= s - 2) & (shells <= s + L + 2)
        frac = float(np.sum(mass[sel])) / total
        if frac > best_frac:
            best_m, best_frac = m, frac
    return best_m, best_frac


@pytest.mark.parametrize("n", [2500, 6000])
def test_block_of_matches_per_mode_loop(n):
    dsp = ppmodes.construct_dsp(n=n)
    op = discrete.assemble_jacobi(ppmodes.theorem_model(dsp), dsp.extent, i_start=1)
    em = ppmodes.detect_edge_eigenvalues(op, dsp)
    # the window of detect_edge_eigenvalues, span floored at one
    glo, ghi = spectra.gershgorin_interval(op.diag, op.offdiag)
    span = max(ghi - glo, 1.0)
    vals, vecs = spectra.eigenpairs_tridiagonal(
        op, window=(glo - 1e-6 * span, em.edge - 1e-9 * span))
    assert np.array_equal(vals, em.values)
    assert vecs.shape[1] >= 30
    ref = [_block_of_per_mode(dsp, op.shells, vecs[:, j] ** 2)
           for j in range(vecs.shape[1])]
    blocks, fractions = dsp.block_of(op.shells, vecs)
    assert blocks.shape == fractions.shape == (vecs.shape[1],)
    assert np.array_equal(blocks, [m for m, _ in ref])
    assert np.allclose(fractions, [f for _, f in ref], rtol=0.0, atol=1e-12)
    # detect_edge_eigenvalues reports the same assignment
    assert np.array_equal(em.blocks, blocks)
    assert np.array_equal(em.in_block, fractions)

    # one mode as a vector gives 0-d results
    m, frac = dsp.block_of(op.shells, vecs[:, 5])
    assert m.shape == frac.shape == ()
    assert (int(m), float(frac)) == (blocks[5], fractions[5])

    # a mode with no mass gets block 0 and fraction 0, silently
    zeroed = vecs[:, :4].copy()
    zeroed[:, 1] = 0.0
    with np.errstate(all="raise"):
        zb, zf = dsp.block_of(op.shells, zeroed)
    assert zb[1] == 0 and zf[1] == 0.0
    assert np.array_equal(zb[[0, 2, 3]], blocks[[0, 2, 3]])


@pytest.mark.parametrize("n", [2500, 6000])
def test_batched_dr_verdicts_match_per_mode_calls(n):
    # a shallow model whose ladder holds both verdicts
    dsp = ppmodes.construct_dsp(0.7, 0.45, 5.0, n=n)
    op = discrete.assemble_jacobi(ppmodes.theorem_model(dsp, eta=0.7, gamma=1.5),
                                  dsp.extent, i_start=1)
    em = ppmodes.detect_edge_eigenvalues(op, dsp)
    vecs = spectra.eigenvectors_inverse_iteration(op.diag, op.offdiag, em.values)
    ref = [discrete_oracle.delta_r_from_X(vecs[:, j], op.pd.dist, i_start=op.i_start)[1]
           for j in range(vecs.shape[1])]
    assert len(ref) >= 30 and True in ref and False in ref
    batched = discrete.delta_r_bounded(vecs, op.pd.dist, i_start=op.i_start)
    assert batched.dtype == bool
    assert batched.tolist() == ref
    assert em.dr_bounded.tolist() == ref
