"""Sparse block perturbations and the point modes they pull off the band.

A decaying field I**-alpha is planted on widely separated shell blocks
and added to the coupling profile.  The perturbation is compact-free
(it tends to zero), so the essential spectrum is untouched, but each
block opens a shallow well that binds an eigenvalue under the lower
band edge; the wells get shallower outward and the eigenvalue ladder
accumulates at the edge from below.

Block m has even length L_m ~ m**p and starts past spacing*m**(p+1);
with 1/2 < alpha < 1 the field is l2 but not l1 summable.

A section at i_start = 1 is a leading principal submatrix of the
infinite operator, so by min-max interlacing its k-th eigenvalue bounds
the k-th eigenvalue of the infinite operator from above.  Every section
eigenvalue below the lower edge therefore certifies an eigenvalue of
the infinite operator at or below it, and a longer section can only
deepen each value and add new ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import (build_mass_distribution, build_pd_distribution,
                    coupling_constant, gamma_profile, profile_constant)
from .discrete import delta_r_bounded
from .spectra import eigenpairs_tridiagonal, gershgorin_interval


@dataclass(frozen=True)
class BumpField:
    """The sparse decaying field.

    ``blocks[m-1] = (s_m, L_m)``: block m covers shells s_m .. s_m + L_m.
    The field equals I**-alpha pointwise on the blocks and vanishes off
    them.
    """

    alpha: float
    p: float
    spacing: float
    blocks: tuple

    @property
    def m_max(self):
        return len(self.blocks)

    @property
    def extent(self):
        """Largest shell index touched by any block."""
        s, L = self.blocks[-1]
        return s + L

    def field(self, n):
        """Field values over shells 0..n (zero off the blocks)."""
        g = np.zeros(n + 1)
        for s, L in self.blocks:
            if s + L > n:
                break
            i = np.arange(s, s + L + 1)
            g[i] = i.astype(float) ** (-self.alpha)
        return g

    def block_of(self, shells, x):
        """(blocks, fractions): for each mode, the block holding the
        largest share of its mass x**2, and that share measured over the
        block widened by two shells.

        ``x`` is one mode or a matrix of modes in columns, with rows
        aligned to the ascending ``shells``; the results take the shape
        of ``x.shape[1:]``.  Ties go to the lower block, and a mode with
        no mass in any block gets block 0 and fraction 0.  Each block
        sums the squares of its own rows only, so no copy of ``x`` is
        made.
        """
        x = np.asarray(x, dtype=float)
        cols = x.reshape(x.shape[0], -1)
        total = np.einsum("ij,ij->j", cols, cols)
        blocks = np.zeros(cols.shape[1], dtype=int)
        fractions = np.zeros(cols.shape[1])
        s, L = np.array(self.blocks).T
        lo = np.searchsorted(shells, s - 2)
        hi = np.searchsorted(shells, s + L + 2, side="right")
        with np.errstate(invalid="ignore"):  # 0/0 for a zero mode never wins
            for m in range(1, self.m_max + 1):
                sub = cols[lo[m - 1]:hi[m - 1]]
                frac = np.einsum("ij,ij->j", sub, sub) / total
                better = frac > fractions
                blocks[better] = m
                fractions[better] = frac[better]
        return blocks.reshape(x.shape[1:]), fractions.reshape(x.shape[1:])


def construct_dsp(alpha=0.8, p=0.5, spacing=5.0, *, n):
    """Lay out the sparse blocks carrying the I**-alpha field.

    L_m = max(4, ceil(m**p) rounded up to even); s_m = ceil(spacing *
    m**(p+1)), strictly beyond spacing*m**(p+1) and pushed right if
    needed to keep at least two empty shells between blocks.  Blocks
    are laid until they would cross shell n - 1.
    """
    if not (0.5 < alpha < 1.0):
        raise ValidationError(f"need 1/2 < alpha < 1, got {alpha!r}")
    if not (1.0 / 3.0 < p < alpha * (p + 1.0) / 2.0):
        raise ValidationError(
            f"need 1/3 < p < alpha*(p+1)/2 = {alpha * (p + 1.0) / 2.0:.4f}, got {p!r}")
    if spacing <= 0.0:
        raise ValidationError(f"spacing must be positive, got {spacing!r}")

    blocks = []
    prev_end = 0
    m = 0
    while True:
        m += 1
        L = max(4, 2 * int(math.ceil(m**p / 2.0)))
        lo = spacing * m ** (p + 1.0)
        s = int(math.ceil(lo))
        if s <= lo:
            s += 1
        s = max(s, prev_end + 3)
        if s + L > n - 1:
            break
        blocks.append((s, L))
        prev_end = s + L
    if not blocks:
        raise ValidationError("no block fits in the requested range")
    return BumpField(alpha=float(alpha), p=float(p), spacing=float(spacing),
                     blocks=tuple(blocks))


def theorem_model(dsp, *, eta=0.5, gamma=2.0, b=None, zeta=0.0):
    """Shell model whose coupling profile carries the sparse field.

    Normalized so the limit coupling is exactly one: Lambda_star =
    1/kappa, giving band edges -zeta*Lambda_star -+ 2.  The canonical
    strength is b = 1/(Lambda_star*K).  b*field is added to the
    profile: a positive b deepens the local wells so eigenvalues
    accumulate at the lower edge from below, and a negative one binds
    nothing under it.  The model has N = extent + 4 shells, so a
    section of ``extent`` shells at i_start = 1 assembles.
    """
    N = dsp.extent + 4
    kappa = coupling_constant(eta, gamma, zeta)
    dist = build_mass_distribution(eta, gamma, G=1.0 / kappa, N=N)
    if b is None:
        # canonical strength 1/(Lambda_star*K), with K = (4+zeta)/c
        c = profile_constant(eta, gamma, zeta)
        b = c / (dist.lambda_star * (4.0 + zeta))
    pert = b * dsp.field(N)
    prof = gamma_profile(dist, "geometric", zeta=zeta, perturbation=pert)
    return build_pd_distribution(dist, prof, zeta=zeta, pressure_mode="limit")


@dataclass(frozen=True)
class EdgeModes:
    """Eigenvalues below the lower band edge and their mode profiles.

    Sorted ascending, so depths |E_m - edge| decrease along the
    detected ladder.  ``blocks`` holds the block of maximal mass per
    mode; ``in_block`` the mass fraction within that block +- 2 shells;
    ``dr_bounded`` the per-mode displacement verdicts.
    """

    edge: float
    values: np.ndarray = field(repr=False)
    blocks: np.ndarray = field(repr=False)
    in_block: np.ndarray = field(repr=False)
    dr_bounded: np.ndarray = field(repr=False)

    @property
    def count(self):
        return int(self.values.size)

    @property
    def depths(self):
        return np.abs(self.values - self.edge)

    def ladder_fit(self):
        """Log-log slope and r**2 of depth against the ladder index.

        Takes the deepest mode per assigned block and fits its depth
        against the block index, matching the per-well depth bound.
        Fewer than three assigned blocks leave nothing to fit: the slope
        and r**2 are then ``None``.
        """
        best = {}
        for v, m in zip(self.values, self.blocks):
            d = abs(v - self.edge)
            if m not in best or d > best[m]:
                best[m] = d
        ms = np.array(sorted(best), dtype=float)
        depths = np.array([best[int(m)] for m in ms])
        keep = ms >= 1      # block 0 holds modes that no block claims
        ms, depths = ms[keep], depths[keep]
        if ms.size < 3:
            return None, None
        lx, ly = np.log(ms), np.log(depths)
        A = np.vstack([lx, np.ones_like(lx)]).T
        coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
        ss = float(np.sum((ly - ly.mean()) ** 2))
        r2 = 1.0 if ss == 0.0 or res.size == 0 else 1.0 - float(res[0]) / ss
        return float(coef[0]), r2


def detect_edge_eigenvalues(op, dsp, *, threads=1):
    """Find every mode below the model's lower essential edge and profile it.

    Each eigenvector is assigned to the block holding the largest share
    of its mass (fraction measured over the block widened by two shells)
    and its displacement field is judged bounded or not via
    delta_r_bounded.
    """
    edge = op.scaling.interval[0]
    glo, ghi = gershgorin_interval(op.diag, op.offdiag)
    span = max(ghi - glo, 1.0)
    lo = glo - 1e-6 * span
    hi = edge - 1e-9 * span
    vals, vecs = eigenpairs_tridiagonal(op, window=(lo, hi), threads=threads)
    if vals.size == 0:
        empty = np.empty(0)
        return EdgeModes(edge=float(edge), values=vals,
                         blocks=np.empty(0, int), in_block=empty,
                         dr_bounded=np.empty(0, bool))

    blocks, in_block = dsp.block_of(op.shells, vecs)
    return EdgeModes(edge=float(edge), values=vals, blocks=blocks, in_block=in_block,
                     dr_bounded=delta_r_bounded(vecs, op.pd.dist, i_start=op.i_start))
