"""Reference Sturm counts for the tests of ``spectra``.

``floored_counts`` is the sequential Sturm recurrence with a LAPACK-style
pivot floor, one row at a time; it shares no code with
``spectra.sturm_counts``, which counts IEEE sign bits with no floor and
cuts long sections into segments.  ``exact_counts`` counts in
``fractions.Fraction`` arithmetic, so it decides even a shift that is an
eigenvalue.
"""

from fractions import Fraction

import numpy as np


def floored_counts(diag, off2, shifts):
    """Number of eigenvalues strictly below each shift.

    Standard Sturm recurrence q <- (d_i - x) - e_{i-1}**2 / q with the
    LAPACK-style pivot floor: a pivot of magnitude at most pivmin is
    replaced by -pivmin, so an exact-zero pivot counts as negative.
    """
    diag = np.asarray(diag, dtype=float)
    off2 = np.asarray(off2, dtype=float)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    pivmin = 1e-290 * max(1.0, float(np.max(off2)) if off2.size else 1.0)
    q = diag[0] - shifts
    np.copyto(q, -pivmin, where=np.abs(q) <= pivmin)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        q = (diag[i] - shifts) - off2[i - 1] / q
        np.copyto(q, -pivmin, where=np.abs(q) <= pivmin)
        count += q < 0.0
    return count


def _sign(a, b):
    """Sign of a + b*eps for a small eps > 0."""
    v = a if a else b
    assert v, "leading minor vanishes to first order"
    return v > 0


def _block_below(diag, off2, s, t):
    """Eigenvalues of one unreduced block below s + t*eps (t = -1 or +1).

    Each leading minor p_k(s + t*eps) = a_k + b_k*eps is carried to first
    order in eps; a minor that vanishes at s has a simple root there (the
    block is unreduced), so its eps term decides its sign.  A negative
    LDL^T pivot p_k / p_{k-1} is a sign change between neighbours.
    """
    a0, b0, a1, b1 = Fraction(0), Fraction(0), Fraction(1), Fraction(0)
    count, prev = 0, True
    for k, d in enumerate(diag):
        e2 = off2[k - 1] if k else Fraction(0)
        a0, b0, a1, b1 = a1, b1, (d - s) * a1 - e2 * a0, (d - s) * b1 - t * a1 - e2 * b0
        sign = _sign(a1, b1)
        count += sign != prev
        prev = sign
    return count


def exact_counts(diag, off2, shift):
    """(eigenvalues strictly below shift, eigenvalues at or below shift).

    Exact in rational arithmetic: the section splits at its zero couplings
    into unreduced blocks, and each block is counted just below and just
    above the shift.  Slow; meant for sections of a few dozen rows.
    """
    d = [Fraction(float(x)) for x in diag]
    e2 = [Fraction(float(x)) for x in off2]
    s = Fraction(float(shift))
    below = at_or_below = 0
    start = 0
    for end in range(1, len(d) + 1):
        if end == len(d) or e2[end - 1] == 0:
            blk_d, blk_e2 = d[start:end], e2[start:end - 1]
            below += _block_below(blk_d, blk_e2, s, -1)
            at_or_below += _block_below(blk_d, blk_e2, s, +1)
            start = end
    return below, at_or_below
