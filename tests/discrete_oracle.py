"""Single-operator helpers of ``discrete`` kept as test oracles.

No job needs them: jost takes ``np.abs(offdiag)`` itself, ppmodes
batches the displacement verdicts in ``discrete.delta_r_bounded``, which
takes the log-mass term inline, and no job assembles the 2-periodic
comparison operator whose bands ``spectra.band_structure`` gives in
closed form.  The tests check the gauge symmetry, the batched verdicts
and the band edges against them.  :func:`with_interval` lends a section
without a model the essential interval that ``spectrum_fill_report``
measures against.  :func:`band_distance` and :func:`band_report_of_values`
are the value-based band report that ``spectra.band_report`` replaced by
four Sturm counts; the tests apply them to LAPACK values.
"""

from types import SimpleNamespace

import numpy as np

from lawe_spectra.discrete import JacobiOperator, _dr_bounded
from lawe_spectra.spectra import BandReport


def gauge_flipped(op):
    """Unitarily equivalent copy with positive couplings.

    Conjugation by diag((-1)**I) flips the off-diagonal sign and
    leaves the spectrum untouched.
    """
    return JacobiOperator(diag=op.diag, offdiag=-op.offdiag,
                          i_start=op.i_start, pd=op.pd)


def with_interval(op, interval):
    """Copy of ``op`` whose model data holds only ``scaling.interval``."""
    scaling = SimpleNamespace(interval=interval)
    return JacobiOperator(diag=op.diag, offdiag=op.offdiag, i_start=op.i_start,
                          pd=SimpleNamespace(scaling=scaling))


def delta_r_log(X, dist, i_start=1):
    """ln |dr(I)| for a coefficient vector X on shells starting at i_start.

    dr(I) = X(I)/sqrt(M(I)); computed in log space because the shell
    masses underflow long before typical truncation depths.  Entries
    where X vanishes give -inf.
    """
    X = np.asarray(X, dtype=float)
    idx = np.arange(i_start, i_start + X.shape[0])
    with np.errstate(divide="ignore"):
        return np.log(np.abs(X)) - 0.5 * dist.log_shell_mass(idx)


def delta_r_from_X(X, dist, i_start=1):
    """Displacement field dr(I) = X(I)/sqrt(M(I)) and a boundedness verdict.

    The verdict looks only at shells where |X| exceeds 1e-13 max|X|:
    below that an eigenvector out of inverse iteration is roundoff, and
    dividing roundoff by the vanishing shell masses manufactures fake
    growth.  Within that range the sup of |dr| must be attained before
    the last quartile and not be exceeded inside it: ln sup|dr| may rise
    there by at most 1e-6 of max(1, |ln sup|dr||).  The returned field
    itself is unguarded, so entries can overflow to inf where X decays
    slower than sqrt(M).
    """
    X = np.asarray(X, dtype=float)
    log_dr = delta_r_log(X, dist, i_start)
    with np.errstate(over="ignore"):
        dr = np.sign(X) * np.exp(log_dr)
    return dr, _dr_bounded(np.abs(X), log_dr)


def build_two_periodic(beta, mu, eta, n, i_start=1):
    """Finite section of the 2-periodic comparison operator.

    Shell I carries diagonal beta/eta for odd I and beta for even I, with
    constant coupling mu; ``i_start`` fixes the parity of the first row.
    """
    idx = np.arange(i_start, i_start + n)
    diag = np.where(idx % 2 == 1, beta / eta, beta).astype(float)
    offdiag = np.full(n - 1, float(mu))
    return JacobiOperator(diag=diag, offdiag=offdiag, i_start=int(i_start), pd=None)


def band_distance(bs, x):
    """Distance from each x to the union of the two bands of ``bs`` (0 inside)."""
    x = np.asarray(x, dtype=float)
    d = np.full(x.shape, np.inf)
    for lo, hi in bs.bands:
        d = np.minimum(d, np.maximum.reduce([lo - x, x - hi, np.zeros_like(x)]))
    return d


def band_report_of_values(values, bs, pad):
    """The band report of the values x themselves: ``n_off_band`` counts
    the x farther than ``pad`` from the band union, ``n_gap_interior``
    those strictly inside (e1 + pad, e2 - pad)."""
    values = np.asarray(values, dtype=float)
    g_lo, g_hi = bs.gap
    in_gap = (values > g_lo + pad) & (values < g_hi - pad)
    return BandReport(n_values=int(values.size),
                      n_off_band=int(np.count_nonzero(band_distance(bs, values) > pad)),
                      n_gap_interior=int(np.count_nonzero(in_gap)))


def negated(op):
    """The section -op, whose eigenvalues are those of ``op`` negated."""
    return JacobiOperator(diag=-np.asarray(op.diag, float), offdiag=op.offdiag,
                          i_start=op.i_start, pd=op.pd)
