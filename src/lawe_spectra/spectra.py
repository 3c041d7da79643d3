"""Spectra of truncated sections: certified LAPACK eigenpairs and diagnostics.

The full spectrum comes from LAPACK root-free QR (``sterf``).  A window
or an index range comes with its eigenvectors: LAPACK bisection in
compiled code (``stebz``) brackets each value only to the certificate's
width ``tol``, inverse iteration at those values gives the vectors (one
tridiagonal LU factorisation per shift), and a Rayleigh-Ritz step per
cluster polishes the values from the vectors.  Every returned value is
then certified by one vectorized Sturm-count sweep at ``lambda_k -+
tol``, which must place exactly the claimed eigenvalue index inside
``[lambda_k - tol, lambda_k + tol)``; a window must also hold as many
values as the Sturm counts at its ends.  A result that fails the
certificate raises :class:`NumericalError` (the CLI exits 2); there is no
silent fallback.  ``tol`` defaults to :func:`default_tol`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dtbtrs

from .errors import NumericalError, ValidationError
from .discrete import JacobiOperator

#: default eigenvalue tolerance, relative to the Gershgorin span
DEFAULT_RTOL = 1e-10

#: eigenvalues closer than this fraction of the span form one cluster
_CLUSTER_RTOL = 1e-8


def default_tol(glo, ghi):
    """Default eigenvalue tolerance for the Gershgorin interval [glo, ghi].

    ``DEFAULT_RTOL`` times the span, but never below 64 eps times the
    largest |value|.  The span of a nearly scalar section can fall below
    the spacing of doubles near its eigenvalues, and ``sterf`` is accurate
    only to an absolute error of about 10-25 eps times the norm (measured
    on such sections of 50 to 25000 rows).
    """
    return max(DEFAULT_RTOL * max(ghi - glo, 1e-30),
               64.0 * np.finfo(float).eps * max(abs(glo), abs(ghi)))


def _as_diagonals(op_or_diag, offdiag=None):
    if offdiag is None:
        return np.asarray(op_or_diag.diag, float), np.asarray(op_or_diag.offdiag, float)
    return np.asarray(op_or_diag, float), np.asarray(offdiag, float)


def gershgorin_interval(diag, offdiag):
    r = np.zeros(diag.shape[0])
    r[:-1] += np.abs(offdiag)
    r[1:] += np.abs(offdiag)
    return float(np.min(diag - r)), float(np.max(diag + r))


def sturm_counts(diag, off2, shifts, threads=1):
    """Number of eigenvalues strictly below each shift.

    Standard Sturm recurrence q <- (d_i - x) - e_{i-1}**2 / q with the
    LAPACK-style pivot floor: near-zero pivots are replaced by -pivmin so
    the sign count stays well defined.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if threads > 1 and shifts.size >= 4 * threads:
        chunks = np.array_split(shifts, threads)
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda s: sturm_counts(diag, off2, s), chunks))
        return np.concatenate(parts)

    pivmin = 1e-290 * max(1.0, float(np.max(off2)) if off2.size else 1.0)
    # floor each pivot before counting: an exact-zero pivot must count as
    # negative or shifts that annihilate a pivot (zero diagonals, rational
    # midpoints) undercount by one and bisection locks onto the wrong index
    q = diag[0] - shifts
    np.copyto(q, -pivmin, where=np.abs(q) <= pivmin)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        q = (diag[i] - shifts) - off2[i - 1] / q
        np.copyto(q, -pivmin, where=np.abs(q) <= pivmin)
        count += q < 0.0
    return count


def _diagonals_and_tol(op_or_diag, offdiag, tol):
    """(diag, offdiag, glo, ghi, tol) of a finite section; ``tol`` defaults
    to :func:`default_tol`."""
    diag, off = _as_diagonals(op_or_diag, offdiag)
    glo, ghi = gershgorin_interval(diag, off)
    if not (math.isfinite(glo) and math.isfinite(ghi)):
        row = np.flatnonzero(~np.isfinite(diag + np.append(off, 0.0)))[0]
        raise NumericalError(f"tridiagonal section has a non-finite entry in row {row}")
    return diag, off, glo, ghi, default_tol(glo, ghi) if tol is None else tol


def _certify(diag, off, vals, tol, threads, window=None, k_lo=0):
    """Raise NumericalError unless one Sturm sweep places eigenvalue k_lo + j
    in [vals_j - tol, vals_j + tol) for every j, and a window holds as many
    values as the counts at its ends."""
    m = vals.size
    ends = [] if window is None else [window[0], window[1]]
    c = sturm_counts(diag, off * off, np.concatenate([vals - tol, vals + tol, ends]),
                     threads)
    if window is not None:
        k_lo = int(c[-2])
        if int(c[-1]) - k_lo != m:
            raise NumericalError(
                f"Sturm certificate failed: LAPACK finds {m} eigenvalues in the "
                f"window {tuple(window)!r}, the Sturm counts {int(c[-1]) - k_lo}")
    ks = k_lo + np.arange(m)
    bad = np.flatnonzero((c[:m] > ks) | (c[m:2 * m] <= ks))
    if bad.size:
        j = int(bad[0])
        raise NumericalError(
            f"Sturm certificate failed at eigenvalue index {int(ks[j])}: "
            f"value {float(vals[j])!r} with tol {tol:.3e} has {int(c[j])} eigenvalues "
            f"below value - tol and {int(c[m + j])} below value + tol")


def eigenvalues_tridiagonal(op_or_diag, offdiag=None, *, tol=None, threads=1):
    """Full spectrum of a symmetric tridiagonal section, certified by Sturm counts.

    LAPACK root-free QR (``sterf``) gives the values; one Sturm sweep at
    every value -+ ``tol`` then certifies that the k-th eigenvalue lies
    in [value_k - tol, value_k + tol).  ``tol`` defaults to
    :func:`default_tol`; ``threads`` splits the sweep.  Raises
    NumericalError naming the first index that fails.
    """
    diag, off, _, _, tol = _diagonals_and_tol(op_or_diag, offdiag, tol)
    try:
        # sterf, not stemr: the stemr wrapper allocates an n x n
        # eigenvector array even for eigenvalues only
        vals = eigvalsh_tridiagonal(diag, off, check_finite=False, lapack_driver="sterf")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK tridiagonal eigensolver failed: {exc}") from None
    _certify(diag, off, vals, tol, threads)
    return vals


def _check_query(n, window, indices):
    if (window is None) == (indices is None):
        raise ValidationError("pass either window or indices, not both or neither")
    if window is not None and not window[0] < window[1]:
        raise ValidationError(f"empty window {window!r}")
    if indices is not None and not (0 <= int(indices[0]) <= int(indices[1]) < n):
        raise ValidationError(f"indices out of range for n={n}: {indices!r}")


def eigenpairs_tridiagonal(op_or_diag, offdiag=None, *, window=None, indices=None,
                           tol=None, threads=1):
    """Certified eigenpairs (values, vectors) of a window or an index range.

    window=(a, b]
        The eigenpairs whose values lie in the half-open interval.
    indices=(k_lo, k_hi)
        Eigenpairs k_lo..k_hi inclusive (0-based, ascending).

    LAPACK ``stebz`` bisects each value only to the certificate's width
    ``tol``; inverse iteration at those values gives the vectors, and a
    Rayleigh-Ritz step per cluster (values closer than 1e-8 of the span)
    polishes the values to |rho - lambda| <= ||r||**2 / gap.  The
    polished values then pass the Sturm certificate of
    :func:`eigenvalues_tridiagonal`, and a window must hold as many values
    as the counts at its ends.  Values ascend; vectors are orthonormal
    columns.
    """
    diag, off, glo, ghi, tol = _diagonals_and_tol(op_or_diag, offdiag, tol)
    _check_query(diag.shape[0], window, indices)
    k_lo = 0
    try:
        if window is not None:
            raw = eigvalsh_tridiagonal(diag, off, select="v", select_range=window,
                                       check_finite=False, tol=tol, lapack_driver="stebz")
        else:
            k_lo = int(indices[0])
            raw = eigvalsh_tridiagonal(diag, off, select="i",
                                       select_range=(k_lo, int(indices[1])),
                                       check_finite=False, tol=tol, lapack_driver="stebz")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK tridiagonal eigensolver failed: {exc}") from None
    if np.any(np.diff(raw) < 0.0):
        raise NumericalError("LAPACK stebz returned eigenvalues out of ascending order")
    vecs = eigenvectors_inverse_iteration(diag, off, raw)
    vals = _rayleigh_ritz(diag, off, raw, vecs, _CLUSTER_RTOL * max(ghi - glo, 1e-30))
    _certify(diag, off, vals, tol, threads, window, k_lo)
    return vals, vecs


def _clusters(ascending, cluster_tol):
    """(start, stop) of each run of ``ascending`` values whose neighbours
    lie at most ``cluster_tol`` apart."""
    if ascending.size == 0:
        return []
    cuts = (np.flatnonzero(np.diff(ascending) > cluster_tol) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, ascending.size]))


def eigenvectors_inverse_iteration(diag, offdiag, values):
    """Eigenvectors by inverse iteration with a tridiagonal LU factorisation.

    Each shift is factored once (LAPACK ``gttrf``) and applied in three
    solves (``gttrs``) from a seeded random start per vector; a singular
    factor or a non-finite iterate escalates the shift.  Eigenvalues
    closer than 1e-8 of the spectral span are treated as a cluster and
    re-orthogonalized.  Raises NumericalError if a residual
    ||A v - lambda v|| exceeds 1e-8 times the span.  Needs n >= 3.
    """
    diag = np.asarray(diag, float)
    off = np.asarray(offdiag, float)
    values = np.atleast_1d(np.asarray(values, float))
    n = diag.shape[0]
    if n < 3:
        raise ValidationError(f"inverse iteration needs at least 3 rows, got {n}")
    glo, ghi = gershgorin_interval(diag, off)
    span = max(ghi - glo, 1e-30)
    rng = np.random.default_rng(7)
    vecs = np.empty((n, values.size))

    order = np.argsort(values)
    cluster_tol = _CLUSTER_RTOL * span
    for a, b in _clusters(values[order], cluster_tol):
        group = order[a:b]
        block = np.empty((n, len(group)))
        for pos, j in enumerate(group):
            lam = values[j] + (pos - len(group) / 2) * 1e-3 * cluster_tol
            shift = 1e-13 * span
            for attempt in range(4):
                v = rng.standard_normal(n)
                try:
                    dl, d, du, du2, ipiv, info = dgttrf(off, diag - (lam + shift), off,
                                                        overwrite_d=1)
                    if info != 0:
                        raise np.linalg.LinAlgError
                    for _ in range(3):
                        v, info = dgttrs(dl, d, du, du2, ipiv, v, overwrite_b=1)
                        nv = float(np.linalg.norm(v))
                        if info != 0 or not math.isfinite(nv) or nv == 0.0:
                            raise np.linalg.LinAlgError
                        v /= nv
                    break
                except np.linalg.LinAlgError:
                    shift *= 37.0
            block[:, pos] = v
        # re-orthogonalize degenerate directions
        if len(group) > 1:
            block, _ = np.linalg.qr(block)
        vecs[:, group] = block

    # residual check against the requested values
    for j in range(values.size):
        v = vecs[:, j]
        av = diag * v
        av[:-1] += off * v[1:]
        av[1:] += off * v[:-1]
        res = float(np.linalg.norm(av - values[j] * v))
        if res > 1e-8 * span:
            raise NumericalError(
                f"inverse iteration residual {res:.3e} exceeds "
                f"1e-8 * span for eigenvalue {values[j]!r}")
    return vecs


def _rayleigh_ritz(diag, off, values, vecs, cluster_tol):
    """Polished values of ascending ``values``; rotates ``vecs`` in place.

    A singleton takes its Rayleigh quotient v'Av / v'v.  A cluster takes
    the eigenvalues of its projected k x k matrix V'AV, and its block of
    orthonormal columns is rotated onto the Ritz vectors.  The products
    run as three-operand ``einsum`` over ``vecs`` and its row-shifted
    views, so no n x m temporary is formed.
    """
    lo, hi = vecs[:-1], vecs[1:]
    vals = ((np.einsum("i,ij,ij->j", diag, vecs, vecs)
             + 2.0 * np.einsum("i,ij,ij->j", off, lo, hi))
            / np.einsum("ij,ij->j", vecs, vecs))
    for a, b in _clusters(values, cluster_tol):
        if b - a > 1:
            V = vecs[:, a:b]
            C = np.einsum("i,ij,ik->jk", off, lo[:, a:b], hi[:, a:b])
            w, Q = np.linalg.eigh(np.einsum("i,ij,ik->jk", diag, V, V) + C + C.T)
            vals[a:b] = w
            vecs[:, a:b] = V @ Q
    return vals


@dataclass(frozen=True)
class FillReport:
    """How the section eigenvalues cover a target interval."""

    interval: tuple
    pad: float
    values: np.ndarray = field(repr=False)
    max_gap: float = np.nan
    n_inside: int = 0
    n_outliers: int = 0
    outliers: np.ndarray = field(repr=False, default=None)

    @property
    def fills(self):
        return self.n_outliers == 0 and self.max_gap < self.pad


def spectrum_fill_report(op, interval=None, *, pad=0.05, threads=1):
    """Full spectrum of the section and its coverage of ``interval``.

    The maximal gap is measured between consecutive eigenvalues inside
    the interval, including the distances from the interval endpoints to
    the nearest eigenvalue; outliers are eigenvalues farther than ``pad``
    outside.
    """
    if interval is None:
        interval = op.scaling.interval
    lo, hi = float(interval[0]), float(interval[1])
    vals = eigenvalues_tridiagonal(op, threads=threads)
    inside = vals[(vals >= lo - pad) & (vals <= hi + pad)]
    outliers = vals[(vals < lo - pad) | (vals > hi + pad)]
    knots = np.concatenate([[lo], np.sort(np.clip(inside, lo, hi)), [hi]])
    max_gap = float(np.max(np.diff(knots))) if inside.size else hi - lo
    return FillReport(interval=(lo, hi), pad=float(pad), values=vals,
                      max_gap=max_gap, n_inside=int(inside.size),
                      n_outliers=int(outliers.size), outliers=outliers)


@dataclass(frozen=True)
class JostFit:
    """Measured free-wave behaviour of a tail solution at energy lam."""

    lam: float
    theta: float
    theta_fit: float
    amplitude_flatness: float
    phase_residual: float
    n_peaks: int

    @property
    def theta_error(self):
        return abs(self.theta_fit - self.theta)


def _tail_solution(d, e, lam, theta):
    """Run the recurrence from the seeds (X_0, X_1) = (1, e^{i*theta}).

    Rows k = 1..n-2 of e_k X_{k+1} + (d_k - lam) X_k + e_{k-1} X_{k-1} = 0
    form a lower-triangular band system with two subdiagonals in X_2 ..
    X_{n-1}; the seeds move into its first two right-hand sides, and the
    real and imaginary parts are solved as two columns of one LAPACK
    ``tbtrs`` forward substitution.  Needs n >= 4.
    """
    n = d.size
    ab = np.zeros((3, n - 2), order="F")
    ab[0] = e[1:]
    ab[1, :-1] = d[2:-1] - lam
    ab[2, :-2] = e[2:-1]
    c, s = math.cos(theta), math.sin(theta)
    b = np.zeros((n - 2, 2), order="F")
    b[0] = (lam - d[1]) * c - e[0], (lam - d[1]) * s
    b[1] = -e[1] * c, -e[1] * s
    sol, info = dtbtrs(ab, b, uplo="L", overwrite_b=1)
    if info != 0:
        raise NumericalError(
            f"tail recurrence at lam={lam!r} is singular (dtbtrs info {info})")
    X = np.empty(n, dtype=complex)
    X[0] = 1.0
    X[1] = complex(c, s)
    X[2:].real = sol[:, 0]
    X[2:].imag = sol[:, 1]
    return X


def jost_verify(op, lam):
    """Propagate a complex tail solution and compare it to e^{i*theta*I}.

    In the tail the three-term recurrence has constant limits (centre z,
    coupling c), so interior energies lam = z + 2*c*cos(theta) admit
    bounded oscillatory solutions.  The recurrence is seeded with the
    plane-wave pair (1, e^{i*theta}) and run forward as one triangular
    band solve (the same sequential substitution, in compiled code); over
    the fit window, the last three quarters of the section, the envelope
    peaks of |X| must be flat and the unwrapped phase must advance by
    theta per shell, up to the (geometrically decaying) coefficient
    transients.  A vanishing coupling makes the recurrence singular and
    raises :class:`NumericalError`.
    """
    sp = op.scaling
    z = sp.centre
    c = sp.kappa * sp.lambda_star
    x = (lam - z) / (2.0 * c)
    if not abs(x) < 1.0 - 1e-9:
        raise ValidationError(f"lam={lam!r} is not interior to {sp.interval}")
    theta = math.acos(x)

    n = op.n
    fit_start = n // 4
    if fit_start >= n - 8:
        raise ValidationError("fit window too small")
    # gauge with positive couplings
    X = _tail_solution(op.diag, np.abs(op.offdiag), lam, theta)
    w = np.abs(X[fit_start:])

    interior = (w[1:-1] >= w[:-2]) & (w[1:-1] >= w[2:])
    peaks = w[1:-1][interior]
    if peaks.size < 3:
        peaks = w  # theta near 0 or pi: period exceeds the window
    flat = float((np.max(peaks) - np.min(peaks)) / np.mean(peaks))

    phi = np.unwrap(np.angle(X[fit_start:]))
    kk = np.arange(phi.size, dtype=float)
    A = np.vstack([kk, np.ones_like(kk)]).T
    coef, _, _, _ = np.linalg.lstsq(A, phi, rcond=None)
    slope = float(coef[0])
    resid = float(np.sqrt(np.mean((phi - A @ coef) ** 2)))
    return JostFit(lam=float(lam), theta=theta, theta_fit=abs(slope),
                   amplitude_flatness=flat, phase_residual=resid,
                   n_peaks=int(peaks.size))


@dataclass(frozen=True)
class BandStructure:
    """Spectral bands of the 2-periodic operator with diagonal
    (beta/eta, beta, ...) and constant coupling mu."""

    beta: float
    mu: float
    eta: float
    e_minus: float
    e1: float
    e2: float
    e_plus: float

    @property
    def bands(self):
        return ((self.e_minus, self.e1), (self.e2, self.e_plus))

    @property
    def gap(self):
        return (self.e1, self.e2)

    def distance(self, x):
        """Distance from x to the union of the two bands (0 inside)."""
        x = np.asarray(x, dtype=float)
        d = np.full(x.shape, np.inf)
        for lo, hi in self.bands:
            d = np.minimum(d, np.maximum.reduce([lo - x, x - hi, np.zeros_like(x)]))
        return d


def band_structure(beta, mu, eta):
    """Closed-form band edges of the 2-periodic limit operator.

    The discriminant of the period-2 transfer matrix gives the outer
    edges (beta*(1+eta) +- sqrt(16*eta**2*mu**2 + beta**2*(1-eta)**2))
    / (2*eta); the inner edges are the diagonal values beta and beta/eta.
    """
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0, 1), got {eta!r}")
    if beta <= 0.0 or mu == 0.0:
        raise ValidationError("need beta > 0 and mu != 0")
    disc = math.sqrt(16.0 * eta**2 * mu**2 + beta**2 * (1.0 - eta) ** 2)
    e_minus = (beta * (1.0 + eta) - disc) / (2.0 * eta)
    e_plus = (beta * (1.0 + eta) + disc) / (2.0 * eta)
    return BandStructure(beta=float(beta), mu=float(mu), eta=float(eta),
                         e_minus=e_minus, e1=float(beta), e2=float(beta / eta),
                         e_plus=e_plus)


def build_two_periodic(beta, mu, eta, n, i_start=1):
    """Finite section of the 2-periodic comparison operator.

    Shell I carries diagonal beta/eta for odd I and beta for even I, with
    constant coupling mu; ``i_start`` fixes the parity of the first row.
    """
    band_structure(beta, mu, eta)  # parameter validation only
    idx = np.arange(i_start, i_start + n)
    diag = np.where(idx % 2 == 1, beta / eta, beta).astype(float)
    offdiag = np.full(n - 1, float(mu))
    return JacobiOperator(diag=diag, offdiag=offdiag, i_start=int(i_start), pd=None)


@dataclass(frozen=True)
class BandReport:
    n_values: int
    n_off_band: int
    n_gap_interior: int
    max_band_distance: float


def band_report(values, bs, *, pad=0.05):
    """Count section eigenvalues against the limit bands.

    Dirichlet truncation may shed a handful of states into the spectral
    gap; ``n_gap_interior`` counts those farther than ``pad`` from either
    inner edge, ``n_off_band`` those farther than ``pad`` from the band
    union.
    """
    values = np.asarray(values, dtype=float)
    dist = bs.distance(values)
    g_lo, g_hi = bs.gap
    in_gap = (values > g_lo + pad) & (values < g_hi - pad)
    return BandReport(n_values=int(values.size),
                      n_off_band=int(np.count_nonzero(dist > pad)),
                      n_gap_interior=int(np.count_nonzero(in_gap)),
                      max_band_distance=float(np.max(dist)) if values.size else 0.0)
