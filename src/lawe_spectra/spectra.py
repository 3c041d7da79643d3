"""Spectra of truncated sections: certified eigenpairs and diagnostics.

The full spectrum of a section that ends in a constant tail comes from
its continuous Sturm count (below); any other section's comes from LAPACK
root-free QR (``sterf``).  A window comes with its eigenvectors: LAPACK
bisection in compiled code (``stebz``) brackets each value only to the
certificate's width ``tol``, inverse iteration at those values gives the
vectors (one tridiagonal LU factorisation per shift), and a Rayleigh-Ritz
step per cluster polishes the values from the vectors.  Every returned value is
then certified by one Sturm-count sweep at ``lambda_k -+ tol``, which
must place exactly the claimed eigenvalue index inside ``[lambda_k - tol,
lambda_k + tol)``; a window must also hold as many values as the Sturm
counts at its ends.  A result that fails the certificate raises
:class:`NumericalError` (the CLI exits 2); there is no silent fallback.
``tol`` is :func:`default_tol`.  :func:`band_report` computes no value:
by Sylvester's law of inertia, four Sturm counts at the padded band edges
place the spectrum against two bands.

:func:`sturm_counts` counts the IEEE sign bits of the LDL^T pivots, with
no pivot floor (LAPACK ``dlaneg``; Marques, Riedy & Voemel 2006).  A wide
shift vector runs the sequential recurrence, one row per interpreted
step.  A narrow one over a long section is cut into about sqrt(n)
segments separated by single rows: all segments sweep together, and the
count adds the separators' Schur complement by inertia additivity
(Haynsworth 1968), in about 2 sqrt(n) steps.  A shift whose segmented
count meets a zero, infinite or NaN pivot, whose separator pivots lie
within their rounding-error bound, or whose count breaks monotonicity
is recounted by the sequential recurrence.

Where the sequential recurrence would run and the section ends in at
least 32 rows k0..n-1 that share one diagonal a and one squared coupling
beta**2 (found from the section by exact comparison of its entries), the
recurrence runs the k0 head rows only.  The tail's m rows then add their
negative pivots in closed form, as in a free Jacobi operator (Teschl
2000, ch. 1): with x = (a - s)/(2 beta) = cos(theta) and phi =
atan2(sin(theta), q/beta - x) for the last head pivot q, they are
floor(((m+1) theta + phi)/pi) - floor((theta + phi)/pi), and the second
term is the sign bit of q.  A shift is recounted over all rows when
(m+1) theta + phi lies within 16 times its first-order rounding-error
bound of a multiple of pi (the shift sits near an eigenvalue), when
sin(theta)**2 <= 64 eps (at or beyond a band edge), or when q is zero,
infinite or NaN.  A 2-periodic tail, as in ``scaled``, is not constant.

The same closed form gives the eigenvalues of such a section without
``sterf``.  With s = a - 2 beta cos(theta) and H the negative pivots of
rows 0..k0-2, C(theta) = H + ((m+1) theta + phi)/pi is continuous and
increasing, and eigenvalue K sits where C = K + 1 (the secular equation
of the head against the free tail; Golub 1973).  One head pass at the
tail's nodes j pi/(m+1), j = 0..m+1, brackets every root, and
safeguarded Newton steps in theta, vectorised over the unconverged roots,
cost O(k0) per root and step; the pivot derivative q'_i = -1 +
(e_{i-1}**2/q_{i-1}**2) q'_{i-1} gives dphi/dtheta.  The end nodes are the
band edges a -+ 2 beta, where the tail pivots over -+beta follow r -> 2 -
1/r and turn negative once exactly when the last head pivot gives r in
(0, m/(m+1)); so the same pass tells whether an eigenvalue lies outside
[a - 2 beta, a + 2 beta].  A section with an eigenvalue outside the band,
with a ratio within ``_EDGE_MARGIN`` of m/(m+1), or with a root
unconverged after 6 n/k0 steps (:func:`_newton_cap`), goes to ``sterf``;
both routes pass the same certificate.

SciPy is imported inside the functions that call LAPACK, and only on the
branch that does, so a process that never reaches them (``sl``,
``transform-check``, ``scaled``, ``report``, and ``spectrum`` on a
constant-tail section) loads NumPy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

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


def gershgorin_interval(diag, offdiag):
    r = np.zeros(diag.shape[0])
    r[:-1] += np.abs(offdiag)
    r[1:] += np.abs(offdiag)
    return float(np.min(diag - r)), float(np.max(diag + r))


#: widest shift vector that the segmented count serves; a wider vector
#: already fills each row's NumPy call, and the sequential loop does less
#: work per row-shift than the two segment sweeps
_SEGMENT_MAX_SHIFTS = 192

#: fewest rows that are cut into segments
_SEGMENT_MIN_ROWS = 256

#: row-shifts per block of the sequential loop
_BLOCK = 1 << 15

#: pivots multiplied together before their product is folded into a log
_FOLD = 8

#: smallest folded pivot product trusted to full precision
_TINY = 1e-300

#: a separator pivot, or the distance of a tail's count argument from a
#: multiple of pi, must exceed its first-order error bound this many times
#: over, or its shift is recounted
_SAFETY = 16.0

#: fewest rows of an exactly constant tail that is counted in closed form
_TAIL_MIN_ROWS = 32

#: Newton steps, per row of the section over the rows of its head, after
#: which a constant-tail section with a root still unconverged goes to
#: ``sterf`` (see :func:`_newton_cap`).  Measured on weakly disordered
#: heads of 100-400 rows in sections of 1000-1500: running to this cap took
#: 1.0-1.4 times ``sterf``'s time, and heads that converge in 31-43 steps
#: still do so, at 0.7-0.8 times it
_NEWTON_RATE = 6.0

#: a band-edge pivot ratio this close to its threshold m/(m+1) does not
#: clear its edge, and the section goes to ``sterf``: far above the
#: first-order rounding error of q/beta and of the tail recurrence, about
#: (k0 + m) eps, and far below the nearest ratio of 1200 seeded limit and
#: hse sections, 3.0e-5 away
_EDGE_MARGIN = 1e-9

#: a root stops once its Newton step or its bracket in theta is at most
#: this wide, 4 ulps of pi: it moves the value by at most 8 ulps of pi
#: times beta, and the count's own rounding leaves steps of about that size
_THETA_TOL = 4.0 * np.spacing(np.pi)


def _segment_count(n, m):
    """Segment count P for a count over n rows and m shifts: about sqrt(n)
    for a narrow shift vector, 1 (the sequential loop) otherwise."""
    if m > _SEGMENT_MAX_SHIFTS or n < _SEGMENT_MIN_ROWS:
        return 1
    return math.isqrt(n)


def _pivots(diag, off2, shifts, slope=False):
    """Sign bits of the top-down pivots, one row at a time over all shifts:
    (count, last pivot row, its derivative in the shift).  The derivative
    follows q'_i = -1 + (e_{i-1}**2 / q_{i-1}**2) q'_{i-1} with ``slope``
    and is None without."""
    n, m = diag.shape[0], shifts.size
    # a coupling of exactly 0 (None) restarts the pivot at d_i - s, so a
    # zero pivot above it cannot make 0/0
    e2 = [None] + [x or None for x in off2.tolist()]
    rows = max(16, _BLOCK // max(m, 1))
    block = np.empty((min(rows, n), m))
    f = np.empty(m)
    dq = np.full(m, -1.0) if slope else None
    count = np.zeros(m, dtype=np.int64)
    q = None
    for lo in range(0, n, rows):
        a = block[:min(rows, n - lo)]
        np.subtract(diag[lo:lo + a.shape[0], None], shifts, out=a)
        for ai, ei in zip(a, e2[lo:lo + a.shape[0]]):
            if ei is not None:
                np.divide(ei, q, out=f)
                np.subtract(ai, f, out=ai)
                if slope:
                    np.divide(f, q, out=f)
                    np.multiply(f, dq, out=dq)
                    np.subtract(dq, 1.0, out=dq)
            elif slope:
                dq.fill(-1.0)
            q = ai
        count += np.count_nonzero(np.signbit(a), axis=0)
        q = q.copy()
    return count, q, dq


def _sequential_counts(diag, off2, shifts):
    """Sign bits of the top-down pivots, one row at a time over all shifts:
    (count, last pivot row)."""
    return _pivots(diag, off2, shifts)[:2]


def _segmented_counts(diag, off2, shifts, p):
    """Counts through p segments and their p - 1 separator rows.

    The first segment runs its top-down pivots, the last its bottom-up
    pivots, and every other segment both; all sweeps advance together,
    one row per step.  By inertia additivity the count is the number of
    negative pivots in each segment's counted sweep plus the count of the
    separators' tridiagonal Schur complement.  Returns (count, suspect): a
    suspect shift met a zero, infinite or NaN pivot, or a Schur-complement
    pivot whose sign its error bound cannot settle.
    """
    n, m = diag.shape[0], shifts.size
    rows = -(-(n + 1) // p) - 1
    pad = p * (rows + 1) - 1 - n
    # segment j holds padded rows j*(rows+1) ... + rows - 1, and the row
    # after it is separator j; the leading pad rows are decoupled and
    # infinite, so they add no negative pivot
    d = np.concatenate([np.full(pad, np.inf), diag, [0.0]]).reshape(p, rows + 1)
    e2 = np.concatenate([np.zeros(pad), off2, [0.0, 0.0]]).reshape(p, rows + 1)
    # one sweep per row of q: bottom-up through the last segment, top-down
    # through segments 0..p-2, bottom-up through segments 1..p-2; the
    # first p sweeps are the counted ones
    up_d, up_e = d[1:, rows - 1::-1].T, e2[1:, rows - 2::-1].T
    dk = np.concatenate([up_d[:, -1:], d[:-1, :rows].T, up_d[:, :-1]], axis=1)
    ek = np.concatenate([up_e[:, -1:], e2[:-1, :rows - 1].T, up_e[:, :-1]], axis=1)
    q = np.empty((2 * p - 2, m))
    product = np.ones_like(q)
    log_det = np.zeros_like(q)
    sign = np.empty((p, m), dtype=bool)
    negative = np.zeros((p, m), dtype=np.int32)
    np.subtract(dk[0, :, None], shifts, out=q)
    for k in range(rows):
        if k:
            np.divide(ek[k - 1, :, None], q, out=q)
            np.subtract(dk[k, :, None], q, out=q)
            np.subtract(q, shifts, out=q)
        np.signbit(q[:p], out=sign)
        negative += sign
        product *= q
        if k % _FOLD == _FOLD - 1 or k == rows - 1:
            # fold the pivot product into log|det| before it can overflow;
            # a product that underflowed makes the determinant NaN
            np.abs(product, out=product)
            np.copyto(product, np.nan, where=product < _TINY)
            np.log(product, out=product)
            log_det += product
            product.fill(1.0)

    # separator j sits between segments j and j + 1: its Schur complement
    # row has diagonal d - s - ea/last_j - eb/first_{j+1}, and the squared
    # coupling to separator j + 1 is eb_j ea_{j+1} prod(e^2) / det(B)^2
    # over segment j + 1
    last, first = q[1:p], np.concatenate([q[p:], q[:1]])
    det_down, det_up = log_det[2:p], log_det[p:]
    ea, eb = e2[:-1, rows - 1, None], e2[:-1, rows, None]
    a_sep = d[:-1, rows, None] - shifts
    t_last, t_first = ea / last, eb / first
    sigma = a_sep - t_last - t_first
    log_e2 = np.log(e2[1:-1, :rows - 1]).sum(axis=1)[:, None]
    tau = np.exp(np.log(eb[:-1]) + np.log(ea[1:]) + log_e2 - 2.0 * det_down)
    # a middle segment's count, last pivot and determinant come from its
    # top-down sweep and its first pivot from the bottom-up one; the two
    # determinants differ by the rounding that separates the two sweeps,
    # which bounds the error of eb/first; a shift near an eigenvalue of
    # the segment itself makes it large
    u = np.finfo(float).eps
    err = 4.0 * u * (np.abs(a_sep) + np.abs(t_last) + np.abs(t_first))
    err[:-1] += np.abs(det_down - det_up) * np.abs(t_first[:-1])
    tau_err = 4.0 * u * rows
    suspect = np.zeros(m, dtype=bool)
    for x in (det_down, det_up, sigma, tau, first, last):
        suspect |= ~np.isfinite(x).all(axis=0)
    # Sturm count of the complement, with a first-order bound on each
    # pivot's error; a pivot within its bound makes the shift suspect
    for j in range(1, p - 1):
        g = tau[j - 1] / sigma[j - 1]
        err[j] += np.abs(g) * (err[j - 1] / np.abs(sigma[j - 1]) + tau_err)
        sigma[j] -= g
    suspect |= ~(np.abs(sigma) > _SAFETY * err).all(axis=0)
    count = negative.sum(axis=0) + np.count_nonzero(np.signbit(sigma), axis=0)
    return count, suspect


def _counts(diag, off2, shifts, p):
    """(count, suspect) of one shift vector through ``p`` segments."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if p == 1:
            return _sequential_counts(diag, off2, shifts)[0], np.zeros(shifts.size, bool)
        return _segmented_counts(diag, off2, shifts, p)


def _tail_start(diag, off2):
    """First row k0 >= 1 of the exactly constant tail: rows k0..n-1 hold
    the diagonal diag[-1] and couple to the row above by off2[-1], both
    compared exactly.  n when that coupling is not finite and positive."""
    n = diag.shape[0]
    if n < 2 or not (0.0 < off2[-1] < math.inf and math.isfinite(diag[-1])):
        return n
    d = np.flatnonzero(diag != diag[-1])
    e = np.flatnonzero(off2 != off2[-1])
    return max(int(d[-1]) + 1 if d.size else 1, int(e[-1]) + 2 if e.size else 1)


def _tail_counts(diag, off2, shifts, k0):
    """(count, settled): rows 0..k0-1 by the sequential loop, and the
    constant tail rows k0..n-1 in closed form (see :func:`sturm_counts`).

    The tail pivots over beta are sin((j+1) theta + phi)/sin(j theta +
    phi), j = 1..m, so the negative ones are the multiples of pi in
    (theta + phi, (m+1) theta + phi].  phi lies in (0, pi), and theta +
    phi reaches pi exactly where q/beta = x + sin(theta) cot(phi) turns
    negative, so floor((theta + phi)/pi) is q's sign bit.
    """
    m = diag.shape[0] - k0
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        count, q = _sequential_counts(diag[:k0], off2[:k0 - 1], shifts)
        beta = math.sqrt(off2[-1])
        x = (diag[-1] - shifts) / (2.0 * beta)
        sin2 = (1.0 - x) * (1.0 + x)
        sin = np.sqrt(sin2)
        dr = q / beta - x
        f = ((m + 1) * np.arccos(x) + np.arctan2(sin, dr)) / np.pi
        k = np.floor(f)
        # first-order rounding-error bound on f, in units of eps: x carries
        # 2|x|, which becomes 2|x|/sin in theta (plus pi for arccos itself)
        # and 2 x^2/sin in sin(theta) (plus sin); dr carries 1.5|dr| + 3|x|;
        # phi = atan2(sin, dr) moves by (|dr| e_sin + sin e_dr)/(sin^2 +
        # dr^2) plus pi, and the sum and the division by pi add 2f.  The
        # bound is first order, so sin(theta)^2 must also exceed 64 eps,
        # far beyond the change of 2 eps that x's error can make in it
        ax, adr = np.abs(x), np.abs(dr)
        e_f = (((m + 1) * (np.pi + 2.0 * ax / sin)
                + (adr * (3.0 * sin + 2.0 * ax * ax / sin) + 3.0 * sin * ax) / (sin2 + dr * dr)
                + 4.0) / np.pi + 2.0 * f) * eps
        settled = ((np.minimum(f - k, k + 1.0 - f) > _SAFETY * e_f)
                   & (sin2 > 4.0 * _SAFETY * eps) & np.isfinite(q) & (q != 0.0))
        count += np.where(settled, k, 0.0).astype(np.int64)
        count -= np.signbit(q)
    return count, settled


def _newton_cap(n, k0):
    """Newton steps after which a constant-tail section of n rows whose
    head has k0 rows goes to ``sterf``: ``_NEWTON_RATE`` n/k0.  A step
    costs about k0 row operations per live root and ``sterf`` about n per
    root, so the steps of a section that never converges cost at most a
    few times ``sterf``."""
    return int(_NEWTON_RATE * n / k0)


def _band_edges(h, dr, k0, m):
    """Whether the head pass at theta = 0 and pi clears both band edges:
    no eigenvalue lies below a - 2 beta and none at or above a + 2 beta.
    A last head pivot whose ratio lies within ``_EDGE_MARGIN`` of its
    threshold does not clear its edge.

    At s = a -+ 2 beta the tail pivots over -+beta follow r_j = 2 -
    1/r_{j-1} from r_0 = -+q/beta, so r_j = (j+1+c)/(j+c) with c = 1/(r_0 -
    1), and one of r_1..r_m is negative exactly when r_0 lies in (0,
    m/(m+1)).  The count at a - 2 beta is 0 when the head has no negative
    pivot and q/beta > m/(m+1); the count at a + 2 beta is n when all k0
    head pivots are negative and -q/beta > m/(m+1).
    """
    t = m / (m + 1.0)
    # h counts rows 0..k0-2; dr is q/beta - cos(theta), cos = +1 and -1
    return bool(h[0] == 0 and h[-1] == k0 - 1
                and dr[0] + 1.0 - t > _EDGE_MARGIN and 1.0 - dr[-1] - t > _EDGE_MARGIN)


def _tail_eigenvalues(diag, off2, k0):
    """(values, Newton steps) of a section with a constant tail from row
    k0, as roots of its continuous count; values is None where the section
    must go to ``sterf``: the head pass does not clear both band edges
    (:func:`_band_edges`), or a root has not converged after
    :func:`_newton_cap` steps.

    With s = a - 2 beta cos(theta) and H(s) the negative pivots of rows
    0..k0-2, C(theta) = H(s) + ((m+1) theta + phi)/pi (phi as in
    :func:`_tail_counts`) is continuous and increasing, floor(C) is the
    Sturm count, and eigenvalue K sits where C = K + 1.  One head pass at
    the tail's nodes theta_j = j pi/(m+1), j = 0..m+1, where (m+1) theta_j
    is j pi, brackets every root and decides the band edges
    (:func:`_band_edges`); C(0) is taken as 0, and C(pi), at least n, as
    computed.  Newton steps in theta start from the linear interpolation
    of C in the bracket, take dphi/dtheta from the pivot derivative, and
    bisect when they leave the bracket that the sign of C - (K + 1)
    tightens.  A root stops on its own once its Newton step (zero where
    C = K + 1 exactly), taken before any bisection, or its bracket is at
    most 4 ulps of pi.
    """
    n = diag.shape[0]
    m = n - k0
    a, beta = float(diag[-1]), math.sqrt(off2[-1])
    head_d, head_e2 = diag[:k0], off2[:k0 - 1]

    def head(theta, slope):
        # (H, sin, cos, dr, dr/dtheta) at the shifts a - 2 beta cos(theta)
        cos, sin = np.cos(theta), np.sin(theta)
        count, q, dq = _pivots(head_d, head_e2, a - 2.0 * beta * cos, slope)
        dr = q / beta - cos
        return count - np.signbit(q), sin, cos, dr, sin * (2.0 * dq + 1.0) if slope else None

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nodes = np.linspace(0.0, np.pi, m + 2)
        h, sin, _, dr, _ = head(nodes, False)
        if not _band_edges(h, dr, k0, m):
            return None, 0
        c = (h + np.arange(m + 2)) + np.arctan2(sin, dr) / np.pi
        c[0] = 0.0
        k1 = np.arange(1.0, n + 1.0)
        j = np.searchsorted(c, k1) - 1
        lo, hi = nodes[j], nodes[j + 1]
        t = lo + (k1 - c[j]) / (c[j + 1] - c[j]) * (hi - lo)
        live = np.arange(n)
        steps, cap = 0, _newton_cap(n, k0)
        while live.size:
            if steps >= cap:
                return None, steps
            steps += 1
            tl, lol, hil = t[live], lo[live], hi[live]
            h, sin, cos, dr, ddr = head(tl, True)
            g = (h - k1[live]) + ((m + 1) * tl + np.arctan2(sin, dr)) / np.pi
            dg = ((m + 1) + (dr * cos - sin * ddr) / (sin * sin + dr * dr)) / np.pi
            lol = np.where(g < 0.0, tl, lol)
            hil = np.where(g >= 0.0, tl, hil)
            step = g / dg
            # tested on the Newton step before a bisection replaces it: a
            # root at which C = K + 1 exactly takes a zero step and stops
            done = (np.abs(step) <= _THETA_TOL) | (hil - lol <= _THETA_TOL)
            tn = tl - step
            out = ~((lol < tn) & (tn < hil))
            tn[out] = 0.5 * (lol[out] + hil[out])
            t[live] = np.where(done, tl, tn)
            lo[live], hi[live] = lol, hil
            live = live[~done]
    return np.sort(a - 2.0 * beta * np.cos(t)), steps


def _split(fn, shifts, threads):
    """``fn`` over the shift vector, split over a thread pool; ``fn``
    returns a tuple of per-shift arrays."""
    if threads > 1 and shifts.size >= 4 * threads:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(fn, np.array_split(shifts, threads)))
        return [np.concatenate(c) for c in zip(*parts)]
    return fn(shifts)


def _full_counts(diag, off2, shifts, threads):
    """Counts over all n rows through ``_segment_count(n, shifts.size)``
    segments; a suspect segmented count is recounted by the sequential
    loop."""
    n = diag.shape[0]
    p = _segment_count(n, shifts.size)
    count, suspect = _split(lambda s: _counts(diag, off2, s, p), shifts, threads)
    if p > 1:
        order = np.argsort(shifts, kind="stable")
        drop = np.flatnonzero(np.diff(count[order]) < 0)
        suspect[order[drop]] = suspect[order[drop + 1]] = True
        suspect |= (count < 0) | (count > n)
        redo = np.flatnonzero(suspect)
        if redo.size:
            count[redo] = _counts(diag, off2, shifts[redo], 1)[0]
    return count


def sturm_counts(diag, off2, shifts, threads=1):
    """Number of eigenvalues strictly below each shift.

    ``off2`` holds the squared couplings.  Counts the negative pivots of
    q <- (d_i - s) - e_{i-1}**2 / q by their IEEE sign bit, with no pivot
    floor: a zero pivot turns the next into an infinity and the one after
    back into d - s, and a coupling of exactly 0 restarts the pivot at
    d_i - s, so 0/0 never occurs.  At most 192 shifts over at least 256
    rows are counted through about sqrt(n) segments, whose sweeps run
    together, plus the Sturm count of the separator rows' Schur
    complement (inertia additivity): about 2 sqrt(n) interpreted steps
    instead of n.  Wider vectors and shorter sections run the sequential
    loop.  A shift whose segmented count meets a zero, infinite or NaN
    pivot, has a separator pivot within 16 times its first-order error
    bound, breaks monotonicity over the sorted shifts or leaves [0, n] is
    recounted by the sequential loop.

    Where the sequential loop would run and the section ends in m >= 32
    rows k0..n-1 that share one diagonal a and one squared coupling
    beta**2 (found by exact comparison of the entries), the loop runs the
    k0 head rows only.  The tail then adds, in closed form,
    floor(((m+1) theta + phi)/pi) - floor((theta + phi)/pi) negative
    pivots, with cos(theta) = x = (a - s)/(2 beta) and phi =
    atan2(sin(theta), q/beta - x) for the last head pivot q, as in the
    free Jacobi operator.  A shift whose argument (m+1) theta + phi lies
    within 16 times its first-order rounding-error bound of a multiple of
    pi, with |x| too close to 1 (sin(theta)**2 <= 64 eps) or beyond it,
    or with q zero, infinite or NaN, is recounted over all n rows by the
    route above; a 2-periodic tail has no constant one.  ``threads``
    splits the shift vector over a thread pool; the route and the recount
    do not depend on it.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    diag, off2 = np.asarray(diag, dtype=float), np.asarray(off2, dtype=float)
    n = diag.shape[0]
    k0 = _tail_start(diag, off2) if _segment_count(n, shifts.size) == 1 else n
    if n - k0 < _TAIL_MIN_ROWS:
        return _full_counts(diag, off2, shifts, threads)
    count, settled = _split(lambda s: _tail_counts(diag, off2, s, k0), shifts, threads)
    redo = np.flatnonzero(~settled)
    if redo.size:
        count[redo] = _full_counts(diag, off2, shifts[redo], 1)
    return count


def _diagonals_and_tol(op):
    """(diag, offdiag, glo, ghi, :func:`default_tol`) of a finite section."""
    diag, off = np.asarray(op.diag, float), np.asarray(op.offdiag, float)
    glo, ghi = gershgorin_interval(diag, off)
    if not (math.isfinite(glo) and math.isfinite(ghi)):
        row = np.flatnonzero(~np.isfinite(diag + np.append(off, 0.0)))[0]
        raise NumericalError(f"tridiagonal section has a non-finite entry in row {row}")
    return diag, off, glo, ghi, default_tol(glo, ghi)


def _certify(diag, off, vals, tol, threads, window=None):
    """Raise NumericalError unless one Sturm sweep places eigenvalue k_lo + j
    in [vals_j - tol, vals_j + tol) for every j, and a window holds as many
    values as the counts at its ends; k_lo is the count at the window's
    lower end, 0 without a window."""
    m = vals.size
    ends = [] if window is None else [window[0], window[1]]
    c = sturm_counts(diag, off * off, np.concatenate([vals - tol, vals + tol, ends]),
                     threads)
    k_lo = 0
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


def eigenvalues_tridiagonal(op, *, threads=1):
    """(values, route, k0, Newton steps): the full spectrum of the
    symmetric tridiagonal section ``op``, certified by Sturm counts.

    A section that ends in at least 32 exactly constant rows k0..n-1
    gets its values as the roots of its continuous Sturm count, by
    safeguarded Newton steps (:func:`_tail_eigenvalues`), on route
    ``"constant_tail"``.  Every other section (k0 is n), one whose head
    pass does not clear both band edges of [a - 2 beta, a + 2 beta], and
    one with a root unconverged after :func:`_newton_cap` steps go to
    LAPACK root-free QR, route ``"sterf"``.  One Sturm sweep at every
    value -+ :func:`default_tol` then certifies that the k-th eigenvalue
    lies in [value_k - tol, value_k + tol); ``threads`` splits the sweep.  Raises NumericalError
    naming the first index that fails.
    """
    diag, off, _, _, tol = _diagonals_and_tol(op)
    off2 = off * off
    k0 = _tail_start(diag, off2)
    vals, steps = None, 0
    if diag.shape[0] - k0 >= _TAIL_MIN_ROWS:
        vals, steps = _tail_eigenvalues(diag, off2, k0)
    route = "constant_tail"
    if vals is None:
        from scipy.linalg import eigvalsh_tridiagonal
        route = "sterf"
        try:
            # sterf, not stemr: the stemr wrapper allocates an n x n
            # eigenvector array even for eigenvalues only
            vals = eigvalsh_tridiagonal(diag, off, check_finite=False,
                                        lapack_driver="sterf")
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"LAPACK tridiagonal eigensolver failed: {exc}") from None
    _certify(diag, off, vals, tol, threads)
    return vals, route, k0, steps


def eigenpairs_tridiagonal(op, *, window, threads=1):
    """Certified eigenpairs (values, vectors) of the section ``op`` whose
    values lie in the half-open window (a, b].

    LAPACK ``stebz`` bisects each value only to the certificate's width
    ``tol``; inverse iteration at those values gives the vectors, and a
    Rayleigh-Ritz step per cluster (values closer than 1e-8 of the span)
    polishes the values to |rho - lambda| <= ||r||**2 / gap.  The
    polished values then pass the Sturm certificate of
    :func:`eigenvalues_tridiagonal`, and a window must hold as many values
    as the counts at its ends.  Values ascend; vectors are orthonormal
    columns.
    """
    from scipy.linalg import eigvalsh_tridiagonal
    diag, off, glo, ghi, tol = _diagonals_and_tol(op)
    if not window[0] < window[1]:
        raise ValidationError(f"empty window {window!r}")
    try:
        raw = eigvalsh_tridiagonal(diag, off, select="v", select_range=window,
                                   check_finite=False, tol=tol, lapack_driver="stebz")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK tridiagonal eigensolver failed: {exc}") from None
    if np.any(np.diff(raw) < 0.0):
        raise NumericalError("LAPACK stebz returned eigenvalues out of ascending order")
    vecs = eigenvectors_inverse_iteration(diag, off, raw)
    vals = _rayleigh_ritz(diag, off, raw, vecs, _CLUSTER_RTOL * max(ghi - glo, 1e-30))
    _certify(diag, off, vals, tol, threads, window)
    return vals, vecs


def _clusters(ascending, cluster_tol):
    """(start, stop) of each run of ``ascending`` values whose neighbours
    lie at most ``cluster_tol`` apart."""
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
    from scipy.linalg.lapack import dgttrf, dgttrs
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
    #: how :func:`eigenvalues_tridiagonal` found the values: the route
    #: (``"constant_tail"`` or ``"sterf"``), the first row k0 of the
    #: constant tail (n without one) and the Newton steps taken
    route: str = "sterf"
    tail_start: int = 0
    newton_steps: int = 0

    @property
    def fills(self):
        return self.n_outliers == 0 and self.max_gap < self.pad


def spectrum_fill_report(op, *, pad=0.05, threads=1):
    """Full spectrum of the section and its coverage of the model's
    essential interval ``op.scaling.interval``.

    The maximal gap is measured between consecutive eigenvalues inside
    the interval, including the distances from the interval endpoints to
    the nearest eigenvalue; outliers are eigenvalues farther than ``pad``
    outside.
    """
    lo, hi = (float(v) for v in op.scaling.interval)
    vals, route, k0, steps = eigenvalues_tridiagonal(op, threads=threads)
    inside = vals[(vals >= lo - pad) & (vals <= hi + pad)]
    knots = np.concatenate([[lo], np.sort(np.clip(inside, lo, hi)), [hi]])
    return FillReport(interval=(lo, hi), pad=float(pad), values=vals,
                      max_gap=float(np.max(np.diff(knots))), n_inside=int(inside.size),
                      n_outliers=int(vals.size - inside.size),
                      route=route, tail_start=k0, newton_steps=steps)


@dataclass(frozen=True)
class JostFit:
    """Measured free-wave behaviour of a tail solution at energy lam."""

    lam: float
    theta: float
    theta_fit: float
    amplitude_flatness: float
    phase_residual: float
    n_peaks: int
    #: fewer than three envelope peaks in the fit window, so the flatness
    #: and n_peaks were taken over the whole window
    peak_fallback: bool = False

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
    from scipy.linalg.lapack import dtbtrs
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

    The unwrapped phase is the running sum of the principal increments
    angle(X_{k+1} * conj(X_k)), and the straight line through it is fitted
    in closed form: with k centred on the window, the slope is
    sum(k*phi)/sum(k**2) and the residual the rms of what the line and
    the mean leave.
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
    fallback = peaks.size < 3
    if fallback:
        peaks = w  # theta near 0 or pi: period exceeds the window
    flat = float((np.max(peaks) - np.min(peaks)) / np.mean(peaks))

    # in place, and each temporary freed before the next: window-sized
    # temporaries raised the peak RSS of a long run of jobs by 2-3 MB
    Y = X[fit_start:]
    m = Y.size
    inc = np.conj(Y[:-1])
    np.multiply(Y[1:], inc, out=inc)
    phi = np.empty(m)
    phi[0] = 0.0
    np.cumsum(np.angle(inc), out=phi[1:])
    del inc
    kc = np.arange(m, dtype=float)
    kc -= (m - 1) / 2.0
    slope = float(kc @ phi) / (m * (m * m - 1) / 12.0)  # sum(kc**2) in closed form
    phi -= np.mean(phi)
    kc *= slope
    phi -= kc
    resid = math.sqrt(float(phi @ phi) / m)
    return JostFit(lam=float(lam), theta=theta, theta_fit=abs(slope),
                   amplitude_flatness=flat, phase_residual=resid,
                   n_peaks=int(peaks.size), peak_fallback=bool(fallback))


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


@dataclass(frozen=True)
class BandReport:
    n_values: int
    n_off_band: int
    n_gap_interior: int


def band_report(op, bs, *, pad):
    """Count the negated eigenvalues x = -lambda of the section ``op``
    against the bands of ``bs``, to which the scaled matrix's negative
    converges, without computing them.

    Dirichlet truncation may shed a handful of states into the gap:
    ``n_gap_interior`` counts the x in (e1 + pad, e2 - pad), 0 where it is
    empty, and ``n_off_band`` those outside the closed padded bands
    [e_minus - pad, e1 + pad] and [e2 - pad, e_plus + pad].  By
    Sylvester's law of inertia a Sturm count of -op is the number of x
    below its shift, and at nextafter(u, +inf) the number at or below u:
    one :func:`sturm_counts` call at the four padded edges gives all
    three.  Raises NumericalError naming a row with a non-finite entry.
    """
    diag, off, _, _, _ = _diagonals_and_tol(op)
    n = diag.shape[0]
    lo, g_lo, g_hi, hi = bs.e_minus - pad, bs.e1 + pad, bs.e2 - pad, bs.e_plus + pad
    below = sturm_counts(-diag, off * off, [lo, math.nextafter(g_lo, math.inf), g_hi,
                                            math.nextafter(hi, math.inf)])
    gap = int(below[2] - below[1]) if g_lo < g_hi else 0
    return BandReport(n_values=n, n_off_band=gap + int(below[0]) + n - int(below[3]),
                      n_gap_interior=gap)
