"""Eigensolvers, fill diagnostics, tail waves and band structure."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lawe_spectra import discrete, model, polytrans, ppmodes, spectra
from lawe_spectra.errors import NumericalError, ValidationError

import discrete_oracle
import sturm_oracle


@pytest.fixture(scope="module")
def canonical_op():
    dist = model.build_mass_distribution(0.5, 2.0, N=700)
    pd = model.build_pd_distribution(dist, pressure_mode="limit")
    return discrete.assemble_jacobi(pd, 600, i_start=16)


def _op(diag, off):
    """The section with diagonal ``diag`` and couplings ``off``."""
    return discrete.JacobiOperator(diag=np.asarray(diag, float),
                                   offdiag=np.asarray(off, float), i_start=1)


def _index_window(diag, off, k_lo, k_hi):
    """Window (a, b] holding exactly eigenvalues k_lo..k_hi (0-based) of the
    section: each end lies midway between two neighbouring eigenvalues, or
    one unit outside the Gershgorin interval at the ends of the spectrum."""
    vals = scipy.linalg.eigvalsh_tridiagonal(diag, off)
    glo, ghi = spectra.gershgorin_interval(diag, off)
    a = glo - 1.0 if k_lo == 0 else 0.5 * (vals[k_lo - 1] + vals[k_lo])
    b = ghi + 1.0 if k_hi == vals.size - 1 else 0.5 * (vals[k_hi] + vals[k_hi + 1])
    return a, b


# ---------------------------------------------------------------------------
# eigenvalue solver


def _eigenvalues_bisect(op_or_diag, offdiag=None, *, window=None, indices=None,
                        tol=None):
    """Eigenvalues of a symmetric tridiagonal section by index bisection.

    window=(a, b]
        Return the eigenvalues in the half-open interval.
    indices=(k_lo, k_hi)
        Return eigenvalues k_lo..k_hi inclusive (0-based, ascending).

    All requested eigenvalues are bisected simultaneously, one Sturm count
    per round over the vector of active midpoints (Barth, Martin &
    Wilkinson 1967), counted by the floored loop of ``sturm_oracle``.
    This is the independent reference for
    :func:`spectra.eigenvalues_tridiagonal` and
    :func:`spectra.eigenpairs_tridiagonal`: it shares only the default
    tolerance with them, not LAPACK and not their Sturm count.
    """
    if offdiag is None:
        diag, off = np.asarray(op_or_diag.diag, float), np.asarray(op_or_diag.offdiag, float)
    else:
        diag, off = np.asarray(op_or_diag, float), np.asarray(offdiag, float)
    n = diag.shape[0]
    off2 = off * off
    glo, ghi = spectra.gershgorin_interval(diag, off)
    if tol is None:
        tol = spectra.default_tol(glo, ghi)
    span = max(ghi - glo, 1e-30)
    glo, ghi = glo - 1e-12 * span, ghi + 1e-12 * span

    b_lo, b_hi = glo, ghi
    if window is not None:
        a, b = window
        c = sturm_oracle.floored_counts(diag, off2, np.array([a, b]))
        k_lo, k_hi = int(c[0]), int(c[1]) - 1
        b_lo, b_hi = a, b
    elif indices is not None:
        k_lo, k_hi = int(indices[0]), int(indices[1])
    else:
        k_lo, k_hi = 0, n - 1
    m = k_hi - k_lo + 1
    if m <= 0:
        return np.empty(0)

    ks = np.arange(k_lo, k_hi + 1)
    lo = np.full(m, b_lo)
    hi = np.full(m, b_hi)
    for _ in range(120):
        live = (hi - lo) > tol
        if not np.any(live):
            break
        mid = 0.5 * (lo[live] + hi[live])
        cnt = sturm_oracle.floored_counts(diag, off2, mid)
        go_up = cnt <= ks[live]
        lo_live = lo[live]
        hi_live = hi[live]
        lo_live[go_up] = mid[go_up]
        hi_live[~go_up] = mid[~go_up]
        lo[live] = lo_live
        hi[live] = hi_live
    else:
        raise NumericalError("bisection failed to converge; tol too small?")
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [3, 10, 100, 512])
def test_free_operator_closed_form(n):
    # constant-coupling, zero-diagonal sections have the exact spectrum
    # 2*cos(k*pi/(n+1)); even n puts bisection midpoints on exact-zero
    # pivots, which the oracle's pivot floor counts as negative
    vals = _eigenvalues_bisect(np.zeros(n), np.ones(n - 1), tol=1e-13)
    exact = np.sort(2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    assert np.max(np.abs(vals - exact)) < 1e-10


def test_bisect_matches_dense_solver():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(5, 90))
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        vals = _eigenvalues_bisect(d, e, tol=1e-13)
        ref = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)
        assert np.max(np.abs(vals - ref)) < 1e-11


def test_windowed_and_indexed_queries():
    n = 40
    d = np.zeros(n)
    e = np.ones(n - 1)
    full = _eigenvalues_bisect(d, e, tol=1e-13)
    lo = _eigenvalues_bisect(d, e, indices=(0, 4), tol=1e-13)
    assert np.allclose(lo, full[:5], atol=1e-11)
    win = _eigenvalues_bisect(d, e, window=(0.0, 1.0), tol=1e-13)
    expect = full[(full > 0.0) & (full <= 1.0)]
    assert win.size == expect.size
    assert np.allclose(win, expect, atol=1e-11)


def test_query_validation():
    d, e = np.zeros(10), np.ones(9)
    with pytest.raises(ValidationError, match="empty window"):
        spectra.eigenpairs_tridiagonal(_op(d, e), window=(1.0, 1.0))


def test_threaded_counts_agree():
    rng = np.random.default_rng(5)
    d = rng.standard_normal(200)
    e = rng.standard_normal(199)
    shifts = np.linspace(-4, 4, 64)
    c1 = spectra.sturm_counts(d, e * e, shifts, threads=1)
    c4 = spectra.sturm_counts(d, e * e, shifts, threads=4)
    assert np.array_equal(c1, c4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sturm_count_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    glo, ghi = spectra.gershgorin_interval(d, e)
    shifts = np.sort(rng.uniform(glo - 1, ghi + 1, size=12))
    counts = spectra.sturm_counts(d, e * e, shifts)
    assert np.all(np.diff(counts) >= 0)
    assert spectra.sturm_counts(d, e * e, np.array([glo - 1e-9]))[0] == 0
    assert spectra.sturm_counts(d, e * e, np.array([ghi + 1e-9]))[0] == n


# ---------------------------------------------------------------------------
# Sturm counts: exact rational spot checks and route independence


def _graded(rng, n):
    scale = 10.0 ** rng.uniform(-8.0, 8.0, n)
    return (scale * rng.standard_normal(n),
            np.sqrt(scale[:-1] * scale[1:]) * rng.standard_normal(n - 1))


def _small_section(kind, rng):
    n = int(rng.integers(2, 41))
    if kind == "random":
        return rng.standard_normal(n), rng.standard_normal(n - 1)
    if kind == "graded":
        return _graded(rng, n)
    d = rng.integers(-2, 3, n).astype(float)
    if kind == "integer":
        return d, rng.integers(1, 3, n - 1).astype(float)
    e = rng.standard_normal(n - 1)
    e[rng.random(n - 1) < 0.3] = 0.0
    return d, e


@pytest.mark.parametrize("kind", ["random", "graded", "integer", "zero_coupling"])
def test_sturm_counts_bracket_the_exact_count(kind):
    # integer sections at integer shifts hit exact-zero pivots and exact
    # eigenvalues; shifts at the diagonal of a zero-coupling section put a
    # zero pivot right above the coupling that restarts the recurrence
    rng = np.random.default_rng(len(kind))
    for _ in range(6):
        d, e = _small_section(kind, rng)
        if kind in ("random", "graded"):
            glo, ghi = spectra.gershgorin_interval(d, e)
            shifts = rng.uniform(glo, ghi, 16)
            if kind == "graded":
                shifts = np.concatenate(
                    [shifts, rng.choice([-1.0, 1.0], 16) * 10.0 ** rng.uniform(-8, 8, 16)])
        else:
            shifts = np.concatenate([np.arange(-6.0, 7.0), d])
        counts = spectra.sturm_counts(d, e * e, shifts)
        for s, c in zip(shifts, counts):
            below, at_or_below = sturm_oracle.exact_counts(d, e * e, s)
            assert below <= c <= at_or_below, (kind, s)


def _long_section(kind):
    rng = np.random.default_rng(17)
    if kind == "random":
        return rng.standard_normal(2000), rng.standard_normal(1999)
    if kind == "graded":
        return _graded(rng, 2500)
    if kind == "disordered":
        # seed 15 puts certificate shifts close enough to eigenvalues of
        # single segments that counting without the separator error
        # bound gets three of them wrong
        rng = np.random.default_rng(15)
        return 2.0 + 0.3 * rng.standard_normal(2500), np.ones(2499)
    if kind == "constant_tail":
        op = _shell_section(0.6, 2.2, 2000, "limit")
    else:
        op, _ = _ppmodes_window()
    return op.diag, op.offdiag


def _shell_section(eta, gamma, n, variant):
    dist = model.build_mass_distribution(eta, gamma, N=n + 20)
    pd = model.build_pd_distribution(dist, pressure_mode=variant)
    return discrete.assemble_jacobi(pd, n, i_start=16)


def _tail_rows(d, e2):
    return d.size - spectra._tail_start(d, e2)


def _certificate_shifts(d, e):
    vals = scipy.linalg.eigvalsh_tridiagonal(d, e)
    tol = spectra.default_tol(*spectra.gershgorin_interval(d, e))
    return np.concatenate([vals - tol, vals + tol])


@pytest.mark.parametrize("kind", ["random", "graded", "disordered", "ppmodes"])
def test_certificate_shifts_get_the_oracle_count(kind):
    # narrow vectors, as the certificate of a window passes them, take
    # the segmented route over these sections
    d, e = _long_section(kind)
    e2 = e * e
    shifts = _certificate_shifts(d, e)
    assert spectra._segment_count(d.size, 128) > 1
    counts = np.concatenate([spectra.sturm_counts(d, e2, chunk)
                             for chunk in np.array_split(shifts, shifts.size // 128)])
    assert np.array_equal(counts, sturm_oracle.floored_counts(d, e2, shifts))


@pytest.mark.parametrize("kind", ["random", "graded", "disordered", "ppmodes",
                                  "constant_tail"])
def test_counts_do_not_depend_on_the_route(kind):
    # the wide vector of a constant-tail section takes the closed-form
    # tail, the others the sequential loop; the narrow one is segmented
    d, e = _long_section(kind)
    e2 = e * e
    rng = np.random.default_rng(3)
    glo, ghi = spectra.gershgorin_interval(d, e)
    shifts = np.concatenate([rng.choice(_certificate_shifts(d, e), 60),
                             rng.uniform(glo, ghi, 60)])
    wide = np.concatenate([shifts, np.linspace(glo, ghi, 400)])
    assert spectra._segment_count(d.size, shifts.size) > 1
    assert spectra._segment_count(d.size, wide.size) == 1
    assert (_tail_rows(d, e2) >= spectra._TAIL_MIN_ROWS) == (kind == "constant_tail")
    narrow = spectra.sturm_counts(d, e2, shifts)
    assert np.array_equal(narrow, spectra.sturm_counts(d, e2, wide)[:shifts.size])
    assert np.array_equal(narrow, spectra.sturm_counts(d, e2, shifts, threads=2))


def _spy_recount(monkeypatch):
    recounted = []
    sequential = spectra._sequential_counts

    def spy(diag, off2, shifts):
        recounted.append(shifts.copy())
        return sequential(diag, off2, shifts)
    monkeypatch.setattr(spectra, "_sequential_counts", spy)
    return recounted


def test_zero_pivots_in_segments_are_recounted(monkeypatch):
    # shift 0 on the zero-diagonal free operator makes every other pivot
    # of every segment exactly zero
    n = 4096
    d, off2 = np.zeros(n), np.ones(n - 1)
    shifts = np.array([-0.5, 0.0, 0.5])
    recounted = _spy_recount(monkeypatch)
    counts = spectra.sturm_counts(d, off2, shifts)
    assert counts[1] == n // 2
    assert np.array_equal(counts, sturm_oracle.floored_counts(d, off2, shifts))
    assert len(recounted) == 1 and 0.0 in recounted[0]


def test_shift_at_a_segment_eigenvalue_is_recounted(monkeypatch):
    # at an eigenvalue of one segment that segment is singular to working
    # precision: its bottom-up sweep ends on a zero pivot and the separator
    # rows beside it turn infinite, which sends the shift to the
    # sequential loop
    n = 2500
    rng = np.random.default_rng(5)
    d, e = 2.0 + 0.3 * rng.standard_normal(n), np.ones(n - 1)
    p = spectra._segment_count(n, 1)
    rows = -(-(n + 1) // p) - 1
    start = (p // 2) * (rows + 1) - (p * (rows + 1) - 1 - n)
    mu, v = scipy.linalg.eigh_tridiagonal(d[start:start + rows], e[start:start + rows - 1])
    shift = mu[np.argmax(np.minimum(np.abs(v[0]), np.abs(v[-1])))]
    recounted = _spy_recount(monkeypatch)
    counts = spectra.sturm_counts(d, e * e, np.array([shift, 1.0, 3.0]))
    assert np.array_equal(counts, sturm_oracle.floored_counts(d, e * e, [shift, 1.0, 3.0]))
    assert len(recounted) == 1 and shift in recounted[0]


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=10, deadline=None)
def test_segmented_counts_match_the_oracle(seed, graded):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(256, 1200))
    d, e = _graded(rng, n) if graded else (rng.standard_normal(n), rng.standard_normal(n - 1))
    glo, ghi = spectra.gershgorin_interval(d, e)
    shifts = rng.uniform(glo, ghi, 24)
    assert spectra._segment_count(n, shifts.size) > 1
    assert np.array_equal(spectra.sturm_counts(d, e * e, shifts),
                          sturm_oracle.floored_counts(d, e * e, shifts))


# ---------------------------------------------------------------------------
# Sturm counts over an exactly constant tail, in closed form


def test_constant_tail_counts_bracket_the_exact_count():
    # shifts where the closed form is most delicate: the band edges and
    # their neighbouring doubles, the tail block's own eigenvalues (where
    # (m+1) theta is a multiple of pi), the head block's eigenvalues (where
    # the last head pivot vanishes) and shifts outside the band
    rng = np.random.default_rng(21)
    a, beta = 0.3, 1.1
    for head, couplings_only in ((15, False), (18, False), (20, False), (17, True)):
        m = 60 - head
        d = np.concatenate([rng.standard_normal(head), np.full(m, a)])
        e = np.concatenate([rng.standard_normal(head - 1), np.full(m, beta)])
        if couplings_only:
            d[:head] = a
        e2 = e * e
        assert spectra._tail_start(d, e2) == head
        edges = np.array([a - 2.0 * beta, a + 2.0 * beta])
        shifts = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            a + 2.0 * beta * np.cos(np.arange(1, m + 1) * math.pi / (m + 1)),
            scipy.linalg.eigvalsh_tridiagonal(d[:head], e[:head - 1]),
            a + 2.0 * beta * np.array([-1.5, -1.01, 1.01, 1.5])])
        counts = spectra.sturm_counts(d, e2, shifts)
        for s, c in zip(shifts, counts):
            below, at_or_below = sturm_oracle.exact_counts(d, e2, s)
            assert below <= c <= at_or_below, (head, s)
        # the closed form, not the recount, settles the tail's nodes
        _, settled = spectra._tail_counts(d, e2, shifts, head)
        assert settled[6:6 + m].all()


@pytest.mark.parametrize("n", [60, 2000])
def test_constant_section_counts_in_closed_form(n):
    # a fully constant section is all tail below row 0, and its
    # eigenvalues are a + 2 beta cos(j pi/(n + 1))
    a, beta = -0.7, 0.45
    d, e = np.full(n, a), np.full(n - 1, beta)
    assert spectra._tail_start(d, e * e) == 1
    exact = a + 2.0 * beta * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))
    mids = 0.5 * (exact[1:] + exact[:-1])
    rng = np.random.default_rng(n)
    shifts = np.concatenate([mids, rng.uniform(a - 2.5 * beta, a + 2.5 * beta, 400)])
    counts = spectra.sturm_counts(d, e * e, shifts)
    expect = np.count_nonzero(exact[None, :] < shifts[:, None], axis=1)
    assert np.array_equal(counts, expect)


def _spy_full_counts(monkeypatch):
    recounted = []
    full = spectra._full_counts

    def spy(diag, off2, shifts, threads):
        recounted.append(shifts.copy())
        return full(diag, off2, shifts, threads)
    monkeypatch.setattr(spectra, "_full_counts", spy)
    return recounted


def test_constant_tail_counts_match_the_loop(monkeypatch):
    # seeded limit and hse sections of the dense-spectrum family: the
    # certificate shifts and random Gershgorin shifts get the sequential
    # loop's counts with threads 1 and 2, and at most 1% of them are
    # recounted in either sweep
    rng = np.random.default_rng(22)
    recounted = _spy_full_counts(monkeypatch)
    total = 0
    for j in range(40):
        op = _shell_section(rng.uniform(0.3, 0.7), rng.uniform(1.5, 3.0),
                            int(rng.integers(200, 1501)), ("limit", "hse")[j % 2])
        d, e = np.asarray(op.diag), np.asarray(op.offdiag)
        e2 = e * e
        assert _tail_rows(d, e2) >= spectra._TAIL_MIN_ROWS
        glo, ghi = spectra.gershgorin_interval(d, e)
        shifts = np.concatenate([_certificate_shifts(d, e), rng.uniform(glo, ghi, 2000)])
        loop = spectra._sequential_counts(d, e2, shifts)[0]
        total += shifts.size
        for threads in (1, 2):
            assert np.array_equal(spectra.sturm_counts(d, e2, shifts, threads), loop)
    assert sum(r.size for r in recounted) <= 0.01 * 2 * total


def test_shift_at_a_constant_section_eigenvalue_is_recounted(monkeypatch):
    # at an eigenvalue a + 2 beta cos(j pi/(n + 1)) of a constant section
    # the argument (n + 1) theta lands on j pi to within rounding, inside
    # its error bound, which sends the shift to the full count
    n, a, beta = 61, 0.25, 0.8
    d, e2 = np.full(n, a), np.full(n - 1, beta * beta)
    others = np.array([a - 0.123, a + 0.456])
    for j in (1, 15, 31, 46, 61):
        shift = a + 2.0 * beta * math.cos(j * math.pi / (n + 1))
        shifts = np.concatenate([[shift], others])
        _, settled = spectra._tail_counts(d, e2, shifts, 1)
        assert not settled[0] and settled[1:].all()
        recounted = _spy_full_counts(monkeypatch)
        counts = spectra.sturm_counts(d, e2, shifts)
        assert len(recounted) == 1 and np.array_equal(recounted[0], [shift])
        for s, c in zip(shifts, counts):
            below, at_or_below = sturm_oracle.exact_counts(d, e2, s)
            assert below <= c <= at_or_below, (j, s)
        monkeypatch.undo()


def test_certificate_of_a_constant_tail_runs_the_head_rows_only(monkeypatch):
    # the row-shifts that the sequential loop processes in a certificate
    # sweep: the head's k0 rows for every shift, plus every row for each
    # recounted shift; a silent return to the full loop would take n rows
    op = _shell_section(0.6, 2.2, 1500, "limit")
    d, e = np.asarray(op.diag), np.asarray(op.offdiag)
    n, k0 = d.size, spectra._tail_start(d, e * e)
    row_shifts = []
    sequential = spectra._sequential_counts

    def spy(diag, off2, shifts):
        row_shifts.append(diag.shape[0] * shifts.size)
        return sequential(diag, off2, shifts)
    monkeypatch.setattr(spectra, "_sequential_counts", spy)
    recounted = _spy_full_counts(monkeypatch)
    vals = spectra.eigenvalues_tridiagonal(op)[0]
    assert vals.size == n and row_shifts
    assert sum(row_shifts) <= (k0 + 1) * 2 * n + n * sum(r.size for r in recounted)


# ---------------------------------------------------------------------------
# Eigenvalues of a constant-tail section: Newton on the continuous count


def _headed_section(rng, head, n=60, a=0.3, beta=1.1, spread=0.4, weakest=0.6):
    # a random head of weaker couplings over a constant tail: diagonal
    # a + spread beta N(0, 1) and couplings beta U(weakest, 1)
    d = np.concatenate([a + spread * beta * rng.standard_normal(head), np.full(n - head, a)])
    e = np.concatenate([beta * rng.uniform(weakest, 1.0, head - 1), np.full(n - head, beta)])
    return d, e


def _span(d, e):
    glo, ghi = spectra.gershgorin_interval(d, e)
    return ghi - glo


def test_tail_route_values_sit_at_the_exact_eigenvalues():
    # exact rational counts place eigenvalue k within 1e-13 of the span
    # of the k-th returned value
    rng = np.random.default_rng(2)
    for head in (15, 17, 18):
        d, e = _headed_section(rng, head)
        vals, route, k0, _ = spectra.eigenvalues_tridiagonal(_op(d, e))
        assert (route, k0) == ("constant_tail", head)
        delta = 1e-13 * _span(d, e)
        for k, v in enumerate(vals):
            assert sturm_oracle.exact_counts(d, e * e, v - delta)[0] <= k, (head, k)
            assert sturm_oracle.exact_counts(d, e * e, v + delta)[1] > k, (head, k)


@pytest.mark.parametrize("n", [60, 2000])
def test_constant_section_eigenvalues_in_closed_form(n):
    a, beta = -0.7, 0.45
    d, e = np.full(n, a), np.full(n - 1, beta)
    vals, route, _, _ = spectra.eigenvalues_tridiagonal(_op(d, e))
    exact = a + 2.0 * beta * np.cos(np.arange(n, 0, -1) * math.pi / (n + 1))
    assert route == "constant_tail"
    assert np.max(np.abs(vals - exact)) <= 1e-15 * _span(d, e)


def test_tail_route_matches_stemr_on_shell_sections():
    # seeded limit and hse sections of 200 to 3000 rows against LAPACK's
    # MRRR, which shares nothing with the route or with sterf
    rng = np.random.default_rng(23)
    for j in range(40):
        op = _shell_section(rng.uniform(0.3, 0.7), rng.uniform(1.5, 3.0),
                            int(rng.integers(200, 3001)), ("limit", "hse")[j % 2])
        d, e = np.asarray(op.diag), np.asarray(op.offdiag)
        vals, route, _, _ = spectra.eigenvalues_tridiagonal(op)
        ref = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stemr")
        assert route == "constant_tail"
        assert np.max(np.abs(vals - ref)) <= 1e-13 * _span(d, e), j


@pytest.mark.parametrize("case", ["head_spike", "short_tail"])
def test_sections_off_the_tail_route_get_sterf_bit_for_bit(case):
    # the sections take the route until a spike in the head puts an
    # eigenvalue above the band, or one more head row leaves a tail of 31;
    # a weakly disordered head converges within the cap of 60/28 rows
    d, e = _headed_section(np.random.default_rng(2), 28, spread=0.1, weakest=0.9)
    assert spectra.eigenvalues_tridiagonal(_op(d, e))[1:3] == ("constant_tail", 28)
    if case == "head_spike":
        d[7] = 0.3 + 3.0 * 1.1
    else:
        d[28] += 0.1
    vals, route, k0, steps = spectra.eigenvalues_tridiagonal(_op(d, e))
    assert (route, steps) == ("sterf", 0)
    assert d.size - k0 == (32 if case == "head_spike" else 31)
    ref = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    assert np.array_equal(vals, ref)


#: (eta, gamma, n) of the limit sections of the first nine spectrum jobs
#: of the dense-spectrum benchmark, seeds 1 and 7
_DENSE_SECTIONS = [
    (0.509817, 2.1574, 1105), (0.435318, 2.997569, 820), (0.648769, 1.605062, 1369),
    (0.361923, 2.284024, 747), (0.566741, 2.017791, 1163), (0.471306, 2.711155, 970),
    (0.695761, 1.762997, 1416), (0.339159, 2.613154, 523), (0.508895, 2.162298, 1122),
    (0.509637, 2.187202, 1071), (0.449641, 2.908845, 833), (0.647903, 1.537998, 1250),
    (0.356117, 2.287648, 724), (0.556042, 2.046403, 1218), (0.498715, 2.731499, 940),
    (0.656073, 1.815249, 1497), (0.328234, 2.466185, 616), (0.540397, 2.127364, 1043)]


def test_tail_route_converges_well_inside_the_cap():
    # most roots start within rounding of C = K + 1 and stop at once; a
    # root that bisected after its zero step instead would take about
    # 45 steps, and Newton without the pivot derivative converges slowly
    for eta, gamma, n in _DENSE_SECTIONS:
        op = _shell_section(eta, gamma, n, "limit")
        vals, route, k0, steps = spectra.eigenvalues_tridiagonal(op)
        assert route == "constant_tail" and 19 <= k0 <= 89
        assert 1 <= steps <= 5 < spectra._newton_cap(n, k0)


def test_newton_cap_hands_random_heads_to_sterf():
    # weakly disordered heads of 60-400 rows: their modes barely reach the
    # tail, so some roots need tens of steps.  The steps stop at
    # _newton_cap(n, k0) = 6 n/k0, where the 400-row head goes to sterf;
    # both routes pass the certificate (eigenvalues_tridiagonal raises
    # otherwise) and agree with LAPACK MRRR
    rng = np.random.default_rng(31)
    routes = []
    for head, n in ((400, 1500), (200, 1500), (100, 1000), (60, 300)):
        d, e = _headed_section(rng, head, n=n, spread=0.1, weakest=0.9)
        vals, route, k0, steps = spectra.eigenvalues_tridiagonal(_op(d, e))
        cap = spectra._newton_cap(n, k0)
        assert k0 == head
        assert 0 < steps <= cap and (route == "constant_tail" or steps == cap)
        ref = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stemr")
        assert np.max(np.abs(vals - ref)) <= 1e-13 * _span(d, e), head
        routes.append((route, steps, cap))
    assert routes[0] == ("sterf", 22, 22)
    assert [r[0] for r in routes[1:]] == ["constant_tail"] * 3


def _spy_band_edges(monkeypatch):
    verdicts = []
    real = spectra._band_edges

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]
    monkeypatch.setattr(spectra, "_band_edges", spy)
    return verdicts


def test_band_edges_from_the_node_pass_match_the_full_counts(monkeypatch):
    # seeded limit and hse sections far beyond the benchmark's range,
    # where many heads put an eigenvalue outside the band: the verdict
    # that the head pass reads off its end nodes equals the full Sturm
    # counts at a -+ 2 beta, both edges at once, on every section
    verdicts = _spy_band_edges(monkeypatch)
    rng = np.random.default_rng(30)
    sections = outside = 0
    while sections < 200:
        eta, gamma = rng.uniform(0.05, 0.95), rng.uniform(1.05, 6.0)
        n, i_start = int(rng.integers(40, 1501)), int(rng.integers(1, 31))
        try:
            dist = model.build_mass_distribution(eta, gamma, N=n + i_start + 4)
            pd = model.build_pd_distribution(dist, pressure_mode=("limit", "hse")[sections % 2])
            op = discrete.assemble_jacobi(pd, n, i_start=i_start)
        except ValidationError:
            continue
        d, e2 = np.asarray(op.diag), np.asarray(op.offdiag) ** 2
        k0 = spectra._tail_start(d, e2)
        if n - k0 < spectra._TAIL_MIN_ROWS:
            continue
        verdicts.clear()
        vals, steps = spectra._tail_eigenvalues(d, e2, k0)
        a, beta = d[-1], math.sqrt(e2[-1])
        full = spectra._full_counts(d, e2, np.array([a - 2.0 * beta, a + 2.0 * beta]), 1)
        assert verdicts == [full[0] == 0 and full[1] == n], (eta, gamma, n, i_start)
        assert (vals is None) == (not verdicts[0])
        outside += not verdicts[0]
        sections += 1
    assert 20 <= outside <= 180


@pytest.mark.parametrize("n", [60, 200])
def test_band_edge_inside_the_margin_goes_to_sterf(monkeypatch, n):
    # one head row whose pivot at a - 2 beta is beta m/(m+1) puts an
    # eigenvalue on the band edge: q/beta sits on its threshold to
    # rounding, inside _EDGE_MARGIN, so the head pass does not clear the
    # edges and the section goes to sterf, which the certificate checks
    a, beta, m = 0.3, 1.1, n - 1
    d, e = np.full(n, a), np.full(n - 1, beta)
    d[0] = a - 2.0 * beta + beta * m / (m + 1)
    assert abs((d[0] - (a - 2.0 * beta)) / beta - m / (m + 1)) <= spectra._EDGE_MARGIN
    verdicts = _spy_band_edges(monkeypatch)
    vals, route, k0, steps = spectra.eigenvalues_tridiagonal(_op(d, e))
    assert (route, k0, steps) == ("sterf", 1, 0)
    assert verdicts == [False]
    ref = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="stemr")
    assert np.max(np.abs(vals - ref)) <= 1e-13 * _span(d, e)


def _scaled_polytrope_system():
    dist = model.build_mass_distribution(0.5, 2.0, N=700)
    gp = model.gamma_profile(dist, "constant", value=2.0)
    pd = model.build_pd_distribution(dist, gp, pressure_mode="polytrope")
    return polytrans.build_scaled_system(pd, 600)


def _scaled_polytrope_op():
    return _scaled_polytrope_system().operator()


def _ppmodes_window():
    dsp = ppmodes.construct_dsp(n=2000)
    op = discrete.assemble_jacobi(ppmodes.theorem_model(dsp), dsp.extent, i_start=1)
    return op, (-3.0, op.scaling.interval[0])


@pytest.mark.parametrize("case", ["limit", "scaled_polytrope", "two_periodic",
                                  "ppmodes_window"])
def test_lapack_route_matches_bisection(case, canonical_op):
    # the certified LAPACK values agree with the NumPy bisection oracle to
    # the shared default tolerance of 1e-10 of the span
    window = None
    if case == "limit":
        op = canonical_op
    elif case == "scaled_polytrope":
        op = _scaled_polytrope_op()
    elif case == "two_periodic":
        op = discrete_oracle.build_two_periodic(2.0, 1.0, 0.5, 401)
    else:
        op, window = _ppmodes_window()
    glo, ghi = spectra.gershgorin_interval(op.diag, op.offdiag)
    tol = 1e-10 * (ghi - glo)
    if window is None:
        vals = spectra.eigenvalues_tridiagonal(op)[0]
    else:
        vals, _ = spectra.eigenpairs_tridiagonal(op, window=window)
    ref = _eigenvalues_bisect(op, window=window)
    assert vals.size == ref.size > 0
    assert np.max(np.abs(vals - ref)) <= tol
    if case == "ppmodes_window":
        assert vals.size >= 10


def test_default_tolerance_floor_on_a_nearly_scalar_section():
    # a span of 1e-9 around 4 puts 1e-10 of the span far below the
    # spacing of doubles near 4; both solvers must still finish and agree
    rng = np.random.default_rng(3)
    d = 4.0 + 1e-9 * rng.random(120)
    e = 1e-10 * rng.random(119)
    glo, ghi = spectra.gershgorin_interval(d, e)
    tol = spectra.default_tol(glo, ghi)
    assert spectra.DEFAULT_RTOL * (ghi - glo) < np.spacing(4.0) < tol
    vals = spectra.eigenvalues_tridiagonal(_op(d, e))[0]
    ks = np.arange(120)
    assert np.array_equal(spectra.sturm_counts(d, e * e, vals + tol), ks + 1)
    assert np.max(np.abs(vals - _eigenvalues_bisect(d, e))) <= tol
    # a wide section keeps the span-relative tolerance
    assert spectra.default_tol(-2.0, 2.0) == spectra.DEFAULT_RTOL * 4.0


def _default_tol(op):
    return spectra.default_tol(*spectra.gershgorin_interval(op.diag, op.offdiag))


def test_lapack_indices_match_sturm_counts(canonical_op):
    d, e = canonical_op.diag, canonical_op.offdiag
    tol = _default_tol(canonical_op)
    window = _index_window(d, e, 100, 139)
    vals, _ = spectra.eigenpairs_tridiagonal(canonical_op, window=window)
    assert vals.size == 40
    ks = np.arange(100, 140)
    assert np.array_equal(spectra.sturm_counts(d, e * e, vals - tol), ks)
    assert np.array_equal(spectra.sturm_counts(d, e * e, vals + tol), ks + 1)


def _lapack_patched(monkeypatch, edit):
    # spectra imports the solver from scipy.linalg at each call
    real = scipy.linalg.eigvalsh_tridiagonal
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal",
                        lambda *a, **k: edit(real(*a, **k)))


def _nudged(vals, tol):
    vals = vals.copy()
    vals[5] += 10.0 * tol
    return vals


def test_certificate_rejects_nudged_value(canonical_op, monkeypatch):
    # canonical_op ends in a constant tail and takes the Newton route
    assert spectra.eigenvalues_tridiagonal(canonical_op)[1] == "constant_tail"
    tol = _default_tol(canonical_op)
    real = spectra._tail_eigenvalues
    monkeypatch.setattr(spectra, "_tail_eigenvalues",
                        lambda *a: (_nudged(real(*a)[0], tol), 1))
    with pytest.raises(NumericalError, match="certificate failed at eigenvalue index 5:"):
        spectra.eigenvalues_tridiagonal(canonical_op)


def test_certificate_rejects_nudged_sterf_value(monkeypatch):
    # the scaled polytrope's 2-periodic tail is not constant: sterf
    op = _scaled_polytrope_op()
    assert spectra.eigenvalues_tridiagonal(op)[1] == "sterf"
    tol = _default_tol(op)
    _lapack_patched(monkeypatch, lambda vals: _nudged(vals, tol))
    with pytest.raises(NumericalError, match="certificate failed at eigenvalue index 5:"):
        spectra.eigenvalues_tridiagonal(op)


def test_polish_repairs_raw_values_and_the_certificate_checks_the_polished(
        canonical_op, monkeypatch):
    # a raw stebz value 10 tol off is restored from its vector; the same
    # nudge applied after the polish still fails the certificate
    tol = _default_tol(canonical_op)
    window = _index_window(canonical_op.diag, canonical_op.offdiag, 100, 139)
    clean, clean_vecs = spectra.eigenpairs_tridiagonal(canonical_op, window=window)
    with monkeypatch.context() as mp:
        _lapack_patched(mp, lambda vals: _nudged(vals, tol))
        vals, vecs = spectra.eigenpairs_tridiagonal(canonical_op, window=window)
    glo, ghi = spectra.gershgorin_interval(canonical_op.diag, canonical_op.offdiag)
    assert np.max(np.abs(vals - clean)) <= 1e-14 * (ghi - glo)
    assert np.max(np.abs(np.abs(np.sum(vecs * clean_vecs, axis=0)) - 1.0)) < 1e-12

    real = spectra._rayleigh_ritz
    monkeypatch.setattr(spectra, "_rayleigh_ritz",
                        lambda *a: _nudged(real(*a), tol))
    with pytest.raises(NumericalError, match="certificate failed at eigenvalue index 105:"):
        spectra.eigenpairs_tridiagonal(canonical_op, window=window)


def test_certificate_rejects_window_count_mismatch(canonical_op, monkeypatch):
    _lapack_patched(monkeypatch, lambda vals: vals[1:])
    with pytest.raises(NumericalError, match="LAPACK finds 17 eigenvalues in the window"):
        spectra.eigenpairs_tridiagonal(canonical_op, window=(-0.3, 0.0))


@pytest.mark.parametrize("case", ["ppmodes_window", "limit_indices"])
def test_polished_values_match_full_precision_bisection(case, canonical_op):
    # stebz stops at the certificate's width; the Rayleigh-Ritz polish
    # restores what stebz at machine precision (tol=0) returns
    if case == "ppmodes_window":
        op, window = _ppmodes_window()
    else:
        op = canonical_op
        window = _index_window(op.diag, op.offdiag, 0, 9)
    vals, vecs = spectra.eigenpairs_tridiagonal(op, window=window)
    ref = scipy.linalg.eigvalsh_tridiagonal(op.diag, op.offdiag, tol=0.0, select="v",
                                            select_range=window, lapack_driver="stebz")
    glo, ghi = spectra.gershgorin_interval(op.diag, op.offdiag)
    assert vals.size == ref.size >= 10
    assert np.max(np.abs(vals - ref)) <= 1e-14 * (ghi - glo)
    assert vecs.shape == (op.n, vals.size)


@pytest.mark.parametrize("coupling", [1e-13, 1e-9])
def test_near_degenerate_cluster_gets_certified_ritz_pairs(coupling):
    # two identical halves joined by a weak coupling: every eigenvalue
    # comes as a pair far inside the 1e-8 cluster width.  At 1e-13 the
    # pairs are degenerate to rounding; at 1e-9 they split by up to about
    # 1e-10 (nearly free halves keep the end components of their modes
    # large), so only the rotation of each cluster onto its Ritz vectors
    # resolves them
    rng = np.random.default_rng(21)
    d_half, e_half = 0.1 * rng.standard_normal(30), 1.0 + 0.1 * rng.standard_normal(29)
    d = np.concatenate([d_half, d_half])
    e = np.concatenate([e_half, [coupling], e_half])
    glo, ghi = spectra.gershgorin_interval(d, e)
    span = ghi - glo
    vals, V = spectra.eigenpairs_tridiagonal(_op(d, e),
                                           window=_index_window(d, e, 0, 59))
    assert np.max(np.diff(vals)[::2]) < 1e-8 * span
    ref = scipy.linalg.eigvalsh_tridiagonal(d, e)
    assert np.max(np.abs(vals - ref)) <= 1e-14 * span
    assert np.max(np.abs(V.T @ V - np.eye(60))) < 1e-12
    AV = d[:, None] * V
    AV[:-1] += e[:, None] * V[1:]
    AV[1:] += e[:, None] * V[:-1]
    assert np.max(np.linalg.norm(AV - V * vals, axis=0)) < 1e-12 * span


def test_lapack_route_refuses_non_finite_section():
    d = np.zeros(8)
    e = np.ones(7)
    e[4] = np.inf
    with pytest.raises(NumericalError, match="non-finite entry in row 4"):
        spectra.eigenvalues_tridiagonal(_op(d, e))


def test_inverse_iteration_residuals(canonical_op):
    d, e = canonical_op.diag, canonical_op.offdiag
    vals, _ = spectra.eigenpairs_tridiagonal(canonical_op, window=_index_window(d, e, 0, 9))
    assert vals.size == 10
    V = spectra.eigenvectors_inverse_iteration(d, e, vals)
    for j in range(10):
        v = V[:, j]
        av = d * v
        av[:-1] += e * v[1:]
        av[1:] += e * v[:-1]
        assert np.linalg.norm(av - vals[j] * v) < 1e-8
    # distinct eigenvalues give orthogonal vectors
    gram = V.T @ V
    assert np.max(np.abs(gram - np.eye(10))) < 1e-8


def test_inverse_iteration_rejects_fake_eigenvalue():
    d, e = np.zeros(30), np.ones(29)
    with pytest.raises(NumericalError, match="residual"):
        spectra.eigenvectors_inverse_iteration(d, e, np.array([50.0]))


def test_inverse_iteration_needs_three_rows():
    # LAPACK gttrf has no wrapper for fewer than three rows
    with pytest.raises(ValidationError, match="at least 3 rows, got 2"):
        spectra.eigenvectors_inverse_iteration(np.zeros(2), np.ones(1), [1.0])


# ---------------------------------------------------------------------------
# fill diagnostics


def test_fill_report_canonical(canonical_op):
    rep = spectra.spectrum_fill_report(canonical_op, pad=0.05)
    assert rep.interval == pytest.approx((-3.2, 3.2))
    assert rep.n_outliers == 0
    assert rep.max_gap == pytest.approx(0.0167272, abs=1e-5)
    assert rep.n_inside == canonical_op.n
    assert rep.fills


def test_fill_report_flags_sparse_coverage():
    # two far-apart eigenvalues cannot fill (-3.2, 3.2)
    op = discrete.JacobiOperator(diag=np.array([-3.0, 3.0]),
                                 offdiag=np.zeros(1), i_start=1)
    rep = spectra.spectrum_fill_report(discrete_oracle.with_interval(op, (-3.2, 3.2)),
                                       pad=0.05)
    assert not rep.fills
    assert rep.max_gap > 5.0


# ---------------------------------------------------------------------------
# tail plane waves


@pytest.mark.parametrize("lam", [-1.6, 0.0, 1.6])
def test_jost_fit_interior_energies(canonical_op, lam):
    fit = spectra.jost_verify(canonical_op, lam)
    expected = math.acos((lam - 0.0) / 3.2)
    assert fit.theta == pytest.approx(expected, abs=1e-14)
    assert fit.theta_error < 1e-6
    assert fit.amplitude_flatness < 1e-6
    assert fit.phase_residual < 1e-3


def test_jost_rejects_exterior_energy(canonical_op):
    with pytest.raises(ValidationError, match="not interior"):
        spectra.jost_verify(canonical_op, 3.3)
    with pytest.raises(ValidationError, match="not interior"):
        spectra.jost_verify(canonical_op, -3.2)


def _jost_loop(op, lam):
    """Reference Jost fit: the recurrence stepped row by row in Python."""
    sp = op.scaling
    theta = math.acos((lam - sp.centre) / (2.0 * sp.kappa * sp.lambda_star))
    d, e, n = op.diag, np.abs(op.offdiag), op.n
    X = np.empty(n, dtype=complex)
    X[0] = 1.0
    X[1] = complex(math.cos(theta), math.sin(theta))
    for k in range(1, n - 1):
        X[k + 1] = ((lam - d[k]) * X[k] - e[k - 1] * X[k - 1]) / e[k]
    w = np.abs(X[n // 4:])
    interior = (w[1:-1] >= w[:-2]) & (w[1:-1] >= w[2:])
    peaks = w[1:-1][interior]
    if peaks.size < 3:
        peaks = w
    phi = np.unwrap(np.angle(X[n // 4:]))
    kk = np.arange(phi.size, dtype=float)
    A = np.vstack([kk, np.ones_like(kk)]).T
    coef = np.linalg.lstsq(A, phi, rcond=None)[0]
    return (abs(float(coef[0])), float((np.max(peaks) - np.min(peaks)) / np.mean(peaks)),
            float(np.sqrt(np.mean((phi - A @ coef) ** 2))), int(peaks.size))


# n 24 leaves an 18-shell fit window, shorter than three envelope periods
# near the band edges, so the peaks fall back to the whole window there
@pytest.mark.parametrize("eta,gamma,n", [(0.5, 2.0, 600), (0.3, 1.5, 15000),
                                         (0.7, 3.0, 25000), (0.5, 2.0, 24)])
def test_jost_band_solve_matches_python_recurrence(eta, gamma, n):
    dist = model.build_mass_distribution(eta, gamma, N=n + 100)
    op = discrete.assemble_jacobi(model.build_pd_distribution(dist, pressure_mode="limit"),
                                  n, i_start=16)
    sp = op.scaling
    half = 2.0 * sp.kappa * sp.lambda_star
    fallbacks = []
    for frac in (-0.995, -0.97, -0.8, -0.3, 0.1, 0.75, 0.97, 0.995):
        lam = sp.centre + frac * half
        fit = spectra.jost_verify(op, lam)
        theta_fit, flat, resid, n_peaks = _jost_loop(op, lam)
        assert fit.theta_fit == pytest.approx(theta_fit, rel=0.0, abs=1e-12)
        assert fit.amplitude_flatness == pytest.approx(flat, rel=0.0, abs=1e-10)
        assert fit.phase_residual == pytest.approx(resid, rel=0.0, abs=1e-10)
        assert fit.n_peaks == n_peaks
        # the whole window counts as the peaks exactly when the fit fell back
        assert fit.peak_fallback == (n_peaks == n - n // 4)
        fallbacks.append(fit.peak_fallback)
    assert any(fallbacks) == (n == 24)


def test_jost_checks_the_fit_window_before_solving(canonical_op):
    tiny = discrete.JacobiOperator(diag=canonical_op.diag[:2],
                                   offdiag=canonical_op.offdiag[:1],
                                   i_start=16, pd=canonical_op.pd)
    with pytest.raises(ValidationError, match="fit window too small"):
        spectra.jost_verify(tiny, 0.0)


def test_jost_vanishing_coupling_is_numerical(canonical_op):
    off = canonical_op.offdiag.copy()
    off[300] = 0.0
    cut = discrete.JacobiOperator(diag=canonical_op.diag, offdiag=off,
                                  i_start=16, pd=canonical_op.pd)
    with pytest.raises(NumericalError, match="singular"):
        spectra.jost_verify(cut, 0.0)


# ---------------------------------------------------------------------------
# two-periodic comparison operator


def test_band_edges_closed_form():
    bs = spectra.band_structure(2.0, 1.0, 0.5)
    assert bs.e_minus == pytest.approx(3.0 - math.sqrt(5.0), rel=1e-14)
    assert bs.e1 == 2.0
    assert bs.e2 == 4.0
    assert bs.e_plus == pytest.approx(3.0 + math.sqrt(5.0), rel=1e-14)
    assert bs.gap == (2.0, 4.0)
    d = discrete_oracle.band_distance(bs, np.array([1.0, 2.0, 3.0, 4.5, 6.0]))
    assert d[0] == 0.0
    assert d[1] == 0.0
    assert d[2] == pytest.approx(1.0)
    assert d[3] == 0.0
    assert d[4] == pytest.approx(6.0 - bs.e_plus)


def test_band_parameter_validation():
    with pytest.raises(ValidationError, match=r"eta must lie in \(0, 1\)"):
        spectra.band_structure(2.0, 1.0, 1.5)
    with pytest.raises(ValidationError, match="beta > 0"):
        spectra.band_structure(-1.0, 1.0, 0.5)


def test_two_periodic_section_fills_bands():
    bs = spectra.band_structure(2.0, 1.0, 0.5)
    op = discrete_oracle.build_two_periodic(2.0, 1.0, 0.5, 400)
    assert np.all(op.offdiag == 1.0)
    assert op.diag[0] == 4.0  # shell 1 is odd: beta/eta
    assert op.diag[1] == 2.0
    # band_report places the negated eigenvalues, so the section's own
    # values are those of -op
    rep = spectra.band_report(discrete_oracle.negated(op), bs, pad=0.05)
    assert rep.n_values == 400
    assert rep.n_off_band == 0
    assert rep.n_gap_interior == 0
    vals = scipy.linalg.eigvalsh_tridiagonal(op.diag, op.offdiag)
    assert np.max(discrete_oracle.band_distance(bs, vals)) == pytest.approx(0.0, abs=1e-12)


def test_band_report_counts_gap_states():
    # a diagonal section (every coupling exactly 0) holds the values
    # x = -diag exactly; four of them sit on the padded edges, and four
    # lie one double past an edge, away from its band
    bs = spectra.band_structure(2.0, 1.0, 0.5)
    pad = 0.05
    edges = [bs.e_minus - pad, bs.e1 + pad, bs.e2 - pad, bs.e_plus + pad]
    past = [math.nextafter(u, math.inf if k % 2 else -math.inf)
            for k, u in enumerate(edges)]
    vals = np.array([1.0, 3.0, 2.01, 5.0, 7.0, *edges, *past])
    rep = spectra.band_report(_op(-vals, np.zeros(vals.size - 1)), bs, pad=pad)
    assert rep.n_values == 13
    # 3.0 is deep in the gap; 2.01 is within the margin of the band edge;
    # the padded bands are closed, so the edge values stay on them and
    # the two values past the inner edges lie in the gap
    assert rep.n_gap_interior == 1 + 2
    assert rep.n_off_band == 2 + 4  # 3.0, 7.0 and the four past the edges
    assert np.max(discrete_oracle.band_distance(bs, vals)) == pytest.approx(7.0 - bs.e_plus)


def test_band_report_thresholds_are_exact_counts(monkeypatch):
    # a two-periodic section whose head sheds states into the gap and off
    # the bands, negated: each of the four threshold counts equals the
    # exact count of the values x = -lambda below its shift
    bs = spectra.band_structure(2.0, 1.0, 0.5)
    op = discrete_oracle.build_two_periodic(2.0, 1.0, 0.5, 59)
    op.diag[:5] += [0.0, 0.0, 1.0, 0.0, -4.0]
    op = discrete_oracle.negated(op)
    calls = []
    real = spectra.sturm_counts

    def spy(diag, off2, shifts, threads=1):
        counts = real(diag, off2, shifts, threads)
        calls.append((diag, off2, shifts, counts))
        return counts
    monkeypatch.setattr(spectra, "sturm_counts", spy)
    for pad in (0.0, 0.05):
        rep = spectra.band_report(op, bs, pad=pad)
        diag, off2, shifts, counts = calls.pop()
        assert len(shifts) == 4
        exact = [sturm_oracle.exact_counts(diag, off2, u) for u in shifts]
        assert [int(c) for c in counts] == [below for below, _ in exact], pad
        neg = np.sort(-scipy.linalg.eigvalsh_tridiagonal(op.diag, op.offdiag))
        assert rep == discrete_oracle.band_report_of_values(neg, bs, pad), pad
        assert rep.n_gap_interior > 0 and rep.n_off_band > rep.n_gap_interior, pad


def test_band_report_matches_lapack_values_on_benchmark_sections():
    # scaled sections drawn like the benchmark's, but from 100 rows on so
    # that the sequential count (n < 256) runs as well as the segmented
    # one; the oracle applies the value-based report to LAPACK MRRR values
    rng = np.random.default_rng(11)
    sizes, gaps = [], 0
    for j in range(32):
        eta, gamma = rng.uniform(0.45, 0.65), rng.uniform(1.8, 2.4)
        Gamma = 1.0 + rng.uniform(1.1, 1.8) / (gamma - 1.0)
        n = int(rng.integers(100, 701))
        dist = model.build_mass_distribution(eta, gamma, N=n + 5)
        gp = model.gamma_profile(dist, "constant", value=Gamma)
        pd = model.build_pd_distribution(dist, gp, pressure_mode="polytrope")
        system = polytrans.build_scaled_system(pd, n)
        op, bs = system.operator(), system.limit_band_structure()
        neg = np.sort(-scipy.linalg.eigvalsh_tridiagonal(op.diag, op.offdiag,
                                                        lapack_driver="stemr"))
        # the last pad closes the gap
        for pad in (0.0, 0.05, 0.2, 0.6 * (bs.e2 - bs.e1)):
            rep = spectra.band_report(op, bs, pad=pad)
            assert rep == discrete_oracle.band_report_of_values(neg, bs, pad), (j, pad)
            gaps += rep.n_gap_interior > 0
        assert rep.n_gap_interior == 0
        sizes.append(n)
    assert min(sizes) < spectra._SEGMENT_MIN_ROWS <= np.median(sizes)
    assert gaps > 0


def test_band_report_refuses_a_non_finite_section():
    system = _scaled_polytrope_system()
    op = system.operator()
    op.diag[17] = np.nan
    with pytest.raises(NumericalError, match="non-finite entry in row 17"):
        spectra.band_report(op, system.limit_band_structure(), pad=0.05)


@given(beta=st.floats(0.5, 4.0), mu=st.floats(0.1, 2.0), eta=st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_band_nesting_properties(beta, mu, eta):
    bs = spectra.band_structure(beta, mu, eta)
    assert bs.e_minus < bs.e1 <= bs.e2 < bs.e_plus
    assert bs.e1 == pytest.approx(beta)
    assert bs.e2 == pytest.approx(beta / eta)
    # edges are eigenvalues of the period-2 transfer problem: the outer
    # pair solves (x - beta)*(x - beta/eta) = 4*mu**2
    for edge in (bs.e_minus, bs.e_plus):
        assert (edge - bs.e1) * (edge - bs.e2) == pytest.approx(
            4.0 * mu ** 2, rel=1e-9, abs=1e-9)
