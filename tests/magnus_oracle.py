"""Reference Magnus kernels and slope check for the tests of ``slform``.

Two step kernels share the product tree and the prefix scan below, all
allocating: every 2x2 product is built with ``np.stack`` and the prefix
scan concatenates a new array on each pass.

- :func:`_magnus4_steps` is the fourth-order two-node step that ``slform``
  used before its sixth-order step.  It shares no code with that step, so
  :func:`_propagate` with it is an independent integrator.
- :func:`_magnus6_steps` writes the sixth-order step of ``slform`` out
  with temporaries.  It does the same IEEE operations in the same order
  as the buffered kernel, so the two must agree bit for bit.

``_slope_check`` evaluates its function once per depth grid.
"""

import math

import numpy as np

from lawe_spectra.slform import QuadCheck

#: offset of the two Gauss nodes of a fourth-order step from its middle, in steps
_GAUSS4 = math.sqrt(3.0) / 6.0
#: offset of the outer Gauss nodes of a sixth-order step from its middle, in steps
_GAUSS6 = math.sqrt(15.0) / 10.0
#: most nodes at which one call evaluates Q
_NODES = 2 * 8192


def _mul(A, B):
    """A @ B for stacks of 2x2 matrices stored as rows (a, b, c, d).

    Written out element by element, so the result does not depend on
    how a BLAS library orders its sums.
    """
    a, b, c, d = A
    e, f, g, h = B
    return np.stack([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])


def _prefix_products(T):
    """P_k = T_k ... T_1 for a (4, n) stack of 2x2 matrices.

    A Hillis-Steele scan: after the pass with stride d, column k holds
    the product of the up to 2d matrices ending at k.
    """
    P, d = T, 1
    while d < P.shape[1]:
        P = np.concatenate([P[:, :d], _mul(P[:, d:], P[:, :-d])], axis=1)
        d *= 2
    return P


def _magnus4_steps(form, lam, h, first, n):
    """exp(Omega) of the fourth-order Magnus steps first .. first+n-1 of size h.

    Omega = [[delta, h], [h*fbar, -delta]] from f = Q - lam at the two
    Gauss nodes of each step; it is traceless, so exp(Omega) = C*I +
    S*Omega with C, S the cosh and sinh/kappa (or cos and sin/kappa) of
    kappa = sqrt|delta**2 + h**2*fbar|.  Returns the matrices and the
    largest kappa.
    """
    mid = h * (first + np.arange(n) + 0.5)
    f = form.Q(np.concatenate([mid - _GAUSS4 * h, mid + _GAUSS4 * h])) - lam
    fbar = 0.5 * (f[:n] + f[n:])
    delta = (math.sqrt(3.0) / 12.0 * h * h) * (f[:n] - f[n:])
    k2 = delta * delta + (h * h) * fbar
    return _exp_traceless(delta, h, h * fbar, k2)


def _magnus6_steps(form, lam, h, first, n):
    """exp(Omega) of the sixth-order Magnus steps first .. first+n-1 of size h,
    with Omega = [[delta, h*w12], [w21/h, -delta]] as in ``slform``."""
    mid = (np.arange(first, first + n) + 0.5) * h
    f = (form.Q(np.concatenate([mid - _GAUSS6 * h, mid, mid + _GAUSS6 * h])) - lam) * (h * h)
    F1, F2, F3 = f[:n], f[n:2 * n], f[2 * n:]
    R = ((F1 + F3) - F2 * 2.0) * (10.0 / 3.0)
    P = (F3 - F1) * (math.sqrt(15.0) / 3.0)
    delta = ((F2 * (1.0 / 180.0) - 1.0 / 12.0) + R * (1.0 / 7200.0)) * P
    w12 = (P * P - R * 20.0) * (1.0 / 3600.0) + 1.0
    w21 = (((F2 * 20.0 + R) * R - ((30.0 - F2) * P) * P) * (1.0 / 3600.0)
           + (R * (1.0 / 12.0) + F2))
    return _exp_traceless(delta, w12 * h, w21 / h, delta * delta + w12 * w21)


def _exp_traceless(delta, b, c, k2):
    """exp of [[delta, b], [c, -delta]] with k2 = delta**2 + b*c, and the
    largest kappa = sqrt|k2|."""
    kappa = np.sqrt(np.abs(k2))
    grow = k2 > 0.0
    C, S = np.cos(kappa), np.sin(kappa)
    with np.errstate(over="ignore"):
        C[grow], S[grow] = np.cosh(kappa[grow]), np.sinh(kappa[grow])
    S = np.divide(S, kappa, out=np.ones_like(kappa), where=kappa > 0.0)
    T = np.stack([C + S * delta, S * b, S * c, C - S * delta])
    return T, float(np.max(kappa))


def _propagate(form, lam, H, n_int, m, steps=_magnus4_steps, nodes=2):
    """(Y, Y') on the grid k*H, k = 0..n_int from (Y, Y')(0) = (0, 1), with
    m steps of ``steps`` (``nodes`` Gauss nodes each) per interval, and
    the largest kappa of those steps."""
    h = H / m
    per_block = max(1, _NODES // (nodes * m))
    M, turn = [], 0.0
    for i0 in range(0, n_int, per_block):
        nb = min(per_block, n_int - i0)
        T, k = steps(form, lam, h, i0 * m, nb * m)
        turn = max(turn, k)
        T = T.reshape(4, nb, m)
        while T.shape[2] > 1:   # pairwise tree over each interval's steps
            T = _mul(T[:, :, 1::2], T[:, :, 0::2])
        M.append(T[:, :, 0])
    a, b, c, d = _prefix_products(np.concatenate(M, axis=1))
    y0, y1 = 0.0, 1.0
    return (np.concatenate([[y0], a * y0 + b * y1]),
            np.concatenate([[y1], c * y0 + d * y1])), turn


def _slope_check(name, fn, eos, exponent, lo=1e-7, hi=1e-3):
    """Measure the depth slope of ``fn`` and its two-depth quadrature."""
    D = np.geomspace(lo, hi, 60) * eos.R_star
    x = eos.R_star - D
    y = np.abs(np.asarray(fn(x), dtype=float))
    keep = y > 0
    coef = np.polyfit(np.log(D[keep]), np.log(y[keep]), 1)
    vals = {}
    for cut in (1e-5, 1e-8):
        Dq = np.geomspace(cut, 1e-2, 400) * eos.R_star
        yq = np.abs(np.asarray(fn(eos.R_star - Dq), dtype=float))
        vals[cut] = float(np.trapezoid(yq, Dq))
    ratio = vals[1e-8] / vals[1e-5] if vals[1e-5] > 0 else np.inf
    return QuadCheck(name=name, exponent=float(exponent), fitted=float(coef[0]),
                     integrable=bool(exponent > -1.0), tail_ratio=ratio)
