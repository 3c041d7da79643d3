"""Nested-derivative reference for the canonical potential of ``slform``.

The layer's pressure P, its q and its hydrostatic defect are sums over the
(coefficient, power) pairs of a ``SurfaceLayer``; no job needs them, so
they live here as the references for the layer tests.
"""

import numpy as np


def pressure(eos, x):
    """P = sum(cf * D**pw) over the layer's pressure terms."""
    D = eos.depth(x)
    return sum(cf * D**pw for cf, pw in eos.P_terms)


def q(eos, x):
    """q = x**3 * sum(cf * D**pw) over the layer's q terms."""
    D = eos.depth(x)
    return np.asarray(x, dtype=float) ** 3 * sum(cf * D**pw for cf, pw in eos.q_terms)


def hse_residual(eos, x, G=1.0):
    """dP/dx + G*rho/x**2, the local hydrostatic defect."""
    D = eos.depth(x)
    return -sum(cf * pw * D ** (pw - 1) for cf, pw in eos.P_terms) + G * eos.rho(x) / x**2


def q0_fd(form, x, h=None, levels=4):
    """Canonical potential by the nested-derivative definition.

    Evaluates q/w - (p/w**3)**(1/4) * ((p/w)**(1/2) * ((pw)**(1/4))')'
    with Richardson-extrapolated central differences, fully independent
    of the closed forms in CanonicalForm; the agreement of the two
    routes is the transform-consistency check.
    """
    eos = form.eos
    D = float(eos.depth(x))
    if h is None:
        h = min(0.05 * D, 0.01 * (eos.R_star - eos.R_delta))

    def f(t):
        return (eos.p(t) * eos.w(t)) ** 0.25

    def g(t):
        return np.sqrt(eos.p(t) / eos.w(t)) * _richardson(f, t, h * 0.5, levels)

    inner = _richardson(g, x, h, levels)
    return float(q(eos, x) / eos.w(x) - (eos.p(x) / eos.w(x) ** 3) ** 0.25 * inner)


def _richardson(fn, x, h, levels):
    """Central-difference derivative with Richardson extrapolation."""
    t = np.empty((levels, levels))
    for i in range(levels):
        hh = h / 2.0**i
        t[i, 0] = (fn(x + hh) - fn(x - hh)) / (2.0 * hh)
        for j in range(1, i + 1):
            t[i, j] = t[i, j - 1] + (t[i, j - 1] - t[i - 1, j - 1]) / (4.0**j - 1.0)
    return t[levels - 1, levels - 1]
