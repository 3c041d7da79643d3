"""Nested-derivative reference for the canonical potential of ``slform``."""

import numpy as np


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
    return float(eos.q(x) / eos.w(x) - (eos.p(x) / eos.w(x) ** 3) ** 0.25 * inner)


def _richardson(fn, x, h, levels):
    """Central-difference derivative with Richardson extrapolation."""
    t = np.empty((levels, levels))
    for i in range(levels):
        hh = h / 2.0**i
        t[i, 0] = (fn(x + hh) - fn(x - hh)) / (2.0 * hh)
        for j in range(1, i + 1):
            t[i, j] = t[i, j - 1] + (t[i, j - 1] - t[i - 1, j - 1]) / (4.0**j - 1.0)
    return t[levels - 1, levels - 1]
