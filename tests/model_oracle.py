"""Full-length evaluation of the model arrays, the test oracle.

``model`` evaluates each geometric power only on the shells where it still
differs from its limit and fills in the limit beyond them.  The formulas
below take every power on every shell, as the model did before, so a test
can require the two to agree bit for bit.
"""

import math

import numpy as np

FOUR_PI = 4.0 * math.pi


def pressure_limit(dist):
    """(P/M)(I) = Lambda_star*(1 + eta**I)/(4*pi*R_star), geometric tail."""
    idx = np.arange(dist.N + 1, dtype=float)
    scale = dist.lambda_star / (FOUR_PI * dist.R_star)
    return scale * (1.0 + dist.eta**idx)


def mass_arrays(eta, gamma, *, M_star=1.0, R_star=1.0, N=64):
    """(radius, width, shell_mass, enclosed_mass) on shells 0..N."""
    idx = np.arange(N + 1, dtype=float)
    radius = R_star * (-np.expm1(idx * math.log(eta)))  # R*(1 - eta^I), accurate near the surface
    width = np.empty(N + 1)
    width[0] = 0.0
    width[1:] = R_star * (1.0 - eta) * np.exp((idx[1:] - 1.0) * math.log(eta))
    shell_mass = M_star * (1.0 - eta**gamma) * np.exp(gamma * idx * math.log(eta))
    enclosed_mass = M_star * (-np.expm1(gamma * (idx + 1.0) * math.log(eta)))
    return radius, width, shell_mass, enclosed_mass
