"""Full-length evaluation of the model arrays, and the hydrostatic defect.

``model`` evaluates each geometric power only on the shells where it still
differs from its limit and fills in the limit beyond them.  The formulas
below take every power on every shell, as the model did before, so a test
can require the two to agree bit for bit.  :func:`hse_residual_array`
measures how far a pressure law is from hydrostatic balance; no job needs
it, so it lives here as the reference for the pressure-law tests.
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


def hse_residual_array(pd, i_lo=1, i_hi=None):
    """Scale-free hydrostatic defect per shell, I = i_lo..i_hi (default N-1).

    res(I) = 4*pi*r(I)**2 * [ (P/M)(I+1) - eta**-gamma * (P/M)(I) ]
             + G*Mfrak(I)/r(I)**2,

    which vanishes identically for the "hse" pressure law.  The eta**-gamma
    factor is the exact mass ratio M(I)/M(I+1); writing the difference this
    way avoids both P and M underflow.  Where P/M overflows (a polytrope
    with e3 < -1 in deep shells) the defect is +inf.
    """
    dist = pd.dist
    if i_hi is None:
        i_hi = dist.N - 1
    idx = np.arange(i_lo, i_hi + 1)
    r = dist.radius[idx]
    with np.errstate(over="ignore", invalid="ignore"):
        grad = FOUR_PI * r**2 * (pd.P_over_M[idx + 1]
                                 - dist.eta ** (-dist.gamma) * pd.P_over_M[idx])
    grad[np.isnan(grad)] = np.inf  # inf - inf
    grav = dist.G * dist.enclosed_mass[idx] / r**2
    return grad + grav


def tail_hse_residual(pd):
    """Largest |hse_residual_array| over the last quartile of shells,
    relative to Lambda_star*R_star."""
    dist = pd.dist
    i_lo = max(1, dist.N - max(4, dist.N // 4))
    res = hse_residual_array(pd, i_lo, dist.N - 1)
    return float(np.max(np.abs(res)) / (dist.lambda_star * dist.R_star))
