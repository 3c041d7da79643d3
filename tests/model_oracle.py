"""Full-length evaluation of the model arrays, the hydrostatic defect and
a high-precision polytrope coupling.

``model`` evaluates each geometric power only on the shells where it still
differs from its limit and fills in the limit beyond them.  The formulas
below take every power on every shell, as the model did before, so a test
can require the two to agree bit for bit.  :func:`hse_residual_array`
measures how far a pressure law is from hydrostatic balance; no job needs
it, so it lives here as the reference for the pressure-law tests.
:func:`polytrope_coupling_decimal` evaluates a polytrope's coupling from
its raw definition in 40-digit decimal arithmetic, where no width
underflows.
"""

import decimal
import math

import numpy as np

FOUR_PI = 4.0 * math.pi


def pressure_limit(dist):
    """(P/M)(I) = Lambda_star*(1 + eta**I)/(4*pi*R_star), geometric tail."""
    idx = np.arange(dist.N + 1, dtype=float)
    scale = dist.lambda_star / (FOUR_PI * dist.R_star)
    return scale * (1.0 + dist.eta**idx)


def mass_arrays(eta, gamma, *, M_star=1.0, R_star=1.0, N=64):
    """(radius, enclosed_mass) on shells 0..N."""
    idx = np.arange(N + 1, dtype=float)
    radius = R_star * (-np.expm1(idx * math.log(eta)))  # R*(1 - eta^I), accurate near the surface
    enclosed_mass = M_star * (-np.expm1(gamma * (idx + 1.0) * math.log(eta)))
    return radius, enclosed_mass


def shell_masses(dist):
    """M(I) = M_star*(1 - eta**gamma)*eta**(gamma*I) on shells 0..N; index 0
    is the core's point mass.  Underflows to 0.0 in deep shells."""
    idx = np.arange(dist.N + 1, dtype=float)
    return (dist.M_star * (1.0 - dist.eta**dist.gamma)
            * np.exp(dist.gamma * idx * math.log(dist.eta)))


_PI = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


def polytrope_coupling_decimal(pd, i_lo, i_hi):
    """G3(I), I = i_lo..i_hi, of a polytrope from its raw definition.

    G3(I) = 4*pi*Gamma*(P/M)(I)*r(I+1)**2*eta**(-gamma/2)/width(I) with
    (P/M)(I) = 4*pi*C_star*r(I)**2*width(I)*eta**(e3*I),
    r(I) = R_star*(1 - eta**I) and width(I) = R_star*(1 - eta)*eta**(I-1).
    P/M and the width are formed, and divided, in 40-digit decimals from
    the exact values of the model's float parameters, C_star and e3 among
    them: e3 is the exponent of the pressure law as the model holds it.
    The decimal exponent range holds every power.  Returns a list of
    decimals.
    """
    D = decimal.Decimal
    dist = pd.dist
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        eta, gamma, R = D(dist.eta), D(dist.gamma), D(dist.R_star)
        C, e3 = D(pd.C_star), D(pd.e3)
        ln_eta = eta.ln()
        out = []
        for i in range(i_lo, i_hi + 1):
            Gamma = D(float(pd.gamma.scaled[i]))
            r_in = R * (1 - (i * ln_eta).exp())
            r_out = R * (1 - ((i + 1) * ln_eta).exp())
            width = R * (1 - eta) * ((i - 1) * ln_eta).exp()
            p_over_m = 4 * _PI * C * r_in**2 * width * (e3 * i * ln_eta).exp()
            out.append(4 * _PI * Gamma * p_over_m * r_out**2
                       * (-gamma / 2 * ln_eta).exp() / width)
    return out


def hse_residual_array(pd, i_lo=1, i_hi=None):
    """Scale-free hydrostatic defect per shell, I = i_lo..i_hi (default N-1).

    res(I) = 4*pi*r(I)**2 * [ (P/M)(I+1) - eta**-gamma * (P/M)(I) ]
             + G*Mfrak(I)/r(I)**2,

    which vanishes identically for the "hse" pressure law.  The eta**-gamma
    factor is the exact mass ratio M(I)/M(I+1); writing the difference this
    way avoids both P and M underflow.  Only the limit and hse laws store
    a P/M.
    """
    dist = pd.dist
    if i_hi is None:
        i_hi = dist.N - 1
    idx = np.arange(i_lo, i_hi + 1)
    r = dist.radius[idx]
    grad = FOUR_PI * r**2 * (pd.P_over_M[idx + 1] - dist.eta ** (-dist.gamma) * pd.P_over_M[idx])
    grav = dist.G * dist.enclosed_mass[idx] / r**2
    return grad + grav


def tail_hse_residual(pd):
    """Largest |hse_residual_array| over the last quartile of shells,
    relative to Lambda_star*R_star."""
    dist = pd.dist
    i_lo = max(1, dist.N - max(4, dist.N // 4))
    res = hse_residual_array(pd, i_lo, dist.N - 1)
    return float(np.max(np.abs(res)) / (dist.lambda_star * dist.R_star))
