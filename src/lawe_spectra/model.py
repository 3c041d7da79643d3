"""Geometric shell models of a stellar envelope.

A model is an infinite sequence of concentric shells accumulating at the
stellar surface.  Shell I >= 1 occupies the radial interval
[r(I-1), r(I)] with

    r(I)     = R_star * (1 - eta**I),          0 < eta < 1,
    M(I)     = M_star * (1 - eta**gamma) * eta**(gamma*I),

and index 0 is a formal point core at the centre carrying the remaining
mass, so that the enclosed masses

    Mfrak(I) = sum_{J<=I} M(J) = M_star * (1 - eta**(gamma*(I+1)))

are exact partial geometric sums.  The widths
r(I) - r(I-1) = R_star * eta**(I-1) * (1 - eta) are never formed: they
underflow beyond a few hundred shells, and they cancel in closed form
from every operator entry.

On top of the mass distribution sit an adiabatic-exponent profile and a
pressure law; together they fix the coefficients of the oscillation
operator assembled in ``discrete``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

FOUR_PI = 4.0 * math.pi

#: a power below e**709 stays inside the float range (at most e**709.78)
_LOG_MAX = 709.0
#: -expm1(x) is exactly 1.0 below x = -37.43; the cut-off keeps a margin
_EXPM1_ONE = 40.0
#: a polytrope's e3 = (gamma-1)*(Gamma-1) - 2 within this of zero is stored
#: as 0.0: the product carries a rounding error of a few ulps of 2.0, and
#: its sign would otherwise decide between decaying and growing couplings
_E3_ROUNDING = 4.0 * math.ulp(2.0)


def _live(rate, cutoff, n):
    """Length k of the prefix of shells 0..n-1 that still need a power:
    from I = k - 1 on, rate*I exceeds cutoff."""
    if rate * (n - 2) <= cutoff:  # also where the rate underflows to 0
        return n
    return int(cutoff / rate) + 2


def _check_positive(name, value):
    if not (value > 0.0) or not math.isfinite(value):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def check_power_law(eta, gamma, *, prefix=""):
    """Refuse an (eta, gamma) whose mass ratio eta**-gamma or 1/eta leaves
    the float range, where a Python power would raise OverflowError.

    ``prefix`` qualifies the two names in the message (the CLI passes
    ``"model."``).
    """
    if 0.0 < eta < 1.0 and max(gamma, 1.0) * -math.log(eta) >= _LOG_MAX:
        raise ValidationError(
            f"{prefix}eta {eta!r} with {prefix}gamma {gamma!r} puts the shell mass "
            f"ratio eta**-gamma or 1/eta beyond the float range; "
            f"max(gamma, 1)*ln(1/eta) must stay below {_LOG_MAX:g}")


@dataclass(frozen=True)
class MassDistribution:
    """Radii, enclosed masses and log shell masses of a geometric envelope.

    Arrays are indexed by shell number I = 0..N.  Index 0 holds the formal
    core: radius 0 and the central point mass.  The raw shell masses and
    widths underflow to zero in double precision beyond a few hundred
    shells, so none is stored: :meth:`log_shell_mass` gives ln M(I) for
    any index, and every operator entry uses forms in which the widths
    cancel.
    """

    eta: float
    gamma: float
    M_star: float
    R_star: float
    G: float
    N: int
    radius: np.ndarray = field(repr=False)
    enclosed_mass: np.ndarray = field(repr=False)

    @property
    def lambda_star(self):
        """Characteristic squared frequency G*M_star/R_star**3."""
        return self.G * self.M_star / self.R_star**3

    def log_shell_mass(self, i):
        """ln M(i), exact for any index (no underflow)."""
        i = np.asarray(i, dtype=float)
        return math.log(self.M_star * (1.0 - self.eta**self.gamma)) + self.gamma * i * math.log(self.eta)


def build_mass_distribution(eta, gamma, *, M_star=1.0, R_star=1.0, G=1.0, N=64):
    """Construct a :class:`MassDistribution` for shells I = 0..N.

    Parameters
    ----------
    eta : float
        Geometric radius ratio, 0 < eta < 1.  Radii accumulate at R_star
        like R_star*(1 - eta**I).
    gamma : float
        Mass-decay exponent; shell masses fall off like eta**(gamma*I).
    M_star, R_star, G : float
        Total mass, surface radius and gravitational constant.
    N : int
        Largest shell index to materialize.

    Each power is evaluated only on the shells where it still differs from
    its limit.  -expm1(x) rounds to exactly 1.0 below x = -37.43, where e**x
    is under half an ulp of 1.  So radii and enclosed masses are evaluated
    while their exponent stays above -40, and beyond those shells the
    arrays hold R_star*1.0 and M_star*1.0: the very values the formulas
    round to there.
    """
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0,1), got {eta!r}")
    _check_positive("gamma", gamma)
    _check_positive("M_star", M_star)
    _check_positive("R_star", R_star)
    _check_positive("G", G)
    if int(N) != N or N < 2:
        raise ValidationError(f"N must be an integer >= 2, got {N!r}")
    check_power_law(eta, gamma)
    N = int(N)

    idx = np.arange(N + 1, dtype=float)
    rate = -math.log(eta)
    k = _live(rate, _EXPM1_ONE, N + 1)
    radius = np.full(N + 1, R_star * 1.0)
    radius[:k] = R_star * (-np.expm1(idx[:k] * math.log(eta)))  # R*(1 - eta^I), accurate near the surface
    k = _live(gamma * rate, _EXPM1_ONE, N + 1)
    enclosed_mass = np.full(N + 1, M_star * 1.0)
    enclosed_mass[:k] = M_star * (-np.expm1(gamma * (idx[:k] + 1.0) * math.log(eta)))

    return MassDistribution(
        eta=float(eta), gamma=float(gamma), M_star=float(M_star),
        R_star=float(R_star), G=float(G), N=N,
        radius=radius, enclosed_mass=enclosed_mass,
    )


def coupling_constant(eta, gamma, zeta=0.0):
    """Limit coupling kappa = (4 + zeta) / (eta**(-gamma/2) + eta**(gamma/2))."""
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0,1), got {eta!r}")
    _check_positive("gamma", gamma)
    if 4.0 + zeta <= 0.0:
        raise ValidationError(f"zeta must exceed -4, got {zeta!r}")
    check_power_law(eta, gamma)
    return (4.0 + zeta) / (eta ** (-gamma / 2.0) + eta ** (gamma / 2.0))


def profile_constant(eta, gamma, zeta=0.0):
    """Scaled-exponent amplitude c with 4 + zeta = c*K.

    K = (1 + eta**-gamma) / (eta**-1 - 1) ties the adiabatic amplitude to
    the target diagonal offset zeta; with eta=1/2, gamma=2 one gets K=5.
    """
    if not (0.0 < eta < 1.0):
        raise ValidationError(f"eta must lie in (0,1), got {eta!r}")
    check_power_law(eta, gamma)
    K = (1.0 + eta ** (-gamma)) / (1.0 / eta - 1.0)
    return (4.0 + zeta) / K


@dataclass(frozen=True)
class ScalingParams:
    """Limit data of the operator coefficients: centre, coupling, interval."""

    lambda_star: float
    kappa: float
    centre: float

    @property
    def half_width(self):
        return 2.0 * self.kappa * self.lambda_star

    @property
    def interval(self):
        """Predicted essential-spectrum interval (lo, hi)."""
        z = self.centre
        w = self.half_width
        return (z - w, z + w)


def scaling_params(dist, zeta=0.0):
    return ScalingParams(
        lambda_star=dist.lambda_star,
        kappa=coupling_constant(dist.eta, dist.gamma, zeta),
        centre=-float(zeta) * dist.lambda_star,
    )


@dataclass(frozen=True)
class GammaProfile:
    """Adiabatic-exponent profile Gamma(I) along the shells.

    Two kinds are supported.  ``"geometric"`` profiles decay with the
    shells, Gamma(I) = scaled(I) * eta**I, and are stored through their
    scaled part only (the raw values underflow long before I = N).
    ``"constant"`` profiles keep Gamma(I) = scaled(I) with scaled(I)
    typically a constant array; they model stiff polytropic envelopes.
    """

    kind: str
    scaled: np.ndarray = field(repr=False)
    c: float = np.nan


def gamma_profile(dist, kind="geometric", *, value=None, zeta=0.0, perturbation=None):
    """Build a :class:`GammaProfile` over shells 0..N.

    For ``kind="geometric"`` the scaled part is c + perturbation(I) with
    c = :func:`profile_constant`; ``perturbation`` may be an array over
    0..N (e.g. a sparse bump field).  For ``kind="constant"`` pass the
    constant adiabatic exponent through ``value``.
    """
    n = dist.N
    if kind == "geometric":
        c = profile_constant(dist.eta, dist.gamma, zeta)
        scaled = np.full(n + 1, float(c))
        if perturbation is not None:
            perturbation = np.asarray(perturbation, dtype=float)
            if perturbation.shape != (n + 1,):
                raise ValidationError(
                    f"perturbation must have shape ({n + 1},), got {perturbation.shape}")
            scaled = scaled + perturbation
        if np.any(scaled <= 0.0):
            raise ValidationError("Gamma profile must stay positive")
        return GammaProfile(kind="geometric", scaled=scaled, c=float(c))
    if kind == "constant":
        if value is None:
            raise ValidationError('kind="constant" requires value=Gamma')
        _check_positive("value", value)
        return GammaProfile(kind="constant", scaled=np.full(n + 1, float(value)), c=float(value))
    raise ValidationError(f"unknown profile kind {kind!r}")


@dataclass(frozen=True)
class PressureDensityDistribution:
    """Mass distribution plus pressure law and adiabatic profile.

    ``P_over_M`` stores the specific pressure (P/M)(I) of each shell under
    the limit and hse laws, the only combination their operator assembly
    needs.  A polytrope's is (P/M)(I) = 4*pi*C_star*r(I)**2*width(I)
    *eta**(e3*I), whose width cancels from every coupling, so it stores
    none (``None``): see :meth:`polytrope_coupling`.
    """

    dist: MassDistribution
    gamma: GammaProfile
    zeta: float
    pressure_mode: str
    P_over_M: np.ndarray = field(repr=False)
    C_star: float = np.nan
    e3: float = np.nan

    @property
    def scaling(self):
        """Limit data of the operators this model assembles.

        Under "hse" (P/M) tends to q/(1-q) of the limit law's, q = eta**gamma,
        which scales the coupling by q/(1-q) and moves the centre to
        Lambda_star*(4 - (4+zeta)*q/(1-q)).

        A polytrope's couplings G3(I) = mu(I)*eta**(e3*I) tend to zero for
        e3 > 0, where the essential spectrum is the point 4*Lambda_star,
        and to mu_inf for e3 = 0, where it is the band c +- 2*mu_inf with
        c = 4*Lambda_star - mu_inf*(eta**(gamma/2) + eta**(-gamma/2)).  For
        e3 < 0 they grow without bound and no interval exists: that model
        is refused, and the scaled system analyses it.
        """
        if self.pressure_mode == "polytrope":
            lam = self.dist.lambda_star
            if self.e3 > 0.0:
                return ScalingParams(lambda_star=lam, kappa=0.0, centre=4.0 * lam)
            if self.e3 < 0.0:
                raise ValidationError(
                    f"the section is graded: a polytrope's couplings grow like "
                    f"eta**(e3*I) with e3 = {self.e3:.6g} < 0; run the scaled "
                    f"subcommand, which analyses the rescaled operator")
            r, eta, gamma = self.dist.R_star, self.dist.eta, self.dist.gamma
            mu_inf = self.polytrope_coupling(self.gamma.c, r, r)
            return ScalingParams(
                lambda_star=lam, kappa=mu_inf / lam,
                centre=4.0 * lam - mu_inf * (eta ** (gamma / 2.0) + eta ** (-gamma / 2.0)))
        sp = scaling_params(self.dist, self.zeta)
        if self.pressure_mode != "hse":
            return sp
        log_q = self.dist.gamma * math.log(self.dist.eta)
        ratio = math.exp(log_q) / -math.expm1(log_q)
        return ScalingParams(lambda_star=sp.lambda_star, kappa=sp.kappa * ratio,
                             centre=sp.lambda_star * (4.0 - (4.0 + self.zeta) * ratio))

    def polytrope_coupling(self, Gamma, r_in, r_out):
        """mu = 16*pi**2*C_star*Gamma*r_in**2*r_out**2*eta**(-gamma/2).

        With r_in = r(I), r_out = r(I+1) this is eta**(-e3*I)*G3(I), a
        polytrope's coupling with its power of eta taken off: every shell
        width cancels between the pressure law and G3.  At r_in = r_out =
        R_star it is the limit coupling mu_inf.
        """
        return (16.0 * math.pi**2 * self.C_star * Gamma * r_in**2 * r_out**2
                * self.dist.eta ** (-self.dist.gamma / 2.0))


def _pressure_limit(dist):
    """(P/M)(I) = Lambda_star*(1 + eta**I)/(4*pi*R_star), geometric tail.

    In round-to-nearest 1 + eta**I is exactly 1.0 once eta**I <= 2**-53,
    so eta**I is taken only on the shells before I = 53*ln 2/ln(1/eta) (and
    two more for the rounding of that bound); the rest hold the limit.
    """
    scale = dist.lambda_star / (FOUR_PI * dist.R_star)
    idx = np.arange(_live(-math.log(dist.eta), 53.0 * math.log(2.0), dist.N + 1), dtype=float)
    out = np.full(dist.N + 1, scale)
    out[:idx.size] = scale * (1.0 + dist.eta**idx)
    return out


def _pressure_hse(dist):
    """Specific pressure from the discrete hydrostatic recursion.

    (P/M)(I) = sum_{k>=1} eta**(gamma*k) * G*Mfrak(I+k-1) / (4*pi*r(I+k-1)**4),
    the unique bounded solution of
    (P/M)(I) = eta**gamma * [ (P/M)(I+1) + G*Mfrak(I)/(4*pi*r(I)**4) ].
    Evaluated by direct tail summation; the series converges like
    eta**(gamma*k) so ~40/ (gamma*log(1/eta)) terms give machine accuracy.
    A model whose series needs more than 1e5 terms is refused.
    """
    eta, gamma = dist.eta, dist.gamma
    if not gamma * -math.log(eta) * 1e5 >= 40.0 * math.log(10.0):
        raise ValidationError(f"the hse tail sum at gamma {gamma!r}, eta {eta!r} "
                              f"needs more than 1e5 terms")
    n_terms = max(8, int(math.ceil(-40.0 * math.log(10.0) / (gamma * math.log(eta)))))
    n = dist.N
    out = np.zeros(n + 1)
    lam = dist.lambda_star
    # g(J) = G*Mfrak(J)/(4*pi*r(J)**4) evaluated past N as well
    idx = np.arange(1, n + n_terms + 1, dtype=float)
    frac = (-np.expm1(gamma * (idx + 1.0) * math.log(eta))) / (-np.expm1(idx * math.log(eta))) ** 4
    g = lam / (FOUR_PI * dist.R_star) * frac
    q = eta**gamma
    acc = np.zeros(n)  # Horner accumulation from the far tail inward
    for k in range(n_terms, 0, -1):
        acc = q * (acc + g[k - 1 : k - 1 + n])
    out[1:] = acc
    out[0] = np.nan
    return out


def build_pd_distribution(dist, gamma_prof=None, *, zeta=0.0, pressure_mode="limit",
                          C_star=None):
    """Attach a pressure law and adiabatic profile to a mass distribution.

    pressure_mode
        "limit"     -- (P/M)(I) = Lambda_star*(1+eta**I)/(4 pi R_star),
                       geometric approach to the tail value.
        "hse"       -- unique bounded solution of the discrete hydrostatic
                       balance; admissible to machine precision.
        "polytrope" -- exact power law in P*rho/M**2 with amplitude C_star
                       and exponent e3 = (gamma-1)*(Gamma-1) - 2, used
                       with constant Gamma profiles; it stores no P/M,
                       and an e3 within a few ulps of zero as 0.0.
    "limit" and "hse" take geometric profiles, whose constant carries zeta.
    """
    if gamma_prof is None:
        gamma_prof = gamma_profile(dist, "geometric", zeta=zeta)
    if gamma_prof.scaled.shape != (dist.N + 1,):
        raise ValidationError("gamma profile and mass distribution sizes differ")
    kind = "constant" if pressure_mode == "polytrope" else "geometric"
    if gamma_prof.kind != kind:
        raise ValidationError(f'pressure_mode="{pressure_mode}" requires a {kind} Gamma profile')
    p_over_m, C_out, e3 = None, np.nan, np.nan
    if pressure_mode == "limit":
        p_over_m = _pressure_limit(dist)
    elif pressure_mode == "hse":
        p_over_m = _pressure_hse(dist)
    elif pressure_mode == "polytrope":
        if C_star is None:
            C_star = dist.lambda_star * dist.eta / (16.0 * math.pi**2 * dist.R_star**4 * (1.0 - dist.eta))
        _check_positive("C_star", C_star)
        C_out, e3 = float(C_star), (dist.gamma - 1.0) * (gamma_prof.c - 1.0) - 2.0
        if abs(e3) <= _E3_ROUNDING:
            e3 = 0.0
    else:
        raise ValidationError(f"unknown pressure_mode {pressure_mode!r}")

    return PressureDensityDistribution(
        dist=dist, gamma=gamma_prof, zeta=float(zeta), pressure_mode=pressure_mode,
        P_over_M=p_over_m, C_star=C_out, e3=e3,
    )

