"""Diagonal rescaling of stiff (non-decaying) profile operators.

A polytrope's couplings are G3(I) = mu(I)*eta**(e3*I), with the closed
form mu(I) = 16*pi**2*C_star*Gamma*r(I)**2*r(I+1)**2*eta**(-gamma/2)
(``PressureDensityDistribution.polytrope_coupling`` in ``model``) and
e3 = (gamma-1)*(Gamma-1) - 2 set by its pressure power law.  For
e3 >= 0 they decay or settle and the raw section has an essential
interval of its own (``PressureDensityDistribution.scaling``).  For e3 < 0
they grow like nu**-I for the scaling base nu = eta**-e3 in (0, 1)
(nu = eta for the balanced case P*rho/M**2 ~ eta**-I), and the raw
matrix is useless beyond a thousand shells.  Conjugating by
H = diag(nu**floor(I/2)) tames it: with

    mu(I)   = nu**I * G3(I),
    beta(I) = nu**I * (4*Lambda_star - G2(I))
            = mu(I)*Rp(I) + nu*mu(I-1)*Rm(I) - t(I),
    t(I)    = 4*Lambda_star*nu**I * [ Mfrak(I)/(Mfrak_inf*(1-eta**I)**3) - 1 ],

the scaled matrix has O(1) couplings mu(I) and diagonal
4*Lambda_star*nu**(2*alpha(I)) - beta(I)*nu**(2*alpha(I)-I),
alpha(I) = floor(I/2), whose tail alternates between -beta/nu and
-beta.  mu is evaluated in its closed form, which forms no power of
eta**I, and tends to mu_inf, the same expression at r = R_star.
Geometric profiles (the limit and hse laws) scale to the trivial
zero-coupling limit and are refused.  The exact mechanism behind the
scaling is the grading identity checked by
:func:`similarity_check`: conjugating a tridiagonal matrix with
geometrically graded entries by the diagonal built from the mirrored
exponent pattern strips the powers off both off-diagonals and
moves them onto the diagonal as (x*y)**-floor(j/2).  Each entry of
that diagonal is a monomial x**p * y**q (:func:`grading_exponents`), so
the identity is certified exactly in integer exponent sums, for all
nonzero x and y at once.

The same conjugation applied to the position-dependent-frequency
problem -W**2 X = A X, with omega(I)**2 = (-lam + beta(I)
* nu**(2*alpha(I)-I)) * nu**(-2*alpha(I)), absorbs the beta part of
the diagonal into the frequencies and leaves the plain eigenvalue
problem lam*Y = T*Y, where T keeps only the couplings mu(I) and the
vanishing diagonal 4*Lambda_star*nu**(2*alpha(I)).  Solutions of the
T system at interior lam are bounded and oscillatory, and the
displacement they induce, delta_r = nu**alpha * Y / sqrt(M), grows
geometrically: that is the divergence mechanism quantified by
:func:`delta_r_growth`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .discrete import JacobiOperator


def grading_exponents(n):
    """Exponents (p_j, q_j), j = 1..n, of the grading transform D(x, y).

    D(x, y) = diag(x**p_j * y**q_j) with m = floor(j/2): p = -m**2,
    q = m*(m-1) for even j and p = -m*(m+1), q = m**2 for odd j, the
    closed form of the running products d_{2m+1} = d_{2m-1}*y**(2m-1)/x**(2m)
    and d_{2m} = d_{2m-2}*y**(2m-2)/x**(2m-1).
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    j = np.arange(1, n + 1)
    m, odd = j // 2, j % 2
    return -m * (m + odd), m * (m - 1 + odd)


def grading_exact(n):
    """Whether the grading identity of :func:`similarity_check` holds in
    exact exponent arithmetic at size n, for all nonzero x and y.

    Each entry of B = D(y,x) A D(x,y) over its claimed value is x**s *
    y**t, and every s and t must vanish.  Entry j's leftovers depend only
    on j and the exponents of rows j and j + 1, which do not depend on n,
    so one pass at size N certifies every size n <= N.
    """
    p, q = grading_exponents(n)
    j = np.arange(1, n)
    half = np.arange(1, n + 1) // 2
    # leftover exponents of x and y on the super-, sub- and main diagonal
    left = (q[:-1] + j + p[1:], p[:-1] + q[1:],     # [B]_{j,j+1} / c_j
            q[1:] + p[:-1], p[1:] + j + q[:-1],     # [B]_{j+1,j} / b_j
            p + q + half)                           # [B]_{j,j} * (x*y)**m / a_j
    return not any(e.any() for e in left)


@dataclass(frozen=True)
class TransformCheck:
    max_residual: float
    n: int
    exact: bool


def similarity_check(diag, sub, sup, x, y):
    """Verify the grading identity on one tridiagonal instance.

    Input: base sequences a_j (diagonal), b_j (sub-), c_j (super-) and
    grading factors x, y.  The graded matrix A has [A]_{j,j+1} = c_j*x**j
    and [A]_{j+1,j} = b_j*y**j.  The claim: B = D(y,x) A D(x,y) is again
    tridiagonal with [B]_{j,j+1} = c_j, [B]_{j+1,j} = b_j and
    [B]_{j,j} = a_j/(x*y)**floor(j/2).

    ``exact`` certifies the claim for all nonzero x, y
    (:func:`grading_exact`).  ``max_residual`` is max |B - claim| in
    float64, inf once the powers overflow; NaN entries (inf*0) are left
    out of the maximum.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (diag, sub, sup))
    n = a.size
    if b.size != n - 1 or c.size != n - 1:
        raise ValidationError("need len(sub) == len(sup) == len(diag) - 1")
    if x == 0 or y == 0:
        raise ValidationError("grading factors must be nonzero")

    p, q = grading_exponents(n)
    j = np.arange(1, n)
    half = np.arange(1, n + 1) // 2
    x, y = np.float64(x), np.float64(y)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        dr = x ** p * y ** q
        dl = y ** p * x ** q
        res = np.concatenate([
            np.abs(dl[:-1] * (c * x ** j) * dr[1:] - c),
            np.abs(dl[1:] * (b * y ** j) * dr[:-1] - b),
            np.abs(dl * a * dr - a / (x * y) ** half)])
    worst = float(np.max(res, initial=0.0, where=~np.isnan(res)))
    return TransformCheck(max_residual=worst, n=n, exact=grading_exact(n))


@dataclass(frozen=True)
class ScaledSystem:
    """Scaled tridiagonal data mu(I), beta(I) of a polytrope, shells I = 1..n."""

    pd: object = field(repr=False)
    n: int
    mu: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)
    nu: float

    @property
    def eta(self):
        return self.pd.dist.eta

    @property
    def gamma(self):
        return self.pd.dist.gamma

    @property
    def theta(self):
        return 4.0 * self.pd.dist.lambda_star

    @property
    def mu_inf(self):
        """Limit coupling: mu at r = R_star."""
        r = self.pd.dist.R_star
        return self.pd.polytrope_coupling(self.pd.gamma.c, r, r)

    @property
    def beta_inf(self):
        eta, gamma = self.eta, self.gamma
        return self.mu_inf * (eta ** (gamma / 2.0) + self.nu * eta ** (-gamma / 2.0))

    def operator(self):
        """n x n section of the scaled matrix (plain eigenproblem)."""
        return JacobiOperator(diag=self.diag.copy(), offdiag=-self.mu[:-1].copy(),
                              i_start=1, pd=None)

    def limit_band_structure(self):
        """Band data of the 2-periodic tail comparison operator.

        The scaled matrix itself converges to the NEGATIVE of this
        pattern: its essential bands are the mirrored intervals
        [-e_plus, -e2] and [-e1, -e_minus].
        """
        from .spectra import band_structure
        return band_structure(self.beta_inf, self.mu_inf, self.nu)


def build_scaled_system(pd, n):
    """Compute mu(I), beta(I), t(I) and the scaled diagonal for I=1..n.

    ``pd`` must be a polytrope.  mu comes from its closed form, and t
    from exact mass fractions, so no power eta**I is ever formed.
    """
    if pd.pressure_mode != "polytrope":
        raise ValidationError(
            f"the scaled system needs the polytrope's constant adiabatic exponent, "
            f"got pressure_mode {pd.pressure_mode!r}; geometric profiles scale to "
            f"the trivial zero-coupling limit")
    dist = pd.dist
    if n < 2 or n > dist.N - 1:
        raise ValidationError(f"need 2 <= n <= N-1, got n={n}")
    eta, gamma = dist.eta, dist.gamma
    # e3 is tested before the power: past e3 of about 1000, eta**-e3 overflows
    nu = eta ** (-pd.e3) if pd.e3 < 0.0 else math.nan
    if not 0.0 < nu < 1.0:
        raise ValidationError(
            f"scaling base nu = eta**-e3 must lie in (0, 1); eta {eta!r} with "
            f"gamma {gamma!r} and Gamma {pd.gamma.c!r} give e3 = {pd.e3}")
    log_nu = math.log(nu)
    idx = np.arange(1, n + 1)
    r = dist.radius
    mu = pd.polytrope_coupling(pd.gamma.scaled[idx], r[idx], r[idx + 1])

    theta = 4.0 * dist.lambda_star
    # t(I) = nu**I * (4 G Mfrak(I)/r(I)**3 - theta), via exact mass fractions
    log_eta = math.log(eta)
    mfrac = -np.expm1(gamma * (idx + 1.0) * log_eta)
    rfrac = (-np.expm1(idx * log_eta)) ** 3
    t = theta * np.exp(idx * log_nu) * (mfrac / rfrac - 1.0)

    rp = (r[idx] / r[idx + 1]) ** 2 * eta ** (gamma / 2.0)
    rm = np.zeros(n)
    rm[1:] = (r[idx[1:]] / r[idx[1:] - 1]) ** 2 * eta ** (-gamma / 2.0)
    beta = mu * rp - t
    beta[1:] += nu * mu[:-1] * rm[1:]

    alpha = idx // 2
    diag = theta * np.exp(2.0 * alpha * log_nu) - beta * nu ** (2.0 * alpha - idx)
    return ScaledSystem(pd=pd, n=int(n), mu=mu, beta=beta, t=t, diag=diag,
                        nu=float(nu))


#: trailing fraction of the shells that the slope fits use
_TAIL = 0.5


@dataclass(frozen=True)
class LocalFrequencies:
    shells: np.ndarray = field(repr=False)
    log_omega: np.ndarray = field(repr=False)

    def slope(self):
        """Least-squares slope of log omega over the trailing half."""
        k0 = int(self.shells.size * (1.0 - _TAIL))
        x = self.shells[k0:].astype(float)
        y = self.log_omega[k0:]
        A = np.vstack([x, np.ones_like(x)]).T
        coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
        return float(coef[0])


def local_frequencies(system, lam, i_min=None):
    """Shell-local frequencies omega(I) = sqrt(lam_I) * nu**-alpha(I).

    lam_I = -lam + beta(I)*nu**(2*alpha(I)-I) must be positive from
    shell i_min on.  The innermost shells usually violate this (beta < 0
    there): ``i_min=None`` starts just past the deepest such shell, and
    an explicit i_min inside that region raises and reports the deepest
    admissible start.  A lam with no admissible shell raises.
    """
    n = system.n
    if i_min is not None and not 1 <= i_min <= n:
        raise ValidationError(f"i_min out of range, got {i_min}")
    idx = np.arange(1, n + 1)
    alpha = idx // 2
    lam_i = -lam + system.beta * system.nu ** (2.0 * alpha - idx)
    bad = idx[lam_i <= 0.0]
    first = int(bad[-1]) + 1 if bad.size else 1
    if i_min is None:
        i_min = first
    elif i_min < first:
        bad = bad[bad >= i_min]
        raise ValidationError(
            f"lam_I <= 0 at {bad.size} shells starting at {int(bad[0])}; "
            f"evanescent region, try i_min >= {first}")
    if i_min > n:
        raise ValidationError(f"lam_I <= 0 at shell {n}, the last: no shell is "
                              f"admissible at lam={lam!r}")
    keep = slice(i_min - 1, None)
    log_omega = 0.5 * np.log(lam_i[keep]) - alpha[keep] * math.log(system.nu)
    return LocalFrequencies(shells=idx[keep], log_omega=log_omega)


@dataclass(frozen=True)
class GrowthReport:
    """Envelope growth rates built on a weighted-formulation solution.

    ``solution_rate`` is the fitted log-growth per shell of the solution
    Y of lam*Y = T*Y; for lam in the open interior of the essential band
    [-2*mu_inf, 2*mu_inf] the solutions are bounded and oscillatory, so
    it should vanish.  ``displacement_rate`` adds the bookkeeping factors
    nu**alpha(I)/sqrt(M(I)) that turn Y into the relative displacement
    delta_r; bounded Y makes its envelope grow at exactly
    ``theory_displacement_rate`` = (gamma*ln(1/eta) - ln(1/nu))/2 per shell.
    """

    solution_rate: float
    displacement_rate: float
    theory_displacement_rate: float


def _envelope_fit(shells, log_abs):
    """Slope of the running peaks of log|Y| over the trailing half."""
    k0 = int(shells.size * (1.0 - _TAIL))
    x, y = shells[k0:].astype(float), log_abs[k0:]
    keep = np.isfinite(y)
    x, y = x[keep], y[keep]
    # local maxima of the oscillatory log-magnitude
    pk = np.where((y[1:-1] >= y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1
    if pk.size < 4:
        pk = np.arange(y.size)
    A = np.vstack([x[pk], np.ones(pk.size)]).T
    coef, _, _, _ = np.linalg.lstsq(A, y[pk], rcond=None)
    return float(coef[0])


def delta_r_growth(system, lam):
    """Fit the envelope growth of delta_r = nu**alpha * Y / sqrt(M).

    Y is the tail solution of the weighted-formulation recurrence
    mu(I-1)Y(I-1) + mu(I)Y(I+1) = (theta*nu**(2*alpha) - lam)Y(I) on
    shells 1..n from (Y(0), Y(1)) = (0, 1); the fits need n >= 9.  Y is
    renormalized on the fly, only log-magnitudes are kept, so lam
    outside the essential band (exponentially growing solutions) is
    handled too.
    """
    n = system.n
    if n < 9:
        raise ValidationError(f"n = {n} leaves too short a range for the tail fits; "
                              f"they need n >= 9")
    nu = system.nu
    idx = np.arange(1, n + 1)
    alpha = idx // 2
    mu = system.mu
    if np.any(mu[:n - 1] == 0.0):
        raise ValidationError(
            "couplings mu underflow to zero on the requested range, "
            "and the weighted tail solve divides by them")
    # Python floats: the same IEEE operations as NumPy scalars, at a
    # fraction of the cost per step
    rhs = (system.theta * np.exp(2.0 * alpha * math.log(nu)) - lam).tolist()
    mu = mu.tolist()
    log_abs = [0.0]
    y_prev, y_cur = 0.0, 1.0
    log_scale = 0.0
    for k in range(n - 1):
        y_next = (rhs[k] * y_cur - (mu[k - 1] if k else 0.0) * y_prev) / mu[k]
        y_prev, y_cur = y_cur, y_next
        # |y_prev| stayed at most 1e250 in the step before, so only the
        # new value can pass the bound
        m = abs(y_cur)
        if m > 1e250:
            y_prev /= m
            y_cur /= m
            log_scale += math.log(m)
        log_abs.append((log_scale + math.log(abs(y_cur))) if y_cur != 0.0 else -math.inf)
    log_abs = np.array(log_abs)

    sol_rate = _envelope_fit(idx, log_abs)
    gamma = system.gamma
    disp_step = 0.5 * (gamma * math.log(1.0 / system.eta) - math.log(1.0 / nu))
    disp = log_abs + alpha * math.log(nu) - 0.5 * system.pd.dist.log_shell_mass(idx)
    disp_rate = _envelope_fit(idx, disp)
    return GrowthReport(solution_rate=sol_rate, displacement_rate=disp_rate,
                        theory_displacement_rate=disp_step)
