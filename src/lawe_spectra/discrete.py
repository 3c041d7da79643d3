"""Assembly of the shell oscillation operator and displacement verdicts.

The linearized adiabatic oscillations of a shell model reduce to an
infinite symmetric Jacobi matrix acting on mass-weighted displacements
X(I) = sqrt(M(I)) * dr(I).  Row I reads

    -G3(I-1) X(I-1) + G2(I) X(I) - G3(I) X(I+1) = lambda X(I),

with the coupling

    G3(I) = 4*pi*Gamma(I)*(P/M)(I)*r(I+1)**2 * eta**(-gamma/2) / width(I)

and the diagonal

    G2(I) = 4*G*Mfrak(I)/r(I)**3 - G3(I)*Rp(I) - G3(I-1)*Rm(I),
    Rp(I) = (r(I)/r(I+1))**2 * eta**(gamma/2),
    Rm(I) = (r(I)/r(I-1))**2 * eta**(-gamma/2).

The lower-neighbour terms are absent at I = 1 (the core is a point).
The shell widths underflow beyond a few hundred shells, so the assembly
below never forms one; it uses the cancelled forms.  For decaying
adiabatic profiles Gamma(I) = Gs(I)*eta**I the eta powers cancel against
the widths, G3(I) = 4*pi*Gs(I)*(P/M)(I) * r(I+1)**2 * eta**(1-gamma/2)
/ (R_star*(1-eta)), so entries stay O(1) however deep the truncation.
The polytrope's constant Gamma goes with the pressure law
(P/M)(I) = 4*pi*C_star*r(I)**2*width(I)*eta**(e3*I), whose width cancels
outright: G3(I) = mu(I)*eta**(e3*I) with the closed form
mu(I) = 16*pi**2*C_star*Gamma*r(I)**2*r(I+1)**2*eta**(-gamma/2)
(``PressureDensityDistribution.polytrope_coupling`` in ``model``).  Its
couplings decay for e3 > 0, tend to mu_inf for e3 = 0 and grow for
e3 < 0, where ``polytrans`` rescales them.
sqrt(M(I)/M(I+1)) = eta**(-gamma/2) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import FOUR_PI


@dataclass(frozen=True)
class JacobiOperator:
    """Finite section of the infinite oscillation matrix.

    ``diag[k]`` and ``offdiag[k]`` hold G2(I) and -G3(I) for shells
    I = i_start + k; the section is the principal submatrix on shells
    i_start .. i_start+n-1 with Dirichlet truncation on both sides.
    """

    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)
    i_start: int
    pd: object = field(repr=False, default=None, compare=False)

    @property
    def n(self):
        return self.diag.shape[0]

    @property
    def shells(self):
        return np.arange(self.i_start, self.i_start + self.n)

    @property
    def scaling(self):
        if self.pd is None:
            raise ValidationError("operator carries no model data")
        return self.pd.scaling


def coupling_values(pd, i_lo, i_hi):
    """G3(I) for I = i_lo..i_hi inclusive, in the cancelled scale-free form.

    A polytrope's G3(I) = mu(I)*eta**(e3*I) takes its power of eta in one
    ``pow``: where it underflows the coupling is 0.0, never 0/0.  ``pow``
    carries ln(eta) beyond double precision, which exp(e3*I*ln(eta)) would
    round and then amplify by |e3*I*ln(eta)|, up to about 700 where the
    coupling is still a normal double.
    """
    dist = pd.dist
    if i_lo < 1 or i_hi > dist.N - 1:
        raise ValidationError(
            f"couplings need 1 <= I <= N-1 = {dist.N - 1}, got [{i_lo}, {i_hi}]")
    here = slice(i_lo, i_hi + 1)
    eta, gamma = dist.eta, dist.gamma
    r_out = dist.radius[i_lo + 1 : i_hi + 2]
    if pd.pressure_mode == "polytrope":
        idx = np.arange(i_lo, i_hi + 1, dtype=float)
        mu = pd.polytrope_coupling(pd.gamma.scaled[here], dist.radius[here], r_out)
        return mu * eta ** (pd.e3 * idx)
    return (FOUR_PI * pd.gamma.scaled[here] * pd.P_over_M[here] * r_out ** 2
            * eta ** (1.0 - gamma / 2.0) / (dist.R_star * (1.0 - eta)))


def assemble_jacobi(pd, n, i_start=1):
    """Assemble the n x n section of the oscillation matrix on shells
    i_start .. i_start+n-1.

    ``i_start > 1`` drops the innermost shells together with their large
    gravity diagonal; the section is still a principal submatrix of the
    same infinite matrix, so its eigenvalues interlace those of deeper
    truncations.
    """
    dist = pd.dist
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if i_start < 1:
        raise ValidationError(f"i_start must be >= 1, got {i_start}")
    i_top = i_start + n - 1
    if i_top > dist.N - 1:
        raise ValidationError(
            f"section reaches shell {i_top}, model has couplings up to {dist.N - 1}")

    g3_lo = i_start if i_start == 1 else i_start - 1
    g3 = coupling_values(pd, g3_lo, i_top)

    r = dist.radius
    r_here = r[i_start : i_top + 1]
    eta, gamma = dist.eta, dist.gamma
    grav = 4.0 * dist.G * dist.enclosed_mass[i_start : i_top + 1] / r_here ** 3
    rp = (r_here / r[i_start + 1 : i_top + 2]) ** 2 * eta ** (gamma / 2.0)
    rm = np.empty(n)
    rm[0] = 0.0 if i_start == 1 else (r[i_start] / r[i_start - 1]) ** 2 * eta ** (-gamma / 2.0)
    rm[1:] = (r_here[1:] / r_here[:-1]) ** 2 * eta ** (-gamma / 2.0)

    off = i_start - g3_lo  # 0 when the core term is dropped, 1 otherwise
    g3_here = g3[off : off + n]
    g3_below = np.empty(n)
    g3_below[0] = g3[0] if off == 1 else 0.0
    g3_below[1:] = g3_here[:-1]

    diag = grav - g3_here * rp - g3_below * rm
    offdiag = -g3_here[:-1]
    return JacobiOperator(diag=diag, offdiag=offdiag, i_start=int(i_start), pd=pd)


def _dr_bounded(abs_x, log_dr):
    amax = float(np.max(abs_x))
    if amax == 0.0:
        return True
    stop = int(np.where(abs_x > 1e-13 * amax)[0][-1]) + 1
    y = log_dr[:stop]
    y = y[np.isfinite(y)]
    k = max(1, (3 * y.size) // 4)
    early = float(np.max(y[:k]))
    late = float(np.max(y[k:])) if y.size > k else -np.inf
    return late <= early + 1e-6 * max(1.0, abs(early))


def delta_r_bounded(V, dist, i_start=1):
    """Whether dr(I) = X(I)/sqrt(M(I)) stays bounded, for every column X of ``V``.

    The verdict looks only at shells where |X| exceeds 1e-13 max|X|:
    below that an eigenvector out of inverse iteration is roundoff, and
    dividing roundoff by the vanishing shell masses manufactures fake
    growth.  Within that range the sup of |dr| must be attained before
    the last quartile and not be exceeded inside it: ln sup|dr| may rise
    there by at most 1e-6 of max(1, |ln sup|dr||).

    The shell masses are evaluated once for all columns, and no field is
    built; each column costs one pass over its own rows.
    """
    V = np.asarray(V, dtype=float)
    half_log_m = 0.5 * dist.log_shell_mass(np.arange(i_start, i_start + V.shape[0]))
    out = np.empty(V.shape[1], dtype=bool)
    with np.errstate(divide="ignore"):
        for j in range(V.shape[1]):
            abs_x = np.abs(V[:, j])
            out[j] = _dr_bounded(abs_x, np.log(abs_x) - half_log_m)
    return out
