"""Surface-layer oscillation pipeline in Sturm-Liouville form.

The outer shell of the star is modelled as a continuum on [R_delta,
R_star) with the density vanishing at the surface like a power of the
depth D = R_star - x.  The radial displacement ratio y = dr/x obeys

    -(p y')' + q y = lam w y,
    p = Gamma*P*x**4,  q = -x**3 * d/dx[(3*Gamma - 4)*P],  w = rho*x**4,

which the Liouville change of variables X = int sqrt(w/p), Y = (pw)**(1/4) y
turns into the canonical form -Y'' + Q Y = lam Y.  For the power-law
equations of state here everything is closed form: the depth variable
is a power of X, Q decays like a power of D, and the surface sits at
X = infinity whenever sqrt(w/p) is not integrable (ab - a >= 2).

Both supported equations of state make P and q/x**3 sums of powers of
D, so one type, :class:`SurfaceLayer`, holds either as (coefficient,
power) pairs and derives every coefficient function from them.  Two
constructors write the pairs: :func:`Polytropic` for P = K*rho**b, and
:func:`LinearThermal` for the two-term law P = T*rho + L with
T = K0*D**(ab-a) (perfect-gas part with temperature vanishing at the
surface) and L = L0*D**c (radiative part).  Both give
p = C_p*D**ab*x**4 for a constant C_p, so they share the transform;
only q differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, NumericalError


def _edge_coefficients(a, b):
    """(u, u**2) coefficients of :func:`edge_quadratic`; its constant is 32."""
    return (-32.0 * (2.0 + a * b),
            32.0 + 4.0 * a * (7.0 * b - 1.0) + a * a * (3.0 * b * b + 2.0 * b - 1.0))


def edge_quadratic(u, a, b):
    """The quadratic controlling the subleading canonical potential.

    q2(x) = -C_p*R*^2*D**(ab-a-2)/(16 x^2) times this polynomial in
    u = x/R_star.  Its value at u=1 factors as a(b+1)(a(3b-1) - 4), so
    it vanishes at the surface exactly when a = 4/(3b-1).
    """
    c1, c2 = _edge_coefficients(a, b)
    return 32.0 + c1 * u + c2 * u * u


def _depth_sum(terms, D, k=0):
    """k-th D-derivative of sum(cf * D**pw) over (cf, pw) pairs.

    Terms are added left to right starting from 0; the derivative
    factors multiply the coefficient one at a time, cf*pw*(pw-1)*...
    """
    total = 0
    for cf, pw in terms:
        for j in range(k):
            cf = cf * (pw - j)
        total = total + cf * D ** (pw - k)
    return total


@dataclass(frozen=True)
class SurfaceLayer:
    """Surface layer whose pressure is a sum of powers of the depth.

    With D = R_star - x, the density is rho = D**a, the pressure is
    P = sum(cf * D**pw) over ``P_terms`` and q/x**3 = sum(cf * D**pw)
    over ``q_terms``; the first pressure term is the adiabatic one, so
    Gamma*P = C_p*D**ab with C_p = ``pressure_coeff``.  ``c`` is the
    power of the second pressure source, None for a polytrope.  Build
    layers with :func:`Polytropic` or :func:`LinearThermal`, which
    write each coefficient once.  Defined on [R_delta, R_star);
    R_delta defaults to R_star/2.
    """

    a: float
    b: float
    c: float | None
    pressure_coeff: float
    P_terms: tuple
    q_terms: tuple
    R_star: float = 1.0
    R_delta: float = None

    def __post_init__(self):
        if self.R_delta is None:
            object.__setattr__(self, "R_delta", 0.5 * self.R_star)
        if not (0.0 < self.R_delta < self.R_star):
            raise ValidationError(
                f"need 0 < R_delta < R_star, got {self.R_delta!r}, {self.R_star!r}")

    @property
    def ab(self):
        return self.a * self.b

    def depth(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x >= self.R_star):
            raise ValidationError(f"x must stay below the surface R_star={self.R_star}")
        return self.R_star - x

    def rho(self, x):
        return self.depth(x) ** self.a

    def gamma_P(self, x):
        # a polytrope has Gamma = b; the two-term law's Gamma*P is its gas term
        gas = _depth_sum(self.P_terms[:1], self.depth(x))
        return self.b * gas if self.c is None else gas

    def p(self, x):
        return self.gamma_P(x) * np.asarray(x, dtype=float) ** 4

    def w(self, x):
        return self.rho(x) * np.asarray(x, dtype=float) ** 4

    def W(self, x):
        """sqrt(w/p) = D**(a-ab)/2 / sqrt(C_p); the Liouville density."""
        return self.depth(x) ** (0.5 * (self.a - self.ab)) / math.sqrt(self.pressure_coeff)


def Polytropic(a, b, K=1.0, R_star=1.0, R_delta=None):
    """Polytropic surface layer: P = K*rho**b, rho = (R_star - x)**a.

    The adiabatic exponent is the constant b, so C_p = b*K, and
    q = -x^3 [(3b-4)P]' = x^3 K ab (3b-4) D^(ab-1).
    """
    if not (K > 0 and a > 0 and b > 1):
        raise ValidationError(f"need K > 0, a > 0, b > 1, got K={K!r} a={a!r} b={b!r}")
    ab = a * b
    return SurfaceLayer(a=a, b=b, c=None, pressure_coeff=b * K, P_terms=((K, ab),),
                        q_terms=((K * ab * (3.0 * b - 4.0), ab - 1.0),),
                        R_star=R_star, R_delta=R_delta)


def LinearThermal(a, b, c, K0=1.0, L0=1.0, R_star=1.0, R_delta=None):
    """Two-term surface layer: P = T(x)*rho + L(x).

    T = K0*(R_star - x)**(ab - a) plays the role of temperature and
    L = L0*(R_star - x)**c of a second pressure source; the density is
    rho = (R_star - x)**a.  The adiabatic part of the pressure is the
    gas term, Gamma*P = T*rho = K0*D**ab, so p matches the polytropic
    shape with C_p = K0, and q = -x^3 [3*T*rho - 4*P]'
    = -x^3 [ab K0 D^(ab-1) + 4 c L0 D^(c-1)].
    """
    if not (K0 > 0 and L0 > 0):
        raise ValidationError(f"need K0, L0 > 0, got {K0!r}, {L0!r}")
    if not (a >= 1 and b >= 1 and c > 0):
        raise ValidationError(f"need a >= 1, b >= 1, c > 0, got a={a!r} b={b!r} c={c!r}")
    ab = a * b
    return SurfaceLayer(a=a, b=b, c=c, pressure_coeff=K0, P_terms=((K0, ab), (L0, c)),
                        q_terms=((-(ab * K0), ab - 1.0), (-(4.0 * c * L0), c - 1.0)),
                        R_star=R_star, R_delta=R_delta)


@dataclass(frozen=True)
class CanonicalForm:
    """The Liouville change of variables and the canonical potential.

    X runs from 0 at x = R_delta and is unbounded exactly when
    ab - a >= 2 (the surface is at infinite canonical distance);
    ``unbounded`` records this.  All maps are closed form: with
    s = (a - ab)/2 the depth relates to X through D**(s+1), with a
    logarithmic branch at s = -1.
    """

    eos: object

    @property
    def s(self):
        return 0.5 * (self.eos.a - self.eos.ab)

    @property
    def unbounded(self):
        """True when sqrt(w/p) is not integrable up to the surface."""
        return self.s <= -1.0

    @property
    def X_surface(self):
        """Image of the surface x = R_star; finite only when bounded."""
        if self.unbounded:
            return math.inf
        # bounded means s1 > 0, so D**s1 -> 0 at the surface and the
        # image is the D = 0 limit of X_of_x (which itself rejects x = R_star)
        Dd = self.eos.R_star - self.eos.R_delta
        s1 = self.s + 1.0
        return float(Dd**s1 / (s1 * math.sqrt(self.eos.pressure_coeff)))

    def X_of_x(self, x):
        D = self.eos.depth(x)
        Dd = self.eos.R_star - self.eos.R_delta
        rt = math.sqrt(self.eos.pressure_coeff)
        s1 = self.s + 1.0
        if s1 == 0.0:
            return np.log(Dd / D) / rt
        # Dd**s1 - D**s1 through expm1: the difference cancels as s1 -> 0
        return -(Dd**s1) * np.expm1(s1 * np.log(D / Dd)) / (s1 * rt)

    def x_of_X(self, X):
        X = np.asarray(X, dtype=float)
        Dd = self.eos.R_star - self.eos.R_delta
        rt = math.sqrt(self.eos.pressure_coeff)
        s1 = self.s + 1.0
        if s1 == 0.0:
            D = Dd * np.exp(-rt * X)
        else:
            D = Dd * np.exp(np.log1p((-s1 * rt / Dd**s1) * X) / s1)
        return self.eos.R_star - D

    def X_at_depth(self, depth):
        """X where the depth R_star - x equals ``depth``; inf past the float range."""
        with np.errstate(over="ignore"):
            return float(self.X_of_x(self.eos.R_star - depth))

    def q1(self, x):
        return self._q1(np.asarray(x, dtype=float), self.eos.depth(x))

    def _q1(self, x, D):
        # q/w with q = x^3 * sum(q_terms) and w = rho * x^4
        return _depth_sum(self.eos.q_terms, D) / (D ** self.eos.a * x)

    def _q1_terms(self):
        """q1 = q/w = -u(D)/x with u a sum of depth powers; returns (coeff, power).

        Each term of q/x^3 loses a in depth power; the power is formed
        from the pressure term it came from, (pw - a) - 1.
        """
        eos = self.eos
        return tuple((-cf, pw - eos.a - 1.0)
                     for (cf, _), (_, pw) in zip(eos.q_terms, eos.P_terms))

    def q1_prime(self, x):
        """Closed-form dq1/dx; nested differences lose the signal when
        the second canonical derivative is needed at depths ~ 1e-8."""
        x = np.asarray(x, dtype=float)
        D = self.eos.depth(x)
        terms = self._q1_terms()
        return _depth_sum(terms, D, 1) / x + _depth_sum(terms, D) / x**2

    def q1_second(self, x):
        x = np.asarray(x, dtype=float)
        D = self.eos.depth(x)
        terms = self._q1_terms()
        return (-_depth_sum(terms, D, 2) / x - 2.0 * _depth_sum(terms, D, 1) / x**2
                - 2.0 * _depth_sum(terms, D) / x**3)

    def q2_prime(self, x):
        x = np.asarray(x, dtype=float)
        eos = self.eos
        D = eos.depth(x)
        m = eos.ab - eos.a - 2.0
        u = x / eos.R_star
        c1, c2 = _edge_coefficients(eos.a, eos.b)
        dQQ = c1 + 2.0 * c2 * u
        pref = -eos.pressure_coeff * eos.R_star**2 / 16.0
        return pref * (-m * D ** (m - 1.0) * edge_quadratic(u, eos.a, eos.b) / x**2
                       + D**m * dQQ / (eos.R_star * x**2)
                       - 2.0 * D**m * edge_quadratic(u, eos.a, eos.b) / x**3)

    def Q1_prime_X(self, x):
        """dQ1/dX at x: q1'(x)/W(x)."""
        return self.q1_prime(x) / self.eos.W(x)

    def Q1_second_X(self, x):
        """d^2 Q1/dX^2 at x: (q1'' + s q1'/D)/W^2 with W ~ D^s."""
        D = self.eos.depth(x)
        W = self.eos.W(x)
        return (self.q1_second(x) + self.s * self.q1_prime(x) / D) / W**2

    def _q2(self, x, D):
        eos = self.eos
        return -eos.pressure_coeff * eos.R_star**2 * D ** (eos.ab - eos.a - 2.0) \
            * edge_quadratic(x / eos.R_star, eos.a, eos.b) / (16.0 * x**2)

    def q0(self, x):
        # one depth, checked once, feeds both terms
        x = np.asarray(x, dtype=float)
        D = self.eos.depth(x)
        return self._q1(x, D) + self._q2(x, D)

    def Q(self, X):
        return self.q0(self.x_of_X(X))


@dataclass(frozen=True)
class QuadCheck:
    """One integrability check for a quantity ~ depth**exponent.

    ``fitted`` is the measured log-log slope against depth,
    ``tail_ratio`` compares the integral cut at depth 1e-8 with the
    one cut at 1e-5 (near 1 for integrable tails, large for divergent
    ones), and ``integrable`` is the analytic verdict exponent > -1
    for the dx measure on the finite interval.
    """

    name: str
    exponent: float
    fitted: float
    integrable: bool
    tail_ratio: float

    @property
    def consistent(self):
        tol = 0.02 * max(1.0, abs(self.exponent))
        if abs(self.fitted - self.exponent) > tol:
            return False
        # Convergent tails sit within a few percent of 1; a slowly
        # divergent tail (exponent -1.1) already reaches ~3.
        return (self.tail_ratio < 1.8) == self.integrable


@dataclass(frozen=True)
class CaseReport:
    """Which analysis route applies to an equation of state."""

    route: str
    applies: bool
    checks: tuple
    notes: str = ""


def _slope_check(name, fn, eos, exponent):
    """Measure the depth slope of ``fn`` over depths 1e-7..1e-3 and its
    two-depth quadrature."""
    # fn is elementwise, so one call on the three depth grids gives the
    # same values as one call per grid
    grids = [np.geomspace(1e-7, 1e-3, 60)] + [np.geomspace(cut, 1e-2, 400)
                                              for cut in (1e-5, 1e-8)]
    D, D5, D8 = (g * eos.R_star for g in grids)
    y = np.abs(np.asarray(fn(eos.R_star - np.concatenate([D, D5, D8])), dtype=float))
    y, y5, y8 = y[:60], y[60:460], y[460:]
    keep = y > 0
    coef = np.polyfit(np.log(D[keep]), np.log(y[keep]), 1)
    cut5, cut8 = float(np.trapezoid(y5, D5)), float(np.trapezoid(y8, D8))
    ratio = cut8 / cut5 if cut5 > 0 else np.inf
    return QuadCheck(name=name, exponent=float(exponent), fitted=float(coef[0]),
                     integrable=bool(exponent > -1.0), tail_ratio=ratio)


def classify_sl_case(eos):
    """Decide the boundedness route for ``eos`` and verify its exponents.

    Polytropic layers split on a(b-1): at most 1 is outside scope
    (the excluded states b = (1+a)/a), below 2 the canonical interval
    is finite, at exactly 2 the potential has a finite limit k with
    Q - k integrable, and beyond 2 the potential itself is integrable
    against the canonical measure.  Two-term layers follow the weight
    of the second source: strong decay keeps Q integrable, moderate
    decay (c above a+1) leaves Q bounded and vanishing, weak decay
    (c at most a+1) sends Q to a negative constant or to -infinity,
    handled by the WKB route whose four quadrature conditions are
    verified with degeneracy-aware exponents: the generic power
    formulas assume the depth derivative of the leading q1 term
    dominates, which fails when its coefficient c-a-1 vanishes.
    """
    form = CanonicalForm(eos)
    a, ab = eos.a, eos.ab
    g = ab - a

    if eos.c is None:
        if g <= 1.0:
            return CaseReport(route="outside_scope", applies=False, checks=(),
                              notes=f"a(b-1) = {g} <= 1 excluded")
        if g < 2.0:
            # finite canonical interval; q0 ~ (X_max - X)^-2 there, so
            # q0 is integrable in dx (exponent g-2 > -1) but not in dX
            checks = (
                _slope_check("q0", form.q0, eos, g - 2.0),
                _slope_check("q0*W", lambda x: form.q0(x) * eos.W(x),
                             eos, 0.5 * g - 2.0),
            )
            return CaseReport(route="finite_interval", applies=False, checks=checks,
                              notes="W integrable up to the surface; canonical "
                                    "potential inverse-square at the finite end")
        if g == 2.0:
            k = -eos.pressure_coeff * edge_quadratic(1.0, eos.a, eos.b) / 16.0
            chk = _slope_check("(q0-k)*W", lambda x: (form.q0(x) - k) * eos.W(x),
                               eos, 0.0)
            return CaseReport(route="integrable_shifted_potential", applies=True,
                              checks=(chk,), notes=f"k = {k!r}")
        exp_qw = 0.5 * g - 2.0
        chk = _slope_check("q0*W", lambda x: form.q0(x) * eos.W(x), eos, exp_qw)
        notes = "boundary: q0*W tends to a constant" if exp_qw == 0.0 else ""
        return CaseReport(route="integrable_canonical_potential", applies=True,
                          checks=(chk,), notes=notes)

    c = eos.c
    in_scope = (ab >= a + 2.0 and c > a + 1.0) or (ab >= a + 3.0 and c > a)
    if not (c > a and g >= 2.0):
        return CaseReport(route="outside_scope", applies=False, checks=(),
                          notes=f"need ab-a >= 2 and c > a, got ab-a={g}, c={c}, a={a}")
    e_q0 = min(g - 2.0, c - a - 1.0)
    if c > a + 1.0:
        e_qw = e_q0 - 0.5 * g
        if e_qw > -1.0:
            chk = _slope_check("q0*W", lambda x: form.q0(x) * eos.W(x), eos, e_qw)
            return CaseReport(route="integrable_canonical_potential",
                              applies=in_scope, checks=(chk,))
        chk = _slope_check("q0", form.q0, eos, e_q0)
        notes = "Q -> 0 from below, bounded; not integrable in dX" \
            + (" (log boundary)" if e_qw == -1.0 else "")
        return CaseReport(route="bounded_vanishing_potential",
                          applies=in_scope, checks=(chk,), notes=notes)

    # c <= a+1: Q1 tends to -infinity (strict) or a negative constant
    # (c = a+1); the four WKB quadrature conditions
    W = eos.W
    lam = 1.0
    q1 = form.q1
    e1p, e1pp, _ = canonical_derivative_exponents(eos)
    ec = c - a - 1.0
    checks = (
        _slope_check("W/sqrt(lam-Q1)", lambda x: W(x) / np.sqrt(lam - q1(x)),
                     eos, -0.5 * g - 0.5 * ec),
        _slope_check("|Q2'|W/(lam-Q1)",
                     lambda x: np.abs(form.q2_prime(x)) / (lam - q1(x)),
                     eos, (g - 3.0) - ec),
        _slope_check("|Q1''|W/(lam-Q1)^1.5",
                     lambda x: np.abs(form.Q1_second_X(x)) * W(x) / (lam - q1(x)) ** 1.5,
                     eos, e1pp - 0.5 * g - 1.5 * ec),
        _slope_check("Q1'^2 W/(lam-Q1)^2.5",
                     lambda x: form.Q1_prime_X(x) ** 2 * W(x) / (lam - q1(x)) ** 2.5,
                     eos, 2.0 * e1p - 0.5 * g - 2.5 * ec),
    )
    applies = (not checks[0].integrable) and all(c_.integrable for c_ in checks[1:])
    return CaseReport(route="unbounded_potential_wkb", applies=applies, checks=checks)


def canonical_derivative_exponents(eos):
    """Depth exponents of Q1'(X), Q1''(X), Q2'(X) for a two-term layer.

    The generic formulas -2+(c-a)+(ab-a)/2, -3+(c-a)+(ab-a) hold when
    differentiating the leading depth power of q1 dominates; when its
    coefficient c-a-1 vanishes, or when Q1'(X) tends to a nonzero
    constant, the next term of the expansion (one depth order up) sets
    the rate instead.  Q2' is free of c and never degenerates.
    """
    a, ab, c = eos.a, eos.ab, eos.c
    g = ab - a
    e1 = (c - a - 2.0) if c < a + 1.0 else 0.0
    e1p = e1 + 0.5 * g
    e1pp = (e1p - 1.0 if e1p != 0.0 else 0.0) + 0.5 * g
    return e1p, e1pp, 1.5 * g - 3.0


@dataclass(frozen=True)
class CanonicalTrace:
    """Integrated canonical solution with the recovered radius.

    ``substeps`` is the number of Magnus steps per output interval,
    ``levels`` the steps per interval of every level computed, ending at
    ``substeps``, and ``error_estimate`` the step-doubling estimate of the
    relative error of (Y, Y'); all three are None for a trace not made by
    :func:`integrate_canonical`.
    """

    lam: float
    X_grid: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    Y_prime: np.ndarray = field(repr=False)
    x_grid: np.ndarray = field(repr=False)
    substeps: int = None
    levels: tuple = None
    error_estimate: float = None


#: offset of the outer Gauss nodes from the middle of a step, in steps
_GAUSS = math.sqrt(15.0) / 10.0
#: most nodes at which one call evaluates Q
_NODES = 2 * 8192
#: floor of the error estimate, the idiom of ``spectra.default_tol``
_EST_FLOOR = 64.0 * np.finfo(float).eps
#: most points of an output grid, the bound a config puts on its sizes;
#: the interval matrices and the two scan buffers take 96 bytes a point
MAX_GRID = 10**6
#: fewest points of an output grid, and of a trace the tail diagnostics
#: accept.  They read fractions of it: the envelope amplitudes the last
#: fifth (50 points here), the WKB fit and the L2 growth line the second
#: half (125 points, so each hypothesis slope has its 8).  On the benchmark
#: layers a floor of 200 lowers the least L2 growth r**2 from 0.9979 to
#: 0.9947, close to the 0.99 of its verdict; 250 keeps it at 0.9979.
MIN_GRID = 250
#: Magnus steps over [0, X_max] that the first level aims at: it takes
#: the power of two per interval nearest in log2, so 2 on 1000 points
#: (1998 steps) and 8 on MIN_GRID (1992)
_FIRST_STEPS = 2 * 999


def grid_points(lam, X_max):
    """Size of the output grid: 24 points per wavelength 2*pi/sqrt(lam),
    at least MIN_GRID.  A float, so a size past the float range compares
    as inf instead of failing in int()."""
    return max(float(MIN_GRID), 24 * X_max * math.sqrt(lam) / (2.0 * math.pi))


def _mul(A, B, out=None):
    """A @ B for stacks of 2x2 matrices stored as rows (a, b, c, d).

    Written out element by element, so the result does not depend on
    how a BLAS library orders its sums; each entry is one product plus
    one product, in that order, as in ``a*e + b*g``.  The four rows are
    written straight into ``out`` (a new array by default, which must
    not overlap A or B) through one scratch row.
    """
    a, b, c, d = A
    e, f, g, h = B
    if out is None:
        out = np.empty((4,) + a.shape)
    tmp = np.empty_like(out[0])
    for row, (p, q, r, t) in zip(out, ((a, e, b, g), (a, f, b, h),
                                       (c, e, d, g), (c, f, d, h))):
        np.multiply(p, q, out=row)
        row += np.multiply(r, t, out=tmp)
    return out


def _prefix_products(T):
    """P_k = T_k ... T_1 for a (4, n) stack of 2x2 matrices.

    A Hillis-Steele scan: after the pass with stride d, column k holds
    the product of the up to 2d matrices ending at k.  Each pass reads
    one (4, n) buffer and writes the other, so the scan holds two
    buffers besides T and leaves T as it was; the products are
    associated exactly as in a scan that builds a new array per pass.
    """
    P, Q, d = T, np.empty_like(T), 1
    while d < P.shape[1]:
        Q[:, :d] = P[:, :d]
        _mul(P[:, d:], P[:, :-d], out=Q[:, d:])
        P, Q = Q, (np.empty_like(T) if P is T else P)
        d *= 2
    return P


def _magnus_steps(form, lam, h, first, n):
    """exp(Omega) of the sixth-order Magnus steps first .. first+n-1 of size h.

    With A_i = [[0, 1], [f_i, 0]] at the three Gauss nodes of a step,
    f = Q - lam, alpha_1 = h*A_2, alpha_2 = (sqrt(15)*h/3)*(A_3 - A_1) and
    alpha_3 = (10*h/3)*(A_3 - 2*A_2 + A_1), the step of Blanes, Casas &
    Ros (2000) is Omega = alpha_1 + alpha_3/12 + [-20*alpha_1 - alpha_3 +
    C_1, alpha_2 + C_2]/240 with C_1 = [alpha_1, alpha_2] and C_2 =
    -[alpha_1, 2*alpha_3 + C_1]/60.  alpha_2 and alpha_3 are strictly
    lower triangular, so in F_i = h**2*f_i, P = (sqrt(15)/3)*(F_3 - F_1)
    and R = (10/3)*(F_1 + F_3 - 2*F_2) every commutator is a few products:

        Omega = [[delta, h*w12], [w21/h, -delta]],
        delta = P*(F_2/180 - 1/12 + R/7200),
        w12 = 1 + (P**2 - 20*R)/3600,
        w21 = F_2 + R/12 + ((20*F_2 + R)*R - (30 - F_2)*P**2)/3600.

    Omega is traceless, so exp(Omega) = C*I + S*Omega with C, S the cosh
    and sinh/kappa (or cos and sin/kappa) of kappa = sqrt|delta**2 +
    w12*w21|.  Returns the (4, n) matrices and the largest kappa.

    Buffers: the 3n nodes share one array, and h**2*(Q - lam) overwrites
    the values of Q.  Its thirds F_1, F_2 and F_3 then hold P (then k**2,
    then kappa), S and w21; the rows of the result hold R, w12,
    delta and scratch until they take C + S*delta, S*(h*w12), S*(w21/h)
    and C - S*delta.  cosh and sinh are taken only where k**2 > 0.  Each
    value comes from the same IEEE operations, in the same order, as in
    ``tests/magnus_oracle.py``, which writes the step with temporaries.
    """
    X = np.empty(3 * n)
    lo, mid, hi = X[:n], X[n:2 * n], X[2 * n:]
    np.add(np.arange(first, first + n), 0.5, out=mid)
    mid *= h
    g = _GAUSS * h
    np.subtract(mid, g, out=lo)
    np.add(mid, g, out=hi)
    f = form.Q(X)
    f -= lam
    f *= h * h
    F1, F2, F3 = f[:n], f[n:2 * n], f[2 * n:]
    T = np.empty((4, n))
    R, w12, delta, tmp = T
    np.add(F1, F3, out=R)
    np.multiply(F2, 2.0, out=w12)
    R -= w12
    R *= 10.0 / 3.0
    P = np.subtract(F3, F1, out=F1)
    P *= math.sqrt(15.0) / 3.0
    np.multiply(F2, 1.0 / 180.0, out=delta)
    delta -= 1.0 / 12.0
    np.multiply(R, 1.0 / 7200.0, out=F3)
    delta += F3
    delta *= P
    np.multiply(P, P, out=w12)
    np.multiply(R, 20.0, out=F3)
    w12 -= F3
    w12 *= 1.0 / 3600.0
    w12 += 1.0
    w21 = F3
    np.multiply(F2, 20.0, out=w21)
    w21 += R
    w21 *= R                                    # (20*F_2 + R)*R
    np.subtract(30.0, F2, out=tmp)
    tmp *= P
    tmp *= P
    w21 -= tmp
    w21 *= 1.0 / 3600.0
    np.multiply(R, 1.0 / 12.0, out=tmp)
    tmp += F2
    w21 += tmp
    k2 = P
    np.multiply(delta, delta, out=k2)
    np.multiply(w12, w21, out=F2)
    k2 += F2                                    # delta**2 + w12*w21
    grow = k2 > 0.0
    kappa = np.sqrt(np.abs(k2, out=k2), out=k2)
    C, S = R, F2
    np.cos(kappa, out=C)
    np.sin(kappa, out=S)
    with np.errstate(over="ignore"):
        C[grow], S[grow] = np.cosh(kappa[grow]), np.sinh(kappa[grow])
    # S/kappa where kappa > 0, and 1 wherever that fails (kappa 0 or NaN)
    np.greater(kappa, 0.0, out=grow)
    np.divide(S, kappa, out=S, where=grow)
    np.copyto(S, 1.0, where=np.logical_not(grow, out=grow))
    delta *= S
    np.subtract(C, delta, out=tmp)
    C += delta
    w12 *= h
    w12 *= S
    np.divide(w21, h, out=delta)
    delta *= S
    return T, float(np.max(kappa))


def _propagate(form, lam, H, n_int, m):
    """(Y, Y') on the grid k*H, k = 0..n_int from (Y, Y')(0) = (0, 1), with
    m Magnus steps per interval, and the largest kappa of those steps."""
    h = H / m
    per_block = max(1, _NODES // (3 * m))
    M, turn = np.empty((4, n_int)), 0.0
    for i0 in range(0, n_int, per_block):
        nb = min(per_block, n_int - i0)
        T, k = _magnus_steps(form, lam, h, i0 * m, nb * m)
        turn = max(turn, k)
        T = T.reshape(4, nb, m)
        while T.shape[2] > 1:   # pairwise tree over each interval's steps
            T = _mul(T[:, :, 1::2], T[:, :, 0::2])
        M[:, i0:i0 + nb] = T[:, :, 0]
    a, b, c, d = _prefix_products(M)
    y0, y1 = 0.0, 1.0
    return (np.concatenate([[y0], a * y0 + b * y1]),
            np.concatenate([[y1], c * y0 + d * y1])), turn


def _doubling_estimate(coarse, fine):
    """max over Y, Y' of |coarse - fine|_inf / |fine|_inf, over 63 (order
    6), and never below 64 eps.  A NaN or inf stays NaN or inf."""
    rel = []
    with np.errstate(invalid="ignore"):     # inf - inf and inf/inf give NaN
        for u, v in zip(coarse, fine):
            scale = np.max(np.abs(v))
            diff = np.max(np.abs(u - v))
            rel.append(diff / scale if scale > 0.0 else diff)
    return max(float(np.max(rel)) / 63.0, _EST_FLOOR)


def integrate_canonical(form, lam, X_max=2000.0, rtol=1e-10):
    """Integrate -Y'' + Q Y = lam Y over [0, X_max] from (Y, Y')(0) = (0, 1).

    Sixth-order Magnus propagator with three Gauss nodes per step
    (Iserles & Norsett 1999; Blanes, Casas & Ros 2000): each interval of
    the output grid, which puts 24 points on the wavelength
    2*pi/sqrt(lam) and has at least MIN_GRID, takes m equal steps, and m
    doubles until the step-doubling estimate of the relative error of
    (Y, Y') is at most ``rtol``.  The first m is the power of two, at
    least 2, that makes its (n_out - 1)*m steps nearest in log2 to
    _FIRST_STEPS: the step, not the output grid, sets the Magnus error,
    so a coarser grid starts with more steps per interval.  The
    estimate never reads below 64 eps, so an rtol under that floor ends
    in the stall below.  The step size does not shrink with the local
    frequency.  Once every step turns the solution by at most pi, a
    doubling that cuts the estimate less than fourfold means roundoff
    has the upper hand, and raises NumericalError.  The radius is
    recovered on the same grid through x = x_of_X(X).  A grid of more
    than MAX_GRID points is refused before anything is allocated.
    """
    if lam <= 0.0:
        raise ValidationError(f"lam must be positive, got {lam!r}")
    if X_max >= form.X_surface:
        raise ValidationError(
            f"X_max = {X_max} reaches past the finite image "
            f"[0, {form.X_surface}) of this bounded transform")
    n_out = grid_points(lam, X_max)
    if not n_out <= MAX_GRID:
        raise ValidationError(
            f"lam = {lam!r} and X_max = {X_max!r} need an output grid of "
            f"{n_out:.4g} points, more than {MAX_GRID}")
    n_out = int(n_out)
    grid = np.linspace(0.0, X_max, n_out)
    H = X_max / (n_out - 1)
    m = 2 ** max(1, round(math.log2(_FIRST_STEPS / (n_out - 1))))
    prev_est, prev_turn = math.inf, math.inf
    coarse, turn = _propagate(form, lam, H, n_out - 1, m)
    levels = [m]
    while True:
        fine, fine_turn = _propagate(form, lam, H, n_out - 1, 2 * m)
        levels.append(2 * m)
        est = _doubling_estimate(coarse, fine)
        if not math.isfinite(est):
            raise NumericalError(
                f"the canonical solution is not finite with {2 * m} Magnus "
                f"steps per output interval of {H!r}")
        if est <= rtol:
            break
        # only steps that turn the solution by less than pi are in the
        # asymptotic h**6 regime, where a small cut can only be roundoff
        if est > 0.25 * prev_est and prev_turn <= math.pi:
            raise NumericalError(
                f"the Magnus error estimate stalls at {est:.3e} with {2 * m} "
                f"steps per output interval: roundoff keeps it above rtol")
        m, prev_est, prev_turn = 2 * m, est, turn
        coarse, turn = fine, fine_turn
    Y, Yp = fine
    return CanonicalTrace(lam=float(lam), X_grid=grid, Y=Y, Y_prime=Yp,
                          x_grid=form.x_of_X(grid), substeps=2 * m, levels=tuple(levels),
                          error_estimate=est)


@dataclass(frozen=True)
class TailEnvelope:
    """Closed-form asymptotic envelopes continued to the surface.

    Beyond the integrated window the solution keeps the amplitude the
    trace established (bounded-solution regime), so envelope bounds on
    delta_r and the regularity quantity follow from the coefficient
    powers alone, evaluated on a grid log-spaced in depth.
    """

    depth: np.ndarray = field(repr=False)
    amp_Y: float
    amp_Yp: float
    env_delta_r: np.ndarray = field(repr=False)
    env_R: np.ndarray = field(repr=False)


def _envelope_fields(eos, amp_Y, amp_Yp, x, D):
    """Envelope bounds on delta_r = x*y and Gamma*P*(3y + x*y')."""
    pw4 = (eos.p(x) * eos.w(x)) ** 0.25
    env_y = amp_Y / pw4
    # y' = Y'*W/(pw)^(1/4) + Y*((pw)^(-1/4))'; both terms kept
    dpw4 = _pw_minus_quarter_log_deriv(eos, x, D)
    env_yp = amp_Yp * eos.W(x) / pw4 + amp_Y * np.abs(dpw4) / pw4
    env_R = eos.gamma_P(x) * (3.0 * env_y + x * env_yp)
    return x * env_y, env_R


#: depth, in units of R_star, down to which a trace is continued by envelopes
ENVELOPE_DEPTH = 1e-8


def extend_trace_asymptotic(trace, form):
    """Extend the trace by envelope bounds down to ENVELOPE_DEPTH*R_star.

    The Y and Y' amplitudes are read off the last fifth of the trace
    (assumed in the bounded-solution regime, so the amplitudes have
    settled); the envelopes carry |y| <= amp_Y/(pw)**(1/4) and the two
    chain-rule terms of y' outward on a 500-point log-depth grid.
    """
    eos = form.eos
    k = int(0.8 * trace.X_grid.size)
    amp_Y = float(np.max(np.abs(trace.Y[k:])))
    amp_Yp = float(np.max(np.abs(trace.Y_prime[k:])))
    d_hi = float(eos.R_star - trace.x_grid[-1])
    if ENVELOPE_DEPTH * eos.R_star >= d_hi:
        raise ValidationError(
            f"trace already reaches depth {d_hi!r}, below ENVELOPE_DEPTH")
    D = np.geomspace(ENVELOPE_DEPTH * eos.R_star, d_hi, 500)[::-1]
    x = eos.R_star - D
    env_dr, env_R = _envelope_fields(eos, amp_Y, amp_Yp, x, D)
    return TailEnvelope(depth=D, amp_Y=amp_Y, amp_Yp=amp_Yp, env_delta_r=env_dr,
                        env_R=env_R)


def _pw_minus_quarter_log_deriv(eos, x, D):
    """d/dx ln (pw)**(-1/4) = (ab+a)/(4D) - 2/x, exact for the power laws."""
    return (eos.ab + eos.a) / (4.0 * D) - 2.0 / x


@dataclass(frozen=True)
class WKBFit:
    """Tail fit of the canonical solution to the WKB pair.

    ``split`` names the V2 the fit used: "q0" or "zero".
    """

    alpha: complex
    beta: complex
    residual: float
    window: tuple
    hypothesis_slopes: dict
    split: str


def _tail_slope(X, f):
    """Log-log slope of |f| against X over the window, for L1 tests."""
    y = np.abs(f)
    keep = y > 0
    if np.count_nonzero(keep) < 8:
        return -np.inf
    coef = np.polyfit(np.log(X[keep]), np.log(y[keep]), 1)
    return float(coef[0])


def wkb_fit(trace, form):
    """Fit the trace tail to alpha*u+ + beta*u-, u+- = exp(+-i*phi).

    phi' = sqrt(lam - V2) with the envelope factor (lam - V2)**(-1/4),
    fitted over the second half of the trace.  V2 is Q ("q0") while
    |Q| at the window end exceeds 1e-3 lam and 0 ("zero") otherwise;
    V1 is Q - V2, and the fit records which V2 it used.  Y and Y' are
    fitted jointly by least squares and the stacked relative residual
    is reported.

    The split must satisfy the asymptotic hypotheses: V1 integrable
    over the tail, and either V2 -> 0 with V2' integrable or, for
    unbounded V2, the two WKB correction integrals convergent; a split
    that fails these quadrature slopes is refused.  A window where
    lam - V2 does not stay positive is refused first.
    """
    lam = trace.lam
    k = int(0.5 * trace.X_grid.size)
    X = trace.X_grid[k:]
    Yw = trace.Y[k:]
    Yp = trace.Y_prime[k:]

    Qw = form.Q(X)
    v2 = "q0" if abs(Qw[-1]) > 1e-3 * lam else "zero"
    V2 = Qw if v2 == "q0" else np.zeros_like(X)

    under = lam - V2
    if np.any(under <= 0.0):
        raise ValidationError("lam - V2 must stay positive over the fit window")

    slopes = {}
    V1 = Qw - V2
    if np.max(np.abs(V1)) > 1e-13 * max(1.0, float(np.max(np.abs(Qw)))):
        slopes["V1"] = _tail_slope(X, V1)
        if slopes["V1"] > -1.02:
            raise ValidationError(
                f"V1 quadrature diverges: tail slope {slopes['V1']:.3f} >= -1")
    if np.max(np.abs(V2)) > 0.0:
        v2p = np.gradient(V2, X)
        if np.abs(V2[-1]) < 0.25 * lam:
            s_v2p = _tail_slope(X, v2p)
            slopes["V2'"] = s_v2p
            if s_v2p > -1.02:
                raise ValidationError(
                    f"V2' quadrature diverges: tail slope {s_v2p:.3f} >= -1")
        else:
            v2pp = np.gradient(v2p, X)
            slopes["V2''/(lam-V2)^1.5"] = _tail_slope(X, v2pp / under ** 1.5)
            slopes["V2'^2/(lam-V2)^2.5"] = _tail_slope(X, v2p**2 / under ** 2.5)
            bad = [n for n in list(slopes)[-2:] if slopes[n] > -1.02]
            if bad:
                raise ValidationError(
                    f"WKB correction quadratures diverge: {bad}")

    k_loc = np.sqrt(under)
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (k_loc[1:] + k_loc[:-1]) * np.diff(X))])
    amp = (under / lam) ** -0.25
    # stacked system: Y ~ amp(a cos + b sin), Y' ~ amp k(-a sin + b cos)
    A = np.vstack([np.concatenate([amp * np.cos(phi), -amp * k_loc * np.sin(phi)]),
                   np.concatenate([amp * np.sin(phi), amp * k_loc * np.cos(phi)])]).T
    rhs = np.concatenate([Yw, Yp])
    coef, _, _, _ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = float(np.linalg.norm(A @ coef - rhs) / np.linalg.norm(rhs))
    a_c, b_s = coef
    alpha = 0.5 * (a_c - 1j * b_s)
    beta = 0.5 * (a_c + 1j * b_s)
    return WKBFit(alpha=complex(alpha), beta=complex(beta), residual=resid,
                  window=(float(X[0]), float(X[-1])), hypothesis_slopes=slopes, split=v2)


@dataclass(frozen=True)
class DecayReport:
    """Surface decay of the regularity quantity R = Gamma*P*(3y + x*y')."""

    fitted_power: float
    analytic_power: float
    lower_bound: float
    monotone: bool
    envelope_ratio: float

    @property
    def within(self):
        return abs(self.fitted_power - self.analytic_power) \
            <= 0.05 * abs(self.analytic_power)

    @property
    def bound_satisfied(self):
        return self.fitted_power >= self.lower_bound - 1e-9


def trace_regularity(trace, eos):
    """R(x) = Gamma*P*(3y + x*y') on the trace grid, with y =
    Y/(pw)**(1/4) and exact y'.

    y' carries two terms, Y'*W/(pw)**(1/4) and Y*((pw)**(-1/4))'; both
    are closed form for the power-law coefficients.
    """
    x = trace.x_grid
    D = eos.depth(x)
    pw4 = (eos.p(x) * eos.w(x)) ** 0.25
    yp = trace.Y_prime * eos.W(x) / pw4 \
        + trace.Y * _pw_minus_quarter_log_deriv(eos, x, D) / pw4
    return eos.gamma_P(x) * (3.0 * (trace.Y / pw4) + x * yp)


def regularity_check(trace, eos, envelope):
    """Fit the decay power of the regularity envelope near the surface.

    The trace itself cannot reach the fit depths directly (the
    canonical distance to depth d grows like d**(s+1) with s+1 < 0),
    so the last two decades down to 1e-8 of the stellar radius come
    from the envelope continuation, validated against the exact trace
    R(x) where the two overlap: ``envelope_ratio`` is the peak |R| over
    the trace's last fifth, the stretch the envelope amplitudes are read
    from, over the envelope bound at its start.  The analytic rate for
    bounded (Y, Y') is (ab+a)/4, set by the x*Gamma*P*y' term; the
    classical requirement is only a positive power, with (a+1)/2 the
    guaranteed lower bound for the polytropic layer (3/4 for the
    two-term layer with a weak second source).  ``envelope`` is the trace's
    :func:`extend_trace_asymptotic`.
    """
    if trace.X_grid.size < MIN_GRID:
        raise ValidationError(
            f"trace too short for a tail fit: {trace.X_grid.size} points, "
            f"fewer than {MIN_GRID}")
    D, R = envelope.depth, envelope.env_R

    # envelope sanity: max |R| over the trace tail vs the bound there
    R_tr = np.abs(trace_regularity(trace, eos))
    k = int(0.8 * trace.X_grid.size)
    peak = float(np.max(R_tr[k:]))
    x_win = trace.x_grid[k]
    env_at = float(_envelope_fields(eos, envelope.amp_Y, envelope.amp_Yp,
                                    x_win, eos.depth(x_win))[1])
    ratio = peak / env_at if env_at > 0 else np.inf

    sel = D <= D.min() * 100.0
    coef = np.polyfit(np.log(D[sel]), np.log(R[sel]), 1)
    dec = D <= D.min() * 10.0
    order = np.argsort(D[dec])
    monotone = bool(np.all(np.diff(R[dec][order]) >= 0.0))
    analytic = (eos.ab + eos.a) / 4.0
    weak_source = eos.c is not None and eos.c <= eos.a + 1.0
    bound = 0.75 if weak_source else (eos.a + 1.0) / 2.0
    return DecayReport(fitted_power=float(coef[0]), analytic_power=float(analytic),
                       lower_bound=float(bound), monotone=monotone,
                       envelope_ratio=ratio)


@dataclass(frozen=True)
class GrowthReport:
    """Witnesses for non-L2 canonical solutions and diverging delta_r."""

    slope: float
    r_squared: float
    max_growth_factor: float
    growth_exponent: float

    @property
    def diverges(self):
        """Linear L2 mass growth and two-decade displacement growth."""
        return self.slope > 0.0 and self.r_squared > 0.99 \
            and self.max_growth_factor >= 10.0


def l2_growth(trace, envelope):
    """Partial L2 integrals of Y and the running max of |delta_r|.

    F(X) = int_0^X |Y|^2 grows linearly for bounded non-vanishing
    solutions (never square integrable on the infinite canonical
    half-line); the displacement envelope then diverges at the
    surface, measured by its growth factor across the last two depth
    decades and the fitted exponent against -log(depth), both read off
    ``envelope``, the trace's :func:`extend_trace_asymptotic`.  An
    envelope with no samples in the decade above its deepest depth
    cannot give the growth factor and is refused.
    """
    X, Y = trace.X_grid, trace.Y
    F = np.concatenate([[0.0], np.cumsum(0.5 * (Y[1:] ** 2 + Y[:-1] ** 2) * np.diff(X))])
    k = X.size // 2
    A = np.vstack([X[k:], np.ones(X.size - k)]).T
    coef, res, _, _ = np.linalg.lstsq(A, F[k:], rcond=None)
    ss = float(np.sum((F[k:] - F[k:].mean()) ** 2))
    r2 = 1.0 if ss == 0.0 or res.size == 0 else 1.0 - float(res[0]) / ss

    D, dr = envelope.depth, envelope.env_delta_r
    lo = D.min()
    far = (D <= lo * 100.0) & (D > lo * 10.0)
    if not np.any(far):
        raise ValidationError(
            f"the displacement envelope spans depths {lo:.3g} to {D.max():.3g}; the "
            f"growth factor needs samples in the decade above {10.0 * lo:.3g}")
    f_near = float(np.max(dr[D <= lo * 10.0]))
    f_far = float(np.max(dr[far]))
    factor = f_near / f_far if f_far > 0 else np.inf
    sel = D <= lo * 100.0
    coef2 = np.polyfit(-np.log(D[sel]), np.log(dr[sel]), 1)
    return GrowthReport(slope=float(coef[0]), r_squared=r2,
                        max_growth_factor=float(factor), growth_exponent=float(coef2[0]))
