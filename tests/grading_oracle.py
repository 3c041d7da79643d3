"""Exact rational oracle for the grading identity of ``polytrans``.

Builds the grading transform D(x, y) from its running products and
evaluates B = D(y,x) A D(x,y) entry by entry in ``fractions.Fraction``.
It shares no code with ``polytrans``, whose certificate works on the
integer exponents of D instead.
"""

from fractions import Fraction


def diag_transform(x, y, n):
    """Entries d_1..d_n of D(x, y) as exact running products.

    d_1 = 1, d_{2m} = prod_{k<=m} y**(2k-2)/x**(2k-1) and
    d_{2m+1} = prod_{k<=m} y**(2k-1)/x**(2k).
    """
    x, y = Fraction(x), Fraction(y)
    d = [Fraction(1)] * n
    even = odd = Fraction(1)
    for j in range(2, n + 1):
        m = j // 2
        if j % 2 == 0:
            even = even * y ** (2 * m - 2) / x ** (2 * m - 1)
            d[j - 1] = even
        else:
            odd = odd * y ** (2 * m - 1) / x ** (2 * m)
            d[j - 1] = odd
    return d


def residual(diag, sub, sup, x, y):
    """Largest |B - claim| over the entries of B, in exact arithmetic.

    The claim: [B]_{j,j+1} = c_j, [B]_{j+1,j} = b_j and
    [B]_{j,j} = a_j/(x*y)**floor(j/2), for the graded matrix A with
    [A]_{j,j+1} = c_j*x**j and [A]_{j+1,j} = b_j*y**j.
    """
    a, b, c = ([Fraction(v) for v in seq] for seq in (diag, sub, sup))
    x, y = Fraction(x), Fraction(y)
    n = len(a)
    dl, dr = diag_transform(y, x, n), diag_transform(x, y, n)
    res = [abs(dl[j - 1] * c[j - 1] * x ** j * dr[j] - c[j - 1]) for j in range(1, n)]
    res += [abs(dl[j] * b[j - 1] * y ** j * dr[j - 1] - b[j - 1]) for j in range(1, n)]
    res += [abs(dl[j - 1] * a[j - 1] * dr[j - 1] - a[j - 1] / (x * y) ** (j // 2))
            for j in range(1, n + 1)]
    return max(res)
