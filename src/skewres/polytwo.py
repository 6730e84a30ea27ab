"""Polynomials in two central variables with quaternion coefficients.

P = sum_{n,m} q1^n q2^m a_{n,m}, coefficients on the right, both variables
central. Evaluation fixes the order eval2(P, a, b) = sum a^n b^m a_{n,m}
(first-variable powers left of second-variable powers) and is not
multiplicative in general.

The coefficient views in either variable (rows of one-variable polynomials in
the other) are what the elimination theory consumes.
"""

from __future__ import annotations

from .errors import InvalidInput, ZeroPolynomial
from .polyone import Poly1, _power
from .quaternion import ONE, ZERO, Quaternion, Rational, convolve

_R0 = Rational(0)


def _trim_grid(grid: list[list[Quaternion]]) -> tuple:
    rows = len(grid)
    while rows and not any(grid[rows - 1]):
        rows -= 1
    grid = grid[:rows]
    cols = max((len(r) for r in grid), default=0)
    while cols and not any(r[cols - 1] if cols - 1 < len(r) else ZERO for r in grid):
        cols -= 1
    return tuple(tuple((r[c] if c < len(r) else ZERO) for c in range(cols)) for r in grid)


class Poly2:
    """A quaternionic polynomial in two variables, coefficient grid trimmed.

    coeffs[n][m] is the coefficient of q1^n q2^m; the last row and the last
    column each contain a nonzero entry (zero polynomial = empty grid).
    """

    __slots__ = ("coeffs",)

    def __init__(self, grid=()):
        cooked = [
            [c if isinstance(c, Quaternion) else Quaternion(c) for c in row]
            for row in grid
        ]
        self.coeffs = _trim_grid(cooked)

    @staticmethod
    def const(c) -> "Poly2":
        return Poly2(((c,),))

    @staticmethod
    def monomial(n: int, m: int, c=ONE) -> "Poly2":
        grid = [[ZERO] * (m + 1) for _ in range(n + 1)]
        grid[n][m] = c if isinstance(c, Quaternion) else Quaternion(c)
        return Poly2(grid)

    @staticmethod
    def from_poly1(p: Poly1, var: str) -> "Poly2":
        """Embed a one-variable polynomial as a polynomial in q1 or q2."""
        if var == "q1":
            return Poly2([[c] for c in p.coeffs])
        if var == "q2":
            return Poly2([list(p.coeffs)])
        raise InvalidInput(f"unknown variable {var!r}")

    @staticmethod
    def from_q1_coeffs(views: list[Poly1]) -> "Poly2":
        """Rebuild from the q1 view: views[n] is the q2-polynomial at q1^n."""
        return Poly2([list(v.coeffs) for v in views])

    @staticmethod
    def from_q2_coeffs(views: list[Poly1]) -> "Poly2":
        """Rebuild from the q2 view: views[m] is the q1-polynomial at q2^m."""
        rows = max((v.degree for v in views), default=-1) + 1
        grid = [[ZERO] * len(views) for _ in range(rows)]
        for m, v in enumerate(views):
            for n, c in enumerate(v.coeffs):
                grid[n][m] = c
        return Poly2(grid)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg_q1(self) -> int:
        return len(self.coeffs) - 1

    @property
    def deg_q2(self) -> int:
        return len(self.coeffs[0]) - 1 if self.coeffs else -1

    def coeff(self, n: int, m: int) -> Quaternion:
        if 0 <= n < len(self.coeffs) and 0 <= m < len(self.coeffs[n]):
            return self.coeffs[n][m]
        return ZERO

    def deg(self, var: str) -> int:
        if var == "q1":
            return self.deg_q1
        if var == "q2":
            return self.deg_q2
        raise InvalidInput(f"unknown variable {var!r}")

    def coeffs_in_q1(self) -> list[Poly1]:
        """views[n] in H[q2] with P = sum q1^n * views[n]."""
        return [Poly1(row) for row in self.coeffs]

    def coeffs_in_q2(self) -> list[Poly1]:
        """views[m] in H[q1] with P = sum q2^m * views[m]."""
        if not self.coeffs:
            return []
        cols = len(self.coeffs[0])
        return [Poly1([row[m] for row in self.coeffs]) for m in range(cols)]

    def coeffs_in(self, var: str) -> list[Poly1]:
        return self.coeffs_in_q1() if var == "q1" else self.coeffs_in_q2()

    @staticmethod
    def from_coeffs_in(views: list[Poly1], var: str) -> "Poly2":
        """Rebuild from the view in var, the inverse of coeffs_in."""
        return Poly2.from_q1_coeffs(views) if var == "q1" else Poly2.from_q2_coeffs(views)

    def __repr__(self) -> str:
        return f"Poly2({[list(r) for r in self.coeffs]!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly2):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "Poly2":
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        rows = max(len(self.coeffs), len(other.coeffs))
        cols = max(
            len(self.coeffs[0]) if self.coeffs else 0,
            len(other.coeffs[0]) if other.coeffs else 0,
        )
        grid = [
            [self.coeff(n, m) + other.coeff(n, m) for m in range(cols)]
            for n in range(rows)
        ]
        return Poly2(grid)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly2":
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly2":
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "Poly2":
        return Poly2([[-c for c in row] for row in self.coeffs])

    def __mul__(self, other) -> "Poly2":
        """The star product: coefficients convolve in both exponents.

        Runs on integer components (quaternion.convolve) over the flattened
        grids, with the same values as the Quaternion product sums.
        """
        other = _coerce2(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly2()
        # flattened row by row with the product's row length, (n, m) sits at
        # n*cols + m; m1 + m2 < cols keeps the sums of flat indices apart
        rows = self.deg_q1 + other.deg_q1 + 1
        cols = self.deg_q2 + other.deg_q2 + 1
        flat = convolve(_flat(self.coeffs, cols), _flat(other.coeffs, cols), rows * cols)
        return Poly2([flat[n * cols : (n + 1) * cols] for n in range(rows)])

    def __rmul__(self, other) -> "Poly2":
        if isinstance(other, (int, type(_R0))):
            return self.scale_left(Quaternion(other))
        return NotImplemented

    def scale_left(self, c: Quaternion) -> "Poly2":
        return Poly2([[c * a for a in row] for row in self.coeffs])

    def scale_right(self, c: Quaternion) -> "Poly2":
        return Poly2([[a * c for a in row] for row in self.coeffs])

    def star_pow(self, n: int) -> "Poly2":
        return _power(self, n, Poly2.const(ONE))

    def conj(self) -> "Poly2":
        return Poly2([[c.conj() for c in row] for row in self.coeffs])

    def symm(self) -> "Poly2":
        """P * conj(P): real coefficients, central in the star algebra."""
        return self * self.conj()

    def is_real(self) -> bool:
        return all(c.is_real() for row in self.coeffs for c in row)

    def partial_q1(self) -> "Poly2":
        return Poly2([[n * c for c in row] for n, row in enumerate(self.coeffs)][1:])

    def partial_q2(self) -> "Poly2":
        return Poly2([[m * c for m, c in enumerate(row)][1:] for row in self.coeffs])

    def partial(self, var: str) -> "Poly2":
        return self.partial_q1() if var == "q1" else self.partial_q2()

    def eval2(self, a, b) -> Quaternion:
        """P(a, b) = sum a^n b^m a_{n,m}; fixed power order, any points."""
        if not isinstance(a, Quaternion):
            a = Quaternion(a)
        if not isinstance(b, Quaternion):
            b = Quaternion(b)
        if self.is_zero:
            return ZERO
        bpow = [ONE]
        for _ in range(self.deg_q2):
            bpow.append(bpow[-1] * b)
        acc = ZERO
        apow = ONE
        for n, row in enumerate(self.coeffs):
            if n:
                apow = apow * a
            for m, c in enumerate(row):
                if c:
                    acc = acc + apow * bpow[m] * c
        return acc


def _flat(grid, cols: int) -> list:
    return [(n * cols + m, c) for n, row in enumerate(grid) for m, c in enumerate(row)]


def _coerce2(value) -> "Poly2 | None":
    if isinstance(value, Poly2):
        return value
    if isinstance(value, (Quaternion, int, type(_R0))):
        return Poly2.const(value)
    return None


VAR_Q1 = Poly2.monomial(1, 0)
VAR_Q2 = Poly2.monomial(0, 1)


def factor_left_linear(p: Poly2, a: Quaternion, var: str) -> "Poly2 | None":
    """Exact cofactor X with p = (var - a) * X, or None if no such factor.

    Solving the view recurrence top-down: with p = sum var^n P_n, the cofactor
    must satisfy P_n = X_{n-1} - a*X_n, so X_{N-1} = P_N descending, and the
    factorization exists iff the final consistency P_0 + a*X_0 = 0 holds.
    """
    if p.is_zero:
        return None
    views = p.coeffs_in(var)
    top = len(views) - 1
    if top < 1:
        return None
    xs: list[Poly1] = [Poly1()] * top
    xs[top - 1] = views[top]
    for n in range(top - 1, 0, -1):
        xs[n - 1] = views[n] + xs[n].scale_left(a)
    if not (views[0] + xs[0].scale_left(a)).is_zero:
        return None
    return Poly2.from_coeffs_in(xs, var)


def left_linear_multiplicity(p: Poly2, a: Quaternion, var: str) -> tuple[int, "Poly2"]:
    """Largest k with p = (var - a)^{*k} * X, together with that cofactor X.

    The zero polynomial is refused (every power would divide it).
    """
    if p.is_zero:
        raise ZeroPolynomial("multiplicity of a factor of the zero polynomial")
    count = 0
    current = p
    while True:
        nxt = factor_left_linear(current, a, var)
        if nxt is None:
            return count, current
        count += 1
        current = nxt
