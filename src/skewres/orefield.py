"""Left fractions over the one-variable skew polynomial ring.

H[q] is finite over its centre Q[q], so its skew field of fractions is the
quaternion algebra over Q(q) (Ore 1933): b^{-1} = conj(b) * symm(b)^{-1}
with symm(b) = b * conj(b) real and central, so every element has the form
d^{-1} * n with a real denominator. That is the stored form: n in H[q] and d
a monic RealPoly with gcd(d, the four component polynomials of n) = 1, zero
as (0, 1). The real d with d*x polynomial form an ideal of Q[q], and the
reduction reaches its monic generator, so the form is unique and equality
and hashing are structural. Sums cross-multiply by the real lcm of the
denominators, products are (n1*n2)/(d1*d2), and the inverse is
conj(n)*d / symm(n); none of them needs a common left multiple or a gcld.

The canonical left form den^{-1} * num (den monic, gcld(den, num) = 1), which
the public attributes den and num, repr and the matrix JSON show, is a view
built on first read with one gcld and kept. Solves and certificates read only
the central form. The reduction (real_gcd, real_div_exact) and the view (gcld,
left_divmod) run on polyone's integer pseudo-division under the Fraction API.
"""

from __future__ import annotations

from .errors import DivisionByZero, InternalRealityViolation, ZeroPolynomial
from .polyone import (
    ONE_P,
    Poly1,
    RealPoly,
    ZERO_P,
    _scaled,
    gcld,
    left_divmod,
    real_div_exact,
    real_gcd,
)
from .quaternion import Quaternion, Rational

_R0 = Rational(0)
_ONE_R = RealPoly([1])


class OreFrac:
    """A fraction of H[q], stored as cden^{-1} * cnum with a real cden.

    den and num give the canonical left form den^{-1} * num of the same
    element.
    """

    __slots__ = ("cnum", "cden", "_left")

    def __init__(self, den: Poly1, num: Poly1):
        if den.is_zero:
            raise ZeroPolynomial("fraction with zero denominator")
        if den.degree == 0:
            # Constant denominators fold into the numerator directly.
            c = den.coeffs[0]
            if c != Quaternion(1):
                num = num.scale_left(c.inverse())
            self.cnum, self.cden = num, _ONE_R
        else:
            self.cnum, self.cden = _reduce(den.conj() * num, den.symm())
        self._left = None

    @staticmethod
    def _central(num: Poly1, den: RealPoly) -> "OreFrac":
        # Trusted constructor for a pair already in reduced central form.
        f = OreFrac.__new__(OreFrac)
        f.cnum = num
        f.cden = den
        f._left = None
        return f

    @staticmethod
    def from_poly(p: Poly1) -> "OreFrac":
        return OreFrac._central(p, _ONE_R)

    @staticmethod
    def from_quat(c) -> "OreFrac":
        if not isinstance(c, Quaternion):
            c = Quaternion(c)
        return OreFrac._central(Poly1((c,)), _ONE_R)

    @property
    def den(self) -> Poly1:
        return self._left_form()[0]

    @property
    def num(self) -> Poly1:
        return self._left_form()[1]

    def _left_form(self) -> tuple[Poly1, Poly1]:
        if self._left is None:
            self._left = _left_view(self.cnum, self.cden)
        return self._left

    @property
    def is_zero(self) -> bool:
        return self.cnum.is_zero

    @property
    def is_poly(self) -> bool:
        return self.cden.degree == 0

    def __repr__(self) -> str:
        return f"OreFrac(den={self.den!r}, num={self.num!r})"

    def __bool__(self) -> bool:
        return not self.cnum.is_zero

    def __eq__(self, other) -> bool:
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return self.cden == other.cden and self.cnum == other.cnum

    def __hash__(self) -> int:
        return hash((self.cnum.coeffs, self.cden.coeffs))

    def __add__(self, other) -> "OreFrac":
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        d1, d2 = self.cden, other.cden
        if d1 == d2:
            return _reduced(self.cnum + other.cnum, d1)
        g = real_gcd(d1, d2)
        u, v = real_div_exact(d2, g), real_div_exact(d1, g)
        return _reduced(self.cnum * u + other.cnum * v, d1 * u)

    __radd__ = __add__

    def __neg__(self) -> "OreFrac":
        return OreFrac._central(-self.cnum, self.cden)

    def __sub__(self, other) -> "OreFrac":
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "OreFrac":
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "OreFrac":
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO_FRAC
        # the real denominators are central
        return _reduced(self.cnum * other.cnum, self.cden * other.cden)

    def __rmul__(self, other) -> "OreFrac":
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return other * self

    def inv(self) -> "OreFrac":
        """The two-sided inverse: (d^{-1} n)^{-1} = symm(n)^{-1} conj(n) d."""
        if self.is_zero:
            raise DivisionByZero("inverse of the zero fraction")
        return _reduced(self.cnum.conj() * self.cden, self.cnum.symm())

    def __rtruediv__(self, one) -> "OreFrac":
        """1 / f, the pivot inverse of the elimination in polyone."""
        return self.inv() if one == 1 else NotImplemented

    def symm_frac(self) -> tuple[RealPoly, RealPoly]:
        """(den*conj(den), num*conj(num)): the symmetrized left-form parts."""
        return self.den.symm(), self.num.symm()


def _reduce(num, den: RealPoly):
    """num and den divided by gcd(den, the components of num), den monic.

    num is a Poly1 (four component polynomials) or a RealPoly (one), and
    keeps its class.
    """
    if num.is_zero:
        return num, _ONE_R
    if den.degree > 0:
        real = isinstance(num, RealPoly)
        parts = [num] if real else [RealPoly([getattr(c, a) for c in num.coeffs]) for a in "wxyz"]
        g = den
        for part in parts:
            g = real_gcd(g, part)
            if g.degree == 0:
                break
        if g.degree > 0:
            den = real_div_exact(den, g)
            parts = [real_div_exact(part, g) for part in parts]
            num = parts[0] if real else Poly1(
                [Quaternion(*(part.coeff(n) for part in parts)) for n in range(num.degree + 1)]
            )
    if den.lc != 1:
        w = 1 / den.lc
        num, den = _scaled(type(num), num.coeffs, w), _scaled(RealPoly, den.coeffs, w)
    return num, den


def _reduced(num: Poly1, den: RealPoly) -> OreFrac:
    return OreFrac._central(*_reduce(num, den))


def _left_view(num: Poly1, den: RealPoly) -> tuple[Poly1, Poly1]:
    """The canonical left pair of den^{-1} num: monic, no common left divisor."""
    if den.degree == 0:
        return ONE_P, num
    den = den.to_poly1()
    g = gcld(den, num)
    if g.degree > 0:
        den = _left_quot_exact(den, g)
        num = _left_quot_exact(num, g)
    if den.lc != Quaternion(1):
        u = den.lc.inverse()
        den = den.scale_left(u)
        num = num.scale_left(u)
    return den, num


def _left_quot_exact(f: Poly1, g: Poly1) -> Poly1:
    quot, rem = left_divmod(f, g)
    if not rem.is_zero:
        raise InternalRealityViolation("inexact cancellation of a common left divisor")
    return quot


def _coerce_frac(value) -> "OreFrac | None":
    if isinstance(value, OreFrac):
        return value
    if isinstance(value, Poly1):
        return OreFrac.from_poly(value)
    if isinstance(value, (Quaternion, int, type(_R0))):
        return OreFrac.from_quat(value)
    return None


ZERO_FRAC = OreFrac.from_poly(ZERO_P)
ONE_FRAC = OreFrac.from_poly(ONE_P)
