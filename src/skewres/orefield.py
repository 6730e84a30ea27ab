"""Left fractions over the one-variable skew polynomial ring.

Every element is den^{-1} * num with den, num in the same H[q]. The stored
form is canonical: den is monic, gcld(den, num) = 1, and zero is (1, 0).
Because H[q] satisfies the left Ore condition (any two nonzero elements have
a common left multiple), addition and multiplication stay inside this shape.
"""

from __future__ import annotations

from .errors import DivisionByZero, ZeroPolynomial
from .polyone import (
    ONE_P,
    Poly1,
    RealPoly,
    ZERO_P,
    gcld,
    left_divmod,
    llcm,
)
from .quaternion import Quaternion, Rational

_R0 = Rational(0)


class OreFrac:
    """A left fraction den^{-1} * num in canonical reduced form."""

    __slots__ = ("den", "num")

    def __init__(self, den: Poly1, num: Poly1):
        if den.is_zero:
            raise ZeroPolynomial("fraction with zero denominator")
        if num.is_zero:
            self.den = ONE_P
            self.num = ZERO_P
            return
        if den.degree == 0:
            # Constant denominators fold into the numerator directly.
            c = den.coeffs[0]
            if c != Quaternion(1):
                num = num.scale_left(c.inverse())
            self.den = ONE_P
            self.num = num
            return
        g = gcld(den, num)
        if g.degree > 0:
            den = _left_quot_exact(den, g)
            num = _left_quot_exact(num, g)
        if den.lc != Quaternion(1):
            u = den.lc.inverse()
            den = den.scale_left(u)
            num = num.scale_left(u)
        self.den = den
        self.num = num

    @staticmethod
    def _raw(den: Poly1, num: Poly1) -> "OreFrac":
        # Trusted constructor for inputs already in canonical form.
        f = OreFrac.__new__(OreFrac)
        f.den = den
        f.num = num
        return f

    @staticmethod
    def from_poly(p: Poly1) -> "OreFrac":
        return OreFrac._raw(ONE_P, p)

    @staticmethod
    def from_quat(c) -> "OreFrac":
        if not isinstance(c, Quaternion):
            c = Quaternion(c)
        return OreFrac._raw(ONE_P, Poly1((c,)))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        return self.den == ONE_P

    def __repr__(self) -> str:
        return f"OreFrac(den={self.den!r}, num={self.num!r})"

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        # The canonical form is unique, so equality is structural. With
        # gcld(den, num) = 1 there are a, b with den*a + num*b = 1. For
        # x = den^{-1} num, any polynomial d with d*x = n polynomial is then
        # d = (d*a + n*b)*den: the monic den generates the left ideal of all
        # denominators of x, and num = den*x is fixed with it.
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.den.coeffs, self.num.coeffs))

    def __add__(self, other) -> "OreFrac":
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == ONE_P and other.den == ONE_P:
            return OreFrac.from_poly(self.num + other.num)
        m, u, v = llcm(self.den, other.den)
        return OreFrac(m, u * self.num + v * other.num)

    __radd__ = __add__

    def __neg__(self) -> "OreFrac":
        return OreFrac._raw(self.den, -self.num)

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
        # (a^{-1} b) * (c^{-1} d) = (u*a)^{-1} (v*d) where u*b = v*c.
        if other.den == ONE_P:
            return OreFrac(self.den, self.num * other.num)
        m, u, v = llcm(self.num, other.den)
        return OreFrac(u * self.den, v * other.num)

    def __rmul__(self, other) -> "OreFrac":
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return other * self

    def inv(self) -> "OreFrac":
        """The two-sided inverse: (a^{-1} b)^{-1} = b^{-1} a."""
        if self.is_zero:
            raise DivisionByZero("inverse of the zero fraction")
        return OreFrac(self.num, self.den)

    def symm_frac(self) -> tuple[RealPoly, RealPoly]:
        """(den*conj(den), num*conj(num)): the symmetrized fraction parts."""
        return self.den.symm(), self.num.symm()


def _left_quot_exact(f: Poly1, g: Poly1) -> Poly1:
    quot, rem = left_divmod(f, g)
    if not rem.is_zero:
        raise ZeroPolynomial("inexact cancellation of a common left divisor")
    return quot


def _coerce_frac(value) -> "OreFrac | None":
    if isinstance(value, OreFrac):
        return value
    if isinstance(value, Poly1):
        return OreFrac.from_poly(value)
    if isinstance(value, Quaternion):
        return OreFrac.from_quat(value)
    if isinstance(value, (int, type(_R0))):
        return OreFrac.from_quat(Quaternion(value))
    return None


ZERO_FRAC = OreFrac.from_poly(ZERO_P)
ONE_FRAC = OreFrac.from_poly(ONE_P)
