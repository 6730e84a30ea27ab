"""Exact quaternion arithmetic over the rationals.

Components are exact rationals (fractions.Fraction, behind the ``Rational``
alias). Values are treated as immutable: nothing in this package mutates a
Quaternion after construction, and hashing relies on that.

Products follow the Hamilton table with i*j = k, j*k = i, k*i = j.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rational

from ._record import Record
from .errors import DivisionByZero, InvalidInput, NotRationallyNormalizable, RealArgument

_R0 = Rational(0)
_R1 = Rational(1)


def rational_sqrt(value) -> "Rational | None":
    """Exact nonnegative square root of a rational, or None if irrational."""
    if value < 0:
        return None
    num = value.numerator
    den = value.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Rational(rn, rd)


def _mk(w, x, y, z) -> "Quaternion":
    # Fast path: components are already Rational (arithmetic is closed).
    q = Quaternion.__new__(Quaternion)
    q.w = w
    q.x = x
    q.y = y
    q.z = z
    return q


class Quaternion:
    """A quaternion w + x*i + y*j + z*k with exact rational components."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w = Rational(w)
        self.x = Rational(x)
        self.y = Rational(y)
        self.z = Rational(z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w}, {self.x}, {self.y}, {self.z})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Quaternion):
            return (
                self.w == other.w
                and self.x == other.x
                and self.y == other.y
                and self.z == other.z
            )
        if isinstance(other, (int, type(_R0))):
            return self.x == 0 and self.y == 0 and self.z == 0 and self.w == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.w, self.x, self.y, self.z))

    def __bool__(self) -> bool:
        return bool(self.w or self.x or self.y or self.z)

    def __add__(self, other) -> "Quaternion":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _mk(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other) -> "Quaternion":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _mk(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __rsub__(self, other) -> "Quaternion":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Quaternion":
        return _mk(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            aw, ax, ay, az = self.w, self.x, self.y, self.z
            bw, bx, by, bz = other.w, other.x, other.y, other.z
            return _mk(
                aw * bw - ax * bx - ay * by - az * bz,
                aw * bx + ax * bw + ay * bz - az * by,
                aw * by - ax * bz + ay * bw + az * bx,
                aw * bz + ax * by - ay * bx + az * bw,
            )
        if isinstance(other, (int, type(_R0))):
            return _mk(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other) -> "Quaternion":
        # Only scalars reach here, and scalars are central.
        if isinstance(other, (int, type(_R0))):
            return _mk(self.w * other, self.x * other, self.y * other, self.z * other)
        return NotImplemented

    def conj(self) -> "Quaternion":
        return _mk(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        """Squared Euclidean norm; rational and multiplicative."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if not n:
            raise DivisionByZero("zero quaternion has no inverse")
        return _mk(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def __rtruediv__(self, one) -> "Quaternion":
        """1 / q, the pivot inverse of the elimination in polyone."""
        return self.inverse() if one == 1 else NotImplemented

    def is_real(self) -> bool:
        return not (self.x or self.y or self.z)

    def imag_norm_sq(self):
        return self.x * self.x + self.y * self.y + self.z * self.z

    def is_imaginary_unit(self) -> bool:
        """True when the square is -1: zero real part and unit imaginary norm."""
        return (not self.w) and self.imag_norm_sq() == 1


def _cleared(items) -> tuple[int, list]:
    """The common denominator of the nonzero (index, quaternion) items, and
    each as (index, w, x, y, z) with the components scaled to integers."""
    items = [(i, c) for i, c in items if c]
    den = 1
    for _, c in items:
        den = math.lcm(den, c.w.denominator, c.x.denominator, c.y.denominator, c.z.denominator)
    return den, [
        (i, *(v.numerator * (den // v.denominator) for v in (c.w, c.x, c.y, c.z)))
        for i, c in items
    ]


def convolve(a, b, size: int) -> list:
    """out[i + j] = sum of a_i * b_j, for (index, quaternion) pairs a and b.

    Each operand is cleared to integer components once, the Hamilton
    products accumulate on ints, and each output component becomes one
    rational at the end; the values equal the Quaternion product sums.
    """
    da, ia = _cleared(a)
    db, ib = _cleared(b)
    acc = [[0, 0, 0, 0] for _ in range(size)]
    for i, aw, ax, ay, az in ia:
        for j, bw, bx, by, bz in ib:
            o = acc[i + j]
            o[0] += aw * bw - ax * bx - ay * by - az * bz
            o[1] += aw * bx + ax * bw + ay * bz - az * by
            o[2] += aw * by - ax * bz + ay * bw + az * bx
            o[3] += aw * bz + ax * by - ay * bx + az * bw
    den = da * db
    if den == 1:
        return [_mk(*(Rational(v) for v in o)) for o in acc]
    return [_mk(*(Rational(v, den) for v in o)) for o in acc]


def _coerce(value) -> "Quaternion | None":
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, type(_R0))):
        return _mk(Rational(value), _R0, _R0, _R0)
    return None


ZERO = Quaternion(0)
ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


def commutes(a: Quaternion, b: Quaternion) -> bool:
    """True iff ab = ba, i.e. the imaginary parts are parallel."""
    return (
        a.y * b.z == a.z * b.y
        and a.z * b.x == a.x * b.z
        and a.x * b.y == a.y * b.x
    )


class Sphere(Record):
    """A conjugacy sphere, stored rationally as (real part, |imaginary part|^2).

    All quaternions x + I*y with I^2 = -1 and fixed (x, y^2) form one sphere;
    norm_im_sq = 0 degenerates to a real point.
    """

    __slots__ = ("re", "norm_im_sq")

    def __init__(self, re, norm_im_sq):
        super().__init__(Rational(re), Rational(norm_im_sq))
        if self.norm_im_sq < 0:
            raise InvalidInput("norm_im_sq must be nonnegative")

    def is_real_point(self) -> bool:
        return self.norm_im_sq == 0

    def contains(self, a: Quaternion) -> bool:
        return a.w == self.re and a.imag_norm_sq() == self.norm_im_sq


def sphere_of(a: Quaternion) -> Sphere:
    """The conjugacy sphere through a (a single point when a is real)."""
    return Sphere(a.w, a.imag_norm_sq())


def imaginary_unit_of(a: Quaternion) -> Quaternion:
    """Im(a)/|Im(a)|, when that normalization stays rational.

    Raises RealArgument for real a and NotRationallyNormalizable when |Im(a)|
    is irrational (e.g. a = 1 + i + j).
    """
    n2 = a.imag_norm_sq()
    if not n2:
        raise RealArgument("real quaternion has no imaginary unit")
    root = rational_sqrt(n2)
    if root is None:
        raise NotRationallyNormalizable(f"|Im(a)|^2 = {n2} is not a rational square")
    return _mk(_R0, a.x / root, a.y / root, a.z / root)
