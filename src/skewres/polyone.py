"""Polynomials in one central variable with quaternion coefficients.

Coefficients sit on the RIGHT of the variable powers: f = sum_n q^n * a_n.
The star product is the Cauchy convolution (the variable commutes with
everything, coefficients need not commute with each other). Evaluation
substitutes the point for the variable with powers kept on the left,
f(p) = sum_n p^n * a_n, and is NOT multiplicative in general.

Conjugation is an anti-automorphism (conj(f*g) = conj(g)*conj(f)), so the
right-handed Euclidean routines right_divmod, gcrd and lcrm are conj mirrors
of left_divmod, gcld and llcm on the conjugated inputs.

Also hosts RealPoly, the commutative subring of real-coefficient polynomials,
used wherever symmetrizations land, and the package's one elimination loop,
_eliminate with _back_substitute, on rationals, quaternions and left
fractions alike (the pivot inverse is 1 / entry). llcm and
dieudonne.kernel_vector share _right_kernel on it; dieudonne runs it for
det, cramer_solve and rank, and at points for sdet and
resultant.classical_resultant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalRealityViolation, RealArgument, ZeroPolynomial
from .quaternion import ONE, ZERO, Quaternion, Rational, Sphere, convolve, sphere_of

_R0 = Rational(0)
_R1 = Rational(1)


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly1:
    """A quaternionic polynomial in one variable, stored dense and trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([c if isinstance(c, Quaternion) else Quaternion(c) for c in coeffs])

    @staticmethod
    def const(c) -> "Poly1":
        return Poly1((c,))

    @staticmethod
    def monomial(n: int, c=ONE) -> "Poly1":
        return Poly1((ZERO,) * n + ((c if isinstance(c, Quaternion) else Quaternion(c)),))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Quaternion:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, n: int) -> Quaternion:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else ZERO

    def __repr__(self) -> str:
        return f"Poly1({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly1):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "Poly1":
        other = _coerce1(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for n, c in enumerate(b):
            out[n] = out[n] + c
        return Poly1(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly1":
        other = _coerce1(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly1":
        other = _coerce1(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "Poly1":
        return Poly1([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly1":
        """The star product: the Cauchy convolution of the coefficients.

        Runs on integer components (quaternion.convolve): each operand's
        denominators are cleared once and each output component is one
        rational, with the same values as the Quaternion product sums.
        """
        other = _coerce1(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly1()
        return Poly1(convolve(enumerate(a), enumerate(b), len(a) + len(b) - 1))

    def __rmul__(self, other) -> "Poly1":
        # Scalars from the left: ints/rationals are central, quaternions are not
        # and must go through scale_left/scale_right explicitly.
        if isinstance(other, (int, type(_R0))):
            return self.scale_left(Quaternion(other))
        return NotImplemented

    def scale_left(self, c: Quaternion) -> "Poly1":
        """c * f: multiply every coefficient by c on the left."""
        return Poly1([c * a for a in self.coeffs])

    def scale_right(self, c: Quaternion) -> "Poly1":
        """f * c: multiply every coefficient by c on the right."""
        return Poly1([a * c for a in self.coeffs])

    def star_pow(self, n: int) -> "Poly1":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly1((ONE,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "Poly1":
        """Regular conjugate: conjugate each coefficient."""
        return Poly1([c.conj() for c in self.coeffs])

    def symm(self) -> "RealPoly":
        """Symmetrization f * conj(f); always has real coefficients."""
        return (self * self.conj()).try_real()

    def try_real(self) -> "RealPoly":
        for c in self.coeffs:
            if not c.is_real():
                raise InternalRealityViolation(f"non-real coefficient {c!r}")
        return RealPoly([c.w for c in self.coeffs])

    def derivative(self) -> "Poly1":
        return Poly1([n * c for n, c in enumerate(self.coeffs)][1:])

    def eval(self, p) -> Quaternion:
        """f(p) = sum p^n a_n, point powers to the LEFT of coefficients."""
        if not isinstance(p, Quaternion):
            p = Quaternion(p)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = p * acc + c
        return acc


def _coerce1(value) -> "Poly1 | None":
    if isinstance(value, Poly1):
        return value
    if isinstance(value, Quaternion):
        return Poly1((value,))
    if isinstance(value, (int, type(_R0))):
        return Poly1((Quaternion(value),))
    if isinstance(value, RealPoly):
        return value.to_poly1()
    return None


ONE_P = Poly1((ONE,))
ZERO_P = Poly1()
VAR_Q = Poly1((ZERO, ONE))


def left_divmod(f: Poly1, g: Poly1) -> tuple[Poly1, Poly1]:
    """Quotient/remainder with the divisor on the LEFT: f = g*quot + rem."""
    if g.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    gd = g.degree
    glc_inv = g.lc.inverse()
    rem = list(f.coeffs)
    if len(rem) - 1 < gd:
        return ZERO_P, f
    quot = [ZERO] * (len(rem) - gd)
    for k in range(len(rem) - 1, gd - 1, -1):
        top = rem[k]
        if not top:
            continue
        c = glc_inv * top  # g.lc * c == top
        quot[k - gd] = c
        off = k - gd
        for t, gc in enumerate(g.coeffs):
            rem[t + off] = rem[t + off] - gc * c
    return Poly1(quot), Poly1(rem[:gd])


def right_divmod(f: Poly1, g: Poly1) -> tuple[Poly1, Poly1]:
    """Quotient/remainder with the divisor on the RIGHT: f = quot*g + rem.

    The conj mirror of left_divmod: conj is an anti-automorphism, so
    conj(f) = conj(g)*conj(quot) + conj(rem), and the remainder is unique.
    """
    quot, rem = left_divmod(f.conj(), g.conj())
    return quot.conj(), rem.conj()


def _scale_central(p: Poly1, w) -> Poly1:
    """p times a central rational, applied componentwise."""
    if w == 1:
        return p
    return Poly1([c * w for c in p.coeffs])


def _parts(quats) -> list:
    """The rational components of a sequence of quaternions, in order."""
    return [v for c in quats for v in (c.w, c.x, c.y, c.z)]


def _content_scale(values) -> "Rational":
    """The positive rational that rescales the values to coprime integers."""
    num_gcd = 0
    den_lcm = 1
    for v in values:
        if v:
            num_gcd = math.gcd(num_gcd, v.numerator)
            d = v.denominator
            den_lcm = den_lcm // math.gcd(den_lcm, d) * d
    if num_gcd == 0:
        return _R1
    return Rational(den_lcm, num_gcd)


def _primitive(p: Poly1) -> Poly1:
    """p rescaled by a central rational to coprime integer components."""
    return _scale_central(p, _content_scale(_parts(p.coeffs)))


def _pseudo_left_rem(f: Poly1, g: Poly1) -> Poly1:
    """Remainder of scale*f = g*quot + rem, divisor on the LEFT.

    scale is a power of norm_sq(g.lc), a central real, so integral inputs
    stay integral: each elimination uses conj(g.lc) * top instead of a true
    inverse. Euclidean chains strip the content afterwards, which keeps the
    classical primitive-sequence growth bound.
    """
    gd = g.degree
    if f.degree < gd:
        return f
    glc = g.lc
    nsq = glc.norm_sq()
    gconj = glc.conj()
    rem = list(f.coeffs)
    for k in range(len(rem) - 1, gd - 1, -1):
        top = rem[k]
        if not top:
            continue
        for t in range(k):
            if rem[t]:
                rem[t] = rem[t] * nsq
        c = gconj * top  # g.lc * c == nsq * top
        off = k - gd
        for t in range(gd):
            gc = g.coeffs[t]
            if gc:
                rem[t + off] = rem[t + off] - gc * c
        rem[k] = ZERO
    return Poly1(rem[:gd])


def monic_right(f: Poly1) -> Poly1:
    """Monic form via RIGHT multiplication of coefficients by lc^{-1}."""
    if f.is_zero:
        return f
    return f.scale_right(f.lc.inverse())


def gcrd(f: Poly1, g: Poly1) -> Poly1:
    """Greatest common right divisor, monic (by left scaling).

    The conj mirror of gcld: right divisors of (f, g) are the conjugates of
    the left divisors of (conj f, conj g).
    """
    if f.is_zero and g.is_zero:
        raise ZeroPolynomial("gcrd(0, 0) is undefined")
    return gcld(f.conj(), g.conj()).conj()


def gcld(f: Poly1, g: Poly1) -> Poly1:
    """Greatest common left divisor, monic (by right scaling).

    Uses the left-division chain: remainders of scale*f = g*quot + rem share
    the left divisors of (f, g); remainders are kept primitive so the chain
    stays over integer components.
    """
    if f.is_zero and g.is_zero:
        raise ZeroPolynomial("gcld(0, 0) is undefined")
    f, g = _primitive(f), _primitive(g)
    while not g.is_zero:
        f, g = g, _primitive(_pseudo_left_rem(f, g))
    return monic_right(f)


def _eliminate(work: list, ncols: int, rule) -> list[tuple[int, int]]:
    """Forward elimination over a skew field, in place; returns the pivots.

    Entries are rationals, quaternions or left fractions: a falsy zero, and
    1 / entry is the inverse. Columns are taken left to right. In each,
    rule picks the pivot among the unused rows with a nonzero entry (offered
    in their original order; rows are never swapped) and every other unused
    row is cleared with a left-multiple row addition, which keeps the right
    solutions and is invisible to the determinant class. A column with no
    candidate has no pivot. Rows longer than ncols carry their extra entries
    (a right-hand side) along.
    """
    active = list(range(len(work)))
    pivots = []
    for col in range(ncols):
        column = [(r, work[r][col]) for r in active if work[r][col]]
        if not column:
            continue
        p = rule(column)
        pinv = 1 / work[p][col]
        for r in active:
            if r == p:
                continue
            head = work[r][col]
            if not head:
                continue
            factor = head * pinv
            work[r] = [a - factor * b for a, b in zip(work[r], work[p])]
        active.remove(p)
        pivots.append((p, col))
    return pivots


def _back_substitute(work: list, pivots: list[tuple[int, int]], xs: list) -> None:
    """Solve the eliminated rows for the pivot unknowns, last pivot first.

    Pivot row p reads work[p][:n] . xs = work[p][n] for n = len(xs), with a
    zero right-hand side when the row has no entry n (taken from xs: the
    pivot unknowns are zero on entry). Free unknowns keep their values.
    """
    n = len(xs)
    for p, col in reversed(pivots):
        row = work[p]
        acc = row[n] if len(row) > n else xs[col]
        for j in range(col + 1, n):
            if row[j] and xs[j]:
                acc = acc - row[j] * xs[j]
        xs[col] = (1 / row[col]) * acc


def _first_pivot(column) -> int:
    """Pivot rule: the first candidate row. Where the pivot choice cannot
    change the result (point values, Cramer solutions, rank, kernels with
    the first free column 1), it saves weighing every candidate."""
    return column[0][0]


def _right_kernel(rows: list, ncols: int, zero, one) -> "list | None":
    """A nonzero x with sum_s rows[r][s] x_s = 0 for every row, or None.

    The shared elimination with the first candidate as pivot; the first free
    column is set to one, the later ones to zero, and back substitution fills
    in the pivot columns: the pivot columns are where the rank of the
    leading columns rises, so that vector is unique.
    """
    work = [list(r) for r in rows]
    pivots = _eliminate(work, ncols, _first_pivot)
    pivot_cols = {col for _, col in pivots}
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return None
    sol = [zero] * ncols
    sol[free] = one
    _back_substitute(work, pivots, sol)
    return sol


def llcm(b: Poly1, c: Poly1) -> tuple[Poly1, Poly1, Poly1]:
    """Least common LEFT multiple with cofactors: (m, u, v), m = u*b = v*c.

    m is monic and deg m = deg b + deg c - deg gcrd(b, c). The cofactors are
    the kernel of the constant coefficient matrix of u*b - v*c, found by the
    shared skew-field elimination over the quaternions; extended remainder
    chains would grow their cofactors much faster than the result itself.
    The kernel is one-dimensional (common left multiples of degree at most
    deg m are constant multiples of m), and m = u*b = v*c is cross-checked.
    """
    if b.is_zero or c.is_zero:
        raise ZeroPolynomial("llcm needs nonzero inputs")
    wb, wc = _content_scale(_parts(b.coeffs)), _content_scale(_parts(c.coeffs))
    bs, cs = _scale_central(b, wb), _scale_central(c, wc)
    g = gcrd(bs, cs)
    du = cs.degree - g.degree
    dv = bs.degree - g.degree
    md = bs.degree + du
    # x * M = 0 for the row vector x = (u_0..u_du, v_0..v_dv); conjugation
    # turns the left kernel into a right kernel of the conjugate transpose.
    eqns = []
    for t in range(md + 1):
        eq = []
        for s in range(du + 1):
            bc = bs.coeff(t - s) if 0 <= t - s <= bs.degree else ZERO
            eq.append(bc.conj())
        for s in range(dv + 1):
            cc = cs.coeff(t - s) if 0 <= t - s <= cs.degree else ZERO
            eq.append(-cc.conj())
        eqns.append(eq)
    kernel = _right_kernel(eqns, du + dv + 2, ZERO, ONE)
    if kernel is None:
        raise InternalRealityViolation("llcm kernel is empty")
    u = Poly1([q.conj() for q in kernel[: du + 1]])
    v = Poly1([q.conj() for q in kernel[du + 1 :]])
    m = u * bs
    if m.degree != md or (v * cs) != m:
        raise InternalRealityViolation("llcm cofactors fail the cross check")
    # the input strips fold into the cofactors: u*bs = (wb u)*b, and the
    # central wb commutes with the final monic scale
    w = m.lc.inverse()
    return (
        m.scale_left(w),
        _scale_central(u, wb).scale_left(w),
        _scale_central(v, wc).scale_left(w),
    )


def lcrm(b: Poly1, c: Poly1) -> tuple[Poly1, Poly1, Poly1]:
    """Least common RIGHT multiple with cofactors: (m, u, v), m = b*u = c*v.

    Conjugation is an anti-automorphism, so this is llcm on the conjugates.
    """
    if b.is_zero or c.is_zero:
        raise ZeroPolynomial("lcrm needs nonzero inputs")
    m, u, v = llcm(b.conj(), c.conj())
    return m.conj(), u.conj(), v.conj()


@dataclass(frozen=True)
class RootClassification:
    """Outcome of testing a sphere against a polynomial's zero set.

    kind is "spherical" (the whole sphere consists of zeros), "isolated"
    (exactly one zero on the sphere, reported in point) or "none".
    """

    kind: str
    point: "Quaternion | None" = None


def char_poly(s: Sphere) -> "RealPoly":
    """The monic real quadratic vanishing exactly on the sphere."""
    return RealPoly([s.re * s.re + s.norm_im_sq, -2 * s.re, _R1])


def classify_root_on_sphere(f: Poly1, s: Sphere) -> RootClassification:
    """Decide whether f vanishes on all of the sphere, at one point, or not.

    Works for genuine spheres only (positive imaginary norm); a real point is
    just an evaluation, not a sphere.
    """
    if s.norm_im_sq == 0:
        raise RealArgument("degenerate sphere: evaluate at the real point instead")
    chi = char_poly(s).to_poly1()
    _, rem = left_divmod(f, chi)
    b = rem.coeff(1)
    c = rem.coeff(0)
    if not b and not c:
        return RootClassification("spherical")
    if b:
        # rem(q) = q*b + c vanishes only at q0 = -c * b^{-1}.
        q0 = -(c * b.inverse())
        if sphere_of(q0) == s:
            return RootClassification("isolated", q0)
    return RootClassification("none")


class RealPoly:
    """A polynomial with rational coefficients; the commutative core ring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        lst = [c if type(c) is type(_R0) else Rational(c) for c in coeffs]
        n = len(lst)
        while n and not lst[n - 1]:
            n -= 1
        self.coeffs = tuple(lst[:n])

    @staticmethod
    def const(c) -> "RealPoly":
        return RealPoly((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, n: int):
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else _R0

    def __repr__(self) -> str:
        return f"RealPoly({[str(c) for c in self.coeffs]})"

    def __eq__(self, other) -> bool:
        if isinstance(other, RealPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "RealPoly":
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for n, c in enumerate(b):
            out[n] = out[n] + c
        return RealPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "RealPoly":
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RealPoly":
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "RealPoly":
        return RealPoly([-c for c in self.coeffs])

    def __mul__(self, other) -> "RealPoly":
        other = _coerce_real(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RealPoly()
        out = [_R0] * (len(a) + len(b) - 1)
        for n, ca in enumerate(a):
            if not ca:
                continue
            for m, cb in enumerate(b):
                out[n + m] = out[n + m] + ca * cb
        return RealPoly(out)

    __rmul__ = __mul__

    def monic(self) -> "RealPoly":
        if self.is_zero:
            return self
        inv = _R1 / self.lc
        return RealPoly([c * inv for c in self.coeffs])

    def to_poly1(self) -> Poly1:
        return Poly1([Quaternion(c) for c in self.coeffs])

    def eval(self, p):
        """Evaluate at a rational or a quaternion (real coefficients are central)."""
        if isinstance(p, Quaternion):
            acc = ZERO
            for c in reversed(self.coeffs):
                acc = p * acc + Quaternion(c)
            return acc
        acc = _R0
        for c in reversed(self.coeffs):
            acc = p * acc + c
        return acc


def _coerce_real(value) -> "RealPoly | None":
    if isinstance(value, RealPoly):
        return value
    if isinstance(value, (int, type(_R0))):
        return RealPoly((value,))
    return None


def real_divmod(f: RealPoly, g: RealPoly) -> tuple[RealPoly, RealPoly]:
    if g.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    gd = g.degree
    glc = g.lc
    rem = list(f.coeffs)
    if len(rem) - 1 < gd:
        return RealPoly(), f
    quot = [_R0] * (len(rem) - gd)
    for k in range(len(rem) - 1, gd - 1, -1):
        top = rem[k]
        if not top:
            continue
        c = top / glc
        quot[k - gd] = c
        off = k - gd
        for t, gc in enumerate(g.coeffs):
            rem[t + off] = rem[t + off] - gc * c
    return RealPoly(quot), RealPoly(rem[:gd])


def real_gcd(f: RealPoly, g: RealPoly) -> RealPoly:
    """Monic gcd over the rationals; gcd(0, 0) = 0."""
    while not g.is_zero:
        rem = real_divmod(f, g)[1]
        if not rem.is_zero:
            rem = _content_scale(rem.coeffs) * rem
        f, g = g, rem
    return f.monic()


def real_div_exact(f: RealPoly, g: RealPoly) -> RealPoly:
    quot, rem = real_divmod(f, g)
    if not rem.is_zero:
        raise ZeroPolynomial("inexact division where exact was required")
    return quot
