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
used wherever symmetrizations land. Poly1 and RealPoly are siblings on one
base, _DensePoly, which owns their shared plumbing (degree, lc, ==, hash, +,
-, star_pow). Each job runs once. One integer pseudo-division,
_pseudo_divmod, runs under the Fraction API on operands cleared once to
coprime integer components and scaled back once: through _divmod it serves
left_divmod, real_divmod and real_div_exact, as the primitive remainder
chain real_gcd and gcld (so gcrd and llcm). One power loop, _power, serves
every star_pow (Poly2's too), and one elimination loop, _eliminate with
_back_substitute, runs on rationals, quaternions and left fractions alike
(the pivot inverse is 1 / entry). llcm and dieudonne.kernel_vector share
_right_kernel on it; dieudonne runs it for det, cramer_solve and rank, and
at points for sdet and resultant.classical_resultant.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import InternalRealityViolation, InvalidInput, RealArgument, ZeroPolynomial
from .quaternion import ONE, ZERO, Quaternion, Rational, Sphere, _mk, convolve, sphere_of

_R0 = Rational(0)
_R1 = Rational(1)


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _power(base, n: int, one):
    """base^n by binary powering from one: the loop of every star_pow."""
    if n < 0:
        raise InvalidInput("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class _DensePoly:
    """What Poly1 and RealPoly share: a trimmed tuple of coefficients.

    Each subclass sets its coefficient zero _zero and its operand coercion
    _coerce, and keeps its own constructor, repr and product. Equality holds
    within one class only, so a Poly1 never equals a RealPoly.
    """

    __slots__ = ("coeffs",)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
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
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else self._zero

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for n, c in enumerate(b):
            out[n] = out[n] + c
        return type(self)(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def star_pow(self, n: int):
        return _power(self, n, self.const(1))

    @staticmethod
    def _split(coeffs):
        """The coefficients' components in order (a rational is its own)."""
        return coeffs

    _join = _split


class Poly1(_DensePoly):
    """A quaternionic polynomial in one variable, stored dense and trimmed."""

    __slots__ = ()
    _zero = ZERO

    def __init__(self, coeffs=()):
        self.coeffs = _trim([c if isinstance(c, Quaternion) else Quaternion(c) for c in coeffs])

    @staticmethod
    def _coerce(value) -> "Poly1 | None":
        if isinstance(value, Poly1):
            return value
        if isinstance(value, (Quaternion, int, type(_R0))):
            return Poly1((value,))
        if isinstance(value, RealPoly):
            return value.to_poly1()
        return None

    @staticmethod
    def monomial(n: int, c=ONE) -> "Poly1":
        return Poly1((ZERO,) * n + ((c if isinstance(c, Quaternion) else Quaternion(c)),))

    @staticmethod
    def _split(coeffs) -> list:
        return [v for c in coeffs for v in (c.w, c.x, c.y, c.z)]

    @staticmethod
    def _join(flat) -> list:
        return [_mk(*flat[i : i + 4]) for i in range(0, len(flat), 4)]

    @staticmethod
    def _int_step(a: Quaternion, top: Quaternion) -> tuple:
        # a * conj(a) = |a|^2 is central: c = conj(a)*top and m = |a|^2,
        # both over the gcd of m and the components of c
        c = a.conj() * top
        m = a.norm_sq()
        g = math.gcd(m, c.w, c.x, c.y, c.z)
        return (m, c) if g == 1 else (m // g, _mk(c.w // g, c.x // g, c.y // g, c.z // g))

    def __repr__(self) -> str:
        return f"Poly1({list(self.coeffs)!r})"

    def __mul__(self, other) -> "Poly1":
        """The star product: the Cauchy convolution of the coefficients.

        Runs on integer components (quaternion.convolve): each operand's
        denominators are cleared once and each output component is one
        rational, with the same values as the Quaternion product sums.
        """
        other = self._coerce(other)
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


ONE_P = Poly1((ONE,))
ZERO_P = Poly1()
VAR_Q = Poly1((ZERO, ONE))


def _to_ints(ring, coeffs) -> tuple:
    """Rational or integer coefficients as (c, P): c * P, c > 0 rational, P on
    coprime integer components; ints for a RealPoly, Quaternions with int
    components for a Poly1 (the Hamilton product is the same on any numbers).
    """
    flat = ring._split(coeffs)
    den = math.lcm(*[v.denominator for v in flat])
    flat = [v.numerator * (den // v.denominator) for v in flat]
    g = math.gcd(*flat)
    return Rational(g, den), ring._join([v // g for v in flat])


def _scaled(ring, coeffs, w):
    """The ring's polynomial with coefficients coeffs * w, for integer or
    rational coefficients (see _to_ints) and a rational w."""
    n, d = w.numerator, w.denominator
    return ring(ring._join([Rational(n * v, d) for v in ring._split(coeffs)]))


def _pseudo_divmod(F, G, step, exact=False) -> tuple[list, list, int]:
    """s*F = G*Q + R with deg R < deg G, divisor on the LEFT, on integer
    coefficients (G nonzero): returns (Q, R, s).

    step(a, top) gives the least int m > 0, with c, such that a*c == m*top;
    the remainder is scaled by m, q^off * G*c subtracted, and s is the
    product of the m. With exact, m > 1 is a fault: a primitive G dividing F
    over the rationals divides it over the integers (Gauss's lemma).
    """
    gd = len(G) - 1
    a = G[-1]
    rem = list(F)
    steps = []  # (c, s after its step), top degree first
    s = 1
    for off in range(len(rem) - 1 - gd, -1, -1):
        c = rem.pop()
        if c:
            m, c = step(a, c)
            if m != 1:
                if exact:
                    raise InternalRealityViolation("exact division met a lead it does not divide")
                s *= m
                rem = [r * m for r in rem]
            for t in range(gd):
                if G[t]:
                    rem[off + t] = rem[off + t] - G[t] * c
        steps.append((c, s))
    # a quotient term found at scale sc stands for c / sc
    return [c * (s // sc) for c, sc in reversed(steps)], rem, s


def _divmod(f, g, exact=False):
    """f = g*quot + rem in the ring of f, divisor on the LEFT, deg rem < deg g:
    the pseudo-division of the integer parts, scaled back once."""
    if g.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    ring = type(f)
    (cf, F), (cg, G) = _to_ints(ring, f.coeffs), _to_ints(ring, g.coeffs)
    Q, R, s = _pseudo_divmod(F, G, ring._int_step, exact)
    return _scaled(ring, Q, cf / (cg * s)), _scaled(ring, R, cf / s)


def _remainder_chain(f, g) -> list:
    """The last term of the primitive remainder sequence (Collins 1967) of
    the integer parts of f and g, divisor on the LEFT; [] for two zeros.
    s*F = G*Q + R with s central, so (F, G), (G, R) and (G, R / content)
    share their left divisors; a constant term ends the chain."""
    ring = type(f)
    F, G = _to_ints(ring, f.coeffs)[1], _to_ints(ring, g.coeffs)[1]
    if len(F) < len(G):
        F, G = G, F  # the first remainder would be F itself
    while len(G) > 1:
        F, G = G, _to_ints(ring, _trim(_pseudo_divmod(F, G, ring._int_step)[1]))[1]
    return G or F


def left_divmod(f: Poly1, g: Poly1) -> tuple[Poly1, Poly1]:
    """Quotient/remainder with the divisor on the LEFT: f = g*quot + rem."""
    return _divmod(f, g)


def right_divmod(f: Poly1, g: Poly1) -> tuple[Poly1, Poly1]:
    """Quotient/remainder with the divisor on the RIGHT: f = quot*g + rem.

    The conj mirror of left_divmod: conj is an anti-automorphism, so
    conj(f) = conj(g)*conj(quot) + conj(rem), and the remainder is unique.
    """
    quot, rem = left_divmod(f.conj(), g.conj())
    return quot.conj(), rem.conj()


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
    """Greatest common left divisor, monic (by right scaling): the last term
    F of the integer remainder chain times conj(a) / |a|^2, a = lc(F)."""
    if f.is_zero and g.is_zero:
        raise ZeroPolynomial("gcld(0, 0) is undefined")
    F = _remainder_chain(f, g)
    a = F[-1]
    return _scaled(Poly1, [c * a.conj() for c in F], Rational(1, a.norm_sq()))


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
    (cb, ib), (cc, ic) = _to_ints(Poly1, b.coeffs), _to_ints(Poly1, c.coeffs)
    bs, cs = _scaled(Poly1, ib, _R1), _scaled(Poly1, ic, _R1)
    wb, wc = 1 / cb, 1 / cc
    g = gcrd(bs, cs)
    du = cs.degree - g.degree
    dv = bs.degree - g.degree
    md = bs.degree + du
    # x * M = 0 for the row vector x = (u_0..u_du, v_0..v_dv); conjugation
    # turns the left kernel into a right kernel of the conjugate transpose.
    eqns = []
    for t in range(md + 1):
        eqns.append(
            [bs.coeff(t - s).conj() for s in range(du + 1)]
            + [-cs.coeff(t - s).conj() for s in range(dv + 1)]
        )
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
    return m.scale_left(w), u.scale_left(w * wb), v.scale_left(w * wc)


def lcrm(b: Poly1, c: Poly1) -> tuple[Poly1, Poly1, Poly1]:
    """Least common RIGHT multiple with cofactors: (m, u, v), m = b*u = c*v.

    Conjugation is an anti-automorphism, so this is llcm on the conjugates.
    """
    if b.is_zero or c.is_zero:
        raise ZeroPolynomial("lcrm needs nonzero inputs")
    m, u, v = llcm(b.conj(), c.conj())
    return m.conj(), u.conj(), v.conj()


class RootClassification(Record):
    """Outcome of testing a sphere against a polynomial's zero set.

    kind is "spherical" (the whole sphere consists of zeros), "isolated"
    (exactly one zero on the sphere, reported in point) or "none".
    """

    __slots__ = ("kind", "point")

    def __init__(self, kind: str, point: "Quaternion | None" = None):
        super().__init__(kind, point)


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


class RealPoly(_DensePoly):
    """A polynomial with rational coefficients; the commutative core ring."""

    __slots__ = ()
    _zero = _R0

    def __init__(self, coeffs=()):
        self.coeffs = _trim([c if type(c) is type(_R0) else Rational(c) for c in coeffs])

    @staticmethod
    def _coerce(value) -> "RealPoly | None":
        if isinstance(value, RealPoly):
            return value
        if isinstance(value, (int, type(_R0))):
            return RealPoly((value,))
        return None

    @staticmethod
    def _int_step(a: int, top: int) -> tuple:
        g = math.gcd(a, top)
        return abs(a) // g, (top if a > 0 else -top) // g

    def __repr__(self) -> str:
        return f"RealPoly({[str(c) for c in self.coeffs]})"

    def __mul__(self, other) -> "RealPoly":
        other = self._coerce(other)
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

    def to_poly1(self) -> Poly1:
        return Poly1([Quaternion(c) for c in self.coeffs])

    def eval(self, p):
        """Evaluate at a rational or a quaternion (real coefficients are central)."""
        if isinstance(p, Quaternion):
            return self.to_poly1().eval(p)
        acc = _R0
        for c in reversed(self.coeffs):
            acc = p * acc + c
        return acc


def real_divmod(f: RealPoly, g: RealPoly) -> tuple[RealPoly, RealPoly]:
    """Quotient/remainder over the rationals: f = g*quot + rem."""
    return _divmod(f, g)


def real_gcd(f: RealPoly, g: RealPoly) -> RealPoly:
    """Monic gcd over the rationals, by the integer remainder chain;
    gcd(0, 0) = 0."""
    F = _remainder_chain(f, g)
    return _scaled(RealPoly, F, Rational(1, F[-1])) if F else RealPoly()


def real_div_exact(f: RealPoly, g: RealPoly) -> RealPoly:
    """f / g for a g that divides f, on the primitive integer parts; a step
    the leading coefficient does not divide or a remainder is a fault."""
    quot, rem = _divmod(f, g, exact=True)
    if not rem.is_zero:
        raise InternalRealityViolation("exact real division left a nonzero remainder")
    return quot
