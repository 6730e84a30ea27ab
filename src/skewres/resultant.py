"""Resultants of skew polynomials in two central variables.

Eliminating one variable from a pair P, Q in H[q1, q2] yields the Dieudonne
determinant class of a Sylvester-style matrix whose entries are polynomials
in the other variable; everything downstream (Bezout certificates, kernel
cofactors, discriminants) is built on that matrix. classical_resultant, its
commutative shadow, takes the same band and the same point determinant as
sdet, with a signed determinant in place of the reduced norm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dieudonne import (
    DetClass,
    SkewMatrix,
    _point_det,
    _signed_det,
    cramer_solve,
    det,
    kernel_vector,
    poly_representative,
)
from .errors import (
    DegreeTooLow,
    InternalRealityViolation,
    NonCommutingPoint,
    SingularSystem,
    ZeroPolynomial,
)
from .orefield import ONE_FRAC, ZERO_FRAC, OreFrac
from .polyone import ZERO_P, Poly1, RealPoly, real_div_exact, real_divmod, real_gcd
from .polytwo import Poly2, factor_left_linear
from .quaternion import Quaternion


def _check_var(wrt: str) -> str:
    if wrt not in ("q1", "q2"):
        raise ValueError(f"unknown variable {wrt!r}")
    return wrt


def _other(wrt: str) -> str:
    return "q2" if wrt == "q1" else "q1"


def sylvester(p: Poly2, q: Poly2, wrt: str) -> SkewMatrix:
    """Sylvester matrix of p and q in the chosen variable.

    With n = deg_wrt(p) and m = deg_wrt(q) the matrix is (n+m) x (n+m): the
    first m columns stack the coefficient views of p shifted down one row per
    column, the last n columns do the same with q, so row k collects the
    wrt^k coefficient of p*H + q*K against the stacked coefficients of H, K.
    When one degree is zero its partner's block fills the whole band; when
    both are zero the matrix is empty.
    """
    _check_var(wrt)
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("sylvester matrix of the zero polynomial")
    return SkewMatrix(_band(p.coeffs_in(wrt), q.coeffs_in(wrt), ZERO_P))


def _band(pv: list, qv: list, zero) -> list[list]:
    """The Sylvester rows of two ascending coefficient views, zero elsewhere."""
    n = len(pv) - 1
    m = len(qv) - 1
    rows = []
    for k in range(n + m):
        row = [pv[k - j] if 0 <= k - j <= n else zero for j in range(m)]
        row += [qv[k - j] if 0 <= k - j <= m else zero for j in range(n)]
        rows.append(row)
    return rows


def sylvester_q1(p: Poly2, q: Poly2) -> SkewMatrix:
    return sylvester(p, q, "q1")


def sylvester_q2(p: Poly2, q: Poly2) -> SkewMatrix:
    return sylvester(p, q, "q2")


class ResultantReport:
    """Resultant of a pair with respect to one variable.

    det_class lives over the skew rational functions in the other variable.
    The polynomial representative is extracted on first access only: the
    class itself answers is_zero and sdet questions without elimination.
    """

    __slots__ = ("wrt", "det_class", "sylvester", "_rep", "_rep_known")

    def __init__(self, wrt: str, det_class: DetClass, matrix: SkewMatrix):
        self.wrt = wrt
        self.det_class = det_class
        self.sylvester = matrix
        self._rep = None
        self._rep_known = False

    @property
    def is_zero(self) -> bool:
        return self.det_class.is_zero

    @property
    def sdet(self) -> tuple[RealPoly, RealPoly]:
        return self.det_class.sdet

    @property
    def representative(self) -> "Poly1 | None":
        """A polynomial member of the class, in the other variable, or None."""
        if not self._rep_known:
            self._rep = poly_representative(self.det_class)
            self._rep_known = True
        return self._rep

    def __repr__(self) -> str:
        state = "zero" if self.is_zero else "nonzero"
        return f"ResultantReport(wrt={self.wrt!r}, {state}, size={self.sylvester.nrows})"


def resultant(p: Poly2, q: Poly2, wrt: str) -> ResultantReport:
    mat = sylvester(p, q, wrt)
    return ResultantReport(wrt, det(mat), mat)


@dataclass(frozen=True)
class BezoutCertificate:
    """Exact combination p*h + q*k = target with the target in one variable.

    h stays below deg_wrt(q) and k below deg_wrt(p) in the eliminated
    variable; target is a polynomial in the other variable alone (zero for
    kernel cofactors, nonzero and real for Bezout certificates).
    """

    wrt: str
    h: Poly2
    k: Poly2
    target: Poly1


def _clear_right(vec: list[OreFrac]) -> tuple[list[Poly1], RealPoly]:
    """Common right multiplier landing every fraction in H[q].

    Each fraction is stored as d^{-1}n with a real, central d, so the monic
    real lcm t of the d clears them all: d^{-1}n * t = n * (t/d).
    """
    t = RealPoly([1])
    for f in vec:
        # not real_div_exact: a wrong lcm must surface as the internal
        # fault below, not as the ZeroPolynomial of bad input
        t = t * real_divmod(f.cden, real_gcd(t, f.cden))[0]
    out = []
    for f in vec:
        quot, rem = real_divmod(t, f.cden)
        if not rem.is_zero:
            raise InternalRealityViolation("right denominator clearing failed")
        out.append(f.cnum * quot)
    return out, t


def kernel_cofactors(p: Poly2, q: Poly2, wrt: str) -> "BezoutCertificate | None":
    """Nonzero h, k with p*h + q*k = 0 when the resultant vanishes, else None.

    The Sylvester columns pair with the wrt coefficients of h then k, so a
    kernel vector of the matrix is such a pair over the skew field; right
    multiplication keeps kernel vectors in the kernel, which is what lets
    the denominators be cleared. The identity is verified exactly.
    """
    mat = sylvester(p, q, wrt)
    if not det(mat).is_zero:
        return None
    vec = kernel_vector(mat)
    if vec is None:
        raise InternalRealityViolation("zero resultant with a trivial Sylvester kernel")
    polys, _ = _clear_right(vec)
    m = q.deg(wrt)
    h = Poly2.from_coeffs_in(polys[:m], wrt)
    k = Poly2.from_coeffs_in(polys[m:], wrt)
    if h.is_zero or k.is_zero:
        raise InternalRealityViolation("kernel cofactors collapsed to zero")
    if not (p * h + q * k).is_zero:
        raise InternalRealityViolation("kernel cofactors fail the combination identity")
    return BezoutCertificate(wrt, h, k, ZERO_P)


def bezout_certificate(p: Poly2, q: Poly2, wrt: str) -> BezoutCertificate:
    """Combination p*h + q*k = target with target nonzero in one variable.

    Solves the Sylvester system against the unit vector of the constant row,
    clears the fraction solution on the right by the real lcm t of its
    denominators, then applies one more real factor so that symm(target) is
    an exact RealPoly multiple of the sdet numerator of the resultant class.
    The target is therefore real and central. Raises SingularSystem when the
    resultant vanishes and DegreeTooLow when there is nothing to eliminate.
    """
    mat = sylvester(p, q, wrt)
    size = mat.nrows
    if size == 0:
        raise DegreeTooLow("no powers of the variable to combine")
    dc = det(mat)
    if dc.is_zero:
        raise SingularSystem("resultant vanishes, the Sylvester system is singular")
    rhs = [ONE_FRAC] + [ZERO_FRAC] * (size - 1)
    xs = cramer_solve(mat, rhs)
    polys, t = _clear_right(xs)
    sdet_num, _ = dc.sdet
    # symm(t) = t^2 for a real t
    extra = real_div_exact(sdet_num, real_gcd(t * t, sdet_num))
    target = (t * extra).to_poly1()
    if target.is_zero:
        raise InternalRealityViolation("certificate target collapsed to zero")
    m = q.deg(wrt)
    h = Poly2.from_coeffs_in([c * extra for c in polys[:m]], wrt)
    k = Poly2.from_coeffs_in([c * extra for c in polys[m:]], wrt)
    if p * h + q * k != Poly2.from_poly1(target, _other(wrt)):
        raise InternalRealityViolation("certificate combination mismatch")
    if not real_divmod(target.symm(), sdet_num)[1].is_zero:
        raise InternalRealityViolation("certificate symmetrization misses the sdet factor")
    return BezoutCertificate(wrt, h, k, target)


@dataclass(frozen=True)
class CommonZeroReport:
    """Outcome of testing a commuting point against both resultants."""

    a: Quaternion
    b: Quaternion
    p_value: Quaternion
    q_value: Quaternion
    hypothesis_met: bool
    sdet_q1_at_b: "Quaternion | None"
    sdet_q2_at_a: "Quaternion | None"
    rep_q1_at_b: "Quaternion | None"
    rep_q2_at_a: "Quaternion | None"
    holds: "bool | None"


def check_common_zero(p: Poly2, q: Poly2, a, b) -> CommonZeroReport:
    """Evaluate the common-zero criterion at a commuting point (a, b).

    When P and Q both vanish there, the sdet numerator of Res(P, Q; q1) must
    vanish at b and that of Res(P, Q; q2) at a; real coefficients make those
    evaluations well defined on the whole sphere of the point. Representative
    evaluations are reported as extra information when extraction succeeds.
    """
    if not isinstance(a, Quaternion):
        a = Quaternion(a)
    if not isinstance(b, Quaternion):
        b = Quaternion(b)
    if a * b != b * a:
        raise NonCommutingPoint(f"{a!r} and {b!r} do not commute")
    pv = p.eval2(a, b)
    qv = q.eval2(a, b)
    met = not pv and not qv
    if not met:
        return CommonZeroReport(a, b, pv, qv, False, None, None, None, None, None)
    r1 = resultant(p, q, "q1")
    r2 = resultant(p, q, "q2")
    s1 = r1.sdet[0].eval(b)
    s2 = r2.sdet[0].eval(a)
    rep1 = r1.representative
    rep2 = r2.representative
    e1 = rep1.eval(b) if rep1 is not None else None
    e2 = rep2.eval(a) if rep2 is not None else None
    return CommonZeroReport(a, b, pv, qv, True, s1, s2, e1, e2, not s1 and not s2)


@dataclass(frozen=True)
class LeftFactorReport:
    """Confirmed common left linear factors and the resultants they force.

    Each entry pairs a confirmed root a with the is_zero answer of the
    matching resultant; holds is True when every confirmed factor forced
    its resultant to vanish.
    """

    q1_factors: tuple
    q2_factors: tuple
    holds: bool


def check_left_factor_criterion(
    p: Poly2, q: Poly2, q1_candidates=(), q2_candidates=()
) -> LeftFactorReport:
    """Test that common left factors (var - a) force the resultant to zero.

    Candidates are explicit points; each is kept only when division confirms
    the factor on both p and q, and the relevant resultant is computed once
    per variable.
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("factor criterion on the zero polynomial")
    found: dict[str, list] = {"q1": [], "q2": []}
    for var, candidates in (("q1", q1_candidates), ("q2", q2_candidates)):
        res_zero = None
        for a in candidates:
            if not isinstance(a, Quaternion):
                a = Quaternion(a)
            if factor_left_linear(p, a, var) is None or factor_left_linear(q, a, var) is None:
                continue
            if res_zero is None:
                res_zero = resultant(p, q, var).is_zero
            found[var].append((a, res_zero))
    holds = all(flag for pairs in found.values() for _, flag in pairs)
    return LeftFactorReport(tuple(found["q1"]), tuple(found["q2"]), holds)


def _real_views(s: Poly2, wrt: str) -> list[RealPoly]:
    return [v.try_real() for v in s.coeffs_in(wrt)]


def classical_resultant(av: list[RealPoly], bv: list[RealPoly]) -> RealPoly:
    """Ordinary commutative resultant from coefficient views (ascending):
    the band's determinant, interpolated from signed determinants at points."""
    if not av or not bv:
        raise ZeroPolynomial("classical resultant of the zero polynomial")
    return _point_det(_band(av, bv, RealPoly()), 1, _signed_det)


@dataclass(frozen=True)
class SymmetrizedResultantReport:
    """Commutative shadow of a vanishing skew resultant."""

    wrt: str
    applies: bool
    classical: "RealPoly | None"
    holds: "bool | None"


def symmetrized_resultant_criterion(p: Poly2, q: Poly2, wrt: str) -> SymmetrizedResultantReport:
    """When the skew resultant vanishes, the classical resultant of the
    symmetrizations in the same variable must vanish too."""
    rep = resultant(p, q, wrt)
    if not rep.is_zero:
        return SymmetrizedResultantReport(wrt, False, None, None)
    classical = classical_resultant(_real_views(p.symm(), wrt), _real_views(q.symm(), wrt))
    return SymmetrizedResultantReport(wrt, True, classical, classical.is_zero)


def discriminant_q1(p: Poly2) -> ResultantReport:
    """Resultant of p and its q1 partial, taken with respect to q2."""
    if p.is_zero:
        raise ZeroPolynomial("discriminant of the zero polynomial")
    if p.deg_q1 < 1:
        raise DegreeTooLow("discriminant needs positive degree in q1")
    return resultant(p, p.partial_q1(), "q2")


def discriminant_q2(p: Poly2) -> ResultantReport:
    """Resultant of p and its q2 partial, taken with respect to q1."""
    if p.is_zero:
        raise ZeroPolynomial("discriminant of the zero polynomial")
    if p.deg_q2 < 1:
        raise DegreeTooLow("discriminant needs positive degree in q2")
    return resultant(p, p.partial_q2(), "q1")
