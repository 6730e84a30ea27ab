"""Determinant classes for matrices over the skew fraction field.

The determinant of a square matrix over a skew field lives in the
abelianized multiplicative group (plus zero): commutators and, in
particular, signs are invisible, so the computable invariants are
zero-ness and the symmetrized determinant sdet, a reduced fraction of
real polynomials obtained by symmetrizing any representative.

Elimination uses only the two class-safe row operations: adding a left
multiple of another row (invisible to the class) and extracting a pivot
(which contributes its class as a left factor). The forward elimination
_eliminate and its _back_substitute live in polyone, where they also serve
llcm over the quaternions; here they serve the determinant representative,
Cramer solves, rank and kernels. One fraction-free Bareiss loop, _bareiss,
serves the symmetrized determinant here and the classical resultant in
resultant.py.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalRealityViolation,
    NonSquare,
    SingularSystem,
)
from .orefield import ONE_FRAC, OreFrac, ZERO_FRAC, _coerce_frac
from .polyone import (
    ONE_P,
    Poly1,
    RealPoly,
    ZERO_P,
    _back_substitute,
    _eliminate,
    left_divmod,
    real_div_exact,
    real_gcd,
    right_divmod,
)
from .quaternion import Rational


class SkewMatrix:
    """A rectangular matrix with fraction entries, stored immutably."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, entries):
        rows = []
        width = None
        for raw in entries:
            row = []
            for value in raw:
                frac = _coerce_frac(value)
                if frac is None:
                    raise TypeError(f"matrix entry {value!r} is not a fraction")
                row.append(frac)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionMismatch("ragged rows")
            rows.append(tuple(row))
        self.entries = tuple(rows)
        self.nrows = len(rows)
        self.ncols = width if rows else 0

    @staticmethod
    def identity(n: int) -> "SkewMatrix":
        return SkewMatrix(
            [[ONE_FRAC if i == j else ZERO_FRAC for j in range(n)] for i in range(n)]
        )

    def entry(self, i: int, j: int) -> OreFrac:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexOutOfRange(f"entry ({i}, {j}) outside {self.nrows}x{self.ncols}")
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if isinstance(other, SkewMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"SkewMatrix({self.nrows}x{self.ncols})"

    def __mul__(self, other) -> "SkewMatrix":
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = ZERO_FRAC
                for l in range(self.ncols):
                    acc = acc + self.entries[i][l] * other.entries[l][j]
                row.append(acc)
            out.append(row)
        return SkewMatrix(out)

    def row_added(self, r: int, s: int, lam: OreFrac) -> "SkewMatrix":
        """Row operation: row r += lam * row s (left multiple)."""
        self._check_rows(r, s)
        rows = [list(row) for row in self.entries]
        rows[r] = [a + lam * b for a, b in zip(rows[r], rows[s])]
        return SkewMatrix(rows)

    def row_scaled(self, r: int, lam: OreFrac) -> "SkewMatrix":
        """Row operation: row r = lam * row r."""
        if not 0 <= r < self.nrows:
            raise IndexOutOfRange(f"row {r} outside {self.nrows}x{self.ncols}")
        rows = [list(row) for row in self.entries]
        rows[r] = [lam * a for a in rows[r]]
        return SkewMatrix(rows)

    def _check_rows(self, r: int, s: int):
        if not (0 <= r < self.nrows and 0 <= s < self.nrows):
            raise IndexOutOfRange(f"rows ({r}, {s}) outside {self.nrows}x{self.ncols}")
        if r == s:
            raise IndexOutOfRange("row operation needs two distinct rows")


def _frac_weight(f: OreFrac) -> int:
    return f.num.degree + f.den.degree


def _min_degree_pivot(column) -> int:
    """Default pivot rule: minimal deg(num)+deg(den), ties to the lowest row.

    column is a list of (row_index, fraction) with nonzero fractions.
    """
    best_row, best_weight = None, None
    for row, frac in column:
        w = _frac_weight(frac)
        if best_weight is None or w < best_weight:
            best_row, best_weight = row, w
    return best_row


class DetClass:
    """Determinant value in the abelianization: a representative plus the
    class-invariant data (zero-ness and the symmetrized determinant).

    The representative may be deferred: the symmetrized determinant is much
    cheaper to obtain than an explicit class member, so fast paths hand over
    a thunk that is only run (once) if rep is actually read.
    """

    __slots__ = ("sdet_num", "sdet_den", "_rep", "_rep_thunk")

    def __init__(self, rep, sdet_num: RealPoly, sdet_den: RealPoly, rep_thunk=None):
        if rep is None and rep_thunk is None:
            raise ValueError("DetClass needs a representative or a thunk")
        self._rep = rep
        self._rep_thunk = rep_thunk
        self.sdet_num = sdet_num
        self.sdet_den = sdet_den

    @property
    def rep(self) -> OreFrac:
        if self._rep is None:
            self._rep = self._rep_thunk()
        return self._rep

    @property
    def is_zero(self) -> bool:
        # symmetrization kills no nonzero class, so sdet carries zero-ness
        return self.sdet_num.is_zero

    @property
    def sdet(self) -> tuple[RealPoly, RealPoly]:
        return self.sdet_num, self.sdet_den

    def __repr__(self) -> str:
        if self._rep is None:
            return f"DetClass(sdet={self.sdet_num!r}/{self.sdet_den!r}, rep deferred)"
        return f"DetClass({self._rep!r})"


def reduce_real_pair(num: RealPoly, den: RealPoly) -> tuple[RealPoly, RealPoly]:
    """Canonical form of a real fraction: coprime, monic denominator."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator in a real fraction")
    if num.is_zero:
        return RealPoly(), RealPoly([1])
    g = real_gcd(num, den)
    if g.degree > 0:
        num = real_div_exact(num, g)
        den = real_div_exact(den, g)
    lc = den.lc
    if lc != 1:
        inv = Rational(1) / lc
        num = RealPoly([c * inv for c in num.coeffs])
        den = RealPoly([c * inv for c in den.coeffs])
    return num, den


def det_class_of(rep: OreFrac) -> DetClass:
    den_s, num_s = rep.symm_frac()
    num, den = reduce_real_pair(num_s, den_s)
    return DetClass(rep, num, den)


ZERO_DET = det_class_of(ZERO_FRAC)


# Complex polynomials, stored as tuples of (re, im) rational pairs, back the
# fast symmetrized determinant: the 2x2 complex image of a quaternion extends
# coefficient-wise to polynomials (the variable is central), and the classical
# determinant of the 2n x 2n image equals sdet. Both maps are multiplicative
# and they agree on diagonal matrices and transvections, which generate.

_R0 = Rational(0)


def _cp_trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1][0] == 0 and coeffs[n - 1][1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _cp_sub(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    out = []
    for t in range(n):
        ar, ai = a[t] if t < len(a) else (_R0, _R0)
        br, bi = b[t] if t < len(b) else (_R0, _R0)
        out.append((ar - br, ai - bi))
    return _cp_trim(out)


def _cp_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [[_R0, _R0] for _ in range(len(a) + len(b) - 1)]
    for s, (ar, ai) in enumerate(a):
        if ar == 0 and ai == 0:
            continue
        for t, (br, bi) in enumerate(b):
            cell = out[s + t]
            cell[0] += ar * br - ai * bi
            cell[1] += ar * bi + ai * br
    return _cp_trim([tuple(c) for c in out])


def _cp_div_exact(a: tuple, b: tuple) -> tuple:
    """Quotient of complex polynomials that is known to divide evenly."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    br, bi = b[-1]
    nsq = br * br + bi * bi
    lr, li = br / nsq, -bi / nsq
    rem = list(a)
    out = [(_R0, _R0)] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        tr, ti = rem[shift + len(b) - 1]
        if tr == 0 and ti == 0:
            continue
        cr, ci = tr * lr - ti * li, tr * li + ti * lr
        out[shift] = (cr, ci)
        for t, (pr, pi) in enumerate(b):
            rr, ri = rem[shift + t]
            rem[shift + t] = (rr - (cr * pr - ci * pi), ri - (cr * pi + ci * pr))
    if any(r != 0 or i != 0 for r, i in rem):
        raise InternalRealityViolation("inexact division in the Bareiss ladder")
    return _cp_trim(out)


def _phi_blocks(poly: Poly1) -> tuple:
    """The 2x2 complex-polynomial image of a quaternion polynomial."""
    alpha = _cp_trim([(c.w, c.x) for c in poly.coeffs])
    beta = _cp_trim([(c.y, c.z) for c in poly.coeffs])
    alpha_c = tuple((r, -i) for r, i in alpha)
    beta_neg_c = tuple((-r, i) for r, i in beta)
    return alpha, beta, beta_neg_c, alpha_c


def _bareiss(mat: list, mul, sub, div_exact) -> tuple:
    """Fraction-free elimination (Bareiss 1968) of a nonempty square matrix
    over a commutative domain whose zero is falsy; works in place.

    Returns (sign, last) with determinant sign * last; last is the zero
    element when a column has no pivot.
    """
    size = len(mat)
    sign = 1
    prev = None
    for k in range(size - 1):
        if not mat[k][k]:
            swap = next((r for r in range(k + 1, size) if mat[r][k]), None)
            if swap is None:
                return sign, mat[k][k]
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot = mat[k][k]
        for i in range(k + 1, size):
            head = mat[i][k]
            row = mat[i]
            for j in range(k + 1, size):
                term = sub(mul(pivot, row[j]), mul(head, mat[k][j]))
                row[j] = term if prev is None else div_exact(term, prev)
        prev = pivot
    return sign, mat[size - 1][size - 1]


def _phi_sdet(rows: list[list[Poly1]]) -> RealPoly:
    """sdet of a polynomial-entry matrix via Bareiss on the complex image."""
    n = len(rows)
    if n == 0:
        return RealPoly([1])
    size = 2 * n
    mat = [[() for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for j in range(n):
            a, b, c, d = _phi_blocks(rows[i][j])
            mat[2 * i][2 * j] = a
            mat[2 * i][2 * j + 1] = b
            mat[2 * i + 1][2 * j] = c
            mat[2 * i + 1][2 * j + 1] = d
    sign, final = _bareiss(mat, _cp_mul, _cp_sub, _cp_div_exact)
    if any(i != 0 for _, i in final):
        raise InternalRealityViolation("complex-image determinant is not real")
    coeffs = [sign * r for r, _ in final]
    if coeffs and coeffs[-1] < 0:
        raise InternalRealityViolation("symmetrized determinant with negative lead")
    return RealPoly(coeffs)


def _eliminate_rep(matrix: SkewMatrix, rule) -> OreFrac:
    """A class representative: the product of the pivots in column order.

    Extracting a pivot contributes its class as a left factor; a column with
    no pivot means the zero class.
    """
    work = [list(row) for row in matrix.entries]
    pivots = _eliminate(work, matrix.ncols, rule)
    if len(pivots) < matrix.nrows:
        return ZERO_FRAC
    rep = ONE_FRAC
    for p, col in pivots:
        rep = rep * work[p][col]
    return rep


def det(matrix: SkewMatrix, pivot_rule=None) -> DetClass:
    """Dieudonne determinant class.

    pivot_rule, when given, maps a nonzero (row, entry) list to a row index;
    the class does not depend on the choice. For matrices with polynomial
    entries and the default rule, sdet comes from the complex image and the
    representative is deferred until read (and checked against sdet then).
    """
    if matrix.nrows != matrix.ncols:
        raise NonSquare(f"determinant of a {matrix.nrows}x{matrix.ncols} matrix")
    if pivot_rule is None and all(
        e.den == ONE_P for row in matrix.entries for e in row
    ):
        sdet_num = _phi_sdet([[e.num for e in row] for row in matrix.entries])
        sdet_den = RealPoly([1])

        def rep_thunk() -> OreFrac:
            rep = _eliminate_rep(matrix, _min_degree_pivot)
            den_s, num_s = rep.symm_frac()
            if reduce_real_pair(num_s, den_s) != (sdet_num, sdet_den):
                raise InternalRealityViolation(
                    "elimination representative disagrees with the complex image"
                )
            return rep

        return DetClass(None, sdet_num, sdet_den, rep_thunk=rep_thunk)
    rep = _eliminate_rep(matrix, pivot_rule or _min_degree_pivot)
    return det_class_of(rep)


def det2(a, b, c, d) -> DetClass:
    """Determinant class of [[a, b], [c, d]] by the closed two-case formula."""
    a, b, c, d = (_coerce_frac(v) for v in (a, b, c, d))
    if not a.is_zero:
        rep = a * d - a * c * a.inv() * b
    else:
        rep = b * c
    return det_class_of(rep)


def sdets_equal(x: DetClass, y: DetClass) -> bool:
    return x.is_zero == y.is_zero and x.sdet_num == y.sdet_num and x.sdet_den == y.sdet_den


def row_ops_check(matrix: SkewMatrix, lam: OreFrac, r: int, s: int) -> bool:
    """Verify the two row-operation laws on a concrete matrix.

    Adding lam * row s to row r must not move the class; scaling row r by lam
    must multiply sdet by the symmetrization of lam (and zero the class iff
    lam is zero or the class was zero already).
    """
    base = det(matrix)
    added = det(matrix.row_added(r, s, lam))
    if not sdets_equal(base, added):
        return False
    scaled = det(matrix.row_scaled(r, lam))
    lam_den_s, lam_num_s = lam.symm_frac()
    want_num, want_den = reduce_real_pair(
        base.sdet_num * lam_num_s, base.sdet_den * lam_den_s
    )
    if scaled.is_zero != (base.is_zero or lam.is_zero):
        return False
    return scaled.sdet_num == want_num and scaled.sdet_den == want_den


def poly_representative(dc: DetClass) -> "Poly1 | None":
    """A polynomial member of the determinant class, when division finds one.

    With rep = d^{-1} n: if n = p * d exactly then d^{-1} n = p * (p^{-1}
    d^{-1} p d) differs from p by a commutator, so p represents the class; if
    n = d * p exactly then d^{-1} n IS p. Either way the result is checked
    against the class invariant symm(p) * den^s = num^s.
    """
    rep = dc.rep
    if rep.is_zero:
        return ZERO_P
    if rep.den.degree == 0:
        return rep.num
    cand = None
    quot, rem = right_divmod(rep.num, rep.den)
    if rem.is_zero:
        cand = quot
    else:
        quot, rem = left_divmod(rep.num, rep.den)
        if rem.is_zero:
            cand = quot
    if cand is None:
        return None
    if cand.symm() * rep.den.symm() != rep.num.symm():
        raise InternalRealityViolation("extracted representative fails the sdet check")
    return cand


def mat_vec(matrix: SkewMatrix, vec: list) -> list[OreFrac]:
    if matrix.ncols != len(vec):
        raise DimensionMismatch(f"{matrix.nrows}x{matrix.ncols} times vector of {len(vec)}")
    vec = [_coerce_frac(v) for v in vec]
    out = []
    for i in range(matrix.nrows):
        acc = ZERO_FRAC
        for j in range(matrix.ncols):
            acc = acc + matrix.entries[i][j] * vec[j]
        out.append(acc)
    return out


def cramer_solve(matrix: SkewMatrix, rhs: list) -> list[OreFrac]:
    """Solve A x = b over the skew field (entries act from the left).

    The shared forward elimination with the minimal-degree pivot rule, then
    back substitution; raises SingularSystem when the matrix has no inverse.
    The solution is verified exactly before being returned.
    """
    n = matrix.nrows
    if matrix.nrows != matrix.ncols:
        raise NonSquare("linear solve needs a square matrix")
    if len(rhs) != n:
        raise DimensionMismatch(f"rhs of length {len(rhs)} for size {n}")
    rhs = [_coerce_frac(v) for v in rhs]
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix.entries)]
    pivots = _eliminate(aug, n, _min_degree_pivot)
    if len(pivots) < n:
        raise SingularSystem("matrix is singular over the skew field")
    xs: list[OreFrac] = [ZERO_FRAC] * n
    _back_substitute(aug, pivots, xs)
    if mat_vec(matrix, xs) != rhs:
        raise InternalRealityViolation("solver produced an inexact solution")
    return xs


def rank(matrix: SkewMatrix) -> int:
    return len(_eliminate([list(row) for row in matrix.entries], matrix.ncols, _min_degree_pivot))


def kernel_vector(matrix: SkewMatrix) -> "list[OreFrac] | None":
    """A nonzero right-kernel vector (A x = 0), or None when the kernel is 0.

    The first free column is set to 1 and the later ones to 0; back
    substitution fills in the pivot columns. Solutions are closed under right
    multiplication, so any denominator can later be cleared on the right
    without leaving the kernel.
    """
    work = [list(row) for row in matrix.entries]
    pivots = _eliminate(work, matrix.ncols, _min_degree_pivot)
    pivot_cols = {col for _, col in pivots}
    free = [c for c in range(matrix.ncols) if c not in pivot_cols]
    if not free:
        return None
    vec = [ZERO_FRAC] * matrix.ncols
    vec[free[0]] = ONE_FRAC
    _back_substitute(work, pivots, vec)
    if any(not v.is_zero for v in mat_vec(matrix, vec)) or all(v.is_zero for v in vec):
        raise InternalRealityViolation("kernel construction failed")
    return vec
