"""Determinant classes for matrices over the skew fraction field.

The determinant of a square matrix over a skew field lives in the
abelianized multiplicative group (plus zero): commutators and, in
particular, signs are invisible, so the computable invariants are
zero-ness and the symmetrized determinant sdet, a reduced fraction of
real polynomials obtained by symmetrizing any representative.

Elimination uses only the two class-safe row operations: adding a left
multiple of another row (invisible to the class) and extracting a pivot
(which contributes its class as a left factor). The package's one
elimination loop lives in polyone (_eliminate, _back_substitute,
_right_kernel). Here it serves the determinant representative, Cramer
solves, rank and kernels on left fractions, and the constant matrices at
rational points that _point_det interpolates: _reduced_norm for sdet,
_signed_det for resultant.classical_resultant. Only the representative
depends on the pivot choice, so only det weighs its candidates
(_min_degree_pivot); every other caller takes the first one.
"""

from __future__ import annotations

import math

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalRealityViolation,
    NonSquare,
    SingularSystem,
)
from .orefield import ONE_FRAC, OreFrac, ZERO_FRAC, _coerce_frac
from .polyone import (
    Poly1,
    RealPoly,
    ZERO_P,
    _back_substitute,
    _eliminate,
    _first_pivot,
    _right_kernel,
    left_divmod,
    real_div_exact,
    real_gcd,
    right_divmod,
)
from .quaternion import Quaternion, Rational


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


def _min_degree_pivot(column) -> int:
    """det's pivot rule: minimal deg(num)+deg(den), ties to the lowest row.

    column is a list of (row_index, fraction) with nonzero fractions. The
    class does not depend on the rule, but the representative does, and this
    rule fixes it; weighing reads every candidate's canonical left form.
    """
    best_row, best_weight = None, None
    for row, frac in column:
        w = frac.num.degree + frac.den.degree
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


def _reduced_norm_pair(f: OreFrac) -> tuple[RealPoly, RealPoly]:
    """The reduced norm of f as a reduced real pair, from the central form:
    Nrd(d^{-1} n) = symm(n) / d^2, the same reduced pair as the left form's
    symm(num) / symm(den), since the reduced norm is multiplicative."""
    return reduce_real_pair(f.cnum.symm(), f.cden * f.cden)


def det_class_of(rep: OreFrac) -> DetClass:
    num, den = _reduced_norm_pair(rep)
    return DetClass(rep, num, den)


ZERO_DET = det_class_of(ZERO_FRAC)


def _reduced_norm(mat: list[list[Quaternion]]) -> Rational:
    """Reduced norm of a constant square quaternion matrix, in place: the
    product of the pivot norms of one elimination, zero when a column has no
    pivot (row additions leave it unchanged, pivots sit on a triangle)."""
    pivots = _eliminate(mat, len(mat), _first_pivot)
    if len(pivots) < len(mat):
        return Rational(0)
    return math.prod((mat[p][col].norm_sq() for p, col in pivots), start=Rational(1))


def _signed_det(mat: list[list[Rational]]) -> Rational:
    """Determinant of a constant square rational matrix, in place: rows are
    never swapped, so the pivot rows in column order are a permutation that
    sorts the pivots onto a triangle, and the determinant is their product
    times its sign."""
    pivots = _eliminate(mat, len(mat), _first_pivot)
    if len(pivots) < len(mat):
        return Rational(0)
    order = [p for p, _ in pivots]
    swaps = sum(a > b for k, a in enumerate(order) for b in order[k + 1 :])
    sign = -1 if swaps % 2 else 1
    return sign * math.prod((mat[p][col] for p, col in pivots), start=Rational(1))


def _newton_interpolate(ts: list, values: list) -> RealPoly:
    """The polynomial of degree below len(ts) through the points (t, value)."""
    diffs = list(values)
    for level in range(1, len(ts)):
        for i in range(len(ts) - 1, level - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (ts[i] - ts[i - level])
    poly = RealPoly()
    for t, c in zip(reversed(ts), reversed(diffs)):
        poly = poly * RealPoly((-t, 1)) + c
    return poly


def _point_det(rows: list, scale: int, det_at) -> RealPoly:
    """A determinant of a square polynomial matrix, interpolated from values.

    The variable is central, so evaluation at a rational t is a ring map,
    and det_at maps the constant matrix at t to the determinant at t. Its
    degree is at most D = scale * min(sum of row degrees, sum of column
    degrees), with scale 2 when det_at takes the determinant of the 2n x 2n
    complex image (the reduced norm): the values at t = 0, 1, -1, 2, -2, ...
    give the polynomial from the first D + 1 points, and the next checks it.
    """
    degs = [[max(e.degree, 0) for e in row] for row in rows]
    bound = scale * min(sum(map(max, degs)), sum(map(max, zip(*degs))))
    ts = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(bound + 2)]
    values = [det_at([[e.eval(t) for e in row] for row in rows]) for t in ts]
    poly = _newton_interpolate(ts[:-1], values[:-1])
    if poly.eval(ts[-1]) != values[-1]:
        raise InternalRealityViolation("interpolated determinant misses its check point")
    return poly


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
    the class does not depend on the choice, the representative does, and
    the default _min_degree_pivot pins it. For matrices with polynomial
    entries and the default rule, sdet is interpolated from reduced norms at
    rational points and the representative is deferred until read (and
    checked against sdet then).
    """
    if matrix.nrows != matrix.ncols:
        raise NonSquare(f"determinant of a {matrix.nrows}x{matrix.ncols} matrix")
    if pivot_rule is None and all(e.is_poly for row in matrix.entries for e in row):
        rows = [[e.cnum for e in row] for row in matrix.entries]
        sdet_num = _point_det(rows, 2, _reduced_norm)
        if sdet_num.coeffs and sdet_num.coeffs[-1] < 0:
            raise InternalRealityViolation("symmetrized determinant with negative lead")
        sdet_den = RealPoly([1])

        def rep_thunk() -> OreFrac:
            rep = _eliminate_rep(matrix, _min_degree_pivot)
            if _reduced_norm_pair(rep) != (sdet_num, sdet_den):
                raise InternalRealityViolation(
                    "elimination representative disagrees with the point values"
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
    lam_num_s, lam_den_s = _reduced_norm_pair(lam)
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

    The shared forward elimination with the first candidate as pivot (the
    solution is unique, so the choice cannot change it), then back
    substitution; raises SingularSystem when the matrix has no inverse.
    The solution is verified exactly before being returned.
    """
    n = matrix.nrows
    if matrix.nrows != matrix.ncols:
        raise NonSquare("linear solve needs a square matrix")
    if len(rhs) != n:
        raise DimensionMismatch(f"rhs of length {len(rhs)} for size {n}")
    rhs = [_coerce_frac(v) for v in rhs]
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix.entries)]
    pivots = _eliminate(aug, n, _first_pivot)
    if len(pivots) < n:
        raise SingularSystem("matrix is singular over the skew field")
    xs: list[OreFrac] = [ZERO_FRAC] * n
    _back_substitute(aug, pivots, xs)
    if mat_vec(matrix, xs) != rhs:
        raise InternalRealityViolation("solver produced an inexact solution")
    return xs


def rank(matrix: SkewMatrix) -> int:
    return len(_eliminate([list(row) for row in matrix.entries], matrix.ncols, _first_pivot))


def kernel_vector(matrix: SkewMatrix) -> "list[OreFrac] | None":
    """A nonzero right-kernel vector (A x = 0), or None when the kernel is 0.

    From polyone._right_kernel, shared with llcm: the first free column is 1,
    the later ones 0, and back substitution fills in the rest. Solutions
    are closed under right multiplication, so any denominator can later be
    cleared on the right without leaving the kernel.
    """
    vec = _right_kernel(matrix.entries, matrix.ncols, ZERO_FRAC, ONE_FRAC)
    if vec is None:
        return None
    if any(not v.is_zero for v in mat_vec(matrix, vec)) or all(v.is_zero for v in vec):
        raise InternalRealityViolation("kernel construction failed")
    return vec
