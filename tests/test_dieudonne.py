"""Determinant classes: elimination, row-op laws, Binet, Cramer, kernels."""

import random

import pytest
import sympy

from skewres import dieudonne, polyone
from skewres.dieudonne import (
    DetClass,
    SkewMatrix,
    cramer_solve,
    det,
    det2,
    det_class_of,
    kernel_vector,
    mat_vec,
    poly_representative,
    rank,
    reduce_real_pair,
    row_ops_check,
    sdets_equal,
)
from skewres.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalRealityViolation,
    NonSquare,
    SingularSystem,
)
from skewres.orefield import ONE_FRAC, OreFrac, ZERO_FRAC
from skewres.polyone import ONE_P, Poly1, RealPoly, ZERO_P
from skewres.quaternion import I, J, K, ONE, ZERO, Quaternion, Rational


def rand_quat(rng, span=2):
    return Quaternion(*(Rational(rng.randint(-span, span)) for _ in range(4)))


def rand_poly(rng, max_deg=1, nonzero=False):
    p = Poly1([rand_quat(rng) for _ in range(rng.randint(0, max_deg) + 1)])
    if nonzero and p.is_zero:
        return ONE_P
    return p


def rand_frac(rng, max_deg=1):
    return OreFrac(rand_poly(rng, max_deg, nonzero=True), rand_poly(rng, max_deg))


def rand_matrix(rng, n, max_deg=1):
    return SkewMatrix([[rand_frac(rng, max_deg) for _ in range(n)] for _ in range(n)])


def poly_matrix(rng, n, max_deg=1):
    return SkewMatrix([[rand_poly(rng, max_deg) for _ in range(n)] for _ in range(n)])


def q_minus(a):
    return Poly1([-a, ONE])


def test_det_identity_and_empty():
    for n in (0, 1, 2, 3):
        dc = det(SkewMatrix.identity(n))
        assert not dc.is_zero
        assert dc.sdet == (RealPoly([1]), RealPoly([1]))


def test_det_1x1():
    f = q_minus(I)
    dc = det(SkewMatrix([[f]]))
    assert dc.rep == OreFrac.from_poly(f)
    assert dc.sdet == (RealPoly([1, 0, 1]), RealPoly([1]))


def test_det_diagonal():
    f, g = q_minus(I), q_minus(J)
    dc = det(SkewMatrix([[f, ZERO_P], [ZERO_P, g]]))
    assert dc.rep == OreFrac.from_poly(f * g)
    assert dc.sdet_num == RealPoly([1, 0, 1]) * RealPoly([1, 0, 1])
    assert dc.sdet_den == RealPoly([1])


def test_det_zero_row_and_dependent_rows():
    f, g = q_minus(I), q_minus(J)
    assert det(SkewMatrix([[f, g], [ZERO_P, ZERO_P]])).is_zero
    assert det(SkewMatrix([[ZERO_P, ZERO_P], [f, g]])).is_zero
    # A left multiple of a row is class-invisible, so the matrix drops rank.
    lam = OreFrac.from_poly(Poly1([K]))
    m = SkewMatrix([[f, g], [lam * f, lam * g]])
    assert det(m).is_zero


def test_det_nonsquare():
    with pytest.raises(NonSquare):
        det(SkewMatrix([[ONE_FRAC, ZERO_FRAC]]))


def test_det2_matches_det():
    rng = random.Random(3)
    for _ in range(25):
        a, b, c, d = (rand_frac(rng) for _ in range(4))
        assert sdets_equal(det2(a, b, c, d), det(SkewMatrix([[a, b], [c, d]])))


def test_det2_zero_corner_formula():
    # With a = 0 the class is [b * c].
    b = OreFrac.from_poly(q_minus(I))
    c = OreFrac.from_poly(q_minus(J))
    dc = det2(ZERO_FRAC, b, c, ONE_FRAC)
    assert dc.rep == b * c
    dc2 = det2(ZERO_FRAC, b, ZERO_FRAC, ONE_FRAC)
    assert dc2.is_zero


def test_golden_matrix_in_q2_is_singular():
    # Rows are left-proportional: row0 = (-i) * row1.
    a = SkewMatrix(
        [
            [q_minus(J).scale_left(-I), q_minus(K).scale_left(-I)],
            [q_minus(J), q_minus(K)],
        ]
    )
    assert det(a).is_zero
    assert rank(a) == 1


def test_golden_matrix_in_q1_sdet():
    f = q_minus(I)  # here the variable is q1
    b = SkewMatrix(
        [
            [f.scale_right(-J), f.scale_right(-K)],
            [f, f],
        ]
    )
    dc = det(b)
    assert not dc.is_zero
    two = RealPoly([2])
    chi_sq = RealPoly([1, 0, 1]) * RealPoly([1, 0, 1])
    assert dc.sdet_num == two * chi_sq
    assert dc.sdet_den == RealPoly([1])
    rep = poly_representative(dc)
    assert rep is not None
    assert rep.eval(I) == ZERO
    assert rep.symm() == two * chi_sq


def test_pivot_choice_does_not_move_the_class():
    rng = random.Random(5)

    def nth_candidate(k):
        return lambda column: column[k % len(column)][0]

    for _ in range(12):
        m = rand_matrix(rng, 3)
        results = [det(m, pivot_rule=nth_candidate(k)) for k in range(3)]
        for other in results[1:]:
            assert sdets_equal(results[0], other)


def test_row_ops_check():
    rng = random.Random(7)
    for _ in range(8):
        m = rand_matrix(rng, 2)
        lam = rand_frac(rng)
        assert row_ops_check(m, lam, 0, 1)
        assert row_ops_check(m, ZERO_FRAC, 1, 0)
    with pytest.raises(IndexOutOfRange):
        SkewMatrix.identity(2).row_added(0, 0, ONE_FRAC)
    with pytest.raises(IndexOutOfRange):
        SkewMatrix.identity(2).row_added(0, 5, ONE_FRAC)


def test_binet_multiplicativity_of_sdet():
    rng = random.Random(11)
    for n, count, maker in (
        (2, 3, rand_matrix),
        (3, 2, rand_matrix),
        (2, 10, poly_matrix),
        (3, 10, poly_matrix),
    ):
        for _ in range(count):
            a = maker(rng, n)
            b = maker(rng, n)
            da, db, dab = det(a), det(b), det(a * b)
            want = reduce_real_pair(
                da.sdet_num * db.sdet_num, da.sdet_den * db.sdet_den
            )
            assert dab.is_zero == (da.is_zero or db.is_zero)
            assert (dab.sdet_num, dab.sdet_den) == want


def test_reduce_real_pair_matches_the_central_form():
    # a real fraction is also a left fraction of H[q]; its central form is
    # the same reduced pair
    rng = random.Random(29)
    for _ in range(40):
        num = RealPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
        den = RealPoly([Rational(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
        if den.is_zero:
            continue
        if rng.random() < 0.5:
            common = RealPoly([rng.randint(-3, 3), rng.randint(1, 2)])
            num, den = num * common, den * common
        frac = OreFrac(den.to_poly1(), num.to_poly1())
        assert reduce_real_pair(num, den) == (frac.cnum.try_real(), frac.cden)
    with pytest.raises(ZeroDivisionError):
        reduce_real_pair(RealPoly([1]), RealPoly())


def _sym_poly(p: RealPoly, t):
    return sum(sympy.Rational(str(c)) * t**n for n, c in enumerate(p.coeffs))


def test_commutative_restriction_matches_classical_determinant():
    # On matrices with real (hence commuting) entries, sdet must be the
    # square of the classical determinant as a reduced rational function.
    rng = random.Random(13)
    t = sympy.symbols("t")
    for n in (2, 3):
        for _ in range(6):
            dens = [[RealPoly([rng.randint(1, 3), rng.randint(0, 2)]) for _ in range(n)] for _ in range(n)]
            nums = [[RealPoly([rng.randint(-3, 3), rng.randint(-2, 2)]) for _ in range(n)] for _ in range(n)]
            m = SkewMatrix(
                [
                    [OreFrac(dens[i][j].to_poly1(), nums[i][j].to_poly1()) for j in range(n)]
                    for i in range(n)
                ]
            )
            dc = det(m)
            sm = sympy.Matrix(
                [
                    [_sym_poly(nums[i][j], t) / _sym_poly(dens[i][j], t) for j in range(n)]
                    for i in range(n)
                ]
            )
            classical = sympy.cancel(sm.det())
            ours = sympy.Rational(1) * _sym_poly(dc.sdet_num, t) / _sym_poly(dc.sdet_den, t)
            assert sympy.simplify(ours - classical**2) == 0


def test_poly_representative_routes():
    # Polynomial value: trivial extraction.
    f, g = q_minus(I), q_minus(J)
    dc = det(SkewMatrix([[f, ZERO_P], [ZERO_P, g]]))
    assert poly_representative(dc) == f * g
    # Right-divisible numerator: num = p * den.
    p, d = q_minus(K), q_minus(I)
    dc2 = det_class_of(OreFrac(d, p * d))
    got = poly_representative(dc2)
    assert got == p
    # Left-divisible numerator: num = den * p.
    dc3 = det_class_of(OreFrac(d, d * p))
    assert poly_representative(dc3) == p
    # Zero class.
    assert poly_representative(det_class_of(ZERO_FRAC)) == ZERO_P
    # Coprime den/num of positive degree: extraction fails.
    dc4 = det_class_of(OreFrac(q_minus(I), Poly1([ONE, ZERO, ZERO, ONE])))
    assert poly_representative(dc4) is None


def test_cramer_solves_and_verifies():
    rng = random.Random(17)
    solved = 0
    for n in (1, 2, 3):
        for _ in range(6):
            m = rand_matrix(rng, n)
            rhs = [rand_frac(rng) for _ in range(n)]
            try:
                xs = cramer_solve(m, rhs)
            except SingularSystem:
                assert det(m).is_zero
                continue
            solved += 1
            assert mat_vec(m, xs) == rhs
    assert solved >= 12


def test_cramer_singular_raises():
    f, g = q_minus(I), q_minus(J)
    lam = OreFrac.from_poly(Poly1([K]))
    m = SkewMatrix([[f, g], [lam * f, lam * g]])
    with pytest.raises(SingularSystem):
        cramer_solve(m, [ONE_FRAC, ZERO_FRAC])
    with pytest.raises(NonSquare):
        cramer_solve(SkewMatrix([[ONE_FRAC, ONE_FRAC]]), [ONE_FRAC])
    with pytest.raises(DimensionMismatch):
        cramer_solve(SkewMatrix.identity(2), [ONE_FRAC])


def test_kernel_iff_singular():
    rng = random.Random(19)
    zeros = 0
    for _ in range(25):
        m = poly_matrix(rng, 2)
        if rng.random() < 0.5:
            # Plant a row dependency to force singularity.
            lam = rand_frac(rng)
            m = SkewMatrix([list(m.entries[0]), [lam * e for e in m.entries[0]]])
        dc = det(m)
        vec = kernel_vector(m)
        if dc.is_zero:
            zeros += 1
            assert vec is not None
            assert all(v.is_zero for v in mat_vec(m, vec))
            assert any(not v.is_zero for v in vec)
            # Kernels are closed under right multiplication.
            t = rand_frac(rng)
            scaled = [v * t for v in vec]
            assert all(v.is_zero for v in mat_vec(m, scaled))
        else:
            assert vec is None
    assert zeros >= 8


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        SkewMatrix([[ONE_FRAC], [ONE_FRAC, ZERO_FRAC]])
    with pytest.raises(DimensionMismatch):
        SkewMatrix.identity(2) * SkewMatrix([[ONE_FRAC]])
    with pytest.raises(IndexOutOfRange):
        SkewMatrix.identity(2).entry(2, 0)
    with pytest.raises(DimensionMismatch):
        mat_vec(SkewMatrix.identity(2), [ONE_FRAC])


def test_matrix_product_entries():
    f = OreFrac.from_poly(q_minus(I))
    m = SkewMatrix([[f, ONE_FRAC], [ZERO_FRAC, f]])
    sq = m * m
    assert sq.entry(0, 0) == f * f
    assert sq.entry(0, 1) == f + f
    assert sq.entry(1, 1) == f * f


def _coeff_strings(p: Poly1):
    return [tuple(str(v) for v in (c.w, c.x, c.y, c.z)) for c in p.coeffs]


def test_det_representative_is_pinned():
    # Column 0 ties at weight 1 in every row, so the tie-break to the lowest
    # row decides the first pivot. The representative is what `skewres det`
    # prints; it must not move when the elimination is restructured.
    half = Quaternion(Rational(1, 2))
    m = SkewMatrix(
        [
            [
                OreFrac(q_minus(I), Poly1([J])),
                Poly1([ONE, K]),
                OreFrac(q_minus(J), Poly1([half, ONE])),
            ],
            [Poly1([K, ONE]), OreFrac(q_minus(K), Poly1([I, J])), Poly1([ONE + I])],
            [
                OreFrac(Poly1([ONE, ONE]), Poly1([2 * ONE])),
                Poly1([J]),
                OreFrac(q_minus(I), Poly1([K, ZERO, ONE])),
            ],
        ]
    )
    rep = det(m).rep
    assert _coeff_strings(rep.den) == [
        ("1/3", "0", "1/3", "4/3"),
        ("2", "1/3", "4/3", "2/3"),
        ("7/3", "11/3", "1", "5/3"),
        ("-2/3", "4", "-2/3", "7/3"),
        ("-4/3", "0", "-1/3", "8/3"),
        ("1", "-2/3", "1/3", "8/3"),
        ("1", "0", "0", "0"),
    ]
    assert _coeff_strings(rep.num) == [
        ("2/3", "-9/2", "2/3", "-11/6"),
        ("-9/2", "-11/2", "10", "1/2"),
        ("61/6", "-7/2", "47/3", "47/3"),
        ("31/3", "29/6", "-22/3", "6"),
        ("3", "-9/2", "-3", "4"),
        ("11/3", "-11/6", "-13/6", "-3"),
        ("4", "-2", "-5/2", "2"),
        ("2", "1/3", "-8/3", "-4/3"),
        ("2/3", "-1/3", "-5/3", "-1"),
        ("0", "0", "0", "-1"),
    ]


def _column_dependent(rows, lam):
    # Column 1 is column 0 times lam on the right, so column 1 is the first
    # free column and column 2, after it, is a pivot column.
    return SkewMatrix([[a, a * lam, b] for a, b in rows])


def test_kernel_free_column_before_a_pivot_column():
    lam = OreFrac(q_minus(J), Poly1([K, ONE]))
    f = OreFrac.from_poly
    square = _column_dependent(
        [(f(q_minus(I)), f(Poly1([J]))), (f(Poly1([K, I])), f(q_minus(K))), (ONE_FRAC, ZERO_FRAC)],
        lam,
    )
    wide = _column_dependent([(f(q_minus(I)), f(Poly1([J]))), (f(Poly1([K, I])), f(q_minus(K)))], lam)
    # Rows 1 and 2 are left multiples of row 0, and column 0 is zero.
    row0 = [ZERO_FRAC, f(q_minus(I)), OreFrac(q_minus(K), Poly1([J]))]
    rank_one = SkewMatrix([row0, [f(Poly1([K])) * e for e in row0], [lam * e for e in row0]])
    for m, want_rank, free in ((square, 2, [1]), (wide, 2, [1]), (rank_one, 1, [0, 2])):
        assert rank(m) + len(free) == m.ncols
        assert rank(m) == want_rank
        vec = kernel_vector(m)
        assert vec is not None
        assert all(v.is_zero for v in mat_vec(m, vec))
        # The first free column is set to 1, the later free columns to 0.
        assert vec[free[0]] == ONE_FRAC
        assert all(vec[c].is_zero for c in free[1:])
    # On the column-dependent matrices the kernel is spanned by (-lam, 1, 0).
    assert kernel_vector(square) == [-lam, ONE_FRAC, ZERO_FRAC]
    assert kernel_vector(wide) == [-lam, ONE_FRAC, ZERO_FRAC]
    assert kernel_vector(rank_one) == [ONE_FRAC, ZERO_FRAC, ZERO_FRAC]


def test_solves_do_not_depend_on_the_pivot_rule(monkeypatch):
    # the Cramer solution, the rank and the kernel vector with the first free
    # column 1 are unique, so weighing the pivots could not change them
    rng = random.Random(11)
    mats = []
    for _ in range(2):
        rows = rand_matrix(rng, 3).entries
        lam, mu = rand_frac(rng), rand_frac(rng)
        mats.append(SkewMatrix(rows))
        mats.append(SkewMatrix([rows[0], rows[1], [lam * a + mu * b for a, b in zip(*rows[:2])]]))
    rhs = [ONE_FRAC, ZERO_FRAC, rand_frac(rng)]

    def solve(m):
        r = rank(m)
        return r, cramer_solve(m, rhs) if r == m.nrows else None, kernel_vector(m)

    first = [solve(m) for m in mats]
    assert [r for r, _, _ in first] == [3, 2] * 2
    monkeypatch.setattr(dieudonne, "_first_pivot", dieudonne._min_degree_pivot)
    # kernel_vector pivots inside the kernel helper it shares with llcm
    monkeypatch.setattr(polyone, "_first_pivot", dieudonne._min_degree_pivot)
    assert [solve(m) for m in mats] == first


def _corrupt_first_pivot_unknown(monkeypatch, module=dieudonne):
    real = module._back_substitute

    def corrupted(work, pivots, xs):
        real(work, pivots, xs)
        col = pivots[0][1]
        xs[col] = xs[col] + ONE_FRAC

    monkeypatch.setattr(module, "_back_substitute", corrupted)


def test_cramer_check_fires_on_a_corrupted_solution(monkeypatch):
    m = SkewMatrix([[q_minus(I), Poly1([J])], [Poly1([K]), q_minus(J)]])
    rhs = [ONE_FRAC, ZERO_FRAC]
    assert mat_vec(m, cramer_solve(m, rhs)) == rhs
    _corrupt_first_pivot_unknown(monkeypatch)
    with pytest.raises(InternalRealityViolation, match="inexact solution"):
        cramer_solve(m, rhs)


def test_kernel_check_fires_on_a_corrupted_vector(monkeypatch):
    lam = OreFrac.from_poly(Poly1([K]))
    row = [OreFrac.from_poly(q_minus(I)), OreFrac.from_poly(q_minus(J))]
    m = SkewMatrix([row, [lam * e for e in row]])
    assert kernel_vector(m) is not None
    # the kernel helper kernel_vector shares with llcm back-substitutes in polyone
    _corrupt_first_pivot_unknown(monkeypatch, polyone)
    with pytest.raises(InternalRealityViolation, match="kernel construction failed"):
        kernel_vector(m)


def test_representative_cross_check_fires_on_a_corrupted_pivot(monkeypatch):
    m = SkewMatrix([[q_minus(I), Poly1([J])], [Poly1([K]), q_minus(J)]])
    assert not det(m).rep.is_zero
    real = dieudonne._eliminate

    def corrupted(work, ncols, rule):
        pivots = real(work, ncols, rule)
        p, col = pivots[0]
        # sdet runs the same elimination on quaternions at points; corrupt
        # only the fraction pivots, so the representative alone goes wrong
        if isinstance(work[p][col], OreFrac):
            work[p][col] = work[p][col] * 2
        return pivots

    monkeypatch.setattr(dieudonne, "_eliminate", corrupted)
    dc = det(m)
    with pytest.raises(InternalRealityViolation, match="disagrees with the point values"):
        dc.rep


def test_extracted_representative_check_fires_on_a_wrong_quotient(monkeypatch):
    p, d = q_minus(K), q_minus(I)
    dc = det_class_of(OreFrac(d, p * d))
    assert poly_representative(dc) == p
    # a right division that claims exactness with the wrong quotient
    monkeypatch.setattr(dieudonne, "right_divmod", lambda f, g: (p + ONE_P, ZERO_P))
    with pytest.raises(InternalRealityViolation, match="extracted representative"):
        poly_representative(dc)


def _corrupt_point_values(monkeypatch, change):
    real = dieudonne._reduced_norm
    calls = []

    def corrupted(mat):
        calls.append(mat)
        return change(len(calls), real(mat))

    monkeypatch.setattr(dieudonne, "_reduced_norm", corrupted)
    return calls


def test_sdet_check_point_fires_on_a_corrupted_value(monkeypatch):
    m = SkewMatrix([[q_minus(I), Poly1([J])], [Poly1([K]), q_minus(J)]])
    assert not det(m).is_zero
    # one wrong value among the interpolated points moves the interpolant
    # off the check point
    calls = _corrupt_point_values(monkeypatch, lambda k, v: v + 1 if k == 1 else v)
    with pytest.raises(InternalRealityViolation, match="check point"):
        det(m)
    # degree bound D = 2 * 2, so D + 1 interpolated points and one check
    assert len(calls) == 2 * 2 + 2


def test_sdet_lead_check_fires_on_negated_values(monkeypatch):
    m = SkewMatrix([[q_minus(I), Poly1([J])], [Poly1([K]), q_minus(J)]])
    # negating every value passes the check point but not the sign of the lead
    _corrupt_point_values(monkeypatch, lambda k, v: -v)
    with pytest.raises(InternalRealityViolation, match="negative lead"):
        det(m)
