"""Resultants in two variables: Sylvester matrices, certificates, criteria."""

import importlib
import random

import pytest
import sympy

from skewres import orefield, polyone
from skewres.dieudonne import SkewMatrix, _min_degree_pivot, det
from skewres.errors import (
    DegreeTooLow,
    InternalRealityViolation,
    NonCommutingPoint,
    SingularSystem,
    ZeroPolynomial,
)
from skewres.orefield import OreFrac
from skewres.polyone import ONE_P, Poly1, RealPoly, ZERO_P, real_divmod
from skewres.polytwo import VAR_Q1, VAR_Q2, Poly2
from skewres.quaternion import I, J, K, ONE, ZERO, Quaternion, Rational
from skewres.resultant import (
    BezoutCertificate,
    ResultantReport,
    bezout_certificate,
    check_common_zero,
    check_left_factor_criterion,
    classical_resultant,
    discriminant_q1,
    discriminant_q2,
    kernel_cofactors,
    resultant,
    sylvester,
    sylvester_q1,
    sylvester_q2,
    symmetrized_resultant_criterion,
)

res_mod = importlib.import_module("skewres.resultant")


def rand_quat(rng, span=2):
    return Quaternion(*(Rational(rng.randint(-span, span)) for _ in range(4)))


def rand_poly2(rng, d1, d2, span=2):
    while True:
        grid = [[rand_quat(rng, span) for _ in range(d2 + 1)] for _ in range(d1 + 1)]
        p = Poly2(grid)
        if p.deg_q1 == d1 and p.deg_q2 == d2:
            return p


def linear(var, a):
    return (VAR_Q1 if var == "q1" else VAR_Q2) - Poly2.const(a)


# the running pair: both factors share the left root i of the q1 slot
P_GOLD = linear("q1", I) * linear("q2", J)
Q_GOLD = linear("q1", I) * linear("q2", K)


def test_golden_sylvester_q1_matrix():
    mat = sylvester_q1(P_GOLD, Q_GOLD)
    assert (mat.nrows, mat.ncols) == (2, 2)
    top_p = Poly1([-J, ONE]).scale_left(-I)
    top_q = Poly1([-K, ONE]).scale_left(-I)
    assert mat.entry(0, 0).num == top_p and mat.entry(0, 1).num == top_q
    assert mat.entry(1, 0).num == Poly1([-J, ONE])
    assert mat.entry(1, 1).num == Poly1([-K, ONE])


def test_golden_resultants_both_variables():
    r1 = resultant(P_GOLD, Q_GOLD, "q1")
    assert r1.is_zero
    assert r1.representative == ZERO_P

    r2 = resultant(P_GOLD, Q_GOLD, "q2")
    assert not r2.is_zero
    assert r2.sdet == (RealPoly([2, 0, 4, 0, 2]), RealPoly([1]))
    rep = r2.representative
    assert rep is not None and not rep.is_zero
    assert rep.eval(I) == ZERO
    # vanishing is constant on the whole sphere of i
    assert rep.eval(Quaternion(0, 0, 1, 0)) == ZERO


def test_sylvester_layout_and_errors():
    mat = sylvester(VAR_Q1, VAR_Q1, "q1")
    assert [[e.num for e in row] for row in mat.entries] == [
        [ZERO_P, ZERO_P],
        [ONE_P, ONE_P],
    ]
    with pytest.raises(ZeroPolynomial):
        sylvester(Poly2(), VAR_Q1, "q1")
    with pytest.raises(ZeroPolynomial):
        sylvester_q2(VAR_Q1, Poly2())
    with pytest.raises(ValueError):
        sylvester(VAR_Q1, VAR_Q1, "q3")
    rng = random.Random(11)
    p = rand_poly2(rng, 2, 1)
    q = rand_poly2(rng, 1, 2)
    assert sylvester_q1(p, q).nrows == 3
    assert sylvester_q2(p, q).nrows == 3


def test_degenerate_degree_conventions():
    # both constant in q1: empty matrix, class of one
    r = resultant(linear("q2", J), linear("q2", K) * linear("q2", K), "q1")
    assert r.sylvester.nrows == 0
    assert not r.is_zero
    assert r.sdet == (RealPoly([1]), RealPoly([1]))
    assert r.representative == ONE_P

    # deg 0 against deg 2: a 2x2 band of the constant view alone
    p = linear("q2", J)
    q = linear("q1", I) * linear("q1", I)
    r = resultant(p, q, "q1")
    assert r.sylvester.nrows == 2
    assert r.sylvester.entry(0, 1).is_zero and r.sylvester.entry(1, 0).is_zero
    assert r.sylvester.entry(0, 0).num == Poly1([-J, ONE])
    # the class is that of (q2 - j)^{*2}
    assert r.sdet == (RealPoly([1, 0, 2, 0, 1]), RealPoly([1]))


def test_resultant_against_self_vanishes():
    rng = random.Random(23)
    for _ in range(3):
        p = rand_poly2(rng, rng.randint(1, 2), rng.randint(1, 2))
        assert resultant(p, p, "q1").is_zero
        assert resultant(p, p, "q2").is_zero


def test_common_left_factor_forces_zero_resultant():
    rng = random.Random(5)
    for var in ("q1", "q2"):
        for _ in range(4):
            a = rand_quat(rng, 1)
            x = rand_poly2(rng, 1, 1)
            y = rand_poly2(rng, 1, 1)
            p = linear(var, a) * x
            q = linear(var, a) * y
            assert resultant(p, q, var).is_zero


def test_left_factor_criterion_report():
    rep = check_left_factor_criterion(
        P_GOLD, Q_GOLD, q1_candidates=(I, J), q2_candidates=(J, K)
    )
    # only i is a common left root in q1; j and k each divide one side in q2
    assert rep.q1_factors == ((I, True),)
    assert rep.q2_factors == ()
    assert rep.holds
    with pytest.raises(ZeroPolynomial):
        check_left_factor_criterion(Poly2(), Q_GOLD)


def test_kernel_cofactors_on_singular_pairs():
    rng = random.Random(31)
    for var in ("q1", "q2"):
        for _ in range(3):
            a = rand_quat(rng, 1)
            p = linear(var, a) * rand_poly2(rng, 1, 1)
            q = linear(var, a) * rand_poly2(rng, 1, 1)
            cert = kernel_cofactors(p, q, var)
            assert cert is not None
            assert cert.target == ZERO_P
            assert not cert.h.is_zero and not cert.k.is_zero
            assert (p * cert.h + q * cert.k).is_zero
            assert cert.h.deg(var) < q.deg(var)
            assert cert.k.deg(var) < p.deg(var)


def test_kernel_cofactors_none_when_resultant_nonzero():
    assert kernel_cofactors(P_GOLD, Q_GOLD, "q2") is None


def test_golden_kernel_cofactors_shape():
    cert = kernel_cofactors(P_GOLD, Q_GOLD, "q1")
    # h kills the (q2 - k) column, k the (q2 - j) one, up to a right unit
    assert cert.h.deg_q1 == 0 and cert.k.deg_q1 == 0
    assert (P_GOLD * cert.h + Q_GOLD * cert.k).is_zero


def test_bezout_certificate_exactness():
    rng = random.Random(43)
    checked = 0
    for var in ("q1", "q2"):
        for _ in range(4):
            p = rand_poly2(rng, rng.randint(1, 2), rng.randint(1, 2))
            q = rand_poly2(rng, rng.randint(1, 2), rng.randint(1, 2))
            rr = resultant(p, q, var)
            if rr.is_zero:
                continue
            cert = bezout_certificate(p, q, var)
            other = "q2" if var == "q1" else "q1"
            assert not cert.target.is_zero
            assert p * cert.h + q * cert.k == Poly2.from_poly1(cert.target, other)
            assert cert.h.deg(var) < q.deg(var)
            assert cert.k.deg(var) < p.deg(var)
            num, _ = rr.sdet
            assert real_divmod(cert.target.symm(), num)[1].is_zero
            checked += 1
    assert checked >= 6


def test_bezout_diagonal_toy():
    cert = bezout_certificate(VAR_Q1, Poly2.const(ONE), "q1")
    assert cert.h.is_zero
    assert cert.k == Poly2.const(ONE)
    assert cert.target == ONE_P


def test_bezout_errors():
    with pytest.raises(SingularSystem):
        bezout_certificate(P_GOLD, Q_GOLD, "q1")
    with pytest.raises(DegreeTooLow):
        bezout_certificate(linear("q2", J), linear("q2", K), "q1")


def test_common_zero_report():
    # (i, b) with b in the slice of i is a common zero of the golden pair
    rep = check_common_zero(P_GOLD, Q_GOLD, I, Quaternion(2, 5, 0, 0) * I + Quaternion(3))
    assert rep.hypothesis_met
    assert rep.holds
    assert rep.sdet_q1_at_b == ZERO and rep.sdet_q2_at_a == ZERO
    assert rep.rep_q1_at_b == ZERO and rep.rep_q2_at_a == ZERO

    miss = check_common_zero(P_GOLD, Q_GOLD, Quaternion(5), I)
    assert not miss.hypothesis_met
    assert miss.holds is None

    with pytest.raises(NonCommutingPoint):
        check_common_zero(P_GOLD, Q_GOLD, I, J)


def test_symmetrized_resultant_criterion():
    rep = symmetrized_resultant_criterion(P_GOLD, Q_GOLD, "q1")
    assert rep.applies and rep.holds
    assert rep.classical.is_zero

    rep2 = symmetrized_resultant_criterion(P_GOLD, Q_GOLD, "q2")
    assert not rep2.applies
    assert rep2.classical is None and rep2.holds is None


def _sympy_resultant(av, bv):
    x, y = sympy.symbols("x y")

    def poly(views):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * x**k * y**n
            for n, v in enumerate(views)
            for k, c in enumerate(v.coeffs)
        )

    want = sympy.resultant(sympy.Poly(poly(av), y), sympy.Poly(poly(bv), y), y)
    return sympy.Poly(sympy.expand(want), x)


def _assert_classical_matches_sympy(av, bv):
    ours = classical_resultant(av, bv)
    want = _sympy_resultant(av, bv)
    x = sympy.Symbol("x")
    got = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(ours.coeffs))
    assert sympy.expand(got - want.as_expr()) == 0
    return ours


def test_classical_resultant_matches_sympy():
    rng = random.Random(17)
    for _ in range(8):
        av = [RealPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) for _ in range(3)]
        bv = [RealPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) for _ in range(3)]
        if av[-1].is_zero or bv[-1].is_zero:
            continue
        _assert_classical_matches_sympy(av, bv)
    # a zero constant view leaves row 0 without a pivot in column 0:
    # a = x y^2 + (x + 1) y, b = 3 y^2 + x y + (1 + 2x)
    av = [RealPoly(), RealPoly([1, 1]), RealPoly([0, 1])]
    bv = [RealPoly([1, 2]), RealPoly([0, 1]), RealPoly([3])]
    assert not _assert_classical_matches_sympy(av, bv).is_zero
    # a shared factor (y - x) makes the resultant vanish:
    # a = (y - x)(y + 1), b = (y - x)(y + 2)
    av = [RealPoly([0, -1]), RealPoly([1, -1]), RealPoly([1])]
    bv = [RealPoly([0, -2]), RealPoly([2, -1]), RealPoly([1])]
    assert _assert_classical_matches_sympy(av, bv).is_zero
    # wherever the determinant is nonzero, the pivot rows run 1, 0, 2, an
    # odd permutation: a = x y^2 + y, b = 2 y + (1 + x)
    av = [RealPoly(), RealPoly([1]), RealPoly([0, 1])]
    bv = [RealPoly([1, 1]), RealPoly([2])]
    assert not _assert_classical_matches_sympy(av, bv).is_zero
    # a view of degree 0 in y: Res(a0, b) = a0^deg(b), here (x + 2)^2
    av = [RealPoly([2, 1])]
    bv = [RealPoly([1]), RealPoly([0, 1]), RealPoly([3])]
    assert _assert_classical_matches_sympy(av, bv) == RealPoly([4, 4, 1])
    # a shared factor whose lead vanishes at the first point t = 0:
    # a = (x y + 1)(y - 2), b = (x y + 1)(y + x)
    av = [RealPoly([-2]), RealPoly([1, -2]), RealPoly([0, 1])]
    bv = [RealPoly([0, 1]), RealPoly([1, 0, 1]), RealPoly([0, 1])]
    assert _assert_classical_matches_sympy(av, bv).is_zero


def test_classical_check_point_fires_on_a_corrupted_value(monkeypatch):
    # a = x y + 1, b = y^2 + x: Res = 1 + x^3
    av = [RealPoly([1]), RealPoly([0, 1])]
    bv = [RealPoly([0, 1]), RealPoly(), RealPoly([1])]
    assert classical_resultant(av, bv) == RealPoly([1, 0, 0, 1])
    real = res_mod._signed_det
    calls = []

    def corrupted(mat):
        calls.append(mat)
        value = real(mat)
        return value + 1 if len(calls) == 1 else value

    monkeypatch.setattr(res_mod, "_signed_det", corrupted)
    with pytest.raises(InternalRealityViolation, match="check point"):
        classical_resultant(av, bv)
    # every row and column of the 3 x 3 band has degree 1, so the bound is
    # D = 3: D + 1 interpolated points and one check
    assert len(calls) == 3 + 2


def test_discriminants_crossed_pairing():
    p = linear("q1", I) * linear("q1", I) * linear("q2", J)
    # the same-variable pairing inherits the repeated left factor
    assert resultant(p, p.partial_q1(), "q1").is_zero
    # the crossed pairing does not: 2x2 Schur complement gives 16(q1^2+1)^2
    d = discriminant_q1(p)
    assert not d.is_zero
    assert d.sdet == (RealPoly([16, 0, 32, 0, 16]), RealPoly([1]))

    # the q2 pairing shares the left factor (q1 - i)^{*2} and collapses
    d2 = discriminant_q2(p)
    assert d2.sylvester.nrows == 4
    assert d2.is_zero

    with pytest.raises(ZeroPolynomial):
        discriminant_q1(Poly2())
    with pytest.raises(DegreeTooLow):
        discriminant_q1(linear("q2", J))
    with pytest.raises(DegreeTooLow):
        discriminant_q2(linear("q1", I))


def test_report_repr_stays_lazy():
    r = resultant(P_GOLD, Q_GOLD, "q2")
    assert "nonzero" in repr(r)
    assert r._rep_known is False
    r.representative
    assert r._rep_known is True


def _sympy_image_det(matrix, t):
    """det of the 2n x 2n complex image of a polynomial matrix at t, by sympy."""
    rows = []
    for row in matrix.entries:
        top, bottom = [], []
        for entry in row:
            alpha = beta = sympy.Integer(0)
            for n, c in enumerate(entry.num.coeffs):
                w, x, y, z = (sympy.Rational(v.numerator, v.denominator) for v in (c.w, c.x, c.y, c.z))
                alpha += (w + sympy.I * x) * t**n
                beta += (y + sympy.I * z) * t**n
            top += [alpha, beta]
            bottom += [-sympy.conjugate(beta), sympy.conjugate(alpha)]
        rows += [top, bottom]
    return sympy.expand(sympy.Matrix(rows).det()) if rows else sympy.Integer(1)


def test_sdet_agrees_with_two_independent_routes():
    rng = random.Random(59)
    mats = []
    for var in ("q1", "q2"):
        for d_p, d_q in ((1, 1), (2, 1), (1, 2)):
            mats.append(sylvester(rand_poly2(rng, d_p, 1), rand_poly2(rng, d_q, 1), var))
        a = rand_quat(rng, 1)
        planted = [linear(var, a) * rand_poly2(rng, 1, 1) for _ in range(2)]
        mats.append(sylvester(*planted, var))
    # orders 0 and 1
    mats.append(sylvester(linear("q2", J), linear("q2", K), "q1"))
    mats.append(sylvester(P_GOLD, linear("q2", K), "q1"))
    # an all-zero row, and rational coefficients
    f = Poly1([-I, ONE])
    mats.append(SkewMatrix([[f, Poly1([J])], [ZERO_P, ZERO_P]]))
    half = Rational(1, 2)
    g = Poly1([Quaternion(half, 0, Rational(-2, 3), 1), Quaternion(0, half, 0, 0)])
    mats.append(SkewMatrix([[g, f], [Poly1([Quaternion(Rational(3, 4))]), g * f]]))
    points = (Rational(1, 2), Rational(-7, 3))
    zeros = 0
    for m in mats:
        dc = det(m)
        assert dc.sdet_den == RealPoly([1])
        # route 1: symmetrize the elimination representative over fractions
        assert det(m, pivot_rule=_min_degree_pivot).sdet == dc.sdet
        # route 2: the classical determinant of the complex image at points
        for t in points:
            value = dc.sdet_num.eval(t)
            assert _sympy_image_det(m, sympy.Rational(t.numerator, t.denominator)) == sympy.Rational(
                value.numerator, value.denominator
            )
        zeros += dc.is_zero
    assert [m.nrows for m in mats[-4:]] == [0, 1, 2, 2]
    assert zeros == 3


def _corrupt_cleared_polys(monkeypatch):
    real = res_mod._clear_right

    def corrupted(vec):
        polys, t = real(vec)
        return [polys[0] + ONE_P] + polys[1:], t

    monkeypatch.setattr(res_mod, "_clear_right", corrupted)


def test_bezout_identity_check_fires_on_corrupted_cofactors(monkeypatch):
    bezout_certificate(P_GOLD, Q_GOLD, "q2")
    _corrupt_cleared_polys(monkeypatch)
    with pytest.raises(InternalRealityViolation, match="combination"):
        bezout_certificate(P_GOLD, Q_GOLD, "q2")


# t = 1 and sdet = 2(1 + q2)^2 wrt q1, so the target is the extra factor alone
P_PINNED = VAR_Q1 * (VAR_Q2 + 1) + Poly2.const(I)
Q_PINNED = VAR_Q1 * (VAR_Q2 + 1) + Poly2.const(J)


def test_bezout_divisibility_check_fires_without_the_extra_factor(monkeypatch):
    bezout_certificate(P_PINNED, Q_PINNED, "q1")
    # a gcd claiming that sdet already divides symm(t) drops the extra
    # central factor; the identity still holds, the divisibility does not
    monkeypatch.setattr(res_mod, "real_gcd", lambda f, g: g)
    with pytest.raises(InternalRealityViolation, match="sdet factor"):
        bezout_certificate(P_PINNED, Q_PINNED, "q1")


def test_bezout_targets_are_real():
    for p, q, wrt in ((P_GOLD, Q_GOLD, "q2"), (P_PINNED, Q_PINNED, "q1")):
        target = bezout_certificate(p, q, wrt).target
        assert not target.is_zero
        assert all(c.is_real() for c in target.coeffs)


def test_kernel_identity_check_fires_on_corrupted_cofactors(monkeypatch):
    assert kernel_cofactors(P_GOLD, Q_GOLD, "q1") is not None
    _corrupt_cleared_polys(monkeypatch)
    with pytest.raises(InternalRealityViolation, match="combination"):
        kernel_cofactors(P_GOLD, Q_GOLD, "q1")


def test_clear_right_check_fires_on_a_wrong_multiplier(monkeypatch):
    vec = [OreFrac(Poly1([-I, ONE]), Poly1([J]))]
    polys, t = res_mod._clear_right(vec)
    assert vec[0] * t.to_poly1() == polys[0]
    # a gcd equal to the denominator drops its factor from the real lcm
    monkeypatch.setattr(res_mod, "real_gcd", lambda f, g: g)
    with pytest.raises(InternalRealityViolation, match="clearing"):
        res_mod._clear_right(vec)


def test_clear_right_matches_fraction_products():
    rng = random.Random(53)
    for _ in range(12):
        vec = []
        for _ in range(3):
            den = Poly1([rand_quat(rng) for _ in range(rng.randint(1, 3))]) or ONE_P
            num = Poly1([rand_quat(rng) for _ in range(rng.randint(0, 2))])
            vec.append(OreFrac(den, num))
        polys, t = res_mod._clear_right(vec)
        assert isinstance(t, RealPoly) and t.lc == 1
        assert [f * t.to_poly1() for f in vec] == polys


def test_certificates_need_no_left_view(monkeypatch):
    def refused(*args):
        raise AssertionError("certificates must not need a skew gcd or lcm")

    for mod, name in (
        (polyone, "gcld"),
        (polyone, "llcm"),
        (polyone, "lcrm"),
        (orefield, "gcld"),
        (orefield, "_left_view"),
    ):
        monkeypatch.setattr(mod, name, refused)
    for p, q, wrt in ((P_GOLD, Q_GOLD, "q2"), (P_PINNED, Q_PINNED, "q1")):
        assert not bezout_certificate(p, q, wrt).target.is_zero
    assert kernel_cofactors(P_GOLD, Q_GOLD, "q1") is not None
    a = linear("q2", J)
    assert kernel_cofactors(a * (VAR_Q1 + 1), a * (VAR_Q1 - Poly2.const(K)), "q2") is not None
