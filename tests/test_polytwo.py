"""Two-variable quaternionic polynomials: views, evaluation, linear factors."""

import random

import pytest

from skewres.errors import InvalidInput, ZeroPolynomial
from skewres.polyone import Poly1
from skewres.polytwo import (
    Poly2,
    VAR_Q1,
    VAR_Q2,
    factor_left_linear,
    left_linear_multiplicity,
)
from skewres.quaternion import I, J, K, ONE, ZERO, Quaternion, Rational, commutes


def rand_quat(rng, span=2):
    return Quaternion(*(Rational(rng.randint(-span, span)) for _ in range(4)))


def rand_poly2(rng, d1=2, d2=2, span=2, nonzero=False):
    grid = [
        [rand_quat(rng, span) for _ in range(rng.randint(0, d2) + 1)]
        for _ in range(rng.randint(0, d1) + 1)
    ]
    p = Poly2(grid)
    if nonzero and p.is_zero:
        return Poly2.const(ONE)
    return p


def q1_minus(a):
    return VAR_Q1 - Poly2.const(a)


def q2_minus(b):
    return VAR_Q2 - Poly2.const(b)


def test_product_expansion_frozen():
    # (q1 - i) * (q2 - j) = q1*q2 - q1*j - q2*i + k
    p = q1_minus(I) * q2_minus(J)
    assert p == Poly2([[K, -I], [-J, ONE]])
    assert p.deg_q1 == 1 and p.deg_q2 == 1


def test_eval2_frozen():
    p = q1_minus(I) * q2_minus(J)
    assert p.eval2(I, J) == 2 * K
    # On the slice commuting with i the left factor forces vanishing.
    for b in (I, -I, Quaternion(3, 5), Quaternion(Rational(1, 2), Rational(-2, 3))):
        assert commutes(I, b)
        assert p.eval2(I, b) == ZERO


def test_eval2_is_not_multiplicative():
    p = q1_minus(I)
    q = q2_minus(J)
    prod = p * q
    assert prod.eval2(I, J) == 2 * K
    assert p.eval2(I, J) * q.eval2(I, J) == ZERO


def test_left_factor_kills_commuting_points_only():
    rng = random.Random(3)
    for _ in range(20):
        a = rand_quat(rng)
        x = rand_poly2(rng, nonzero=True)
        p = q1_minus(a) * x
        # Commuting second coordinates vanish.
        r = Quaternion(rng.randint(-3, 3))
        for b in (a, r, r + a):
            assert commutes(a, b)
            assert p.eval2(a, b) == ZERO


def test_views_frozen():
    p = q1_minus(I) * q2_minus(J)
    v1 = p.coeffs_in_q1()
    assert v1 == [Poly1([K, -I]), Poly1([-J, ONE])]
    v2 = p.coeffs_in_q2()
    assert v2 == [Poly1([K, -J]), Poly1([-I, ONE])]


def test_view_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        p = rand_poly2(rng)
        assert Poly2.from_q1_coeffs(p.coeffs_in_q1()) == p
        assert Poly2.from_q2_coeffs(p.coeffs_in_q2()) == p


def test_views_of_product_are_convolutions():
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly2(rng, 2, 1)
        q = rand_poly2(rng, 2, 1)
        prod = p * q
        pv, qv = p.coeffs_in_q1(), q.coeffs_in_q1()
        want = prod.coeffs_in_q1()
        if prod.is_zero:
            assert p.is_zero or q.is_zero
            continue
        for n in range(prod.deg_q1 + 1):
            acc = Poly1()
            for i in range(n + 1):
                if i < len(pv) and n - i < len(qv):
                    acc = acc + pv[i] * qv[n - i]
            assert acc == want[n]


def test_integer_product_kernel_matches_quaternion_products():
    rng = random.Random(43)

    def sparse_grid(d1, d2):
        # non-integer components, zero coefficients and the zero polynomial
        return Poly2(
            [
                [
                    Quaternion(*(Rational(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(4)))
                    if rng.random() < 0.7
                    else ZERO
                    for _ in range(rng.randint(0, d2) + 1)
                ]
                for _ in range(rng.randint(0, d1 + 1))
            ]
        )

    for trial in range(120):
        p = sparse_grid(0, 0) if trial % 5 == 0 else sparse_grid(2, 2)
        q = sparse_grid(0, 0) if trial % 7 == 0 else sparse_grid(2, 2)
        rows = max(p.deg_q1 + q.deg_q1 + 1, 0)
        cols = max(p.deg_q2 + q.deg_q2 + 1, 0)
        want = [[ZERO] * cols for _ in range(rows)]
        for n1, row in enumerate(p.coeffs):
            for m1, a in enumerate(row):
                for n2, row2 in enumerate(q.coeffs):
                    for m2, b in enumerate(row2):
                        want[n1 + n2][m1 + m2] = want[n1 + n2][m1 + m2] + a * b
        assert p * q == Poly2(want)
    assert Poly2() * Poly2.const(I) == Poly2() and Poly2.const(J) * Poly2() == Poly2()
    half_i = Poly2.const(Rational(1, 2) * I)
    assert half_i * (VAR_Q2 * Rational(2, 3)) == Poly2.monomial(0, 1, Rational(1, 3) * I)


def test_degrees_add_on_products():
    rng = random.Random(11)
    for _ in range(30):
        p = rand_poly2(rng, nonzero=True)
        q = rand_poly2(rng, nonzero=True)
        prod = p * q
        assert not prod.is_zero
        assert prod.deg_q1 == p.deg_q1 + q.deg_q1
        assert prod.deg_q2 == p.deg_q2 + q.deg_q2


def test_conj_antihomomorphism():
    rng = random.Random(13)
    for _ in range(20):
        p = rand_poly2(rng)
        q = rand_poly2(rng)
        assert (p * q).conj() == q.conj() * p.conj()


def test_symm_real_and_central():
    rng = random.Random(17)
    for _ in range(15):
        p = rand_poly2(rng, 1, 1)
        q = rand_poly2(rng, 1, 1)
        s = p.symm()
        assert s.is_real()
        assert s * q == q * s
        assert (p * q).symm() == p.symm() * q.symm()
        assert p.symm() == p.conj() * p


def test_partials():
    p = Poly2.monomial(2, 3)  # q1^2 q2^3
    assert p.partial_q1() == Poly2.monomial(1, 3, 2 * ONE)
    assert p.partial_q2() == Poly2.monomial(2, 2, 3 * ONE)
    rng = random.Random(19)
    for _ in range(20):
        f = rand_poly2(rng)
        g = rand_poly2(rng)
        assert (f * g).partial_q1() == f.partial_q1() * g + f * g.partial_q1()
        assert (f * g).partial_q2() == f.partial_q2() * g + f * g.partial_q2()
        assert f.partial_q1().partial_q2() == f.partial_q2().partial_q1()


def test_factor_left_linear_recovers_cofactor():
    rng = random.Random(23)
    for var in ("q1", "q2"):
        head = VAR_Q1 if var == "q1" else VAR_Q2
        for _ in range(25):
            a = rand_quat(rng)
            x = rand_poly2(rng, nonzero=True)
            p = (head - Poly2.const(a)) * x
            got = factor_left_linear(p, a, var)
            assert got == x


def test_factor_left_linear_rejects():
    assert factor_left_linear(q1_minus(I), J, "q1") is None
    assert factor_left_linear(q2_minus(J), J, "q1") is None  # q1-degree 0
    assert factor_left_linear(Poly2(), I, "q1") is None
    # (q1 - i)*(q2 - j) has the left factor at i, not at j.
    p = q1_minus(I) * q2_minus(J)
    assert factor_left_linear(p, I, "q1") == q2_minus(J)
    assert factor_left_linear(p, J, "q1") is None


def test_multiplicity():
    x = q2_minus(J)
    p = q1_minus(I) * q1_minus(I) * x
    k, cof = left_linear_multiplicity(p, I, "q1")
    assert k == 2
    assert cof == x
    k2, cof2 = left_linear_multiplicity(p, J, "q1")
    assert k2 == 0 and cof2 == p
    q = q2_minus(J) * q2_minus(J) * q2_minus(J)
    k3, cof3 = left_linear_multiplicity(q, J, "q2")
    assert k3 == 3 and cof3 == Poly2.const(ONE)
    with pytest.raises(ZeroPolynomial):
        left_linear_multiplicity(Poly2(), I, "q1")


def test_multiplicity_is_exact():
    # The cofactor returned never retains the factor.
    rng = random.Random(29)
    for _ in range(15):
        a = rand_quat(rng, 1)
        x = rand_poly2(rng, 1, 1, nonzero=True)
        k = rng.randint(0, 3)
        p = q1_minus(a).star_pow(k) * x
        got, cof = left_linear_multiplicity(p, a, "q1")
        assert got >= k
        assert factor_left_linear(cof, a, "q1") is None
        assert q1_minus(a).star_pow(got) * cof == p


def test_embeddings_and_scalars():
    f = Poly1([-I, ONE])
    assert Poly2.from_poly1(f, "q1") == q1_minus(I)
    assert Poly2.from_poly1(f, "q2") == q2_minus(I)
    p = q1_minus(I)
    assert 2 * p == p + p
    assert p.scale_left(J).coeff(0, 0) == J * (-I)
    assert p.scale_right(J).coeff(0, 0) == -I * J
    assert p.star_pow(2) == p * p
    assert p.star_pow(0) == Poly2.const(ONE)
    with pytest.raises(InvalidInput):
        p.star_pow(-1)
    assert type(Poly2.const(2)) is Poly2 and Poly2.const(2) == Poly2([[2]])
    assert (p - p).is_zero


def test_trimming():
    assert Poly2([[ZERO, ZERO], [ZERO, ZERO]]).is_zero
    p = Poly2([[ZERO, ONE, ZERO], [ZERO, ZERO, ZERO]])
    assert p.deg_q1 == 0 and p.deg_q2 == 1
    assert p == Poly2.monomial(0, 1)
