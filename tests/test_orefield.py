"""Left-fraction skew field: canonical forms, arithmetic, embedding."""

import random

import pytest

from skewres import orefield, polyone
from skewres.errors import DivisionByZero, ZeroPolynomial
from skewres.orefield import ONE_FRAC, OreFrac, ZERO_FRAC
from skewres.polyone import ONE_P, Poly1, RealPoly, ZERO_P, gcld, llcm, real_gcd
from skewres.quaternion import I, J, K, ONE, Quaternion, Rational


def rand_quat(rng, span=2):
    return Quaternion(*(Rational(rng.randint(-span, span)) for _ in range(4)))


def rand_poly(rng, max_deg=2, nonzero=False):
    p = Poly1([rand_quat(rng) for _ in range(rng.randint(0, max_deg) + 1)])
    if nonzero and p.is_zero:
        return ONE_P
    return p


def rand_frac(rng, nonzero=False):
    f = OreFrac(rand_poly(rng, 2, nonzero=True), rand_poly(rng, 2, nonzero=nonzero))
    if nonzero and f.is_zero:
        return ONE_FRAC
    return f


def q_minus(a):
    return Poly1([-a, ONE])


def test_zero_denominator_rejected():
    with pytest.raises(ZeroPolynomial):
        OreFrac(ZERO_P, ONE_P)


def test_canonical_zero():
    z = OreFrac(q_minus(I), ZERO_P)
    assert z.is_zero
    assert z.den == ONE_P and z.num == ZERO_P
    assert z == ZERO_FRAC


def test_frozen_sum_of_inverses():
    # (q-i)^{-1} + (q-j)^{-1} = (q^2+1)^{-1} (2q + i + j)
    x = OreFrac.from_poly(q_minus(I)).inv()
    y = OreFrac.from_poly(q_minus(J)).inv()
    s = x + y
    assert s.den == Poly1([ONE, Quaternion(0), ONE])
    assert s.num == Poly1([I + J, 2 * ONE])


def test_symm_frac_frozen():
    f = OreFrac.from_poly(q_minus(I))
    assert f.symm_frac() == (RealPoly([1]), RealPoly([1, 0, 1]))
    g = f.inv()
    assert g.symm_frac() == (RealPoly([1, 0, 1]), RealPoly([1]))


def test_reduction_cancels_left_factors():
    # ((q+i)(q-i))^{-1} ((q+i)(q-j)) reduces to (q-i)^{-1} (q-j).
    big = OreFrac(Poly1([I, ONE]) * q_minus(I), Poly1([I, ONE]) * q_minus(J))
    small = OreFrac(q_minus(I), q_minus(J))
    assert big == small
    assert big.den == small.den and big.num == small.num


def test_canonical_form_invariants():
    rng = random.Random(3)
    for _ in range(60):
        f = rand_frac(rng)
        assert f.den.lc == ONE or f.is_zero
        if not f.is_zero:
            assert gcld(f.den, f.num) == ONE_P
        g = rand_poly(rng, 2, nonzero=True)
        # Blowing up by a common left factor lands on the same canonical form.
        blown = OreFrac(g * f.den, g * f.num)
        assert blown.den == f.den and blown.num == f.num


def test_eq_is_cross_multiplication():
    rng = random.Random(5)
    for _ in range(40):
        f = rand_frac(rng)
        g = rand_frac(rng)
        structural = f.den == g.den and f.num == g.num
        assert (f == g) == structural
        # the second route: cross-multiply through the common left multiple
        # of the denominators, u*f.den = v*g.den
        _, u, v = llcm(f.den, g.den)
        assert (f == g) == (u * f.num == v * g.num)


def _refuse_lcm_and_gcld(monkeypatch):
    # orefield keeps only gcld by name; llcm is refused where it lives
    def refused(*args):
        raise AssertionError("field arithmetic must not call llcm or gcld")

    monkeypatch.setattr(polyone, "llcm", refused)
    monkeypatch.setattr(polyone, "gcld", refused)
    monkeypatch.setattr(orefield, "gcld", refused)


def test_eq_needs_no_common_multiple(monkeypatch):
    # built over different denominators: ((q-j)(q-i))^{-1} (q-j) = (q-i)^{-1}
    inv_qi = OreFrac(q_minus(I), ONE_P)
    same = OreFrac(q_minus(J) * q_minus(I), q_minus(J))
    other = OreFrac(q_minus(J), ONE_P)

    _refuse_lcm_and_gcld(monkeypatch)
    assert inv_qi == same
    assert inv_qi != other
    assert not (same == other)


def test_field_operations_need_no_common_multiple(monkeypatch):
    x = OreFrac(q_minus(I), q_minus(J))
    y = OreFrac(q_minus(J) * q_minus(K), Poly1([I, 2 * ONE, J]))
    xy, ys, xi = x * y, x + y, x.inv()
    _refuse_lcm_and_gcld(monkeypatch)
    assert x * y == xy
    assert x + y == ys
    assert x.inv() == xi
    assert x.inv() * x == ONE_FRAC
    assert (x + y) * y.inv() == x * y.inv() + ONE_FRAC
    assert x != y and -x + x == ZERO_FRAC


def _old_left_sum(x, y):
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    if x.den == ONE_P and y.den == ONE_P:
        return OreFrac.from_poly(x.num + y.num)
    m, u, v = llcm(x.den, y.den)
    return OreFrac(m, u * x.num + v * y.num)


def _old_left_product(x, y):
    if x.is_zero or y.is_zero:
        return ZERO_FRAC
    # (a^{-1} b) * (c^{-1} d) = (u*a)^{-1} (v*d) where u*b = v*c
    if y.den == ONE_P:
        return OreFrac(x.den, x.num * y.num)
    _, u, v = llcm(x.num, y.den)
    return OreFrac(u * x.den, v * y.num)


def test_central_arithmetic_matches_the_left_formulas():
    # the second route: the llcm formulas of the left form, written out
    rng = random.Random(23)

    def rat_poly(nonzero=False):
        p = Poly1(
            [
                Quaternion(*(Rational(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)))
                for _ in range(rng.randint(0, 2) + 1)
            ]
        )
        return ONE_P if nonzero and p.is_zero else p

    for _ in range(40):
        x = OreFrac(rat_poly(nonzero=True), rat_poly())
        y = OreFrac(rat_poly(nonzero=True), rat_poly())
        for got, want in ((x + y, _old_left_sum(x, y)), (x * y, _old_left_product(x, y))):
            assert (got.den, got.num) == (want.den, want.num)
        if not x.is_zero:
            got, want = x.inv(), OreFrac(x.num, x.den)
            assert (got.den, got.num) == (want.den, want.num)


def test_central_form_is_reduced():
    rng = random.Random(29)
    for _ in range(40):
        f = rand_frac(rng)
        assert f.cden.lc == 1
        parts = [RealPoly([getattr(c, a) for c in f.cnum.coeffs]) for a in "wxyz"]
        g = f.cden
        for part in parts:
            g = real_gcd(g, part)
        assert g == RealPoly([1])
        # d * x is the polynomial n, and the left view names the same element
        assert OreFrac.from_poly(f.cden.to_poly1()) * f == OreFrac.from_poly(f.cnum)
        assert OreFrac(f.den, f.num) == f


def test_embedding_is_a_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(40):
        p = rand_poly(rng)
        q = rand_poly(rng)
        assert OreFrac.from_poly(p) + OreFrac.from_poly(q) == OreFrac.from_poly(p + q)
        assert OreFrac.from_poly(p) * OreFrac.from_poly(q) == OreFrac.from_poly(p * q)
    assert OreFrac.from_poly(ONE_P) == ONE_FRAC


def test_field_axioms():
    rng = random.Random(11)
    for _ in range(25):
        x = rand_frac(rng)
        y = rand_frac(rng)
        z = rand_frac(rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x + ZERO_FRAC == x
        assert x * ONE_FRAC == x
        assert ONE_FRAC * x == x
        assert x - x == ZERO_FRAC
        assert x * ZERO_FRAC == ZERO_FRAC


def test_inverses():
    rng = random.Random(13)
    for _ in range(30):
        x = rand_frac(rng, nonzero=True)
        assert x * x.inv() == ONE_FRAC
        assert x.inv() * x == ONE_FRAC
        assert x.inv().inv() == x
        assert 1 / x == x.inv()
    with pytest.raises(DivisionByZero):
        ZERO_FRAC.inv()


def test_multiplication_is_noncommutative():
    x = OreFrac.from_poly(q_minus(I))
    y = OreFrac.from_poly(q_minus(J))
    assert x * y != y * x


def test_no_zero_divisors():
    rng = random.Random(17)
    for _ in range(30):
        x = rand_frac(rng, nonzero=True)
        y = rand_frac(rng, nonzero=True)
        assert not (x * y).is_zero


def test_symm_frac_is_multiplicative_up_to_reduction():
    # symm of a product equals the product of symms as rational functions.
    from skewres.polyone import real_div_exact, real_gcd

    def reduced(pair):
        den, num = pair
        if num.is_zero:
            return (RealPoly([1]), RealPoly())
        g = real_gcd(num, den)
        num, den = real_div_exact(num, g), real_div_exact(den, g)
        c = den.lc
        inv = Rational(1) / c
        return (RealPoly([x * inv for x in den.coeffs]), RealPoly([x * inv for x in num.coeffs]))

    rng = random.Random(19)
    for _ in range(20):
        x = rand_frac(rng, nonzero=True)
        y = rand_frac(rng, nonzero=True)
        dx, nx = x.symm_frac()
        dy, ny = y.symm_frac()
        dz, nz = (x * y).symm_frac()
        assert reduced((dx * dy, nx * ny)) == reduced((dz, nz))


def test_scalar_and_poly_interop():
    x = OreFrac.from_poly(q_minus(I))
    assert x + 0 == x
    assert 1 * x == x
    assert x * 2 == OreFrac.from_poly(q_minus(I).scale_right(Quaternion(2)))
    assert x == q_minus(I)
    assert x - q_minus(I) == ZERO_FRAC
    assert OreFrac.from_quat(I).num == Poly1([I])
    assert x.is_poly and not x.inv().is_poly
