"""One-variable quaternionic polynomials: star product, divisions, llcm, roots."""

import random

import pytest

from skewres import polyone
from skewres.errors import InternalRealityViolation, InvalidInput, RealArgument, ZeroPolynomial
from skewres.polyone import (
    ONE_P,
    Poly1,
    RealPoly,
    RootClassification,
    VAR_Q,
    ZERO_P,
    char_poly,
    classify_root_on_sphere,
    gcld,
    gcrd,
    lcrm,
    left_divmod,
    llcm,
    monic_right,
    real_div_exact,
    real_divmod,
    real_gcd,
    right_divmod,
)
from skewres.quaternion import I, J, K, ONE, ZERO, Quaternion, Rational, Sphere, sphere_of


def rand_quat(rng, span=3):
    return Quaternion(*(Rational(rng.randint(-span, span)) for _ in range(4)))


def rand_poly(rng, max_deg=3, span=3, nonzero=False):
    deg = rng.randint(0, max_deg)
    p = Poly1([rand_quat(rng, span) for _ in range(deg + 1)])
    if nonzero and p.is_zero:
        return Poly1([Quaternion(1)])
    return p


def schoolbook_product(f, g):
    """Independent convolution: coefficient (n) = sum_{i+j=n} f_i * g_j."""
    if f.is_zero or g.is_zero:
        return Poly1()
    out = []
    for n in range(f.degree + g.degree + 1):
        acc = ZERO
        for i in range(n + 1):
            acc = acc + f.coeff(i) * g.coeff(n - i)
        out.append(acc)
    return Poly1(out)


def test_star_product_frozen():
    # (q - i) * (q - j) = q^2 - q*(i + j) + k
    f = Poly1([-I, ONE])
    g = Poly1([-J, ONE])
    assert f * g == Poly1([K, -(I + J), ONE])


def test_star_product_matches_schoolbook():
    rng = random.Random(7)
    for _ in range(60):
        f = rand_poly(rng)
        g = rand_poly(rng)
        assert f * g == schoolbook_product(f, g)


def _sparse_rational_poly(rng, max_deg):
    # non-integer components, zero coefficients and the zero polynomial
    return Poly1(
        [
            Quaternion(*(Rational(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(4)))
            if rng.random() < 0.7
            else ZERO
            for _ in range(rng.randint(0, max_deg + 1))
        ]
    )


def test_integer_product_kernel_matches_quaternion_products():
    rng = random.Random(41)
    for trial in range(200):
        f = _sparse_rational_poly(rng, 0 if trial % 5 == 0 else 4)
        g = _sparse_rational_poly(rng, 0 if trial % 7 == 0 else 4)
        want = [ZERO] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
        for n, a in enumerate(f.coeffs):
            for m, b in enumerate(g.coeffs):
                want[n + m] = want[n + m] + a * b
        assert f * g == Poly1(want)
    assert Poly1() * Poly1([I]) == Poly1() and Poly1([Rational(1, 2) * J]) * Poly1() == Poly1()
    assert Poly1([Rational(1, 2) * I]) * Poly1([Rational(2, 3) * J]) == Poly1([Rational(1, 3) * K])


def test_characteristic_factorization():
    # (q - u) * (q + u) = q^2 + 1 for any imaginary unit u.
    for u in (I, J, K, Quaternion(0, Rational(3, 5), Rational(4, 5)), -I):
        f = Poly1([-u, ONE]) * Poly1([u, ONE])
        assert f == Poly1([ONE, ZERO, ONE])


def test_eval_is_not_multiplicative():
    # (q - j) * (q - i) evaluated at i gives -2k, but the pointwise product is 0.
    g = Poly1([-J, ONE])
    f = Poly1([-I, ONE])
    prod = g * f
    assert prod.eval(I) == -2 * K
    assert g.eval(I) * f.eval(I) == ZERO


def test_eval_left_root_property():
    # (f*g)(p) = f(p) * g(f(p)^{-1} p f(p)) when f(p) != 0, and 0 otherwise.
    rng = random.Random(11)
    for _ in range(40):
        f = rand_poly(rng, 2)
        g = rand_poly(rng, 2)
        p = rand_quat(rng, 2)
        fp = f.eval(p)
        lhs = (f * g).eval(p)
        if fp == ZERO:
            assert lhs == ZERO
        else:
            assert lhs == fp * g.eval(fp.inverse() * p * fp)


def test_eval_on_reals_is_a_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        f = rand_poly(rng)
        g = rand_poly(rng)
        r = Quaternion(Rational(rng.randint(-5, 5), rng.randint(1, 4)))
        assert (f * g).eval(r) == f.eval(r) * g.eval(r)


def test_no_zero_divisors():
    rng = random.Random(17)
    for _ in range(40):
        f = rand_poly(rng, 3, nonzero=True)
        g = rand_poly(rng, 3, nonzero=True)
        prod = f * g
        assert not prod.is_zero
        assert prod.degree == f.degree + g.degree


def test_left_divmod_identity():
    rng = random.Random(19)
    for _ in range(60):
        f = rand_poly(rng, 5)
        g = rand_poly(rng, 3, nonzero=True)
        quot, rem = left_divmod(f, g)
        assert g * quot + rem == f
        assert rem.degree < g.degree


def test_right_divmod_identity():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_poly(rng, 5)
        g = rand_poly(rng, 3, nonzero=True)
        quot, rem = right_divmod(f, g)
        assert quot * g + rem == f
        assert rem.degree < g.degree


def test_divmod_sides_differ():
    # Division sides genuinely differ in a noncommutative ring.
    f = Poly1([K, -(I + J), ONE])  # (q - i) * (q - j)
    g = Poly1([-J, ONE])
    lq, lrem = left_divmod(f, g)
    rq, rrem = right_divmod(f, g)
    assert not lrem.is_zero  # q - j is not a LEFT divisor here
    assert rrem.is_zero and rq == Poly1([-I, ONE])


def test_divide_by_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        left_divmod(ONE_P, ZERO_P)
    with pytest.raises(ZeroPolynomial):
        right_divmod(ONE_P, ZERO_P)
    with pytest.raises(ZeroPolynomial):
        gcrd(ZERO_P, ZERO_P)


def test_monic_normalizations():
    f = Poly1([J, I + K, 2 * I])
    mr = monic_right(f)
    assert mr.lc == ONE
    assert monic_right(mr) == mr


def test_gcrd_detects_planted_right_factor():
    rng = random.Random(29)
    for _ in range(30):
        d = rand_poly(rng, 2, nonzero=True)
        f = rand_poly(rng, 2, nonzero=True) * d
        g = rand_poly(rng, 2, nonzero=True) * d
        h = gcrd(f, g)
        assert h.lc == ONE
        assert right_divmod(h, d)[1].is_zero
        # h is itself a common right divisor.
        assert right_divmod(f, h)[1].is_zero
        assert right_divmod(g, h)[1].is_zero


def test_gcld_detects_planted_left_factor():
    rng = random.Random(31)
    for _ in range(30):
        d = rand_poly(rng, 2, nonzero=True)
        f = d * rand_poly(rng, 2, nonzero=True)
        g = d * rand_poly(rng, 2, nonzero=True)
        h = gcld(f, g)
        assert h.lc == ONE
        assert left_divmod(h, d)[1].is_zero
        assert left_divmod(f, h)[1].is_zero
        assert left_divmod(g, h)[1].is_zero


def test_coprime_gcrd_is_one():
    # q - i and q - j share no right factor.
    assert gcrd(Poly1([-I, ONE]), Poly1([-J, ONE])) == ONE_P


def test_llcm_frozen_example():
    m, u, v = llcm(Poly1([-I, ONE]), Poly1([-J, ONE]))
    assert m == Poly1([ONE, ZERO, ONE])  # q^2 + 1
    assert u == Poly1([I, ONE])  # q + i
    assert v == Poly1([J, ONE])  # q + j


def test_llcm_cross_check_fires_on_a_corrupted_kernel(monkeypatch):
    real = polyone._back_substitute

    def corrupted(work, pivots, xs):
        real(work, pivots, xs)
        col = pivots[0][1]
        xs[col] = xs[col] * 2

    monkeypatch.setattr(polyone, "_back_substitute", corrupted)
    with pytest.raises(InternalRealityViolation, match="cross check"):
        llcm(Poly1([-I, ONE]), Poly1([-J, ONE]))


def test_llcm_empty_kernel_check_fires(monkeypatch):
    monkeypatch.setattr(polyone, "_right_kernel", lambda rows, ncols, zero, one: None)
    with pytest.raises(InternalRealityViolation, match="llcm kernel is empty"):
        llcm(Poly1([-I, ONE]), Poly1([-J, ONE]))


def test_symm_reality_check_fires_on_a_wrong_conjugate(monkeypatch):
    f = Poly1([-I, ONE])
    assert f.symm() == RealPoly([1, 0, 1])
    # (q - i)^2 has the non-real coefficient -2i
    monkeypatch.setattr(Poly1, "conj", lambda self: self)
    with pytest.raises(InternalRealityViolation, match="non-real coefficient"):
        f.symm()


def test_llcm_properties():
    rng = random.Random(37)
    for _ in range(30):
        b = rand_poly(rng, 3, nonzero=True)
        c = rand_poly(rng, 3, nonzero=True)
        m, u, v = llcm(b, c)
        assert u * b == m
        assert v * c == m
        assert m.lc == ONE
        assert m.degree == b.degree + c.degree - gcrd(b, c).degree
        # m is a common left multiple: both inputs right-divide it.
        assert right_divmod(m, b)[1].is_zero
        assert right_divmod(m, c)[1].is_zero


def test_lcrm_properties():
    rng = random.Random(41)
    for _ in range(30):
        b = rand_poly(rng, 3, nonzero=True)
        c = rand_poly(rng, 3, nonzero=True)
        m, u, v = lcrm(b, c)
        assert b * u == m
        assert c * v == m
        assert m.lc == ONE
        assert m.degree == b.degree + c.degree - gcld(b, c).degree
        assert left_divmod(m, b)[1].is_zero
        assert left_divmod(m, c)[1].is_zero


def _rational_rank(rows):
    """Row rank of a rational matrix, by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Rational(1) / rows[rank][col]
        rows[rank] = [inv * x for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _common_left_multiple_exists(b, c, max_deg):
    """Rational-linear-algebra oracle: is there a nonzero w = u*b = v*c with
    deg w <= max_deg?  Unknowns are the quaternion coefficients of u and v."""
    basis = [ONE, I, J, K]
    du = max_deg - b.degree
    dv = max_deg - c.degree
    if du < 0 or dv < 0:
        return False
    columns = []
    for i in range(du + 1):
        for e in basis:
            coeffs = [ZERO] * (max_deg + 1)
            for t in range(b.degree + 1):
                coeffs[i + t] = e * b.coeff(t)
            columns.append(coeffs)
    for i in range(dv + 1):
        for e in basis:
            coeffs = [ZERO] * (max_deg + 1)
            for t in range(c.degree + 1):
                coeffs[i + t] = -(e * c.coeff(t))
            columns.append(coeffs)
    # Matrix rows: one per (coefficient degree, quaternion component).
    rows = []
    for k in range(max_deg + 1):
        for comp in ("w", "x", "y", "z"):
            rows.append([getattr(col[k], comp) for col in columns])
    n_unknowns = len(columns)
    if _rational_rank(rows) == n_unknowns:
        return False
    # Null space is nontrivial; it could still force u*b = 0 with u != 0 only
    # if b were zero, which it is not, so a genuine common multiple exists.
    return True


def test_llcm_minimality():
    rng = random.Random(43)
    for _ in range(8):
        b = rand_poly(rng, 2, span=2, nonzero=True)
        c = rand_poly(rng, 2, span=2, nonzero=True)
        m, _, _ = llcm(b, c)
        if m.degree == 0:
            continue
        assert not _common_left_multiple_exists(b, c, m.degree - 1)
        assert _common_left_multiple_exists(b, c, m.degree)


def test_conj_is_an_antihomomorphism():
    rng = random.Random(47)
    for _ in range(30):
        f = rand_poly(rng)
        g = rand_poly(rng)
        assert (f * g).conj() == g.conj() * f.conj()
        assert f.conj().conj() == f


def test_symm_is_real_and_multiplicative():
    rng = random.Random(53)
    for _ in range(30):
        f = rand_poly(rng)
        g = rand_poly(rng)
        assert (f * g).symm() == f.symm() * g.symm()


def test_symm_commutes_with_conjugate():
    rng = random.Random(59)
    for _ in range(20):
        f = rand_poly(rng)
        assert f * f.conj() == f.conj() * f


def test_symm_frozen():
    # (q - i) symmetrizes to q^2 + 1; (q - (1+i)) to q^2 - 2q + 2.
    assert Poly1([-I, ONE]).symm() == RealPoly([1, 0, 1])
    assert Poly1([-(ONE + I), ONE]).symm() == RealPoly([2, -2, 1])


def test_derivative_leibniz():
    rng = random.Random(61)
    for _ in range(30):
        f = rand_poly(rng)
        g = rand_poly(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_derivative_basics():
    assert VAR_Q.derivative() == ONE_P
    assert Poly1([ZERO, ZERO, ONE]).derivative() == Poly1([ZERO, 2 * ONE])
    assert ZERO_P.derivative() == ZERO_P


def test_char_poly():
    chi = char_poly(Sphere(0, 1))
    assert chi == RealPoly([1, 0, 1])
    assert chi.eval(I) == ZERO
    chi2 = char_poly(Sphere(2, 9))
    assert chi2 == RealPoly([13, -4, 1])
    assert chi2.eval(Quaternion(2, 0, 0, 3)) == ZERO


def test_classify_spherical():
    f = Poly1([ONE, ZERO, ONE])  # q^2 + 1
    out = classify_root_on_sphere(f, Sphere(0, 1))
    assert out.kind == "spherical"
    for point in (I, J, K, -I, Quaternion(0, Rational(3, 5), Rational(4, 5))):
        assert f.eval(point) == ZERO


def test_classify_isolated():
    f = Poly1([-I, ONE])
    out = classify_root_on_sphere(f, Sphere(0, 1))
    assert out.kind == "isolated"
    assert out.point == I
    g = Poly1([-I, ONE]) * Poly1([-(2 * ONE + J), ONE])
    out2 = classify_root_on_sphere(g, Sphere(0, 1))
    assert out2.kind == "isolated"
    assert out2.point == I
    assert g.eval(out2.point) == ZERO


def test_classify_none():
    f = Poly1([-(ONE + I), ONE])  # zero at 1 + i, off the unit sphere
    out = classify_root_on_sphere(f, Sphere(0, 1))
    assert out == RootClassification("none")
    assert repr(out) == "RootClassification(kind='none', point=None)"
    with pytest.raises(AttributeError):
        out.kind = "spherical"


def test_classify_rejects_real_point():
    with pytest.raises(RealArgument):
        classify_root_on_sphere(VAR_Q, Sphere(3, 0))


def test_classify_found_points_lie_on_sphere():
    rng = random.Random(67)
    spheres = [Sphere(0, 1), Sphere(1, 4), Sphere(Rational(1, 2), Rational(9, 4))]
    for _ in range(30):
        f = rand_poly(rng, 3, nonzero=True)
        s = rng.choice(spheres)
        out = classify_root_on_sphere(f, s)
        if out.kind == "isolated":
            assert sphere_of(out.point) == s
            assert f.eval(out.point) == ZERO


def test_realpoly_divmod_and_gcd():
    rng = random.Random(71)
    for _ in range(30):
        f = RealPoly([Rational(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))])
        g = RealPoly([Rational(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])
        if g.is_zero:
            continue
        quot, rem = real_divmod(f, g)
        assert g * quot + rem == f
        assert rem.degree < g.degree
        # the same division over H[q], which contains Q[q]
        assert left_divmod(f.to_poly1(), g.to_poly1()) == (quot.to_poly1(), rem.to_poly1())
        d = real_gcd(f, g)
        if not d.is_zero:
            assert real_divmod(f, d)[1].is_zero
            assert real_divmod(g, d)[1].is_zero


def test_realpoly_gcd_planted():
    d = RealPoly([1, 0, 1])
    f = RealPoly([2, 1]) * d
    g = RealPoly([-3, 0, 1]) * d
    assert real_divmod(real_gcd(f, g), d)[1].is_zero
    assert real_div_exact(f, d) == RealPoly([2, 1])
    # every caller divides exactly by construction: a remainder is a fault,
    # and so is a step whose top the divisor's leading coefficient misses
    with pytest.raises(InternalRealityViolation, match="left a nonzero remainder"):
        real_div_exact(RealPoly([1, 1]), RealPoly([1, 0, 1]))
    with pytest.raises(InternalRealityViolation, match="does not divide"):
        real_div_exact(RealPoly([0, 0, 1]), RealPoly([1, 2]))
    with pytest.raises(InternalRealityViolation, match="left a nonzero remainder"):
        real_div_exact(RealPoly([1, 0, 1]), RealPoly([0, 1]))


def test_poly1_scalar_interop():
    f = Poly1([I, ONE])
    assert 2 * f == f + f
    assert f * 2 == f + f
    assert f - f == ZERO_P
    assert f.scale_left(J) == Poly1([J * I, J])
    assert f.scale_right(J) == Poly1([I * J, J])
    assert f.star_pow(2) == f * f
    assert f.star_pow(0) == ONE_P
    with pytest.raises(InvalidInput):
        f.star_pow(-1)


def test_poly1_and_realpoly_are_sibling_rings():
    # equal coefficient values, but a Quaternion never meets a Fraction
    p, r = Poly1([1]), RealPoly([1])
    assert p != r and r != p
    assert not p == r and not r == p
    assert not isinstance(p, RealPoly) and not isinstance(r, Poly1)
    assert type(Poly1.const(2)) is Poly1 and Poly1.const(2) == Poly1([2])
    assert type(RealPoly.const(2)) is RealPoly and RealPoly.const(2) == RealPoly([2])
    assert p + r == Poly1([2]) and r + p == Poly1([2])


# Two routes for the integer kernel: the Euclidean functions run one integer
# pseudo-division; the loops below are the plain Fraction long division and
# Euclid it replaced, kept here as the second route.


def _fraction_divmod(f, g):
    """f = g*quot + rem by Fraction long division, divisor on the LEFT."""
    ring, gd = type(f), g.degree
    rem = list(f.coeffs)
    if len(rem) - 1 < gd:
        return ring(), f
    glc_inv = 1 / g.lc
    quot = [ring._zero] * (len(rem) - gd)
    for k in range(len(rem) - 1, gd - 1, -1):
        c = glc_inv * rem[k]
        quot[k - gd] = c
        for t, gc in enumerate(g.coeffs):
            rem[t + k - gd] = rem[t + k - gd] - gc * c
    return ring(quot), ring(rem[:gd])


def _fraction_gcd(f, g):
    """The last nonzero remainder of the Fraction Euclidean chain."""
    while not g.is_zero:
        f, g = g, _fraction_divmod(f, g)[1]
    return f


def _rand_rational(rng, big):
    if big:
        return Rational(rng.randint(-(10**15), 10**15), rng.randint(1, 10**12))
    return Rational(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def _real_pairs(seed, count=80):
    """Zero and constant operands, negative and non-unit leads, planted
    common factors and large denominators, then seeded random pairs."""
    rng = random.Random(seed)

    def rp(deg, big=False):
        return RealPoly([_rand_rational(rng, big) for _ in range(deg + 1)])

    cubic, lead = rp(3), RealPoly([1, 2, Rational(-5, 3)])
    yield from [
        (RealPoly(), cubic), (cubic, RealPoly([-3])), (RealPoly([Rational(2, 9)]), RealPoly([-4])),
        (RealPoly(), RealPoly()), (cubic * lead, lead), (cubic * lead, cubic * RealPoly([0, -6])),
    ]
    for n in range(count):
        big = n % 4 == 3
        f, g = rp(rng.randint(-1, 6), big), rp(rng.randint(-1, 3), big)
        if n % 3 == 0:
            d = rp(rng.randint(1, 2), big)
            f, g = f * d, g * d
        yield f, g


def _poly1_pairs(seed, count=60):
    rng = random.Random(seed)

    def rq(deg, big=False):
        quats = [Quaternion(*(_rand_rational(rng, big) for _ in range(4))) for _ in range(deg + 1)]
        return Poly1(quats)

    cubic, lead = rq(3), Poly1([ONE, I, Quaternion(-2, 0, Rational(1, 3), 5)])
    yield from [
        (Poly1(), cubic), (cubic, Poly1([-3 * J])), (Poly1([K]), Poly1([Rational(2, 3)])),
        (lead * cubic, lead), (cubic * lead, lead),
    ]
    for n in range(count):
        big = n % 4 == 3
        f, g = rq(rng.randint(-1, 5), big), rq(rng.randint(-1, 3), big)
        if n % 3 == 0:
            d = rq(rng.randint(1, 2), big)
            f, g = (d * f, d * g) if n % 2 else (f * d, g * d)
        yield f, g


def _sympy_monic_gcd(f, g):
    import sympy

    x = sympy.symbols("x")
    sp = [
        sympy.Poly([sympy.Rational(str(c)) for c in reversed(p.coeffs)] or [0], x, domain="QQ")
        for p in (f, g)
    ]
    d = sympy.gcd(*sp)
    d = d.monic() if not d.is_zero else d
    return RealPoly([Rational(int(c.p), int(c.q)) for c in reversed(d.all_coeffs())])


def test_integer_real_gcd_matches_sympy():
    for f, g in _real_pairs(101):
        assert real_gcd(f, g) == _sympy_monic_gcd(f, g)


def test_integer_real_divisions_match_the_fraction_loop():
    for f, g in _real_pairs(103):
        if g.is_zero:
            continue
        quot, rem = real_divmod(f, g)
        assert f == g * quot + rem and rem.degree < g.degree
        assert (quot, rem) == _fraction_divmod(f, g)
        assert real_div_exact(g * quot, g) == quot
        assert real_div_exact(f - rem, g) == quot
        d = _fraction_gcd(f, g)
        assert real_gcd(f, g) == (d * RealPoly([1 / d.lc]) if not d.is_zero else d)


def test_integer_left_and_right_divisions_match_the_fraction_loop():
    for f, g in _poly1_pairs(107):
        if g.is_zero:
            continue
        quot, rem = left_divmod(f, g)
        assert f == g * quot + rem and rem.degree < g.degree
        assert (quot, rem) == _fraction_divmod(f, g)
        quot, rem = right_divmod(f, g)
        assert f == quot * g + rem and rem.degree < g.degree
        cq, cr = _fraction_divmod(f.conj(), g.conj())
        assert (quot, rem) == (cq.conj(), cr.conj())


def test_integer_gcld_and_gcrd_match_the_fraction_chain():
    for f, g in _poly1_pairs(109):
        if f.is_zero and g.is_zero:
            continue
        assert gcld(f, g) == monic_right(_fraction_gcd(f, g))
        assert gcrd(f, g) == monic_right(_fraction_gcd(f.conj(), g.conj())).conj()
