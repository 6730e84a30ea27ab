"""Quaternion arithmetic: multiplication table, norms, inverses, spheres."""

import pytest
from hypothesis import given, strategies as st

from skewres.errors import DivisionByZero, NotRationallyNormalizable, RealArgument
from skewres.quaternion import (
    I,
    J,
    K,
    ONE,
    ZERO,
    Quaternion,
    Rational,
    Sphere,
    commutes,
    imaginary_unit_of,
    rational_sqrt,
    sphere_of,
)

rationals = st.builds(
    lambda n, d: Rational(n) / d, st.integers(-30, 30), st.integers(1, 7)
)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


def test_multiplication_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert K * J == -I
    assert I * K == -J
    assert I * I == Quaternion(-1)
    assert J * J == Quaternion(-1)
    assert K * K == Quaternion(-1)


def test_product_example():
    # i * (k - j) expands to -j - k by the table.
    assert I * (K - J) == Quaternion(0, 0, -1, -1)


def test_norm_example():
    assert (K - J).norm_sq() == 2


def test_rational_components():
    a = Quaternion(Rational(1, 2), Rational(-3, 4), 0, 5)
    b = a * a.inverse()
    assert b == ONE
    # 1 / a is the inverse; no other numerator is defined
    assert 1 / a == a.inverse()
    with pytest.raises(TypeError):
        2 / a
    assert a + ZERO == a
    assert a - a == ZERO
    assert 2 * a == a + a
    assert a * 2 == a + a


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        ZERO.inverse()


def test_conj_and_norm():
    a = Quaternion(1, 2, -3, Rational(1, 2))
    assert a * a.conj() == Quaternion(a.norm_sq())
    assert a.conj().conj() == a


def test_sphere_of():
    assert sphere_of(Quaternion(2, 0, 0, 3)) == Sphere(2, 9)
    assert sphere_of(I) == sphere_of(J) == sphere_of(K) == Sphere(0, 1)
    assert sphere_of(Quaternion(5)).is_real_point()


def test_imaginary_unit_of():
    assert imaginary_unit_of(Quaternion(1, 2)) == I
    assert imaginary_unit_of(Quaternion(0, 3, 4)) == Quaternion(
        0, Rational(3, 5), Rational(4, 5)
    )
    with pytest.raises(RealArgument):
        imaginary_unit_of(Quaternion(7))
    with pytest.raises(NotRationallyNormalizable):
        imaginary_unit_of(Quaternion(1, 1, 1))


def test_rational_sqrt():
    assert rational_sqrt(Rational(9, 4)) == Rational(3, 2)
    assert rational_sqrt(Rational(2)) is None
    assert rational_sqrt(Rational(-1)) is None
    assert rational_sqrt(Rational(0)) == 0


def test_is_imaginary_unit():
    assert I.is_imaginary_unit()
    assert Quaternion(0, Rational(3, 5), Rational(4, 5)).is_imaginary_unit()
    assert not Quaternion(1, 1).is_imaginary_unit()
    assert not Quaternion(0, 2).is_imaginary_unit()


@given(quaternions, quaternions)
def test_norm_multiplicative(a, b):
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@given(quaternions, quaternions)
def test_conj_antihomomorphism(a, b):
    assert (a * b).conj() == b.conj() * a.conj()


@given(quaternions, quaternions)
def test_commutes_matches_product_order(a, b):
    assert commutes(a, b) == (a * b == b * a)


@given(quaternions)
def test_inverse_roundtrip(a):
    if a != ZERO:
        assert a * a.inverse() == ONE
        assert a.inverse() * a == ONE


@given(quaternions, quaternions, quaternions)
def test_associativity_and_distributivity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(quaternions)
def test_sphere_contains_and_conjugate(a):
    s = sphere_of(a)
    assert s.contains(a)
    assert s.contains(a.conj())


def test_real_center():
    # Real quaternions commute with everything.
    r = Quaternion(Rational(5, 3))
    for u in (I, J, K, Quaternion(1, 2, 3, 4)):
        assert r * u == u * r
