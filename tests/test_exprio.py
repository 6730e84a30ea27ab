"""Expression language: parsing, lowering, canonical printing, JSON."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewres.errors import ExprSyntaxError, MixedVariableError, SchemaError
from skewres.exprio import (
    Add,
    Conj,
    Paren,
    Pow,
    RationalLit,
    StarMul,
    Sub,
    Symm,
    UnitLit,
    Var,
    lower,
    lower1,
    lower2,
    matrix_from_json,
    matrix_to_json,
    parse,
    poly1_from_json,
    poly1_to_json,
    poly2_from_json,
    poly2_to_json,
    print_latex,
    print_poly,
    report_to_json,
    variables,
)
from skewres.polyone import ONE_P, Poly1, ZERO_P
from skewres.polytwo import VAR_Q1, VAR_Q2, Poly2
from skewres.quaternion import I, J, K, ONE, Quaternion, Rational
from skewres.resultant import resultant


def rand_quat(rng, span=3):
    return Quaternion(*(Rational(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(4)))


def test_parse_spec_trees():
    assert parse("(q1 - i)*(q2 - j)") == StarMul(
        Sub(Var("q1"), UnitLit("i")), Sub(Var("q2"), UnitLit("j"))
    )
    assert parse("q^2 + 1") == Add(Pow(Var("q"), 2), RationalLit(Rational(1)))
    assert repr(parse("q^2 - i")) == (
        "Sub(lhs=Pow(base=Var(name='q'), exponent=2), rhs=UnitLit(name='i'))"
    )
    a, b = Var("q1"), UnitLit("i")
    assert Add(a, b) != Sub(a, b)
    assert parse("q1 - i") == Sub(a, b) and hash(parse("q1 - i")) == hash(Sub(a, b))
    with pytest.raises(AttributeError):
        a.name = "q2"
    tree = parse("3/2*q1^2*q2*k - q2*i")
    assert isinstance(tree, Sub)
    assert lower2(parse(print_poly(lower2(tree)))) == lower2(tree)


def test_precedence_and_associativity():
    assert lower1(parse("q + q*q^2")) == lower1(parse("q + (q*(q^2))"))
    # left associativity of subtraction
    assert lower1(parse("q - 1 - 1")) == lower1(parse("(q - 1) - 1"))
    # unary minus binds below power
    assert lower1(parse("-q^2")) == -lower1(parse("q^2"))
    # and is allowed in factor position
    assert lower1(parse("q*-i")) == lower1(parse("q*(-i)"))


def test_glued_unit_literals():
    assert lower1(parse("2i")) == Poly1([Quaternion(0, 2, 0, 0)])
    assert lower1(parse("3/2k")) == Poly1([Quaternion(0, 0, 0, Rational(3, 2))])
    # with a space the unit is a separate atom and needs an operator
    with pytest.raises(ExprSyntaxError):
        parse("2 i")


def test_lowering_golden_values():
    p = lower(parse("(q1-i)*(q2-j)"))
    assert p == Poly2([[K, -I], [-J, ONE]])
    s = lower(parse("symm(q - i)"))
    assert s == Poly1([ONE, Quaternion(0), ONE])
    assert lower(parse("0")) == ZERO_P
    assert lower(parse("conj(q - i)")) == Poly1([I, ONE])


def test_variable_discipline():
    assert variables(parse("q1*q2 + 1")) == {"q1", "q2"}
    with pytest.raises(MixedVariableError):
        lower(parse("q + q1"))
    with pytest.raises(MixedVariableError):
        lower1(parse("q1"))
    with pytest.raises(MixedVariableError):
        lower2(parse("q"))
    # constants lower to the one-variable ring by default, both lowerers accept
    assert lower(parse("i + 1")) == Poly1([Quaternion(1, 1, 0, 0)])
    assert lower2(parse("i + 1")) == Poly2.const(Quaternion(1, 1, 0, 0))


def test_pow_validation():
    with pytest.raises(ExprSyntaxError):
        parse("q^(2)")
    with pytest.raises(ExprSyntaxError):
        parse("q^-1")
    with pytest.raises(ExprSyntaxError):
        parse("q^1/2")
    assert lower1(parse("q^0")) == ONE_P


def test_error_offsets_and_expected_sets():
    with pytest.raises(ExprSyntaxError) as info:
        parse("q1 + ")
    assert info.value.offset == 5
    assert "(" in info.value.expected
    with pytest.raises(ExprSyntaxError) as info:
        parse("(q1 + i")
    assert info.value.offset == 7
    assert info.value.expected == (")",)
    with pytest.raises(ExprSyntaxError) as info:
        parse("q1 $ i")
    assert info.value.offset == 3
    with pytest.raises(ExprSyntaxError) as info:
        parse("foo(q)")
    assert info.value.offset == 0
    with pytest.raises(ExprSyntaxError):
        parse("1/0")


def test_print_examples():
    assert print_poly(Poly1([K - J])) == "-1j + 1k"
    assert print_poly(Poly2()) == "0"
    assert print_poly(ZERO_P) == "0"
    assert print_poly(ONE_P) == "1"
    p = lower(parse("(q1-i)*(q2-j)"))
    assert print_poly(p) == "1k - q2*1i - q1*1j + q1*q2"
    assert print_latex(p) == "1k - q_2\\,1i - q_1\\,1j + q_1q_2"
    assert print_latex(Poly2()) == "0"
    assert print_latex(lower2(parse("3/2*q1^2"))) == "q_1^{2}\\,\\tfrac{3}{2}"
    for text, plain, latex in (
        (
            "q1^2*q2^3*(1/2 - 3i + k)",
            "q1^2*q2^3*(1/2 - 3i + 1k)",
            "q_1^{2}q_2^{3}\\,\\left(\\tfrac{1}{2} - 3i + 1k\\right)",
        ),
        (
            "-3/4*q^3 + q*(2 - j)",
            "q*(2 - 1j) - q^3*3/4",
            "q\\,\\left(2 - 1j\\right) - q^{3}\\,\\tfrac{3}{4}",
        ),
        (
            "q2^2*(-5/2) - q1*q2*(i + j)",
            "-q2^2*5/2 + q1*q2*(-1i - 1j)",
            "-q_2^{2}\\,\\tfrac{5}{2} + q_1q_2\\,\\left(-1i - 1j\\right)",
        ),
    ):
        p = lower(parse(text))
        assert (print_poly(p), print_latex(p)) == (plain, latex)


def test_round_trip_random_poly2():
    rng = random.Random(97)
    for _ in range(100):
        grid = [[rand_quat(rng) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 4))]
        p = Poly2(grid)
        assert lower2(parse(print_poly(p))) == p


def test_round_trip_random_poly1():
    rng = random.Random(98)
    for _ in range(100):
        p = Poly1([rand_quat(rng) for _ in range(rng.randint(1, 6))])
        assert lower1(parse(print_poly(p))) == p


def test_overlong_number_literals_are_syntax_errors():
    # int() refuses more than 4300 digits by default; the parser stays total
    for text in ("9" * 5000, "1/" + "7" * 5000, "q^" + "2" * 5000):
        with pytest.raises(ExprSyntaxError):
            parse(text)
    assert lower1(parse("q^2 + 0/7")) == lower1(parse("q^2"))
    with pytest.raises(ExprSyntaxError, match="zero denominator"):
        parse("1/000")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_parser_totality_text(blob):
    try:
        lower(parse(blob))
    except (ExprSyntaxError, MixedVariableError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40))
def test_parser_totality_bytes(blob):
    text = blob.decode("latin-1")
    try:
        parse(text)
    except ExprSyntaxError:
        pass


def test_deep_nesting_is_rejected_not_crashed():
    with pytest.raises(ExprSyntaxError):
        parse("(" * 5000 + "q" + ")" * 5000)
    with pytest.raises(ExprSyntaxError):
        parse("-" * 5000 + "q")


def test_manual_paren_and_symm_nodes_lower():
    tree = Paren(Symm(Sub(Var("q1"), UnitLit("i"))))
    two_var = lower(tree)
    assert two_var == lower2(parse("symm(q1 - i)"))
    assert two_var.is_real()
    assert lower(Conj(UnitLit("i"))) == Poly1([-I])


def test_poly_json_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        p1 = Poly1([rand_quat(rng) for _ in range(rng.randint(0, 4))])
        assert poly1_from_json(json.loads(json.dumps(poly1_to_json(p1)))) == p1
        p2 = Poly2([[rand_quat(rng) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 3))])
        assert poly2_from_json(json.loads(json.dumps(poly2_to_json(p2)))) == p2


def test_json_schema_validation():
    good = poly1_to_json(ONE_P)
    with pytest.raises(SchemaError):
        poly1_from_json({**good, "version": 99})
    with pytest.raises(SchemaError):
        poly1_from_json({**good, "schema": "skewres/poly2"})
    with pytest.raises(SchemaError):
        poly1_from_json({**good, "coeffs": [[1, 2, 3]]})
    with pytest.raises(SchemaError):
        poly1_from_json({**good, "coeffs": [["x", 0, 0, 0]]})
    with pytest.raises(SchemaError):
        poly1_from_json("not a dict")
    with pytest.raises(SchemaError):
        poly2_from_json({"schema": "skewres/poly2", "version": 1, "grid": "no"})


def test_matrix_and_report_json():
    p = lower2(parse("(q1-i)*(q2-j)"))
    q = lower2(parse("(q1-i)*(q2-k)"))
    rep = resultant(p, q, "q2")
    mat = rep.sylvester
    doc = json.loads(json.dumps(matrix_to_json(mat)))
    back = matrix_from_json(doc)
    assert back.entries == mat.entries
    rj = report_to_json(rep)
    assert rj["schema"] == "skewres/resultant"
    assert rj["wrt"] == "q2"
    assert rj["is_zero"] is False
    assert rj["sdet"]["num"] == ["2", "0", "4", "0", "2"]
    assert rj["representative"] is not None
    assert report_to_json(resultant(p, q, "q1"))["is_zero"] is True
