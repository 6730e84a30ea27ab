"""Surface syntax and JSON forms for quaternionic polynomials.

The expression language is deliberately small: `*` always means the star
product, coefficients are quaternions assembled from rational literals and
the units i, j, k, and the variables are either the one-variable `q` or the
pair `q1`, `q2`. Canonical printing puts coefficients to the right of the
monomials, mirroring the q^n a_n normal form, and parse(print(p)) lowers
back to p exactly.
"""

from __future__ import annotations

from ._record import Record
from .errors import ExprSyntaxError, MixedVariableError, OutputTooLong, SchemaError
from .orefield import OreFrac
from .polyone import Poly1, RealPoly
from .polytwo import VAR_Q1, VAR_Q2, Poly2
from .quaternion import ONE, Quaternion, Rational

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# syntax trees


class RationalLit(Record):
    __slots__ = ("value",)  # Rational


class UnitLit(Record):
    __slots__ = ("name",)  # "i" | "j" | "k"


class Var(Record):
    __slots__ = ("name",)  # "q" | "q1" | "q2"


class Neg(Record):
    __slots__ = ("arg",)


class Add(Record):
    __slots__ = ("lhs", "rhs")


class Sub(Record):
    __slots__ = ("lhs", "rhs")


class StarMul(Record):
    __slots__ = ("lhs", "rhs")


class Pow(Record):
    __slots__ = ("base", "exponent")  # exponent: int


class Conj(Record):
    __slots__ = ("arg",)


class Symm(Record):
    __slots__ = ("arg",)


class Paren(Record):
    __slots__ = ("arg",)


# ---------------------------------------------------------------------------
# lexer

_UNITS = ("i", "j", "k")
_VARS = ("q", "q1", "q2")
_NAMES = ("conj", "symm")
_SYMBOLS = "+-*^()"
_DIGITS = "0123456789"


class _Token(Record):
    __slots__ = ("kind", "text", "start", "end")


def _tokenize(text: str) -> list[_Token]:
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch in _SYMBOLS:
            toks.append(_Token(ch, ch, pos, pos + 1))
            pos += 1
            continue
        # ASCII digits only: str.isdigit also accepts characters such as
        # superscript digits that int() rejects.
        if ch in _DIGITS:
            start = pos
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            if pos < n and text[pos] == "/":
                den_start = pos + 1
                if den_start < n and text[den_start] in _DIGITS:
                    pos = den_start
                    while pos < n and text[pos] in _DIGITS:
                        pos += 1
                    if not text[den_start:pos].strip("0"):
                        raise ExprSyntaxError("zero denominator in rational literal", start)
            toks.append(_Token("number", text[start:pos], start, pos))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            if word in _UNITS:
                toks.append(_Token("unit", word, start, pos))
            elif word in _VARS:
                toks.append(_Token("var", word, start, pos))
            elif word in _NAMES:
                toks.append(_Token("name", word, start, pos))
            else:
                raise ExprSyntaxError(f"unknown name {word!r}", start)
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    toks.append(_Token("end", "", n, n))
    return toks


# ---------------------------------------------------------------------------
# parser: additive < multiplicative < unary minus < power < atoms

_MAX_DEPTH = 200


class _Parser:
    __slots__ = ("toks", "pos")

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(f"unexpected {what}", tok.start, expected)

    def expr(self, depth=0):
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", self.peek().start)
        node = self.term(depth + 1)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term(depth + 1)
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self, depth):
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", self.peek().start)
        node = self.factor(depth + 1)
        while self.peek().kind == "*":
            self.take()
            node = StarMul(node, self.factor(depth + 1))
        return node

    def factor(self, depth):
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", self.peek().start)
        if self.peek().kind == "-":
            self.take()
            return Neg(self.factor(depth + 1))
        return self.power(depth + 1)

    def power(self, depth):
        node = self.atom(depth + 1)
        if self.peek().kind == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "number" or "/" in tok.text:
                self.fail(("non-negative integer exponent",))
            self.take()
            node = Pow(node, int(_rat_of_token(tok)))
        return node

    def atom(self, depth):
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", self.peek().start)
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            lit = RationalLit(_rat_of_token(tok))
            nxt = self.peek()
            # a unit glued to a number ("2i", "3/2k") is one literal factor
            if nxt.kind == "unit" and nxt.start == tok.end:
                self.take()
                return StarMul(lit, UnitLit(nxt.text))
            return lit
        if tok.kind == "unit":
            self.take()
            return UnitLit(tok.text)
        if tok.kind == "var":
            self.take()
            return Var(tok.text)
        if tok.kind == "name":
            self.take()
            if self.peek().kind != "(":
                self.fail(("(",))
            self.take()
            inner = self.expr(depth + 1)
            if self.peek().kind != ")":
                self.fail((")",))
            self.take()
            return Conj(inner) if tok.text == "conj" else Symm(inner)
        if tok.kind == "(":
            # grouping does not leave a Paren node behind; the constructor
            # stays available for hand-built trees and lowers transparently
            self.take()
            inner = self.expr(depth + 1)
            if self.peek().kind != ")":
                self.fail((")",))
            self.take()
            return inner
        self.fail(("number", "i/j/k", "q/q1/q2", "conj", "symm", "("))


def _rat_of_token(tok: _Token):
    try:
        if "/" in tok.text:
            num, den = tok.text.split("/")
            return Rational(int(num), int(den))
        return Rational(int(tok.text))
    except ValueError as exc:  # more digits than int() converts
        raise ExprSyntaxError(str(exc), tok.start) from None


def parse(text: str):
    """Parse the surface syntax into an Expr tree.

    Total on arbitrary strings: anything malformed raises ExprSyntaxError
    carrying the byte offset and the expected-token set.
    """
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.peek().kind != "end":
        parser.fail(("operator", "end of input"))
    return node


# ---------------------------------------------------------------------------
# lowering


def variables(node) -> frozenset:
    if isinstance(node, Var):
        return frozenset((node.name,))
    children = node._fields() if isinstance(node, Record) else ()
    return frozenset().union(*(variables(child) for child in children))


_UNIT_VALUES = {
    "i": Quaternion(0, 1, 0, 0),
    "j": Quaternion(0, 0, 1, 0),
    "k": Quaternion(0, 0, 0, 1),
}


def _lower_in(node, env: dict):
    if isinstance(node, RationalLit):
        return env["const"](Quaternion(node.value))
    if isinstance(node, UnitLit):
        return env["const"](_UNIT_VALUES[node.name])
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Paren):
        return _lower_in(node.arg, env)
    if isinstance(node, Neg):
        return -_lower_in(node.arg, env)
    if isinstance(node, Add):
        return _lower_in(node.lhs, env) + _lower_in(node.rhs, env)
    if isinstance(node, Sub):
        return _lower_in(node.lhs, env) - _lower_in(node.rhs, env)
    if isinstance(node, StarMul):
        return _lower_in(node.lhs, env) * _lower_in(node.rhs, env)
    if isinstance(node, Pow):
        return _lower_in(node.base, env).star_pow(node.exponent)
    if isinstance(node, Conj):
        return _lower_in(node.arg, env).conj()
    if isinstance(node, Symm):
        return env["symm"](_lower_in(node.arg, env))
    raise TypeError(f"not an expression node: {node!r}")


_ENV1 = {
    "const": Poly1.const,
    "q": Poly1((Quaternion(0), ONE)),
    "symm": lambda p: p.symm().to_poly1(),
}
_ENV2 = {
    "const": Poly2.const,
    "q1": VAR_Q1,
    "q2": VAR_Q2,
    "symm": lambda p: p.symm(),
}


def lower(node):
    """Expr -> Poly1 or Poly2 by its variable set; constants lower to Poly1."""
    used = variables(node)
    if "q" in used and used & {"q1", "q2"}:
        raise MixedVariableError("expression mixes q with q1/q2")
    if used <= {"q"}:
        return _lower_in(node, _ENV1)
    return _lower_in(node, _ENV2)


def lower1(node) -> Poly1:
    used = variables(node)
    if used - {"q"}:
        raise MixedVariableError("expected a polynomial in q alone")
    return _lower_in(node, _ENV1)


def lower2(node) -> Poly2:
    used = variables(node)
    if "q" in used:
        raise MixedVariableError("expected a polynomial in q1, q2")
    return _lower_in(node, _ENV2)


# ---------------------------------------------------------------------------
# canonical printer


def _digits(value) -> str:
    """str() of an integer or a rational, for every printer and JSON writer."""
    try:
        return str(value)
    except ValueError as exc:  # Python's limit on integer-to-text conversion, named in exc
        raise OutputTooLong(f"output number too long: {exc}") from None


def _latex_rat(value) -> str:
    num, slash, den = _digits(value).partition("/")
    return f"\\tfrac{{{num}}}{{{den}}}" if slash else num


# How one style writes a term: the format of a nonnegative rational, the
# names of q, q1 and q2, a power, the text between two variables and before
# a coefficient, and a group of several coefficient components.
_TEXT = (_digits, ("q", "q1", "q2"), "{}^{}", "*", "*", "({})")
_LATEX = (_latex_rat, ("q", "q_1", "q_2"), "{}^{{{}}}", "", "\\,", "\\left({}\\right)")


def _term_list(p) -> list[tuple[int, int, Quaternion]]:
    # graded lexicographic order on (n, m), constants first
    if isinstance(p, Poly1):
        return [(n, 0, c) for n, c in enumerate(p.coeffs) if c]
    terms = [(n, m, c) for n, row in enumerate(p.coeffs) for m, c in enumerate(row) if c]
    terms.sort(key=lambda t: (t[0] + t[1], t[0], t[1]))
    return terms


def _join_pieces(pieces: list[tuple[bool, str]]) -> str:
    out = []
    for idx, (negative, text) in enumerate(pieces):
        if idx == 0:
            out.append(f"-{text}" if negative else text)
        else:
            out.append(f" - {text}" if negative else f" + {text}")
    return "".join(out)


def _render(p, style) -> str:
    """Terms as signed pieces, each a monomial with its coefficient on the
    right: a coefficient of one component shares the term's sign, one of
    several is grouped, and a bare 1 is left out."""
    rat, (q, q1, q2), power, var_sep, coeff_sep, group = style
    one_var = isinstance(p, Poly1)
    pieces = []
    for n, m, c in _term_list(p):
        exps = ((q, n),) if one_var else ((q1, n), (q2, m))
        mono = var_sep.join(name if e == 1 else power.format(name, e) for name, e in exps if e)
        comp = [
            (v < 0, f"{rat(abs(v))}{u}")
            for v, u in ((c.w, ""), (c.x, "i"), (c.y, "j"), (c.z, "k"))
            if v
        ]
        if not mono:
            pieces.extend(comp)
        elif len(comp) == 1:
            negative, text = comp[0]
            pieces.append((negative, mono if text == "1" else f"{mono}{coeff_sep}{text}"))
        else:
            pieces.append((False, f"{mono}{coeff_sep}{group.format(_join_pieces(comp))}"))
    return _join_pieces(pieces) if pieces else "0"


def print_poly(p) -> str:
    """Canonical text form; parse(print_poly(p)) lowers back to p."""
    return _render(p, _TEXT)


def print_latex(p) -> str:
    """Plain LaTeX form of the same canonical ordering; no round-trip law."""
    return _render(p, _LATEX)


# ---------------------------------------------------------------------------
# JSON forms (versioned)


def _document(schema: str, **fields) -> dict:
    """A versioned JSON document: the schema/version header, then the fields."""
    return {"schema": f"skewres/{schema}", "version": SCHEMA_VERSION, **fields}


def _rat_value(raw):
    if isinstance(raw, bool):
        raise SchemaError(f"not a rational: {raw!r}")
    if isinstance(raw, int):
        return Rational(raw)
    if isinstance(raw, str):
        try:
            if "/" in raw:
                num, den = raw.split("/")
                return Rational(int(num), int(den))
            return Rational(int(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational: {raw!r}") from exc
    raise SchemaError(f"not a rational: {raw!r}")


def _json_int(digits: str) -> int:
    """parse_int for json.loads: an integer past Python's digit limit for
    int() is a schema error, not a bare ValueError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _quat_json(c: Quaternion) -> list[str]:
    return [_digits(c.w), _digits(c.x), _digits(c.y), _digits(c.z)]


def _quat_value(raw) -> Quaternion:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise SchemaError(f"quaternion must be a 4-element list, got {raw!r}")
    return Quaternion(*(_rat_value(v) for v in raw))


def _poly1_value(raw, field: str) -> Poly1:
    if not isinstance(raw, list):
        raise SchemaError(f"{field} must be a list")
    return Poly1([_quat_value(c) for c in raw])


def _real_json(rp: RealPoly) -> list[str]:
    return [_digits(c) for c in rp.coeffs]


def _sdet_json(sdet: tuple[RealPoly, RealPoly]) -> dict:
    num, den = sdet
    return {"num": _real_json(num), "den": _real_json(den)}


def _frac_json(f: OreFrac) -> dict:
    """A fraction by its left view d^{-1} n, as a matrix entry."""
    return {"den": [_quat_json(c) for c in f.den.coeffs], "num": [_quat_json(c) for c in f.num.coeffs]}


def _check_header(doc, schema: str):
    if not isinstance(doc, dict):
        raise SchemaError("document must be an object")
    if doc.get("schema") != schema:
        raise SchemaError(f"expected schema {schema!r}, got {doc.get('schema')!r}")
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported version {doc.get('version')!r}")


def poly1_to_json(p: Poly1) -> dict:
    return _document("poly1", coeffs=[_quat_json(c) for c in p.coeffs])


def poly1_from_json(doc) -> Poly1:
    _check_header(doc, "skewres/poly1")
    return _poly1_value(doc.get("coeffs"), "coeffs")


def poly2_to_json(p: Poly2) -> dict:
    return _document("poly2", grid=[[_quat_json(c) for c in row] for row in p.coeffs])


def poly2_from_json(doc) -> Poly2:
    _check_header(doc, "skewres/poly2")
    grid = doc.get("grid")
    if not isinstance(grid, list) or any(not isinstance(row, list) for row in grid):
        raise SchemaError("grid must be a list of rows")
    return Poly2([[_quat_value(c) for c in row] for row in grid])


def matrix_to_json(mat) -> dict:
    return _document("matrix", entries=[[_frac_json(e) for e in row] for row in mat.entries])


def matrix_from_json(doc):
    from .dieudonne import SkewMatrix

    _check_header(doc, "skewres/matrix")
    entries = doc.get("entries")
    if not isinstance(entries, list) or any(not isinstance(row, list) for row in entries):
        raise SchemaError("entries must be a list of rows")
    rows = []
    for row in entries:
        out = []
        for cell in row:
            if not isinstance(cell, dict) or set(cell) != {"den", "num"}:
                raise SchemaError("matrix entries need den and num")
            out.append(OreFrac(_poly1_value(cell["den"], "den"), _poly1_value(cell["num"], "num")))
        rows.append(out)
    return SkewMatrix(rows)


def report_to_json(report) -> dict:
    """ResultantReport as a JSON document, representative included."""
    rep = report.representative
    return _document(
        "resultant",
        wrt=report.wrt,
        size=report.sylvester.nrows,
        is_zero=report.is_zero,
        sdet=_sdet_json(report.sdet),
        sylvester=matrix_to_json(report.sylvester),
        representative=None if rep is None else poly1_to_json(rep),
    )
