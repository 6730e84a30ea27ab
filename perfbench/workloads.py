"""The four workloads: seeded input generators, the timed request, and the
independent check of each result.

Each workload is a fixed cycle of request slots. A slot fixes the request
kind and the degrees of its inputs; the seed draws the coefficients. The
Sylvester order and the entry degrees decide nearly all of the cost of a
request, so fixing them per slot keeps the mix, and with it every latency
percentile, the same from seed to seed, while the seed still changes every
input. The slots are ordered so that the median and the 90th percentile fall
inside a group of slots of one shape rather than on the edge between two.

The generators copy the distributions of the acceptance tests (small integer
quaternion coefficients, planted linear left factors, left fractions of
degree at most one) instead of importing them, so a change to the tests does
not move the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import skewres
from skewres import VAR_Q1, VAR_Q2, OreFrac, Poly1, Poly2, Quaternion, RealPoly, SkewMatrix

import oracle
from oracle import Q0, Q1, qadd, qmul, qnorm, quat

# ---------------------------------------------------------------------------
# Random inputs (copied from the acceptance generators)


def rand_quat(rng, span=2) -> Quaternion:
    return Quaternion(*(rng.randint(-span, span) for _ in range(4)))


def rand_nonzero_quat(rng, span=2) -> Quaternion:
    while True:
        c = rand_quat(rng, span)
        if c:
            return c


def rand_poly2(rng, d1: int, d2: int, span=2) -> Poly2:
    while True:
        p = Poly2([[rand_quat(rng, span) for _ in range(d2 + 1)] for _ in range(d1 + 1)])
        if p.deg_q1 == d1 and p.deg_q2 == d2:
            return p


def rand_poly1(rng, deg: int, span=2) -> Poly1:
    """A one-variable polynomial of exactly this degree."""
    coeffs = [rand_quat(rng, span) for _ in range(deg)] + [rand_nonzero_quat(rng, span)]
    return Poly1(coeffs)


def rand_frac(rng, den_deg: int, num_deg: int = 1) -> OreFrac:
    return OreFrac(rand_poly1(rng, den_deg), rand_poly1(rng, num_deg))


def bidegree(wrt: str, d_wrt: int, d_other: int) -> tuple[int, int]:
    return (d_wrt, d_other) if wrt == "q1" else (d_other, d_wrt)


def other(wrt: str) -> str:
    return "q2" if wrt == "q1" else "q1"


def linear(var: str, a: Quaternion) -> Poly2:
    return (VAR_Q1 if var == "q1" else VAR_Q2) - Poly2.const(a)


def rand_point(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


# ---------------------------------------------------------------------------
# Serialization for digests and bit counts (independent of skewres printing)


def text(obj) -> str:
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, Quaternion):
        return f"<{obj.w},{obj.x},{obj.y},{obj.z}>"
    if isinstance(obj, (Poly1, RealPoly)):
        return "P" + text(list(obj.coeffs))
    if isinstance(obj, Poly2):
        return "G" + text([list(row) for row in obj.coeffs])
    if isinstance(obj, OreFrac):
        return f"F({text(obj.den)}\\{text(obj.num)})"
    if isinstance(obj, SkewMatrix):
        return "M" + text([list(row) for row in obj.entries])
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(text(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return json.dumps(obj, sort_keys=True)
    if isinstance(obj, Expr):
        return obj.text()
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"no text form for {type(obj).__name__}")


def rationals(obj):
    """Every rational inside a result, for output_bits."""
    if obj is None or isinstance(obj, (bool, str, dict)):
        return
    if isinstance(obj, Quaternion):
        yield from (obj.w, obj.x, obj.y, obj.z)
    elif isinstance(obj, (Poly1, RealPoly)):
        for c in obj.coeffs:
            yield from rationals(c)
    elif isinstance(obj, Poly2):
        for row in obj.coeffs:
            for c in row:
                yield from rationals(c)
    elif isinstance(obj, OreFrac):
        yield from rationals(obj.den)
        yield from rationals(obj.num)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from rationals(x)
    else:
        yield obj


def grid_of(p: Poly2) -> list:
    return [list(row) for row in p.coeffs]


def frac_at(f: OreFrac, t: Fraction):
    return oracle.frac_at(f.den.coeffs, f.num.coeffs, t)


def sdet_at(num: RealPoly, den: RealPoly, t: Fraction):
    d = oracle.eval_real(den.coeffs, t)
    return None if d == 0 else oracle.eval_real(num.coeffs, t) / d


def json_matches(doc_grid, obj_grid) -> bool:
    if len(doc_grid) != len(obj_grid):
        return False
    return all(
        len(dr) == len(orow) and all(quat(a) == quat(b) for a, b in zip(dr, orow))
        for dr, orow in zip(doc_grid, obj_grid)
    )


class Request:
    __slots__ = ("kind", "args")

    def __init__(self, kind: str, **args):
        self.kind = kind
        self.args = args

    def text(self) -> str:
        return self.kind + text([self.args[k] for k in sorted(self.args)])


class Workload:
    """One cycle of slots; subclasses define make, run and check."""

    name = ""
    slots: tuple = ()
    # The first `fixed_cycles` cycles are the fixed request set of a seed:
    # output_bits, the digests and every traced count are taken over them.
    fixed_cycles = 2

    def make_cycle(self, rng) -> list:
        return [self.make(slot, idx, rng) for idx, slot in enumerate(self.slots)]

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out, rng) -> bool:
        raise NotImplementedError

    def result_text(self, out) -> str:
        return text(out)

    def output_bits(self, out) -> int:
        return sum(oracle.bits(r) for r in rationals(out))


# ---------------------------------------------------------------------------
# sdet_sweep: resultant, then is_zero and sdet, on random bivariate pairs


class SdetSweep(Workload):
    """Sylvester orders 2 to 6 from bidegrees 1 to 3; two slots in ten are
    discriminant pairs (p, dp/d other), paired crosswise as skewres's own
    discriminants are. wrt alternates, so both variables are eliminated."""

    name = "sdet_sweep"
    fixed_cycles = 2
    # ("pair", deg_wrt p, deg_other p, deg_wrt q, deg_other q)
    # ("disc", deg_wrt p, deg_other p)
    slots = (
        ("pair", 1, 1, 1, 2),  # order 2
        ("pair", 1, 2, 2, 2),  # order 3
        ("pair", 1, 1, 3, 1),  # order 4
        ("disc", 2, 1),  # order 4
        ("pair", 2, 3, 1, 3),  # order 3, median falls in this pair of slots
        ("pair", 1, 3, 2, 3),  # order 3
        ("disc", 2, 2),  # order 4
        ("pair", 2, 1, 3, 1),  # order 5
        ("pair", 3, 1, 3, 1),  # order 6, p90 falls in this pair of slots
        ("pair", 3, 1, 3, 1),  # order 6
    )

    def make(self, slot, idx, rng):
        wrt = "q1" if idx % 2 == 0 else "q2"
        p = rand_poly2(rng, *bidegree(wrt, slot[1], slot[2]))
        if slot[0] == "disc":
            q = p.partial(other(wrt))
        else:
            q = rand_poly2(rng, *bidegree(wrt, slot[3], slot[4]))
        return Request("sdet", p=p, q=q, wrt=wrt)

    def run(self, req):
        a = req.args
        r = skewres.resultant(a["p"], a["q"], a["wrt"])
        num, den = r.sdet
        return (r.is_zero, num, den)

    def check(self, req, out, rng) -> bool:
        a = req.args
        is_zero, num, den = out
        if is_zero != num.is_zero:
            return False
        for _ in range(2):
            t = rand_point(rng)
            want = oracle.complex_image_det(
                oracle.sylvester_at(grid_of(a["p"]), grid_of(a["q"]), a["wrt"], t)
            )
            if sdet_at(num, den, t) != want:
                return False
        return True


# ---------------------------------------------------------------------------
# certificates: the library side of `skewres res`, `kernel` and `bezout`


class Certificates(Workload):
    """Bidegrees 1 or 2. Half the pairs share a planted linear left factor
    and go to kernel_cofactors; the other half are random and go to
    resultant, bezout_certificate and .representative. Every result is
    serialized to its JSON document, as the CLI would."""

    name = "certificates"
    fixed_cycles = 10  # certificate sizes vary most from seed to seed
    # ("kernel", deg_wrt cofactor, deg_other cofactor): p = l*c1, q = l*c2
    # ("bezout", deg_wrt p, deg_other p, deg_wrt q, deg_other q)
    slots = (
        ("kernel", 0, 1),  # order 2
        ("kernel", 0, 1),
        ("kernel", 0, 2),  # order 2
        ("kernel", 0, 2),
        ("bezout", 1, 1, 1, 1),  # order 2, the median falls in this pair
        ("bezout", 1, 1, 1, 1),
        ("bezout", 1, 2, 1, 1),  # order 2, higher entry degree
        ("kernel", 1, 1),  # order 4
        ("bezout", 2, 1, 1, 1),  # order 3, p90 falls in this pair
        ("bezout", 2, 1, 1, 1),
    )

    def make(self, slot, idx, rng):
        wrt = "q1" if idx % 2 == 0 else "q2"
        if slot[0] == "kernel":
            l = linear(wrt, rand_quat(rng))
            p = l * rand_poly2(rng, *bidegree(wrt, slot[1], slot[2]))
            q = l * rand_poly2(rng, *bidegree(wrt, slot[1], slot[2]))
            return Request("kernel", p=p, q=q, wrt=wrt)
        while True:
            p = rand_poly2(rng, *bidegree(wrt, slot[1], slot[2]))
            q = rand_poly2(rng, *bidegree(wrt, slot[3], slot[4]))
            if nonzero_resultant(p, q, wrt, rng):
                return Request("bezout", p=p, q=q, wrt=wrt)

    def run(self, req):
        a = req.args
        p, q, wrt = a["p"], a["q"], a["wrt"]
        if req.kind == "kernel":
            cert = skewres.kernel_cofactors(p, q, wrt)
            docs = (skewres.poly2_to_json(cert.h), skewres.poly2_to_json(cert.k))
            return (cert.h, cert.k, docs)
        r = skewres.resultant(p, q, wrt)
        cert = skewres.bezout_certificate(p, q, wrt)
        rep = r.representative
        docs = (
            skewres.report_to_json(r),
            skewres.poly2_to_json(cert.h),
            skewres.poly2_to_json(cert.k),
            skewres.poly1_to_json(cert.target),
        )
        num, den = r.sdet
        return (num, den, cert.h, cert.k, cert.target, rep, docs)

    def check(self, req, out, rng) -> bool:
        a = req.args
        p, q, wrt = a["p"], a["q"], a["wrt"]
        pg, qg = grid_of(p), grid_of(q)
        if req.kind == "kernel":
            h, k, docs = out
            if h.is_zero or k.is_zero:
                return False
            if h.deg(wrt) >= q.deg(wrt) or k.deg(wrt) >= p.deg(wrt):
                return False
            if not (json_matches(docs[0]["grid"], grid_of(h)) and json_matches(docs[1]["grid"], grid_of(k))):
                return False
            for _ in range(2):
                t1, t2 = rand_point(rng), rand_point(rng)
                lhs = qadd(
                    qmul(oracle.eval_grid(pg, t1, t2), oracle.eval_grid(grid_of(h), t1, t2)),
                    qmul(oracle.eval_grid(qg, t1, t2), oracle.eval_grid(grid_of(k), t1, t2)),
                )
                if lhs != Q0:
                    return False
                # a planted common factor means a zero resultant
                t_o = t2 if wrt == "q1" else t1
                if oracle.complex_image_det(oracle.sylvester_at(pg, qg, wrt, t_o)) != 0:
                    return False
            return True
        num, den, h, k, target, rep, docs = out
        if target.is_zero or num.is_zero:
            return False
        if not (h.is_zero or h.deg(wrt) < q.deg(wrt)) or not (k.is_zero or k.deg(wrt) < p.deg(wrt)):
            return False
        report, hdoc, kdoc, tdoc = docs
        if report["sdet"]["num"] != [str(c) for c in num.coeffs] or report["is_zero"]:
            return False
        if not (json_matches(hdoc["grid"], grid_of(h)) and json_matches(kdoc["grid"], grid_of(k))):
            return False
        if not json_matches([tdoc["coeffs"]], [list(target.coeffs)]):
            return False
        for _ in range(2):
            t1, t2 = rand_point(rng), rand_point(rng)
            t_o = t2 if wrt == "q1" else t1
            lhs = qadd(
                qmul(oracle.eval_grid(pg, t1, t2), oracle.eval_grid(grid_of(h), t1, t2)),
                qmul(oracle.eval_grid(qg, t1, t2), oracle.eval_grid(grid_of(k), t1, t2)),
            )
            if lhs != oracle.eval_coeffs(target.coeffs, t_o):
                return False
            d = oracle.complex_image_det(oracle.sylvester_at(pg, qg, wrt, t_o))
            if sdet_at(num, den, t_o) != d:
                return False
            # a member of the class has the class's reduced norm
            if rep is not None and qnorm(oracle.eval_coeffs(rep.coeffs, t_o)) != d:
                return False
        return True

    def output_bits(self, out) -> int:
        return super().output_bits(out[:-1])  # the JSON documents repeat the objects

    def result_text(self, out) -> str:
        return text(out[:-1]) + text(list(out[-1]))


def nonzero_resultant(p: Poly2, q: Poly2, wrt: str, rng) -> bool:
    """True when the Sylvester determinant is nonzero at a random point,
    which proves the resultant nonzero."""
    t = rand_point(rng)
    return oracle.complex_image_det(oracle.sylvester_at(grid_of(p), grid_of(q), wrt, t)) != 0


# ---------------------------------------------------------------------------
# ore_linear_algebra: Cramer solves and determinants over the Ore field


class OreLinearAlgebra(Workload):
    """cramer_solve and det on n x n matrices of left fractions, n = 1, 2, 2,
    3, 1, 2, 2 per cycle, plus field-op quadruples (add, mul, inv, eq).
    Entries have degree at most 1. Which entries carry a degree-1
    denominator is fixed per slot, since that pattern sets the cost of a
    solve; at least one does, so det takes the elimination route."""

    name = "ore_linear_algebra"
    fixed_cycles = 3
    # ("solve", n, pattern) or ("field",). A 3x3 solve costs about six 2x2
    # solves and fifty field-op quadruples, and its cost varies most with the
    # seed, so there is one per cycle, above the 90th percentile. The four
    # 2x2 solves hold p90 and the quadruples hold the median.
    slots = (
        ("solve", 1, "all"),
        ("field",),
        ("solve", 2, "col0"),
        ("field",),
        ("field",),
        ("solve", 2, "col0"),
        ("field",),
        ("field",),
        ("solve", 3, "corner"),
        ("field",),
        ("solve", 1, "all"),
        ("field",),
        ("field",),
        ("solve", 2, "col0"),
        ("field",),
        ("field",),
        ("solve", 2, "col0"),
        ("field",),
        ("field",),
        ("field",),
    )

    @staticmethod
    def _den_deg(pattern: str, i: int, j: int) -> int:
        if pattern == "all":
            return 1
        if pattern == "col0":
            return 1 if j == 0 else 0
        return 1 if (i, j) == (0, 0) else 0

    def make(self, slot, idx, rng):
        if slot[0] == "field":
            return Request("field", x=rand_frac(rng, 1), y=rand_frac(rng, 1))
        _, n, pattern = slot
        while True:
            m = SkewMatrix(
                [[rand_frac(rng, self._den_deg(pattern, i, j)) for j in range(n)] for i in range(n)]
            )
            if nonsingular(m, rng):
                break
        rhs = [rand_frac(rng, 0) for _ in range(n)]
        return Request("solve", m=m, rhs=rhs)

    def run(self, req):
        a = req.args
        if req.kind == "field":
            x, y = a["x"], a["y"]
            s = x + y
            return (s, x * y, x.inv(), x == y, (s - y) == x)
        xs = skewres.cramer_solve(a["m"], a["rhs"])
        dc = skewres.det(a["m"])
        num, den = dc.sdet
        return (xs, num, den, dc.is_zero)

    def check(self, req, out, rng) -> bool:
        a = req.args
        if req.kind == "field":
            x, y = a["x"], a["y"]
            s, m, i, eq_xy, eq_back = out
            if eq_back is not True:
                return False
            points = 0
            differ = False
            while points < 2:
                t = rand_point(rng)
                vals = [frac_at(f, t) for f in (x, y, s, m, i)]
                if any(v is None for v in vals):
                    continue
                xv, yv, sv, mv, iv = vals
                if sv != qadd(xv, yv) or mv != qmul(xv, yv) or qmul(iv, xv) != Q1:
                    return False
                differ = differ or xv != yv
                points += 1
            return eq_xy is (not differ)
        xs, num, den, is_zero = out
        m, rhs = a["m"], a["rhs"]
        if is_zero or len(xs) != m.nrows:
            return False
        points = 0
        for _ in range(50):
            if points == 2:
                break
            t = rand_point(rng)
            mat = [[frac_at(e, t) for e in row] for row in m.entries]
            xv = [frac_at(f, t) for f in xs]
            bv = [frac_at(f, t) for f in rhs]
            sd = sdet_at(num, den, t)
            if sd is None or any(v is None for v in xv + bv) or any(v is None for row in mat for v in row):
                continue
            for row, b in zip(mat, bv):
                acc = Q0
                for e, x in zip(row, xv):
                    acc = qadd(acc, qmul(e, x))
                if acc != b:
                    return False
            if oracle.complex_image_det(mat) != sd:
                return False
            points += 1
        return points == 2


def nonsingular(m: SkewMatrix, rng) -> bool:
    """True when the complex image is invertible at a random point."""
    for _ in range(20):
        t = rand_point(rng)
        mat = [[frac_at(e, t) for e in row] for row in m.entries]
        if all(v is not None for row in mat for v in row):
            return oracle.complex_image_det(mat) != 0
    return False


# ---------------------------------------------------------------------------
# cli: the command-line tool as a subprocess


def quat_text(c) -> str:
    pieces = []
    for value, unit in zip(c, ("", "i", "j", "k")):
        if value:
            sign = "-" if value < 0 else "+"
            pieces.append((sign, f"{abs(value)}{unit}"))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return out + "".join(f" {s} {p}" for s, p in pieces[1:])


class Expr:
    """A product of linear factors (var - a), kept with its own evaluator."""

    def __init__(self, factors):
        self.factors = factors  # list of (var, (w, x, y, z) ints)

    def text(self) -> str:
        parts = []
        run = []
        for f in self.factors + [None]:
            if run and (f is None or f != run[0]):
                var, a = run[0]
                base = f"({var} - ({quat_text(a)}))"
                parts.append(base if len(run) == 1 else f"{base}^{len(run)}")
                run = []
            if f is not None:
                run.append(f)
        return "*".join(parts)

    def at(self, point: dict) -> tuple:
        acc = Q1
        for var, a in self.factors:
            acc = qmul(acc, qadd((point[var], 0, 0, 0), tuple(-Fraction(v) for v in a)))
        return acc

    def views(self, wrt: str, t: Fraction) -> list:
        """Coefficients in wrt (ascending) with the other variable at t."""
        poly = [Q1]
        for var, a in self.factors:
            neg_a = tuple(-Fraction(v) for v in a)
            if var == wrt:
                # poly * (wrt - a), the variable central
                shifted = [Q0] + poly
                scaled = [qmul(c, neg_a) for c in poly] + [Q0]
                poly = [qadd(x, y) for x, y in zip(shifted, scaled)]
            else:
                poly = [qmul(c, qadd((t, 0, 0, 0), neg_a)) for c in poly]
        return poly

    def sylvester_det(self, other_expr, wrt: str, t: Fraction) -> Fraction:
        pv, qv = self.views(wrt, t), other_expr.views(wrt, t)
        n, m = len(pv) - 1, len(qv) - 1
        rows = []
        for k in range(n + m):
            row = [pv[k - j] if 0 <= k - j <= n else Q0 for j in range(m)]
            row += [qv[k - j] if 0 <= k - j <= m else Q0 for j in range(n)]
            rows.append(row)
        return oracle.complex_image_det(rows)


def rand_small_quat(rng) -> tuple:
    while True:
        a = tuple(rng.randint(-2, 2) for _ in range(4))
        if any(a):
            return a


_TEXT_POLY = re.compile(r"[0-9q/^*+\- ]+")


def eval_printed(text_out: str, point: dict):
    """Evaluate a printed real polynomial (canonical skewres text)."""
    if not _TEXT_POLY.fullmatch(text_out) or re.search(r"q(?![12^*\s]|$)", text_out):
        return None
    expr = re.sub(r"(?<![q\d])(\d+)", r"F(\1)", text_out).replace("^", "**")
    env = {"F": Fraction, "q": point.get("q"), "q1": point.get("q1"), "q2": point.get("q2")}
    return eval(expr, {"__builtins__": {}}, env)  # charset checked above


class Cli(Workload):
    """`python -m skewres.cli res|bezout|kernel|symm --json` as a subprocess
    on short expressions, one request in ten malformed (exit status 1). One
    symm request per cycle prints text, so the printer runs too. Each request
    pays the interpreter start and the package import, as a user does."""

    name = "cli"
    fixed_cycles = 10  # the traced run calls the CLI in process, which is cheap
    slots = (
        ("malformed",),
        ("symm", "q1q2", "json"),
        ("symm", "q", "text"),
        ("kernel", "none"),
        ("res", "q1"),
        ("res", "q2"),  # the median falls among the res requests
        ("res", "shared"),
        ("kernel", "planted"),
        ("bezout", "q2"),  # p90 falls in this pair; eliminating q2 from
        ("bezout", "q2"),  # these pairs is the slower direction
    )
    _MALFORMED = (
        "(q1 - (1 + 2i)",
        "q1 ** q2",
        "2 i*q1 + q2",
        "q1*q2 + q",
        "(q1 - 1j)^-1",
        "symm(q1 +)",
    )

    def __init__(self, root: str, in_process: bool = False):
        self.root = root
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def make(self, slot, idx, rng):
        kind = slot[0]
        if kind == "malformed":
            p = rng.choice(self._MALFORMED)
            wrt = rng.choice(("q1", "q2"))
            return Request("malformed", argv=["res", "--json", "--wrt", wrt, p, "q1*q2"], expect=1)
        if kind == "symm":
            a, b = rand_small_quat(rng), rand_small_quat(rng)
            if slot[1] == "q":
                e = Expr([("q", a), ("q", a), ("q", b)])
            else:
                e = Expr([("q1", a), ("q2", b)])
            flags = ["--json"] if slot[2] == "json" else []
            return Request("symm", argv=["symm", *flags, e.text()], expect=0, p=e, mode=slot[2])
        while True:
            a, b, c, d = (rand_small_quat(rng) for _ in range(4))
            if kind == "kernel" and slot[1] == "planted":
                p, q, wrt = Expr([("q1", a), ("q2", b)]), Expr([("q1", a), ("q2", c)]), "q1"
                if b != c:
                    break
                continue
            if kind == "res" and slot[1] == "shared":
                p, q, wrt = Expr([("q1", a), ("q2", b)]), Expr([("q1", a), ("q2", c)]), "q2"
            else:
                wrt = slot[1] if slot[1] in ("q1", "q2") else rng.choice(("q1", "q2"))
                p, q = Expr([("q1", a), ("q2", b)]), Expr([("q1", c), ("q2", d)])
            if p.sylvester_det(q, wrt, rand_point(rng)) != 0:
                break
        argv = [kind, "--json", "--wrt", wrt, p.text(), q.text()]
        return Request(kind, argv=argv, expect=0, p=p, q=q, wrt=wrt, planted=slot[1] == "planted")

    def run(self, req):
        argv = req.args["argv"]
        if self.in_process:
            from skewres.cli import main

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            return (code, out.getvalue())
        proc = subprocess.run(
            [sys.executable, "-m", "skewres.cli", *argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.root,
            timeout=120,
        )
        return (proc.returncode, proc.stdout)

    def check(self, req, out, rng) -> bool:
        code, stdout = out
        a = req.args
        if code != a["expect"]:
            return False
        if req.kind == "malformed":
            return stdout == ""
        if req.kind == "symm" and a["mode"] == "text":
            for _ in range(2):
                point = {"q": rand_point(rng)}
                if eval_printed(stdout.strip(), point) != qnorm(a["p"].at(point)):
                    return False
            return True
        doc = json.loads(stdout)
        for _ in range(2):
            point = {"q1": rand_point(rng), "q2": rand_point(rng)}
            if req.kind == "symm":
                want = (qnorm(a["p"].at(point)), 0, 0, 0)
                if oracle.eval_grid(doc["grid"], point["q1"], point["q2"]) != want:
                    return False
                continue
            p, q, wrt = a["p"], a["q"], a["wrt"]
            t_o = point[other(wrt)]
            d = p.sylvester_det(q, wrt, t_o)
            if req.kind == "res":
                num = oracle.eval_real(doc["sdet"]["num"], t_o)
                den = oracle.eval_real(doc["sdet"]["den"], t_o)
                if den == 0 or num / den != d or doc["is_zero"] != (doc["sdet"]["num"] == []):
                    return False
            elif req.kind == "kernel":
                if not a["planted"]:
                    if doc["kernel"] is not None:
                        return False
                    continue
                h, k = doc["kernel"]["h"]["grid"], doc["kernel"]["k"]["grid"]
                lhs = qadd(
                    qmul(p.at(point), oracle.eval_grid(h, point["q1"], point["q2"])),
                    qmul(q.at(point), oracle.eval_grid(k, point["q1"], point["q2"])),
                )
                if lhs != Q0 or d != 0:
                    return False
            else:  # bezout
                h, k = doc["h"]["grid"], doc["k"]["grid"]
                target = oracle.eval_coeffs(doc["target"]["coeffs"], t_o)
                lhs = qadd(
                    qmul(p.at(point), oracle.eval_grid(h, point["q1"], point["q2"])),
                    qmul(q.at(point), oracle.eval_grid(k, point["q1"], point["q2"])),
                )
                if lhs != target or not doc["target"]["coeffs"]:
                    return False
        return True

    def result_text(self, out) -> str:
        return f"{out[0]}:{out[1]}"

    def output_bits(self, out) -> int:
        total = 0
        for m in re.finditer(r'"(-?\d+(?:/\d+)?)"', out[1]):
            total += oracle.bits(m.group(1))
        return total


def make_workloads(root: str) -> dict:
    return {
        w.name: w
        for w in (SdetSweep(), Certificates(), OreLinearAlgebra(), Cli(root))
    }
