"""Command-line front end: parse, compute, report.

Exit codes: 0 success, 1 parse or validation failure, 2 hypothesis violation
(a non-commuting evaluation point, or a Bezout request on a vanishing
resultant). All numbers printed are exact rationals.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dieudonne import det
from .errors import (
    DegreeTooLow,
    DimensionMismatch,
    ExprSyntaxError,
    MixedVariableError,
    NonCommutingPoint,
    NonSquare,
    SchemaError,
    SingularSystem,
    ZeroPolynomial,
)
from .exprio import (
    SCHEMA_VERSION,
    _quat_json,
    _real_json,
    lower,
    lower2,
    matrix_from_json,
    parse,
    poly1_to_json,
    poly2_to_json,
    print_latex,
    print_poly,
    report_to_json,
)
from .polyone import Poly1, RealPoly
from .polytwo import Poly2
from .quaternion import Quaternion
from .resultant import (
    _other,
    bezout_certificate,
    check_common_zero,
    check_left_factor_criterion,
    discriminant_q1,
    discriminant_q2,
    kernel_cofactors,
    resultant,
)

_VALIDATION_ERRORS = (
    ExprSyntaxError,
    MixedVariableError,
    SchemaError,
    ZeroPolynomial,
    DegreeTooLow,
    DimensionMismatch,
    NonSquare,
    ValueError,
)


class _CliError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse normally exits with code 2; the contract reserves 2 for
    # hypothesis violations, so argv problems are funneled into code 1
    def error(self, message):
        raise _CliError(message)


def _parse_poly2(text: str) -> Poly2:
    return lower2(parse(text))


def _parse_any(text: str):
    return lower(parse(text))


def _parse_quat(text: str) -> Quaternion:
    value = lower(parse(text))
    if isinstance(value, Poly2) or value.degree > 0:
        raise _CliError(f"not a constant: {text!r}")
    return value.coeff(0)


def _parse_point(text: str) -> tuple[Quaternion, Quaternion]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError("--at expects two comma-separated components")
    return _parse_quat(parts[0]), _parse_quat(parts[1])


def _render1(p: Poly1, var: str, latex: bool) -> str:
    shown = Poly2.from_poly1(p, var) if var in ("q1", "q2") else p
    return print_latex(shown) if latex else print_poly(shown)


def _render_real(rp: RealPoly, var: str, latex: bool) -> str:
    return _render1(rp.to_poly1(), var, latex)


def _render_quat(c: Quaternion, latex: bool) -> str:
    p = Poly1((c,))
    return print_latex(p) if latex else print_poly(p)


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _print_report(report, args) -> int:
    if args.json:
        _emit_json(report_to_json(report))
        return 0
    var = _other(report.wrt)
    num, den = report.sdet
    rep = report.representative
    print(f"wrt: {report.wrt}")
    print(f"size: {report.sylvester.nrows}")
    print(f"is_zero: {'true' if report.is_zero else 'false'}")
    print(f"sdet_num: {_render_real(num, var, args.latex)}")
    print(f"sdet_den: {_render_real(den, var, args.latex)}")
    print(f"representative: {'-' if rep is None else _render1(rep, var, args.latex)}")
    return 0


def _cmd_res(args) -> int:
    return _print_report(resultant(_parse_poly2(args.p), _parse_poly2(args.q), args.wrt), args)


def _cmd_disc(args) -> int:
    p = _parse_poly2(args.p)
    return _print_report(discriminant_q1(p) if args.var == "q1" else discriminant_q2(p), args)


def _cmd_det(args) -> int:
    text = sys.stdin.read() if args.matrix == "-" else args.matrix
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(f"matrix is not valid JSON: {exc}") from exc
    matrix = matrix_from_json(doc)
    dc = det(matrix)
    num, den = dc.sdet
    rep = dc.rep
    if args.json:
        out = {
            "schema": "skewres/det",
            "version": SCHEMA_VERSION,
            "is_zero": dc.is_zero,
            "sdet": {"num": _real_json(num), "den": _real_json(den)},
            "rep": {"den": poly1_to_json(rep.den)["coeffs"], "num": poly1_to_json(rep.num)["coeffs"]},
        }
        _emit_json(out)
    else:
        print(f"is_zero: {'true' if dc.is_zero else 'false'}")
        print(f"sdet_num: {_render_real(num, 'q', args.latex)}")
        print(f"sdet_den: {_render_real(den, 'q', args.latex)}")
        print(f"rep_den: {_render1(rep.den, 'q', args.latex)}")
        print(f"rep_num: {_render1(rep.num, 'q', args.latex)}")
    return 0


def _cmd_eval(args) -> int:
    value = _parse_any(args.p)
    if isinstance(value, Poly2):
        if args.at is None:
            raise _CliError("a two-variable polynomial needs --at a,b")
        a, b = _parse_point(args.at)
        result = value.eval2(a, b)
    else:
        if args.at is None:
            raise _CliError("an evaluation point is required: --at a")
        if "," in args.at:
            raise _CliError("a one-variable polynomial takes a single point")
        result = value.eval(_parse_quat(args.at))
    if args.json:
        _emit_json({
            "schema": "skewres/value",
            "version": SCHEMA_VERSION,
            "value": _quat_json(result),
        })
    else:
        print(_render_quat(result, args.latex))
    return 0


def _cmd_symm(args) -> int:
    value = _parse_any(args.p)
    symm = value.symm().to_poly1() if isinstance(value, Poly1) else value.symm()
    if args.json:
        _emit_json(poly1_to_json(symm) if isinstance(symm, Poly1) else poly2_to_json(symm))
    else:
        print(print_latex(symm) if args.latex else print_poly(symm))
    return 0


def _cmd_bezout(args) -> int:
    cert = bezout_certificate(_parse_poly2(args.p), _parse_poly2(args.q), args.wrt)
    var = _other(args.wrt)
    if args.json:
        _emit_json({
            "schema": "skewres/bezout",
            "version": SCHEMA_VERSION,
            "wrt": cert.wrt,
            "h": poly2_to_json(cert.h),
            "k": poly2_to_json(cert.k),
            "target": poly1_to_json(cert.target),
        })
    else:
        print(f"wrt: {cert.wrt}")
        print(f"h: {print_latex(cert.h) if args.latex else print_poly(cert.h)}")
        print(f"k: {print_latex(cert.k) if args.latex else print_poly(cert.k)}")
        print(f"target: {_render1(cert.target, var, args.latex)}")
    return 0


def _cmd_kernel(args) -> int:
    cert = kernel_cofactors(_parse_poly2(args.p), _parse_poly2(args.q), args.wrt)
    if args.json:
        if cert is None:
            _emit_json({"schema": "skewres/kernel", "version": SCHEMA_VERSION, "kernel": None})
        else:
            _emit_json({
                "schema": "skewres/kernel",
                "version": SCHEMA_VERSION,
                "kernel": {"h": poly2_to_json(cert.h), "k": poly2_to_json(cert.k)},
            })
    elif cert is None:
        print("kernel: none (resultant is nonzero)")
    else:
        print(f"wrt: {cert.wrt}")
        print(f"h: {print_latex(cert.h) if args.latex else print_poly(cert.h)}")
        print(f"k: {print_latex(cert.k) if args.latex else print_poly(cert.k)}")
    return 0


def _cmd_factor(args) -> int:
    p = _parse_poly2(args.p)
    q = _parse_poly2(args.q)
    q1_pts = tuple(_parse_quat(t) for t in args.q1 or ())
    q2_pts = tuple(_parse_quat(t) for t in args.q2 or ())
    rep = check_left_factor_criterion(p, q, q1_candidates=q1_pts, q2_candidates=q2_pts)
    zero_doc = None
    if args.at is not None:
        zero_doc = check_common_zero(p, q, *_parse_point(args.at))
    if args.json:
        doc = {
            "schema": "skewres/criteria",
            "version": SCHEMA_VERSION,
            "q1_factors": [
                {"point": _quat_json(a), "resultant_zero": flag} for a, flag in rep.q1_factors
            ],
            "q2_factors": [
                {"point": _quat_json(a), "resultant_zero": flag} for a, flag in rep.q2_factors
            ],
            "holds": rep.holds,
        }
        if zero_doc is not None:
            doc["common_zero"] = {
                "hypothesis_met": zero_doc.hypothesis_met,
                "holds": zero_doc.holds,
                "p_value": _quat_json(zero_doc.p_value),
                "q_value": _quat_json(zero_doc.q_value),
            }
        _emit_json(doc)
    else:
        for var_name, pairs in (("q1", rep.q1_factors), ("q2", rep.q2_factors)):
            for a, flag in pairs:
                point = _render_quat(a, args.latex)
                print(f"common left factor ({var_name} - ({point})): resultant_zero={'true' if flag else 'false'}")
        print(f"factor_criterion_holds: {'true' if rep.holds else 'false'}")
        if zero_doc is not None:
            print(f"common_zero_hypothesis: {'true' if zero_doc.hypothesis_met else 'false'}")
            if zero_doc.holds is not None:
                print(f"common_zero_criterion: {'true' if zero_doc.holds else 'false'}")
    return 0


_GOLD_P = "(q1-i)*(q2-j)"
_GOLD_Q = "(q1-i)*(q2-k)"


def _selftest_checks():
    p = _parse_poly2(_GOLD_P)
    q = _parse_poly2(_GOLD_Q)
    r1 = resultant(p, q, "q1")
    yield "resultant wrt q1 vanishes", r1.is_zero
    r2 = resultant(p, q, "q2")
    yield "resultant wrt q2 is nonzero", not r2.is_zero
    yield "sdet equals 2*(q1^2+1)^2", r2.sdet == (RealPoly([2, 0, 4, 0, 2]), RealPoly([1]))
    rep = r2.representative
    yield "representative exists", rep is not None
    yield "representative vanishes at i", rep is not None and not rep.eval(Quaternion(0, 1, 0, 0))
    value = p.eval2(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))
    yield "eval at (i, j) equals 2k", value == Quaternion(0, 0, 0, 2)
    cert = kernel_cofactors(p, q, "q1")
    yield "kernel cofactors verify", cert is not None and (p * cert.h + q * cert.k).is_zero
    bez = bezout_certificate(p, q, "q2")
    yield "bezout target is nonzero", not bez.target.is_zero


def _cmd_selftest(args) -> int:
    failed = 0
    for label, ok in _selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failed += 1
    return 1 if failed else 0


def _add_output_flags(sub):
    sub.add_argument("--json", action="store_true", help="emit the versioned JSON document")
    sub.add_argument("--latex", action="store_true", help="render polynomials as LaTeX")


def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="skewres", description="resultants of skew polynomials in q1, q2")
    subs = top.add_subparsers(dest="command", required=True)

    res = subs.add_parser("res", help="resultant of P and Q in one variable")
    res.add_argument("--wrt", choices=("q1", "q2"), required=True)
    res.add_argument("p")
    res.add_argument("q")
    _add_output_flags(res)
    res.set_defaults(fn=_cmd_res)

    disc = subs.add_parser("disc", help="discriminant of P")
    disc.add_argument("--var", choices=("q1", "q2"), required=True)
    disc.add_argument("p")
    _add_output_flags(disc)
    disc.set_defaults(fn=_cmd_disc)

    detp = subs.add_parser("det", help="Dieudonne determinant of a JSON matrix ('-' reads stdin)")
    detp.add_argument("matrix")
    _add_output_flags(detp)
    detp.set_defaults(fn=_cmd_det)

    evalp = subs.add_parser("eval", help="evaluate a polynomial at a point")
    evalp.add_argument("p")
    evalp.add_argument("--at", help="point: 'a' for q, 'a,b' for q1,q2")
    _add_output_flags(evalp)
    evalp.set_defaults(fn=_cmd_eval)

    symm = subs.add_parser("symm", help="symmetrization P * conj(P)")
    symm.add_argument("p")
    _add_output_flags(symm)
    symm.set_defaults(fn=_cmd_symm)

    bez = subs.add_parser("bezout", help="Bezout certificate P*h + Q*k = target")
    bez.add_argument("--wrt", choices=("q1", "q2"), required=True)
    bez.add_argument("p")
    bez.add_argument("q")
    _add_output_flags(bez)
    bez.set_defaults(fn=_cmd_bezout)

    ker = subs.add_parser("kernel", help="kernel cofactors when the resultant vanishes")
    ker.add_argument("--wrt", choices=("q1", "q2"), required=True)
    ker.add_argument("p")
    ker.add_argument("q")
    _add_output_flags(ker)
    ker.set_defaults(fn=_cmd_kernel)

    fac = subs.add_parser("factor", help="left-factor and common-zero criteria")
    fac.add_argument("p")
    fac.add_argument("q")
    fac.add_argument("--q1", action="append", metavar="A", help="candidate left root in q1 (repeatable)")
    fac.add_argument("--q2", action="append", metavar="B", help="candidate left root in q2 (repeatable)")
    fac.add_argument("--at", help="commuting point 'a,b' for the common-zero check")
    _add_output_flags(fac)
    fac.set_defaults(fn=_cmd_factor)

    self_p = subs.add_parser("selftest", help="golden checks, one PASS/FAIL line each")
    self_p.set_defaults(fn=_cmd_selftest)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "json", False) and getattr(args, "latex", False):
            raise _CliError("--json and --latex are mutually exclusive")
        return args.fn(args)
    except (NonCommutingPoint, SingularSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_CliError, *_VALIDATION_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
