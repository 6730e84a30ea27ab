"""Command-line front end: parse, compute, report.

Exit codes follow the error kinds of skewres.errors: 0 success, 1 any
InvalidInput (parse, schema, validation and argument failures), 2 any
HypothesisViolation (a non-commuting evaluation point, or a Bezout request
on a vanishing resultant), 3 an internal fault (InternalRealityViolation, a
failed self-check). Each prints one "error:" line on stderr; --debug lets an
internal fault raise its traceback instead, and any exception not raised on
purpose always does. Every polynomial is shown by one
helper, as text or with --latex as LaTeX, and every text report is printed
whole by one more, so an error leaves stdout empty. All numbers printed are
exact rationals.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dieudonne import det
from .errors import HypothesisViolation, InternalRealityViolation, InvalidInput
from .exprio import (
    _document,
    _frac_json,
    _json_int,
    _quat_json,
    _sdet_json,
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


class _CliError(InvalidInput):
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


def _show(value, args, var: str = "q") -> str:
    """Text or LaTeX form of a polynomial, a real polynomial or a constant;
    a one-variable value is shown as a polynomial in var."""
    if isinstance(value, Quaternion):
        value = Poly1((value,))
    elif isinstance(value, RealPoly):
        value = value.to_poly1()
    if isinstance(value, Poly1) and var != "q":
        value = Poly2.from_poly1(value, var)
    return print_latex(value) if args.latex else print_poly(value)


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_lines(lines) -> None:
    """Print a text report whole: every line is rendered before any is
    printed, so an error while rendering leaves stdout empty."""
    print("\n".join(lines))


def _print_report(report, args) -> int:
    if args.json:
        _emit_json(report_to_json(report))
        return 0
    var = _other(report.wrt)
    num, den = report.sdet
    rep = report.representative
    _emit_lines([
        f"wrt: {report.wrt}",
        f"size: {report.sylvester.nrows}",
        f"is_zero: {'true' if report.is_zero else 'false'}",
        f"sdet_num: {_show(num, args, var)}",
        f"sdet_den: {_show(den, args, var)}",
        f"representative: {'-' if rep is None else _show(rep, args, var)}",
    ])
    return 0


def _cmd_res(args) -> int:
    return _print_report(resultant(_parse_poly2(args.p), _parse_poly2(args.q), args.wrt), args)


def _cmd_disc(args) -> int:
    p = _parse_poly2(args.p)
    return _print_report(discriminant_q1(p) if args.var == "q1" else discriminant_q2(p), args)


def _cmd_det(args) -> int:
    text = sys.stdin.read() if args.matrix == "-" else args.matrix
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise _CliError(f"matrix is not valid JSON: {exc}") from exc
    dc = det(matrix_from_json(doc))
    if args.json:
        _emit_json(_document("det", is_zero=dc.is_zero, sdet=_sdet_json(dc.sdet), rep=_frac_json(dc.rep)))
    else:
        num, den = dc.sdet
        _emit_lines([
            f"is_zero: {'true' if dc.is_zero else 'false'}",
            f"sdet_num: {_show(num, args)}",
            f"sdet_den: {_show(den, args)}",
            f"rep_den: {_show(dc.rep.den, args)}",
            f"rep_num: {_show(dc.rep.num, args)}",
        ])
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
        _emit_json(_document("value", value=_quat_json(result)))
    else:
        _emit_lines([_show(result, args)])
    return 0


def _cmd_symm(args) -> int:
    value = _parse_any(args.p)
    symm = value.symm().to_poly1() if isinstance(value, Poly1) else value.symm()
    if args.json:
        _emit_json(poly1_to_json(symm) if isinstance(symm, Poly1) else poly2_to_json(symm))
    else:
        _emit_lines([_show(symm, args)])
    return 0


def _cofactors_json(cert) -> dict:
    return {"h": poly2_to_json(cert.h), "k": poly2_to_json(cert.k)}


def _cofactor_lines(cert, args) -> list[str]:
    return [f"wrt: {cert.wrt}", f"h: {_show(cert.h, args)}", f"k: {_show(cert.k, args)}"]


def _cmd_bezout(args) -> int:
    cert = bezout_certificate(_parse_poly2(args.p), _parse_poly2(args.q), args.wrt)
    if args.json:
        _emit_json(_document(
            "bezout", wrt=cert.wrt, **_cofactors_json(cert), target=poly1_to_json(cert.target)
        ))
    else:
        target = f"target: {_show(cert.target, args, _other(args.wrt))}"
        _emit_lines(_cofactor_lines(cert, args) + [target])
    return 0


def _cmd_kernel(args) -> int:
    cert = kernel_cofactors(_parse_poly2(args.p), _parse_poly2(args.q), args.wrt)
    if args.json:
        _emit_json(_document("kernel", kernel=None if cert is None else _cofactors_json(cert)))
    elif cert is None:
        _emit_lines(["kernel: none (resultant is nonzero)"])
    else:
        _emit_lines(_cofactor_lines(cert, args))
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
        doc = _document(
            "criteria",
            q1_factors=[
                {"point": _quat_json(a), "resultant_zero": flag} for a, flag in rep.q1_factors
            ],
            q2_factors=[
                {"point": _quat_json(a), "resultant_zero": flag} for a, flag in rep.q2_factors
            ],
            holds=rep.holds,
        )
        if zero_doc is not None:
            doc["common_zero"] = {
                "hypothesis_met": zero_doc.hypothesis_met,
                "holds": zero_doc.holds,
                "p_value": _quat_json(zero_doc.p_value),
                "q_value": _quat_json(zero_doc.q_value),
            }
        _emit_json(doc)
    else:
        lines = [
            f"common left factor ({var_name} - ({_show(a, args)})): resultant_zero={'true' if flag else 'false'}"
            for var_name, pairs in (("q1", rep.q1_factors), ("q2", rep.q2_factors))
            for a, flag in pairs
        ]
        lines.append(f"factor_criterion_holds: {'true' if rep.holds else 'false'}")
        if zero_doc is not None:
            lines.append(f"common_zero_hypothesis: {'true' if zero_doc.hypothesis_met else 'false'}")
            if zero_doc.holds is not None:
                lines.append(f"common_zero_criterion: {'true' if zero_doc.holds else 'false'}")
        _emit_lines(lines)
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


_WRT = ("--wrt", {"choices": ("q1", "q2"), "required": True})
_P = ("p", {})
_Q = ("q", {})

# name, help, handler and arguments of each subcommand, in the order listed
# by --help; every subcommand but selftest also takes --json and --latex
_COMMANDS = (
    ("res", "resultant of P and Q in one variable", _cmd_res, (_WRT, _P, _Q)),
    ("disc", "discriminant of P", _cmd_disc,
     (("--var", {"choices": ("q1", "q2"), "required": True}), _P)),
    ("det", "Dieudonne determinant of a JSON matrix ('-' reads stdin)", _cmd_det,
     (("matrix", {}),)),
    ("eval", "evaluate a polynomial at a point", _cmd_eval,
     (_P, ("--at", {"help": "point: 'a' for q, 'a,b' for q1,q2"}))),
    ("symm", "symmetrization P * conj(P)", _cmd_symm, (_P,)),
    ("bezout", "Bezout certificate P*h + Q*k = target", _cmd_bezout, (_WRT, _P, _Q)),
    ("kernel", "kernel cofactors when the resultant vanishes", _cmd_kernel, (_WRT, _P, _Q)),
    ("factor", "left-factor and common-zero criteria", _cmd_factor, (
        _P,
        _Q,
        ("--q1", {"action": "append", "metavar": "A", "help": "candidate left root in q1 (repeatable)"}),
        ("--q2", {"action": "append", "metavar": "B", "help": "candidate left root in q2 (repeatable)"}),
        ("--at", {"help": "commuting point 'a,b' for the common-zero check"}),
    )),
    ("selftest", "golden checks, one PASS/FAIL line each", _cmd_selftest, ()),
)


def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="skewres", description="resultants of skew polynomials in q1, q2")
    top.add_argument("--debug", action="store_true", help="raise internal faults as tracebacks")
    subs = top.add_subparsers(dest="command", required=True)
    for name, help_text, fn, arguments in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        if fn is not _cmd_selftest:
            sub.add_argument("--json", action="store_true", help="emit the versioned JSON document")
            sub.add_argument("--latex", action="store_true", help="render polynomials as LaTeX")
        sub.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "json", False) and getattr(args, "latex", False):
            raise _CliError("--json and --latex are mutually exclusive")
        return args.fn(args)
    except (InvalidInput, HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, HypothesisViolation) else 1
    except InternalRealityViolation as exc:
        if args.debug:
            raise
        print(f"error: internal fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
