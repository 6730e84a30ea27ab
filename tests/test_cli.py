"""CLI surface: routing, exit codes, deterministic reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewres import cli
from skewres.cli import main
from skewres.dieudonne import SkewMatrix
from skewres.errors import (
    DivisionByZero,
    HypothesisViolation,
    IndexOutOfRange,
    InternalRealityViolation,
    InvalidInput,
    SingularSystem,
    SkewresError,
)
from skewres.exprio import lower1, matrix_to_json, parse

GOLD_P = "(q1-i)*(q2-j)"
GOLD_Q = "(q1-i)*(q2-k)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_res_golden_q1(capsys):
    code, out, err = run(capsys, "res", "--wrt", "q1", GOLD_P, GOLD_Q)
    assert code == 0 and err == ""
    assert "is_zero: true" in out


def test_res_golden_q2_text_and_json(capsys):
    code, out, _ = run(capsys, "res", "--wrt", "q2", GOLD_P, GOLD_Q)
    assert code == 0
    assert "is_zero: false" in out
    assert "sdet_num: 2 + q1^2*4 + q1^4*2" in out

    code, out, _ = run(capsys, "res", "--wrt", "q2", GOLD_P, GOLD_Q, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "skewres/resultant"
    assert doc["version"] == 1
    assert doc["is_zero"] is False
    assert doc["sdet"]["num"] == ["2", "0", "4", "0", "2"]
    assert doc["sylvester"]["entries"][0][0]["den"] == [["1", "0", "0", "0"]]


def test_deterministic_output(capsys):
    first = run(capsys, "res", "--wrt", "q2", GOLD_P, GOLD_Q, "--json")
    second = run(capsys, "res", "--wrt", "q2", GOLD_P, GOLD_Q, "--json")
    assert first == second


def test_eval_spec_example(capsys):
    code, out, _ = run(capsys, "eval", GOLD_P, "--at", "i,j")
    assert code == 0
    assert out.strip() == "2k"


def test_eval_one_variable(capsys):
    code, out, _ = run(capsys, "eval", "q^2 + 1", "--at", "i")
    assert code == 0
    assert out.strip() == "0"
    code, _, err = run(capsys, "eval", "q^2 + 1", "--at", "i,j")
    assert code == 1 and "single point" in err


def test_overlong_output_number_is_invalid_input(capsys):
    # the square of a 3,000-digit constant passes Python's digit limit
    text = "q - " + "9" * 3000
    limit = str(sys.get_int_max_str_digits())
    for mode in ((), ("--latex",), ("--json",)):
        code, out, err = run(capsys, "symm", text, *mode)
        assert (code, out) == (1, ""), mode
        assert err.startswith("error: ") and err.count("\n") == 1 and limit in err, mode


def test_text_report_is_printed_whole_or_not_at_all(capsys):
    # wrt, size and is_zero render; the sdet numerator passes the digit limit
    nines = "9" * 3000
    code, out, err = run(capsys, "res", "--wrt", "q1", f"q1 - {nines}", f"q1*q2 - {nines}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overlong_non_commuting_point_is_a_hypothesis_error(capsys):
    # the message names no component: this one has 6,000 digits
    point = "(" + "9" * 3000 + ")^2*i,j"
    code, out, err = run(capsys, "factor", "--at", point, "q1", "q2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "commute" in err


def test_cli_import_skips_dataclasses_and_introspection():
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, skewres.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_exit_code_parse_failure(capsys):
    code, _, err = run(capsys, "res", "--wrt", "q1", "(q1-i", "q2")
    assert code == 1
    assert "offset" in err


def test_exit_code_hypothesis_violations(capsys):
    code, _, err = run(capsys, "bezout", "--wrt", "q1", GOLD_P, GOLD_Q)
    assert code == 2
    assert "singular" in err.lower() or "vanishes" in err

    code, _, err = run(capsys, "factor", GOLD_P, GOLD_Q, "--at", "i,j")
    assert code == 2
    assert "commute" in err


def test_exit_code_argv_problems(capsys):
    assert run(capsys, "res", "--wrt", "q3", "q1", "q2")[0] == 1
    assert run(capsys, "res", "--wrt", "q1", "q1*q2")[0] == 1
    assert run(capsys, "nope")[0] == 1
    assert run(capsys, "res", "--wrt", "q1", "q1", "q2", "--json", "--latex")[0] == 1


def test_bezout_and_kernel_flow(capsys):
    code, out, _ = run(capsys, "bezout", "--wrt", "q2", GOLD_P, GOLD_Q, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "skewres/bezout"
    assert doc["target"]["coeffs"]

    code, out, _ = run(capsys, "kernel", "--wrt", "q1", GOLD_P, GOLD_Q)
    assert code == 0
    assert "h: " in out and "k: " in out

    code, out, _ = run(capsys, "kernel", "--wrt", "q2", GOLD_P, GOLD_Q)
    assert code == 0
    assert "none" in out


def test_factor_report(capsys):
    code, out, _ = run(capsys, "factor", GOLD_P, GOLD_Q, "--q1", "i", "--q1", "j", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert len(doc["q1_factors"]) == 1
    assert doc["q1_factors"][0]["resultant_zero"] is True

    code, out, _ = run(capsys, "factor", GOLD_P, GOLD_Q, "--at", "i,3+4i")
    assert code == 0
    assert "common_zero_hypothesis: true" in out
    assert "common_zero_criterion: true" in out


def test_disc_crossed_pairing(capsys):
    code, out, _ = run(capsys, "disc", "--var", "q1", "(q1-i)*(q1-i)*(q2-j)")
    assert code == 0
    assert "is_zero: false" in out
    assert "sdet_num: 16 + q1^2*32 + q1^4*16" in out
    assert run(capsys, "disc", "--var", "q1", "q2-j")[0] == 1


def test_symm_and_latex(capsys):
    code, out, _ = run(capsys, "symm", "q - i")
    assert code == 0
    assert out.strip() == "1 + q^2"
    code, out, _ = run(capsys, "res", "--wrt", "q2", GOLD_P, GOLD_Q, "--latex")
    assert code == 0
    assert "q_1" in out


def test_det_subcommand(capsys):
    mat = SkewMatrix([
        [lower1(parse("q - i")), lower1(parse("1"))],
        [lower1(parse("0")), lower1(parse("q + i"))],
    ])
    text = json.dumps(matrix_to_json(mat))
    code, out, _ = run(capsys, "det", text)
    assert code == 0
    assert "is_zero: false" in out
    assert "sdet_num: 1 + q^2*2 + q^4" in out
    code, out, _ = run(capsys, "det", text, "--json")
    doc = json.loads(out)
    assert doc["sdet"]["num"] == ["1", "0", "2", "0", "1"]
    assert run(capsys, "det", "not json")[0] == 1
    assert run(capsys, "det", '{"schema": "skewres/matrix", "version": 2, "entries": []}')[0] == 1
    entry = '{"den": 1, "num": []}'
    code, _, err = run(capsys, "det", f'{{"schema": "skewres/matrix", "version": 1, "entries": [[{entry}]]}}')
    assert code == 1 and "den must be a list" in err
    # more digits than int() converts: bad input, in a matrix or an expression
    assert run(capsys, "det", "[1" + "0" * 5000 + "]")[0] == 1
    assert run(capsys, "symm", "q - " + "9" * 5000)[0] == 1


def test_selftest_all_pass(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines and all(ln.startswith("PASS") for ln in lines)
    assert len(lines) >= 6


def test_eval_and_factor_json_documents_are_pinned(capsys):
    code, out, _ = run(capsys, "eval", "q^2 + q", "--at", "1/2+i", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "skewres/value", "version": 1, "value": ["-1/4", "2", "0", "0"],
    }

    code, out, _ = run(
        capsys, "factor", GOLD_P, GOLD_Q, "--q1", "i", "--q2", "j", "--json", "--at", "i,3+4i"
    )
    assert code == 0
    zero = ["0", "0", "0", "0"]
    assert json.loads(out) == {
        "schema": "skewres/criteria",
        "version": 1,
        "q1_factors": [{"point": ["0", "1", "0", "0"], "resultant_zero": True}],
        "q2_factors": [],
        "holds": True,
        "common_zero": {
            "hypothesis_met": True, "holds": True, "p_value": zero, "q_value": zero,
        },
    }

    code, out, _ = run(
        capsys, "factor", "(q1-i)*(q2-j) + 1", GOLD_Q, "--json", "--at", "1/2,3+4i"
    )
    assert code == 0
    assert json.loads(out)["common_zero"] == {
        "hypothesis_met": False,
        "holds": None,
        "p_value": ["13/2", "-1", "-1/2", "1"],
        "q_value": ["11/2", "-1", "-1", "-1/2"],
    }


def test_every_error_has_exactly_one_kind():
    kinds = (InvalidInput, HypothesisViolation, InternalRealityViolation)
    todo, seen = [SkewresError], []
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            seen.append(sub)
    assert cli._CliError in seen and len(seen) > 15
    for cls in seen:
        assert sum(issubclass(cls, kind) for kind in kinds) == 1, cls.__name__
    assert issubclass(InvalidInput, ValueError)


@pytest.mark.parametrize(
    "exc, code",
    [
        (IndexOutOfRange("row 3 outside the matrix"), 1),
        (DivisionByZero("inverse of zero"), 1),
        (SingularSystem("singular"), 2),
        (InternalRealityViolation("self-check failed"), 3),
        (ValueError("not raised on purpose"), None),
    ],
    ids=("index", "division", "singular", "internal", "stray"),
)
def test_exit_code_by_error_kind(capsys, monkeypatch, exc, code):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "resultant", fail)
    argv = ("res", "--wrt", "q1", GOLD_P, GOLD_Q)
    if code is None:
        # stray exceptions surface as tracebacks
        with pytest.raises(type(exc)):
            main(list(argv))
        return
    got, out, err = run(capsys, *argv)
    fault = "internal fault: " if code == 3 else ""
    assert (got, out, err) == (code, "", f"error: {fault}{exc}\n")


def test_debug_lets_an_internal_fault_raise(capsys, monkeypatch):
    def fail(*args):
        raise InternalRealityViolation("self-check failed")

    monkeypatch.setattr(cli, "resultant", fail)
    with pytest.raises(InternalRealityViolation, match="self-check failed"):
        main(["--debug", "res", "--wrt", "q1", GOLD_P, GOLD_Q])
    assert capsys.readouterr().err == ""
