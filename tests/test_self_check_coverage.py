"""Every self-check in the package has a failure-injection test: each
InternalRealityViolation raised in src/ is singled out by the match pattern
of some pytest.raises(InternalRealityViolation, match=...) in tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ERROR = "InternalRealityViolation"


def _text(node) -> str:
    # an f-string keeps its literal parts; each placeholder reads "{}"
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)


def _self_check_messages() -> list[str]:
    # read as text, like the tracing-target test
    messages = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if getattr(node.exc.func, "id", None) == ERROR:
                    messages.append(_text(node.exc.args[0]))
    return messages


def _match_patterns() -> list[str]:
    patterns = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "raises"
                and node.args
                and getattr(node.args[0], "id", None) == ERROR
            ):
                patterns += [
                    k.value.value
                    for k in node.keywords
                    if k.arg == "match" and isinstance(k.value, ast.Constant)
                ]
    return patterns


def test_every_self_check_has_an_injection_test():
    messages = _self_check_messages()
    sites = sum(p.read_text().count(f"raise {ERROR}(") for p in (ROOT / "src").rglob("*.py"))
    assert messages and len(messages) == sites
    patterns = _match_patterns()

    def singles_out(pat, msg):
        return [m for m in messages if re.search(pat, m)] == [msg]

    assert [m for m in messages if not any(singles_out(p, m) for p in patterns)] == []
