"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name; a rename or deletion in the package must not break a traced run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _target_tables() -> dict:
    # read as text: importing would write bytecode beside the benchmark
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "COUNT_TARGETS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_every_traced_target_resolves():
    tables = _target_tables()
    assert set(tables) == {"TARGETS", "COUNT_TARGETS"}
    for table in tables.values():
        for targets in table.values():
            for module, path in targets:
                owner = importlib.import_module(module)
                *prefix, attr = path.split(".")
                for part in prefix:
                    owner = getattr(owner, part)
                # the tracer rebinds the attribute where it is defined
                assert callable(vars(owner).get(attr)), f"{module}.{path}"
