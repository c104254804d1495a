"""No function of the package calls itself by its bare name.

Deep inputs (long RPC chains, thousands of threads) must not hit Python's
recursion limit, so the package keeps its searches on explicit stacks.
Only direct self-calls are caught: calls through an attribute, such as
``_Parser(text).parse_contract()``, do not count, and neither does mutual
recursion between two functions.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nego"


def _self_calls(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == node.name
                ):
                    found.append(f"{node.name}:{inner.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert _self_calls(ast.parse(path.read_text())) == []
