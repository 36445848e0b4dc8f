"""README's Python examples run as written, its public API list is the package's,
and its known failures name every strict xfail of the tests."""

import ast
import inspect
import re
from pathlib import Path

import gmfkrylov

TESTS = Path(__file__).resolve().parent
TEXT = (TESTS.parent / "README.md").read_text(encoding="utf-8")


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


def test_public_api_list_is_the_exports():
    section = TEXT.split("### Public API", 1)[1]
    bullets = section[section.index("\n* "):].split("\n\n", 1)[0]
    exports = {name for name, value in vars(gmfkrylov).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(re.findall(r"`(\w+)`", bullets)) == exports


def _is_strict_xfail(node):
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.mark.xfail"
            and any(kw.arg == "strict" and ast.unparse(kw.value) == "True"
                    for kw in node.keywords))


def strict_xfail_tests():
    """Names of the test functions in tests/ that a strict xfail marks, in a
    decorator or a parameter's marks, written out or as a module-level name."""
    names = set()
    for path in TESTS.glob("test_*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        marks = {target.id for node in tree.body
                 if isinstance(node, ast.Assign) and _is_strict_xfail(node.value)
                 for target in node.targets}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                    _is_strict_xfail(n) or isinstance(n, ast.Name) and n.id in marks
                    for decorator in node.decorator_list for n in ast.walk(decorator)):
                names.add(node.name)
    return names


def test_known_failures_name_every_strict_xfail():
    section = TEXT.split("## Known failures", 1)[1].split("\n## ", 1)[0]
    xfails = strict_xfail_tests()
    assert {"test_rgk_run_rank_deficient_square", "test_rgk_run_wide_chebyshev2"} <= xfails
    assert xfails <= set(re.findall(r"`(\w+)`", section))
