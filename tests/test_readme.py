"""README's Python examples run as written, and its public API list is the package's."""

import inspect
import re
from pathlib import Path

import gmfkrylov

TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


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
