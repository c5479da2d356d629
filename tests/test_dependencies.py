"""Every third-party package ``src/repro`` imports is a declared dependency.

A package the library imports but ``pyproject.toml`` does not declare
installs fine and then fails at ``import repro``.  The list is parsed
with a regex because ``tomllib`` only ships with Python 3.11+.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def declared() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    return {
        re.match(r"[\w.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in re.findall(r'"([^"]+)"', block.group(1))
    }


def imported() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def test_third_party_imports_are_declared():
    missing = imported() - declared()
    assert not missing, f"not in [project].dependencies: {missing}"
