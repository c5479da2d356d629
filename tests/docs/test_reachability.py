"""The reachability gate: every top-level def in ``src/repro`` is used.

A def is reached when a root names it, or when a reached def does.  The
roots are what the project runs or documents:

* names used at module level in ``src/repro`` outside imports;
* names in decorators, and every def carrying a decorator other than
  the plain ones below (the registry and ``@task`` decorators register
  defs that nothing then names);
* identifiers in ``examples/``, ``benchmarks/`` and ``perfbench/``
  (AST identifiers, so docstrings and comments do not count);
* backticked code in ``docs/*.md`` and ``README.md``;
* words in ``.github/`` workflows and ``pyproject.toml``.

Names match bare, as calls or as attributes, so one reached use of a
name reaches every def of that name.  A def that only tests reach fails
the gate: delete it, or move it into ``tests/`` when a test needs it as
an oracle.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src" / "repro"

#: Unreached defs that stay, each with its reason.
KEEP = {
    "depolarizing_kraus": "the Kraus form of the depolarizing channel "
    "that repro.sim.density applies in closed form; the density tests "
    "pin one against the other",
}

#: Decorators that wrap a def without registering it anywhere.
PLAIN_DECORATORS = {
    "dataclass",
    "lru_cache",
    "property",
    "staticmethod",
    "classmethod",
    "contextmanager",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute name used under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
    return found


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _scan_src():
    """``(defs, roots)``: each def's location and used names, and roots."""
    defs: dict[str, list[tuple[str, set[str]]]] = {}
    roots: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(ROOT).as_posix()
        for stmt in ast.parse(path.read_text(), filename=where).body:
            if isinstance(stmt, DEFS):
                site = f"{where}:{stmt.lineno}"
                defs.setdefault(stmt.name, []).append((site, _names(stmt)))
                for decorator in stmt.decorator_list:
                    roots |= _names(decorator)
                    if _decorator_name(decorator) not in PLAIN_DECORATORS:
                        roots.add(stmt.name)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    return defs, roots


def _outside_roots() -> set[str]:
    """Names the examples, benchmarks, perfbench, docs and CI use."""
    roots: set[str] = set()
    for folder in ("examples", "benchmarks", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            roots |= _names(ast.parse(path.read_text(), filename=str(path)))
    for path in [ROOT / "README.md", *(ROOT / "docs").glob("*.md")]:
        for _, code in re.findall(r"(`+)(.+?)\1", path.read_text(), re.S):
            roots |= set(IDENTIFIER.findall(code))
    for path in [ROOT / "pyproject.toml", *(ROOT / ".github").rglob("*.yml")]:
        roots |= set(IDENTIFIER.findall(path.read_text()))
    return roots


def unreached() -> dict[str, list[str]]:
    """Each top-level def that no root reaches, with its locations."""
    defs, roots = _scan_src()
    frontier = (roots | _outside_roots()) & defs.keys()
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        for _, used in defs[name]:
            frontier |= (used & defs.keys()) - reached
    return {
        name: [site for site, _ in sites]
        for name, sites in defs.items()
        if name not in reached
    }


def test_every_top_level_def_is_reached():
    found = unreached()
    report = "\n".join(
        f"{site}  {name}"
        for name, sites in sorted(found.items())
        for site in sites
    )
    assert found.keys() == KEEP.keys(), (
        f"{len(found)} top-level defs that nothing outside tests/ "
        f"reaches (allowlisted: {sorted(KEEP)}):\n{report}"
    )
