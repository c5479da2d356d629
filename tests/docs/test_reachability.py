"""The reachability gate: every def and class member in ``src/repro`` is used.

A def is a top-level function or class, or a method of a top-level
class.  It is reached when a root names it, or when a reached def does;
a class's own names (bases, decorators, class-level statements) belong
to the class, and each method's names to that method.  The roots are
what the project runs or documents:

* names used at module level in ``src/repro`` outside imports;
* names in decorators, and every def carrying a decorator other than
  the plain ones below (the registry and ``@task`` decorators register
  defs that nothing then names);
* dunder methods, which Python calls, and the ``HOOKS`` that a
  standard-library base class calls by name;
* identifiers in ``examples/``, ``benchmarks/`` and ``perfbench/``
  (AST identifiers and string constants, so docstrings and comments do
  not count);
* backticked code in ``docs/*.md`` and ``README.md``;
* words in ``.github/`` workflows and ``pyproject.toml``.

Names match bare, as calls, as attributes, or as identifier-like string
constants outside ``__all__`` (``getattr(device, "advance_clock")``, a
topology name that picks a ``CouplingMap`` constructor), so one reached
use of a name reaches every def of that name.  A def that only tests
reach fails the gate: delete it, or move it into ``tests/`` when a test
needs it as an oracle.  A def stays in ``KEEP`` only when a test needs
it in the library: the test pins library code against it, or injects a
fault through it.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src" / "repro"

#: Unreached defs that stay, each with the test that needs it.
KEEP = {
    "depolarizing_kraus": "the Kraus form of the depolarizing channel "
    "that repro.sim.density applies in closed form; "
    "tests/sim/test_density_oracle.py::TestClosedFormDepolarizing pins "
    "one against the other",
    "DensityMatrix.apply_channel": "applies that Kraus form; "
    "tests/sim/test_density_oracle.py::TestClosedFormDepolarizing pins "
    "the closed-form depolarizing step against it",
    "DensityMatrix.apply_unitary": "the one-Kraus-operator form of "
    "apply_channel (U ⊗ U*) that run_density_matrix fuses away; "
    "tests/sim/test_density.py::TestQubitValidation checks the qubit "
    "validation both share",
    "DensityMatrix._checked": "the qubit validation of apply_channel and "
    "apply_unitary; tests/sim/test_density.py::TestQubitValidation",
    "PauliString.to_matrix": "the dense matrix that "
    "tests/pauli/test_algebra.py and tests/properties/"
    "test_pauli_properties.py pin the mask-based products, commutation "
    "and expectations against",
    "PauliString.restricted_to": "tests/mitigation/subsets_reference.py "
    "builds the subset oracle that count_term_subsets is pinned against "
    "from it",
    "CliffordTableau.then": "composition that tests/clifford/"
    "test_tableau.py and tests/properties/test_clifford_properties.py "
    "pin CliffordTableau.inverse against",
    "PipeChannel.worker_pid": "tests/dist/test_transport.py kills the "
    "worker through it to inject a dead-worker fault",
}

#: Methods a standard-library base class calls by name.
HOOKS = {
    "ServeHandler": {"do_GET", "do_POST", "log_message"},
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

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _names(*nodes: ast.AST) -> set[str]:
    """Every name, attribute name and identifier-like string under
    ``nodes``."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name.split(".")[-1])
            elif isinstance(sub, ast.Constant) and isinstance(
                sub.value, str
            ) and IDENTIFIER.fullmatch(sub.value):
                found.add(sub.value)
    return found


def _is_export_list(stmt: ast.stmt) -> bool:
    """``__all__ = [...]``: it names what a module exports, not a use."""
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in stmt.targets
    )


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _scan_src():
    """``(defs, roots)``: each def's qualified name, location and used
    names, keyed by its bare name; and the roots."""
    defs: dict[str, list[tuple[str, str, set[str]]]] = {}
    roots: set[str] = set()

    def add(stmt, qualname: str, site: str, used: set[str]) -> None:
        defs.setdefault(stmt.name, []).append((qualname, site, used))
        for decorator in stmt.decorator_list:
            roots.update(_names(decorator))
            if _decorator_name(decorator) not in PLAIN_DECORATORS:
                roots.add(stmt.name)

    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(ROOT).as_posix()
        for stmt in ast.parse(path.read_text(), filename=where).body:
            if isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, FUNCTIONS)]
                rest = [s for s in stmt.body if not isinstance(s, FUNCTIONS)]
                add(
                    stmt, stmt.name, f"{where}:{stmt.lineno}",
                    _names(*stmt.bases, *stmt.keywords, *rest),
                )
                for method in methods:
                    add(
                        method, f"{stmt.name}.{method.name}",
                        f"{where}:{method.lineno}", _names(method),
                    )
                    name = method.name
                    if name.startswith("__") and name.endswith("__") or (
                        name in HOOKS.get(stmt.name, ())
                    ):
                        roots.add(name)
            elif isinstance(stmt, FUNCTIONS):
                add(stmt, stmt.name, f"{where}:{stmt.lineno}", _names(stmt))
            elif not isinstance(
                stmt, (ast.Import, ast.ImportFrom)
            ) and not _is_export_list(stmt):
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


@functools.cache
def unreached() -> dict[str, list[str]]:
    """Each def that no root reaches, by qualified name, with its sites."""
    defs, roots = _scan_src()
    frontier = (roots | _outside_roots()) & defs.keys()
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        for _, _, used in defs[name]:
            frontier |= (used & defs.keys()) - reached
    found: dict[str, list[str]] = {}
    for name, sites in defs.items():
        if name not in reached:
            for qualname, site, _ in sites:
                found.setdefault(qualname, []).append(site)
    return found


def _assert_reached(members: bool) -> None:
    """Top-level defs (``members=False``) or class members all reached."""
    found = {
        name: sites
        for name, sites in unreached().items()
        if ("." in name) == members
    }
    keep = {name for name in KEEP if ("." in name) == members}
    report = "\n".join(
        f"{site}  {name}"
        for name, sites in sorted(found.items())
        for site in sites
    )
    assert found.keys() == keep, (
        f"{len(found)} defs that nothing outside tests/ reaches "
        f"(allowlisted: {sorted(keep)}):\n{report}"
    )


def test_every_top_level_def_is_reached():
    _assert_reached(members=False)


def test_every_class_member_is_reached():
    _assert_reached(members=True)
