"""The docstring gate: the public API surface documents itself.

The in-repo equivalent of the scoped ruff ``D1`` (pydocstyle
missing-docstring) selection in ``pyproject.toml``, runnable without
installing ruff: every module, public class, and public
function/method in the packages below must carry a docstring.  The
scope is the surface a new contributor (or an out-of-tree extension
author) programs against: the experiment API, the backend registry
and the base backend it extends, the execution engine, the workload
registry, readout characterization and calibration drift, matrix
mitigation, JigSaw and VarSaw with their reconstruction, count
containers and the selective, calibration-gated and drift-adaptive
extensions, Pauli strings, Hamiltonians and their exact solver, the
analysis experiment helpers, and the sweep spec/runner/catalog layer.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

#: The enforced surface: whole packages and individual modules.
SCOPED = [
    "repro/analysis/experiments.py",
    "repro/api",
    "repro/backends",
    "repro/core/recalibrate.py",
    "repro/core/selective.py",
    "repro/core/varsaw.py",
    "repro/dist",
    "repro/engine",
    "repro/hamiltonian/exact.py",
    "repro/hamiltonian/hamiltonian.py",
    "repro/io",
    "repro/mitigation/bias_aware.py",
    "repro/mitigation/jigsaw.py",
    "repro/mitigation/mbm.py",
    "repro/mitigation/reconstruction.py",
    "repro/mitigation/single_circuit.py",
    "repro/noise/backend.py",
    "repro/noise/characterization.py",
    "repro/noise/drift.py",
    "repro/obs",
    "repro/pauli/pauli.py",
    "repro/serve",
    "repro/sim/counts.py",
    "repro/sim/density.py",
    "repro/sim/plan.py",
    "repro/sweeps/spec.py",
    "repro/sweeps/catalog.py",
    "repro/sweeps/runner.py",
    "repro/trotter/mitigated_sweep.py",
    "repro/workloads",
]


def scoped_files() -> list[pathlib.Path]:
    files = []
    for entry in SCOPED:
        path = SRC / entry
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_docstrings(tree: ast.Module) -> list[str]:
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("module docstring")

    def walk(node, prefix: str, top_level: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name):
                    if ast.get_docstring(child) is None:
                        missing.append(f"class {prefix}{child.name}")
                    walk(child, f"{prefix}{child.name}.", False)
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if not _is_public(child.name):
                    continue
                if ast.get_docstring(child) is None:
                    missing.append(f"def {prefix}{child.name}")
                # Nested defs are implementation detail: not enforced.

    walk(tree, "", True)
    return missing


def test_scope_is_nonempty():
    files = scoped_files()
    assert len(files) >= 15, files


@pytest.mark.parametrize(
    "path",
    scoped_files(),
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_public_surface_is_documented(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = _missing_docstrings(tree)
    assert not missing, (
        f"{path.relative_to(SRC)} is missing docstrings: {missing}"
    )
