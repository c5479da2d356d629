"""Every example script imports cleanly and defines a ``main`` entry point.

Running the examples takes minutes, so this only loads each module
(which resolves every ``repro`` name it imports) without calling
``main``.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob(
        "*.py"
    )
)


def test_examples_are_found():
    assert len(EXAMPLES) >= 12


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
