"""Every example script imports cleanly and defines a ``main`` entry point.

Running most examples takes minutes, so this loads each module (which
resolves every ``repro`` name it imports) without calling ``main``.
The examples that finish in about a second also run ``main`` end to
end, so a call into a removed API inside ``main`` fails here too.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Examples fast enough to run ``main`` in the test suite.
FAST_EXAMPLES = [
    "device_characterization.py",
    "mitigation_shootout.py",
    "trotter_quench.py",
]


def load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_are_found():
    assert len(EXAMPLES) >= 12


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_and_defines_main(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_main_runs(name, capsys):
    load(EXAMPLES_DIR / name).main()
    assert capsys.readouterr().out
