"""Every example script imports cleanly and defines a ``main`` entry point.

Running most examples takes minutes, so this loads each module (which
resolves every ``repro`` name it imports) without calling ``main``.
The examples that finish in about a second also run ``main`` end to
end, so a call into a removed API inside ``main`` fails here too.
The quickstart's three tuning legs run as the script runs them, and
must reproduce the energies and circuit ledgers pinned in
``perfbench/reference.json``.
"""

import importlib.util
import json
import pathlib

import pytest

from repro import Session, make_workload, run_vqe
from repro.noise import ibmq_mumbai_like

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
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


def test_quickstart_legs_reproduce_the_pinned_ledger():
    """The paper's cost metric on the quickstart never moves.

    Each leg is ``examples/quickstart.py``'s: H2-4 on
    ``ibmq_mumbai_like(scale=2.0)``, a ``Session(seed=7)`` per scheme,
    512 shots, and 150 SPSA iterations at seed 7.
    """
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    legs = reference["quickstart_h2_4"]["legs"]
    assert set(legs) == {"baseline", "jigsaw", "varsaw"}
    workload = make_workload("H2-4")
    device = ibmq_mumbai_like(scale=2.0)
    for kind, pinned in legs.items():
        session = Session(device, seed=7)
        estimator = session.estimator(kind, workload, shots=512)
        result = run_vqe(estimator, max_iterations=150, seed=7)
        session.close()
        assert (kind, result.energy.hex(), session.ledger().circuits) == (
            kind, pinned["energy"], pinned["circuits"]
        )
