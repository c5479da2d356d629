"""Golden-parity regression: every catalog grid vs its legacy output.

``tests/golden/<entry>.txt`` snapshots the tables each legacy benchmark
printed (recorded once, at quick scale, from the pre-port ad-hoc loops
via ``REPRO_GOLDEN_DIR=tests/golden python -m pytest benchmarks/``).
This suite re-runs every catalog entry through the declarative sweep
pipeline — spec -> checkpointed store -> aggregation -> rendered tables
— and asserts the bytes match, proving the port changed *nothing* about
the numbers the paper reproduction reports.

All entries share one session store (the ``repro reproduce``
deployment shape) and execute on the process pool, which doubles as a
continuous end-to-end exercise of the multi-process backend.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import is_full_scale
from repro.sweeps import CATALOG, ResultStore, run_entry

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"

pytestmark = pytest.mark.skipif(
    is_full_scale(),
    reason="golden snapshots are recorded at quick scale",
)


@pytest.fixture(scope="session")
def parity_store(tmp_path_factory):
    """One shared store for every entry — grids must coexist in it."""
    return ResultStore(
        tmp_path_factory.mktemp("catalog-parity") / "store.jsonl"
    )


def test_every_golden_has_an_entry_and_vice_versa():
    golden = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
    assert golden == set(CATALOG), (
        "catalog entries and golden snapshots diverged; re-record with "
        "REPRO_GOLDEN_DIR=tests/golden python -m pytest benchmarks/"
    )


@pytest.mark.parametrize("name", list(CATALOG))
def test_entry_rows_match_legacy_output(name, parity_store):
    entry = CATALOG[name]
    outcome = run_entry(entry, parity_store, workers=4)
    assert outcome.complete, outcome.summary()
    text = "".join(table.render() + "\n" for table in outcome.tables())
    golden = (GOLDEN_DIR / f"{name}.txt").read_text()
    if entry.normalize is not None:
        text = entry.normalize(text)
        golden = entry.normalize(golden)
    assert text == golden, (
        f"{name}: catalog-rendered tables differ from the legacy "
        f"benchmark output"
    )


@pytest.mark.parametrize("name", list(CATALOG))
def test_entry_resumes_to_zero_executions(name, parity_store):
    """After the parity run, every grid is fully checkpointed."""
    outcome = run_entry(CATALOG[name], parity_store)
    assert outcome.executed == []
    assert outcome.complete
