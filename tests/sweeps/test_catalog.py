"""Catalog structure: every registered grid buildable and well-formed."""

from __future__ import annotations

import copy
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.sweeps import Point, ResultStore, SweepSpec
from repro.sweeps.catalog import (
    CATALOG,
    fig8_cost_scaling,
    get_entry,
    run_entry,
)
from repro.sweeps.tasks import TASKS

EXPECTED_ENTRIES = {
    "fig6_fig7", "fig8", "fig9", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19",
    "table1", "table3", "table4", "table5",
    "sec67",
    "ext_calibration_gating", "ext_engine_throughput",
    "ext_gc_grouping", "ext_layout_routing",
    "ext_mitigation_shootout", "ext_qaoa",
    "ext_selective_mitigation", "ext_spin_models",
    "ext_trotter_mitigation", "ext_tuner_comparison",
    "ext_zne_comparison",
    "ext_api_session",
    "ext_backend_matrix",
    "ext_serve_throughput",
    "ext_dist_scaling",
    "ext_drift_frontier",
    "ext_drift_schedules",
}


def test_all_grids_registered():
    # The paper's 27 grids plus the PR 4 inline-estimator-spec entry,
    # the PR 5 execution-backend matrix, the PR 6 serve benchmark, the
    # PR 9 sharded-sweep scaling benchmark, and the PR 10 calibration
    # drift frontier + schedule sweep.
    assert set(CATALOG) == EXPECTED_ENTRIES
    assert len(CATALOG) == 33


def test_unknown_entry_raises():
    with pytest.raises(KeyError):
        get_entry("fig99")


@pytest.mark.parametrize("name", sorted(EXPECTED_ENTRIES))
def test_entry_builds_a_valid_spec(name):
    entry = CATALOG[name]
    spec = entry.build()
    assert isinstance(spec, SweepSpec)
    assert spec.name == name
    points = spec.points()
    assert len(points) >= 1
    # Every point is executable: its task is registered and its
    # fingerprint is stable across a JSON round trip.
    for point in points:
        assert point.task in TASKS
        clone = Point.from_dict(point.to_dict())
        assert clone.fingerprint() == point.fingerprint()


def test_specs_build_deterministically():
    for entry in CATALOG.values():
        first = [p.fingerprint() for p in entry.build().points()]
        second = [p.fingerprint() for p in entry.build().points()]
        assert first == second


def test_entries_do_not_collide_in_one_store():
    """All grids coexist in one shared store: within an entry every
    cell is distinct (a duplicate fingerprint would silently drop a
    grid cell); across entries a shared fingerprint is dedup, which is
    fine."""
    total = 0
    for entry in CATALOG.values():
        fingerprints = [
            p.fingerprint() for p in entry.build().points()
        ]
        assert len(fingerprints) == len(set(fingerprints)), entry.name
        total += len(fingerprints)
    assert total > 100  # the full catalog is a real grid population


def test_import_repro_leaves_catalog_and_tasks_unloaded():
    """Every process that imports ``repro`` (serve, perfbench, pool
    workers) skips the paper catalog and the task registry until it
    uses them."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    code = (
        "import sys, repro; print(sorted(m for m in sys.modules "
        "if m in ('repro.sweeps.catalog', 'repro.sweeps.tasks')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestFig8Claim:
    """The Fig. 8 claim checks the stored series, not the cost model."""

    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fig8") / "fig8.jsonl"
        return run_entry(get_entry("fig8"), ResultStore(path)).records

    def test_holds_on_the_stored_series(self, records):
        fig8_cost_scaling(records)

    def test_no_records_fail(self):
        with pytest.raises(AssertionError):
            fig8_cost_scaling([])

    def test_one_perturbed_value_fails(self, records):
        broken = copy.deepcopy(records)
        point = broken[0]["result"]["series"]["VarSaw (k=0.1)"][3]
        point[1] *= 1.0 + 1e-9  # every ordering still holds
        with pytest.raises(AssertionError, match="VarSaw"):
            fig8_cost_scaling(broken)
