"""repro.sweeps — declarative, resumable, parallel experiment sweeps.

Every table/figure in the paper is a grid sweep: workload x scheme x
budget x seed x device, each cell one deterministic tuning run.  This
package turns those grids from ad-hoc loops into data:

* :mod:`~repro.sweeps.spec` — :class:`SweepSpec`/:class:`Point`
  describe the grid declaratively; every point has a content-addressed
  fingerprint.
* :mod:`~repro.sweeps.store` — :class:`ResultStore`, an append-only
  JSONL store keyed by point fingerprint with atomic line writes,
  schema versioning, and tolerant load/merge — a killed sweep resumes
  by skipping completed points.
* :mod:`~repro.sweeps.tasks` — the task-executor registry: every grid
  cell shape in the paper (VQE tuning, energy/ZNE at optimal
  parameters, structure counts, Trotter quenches, the extension
  studies) as a deterministic ``point -> JSON result`` function.
* :mod:`~repro.sweeps.runner` — :func:`run_sweep` executes pending
  points inline (``workers=1``) or on a process pool (``workers=N``)
  with per-point deterministic seeding, one shared engine per backend,
  progress callbacks, and wall-clock + circuit/shot-ledger capture per
  point; stored results are bit-identical either way (and with
  ``shards=N``, see :mod:`repro.dist`).
* :mod:`~repro.sweeps.aggregate` — record selection and mean pivots
  from stored records back into the row/series shapes the figures
  print.
* :mod:`~repro.sweeps.catalog` — all 27 paper grids (plus extension
  grids) registered as
  :class:`CatalogEntry`\\ s (spec builder + record-to-table reshaper);
  ``repro reproduce`` regenerates any subset against one shared,
  resumable store, and ``tests/golden/`` pins the rendered tables
  byte-identical to the legacy benchmarks.

Typical use::

    from repro.sweeps import SweepSpec, ResultStore, run_sweep, pivot

    spec = SweepSpec(
        name="noise-sweep",
        base={"workload": {"key": "H2O-6"}, "shots": 256, "seed": 5},
        axes={
            "device": [{"preset": "ibmq_mumbai_like", "scale": s}
                       for s in (0.1, 1.0, 3.0)],
            "scheme": ["baseline", "varsaw"],
        },
    )
    store = ResultStore("noise-sweep.jsonl")
    report = run_sweep(spec, store, workers=4)   # kill it, re-run: resumes
    rows, cols, cells = pivot(
        store.records(), "point.device.scale", "point.scheme"
    )
"""

from __future__ import annotations

from .aggregate import get_path, pivot, select
from .catalog import (
    CATALOG,
    CatalogEntry,
    EntryOutcome,
    entry_names,
    get_entry,
    reproduce,
    run_entry,
)
from .render import Table, fmt, render_table
from .runner import SweepReport, execute_point, run_sweep
from .spec import POINT_SCHEMA_VERSION, WORKLOAD_KINDS, Point, SweepSpec
from .store import RESULT_SCHEMA_VERSION, ResultStore
from .tasks import TASKS

__all__ = [
    "Point",
    "SweepSpec",
    "POINT_SCHEMA_VERSION",
    "WORKLOAD_KINDS",
    "ResultStore",
    "RESULT_SCHEMA_VERSION",
    "run_sweep",
    "execute_point",
    "SweepReport",
    "TASKS",
    "pivot",
    "select",
    "get_path",
    "Table",
    "render_table",
    "fmt",
    "CATALOG",
    "CatalogEntry",
    "EntryOutcome",
    "entry_names",
    "get_entry",
    "reproduce",
    "run_entry",
]
