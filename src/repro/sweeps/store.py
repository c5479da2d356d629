"""Append-only, crash-tolerant JSONL results store.

One line per completed point::

    {"schema": 1, "fingerprint": "...", "point": {...},
     "result": {...}, "wall_time_s": 1.23, "finished_at": ...}

The durability discipline — atomic single-line appends, torn-tail
tolerant loading, fingerprint-first-wins merge — lives in the shared
:class:`repro.io.Journal` base (it started here and was factored out
for the serve subsystem's job queue); this module keeps the
sweep-specific record shape: a record is written only after its point
finished, keyed by the point's content fingerprint, so a killed sweep
resumes by skipping completed points.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Mapping

from ..io.journal import Journal, LoadReport
from .spec import Point

__all__ = ["RESULT_SCHEMA_VERSION", "LoadReport", "ResultStore"]

#: Bumped when the record layout changes incompatibly; loading skips
#: records written under a different version.
RESULT_SCHEMA_VERSION = 1


class ResultStore(Journal):
    """The checkpoint file behind one (or many) sweeps.

    The sweep runner appends from the thread that called it:
    process-pool workers hand their results back to that thread, and
    shard workers write their own shard stores, which the coordinator
    merges.  The in-memory index mirrors the file, so membership
    checks (``fingerprint in store``) are O(1) without re-reading.
    """

    def __init__(self, path):
        super().__init__(
            Path(path),
            RESULT_SCHEMA_VERSION,
            key_field="fingerprint",
            required_fields=("result",),
        )

    def fingerprints(self) -> set[str]:
        """Every stored point fingerprint (alias of :meth:`keys`)."""
        return self.keys()

    def append(
        self,
        point: Point,
        result: Mapping,
        wall_time_s: float,
        fingerprint: str | None = None,
    ) -> dict:
        """Checkpoint one completed point (atomic single-line append).

        Returns the record as stored.  If the fingerprint is already
        present the existing record is returned untouched — history is
        immutable.
        """
        fingerprint = fingerprint or point.fingerprint()
        record = {
            "schema": RESULT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "point": point.to_dict(),
            "result": dict(result),
            "wall_time_s": float(wall_time_s),
            "finished_at": time.time(),
        }
        if not self.append_record(fingerprint, record):
            return self._index[fingerprint]
        return record

    def __repr__(self) -> str:
        return f"<ResultStore {self.path} ({len(self._index)} records)>"
