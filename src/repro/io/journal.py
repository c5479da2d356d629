"""Append-only, crash-tolerant JSONL journals (the shared core).

One line per completed record::

    {"schema": <version>, "<key field>": "...", ...payload...}

Design rules that make a killed writer resumable — shared verbatim by
the sweeps :class:`~repro.sweeps.ResultStore` (which pioneered them)
and the serve subsystem's queue/results journals:

* **Append-only, one record per line.**  A record is written only after
  its unit of work finished; partially-executed work leaves no trace.
* **Atomic line writes.**  Each record is serialized first and written
  as a single ``write`` + flush + fsync under a lock, so concurrent
  writer threads never interleave bytes and a crash can corrupt at most
  the final line.
* **Tolerant loading.**  Undecodable lines (the torn tail of a killed
  run) and records with an unknown ``schema`` version are counted and
  skipped, never fatal — the work they describe simply re-executes.
* **Key-first-wins merge.**  Within one file, the *first* record for a
  key wins (later duplicates are ignored), so re-running a producer can
  only add records, never change history.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Journal", "LoadReport"]


@dataclass(frozen=True)
class LoadReport:
    """What one pass over a journal file found."""

    records: dict
    corrupt_lines: int
    incompatible_records: int
    duplicate_records: int


class Journal:
    """An append-only JSONL file with an in-memory key index.

    Thread-safe: writers append concurrently under an internal lock.
    The in-memory index mirrors the file, so membership checks
    (``key in journal``) are O(1) without re-reading.

    Parameters
    ----------
    path:
        The JSONL file (created lazily on first append).
    schema_version:
        The integer every record's ``schema`` field must equal; records
        written under any other version are skipped on load.
    key_field:
        The record field holding the unique key (first record wins).
    required_fields:
        Additional fields a record must carry to load; records missing
        any are counted as corrupt and skipped.
    """

    def __init__(
        self,
        path,
        schema_version: int,
        *,
        key_field: str = "fingerprint",
        required_fields: tuple[str, ...] = (),
    ):
        self.path = Path(path)
        self.schema_version = int(schema_version)
        self.key_field = key_field
        self.required_fields = tuple(required_fields)
        # Re-entrant so subclasses can compose multi-step operations
        # (e.g. sequence-numbered id allocation + append) atomically.
        self._lock = threading.RLock()
        self._index: dict[str, dict] = {}
        self._load_report: LoadReport | None = None
        if self.path.exists():
            self.load()

    # ------------------------------------------------------------- reading

    def _parse_lines(self, lines: Iterable[str]) -> LoadReport:
        records: dict[str, dict] = {}
        corrupt = incompatible = duplicates = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = record[self.key_field]
                schema = record["schema"]
                for field in self.required_fields:
                    record[field]
            except (json.JSONDecodeError, KeyError, TypeError):
                corrupt += 1
                continue
            if schema != self.schema_version:
                incompatible += 1
                continue
            if key in records:
                duplicates += 1
                continue
            records[key] = record
        return LoadReport(
            records=records,
            corrupt_lines=corrupt,
            incompatible_records=incompatible,
            duplicate_records=duplicates,
        )

    def load(self) -> LoadReport:
        """(Re)read the file into the in-memory index; return the report."""
        with self._lock:
            if self.path.exists():
                with self.path.open(encoding="utf-8") as handle:
                    report = self._parse_lines(handle)
            else:
                report = LoadReport({}, 0, 0, 0)
            self._index = report.records
            self._load_report = report
            return report

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: str) -> dict | None:
        """The record stored under ``key`` (``None`` when absent)."""
        return self._index.get(key)

    def records(self) -> list[dict]:
        """All records, in file (i.e. completion) order."""
        return list(self._index.values())

    def keys(self) -> set[str]:
        """Every stored key."""
        return set(self._index)

    @property
    def load_report(self) -> LoadReport | None:
        """The report from the most recent :meth:`load` (or ``None``)."""
        return self._load_report

    # ------------------------------------------------------------- writing

    def append_record(self, key: str, record: dict) -> bool:
        """The one atomic-append protocol: lock, write, fsync, index.

        Returns ``False`` without touching the file when the key is
        already present (history is immutable).
        """
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if key in self._index:
                return False
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            self._index[key] = record
        return True

    def append_many(self, items: Iterable[tuple[object, dict]]) -> int:
        """Append many ``(key, record)`` pairs with a single fsync.

        The batched form of :meth:`append_record` for high-volume
        writers (the span journal): all new lines are serialized
        first, written in one ``write`` + flush + fsync under the
        lock, and indexed together.  Keys already present are skipped,
        exactly as in the single-record protocol.  Returns the number
        of records actually written.
        """
        with self._lock:
            fresh: list[tuple[object, dict, str]] = []
            seen: set = set()
            for key, record in items:
                if key in self._index or key in seen:
                    continue
                seen.add(key)
                fresh.append(
                    (key, record, json.dumps(record, sort_keys=True))
                )
            if not fresh:
                return 0
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(
                    "".join(line + "\n" for _, _, line in fresh)
                )
                handle.flush()
                os.fsync(handle.fileno())
            for key, record, _ in fresh:
                self._index[key] = record
        return len(fresh)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.path} "
            f"({len(self._index)} records)>"
        )
