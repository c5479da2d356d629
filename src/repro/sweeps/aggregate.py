"""Reductions from stored sweep records back into figure shapes.

Records are the JSON dicts a :class:`~repro.sweeps.store.ResultStore`
holds; fields are addressed by dotted paths into that nested structure
(``"point.scheme"``, ``"point.device.scale"``, ``"result.energy"``).

* :func:`select` / :func:`get_path` — filter and field access.
* :func:`pivot` — the row x column table of mean values the paper's
  figures print (noise scale x scheme, workload x scheme, ...).

A single-record cell reduces to exactly its stored float, so a table
pivoted from a resumed store is bit-identical to one from an
uninterrupted run.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["get_path", "select", "pivot"]

_MISSING = object()


def get_path(record: Mapping, path: str, default=_MISSING):
    """Dotted-path lookup, e.g. ``get_path(rec, "point.device.scale")``."""
    value = record
    for part in path.split("."):
        if not isinstance(value, Mapping) or part not in value:
            if default is _MISSING:
                raise KeyError(f"record has no field {path!r}")
            return default
        value = value[part]
    return value


def select(records: Iterable[Mapping], **criteria) -> list[Mapping]:
    """Records whose dotted-path fields equal the given values.

    Dots can't appear in keyword names, so use ``__`` as the separator:
    ``select(records, point__scheme="varsaw", point__workload__key="H2O-6")``.
    A record that lacks one of the paths simply doesn't match — in a
    heterogeneous store (the benchmark catalog's shared store mixes
    task shapes) an absent field is a non-match, not an error.
    """
    no_match = object()
    paths = {key.replace("__", "."): value for key, value in criteria.items()}
    return [
        record
        for record in records
        if all(
            get_path(record, path, default=no_match) == value
            for path, value in paths.items()
        )
    ]


def pivot(
    records: Iterable[Mapping],
    rows: str,
    cols: str,
    value: str = "result.energy",
) -> tuple[list, list, dict]:
    """Row x column table of mean values.

    Returns ``(row_labels, col_labels, cells)`` with ``cells`` keyed by
    ``(row_label, col_label)``; missing combinations are simply absent.
    Label order is first-appearance order over the records.
    """
    row_labels: list = []
    col_labels: list = []
    buckets: dict[tuple, list[float]] = {}
    for record in records:
        row_key = get_path(record, rows)
        col_key = get_path(record, cols)
        if row_key not in row_labels:
            row_labels.append(row_key)
        if col_key not in col_labels:
            col_labels.append(col_key)
        buckets.setdefault((row_key, col_key), []).append(
            float(get_path(record, value))
        )
    cells = {
        key: sum(values) / len(values) for key, values in buckets.items()
    }
    return row_labels, col_labels, cells
