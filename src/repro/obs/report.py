"""Offline analysis of a span journal: the ``repro trace`` report.

Loads the JSONL trace a :class:`~repro.obs.Tracer` journaled and
renders four views:

* **span tree** — spans aggregated by their name *path* (parent names
  joined with ``/``), with count, total duration, and self time, so a
  10k-span sweep collapses to a dozen readable rows;
* **critical path** — the longest root span, descending through each
  level's longest child: where one slow run actually spent its time;
* **top spans by self time** — per-name totals with children's time
  subtracted, the "which phase dominates" answer;
* **breakdowns** — per-point (``sweep.point`` spans, straggler cells
  first) and per-tenant (``serve.request`` spans with queue-wait and
  dedup-path stats).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from ..io import Journal
from .trace import TRACE_SCHEMA_VERSION

__all__ = ["load_trace", "render_trace_report"]


def load_trace(path: object) -> list[dict]:
    """Read a span journal; return records sorted by span id.

    Parents allocate their ids before their children, so id order is a
    topological order of every trace tree in the file.
    """
    journal = Journal(path, TRACE_SCHEMA_VERSION, key_field="span_id")
    return sorted(journal.records(), key=lambda r: r["span_id"])


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _span_hint(record: dict) -> str:
    """A short identifying attribute for critical-path entries."""
    attrs = record.get("attrs", {})
    for key in ("label", "tenant", "fingerprint", "task"):
        value = attrs.get(key)
        if value:
            text = str(value)
            return f"[{key}={text[:16]}]"
    return ""


def _children_index(spans: list[dict]) -> dict[Any, list[dict]]:
    children: dict[Any, list[dict]] = defaultdict(list)
    for record in spans:
        children[record.get("parent_id")].append(record)
    return children


def _self_times(
    spans: list[dict], children: dict[Any, list[dict]]
) -> dict[Any, float]:
    """Per-span self time: duration minus direct children's durations.

    Clamped at zero — children running concurrently (process-pool
    points, serve's threads) can sum past their parent's wall clock.
    """
    out = {}
    for record in spans:
        child_total = sum(
            child["duration_s"] for child in children[record["span_id"]]
        )
        out[record["span_id"]] = max(
            0.0, record["duration_s"] - child_total
        )
    return out


def _tree_lines(
    spans: list[dict],
    children: dict[Any, list[dict]],
    self_times: dict[Any, float],
) -> list[str]:
    # Aggregate by name path; id order guarantees parents come first.
    paths: dict[Any, tuple[str, ...]] = {}
    agg: dict[tuple[str, ...], list[float]] = {}
    order: list[tuple[str, ...]] = []
    for record in spans:
        parent_path = paths.get(record.get("parent_id"), ())
        path = parent_path + (record["name"],)
        paths[record["span_id"]] = path
        bucket = agg.get(path)
        if bucket is None:
            bucket = agg[path] = [0.0, 0.0, 0.0]
            order.append(path)
        bucket[0] += 1
        bucket[1] += record["duration_s"]
        bucket[2] += self_times[record["span_id"]]
    lines = ["span tree (aggregated by name):"]
    width = max(
        (len(path[-1]) + 2 * len(path) for path in order), default=10
    )
    for path in order:
        count, total, self_time = agg[path]
        indent = "  " * len(path)
        name = f"{indent}{path[-1]}"
        lines.append(
            f"{name:<{width + 2}} {int(count):>6}x  "
            f"total {_fmt_seconds(total):>8}  "
            f"self {_fmt_seconds(self_time):>8}"
        )
    return lines


def _critical_path_lines(
    spans: list[dict], children: dict[Any, list[dict]]
) -> list[str]:
    roots = children.get(None, [])
    if not roots:
        return []
    node = max(roots, key=lambda r: r["duration_s"])
    hops = []
    while node is not None:
        hint = _span_hint(node)
        hops.append(
            f"{node['name']}{hint} {_fmt_seconds(node['duration_s'])}"
        )
        kids = children[node["span_id"]]
        node = max(kids, key=lambda r: r["duration_s"]) if kids else None
    return ["critical path:", "  " + " -> ".join(hops)]


def _top_self_lines(
    spans: list[dict], self_times: dict[Any, float], top: int
) -> list[str]:
    per_name: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for record in spans:
        bucket = per_name[record["name"]]
        bucket[0] += self_times[record["span_id"]]
        bucket[1] += 1
    ranked = sorted(
        per_name.items(), key=lambda item: item[1][0], reverse=True
    )[:top]
    lines = [f"top {len(ranked)} spans by self time:"]
    width = max((len(name) for name, _ in ranked), default=10)
    for name, (self_time, count) in ranked:
        mean = self_time / count if count else 0.0
        lines.append(
            f"  {name:<{width}}  self {_fmt_seconds(self_time):>8}  "
            f"over {int(count)} spans (mean {_fmt_seconds(mean)})"
        )
    return lines


def _per_point_lines(spans: list[dict], top: int) -> list[str]:
    points = [r for r in spans if r["name"] == "sweep.point"]
    if not points:
        return []
    points.sort(key=lambda r: r["duration_s"], reverse=True)
    total = sum(r["duration_s"] for r in points)
    lines = [
        f"sweep points ({len(points)} spans, {_fmt_seconds(total)} "
        f"total; slowest first):"
    ]
    for record in points[:top]:
        attrs = record.get("attrs", {})
        label = str(attrs.get("label") or attrs.get("fingerprint", "?"))
        task = attrs.get("task", "?")
        lines.append(
            f"  {_fmt_seconds(record['duration_s']):>8}  "
            f"{task:<14} {label[:48]}"
        )
    if len(points) > top:
        lines.append(f"  ... and {len(points) - top} more")
    return lines


def _per_tenant_lines(spans: list[dict]) -> list[str]:
    requests = [r for r in spans if r["name"] == "serve.request"]
    if not requests:
        return []
    per_tenant: dict[str, dict] = {}
    for record in requests:
        attrs = record.get("attrs", {})
        tenant = str(attrs.get("tenant", "?"))
        stats = per_tenant.setdefault(
            tenant,
            {"count": 0, "total": 0.0, "wait": 0.0, "paths": defaultdict(int)},
        )
        stats["count"] += 1
        stats["total"] += record["duration_s"]
        stats["wait"] += float(attrs.get("queue_wait_s", 0.0))
        stats["paths"][str(attrs.get("path", "?"))] += 1
    lines = [f"serve requests by tenant ({len(requests)} spans):"]
    width = max(len(tenant) for tenant in per_tenant)
    for tenant in sorted(per_tenant):
        stats = per_tenant[tenant]
        paths = ", ".join(
            f"{count} {path}"
            for path, count in sorted(stats["paths"].items())
        )
        mean_wait = stats["wait"] / stats["count"]
        lines.append(
            f"  {tenant:<{width}}  {stats['count']:>4} requests  "
            f"total {_fmt_seconds(stats['total']):>8}  "
            f"mean queue wait {_fmt_seconds(mean_wait):>8}  ({paths})"
        )
    return lines


def render_trace_report(path: object, top: int = 10) -> str:
    """The full ``repro trace`` report for one span journal."""
    spans = load_trace(path)
    if not spans:
        return f"trace {path}: no spans\n"
    children = _children_index(spans)
    self_times = _self_times(spans, children)
    first = min(r["start_s"] for r in spans)
    last = max(r["start_s"] + r["duration_s"] for r in spans)
    sections = [
        [
            f"trace {path}: {len(spans)} spans over "
            f"{_fmt_seconds(last - first)}"
        ],
        _tree_lines(spans, children, self_times),
        _critical_path_lines(spans, children),
        _top_self_lines(spans, self_times, top),
        _per_point_lines(spans, top),
        _per_tenant_lines(spans),
    ]
    return "\n\n".join(
        "\n".join(section) for section in sections if section
    ) + "\n"
