"""The benchmark catalog: every paper grid as a declarative sweep.

Each of the repository's figure/table benchmarks (the paper's 27 grids
plus the extension studies) is registered here as a
:class:`CatalogEntry`:

* ``build()`` returns the grid as a :class:`~repro.sweeps.SweepSpec`
  (scale-aware: quick under the default ``REPRO_SCALE``, paper-sized
  under ``REPRO_SCALE=full``);
* ``tables(records)`` reshapes the stored records back into the exact
  printed tables (:class:`~repro.sweeps.render.Table`) the legacy
  benchmarks produced — byte-identical, as pinned by the golden-parity
  suite in ``tests/sweeps/test_catalog_parity.py``;
* ``followup(spec, records)`` (rare) yields data-dependent second-stage
  points — e.g. Fig. 13's ideal trace, whose iteration count is the
  maximum over the budgeted noisy runs.

``benchmarks/bench_*.py`` are thin shims over these entries, and the
``repro reproduce`` CLI runs any subset of the catalog against one
shared, resumable result store — the whole paper regenerates through a
single checkpointed pipeline.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..analysis.scale import scaled
from .aggregate import select
from .render import Table, fmt
from .runner import run_sweep
from .spec import Point, SweepSpec
from .store import ResultStore

__all__ = [
    "CatalogEntry",
    "EntryOutcome",
    "CATALOG",
    "get_entry",
    "entry_names",
    "run_entry",
    "reproduce",
]

#: The shared noisy device most experiments use (Section 5.1).
MUMBAI2 = {"preset": "ibmq_mumbai_like", "scale": 2.0}


@dataclass(frozen=True)
class CatalogEntry:
    """One benchmark grid: spec builder + record-to-table reshaper."""

    name: str
    figure: str
    title: str
    build: Callable[[], SweepSpec]
    tables: Callable[[list], list]
    followup: Callable[[SweepSpec, list], Iterable[Point]] | None = None
    #: Optional text normalizer applied before golden comparison (only
    #: for entries whose printed tables contain volatile wall-clock
    #: columns).
    normalize: Callable[[str], str] | None = None


CATALOG: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    if entry.name in CATALOG:
        raise ValueError(f"duplicate catalog entry {entry.name!r}")
    CATALOG[entry.name] = entry


def get_entry(name: str) -> CatalogEntry:
    """Look up one registered grid (``KeyError`` names the choices)."""
    if name not in CATALOG:
        raise KeyError(
            f"unknown catalog entry {name!r}; "
            f"choose from {', '.join(CATALOG)}"
        )
    return CATALOG[name]


def entry_names() -> list[str]:
    """Every registered entry name, in registration order."""
    return list(CATALOG)


# ------------------------------------------------------------ execution


@dataclass
class EntryOutcome:
    """What running one catalog entry did (grid + followup combined)."""

    entry: CatalogEntry
    total: int
    executed: list[str] = field(default_factory=list)
    skipped: int = 0
    records: list[dict] = field(default_factory=list)
    complete: bool = False

    def tables(self) -> list[Table]:
        """The entry's printed tables (requires a complete grid)."""
        if not self.complete:
            raise RuntimeError(
                f"entry {self.entry.name!r} is not complete "
                f"({len(self.records)}/{self.total} points stored); "
                "re-run without --limit to finish it"
            )
        return self.entry.tables(self.records)

    def summary(self) -> str:
        """One-line progress summary (the CLI's report line)."""
        state = "complete" if self.complete else "incomplete"
        return (
            f"{self.entry.name}: executed {len(self.executed)} points, "
            f"skipped {self.skipped} already complete "
            f"({self.total} total, {state})"
        )


def run_entry(
    entry: CatalogEntry | str,
    store: ResultStore,
    workers: int = 1,
    limit: int | None = None,
    progress=None,
    shards: int = 1,
) -> EntryOutcome:
    """Execute one catalog entry's grid (plus followup) into ``store``.

    ``workers > 1`` runs the grid on a process pool and ``shards > 1``
    through shard worker subprocesses (see
    :func:`repro.sweeps.runner.run_sweep`); records are byte-identical
    either way.
    """
    if isinstance(entry, str):
        entry = get_entry(entry)
    spec = entry.build()
    report = run_sweep(
        spec, store, workers=workers, progress=progress, limit=limit,
        shards=shards,
    )
    outcome = EntryOutcome(
        entry=entry,
        total=report.total,
        executed=list(report.executed),
        skipped=report.skipped,
        records=list(report.records.values()),
        complete=report.pending_after == 0,
    )
    if entry.followup is not None and outcome.complete:
        remaining = (
            None if limit is None
            else max(0, limit - len(outcome.executed))
        )
        extra = list(entry.followup(spec, outcome.records))
        if extra:
            second = run_sweep(
                extra, store, workers=workers, progress=progress,
                limit=remaining, shards=shards,
            )
            outcome.total += second.total
            outcome.executed += list(second.executed)
            outcome.skipped += second.skipped
            outcome.records += list(second.records.values())
            outcome.complete = second.pending_after == 0
    return outcome


def reproduce(
    names: Iterable[str] | None = None,
    store: ResultStore | None = None,
    workers: int = 1,
    limit: int | None = None,
    progress=None,
    shards: int = 1,
) -> list[EntryOutcome]:
    """Run a subset of the catalog (default: all) into one shared store.

    ``limit`` bounds the number of points executed across the whole
    call, so a drip-fed (or deliberately interrupted) regeneration can
    be resumed by calling again with the same store.
    """
    if store is None:
        raise ValueError("reproduce() needs a ResultStore")
    names = list(names) if names is not None else entry_names()
    outcomes = []
    remaining = limit
    for name in names:
        outcome = run_entry(
            get_entry(name), store, workers=workers,
            limit=remaining, progress=progress, shards=shards,
        )
        outcomes.append(outcome)
        if remaining is not None:
            remaining = max(0, remaining - len(outcome.executed))
    return outcomes


# -------------------------------------------------------------- helpers


def _one(records: list, **criteria) -> dict:
    """The single record matching the dotted-path criteria."""
    matches = select(records, **criteria)
    if len(matches) != 1:
        raise LookupError(
            f"expected exactly one record for {criteria}; "
            f"got {len(matches)}"
        )
    return matches[0]


def _keys_in_order(records: list) -> list[str]:
    """Distinct workload keys, first-appearance order."""
    return list(dict.fromkeys(
        r["point"]["workload"]["key"] for r in records
        if "key" in r["point"]["workload"]
    ))


def _pim(ideal, reference, mitigated) -> float:
    from ..analysis import percent_inaccuracy_mitigated

    return percent_inaccuracy_mitigated(ideal, reference, mitigated)


# ============================================================ fig6_fig7

FIG6_TERMS = [
    "ZZIZ", "ZIZX", "ZZII", "IIZX", "ZXXZ",
    "XZIZ", "ZXIZ", "IXZZ", "XIZZ", "XXIX",
]

FIG7_LABELS = ("III", "IIZ", "IZZ", "ZZZ")


def _build_fig6_fig7() -> SweepSpec:
    cells = [
        {
            "task": "structure",
            "workload": {"terms": FIG6_TERMS, "name": "fig6"},
            "options": {"window": 2, "cover": True,
                        "subset_labels": True},
        }
    ]
    cells += [
        {
            "task": "commuting_parents",
            "options": {"label": label, "n_qubits": 3,
                        "alphabet": "IXZ"},
        }
        for label in FIG7_LABELS
    ]
    return SweepSpec(name="fig6_fig7", cells=cells)


def _tables_fig6_fig7(records: list) -> list[Table]:
    stats = _one(records, point__task="structure")["result"]
    counts = {
        r["point"]["options"]["label"]: r["result"]["parents"]
        for r in select(records, point__task="commuting_parents")
    }
    return [
        Table(
            "Fig. 6 worked example (paper values: 10 / 7 / 21 / 9)",
            ["stage", "circuits"],
            [
                ["(1) H_Base Pauli terms", stats["paulis"]],
                ["(2) C_Comm after trivial commutation",
                 stats["cover_groups"]],
                ["(3) C_JigSaw 2-qubit sliding-window subsets",
                 stats["jigsaw"]],
                ["(4) C_VarSaw commuted subsets", stats["varsaw"]],
            ],
        ),
        Table(
            "Fig. 7 commuting-parent counts (paper: 26 / 8 / 2 / 0)",
            ["Pauli", "parents"],
            [[label, counts[label]] for label in FIG7_LABELS],
        ),
    ]


_register(CatalogEntry(
    name="fig6_fig7",
    figure="Figs. 6 & 7",
    title="Commutation worked example and commutativity graph",
    build=_build_fig6_fig7,
    tables=_tables_fig6_fig7,
))


# ================================================================= fig8

FIG8_QUBITS = [4, 10, 50, 100, 200, 500, 1000]
FIG8_SPARSITIES = [1.0, 0.1, 0.01, 0.001]


def _build_fig8() -> SweepSpec:
    return SweepSpec(
        name="fig8",
        base={
            "task": "cost_model",
            "options": {"qubits": FIG8_QUBITS,
                        "sparsities": FIG8_SPARSITIES},
        },
        cells=[{}],
    )


def _tables_fig8(records: list) -> list[Table]:
    series = records[0]["result"]["series"]
    qubits = records[0]["point"]["options"]["qubits"]
    headers = ["Q"] + list(series)
    rows = []
    for i, q in enumerate(qubits):
        rows.append(
            [q] + [f"{series[label][i][1]:.3g}" for label in series]
        )
    return [Table("Fig. 8: circuits per VQA iteration", headers, rows)]


_register(CatalogEntry(
    name="fig8",
    figure="Fig. 8",
    title="Circuits per VQA iteration vs qubit count",
    build=_build_fig8,
    tables=_tables_fig8,
))


# ================================================================= fig9

FIG9_KINDS = ["varsaw_no_sparsity", "varsaw_max_sparsity"]


def _build_fig9() -> SweepSpec:
    warm = scaled(True, False)
    return SweepSpec(
        name="fig9",
        base={
            "workload": {"key": "CH4-6"},
            "circuit_budget": scaled(25_000, 400_000),
            "shots": scaled(256, 1024),
            "seed": 9,
            "max_iterations": 100_000,
            "warm_start_iterations": 300 if warm else None,
        },
        cells=[
            {"device": {"preset": "ideal"}},
            {"device": MUMBAI2},
        ],
        axes={"scheme": FIG9_KINDS},
    )


def _fig9_setting(point: Mapping) -> str:
    return (
        "noise-free" if point["device"]["preset"] == "ideal" else "noisy"
    )


def _tables_fig9(records: list) -> list[Table]:
    first = records[0]
    budget = first["point"]["circuit_budget"]
    ideal = first["result"]["ideal_energy"]
    rows = []
    for record in records:
        result = record["result"]
        rows.append([
            _fig9_setting(record["point"]),
            record["point"]["scheme"],
            fmt(result["energy"]),
            result["iterations"],
            result["circuits"],
        ])
    return [Table(
        f"Fig. 9: sparsity extremes on CH4-6 "
        f"(ideal = {ideal:.2f}, budget = {budget})",
        ["setting", "scheme", "energy", "iterations", "circuits"],
        rows,
    )]


_register(CatalogEntry(
    name="fig9",
    figure="Fig. 9",
    title="Global-sparsity extremes, noise-free vs noisy (CH4-6)",
    build=_build_fig9,
    tables=_tables_fig9,
))


# ================================================================ fig12


def _build_fig12() -> SweepSpec:
    from ..hamiltonian import molecule_keys

    keys = scaled(
        [k for k in molecule_keys() if k != "Cr2-34"], molecule_keys()
    )
    return SweepSpec(
        name="fig12",
        base={"task": "structure", "options": {"window": 2}},
        axes={"workload": [{"key": key} for key in keys]},
    )


def fig12_rows(records: list) -> list[dict]:
    """Fig. 12 row dicts from stored records (shared with the shim)."""
    rows = []
    for record in records:
        result = record["result"]
        rows.append({
            "key": record["point"]["workload"]["key"],
            "baseline": result["baseline"],
            "jigsaw": result["jigsaw"],
            "varsaw": result["varsaw"],
            "jig_rel": result["jigsaw"] / result["baseline"],
            "var_rel": result["varsaw"] / result["baseline"],
            "ratio": result["jigsaw"] / result["varsaw"],
        })
    return rows


def _tables_fig12(records: list) -> list[Table]:
    return [Table(
        "Fig. 12: subsets relative to baseline Paulis",
        ["workload", "baseline", "JigSaw", "VarSaw",
         "JigSaw/base", "VarSaw/base", "JigSaw:VarSaw"],
        [
            [r["key"], r["baseline"], r["jigsaw"], r["varsaw"],
             fmt(r["jig_rel"]), fmt(r["var_rel"], 3), fmt(r["ratio"], 1)]
            for r in fig12_rows(records)
        ],
    )]


_register(CatalogEntry(
    name="fig12",
    figure="Fig. 12",
    title="Pauli-term reduction in measurement subsets vs JigSaw",
    build=_build_fig12,
    tables=_tables_fig12,
))


# ================================================================ fig13

FIG13_KINDS = ["baseline", "jigsaw", "varsaw"]


def _build_fig13() -> SweepSpec:
    warm = scaled(True, False)
    return SweepSpec(
        name="fig13",
        base={
            "workload": {"key": "CH4-6"},
            "device": MUMBAI2,
            "circuit_budget": scaled(30_000, 600_000),
            "shots": scaled(256, 1024),
            "seed": 13,
            "max_iterations": 100_000,
            "warm_start_iterations": 300 if warm else None,
        },
        cells=[
            {"scheme": "baseline"},
            {"scheme": "jigsaw"},
            {"scheme": "varsaw", "options": {"trace": True}},
        ],
    )


def _followup_fig13(spec: SweepSpec, records: list) -> list[Point]:
    max_iters = max(r["result"]["iterations"] for r in records)
    base = dict(spec.base)
    return [Point(
        workload=base["workload"],
        scheme="ideal",
        device={"preset": "ideal"},
        seed=base["seed"],
        shots=base["shots"],
        max_iterations=max_iters,
        warm_start_iterations=base.get("warm_start_iterations"),
    )]


def _tables_fig13(records: list) -> list[Table]:
    budget = records[0]["point"]["circuit_budget"]
    ideal = records[0]["result"]["ideal_energy"]
    rows = []
    for record in records:
        result = record["result"]
        rows.append([
            record["point"]["scheme"], fmt(result["energy"]),
            result["iterations"], result["circuits"],
        ])
    return [Table(
        f"Fig. 13: CH4-6, fixed budget of {budget} circuits "
        f"(ideal ground energy {ideal:.2f})",
        ["scheme", "final energy", "iterations", "circuits used"],
        rows,
    )]


_register(CatalogEntry(
    name="fig13",
    figure="Fig. 13",
    title="CH4 VQE energy traces under a fixed circuit budget",
    build=_build_fig13,
    tables=_tables_fig13,
    followup=_followup_fig13,
))


# ================================================================ fig14


def _build_fig14() -> SweepSpec:
    from ..hamiltonian import molecule_keys

    keys = scaled(
        ["LiH-6", "H2O-6", "CH4-6"], molecule_keys(temporal_only=True)
    )
    warm = scaled(True, False)
    return SweepSpec(
        name="fig14",
        base={
            "device": MUMBAI2,
            "max_iterations": scaled(80, 2000),
            "shots": scaled(256, 1024),
            "seed": 14,
            "warm_start_iterations": 300 if warm else None,
        },
        axes={
            "workload": [{"key": key} for key in keys],
            "scheme": ["baseline", "varsaw"],
        },
    )


def fig14_rows(records: list) -> list[dict]:
    """Fig. 14's per-workload summary rows (shared with the shim)."""
    rows = []
    for key in _keys_in_order(records):
        base = _one(records, point__workload__key=key,
                    point__scheme="baseline")
        var = _one(records, point__workload__key=key,
                   point__scheme="varsaw")
        rows.append({
            "key": key,
            "ideal": base["result"]["ideal_energy"],
            "baseline": base["result"]["energy"],
            "varsaw": var["result"]["energy"],
            "mitigated": _pim(
                base["result"]["ideal_energy"],
                base["result"]["energy"],
                var["result"]["energy"],
            ),
            "global_fraction": var["result"]["global_fraction"],
        })
    return rows


def _tables_fig14(records: list) -> list[Table]:
    iterations = records[0]["point"]["max_iterations"]
    return [Table(
        f"Fig. 14: VarSaw vs noisy baseline over {iterations} iterations",
        ["workload", "ideal", "baseline", "VarSaw", "% mitigated",
         "global fraction"],
        [
            [r["key"], fmt(r["ideal"]), fmt(r["baseline"]),
             fmt(r["varsaw"]), fmt(r["mitigated"], 0),
             fmt(r["global_fraction"], 3)]
            for r in fig14_rows(records)
        ],
    )]


_register(CatalogEntry(
    name="fig14",
    figure="Fig. 14",
    title="% of noisy-VQE inaccuracy mitigated by VarSaw",
    build=_build_fig14,
    tables=_tables_fig14,
))


# ================================================================ fig15


def _build_fig15() -> SweepSpec:
    from ..hamiltonian import build_hamiltonian, molecule_keys

    keys = scaled(
        ["LiH-6", "H2O-6", "CH4-6"], molecule_keys(temporal_only=True)
    )
    warm = scaled(True, False)
    cells = []
    for key in keys:
        hamiltonian = build_hamiltonian(key)
        groups = len(hamiltonian.measurement_groups())
        # Budget sized so JigSaw affords a few hundred evaluations at
        # full scale (paper: JigSaw completes a few 100 iterations).
        budget = scaled(80, 800) * groups * (hamiltonian.n_qubits - 1)
        cells.append({
            "workload": {"key": key}, "circuit_budget": budget,
        })
    return SweepSpec(
        name="fig15",
        base={
            "device": MUMBAI2,
            "shots": scaled(256, 1024),
            "seed": 15,
            "max_iterations": 100_000,
            "warm_start_iterations": 300 if warm else None,
        },
        cells=cells,
        axes={"scheme": ["jigsaw", "varsaw"]},
    )


def fig15_rows(records: list) -> list[dict]:
    """Fig. 15 row dicts from stored records (shared with the shim)."""
    rows = []
    for key in _keys_in_order(records):
        jig = _one(records, point__workload__key=key,
                   point__scheme="jigsaw")
        var = _one(records, point__workload__key=key,
                   point__scheme="varsaw")
        rows.append({
            "key": key,
            "budget": jig["point"]["circuit_budget"],
            "jigsaw": jig["result"],
            "varsaw": var["result"],
            "mitigated": _pim(
                jig["result"]["ideal_energy"],
                jig["result"]["energy"],
                var["result"]["energy"],
            ),
        })
    return rows


def _tables_fig15(records: list) -> list[Table]:
    return [Table(
        "Fig. 15: VarSaw vs JigSaw at equal circuit budget",
        ["workload", "budget", "JigSaw E (iters)", "VarSaw E (iters)",
         "% inaccuracy mitigated"],
        [
            [
                r["key"],
                r["budget"],
                f"{fmt(r['jigsaw']['energy'])} "
                f"({r['jigsaw']['iterations']})",
                f"{fmt(r['varsaw']['energy'])} "
                f"({r['varsaw']['iterations']})",
                fmt(r["mitigated"], 0),
            ]
            for r in fig15_rows(records)
        ],
    )]


_register(CatalogEntry(
    name="fig15",
    figure="Fig. 15",
    title="VQE accuracy of VarSaw over JigSaw at fixed budget",
    build=_build_fig15,
    tables=_tables_fig15,
))


# ================================================================ fig16

FIG16_DEVICES = [
    ("lagos", {"preset": "ibm_lagos_like", "scale": 2.0}),
    ("jakarta", {"preset": "ibm_jakarta_like", "scale": 2.0}),
]


def _build_fig16() -> SweepSpec:
    return SweepSpec(
        name="fig16",
        base={
            "workload": {"named": "paper_tfim"},
            "circuit_budget": scaled(6_000, 60_000),
            "shots": scaled(256, 1024),
            "seed": 16,
            "max_iterations": 100_000,
        },
        cells=[{"device": device} for _, device in FIG16_DEVICES],
        axes={"scheme": FIG9_KINDS},
    )


def _fig16_device_name(point: Mapping) -> str:
    preset = point["device"]["preset"]
    return preset.removeprefix("ibm_").removesuffix("_like")


def _tables_fig16(records: list) -> list[Table]:
    budget = records[0]["point"]["circuit_budget"]
    ideal = records[0]["result"]["ideal_energy"]
    rows = []
    for record in records:
        result = record["result"]
        rows.append([
            _fig16_device_name(record["point"]),
            record["point"]["scheme"],
            fmt(result["energy"]),
            result["iterations"],
            result["circuits"],
        ])
    return [Table(
        f"Fig. 16: TFIM-5 (3 Pauli terms), ideal = {ideal:.3f}, "
        f"budget = {budget} circuits",
        ["device", "scheme", "energy", "iterations", "circuits"],
        rows,
    )]


_register(CatalogEntry(
    name="fig16",
    figure="Fig. 16",
    title="VarSaw temporal optimization on device models (TFIM-5)",
    build=_build_fig16,
    tables=_tables_fig16,
))


# ================================================================ fig17


def _build_fig17() -> SweepSpec:
    warm = scaled(True, False)
    return SweepSpec(
        name="fig17",
        base={
            "workload": {"key": "LiH-6", "reps": 4},
            "device": MUMBAI2,
            "circuit_budget": scaled(30_000, 300_000),
            "shots": scaled(256, 1024),
            "seed": 17,
            "max_iterations": 100_000,
            "warm_start_iterations": 300 if warm else None,
        },
        axes={"scheme": FIG9_KINDS},
    )


def _tables_fig17(records: list) -> list[Table]:
    budget = records[0]["point"]["circuit_budget"]
    ideal = records[0]["result"]["ideal_energy"]
    rows = []
    for record in records:
        result = record["result"]
        rows.append([
            record["point"]["scheme"], fmt(result["energy"]),
            result["iterations"], result["circuits"],
        ])
    return [Table(
        f"Fig. 17: LiH-6, p = 4, budget = {budget} "
        f"(ideal = {ideal:.2f})",
        ["scheme", "final energy", "iterations", "circuits"],
        rows,
    )]


_register(CatalogEntry(
    name="fig17",
    figure="Fig. 17",
    title="Global sparsity at ansatz depth p = 4 (LiH-6)",
    build=_build_fig17,
    tables=_tables_fig17,
))


# ================================================================ fig18


def _build_fig18() -> SweepSpec:
    warm = scaled(True, False)
    return SweepSpec(
        name="fig18",
        base={
            "scheme": "varsaw",
            "device": MUMBAI2,
            "max_iterations": scaled(60, 800),
            "shots": scaled(256, 1024),
            "seed": 18,
            "warm_start_iterations": 300 if warm else None,
        },
        cells=[
            {"workload": {"key": key}} for key in ["LiH-6", "H2O-6"]
        ],
        axes={"estimator": [{}, {"mbm": True}]},
    )


def _tables_fig18(records: list) -> list[Table]:
    iterations = records[0]["point"]["max_iterations"]
    rows = []
    for key in _keys_in_order(records):
        plain = _one(records, point__workload__key=key,
                     point__estimator={})
        stacked = _one(records, point__workload__key=key,
                       point__estimator={"mbm": True})
        rows.append([
            key,
            fmt(plain["result"]["ideal_energy"]),
            fmt(plain["result"]["energy"]),
            fmt(stacked["result"]["energy"]),
        ])
    return [Table(
        f"Fig. 18: VarSaw vs VarSaw+MBM over {iterations} iterations",
        ["workload", "ideal", "VarSaw", "VarSaw+MBM"],
        rows,
    )]


_register(CatalogEntry(
    name="fig18",
    figure="Fig. 18",
    title="Stacking VarSaw with matrix-based mitigation",
    build=_build_fig18,
    tables=_tables_fig18,
))


# ================================================================ fig19

FIG19_WINDOWS = [2, 3, 4, 5]
FIG19_KEYS = ["LiH-6", "CH4-6", "H2O-6"]


def _build_fig19() -> SweepSpec:
    shots = scaled(2048, 8192)
    trials = scaled(2, 5)
    cells = []
    for key in FIG19_KEYS:
        cells.append({
            "workload": {"key": key}, "scheme": "ideal",
            "options": {"params_iterations": 300},
        })
        cells.append({
            "workload": {"key": key}, "scheme": "baseline",
            "device": MUMBAI2,
            "options": {"params_iterations": 300, "trials": trials},
        })
        for window in FIG19_WINDOWS:
            cells.append({
                "workload": {"key": key},
                "scheme": "varsaw_no_sparsity",
                "device": MUMBAI2,
                "estimator": {"window": window},
                "options": {"params_iterations": 300,
                            "trials": trials},
            })
    return SweepSpec(
        name="fig19",
        base={"task": "energy", "shots": shots},
        cells=cells,
    )


def fig19_rows(records: list) -> list[dict]:
    """Fig. 19 row dicts from stored records (shared with the shim)."""
    from ..core import count_varsaw_subsets
    from ..hamiltonian import build_hamiltonian

    rows = []
    for key in FIG19_KEYS:
        ref = _one(records, point__workload__key=key,
                   point__scheme="ideal")["result"]["energy"]
        noisy = _one(records, point__workload__key=key,
                     point__scheme="baseline")["result"]["energy"]
        hamiltonian = build_hamiltonian(key)
        for window in FIG19_WINDOWS:
            mitigated = _one(
                records, point__workload__key=key,
                point__scheme="varsaw_no_sparsity",
                point__estimator__window=window,
            )["result"]["energy"]
            rows.append({
                "key": key,
                "window": window,
                "subsets": count_varsaw_subsets(
                    hamiltonian, window=window
                ),
                "improvement": _pim(ref, noisy, mitigated),
            })
    return rows


def _tables_fig19(records: list) -> list[Table]:
    return [Table(
        "Fig. 19: subset-size sweep at optimal parameters",
        ["workload", "window", "subset circuits",
         "% accuracy improvement"],
        [
            [r["key"], r["window"], r["subsets"],
             fmt(r["improvement"], 0)]
            for r in fig19_rows(records)
        ],
    )]


_register(CatalogEntry(
    name="fig19",
    figure="Fig. 19",
    title="Subset-size sweep at optimal parameters",
    build=_build_fig19,
    tables=_tables_fig19,
))


# =============================================================== table1

TABLE1_KEYS = ["LiH-6", "H2O-6", "H2-4", "CH4-6"]


def _build_table1() -> SweepSpec:
    shots = scaled(2048, 8192)
    trials = scaled(2, 5)
    tune_iterations = scaled(300, 1500)
    cells = []
    for key in TABLE1_KEYS:
        cells.append({
            "workload": {"key": key}, "scheme": "ideal",
            "options": {"params_iterations": tune_iterations},
        })
        for scheme in ("baseline", "jigsaw"):
            cells.append({
                "workload": {"key": key}, "scheme": scheme,
                "device": MUMBAI2,
                "options": {"params_iterations": tune_iterations,
                            "trials": trials},
            })
    return SweepSpec(
        name="table1",
        base={"task": "energy", "shots": shots},
        cells=cells,
    )


def table1_rows(records: list) -> list[dict]:
    """Table 1 row dicts from stored records (shared with the shim)."""
    rows = []
    for key in TABLE1_KEYS:
        ref_record = _one(records, point__workload__key=key,
                          point__scheme="ideal")
        ref = ref_record["result"]["energy"]
        noisy = _one(records, point__workload__key=key,
                     point__scheme="baseline")["result"]["energy"]
        jigsaw = _one(records, point__workload__key=key,
                      point__scheme="jigsaw")["result"]["energy"]
        rows.append({
            "key": key,
            "ground": ref_record["result"]["ideal_energy"],
            "ref": ref,
            "noisy": noisy,
            "jigsaw": jigsaw,
            "recovered": _pim(ref, noisy, jigsaw),
        })
    return rows


def _tables_table1(records: list) -> list[Table]:
    return [Table(
        "Table 1: energies at optimal parameters (subset size 2)",
        ["Workload", "Ground", "Ref@params", "Noisy VQE", "VQE+JigSaw",
         "% recovered"],
        [
            [r["key"], fmt(r["ground"]), fmt(r["ref"]), fmt(r["noisy"]),
             fmt(r["jigsaw"]), fmt(r["recovered"], 0)]
            for r in table1_rows(records)
        ],
    )]


_register(CatalogEntry(
    name="table1",
    figure="Table 1",
    title="JigSaw circuit-level mitigation at optimal parameters",
    build=_build_table1,
    tables=_tables_table1,
))


# ========================================================== table3 / 4


def _selective_cells(keys: list[str], variations, field_name: str):
    from ..hamiltonian import build_hamiltonian

    cells = []
    for key in keys:
        groups = len(build_hamiltonian(key).measurement_groups())
        budget = scaled(150, 4000) * groups
        for variation in variations:
            workload = {"key": key}
            if variation is not None:
                workload[field_name] = variation
            cells.append({
                "workload": workload, "circuit_budget": budget,
            })
    return cells


def _build_table3() -> SweepSpec:
    from ..ansatz import ENTANGLEMENT_TYPES

    keys = scaled(["CH4-6"], ["CH4-6", "H2O-6", "LiH-6"])
    return SweepSpec(
        name="table3",
        base={
            "device": MUMBAI2,
            "shots": scaled(256, 1024),
            "seed": 3,
            "max_iterations": 100_000,
        },
        cells=_selective_cells(
            keys, list(ENTANGLEMENT_TYPES), "entanglement"
        ),
        axes={"scheme": ["varsaw_no_sparsity", "varsaw"]},
    )


def _build_table4() -> SweepSpec:
    keys = scaled(["CH4-6"], ["CH4-6", "H2O-6", "LiH-6"])
    return SweepSpec(
        name="table4",
        base={
            "device": MUMBAI2,
            "shots": scaled(256, 1024),
            "seed": 4,
            "max_iterations": 100_000,
        },
        cells=_selective_cells(keys, [1, 2, 4, 8], "reps"),
        axes={"scheme": ["varsaw_no_sparsity", "varsaw"]},
    )


def selective_table(records: list, field_name: str, variations) -> dict:
    """Table 3/4 cells keyed ``(key, variation)`` (shared with shims)."""
    table = {}
    for key in _keys_in_order(records):
        for variation in variations:
            criteria = {"point__workload__key": key}
            if field_name == "reps":
                criteria["point__workload__reps"] = variation
            else:
                criteria["point__workload__entanglement"] = variation
            dense = _one(records, point__scheme="varsaw_no_sparsity",
                         **criteria)["result"]
            sparse = _one(records, point__scheme="varsaw",
                          **criteria)["result"]
            table[(key, variation)] = {
                "mitigated": _pim(
                    dense["ideal_energy"], dense["energy"],
                    sparse["energy"],
                ),
                "dense_iters": dense["iterations"],
                "sparse_iters": sparse["iterations"],
                "gap": sparse["energy"] - dense["energy"],
            }
    return table


def _selective_rows(records, field_name, variations) -> list[list]:
    table = selective_table(records, field_name, variations)
    return [
        [key]
        + [
            f"{fmt(table[(key, v)]['mitigated'], 1)} "
            f"({table[(key, v)]['sparse_iters']}/"
            f"{table[(key, v)]['dense_iters']})"
            for v in variations
        ]
        for key in _keys_in_order(records)
    ]


def _tables_table3(records: list) -> list[Table]:
    from ..ansatz import ENTANGLEMENT_TYPES

    return [Table(
        "Table 3: % inaccuracy mitigated by selective Globals, "
        "per ansatz (sparse/dense iterations in parentheses)",
        ["Workload"] + list(ENTANGLEMENT_TYPES),
        _selective_rows(
            records, "entanglement", list(ENTANGLEMENT_TYPES)
        ),
    )]


def _tables_table4(records: list) -> list[Table]:
    depths = [1, 2, 4, 8]
    return [Table(
        "Table 4: % inaccuracy mitigated by selective Globals, "
        "per depth p (sparse/dense iterations in parentheses)",
        ["Workload"] + [f"p = {p}" for p in depths],
        _selective_rows(records, "reps", depths),
    )]


_register(CatalogEntry(
    name="table3",
    figure="Table 3",
    title="Selective-execution benefit across ansatz types",
    build=_build_table3,
    tables=_tables_table3,
))

_register(CatalogEntry(
    name="table4",
    figure="Table 4",
    title="Selective-execution benefit across ansatz depths",
    build=_build_table4,
    tables=_tables_table4,
))


# =============================================================== table5

TABLE5_KINDS = ["baseline", "varsaw_no_sparsity", "varsaw_max_sparsity"]


def _build_table5() -> SweepSpec:
    from ..hamiltonian import build_hamiltonian

    scales = scaled(
        [5.0, 3.0, 1.0, 0.1], [5.0, 3.0, 1.0, 0.8, 0.5, 0.1, 0.05]
    )
    groups = len(build_hamiltonian("H2O-6").measurement_groups())
    warm = scaled(True, False)
    return SweepSpec(
        name="table5",
        base={
            "workload": {"key": "H2O-6"},
            "circuit_budget": scaled(120, 2000) * groups,
            "shots": scaled(256, 1024),
            "seed": 5,
            "max_iterations": 100_000,
            "warm_start_iterations": 300 if warm else None,
        },
        axes={
            "device": [
                {"preset": "ibmq_mumbai_like", "scale": scale}
                for scale in scales
            ],
            "scheme": TABLE5_KINDS,
        },
    )


def table5_grid(records: list) -> dict:
    """``{scale: {scheme: energy}}`` in grid order (shared with shim)."""
    grid: dict = {}
    for record in records:
        scale = record["point"]["device"]["scale"]
        grid.setdefault(scale, {})[record["point"]["scheme"]] = (
            record["result"]["energy"]
        )
    return grid


def _tables_table5(records: list) -> list[Table]:
    budget = records[0]["point"]["circuit_budget"]
    ideal = records[0]["result"]["ideal_energy"]
    grid = table5_grid(records)
    return [Table(
        f"Table 5: H2O-6 noise sweep, budget = {budget} "
        f"(ideal = {ideal:.2f})",
        ["Noise scale", "Baseline", "VarSaw (No Sparsity)",
         "VarSaw (Max Sparsity)"],
        [
            [f"{scale:g}"]
            + [fmt(grid[scale][kind]) for kind in TABLE5_KINDS]
            for scale in grid
        ],
    )]


_register(CatalogEntry(
    name="table5",
    figure="Table 5",
    title="Global sparsity across noise scales (H2O-6)",
    build=_build_table5,
    tables=_tables_table5,
))


# ================================================================ sec67


def _build_sec67() -> SweepSpec:
    keys = scaled(
        ["CH4-6", "H2O-6"],
        ["LiH-6", "H2O-6", "CH4-6", "LiH-8", "H2O-8", "CH4-8"],
    )
    cells = []
    for key in keys:
        cells.append({"task": "structure", "workload": {"key": key}})
        cells.append({
            "task": "tuning",
            "workload": {"key": key},
            "scheme": "varsaw",
            "device": MUMBAI2,
            "max_iterations": scaled(60, 500),
            "shots": scaled(256, 1024),
            "seed": 67,
        })
    return SweepSpec(name="sec67", cells=cells)


def sec67_rows(records: list) -> list[dict]:
    """Section 6.7 row dicts from stored records (shared with the shim)."""
    rows = []
    for key in _keys_in_order(records):
        counts = _one(records, point__task="structure",
                      point__workload__key=key)["result"]
        run = _one(records, point__task="tuning",
                   point__workload__key=key)["result"]
        baseline = counts["baseline"]
        fraction = run["global_fraction"]
        rows.append({
            "key": key,
            "baseline": baseline,
            "jigsaw": baseline + counts["jigsaw"],
            "spatial": baseline + counts["varsaw"],
            "full": fraction * baseline + counts["varsaw"],
            "fraction": fraction,
        })
    return rows


def _tables_sec67(records: list) -> list[Table]:
    return [Table(
        "Section 6.7: per-iteration circuit cost by configuration",
        ["workload", "baseline", "JigSaw", "VarSaw spatial-only",
         "VarSaw full", "global fraction", "full vs JigSaw",
         "full vs base"],
        [
            [r["key"], r["baseline"], r["jigsaw"], r["spatial"],
             fmt(r["full"], 1), fmt(r["fraction"], 3),
             fmt(r["jigsaw"] / r["full"], 1) + "x",
             fmt(r["baseline"] / r["full"], 1) + "x"]
            for r in sec67_rows(records)
        ],
    )]


_register(CatalogEntry(
    name="sec67",
    figure="Section 6.7",
    title="Isolated effect of each VarSaw optimization",
    build=_build_sec67,
    tables=_tables_sec67,
))


# ============================================== ext_calibration_gating

CALIBRATION_THRESHOLDS = [None, 0.0001, 0.01, 0.1]


def _build_ext_calibration_gating() -> SweepSpec:
    return SweepSpec(
        name="ext_calibration_gating",
        base={"task": "calibration_gate"},
        cells=[
            {"options": {"threshold": threshold}}
            for threshold in CALIBRATION_THRESHOLDS
        ],
    )


def _tables_ext_calibration_gating(records: list) -> list[Table]:
    rows = []
    for record in records:
        threshold = record["point"]["options"]["threshold"]
        label = "off" if threshold is None else f"{threshold:g}"
        result = record["result"]
        rows.append([
            label, result["skipped"], result["circuits"],
            fmt(result["error"], 3),
        ])
    return [Table(
        "Extension: calibration-gated subsetting on a split-quality "
        "device (H2-4, first evaluation incl. Globals)",
        ["gate threshold", "subsets skipped", "circuits/eval",
         "|error| (Ha)"],
        rows,
    )]


_register(CatalogEntry(
    name="ext_calibration_gating",
    figure="Extension (§7.1)",
    title="Calibration-gated subsetting threshold sweep",
    build=_build_ext_calibration_gating,
    tables=_tables_ext_calibration_gating,
))


# ================================================== ext_drift_frontier

#: Fractional rate increase of the step schedule (0 = no drift).
DRIFT_MAGNITUDES = [0.0, 1.0, 2.0]
DRIFT_POLICIES = ["static", "oracle", "online"]

#: The frontier device: lagos-like at 2x noise, drifting in epochs of
#: 24 circuits (one epoch per-ish objective evaluation) with the step
#: landing at epoch 2 — mid-trace at every scale.
_DRIFT_DEVICE = {"preset": "ibm_lagos_like", "scale": 2.0}
_DRIFT_PERIOD = 24


def _drift_payload(magnitude: float) -> dict:
    if magnitude == 0.0:
        return {"kind": "constant", "period": _DRIFT_PERIOD}
    return {
        "kind": "step",
        "magnitude": magnitude,
        "at": 2,
        "period": _DRIFT_PERIOD,
    }


def _build_ext_drift_frontier() -> SweepSpec:
    evaluations = scaled(8, 24)
    return SweepSpec(
        name="ext_drift_frontier",
        base={
            "task": "drift_frontier",
            "workload": {"key": "H2-4"},
            "shots": 512,
            "seed": 11,
        },
        cells=[
            {
                "device": {**_DRIFT_DEVICE, "drift": _drift_payload(m)},
                "options": {
                    "policy": policy,
                    "magnitude": m,
                    "evaluations": evaluations,
                },
            }
            for m in DRIFT_MAGNITUDES
            for policy in DRIFT_POLICIES
        ],
    )


def _tables_ext_drift_frontier(records: list) -> list[Table]:
    by = {}
    for record in records:
        options = record["point"]["options"]
        by[(options["magnitude"], options["policy"])] = record["result"]
    rows = []
    for magnitude in DRIFT_MAGNITUDES:
        for policy in DRIFT_POLICIES:
            result = by[(magnitude, policy)]
            rows.append([
                f"{magnitude:g}", policy,
                fmt(result["mean_error"], 3),
                fmt(result["final_error"], 3),
                result["circuits"],
                result["globals_executed"],
                result["recalibrations"],
            ])
    return [Table(
        "Extension: re-calibration policies under step calibration "
        "drift (H2-4, lagos-like x2, fixed parameters)",
        ["drift magnitude", "policy", "mean |error| (Ha)",
         "final |error| (Ha)", "circuits", "globals", "re-calibrations"],
        rows,
    )]


_register(CatalogEntry(
    name="ext_drift_frontier",
    figure="Extension (drift)",
    title="Re-calibration policy cost/accuracy frontier under drift",
    build=_build_ext_drift_frontier,
    tables=_tables_ext_drift_frontier,
))


# ================================================= ext_drift_schedules

#: Schedule kinds the online policy is exercised against (label,
#: schedule payload) — one cell each, magnitudes chosen so every
#: drifting kind moves the rates well past probe shot noise.
DRIFT_SCHEDULE_CELLS = [
    ("constant", {"kind": "constant", "period": _DRIFT_PERIOD}),
    ("step", {"kind": "step", "magnitude": 2.0, "at": 2,
              "period": _DRIFT_PERIOD}),
    ("linear", {"kind": "linear", "magnitude": 2.0, "ramp": 4,
                "period": _DRIFT_PERIOD}),
    ("sine", {"kind": "sine", "magnitude": 1.0, "wavelength": 4,
              "period": _DRIFT_PERIOD}),
    ("random_walk", {"kind": "random_walk", "step_std": 0.35, "seed": 7,
                     "period": _DRIFT_PERIOD}),
]


def _build_ext_drift_schedules() -> SweepSpec:
    evaluations = scaled(8, 24)
    return SweepSpec(
        name="ext_drift_schedules",
        base={
            "task": "drift_frontier",
            "workload": {"key": "H2-4"},
            "shots": 512,
            "seed": 11,
        },
        cells=[
            {
                "device": {**_DRIFT_DEVICE, "drift": payload},
                "options": {
                    "policy": "online",
                    "schedule": label,
                    "evaluations": evaluations,
                },
            }
            for label, payload in DRIFT_SCHEDULE_CELLS
        ],
    )


def _tables_ext_drift_schedules(records: list) -> list[Table]:
    by = {
        record["point"]["options"]["schedule"]: record["result"]
        for record in records
    }
    rows = []
    for label, _ in DRIFT_SCHEDULE_CELLS:
        result = by[label]
        rows.append([
            label,
            fmt(result["mean_error"], 3),
            fmt(result["final_error"], 3),
            result["circuits"],
            result["globals_executed"],
            result["recalibrations"],
            fmt(result["peak_statistic"], 2),
        ])
    return [Table(
        "Extension: the online policy across drift schedule kinds "
        "(H2-4, lagos-like x2, fixed parameters)",
        ["schedule", "mean |error| (Ha)", "final |error| (Ha)",
         "circuits", "globals", "re-calibrations", "peak CUSUM"],
        rows,
    )]


_register(CatalogEntry(
    name="ext_drift_schedules",
    figure="Extension (drift)",
    title="Online re-calibration across drift schedule kinds",
    build=_build_ext_drift_schedules,
    tables=_tables_ext_drift_schedules,
))


# ================================================ ext_engine_throughput


def _build_ext_engine_throughput() -> SweepSpec:
    return SweepSpec(
        name="ext_engine_throughput",
        base={"task": "engine_replay"},
        cells=[
            {"options": {"cache": False}},
            {"options": {}},
        ],
    )


def _tables_ext_engine_throughput(records: list) -> list[Table]:
    direct = _one(records, point__options={"cache": False})["result"]
    engine = _one(records, point__options={})["result"]
    speedup = direct["seconds"] / engine["seconds"]
    return [Table(
        "Extension: engine-batched vs direct execution "
        "(H2-4 VarSaw trace, 12 points x 3 visits)",
        ["path", "wall-clock (s)", "circuits", "simulations",
         "cache hit rate", "speedup"],
        [
            [
                "direct (no cache)", fmt(direct["seconds"], 3),
                direct["circuits"], direct["simulations"], "-", "1.00x",
            ],
            [
                "engine (cached)", fmt(engine["seconds"], 3),
                engine["circuits"], engine["simulations"],
                f"{engine['hit_rate']:.1%}", f"{speedup:.2f}x",
            ],
        ],
    )]


_SECONDS = re.compile(r"\b\d+\.\d{3}\b")
_SPEEDUP = re.compile(r"\b\d+\.\d{2}x")


def _mask_timings(text: str, speedup: bool = False) -> str:
    """Mask the volatile wall-clock cells before golden comparison.

    Every ``#.###`` cell floats (seconds, and the rates and ratios
    printed to three places), and with ``speedup`` every ``#.##x``
    ratio too; record identity and every count stay pinned.  Runs of
    dashes and spaces collapse, so column widths may move.
    """
    text = _SECONDS.sub("#.###", text)
    if speedup:
        text = _SPEEDUP.sub("#.##x", text)
    text = re.sub(r"-{3,}", "---", text)
    text = re.sub(r" +", " ", text)
    return "\n".join(line.rstrip() for line in text.splitlines())


_register(CatalogEntry(
    name="ext_engine_throughput",
    figure="Extension (engine)",
    title="Execution-engine throughput on a repeated-parameter trace",
    build=_build_ext_engine_throughput,
    tables=_tables_ext_engine_throughput,
    normalize=functools.partial(_mask_timings, speedup=True),
))


# ===================================================== ext_gc_grouping

GC_WORKLOADS = ["H2-4", "LiH-6", "H2O-6", "CH4-6"]
GC_REGIMES = ["standard", "10x gate noise"]
GC_SCHEMES = ["QWC baseline", "GC estimator"]


def _build_ext_gc_grouping() -> SweepSpec:
    cells = [
        {"task": "gc_grouping", "workload": {"key": key}}
        for key in GC_WORKLOADS
    ]
    cells.append({"task": "gc_validity", "workload": {"key": "LiH-6"}})
    for regime in GC_REGIMES:
        for scheme in GC_SCHEMES:
            cells.append({
                "task": "gc_end_to_end",
                "options": {"regime": regime, "estimator": scheme},
            })
    return SweepSpec(name="ext_gc_grouping", cells=cells)


def _tables_ext_gc_grouping(records: list) -> list[Table]:
    grouping_rows = []
    for key in GC_WORKLOADS:
        r = _one(records, point__task="gc_grouping",
                 point__workload__key=key)["result"]
        grouping_rows.append([
            key, r["paulis"], r["qwc_groups"], r["gc_groups"],
            f"{r['qwc_groups'] / r['gc_groups']:.2f}x",
            r["qwc_rotation_cx"], r["gc_rotation_cx"],
        ])
    end_to_end_rows = []
    for regime in GC_REGIMES:
        for scheme in GC_SCHEMES:
            r = _one(records, point__task="gc_end_to_end",
                     point__options__regime=regime,
                     point__options__estimator=scheme)["result"]
            end_to_end_rows.append([
                regime, scheme, fmt(r["error"], 3), r["circuits"],
            ])
    return [
        Table(
            "Extension: QWC vs GC measurement grouping "
            "(fewer circuits vs entangling rotations)",
            ["workload", "paulis", "QWC groups", "GC groups", "QWC/GC",
             "QWC rot. CX", "GC rot. CX"],
            grouping_rows,
        ),
        Table(
            "Extension: QWC vs GC end-to-end energy error "
            "(LiH-6 at fixed params, 2048 shots/circuit, 5 trials)",
            ["noise regime", "scheme", "|error| (Ha)", "circuits/eval"],
            end_to_end_rows,
        ),
    ]


_register(CatalogEntry(
    name="ext_gc_grouping",
    figure="Extension (§3.1)",
    title="Qubit-wise vs general commutation grouping",
    build=_build_ext_gc_grouping,
    tables=_tables_ext_gc_grouping,
))


# =================================================== ext_layout_routing

PLACEMENT_WINDOWS = [2, 3, 4]


def _build_ext_layout_routing() -> SweepSpec:
    from ..ansatz import ENTANGLEMENT_TYPES

    cells = [
        {"task": "readout_placement", "options": {"window": window}}
        for window in PLACEMENT_WINDOWS
    ]
    cells += [
        {"task": "routing",
         "options": {"entanglement": entanglement, "n_qubits": 6,
                     "reps": 2}}
        for entanglement in ENTANGLEMENT_TYPES
    ]
    return SweepSpec(name="ext_layout_routing", cells=cells)


def _tables_ext_layout_routing(records: list) -> list[Table]:
    placement_rows = []
    for record in select(records, point__task="readout_placement"):
        r = record["result"]
        placement_rows.append([
            r["window"], fmt(r["default"], 4), fmt(r["best"], 4),
            f"{r['gain']:.1f}x",
        ])
    routing_rows = []
    for record in select(records, point__task="routing"):
        r = record["result"]
        routing_rows.append([
            r["entanglement"], r["logical_cx"], r["swaps"],
            r["native_cx"],
        ])
    return [
        Table(
            "Extension: subset measurement placement on "
            "ibmq_mumbai_like (mean readout error of measured window)",
            ["window", "default qubits", "best qubits", "gain"],
            placement_rows,
        ),
        Table(
            "Extension: EfficientSU2(6, p=2) routing cost on heavy-hex "
            "(one more reason hardware-efficient = sparse entanglement)",
            ["entanglement", "logical CX", "SWAPs", "native CX"],
            routing_rows,
        ),
    ]


_register(CatalogEntry(
    name="ext_layout_routing",
    figure="Extension (layout)",
    title="Layout & routing costs behind the paper's premises",
    build=_build_ext_layout_routing,
    tables=_tables_ext_layout_routing,
))


# ============================================== ext_mitigation_shootout

SHOOTOUT_WIDTHS = [4, 6, 8]


def _build_ext_mitigation_shootout() -> SweepSpec:
    cells = [
        {"task": "mitigation_shootout",
         "options": {"n_qubits": n, "shots": 8192, "noise_scale": 2.0}}
        for n in SHOOTOUT_WIDTHS
    ]
    cells.append({
        "task": "mitigation_stacking",
        "options": {"n_qubits": 6, "shots": 8192, "noise_scale": 2.0},
    })
    return SweepSpec(name="ext_mitigation_shootout", cells=cells)


def _tables_ext_mitigation_shootout(records: list) -> list[Table]:
    tables = []
    for n in SHOOTOUT_WIDTHS:
        results = _one(records, point__task="mitigation_shootout",
                       point__options__n_qubits=n)["result"]
        tables.append(Table(
            f"Extension: mitigation shootout, GHZ-{n} on "
            f"ibmq_mumbai_like(x2) — TVD to ideal (lower is better)",
            ["technique", "TVD", "circuits"],
            [
                [name, fmt(tvd, 4), circuits]
                for name, (tvd, circuits) in results.items()
            ],
        ))
    stacking = _one(records, point__task="mitigation_stacking")["result"]
    tables.append(Table(
        "Extension: M3-corrected Globals inside JigSaw (GHZ-6)",
        ["scheme", "TVD"],
        [[k, fmt(v, 4)] for k, v in stacking.items()],
    ))
    return tables


_register(CatalogEntry(
    name="ext_mitigation_shootout",
    figure="Extension (mitigation)",
    title="Measurement-mitigation shootout on fixed circuits",
    build=_build_ext_mitigation_shootout,
    tables=_tables_ext_mitigation_shootout,
))


# ============================================================= ext_qaoa

QAOA_WORKLOAD = {"qaoa": "ring", "n_qubits": 6, "reps": 2}
QAOA_KINDS = ["baseline", "varsaw_no_sparsity", "varsaw_max_sparsity"]


def _build_ext_qaoa() -> SweepSpec:
    budget = scaled(12_000, 60_000)
    cells = [{
        "task": "structure",
        "workload": dict(QAOA_WORKLOAD),
        "options": {"window": 2, "qwc": True},
    }]
    cells += [
        {
            "task": "tuning",
            "workload": dict(QAOA_WORKLOAD),
            "scheme": scheme,
            "device": MUMBAI2,
            "shots": 256,
            "seed": 23,
            "max_iterations": 100_000,
            "circuit_budget": budget,
            "spsa_gain": None,
        }
        for scheme in QAOA_KINDS
    ]
    return SweepSpec(name="ext_qaoa", cells=cells)


def _tables_ext_qaoa(records: list) -> list[Table]:
    stats = _one(records, point__task="structure")["result"]
    budget = select(records, point__task="tuning")[0]["point"][
        "circuit_budget"
    ]
    ideal = select(records, point__task="tuning")[0]["result"][
        "ideal_energy"
    ]
    temporal_rows = []
    for kind in QAOA_KINDS:
        r = _one(records, point__task="tuning",
                 point__scheme=kind)["result"]
        temporal_rows.append([
            kind, fmt(r["energy"], 3), r["iterations_completed"],
            r["circuits"],
        ])
    return [
        Table(
            "Extension: QAOA ring-6 spatial structure "
            "(all-Z terms are one QWC family)",
            ["quantity", "count"],
            [
                ["ZZ Pauli terms", stats["paulis"]],
                ["baseline cover circuits", stats["baseline"]],
                ["merged QWC families", stats["qwc_families"]],
                ["JigSaw subsets / iteration", stats["jigsaw"]],
                ["VarSaw subsets / iteration", stats["varsaw"]],
            ],
        ),
        Table(
            f"Extension: QAOA ring-6 temporal benefit "
            f"(fixed budget of {budget} circuits; ideal {ideal:.1f})",
            ["scheme", "energy", "iterations", "circuits"],
            temporal_rows,
        ),
    ]


_register(CatalogEntry(
    name="ext_qaoa",
    figure="Extension (§7.3)",
    title="VarSaw on QAOA MaxCut",
    build=_build_ext_qaoa,
    tables=_tables_ext_qaoa,
))


# ============================================ ext_selective_mitigation

MASS_FRACTIONS = [0.25, 0.5, 0.75, 1.0]


def _build_ext_selective_mitigation() -> SweepSpec:
    shots = scaled(2048, 8192)
    cells = [
        {
            "task": "energy",
            "workload": {"key": "CH4-6"},
            "scheme": "ideal",
            "shots": shots,
            "options": {"params_iterations": 300},
        },
        {
            "task": "energy",
            "workload": {"key": "CH4-6"},
            "scheme": "baseline",
            "device": MUMBAI2,
            "shots": shots,
            "options": {"params_iterations": 300},
        },
    ]
    cells += [
        {
            "task": "term_selective",
            "workload": {"key": "CH4-6"},
            "device": MUMBAI2,
            "shots": shots,
            "options": {"fraction": fraction, "params_iterations": 300},
        }
        for fraction in MASS_FRACTIONS
    ]
    phase_workload = scaled("H2-4", "CH4-6")
    cells += [
        {
            "task": "phase_selective",
            "workload": {"key": phase_workload},
            "device": MUMBAI2,
            "shots": scaled(256, 1024),
            "seed": 7,
            "options": {"policy": policy,
                        "iterations": scaled(60, 600),
                        "params_iterations": 300},
        }
        for policy in ("always", "endgame")
    ]
    return SweepSpec(name="ext_selective_mitigation", cells=cells)


def _tables_ext_selective_mitigation(records: list) -> list[Table]:
    ideal = _one(records, point__task="energy",
                 point__scheme="ideal")["result"]["energy"]
    baseline = _one(records, point__task="energy",
                    point__scheme="baseline")["result"]["energy"]
    fraction_rows = []
    for fraction in MASS_FRACTIONS:
        r = _one(records, point__task="term_selective",
                 point__options__fraction=fraction)["result"]
        fraction_rows.append([
            f"{fraction:.2f}", r["subsets"], fmt(r["error"], 3),
        ])
    phase_rows = []
    for policy in ("always", "endgame"):
        r = _one(records, point__task="phase_selective",
                 point__options__policy=policy)["result"]
        phase_rows.append([policy, fmt(r["energy"]), r["circuits"]])
    return [
        Table(
            f"Extension: term-selective mitigation on CH4-6 "
            f"(ideal@params {ideal:.2f}, baseline error "
            f"{abs(baseline - ideal):.3f})",
            ["mass fraction", "subset circuits", "|error| vs ideal"],
            fraction_rows,
        ),
        Table(
            "Extension: phase-selective mitigation",
            ["policy", "final energy", "circuits"],
            phase_rows,
        ),
    ]


_register(CatalogEntry(
    name="ext_selective_mitigation",
    figure="Extension (§7.3)",
    title="Selective mitigation: cost vs accuracy",
    build=_build_ext_selective_mitigation,
    tables=_tables_ext_selective_mitigation,
))


# ======================================================= ext_spin_models

SPIN_MODELS_SPEC = [
    ("TFIM", {"model": "tfim", "coupling": 1.0, "field": 0.7}),
    ("Heisenberg", {"model": "heisenberg", "field": 0.3}),
    ("XY", {"model": "xy", "anisotropy": 0.4, "field": 0.5}),
]


def _build_ext_spin_models() -> SweepSpec:
    spatial_n = scaled(8, 12)
    cells = [
        {
            "task": "structure",
            "workload": {**description, "n_qubits": spatial_n},
        }
        for _, description in SPIN_MODELS_SPEC
    ]
    warm = {"kind": "ideal_vqe", "iterations": scaled(200, 600),
            "seed": 73}
    for _, description in SPIN_MODELS_SPEC:
        for scheme in ("varsaw_no_sparsity", "varsaw_max_sparsity"):
            cells.append({
                "task": "tuning",
                "workload": {**description, "n_qubits": 6},
                "scheme": scheme,
                "device": MUMBAI2,
                "circuit_budget": scaled(8_000, 80_000),
                "shots": scaled(256, 1024),
                "seed": 73,
                "max_iterations": 100_000,
                "warm_start": warm,
            })
    return SweepSpec(name="ext_spin_models", cells=cells)


def _spin_record(records, task, model, **criteria):
    return _one(records, point__task=task,
                point__workload__model=model, **criteria)


def _tables_ext_spin_models(records: list) -> list[Table]:
    spatial_n = select(records, point__task="structure")[0]["point"][
        "workload"
    ]["n_qubits"]
    spatial_rows = []
    for name, description in SPIN_MODELS_SPEC:
        r = _spin_record(records, "structure",
                         description["model"])["result"]
        spatial_rows.append([
            name, r["terms"], r["baseline"], r["jigsaw"], r["varsaw"],
            fmt(r["jigsaw"] / r["varsaw"], 1) + "x",
        ])
    budget = select(records, point__task="tuning")[0]["point"][
        "circuit_budget"
    ]
    temporal_rows = []
    for name, description in SPIN_MODELS_SPEC:
        dense = _spin_record(
            records, "tuning", description["model"],
            point__scheme="varsaw_no_sparsity",
        )["result"]
        sparse = _spin_record(
            records, "tuning", description["model"],
            point__scheme="varsaw_max_sparsity",
        )["result"]
        temporal_rows.append([
            name,
            fmt(dense["ideal_energy"]),
            f"{fmt(dense['energy'])} ({dense['iterations']})",
            f"{fmt(sparse['energy'])} ({sparse['iterations']})",
        ])
    return [
        Table(
            f"Extension: spatial reduction on {spatial_n}-qubit "
            "spin models",
            ["model", "terms", "baseline circuits", "JigSaw subsets",
             "VarSaw subsets", "reduction"],
            spatial_rows,
        ),
        Table(
            f"Extension: temporal sparsity on 6-qubit spin models "
            f"(budget {budget})",
            ["model", "ideal", "No-Sparsity E (iters)",
             "Max-Sparsity E (iters)"],
            temporal_rows,
        ),
    ]


_register(CatalogEntry(
    name="ext_spin_models",
    figure="Extension (§7.3)",
    title="VarSaw on spin-model Hamiltonians",
    build=_build_ext_spin_models,
    tables=_tables_ext_spin_models,
))


# ================================================ ext_trotter_mitigation

QUENCH_TIMES = [0.25, 0.5, 1.0, 2.0]
QUENCH_SWEEP_TIMES = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6]
TROTTER_STEPS = [2, 4, 8, 16]


def _build_ext_trotter_mitigation() -> SweepSpec:
    cells = [
        {
            "task": "quench",
            "options": {"t": t, "n_qubits": 5, "field": 1.2,
                        "shots": 8192, "noise_scale": 2.0},
        }
        for t in QUENCH_TIMES
    ]
    cells += [
        {"task": "trotter_error", "options": {"steps": steps}}
        for steps in TROTTER_STEPS
    ]
    cells += [
        {
            "task": "quench_sweep",
            "options": {"period": period, "times": QUENCH_SWEEP_TIMES,
                        "n_qubits": 5, "field": 1.2, "shots": 4096,
                        "noise_scale": 2.0},
        }
        for period in (1, 4)
    ]
    return SweepSpec(name="ext_trotter_mitigation", cells=cells)


def _tables_ext_trotter_mitigation(records: list) -> list[Table]:
    quench_rows = []
    for t in QUENCH_TIMES:
        r = _one(records, point__task="quench",
                 point__options__t=t)["result"]
        quench_rows.append([
            r["t"], fmt(r["exact"], 3), fmt(r["noisy"], 3),
            fmt(r["jigsaw"], 3),
        ])
    error_rows = []
    for steps in TROTTER_STEPS:
        r = _one(records, point__task="trotter_error",
                 point__options__steps=steps)["result"]
        error_rows.append([
            r["steps"], f"{r['order1']:.2e}", f"{r['order2']:.2e}",
        ])
    sweep_rows = []
    for label, period in (("dense (JigSaw/point)", 1), ("sparse", 4)):
        r = _one(records, point__task="quench_sweep",
                 point__options__period=period)["result"]
        sweep_rows.append([
            label, fmt(r["error"], 3), r["circuits"], r["globals"],
        ])
    return [
        Table(
            "Extension: TFIM-5 quench magnetization "
            "(2nd-order Trotter, 2x Mumbai noise)",
            ["t", "exact", "noisy", "JigSaw"],
            quench_rows,
        ),
        Table(
            "Extension: Trotter infidelity vs steps (t=1, TFIM-4)",
            ["steps", "order 1", "order 2"],
            error_rows,
        ),
        Table(
            "Extension: quench sweep with temporally sparse Globals "
            f"(TFIM-5, {len(QUENCH_SWEEP_TIMES)} time points)",
            ["scheme", "mean |err|", "circuits", "globals"],
            sweep_rows,
        ),
    ]


_register(CatalogEntry(
    name="ext_trotter_mitigation",
    figure="Extension (§7.3)",
    title="Measurement mitigation for Trotterized time evolution",
    build=_build_ext_trotter_mitigation,
    tables=_tables_ext_trotter_mitigation,
))


# ================================================= ext_tuner_comparison

TUNERS = ["SPSA", "ImFil", "NelderMead"]


def _build_ext_tuner_comparison() -> SweepSpec:
    iterations = scaled(120, 400)
    return SweepSpec(
        name="ext_tuner_comparison",
        base={"task": "tuner_tuning"},
        cells=[
            {"options": {"tuner": tuner, "iterations": iterations}}
            for tuner in TUNERS
        ],
    )


def _tables_ext_tuner_comparison(records: list) -> list[Table]:
    iterations = records[0]["point"]["options"]["iterations"]
    ideal = records[0]["result"]["ideal_energy"]
    rows = []
    for tuner in TUNERS:
        r = _one(records, point__options__tuner=tuner)["result"]
        rows.append([tuner, fmt(r["start"], 3), fmt(r["energy"], 3)])
    return [Table(
        f"Extension: tuner ablation, VarSaw on H2-4 "
        f"({iterations} iterations; ideal {ideal:.2f})",
        ["tuner", "start", "final energy"],
        rows,
    )]


_register(CatalogEntry(
    name="ext_tuner_comparison",
    figure="Extension (§5.1)",
    title="Classical tuner ablation under VarSaw",
    build=_build_ext_tuner_comparison,
    tables=_tables_ext_tuner_comparison,
))


# ==================================================== ext_zne_comparison

ZNE_SCALES = [1.0, 1.5, 2.0]
ZNE_ROWS = ["baseline", "baseline+ZNE", "varsaw", "varsaw+ZNE"]


def _build_ext_zne_comparison() -> SweepSpec:
    key = scaled("H2-4", "CH4-6")
    shots = scaled(30_000, 60_000)
    workload = {"key": key}
    common = {"workload": workload, "shots": shots,
              "options": {"params_iterations": 300}}
    return SweepSpec(
        name="ext_zne_comparison",
        cells=[
            {"task": "energy", "scheme": "ideal", **common},
            {"task": "energy", "scheme": "baseline",
             "device": MUMBAI2, **common},
            {"task": "zne", "scheme": "baseline", "device": MUMBAI2,
             "workload": workload, "shots": shots,
             "options": {"params_iterations": 300,
                         "scales": ZNE_SCALES}},
            {"task": "energy", "scheme": "varsaw_no_sparsity",
             "device": MUMBAI2, **common},
            {"task": "zne", "scheme": "varsaw_no_sparsity",
             "device": MUMBAI2, "workload": workload, "shots": shots,
             "options": {"params_iterations": 300,
                         "scales": ZNE_SCALES}},
        ],
    )


def zne_energies(records: list) -> dict:
    """Scheme-label -> energy, plus ``ideal`` (shared with the shim)."""
    ideal = _one(records, point__task="energy",
                 point__scheme="ideal")["result"]["energy"]
    return {
        "ideal": ideal,
        "baseline": _one(records, point__task="energy",
                         point__scheme="baseline")["result"]["energy"],
        "baseline+ZNE": _one(records, point__task="zne",
                             point__scheme="baseline")["result"][
                                 "energy"],
        "varsaw": _one(records, point__task="energy",
                       point__scheme="varsaw_no_sparsity")["result"][
                           "energy"],
        "varsaw+ZNE": _one(records, point__task="zne",
                           point__scheme="varsaw_no_sparsity")[
                               "result"]["energy"],
    }


def _tables_ext_zne_comparison(records: list) -> list[Table]:
    key = records[0]["point"]["workload"]["key"]
    energies = zne_energies(records)
    ideal = energies.pop("ideal")
    return [Table(
        f"Extension: ZNE vs VarSaw on {key} "
        f"(ideal@params {ideal:.3f})",
        ["scheme", "energy", "|error|"],
        [
            [name, fmt(energies[name], 3),
             fmt(abs(energies[name] - ideal), 4)]
            for name in ZNE_ROWS
        ],
    )]


_register(CatalogEntry(
    name="ext_zne_comparison",
    figure="Extension (§6.8)",
    title="VarSaw vs / with zero-noise extrapolation",
    build=_build_ext_zne_comparison,
    tables=_tables_ext_zne_comparison,
))


# ====================================================== ext_api_session

#: Inline estimator-spec payloads (repro.api registry kinds), one grid
#: axis: the payload's ``kind`` overrides the point's scheme entirely,
#: so every registered estimator — including the families the legacy
#: string factory never exposed — is addressable from a sweep.
API_SESSION_SPECS = [
    {"kind": "varsaw"},
    {"kind": "gc", "shots": 128},
    {"kind": "selective", "global_mode": "always",
     "mass_fraction": 0.85},
    {"kind": "calibration_gated", "error_threshold": 0.02},
]


def _build_ext_api_session() -> SweepSpec:
    return SweepSpec(
        name="ext_api_session",
        base={
            "workload": {"key": "H2-4"},
            "device": MUMBAI2,
            "shots": scaled(64, 512),
            "max_iterations": scaled(4, 80),
            "seed": 23,
        },
        axes={"estimator": API_SESSION_SPECS},
    )


def api_session_rows(records: list) -> dict:
    """Payload kind -> tuning result (shared with the bench shim)."""
    return {
        payload["kind"]: _one(records, point__estimator=payload)["result"]
        for payload in API_SESSION_SPECS
    }


def _tables_ext_api_session(records: list) -> list[Table]:
    iterations = records[0]["point"]["max_iterations"]
    rows = [
        [kind, fmt(result["energy"]), fmt(result["error"]),
         str(result["circuits"])]
        for kind, result in api_session_rows(records).items()
    ]
    return [Table(
        f"Extension: registry kinds via inline estimator specs "
        f"(H2-4, {iterations} iterations)",
        ["kind", "energy", "|error|", "circuits"],
        rows,
    )]


_register(CatalogEntry(
    name="ext_api_session",
    figure="Extension (API)",
    title="Typed estimator specs driving the sweep pipeline",
    build=_build_ext_api_session,
    tables=_tables_ext_api_session,
))


# =================================================== ext_backend_matrix

#: The three built-in execution backends, one grid axis (the Point
#: ``backend`` field selects through the repro.backends registry).
BACKEND_MATRIX_KINDS = ["dense", "clifford", "density"]


def _build_ext_backend_matrix() -> SweepSpec:
    return SweepSpec(
        name="ext_backend_matrix",
        base={
            "task": "backend_matrix",
            "seed": 11,
            "shots": 256,
            # Full scale stays modest on purpose: the density cell is
            # O(4^n) per gate and channel (4x the work per qubit
            # added), so 8 qubits / 60 layers keeps it to seconds while
            # dense-vs-clifford still separates clearly.
            "options": {
                "n_qubits": scaled(6, 8),
                "layers": scaled(30, 60),
                "runs": scaled(4, 6),
            },
        },
        axes={"backend": BACKEND_MATRIX_KINDS},
    )


def backend_matrix_rows(records: list) -> dict:
    """Backend kind -> task result (shared with the bench shim)."""
    return {
        kind: _one(records, point__backend=kind)["result"]
        for kind in BACKEND_MATRIX_KINDS
    }


def _tables_ext_backend_matrix(records: list) -> list[Table]:
    options = records[0]["point"]["options"]
    rows = [
        [
            kind, fmt(result["seconds"], 3), result["circuits"],
            result["shots"], fmt(result["zero_weight"], 4),
            result["stabilizer_runs"], result["fallbacks"],
        ]
        for kind, result in backend_matrix_rows(records).items()
    ]
    return [Table(
        f"Extension: execution-backend matrix on a stabilizer workload "
        f"({options['runs']} Clifford circuits, "
        f"{options['n_qubits']} qubits x {options['layers']} layers)",
        ["backend", "wall-clock (s)", "circuits", "shots",
         "P(0...0)", "stabilizer runs", "dense fallbacks"],
        rows,
    )]


_register(CatalogEntry(
    name="ext_backend_matrix",
    figure="Extension (backends)",
    title="Pluggable execution backends on one stabilizer workload",
    build=_build_ext_backend_matrix,
    tables=_tables_ext_backend_matrix,
    normalize=_mask_timings,
))


# ================================================ ext_serve_throughput

#: Fleet sizes for the multi-tenant serve bench: a lone tenant (no
#: cross-tenant sharing possible) vs a fleet submitting the same jobs.
SERVE_TENANT_COUNTS = [1, 8]


def _build_ext_serve_throughput() -> SweepSpec:
    return SweepSpec(
        name="ext_serve_throughput",
        base={
            "task": "serve_throughput",
            "workload": {"key": "H2-4"},
            "scheme": "varsaw",
            "seed": 13,
            "shots": 128,
        },
        cells=[
            {"options": {"tenants": t, "jobs": scaled(3, 6)}}
            for t in SERVE_TENANT_COUNTS
        ],
    )


def serve_throughput_rows(records: list) -> dict:
    """Tenant count -> task result (shared with the bench shim)."""
    return {
        t: _one(records, point__options__tenants=t)["result"]
        for t in SERVE_TENANT_COUNTS
    }


def _tables_ext_serve_throughput(records: list) -> list[Table]:
    jobs = records[0]["point"]["options"]["jobs"]
    rows = [
        [
            t, result["submitted"], result["executed"],
            result["cross_tenant_dedup"],
            f"{result['dedup_rate']:.1%}",
            result["circuits"], result["shots"],
            "yes" if result["ledger_match"] else "NO",
            fmt(result["seconds"], 3),
            fmt(result["jobs_per_s"], 3),
        ]
        for t, result in serve_throughput_rows(records).items()
    ]
    return [Table(
        f"Extension: multi-tenant serve throughput "
        f"(H2-4 varsaw, {jobs} distinct jobs per tenant)",
        ["tenants", "submitted", "executed", "cross-tenant dedup",
         "dedup rate", "circuits", "shots", "ledgers sum",
         "wall-clock (s)", "jobs/s"],
        rows,
    )]


_register(CatalogEntry(
    name="ext_serve_throughput",
    figure="Extension (serve)",
    title="Multi-tenant estimation service with request coalescing",
    build=_build_ext_serve_throughput,
    tables=_tables_ext_serve_throughput,
    normalize=_mask_timings,
))


# =================================================== ext_dist_scaling

#: Shard counts for the distributed-sweep scaling bench: a serial
#: reference vs a four-way sharded run of the same inner grid.
DIST_SHARD_COUNTS = [1, 4]


def _build_ext_dist_scaling() -> SweepSpec:
    return SweepSpec(
        name="ext_dist_scaling",
        base={"task": "dist_scaling"},
        cells=[
            {"options": {
                "shards": s,
                "tuning_seeds": scaled(2, 4),
                "tuning_iterations": scaled(3, 25),
                "trotter_steps": scaled([1, 2], [1, 2, 4, 8]),
            }}
            for s in DIST_SHARD_COUNTS
        ],
    )


def dist_scaling_rows(records: list) -> dict:
    """Shard count -> task result (shared with the bench shim)."""
    return {
        s: _one(records, point__options__shards=s)["result"]
        for s in DIST_SHARD_COUNTS
    }


def _tables_ext_dist_scaling(records: list) -> list[Table]:
    by_shards = dist_scaling_rows(records)
    reference = by_shards[DIST_SHARD_COUNTS[0]]
    rows = [
        [
            s, result["points"], result["records"],
            result["executions"], result["duplicates"],
            result["stolen"],
            "yes" if result["digest"] == reference["digest"] else "NO",
            fmt(result["seconds"], 3),
            fmt(reference["seconds"] / result["seconds"], 3),
        ]
        for s, result in by_shards.items()
    ]
    return [Table(
        "Extension: sharded sweep scaling "
        "(mixed H2-4 tuning + Trotter-error grid)",
        ["shards", "points", "records", "executions", "duplicates",
         "stolen", "records match", "wall-clock (s)", "speedup"],
        rows,
    )]


_register(CatalogEntry(
    name="ext_dist_scaling",
    figure="Extension (dist)",
    title="Sharded sweeps with work-stealing: records match serial",
    build=_build_ext_dist_scaling,
    tables=_tables_ext_dist_scaling,
    normalize=_mask_timings,
))
