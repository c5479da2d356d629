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
  maximum over the budgeted noisy runs;
* ``claims`` are the paper's claims on the entry's records: plain
  functions that assert (who wins, orderings, ratio floors), never read
  a wall-clock field, and may return one summary line.  The parity
  suite checks every claim on its shared store.

``benchmarks/bench_catalog.py`` is one parametrized harness over these
entries (tables, timing, claims), and the ``repro reproduce`` CLI runs
any subset of the catalog against one shared, resumable result store —
the whole paper regenerates through a single checkpointed pipeline.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..analysis import energy_error, geometric_mean, is_full_scale
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
    #: The paper's claims on the entry's records: each asserts, never
    #: reads a wall-clock field, and may return one summary line.
    claims: tuple[Callable[[list[dict]], str | None], ...] = ()


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


def fig6_worked_example(records: list) -> str:
    """Fig. 6: 10 Hamiltonian terms, 7 circuits after trivial
    commutation, 21 JigSaw subsets, 9 VarSaw subsets."""
    stats = select(records, point__task="structure")[0]["result"]
    assert stats["paulis"] == 10
    assert stats["cover_groups"] == 7
    assert stats["jigsaw"] == 21
    assert stats["varsaw"] == 9
    return "C_VarSaw members: " + " + ".join(stats["subset_labels"])


def fig7_commutation_graph(records: list) -> None:
    """Fig. 7: 26 / 8 / 2 / 0 commuting parents among the 27
    three-qubit {I,X,Z} strings."""
    counts = {
        r["point"]["options"]["label"]: r["result"]["parents"]
        for r in select(records, point__task="commuting_parents")
    }
    assert counts == {"III": 26, "IIZ": 8, "IZZ": 2, "ZZZ": 0}


_register(CatalogEntry(
    name="fig6_fig7",
    figure="Figs. 6 & 7",
    title="Commutation worked example and commutativity graph",
    build=_build_fig6_fig7,
    tables=_tables_fig6_fig7,
    claims=(fig6_worked_example, fig7_commutation_graph),
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


def fig8_cost_scaling(records: list) -> None:
    """Traditional VQA ~Q^4, JigSaw+VQA ~Q^5, and VarSaw at sparsities
    k = 1 ... 0.001 between them (~Q..Q^4)."""
    from ..core import jigsaw_cost, traditional_cost, varsaw_cost

    assert len(records) == 1, f"fig8 stores one record; got {len(records)}"
    series = records[0]["result"]["series"]
    model = {
        "Traditional VQA": traditional_cost,
        "JigSaw + VQA": jigsaw_cost,
        **{
            f"VarSaw (k={k:g})": functools.partial(varsaw_cost, k=k)
            for k in FIG8_SPARSITIES
        },
    }
    assert list(series) == list(model), list(series)
    cost = {}
    for label, points in series.items():
        assert [q for q, _ in points] == FIG8_QUBITS, label
        # Every stored point is the cost model at its Q.
        for q, value in points:
            assert value == model[label](q), (label, q, value)
        cost[label] = dict(points)
    jigsaw, traditional = cost["JigSaw + VQA"], cost["Traditional VQA"]
    varsaw = [cost[f"VarSaw (k={k:g})"] for k in FIG8_SPARSITIES]
    for q in FIG8_QUBITS:
        # JigSaw is the costliest curve everywhere.
        assert jigsaw[q] >= traditional[q]
        # Sparsity strictly orders the VarSaw family.
        costs = [curve[q] for curve in varsaw]
        assert costs == sorted(costs, reverse=True)
    # VarSaw k=1 overlaps Traditional at scale (the figure's overlap).
    assert varsaw[0][1000] / traditional[1000] < 1.01
    # VarSaw is at least O(Q) below JigSaw.
    assert jigsaw[1000] / varsaw[0][1000] > 500
    # High sparsity beats even the baseline (Section 3.3).
    assert varsaw[-1][100] < traditional[100]
    # Asymptotic slopes on the log-log plot.
    slope = (jigsaw[1000] / jigsaw[500]) ** (1 / 1)  # ratio at 2x Q
    assert 2**5 * 0.8 < slope < 2**5 * 1.2  # ~Q^5
    slope_trad = traditional[1000] / traditional[500]
    assert abs(slope_trad - 2**4) < 0.5  # ~Q^4


_register(CatalogEntry(
    name="fig8",
    figure="Fig. 8",
    title="Circuits per VQA iteration vs qubit count",
    build=_build_fig8,
    tables=_tables_fig8,
    claims=(fig8_cost_scaling,),
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


def fig9_sparsity_extremes(records: list) -> None:
    """Noise-free, Max-Sparsity gets stuck and No-Sparsity reaches much
    lower energy; noisy, Max-Sparsity is competitive (or better) and
    completes many more iterations for the same budget."""

    def run(preset: str, kind: str) -> dict:
        record, = [
            r for r in records
            if r["point"]["device"]["preset"] == preset
            and r["point"]["scheme"] == kind
        ]
        return record["result"]

    free = {kind: run("ideal", kind) for kind in FIG9_KINDS}
    noisy = {kind: run("ibmq_mumbai_like", kind) for kind in FIG9_KINDS}
    ideal_energy = records[0]["result"]["ideal_energy"]

    # Max-Sparsity completes more iterations in both settings (it skips
    # the per-iteration Globals).
    for setting in (free, noisy):
        assert (
            setting["varsaw_max_sparsity"]["iterations"]
            > setting["varsaw_no_sparsity"]["iterations"]
        )
    # Noise-free: No-Sparsity reaches at-least-as-low energy (the frozen
    # Global hurts Max-Sparsity).
    assert (
        free["varsaw_no_sparsity"]["energy"]
        <= free["varsaw_max_sparsity"]["energy"] + 0.05
    )
    # Noisy: Max-Sparsity is competitive — within a small margin or better
    # (the paper observes it marginally winning).
    gap = (
        noisy["varsaw_max_sparsity"]["energy"]
        - noisy["varsaw_no_sparsity"]["energy"]
    )
    spread = abs(ideal_energy) * 0.1 + 1.0
    assert gap < spread


_register(CatalogEntry(
    name="fig9",
    figure="Fig. 9",
    title="Global-sparsity extremes, noise-free vs noisy (CH4-6)",
    build=_build_fig9,
    tables=_tables_fig9,
    claims=(fig9_sparsity_extremes,),
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
    """Fig. 12 row dicts from stored records (shared with the claim)."""
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


def fig12_subset_reduction(records: list) -> str:
    """JigSaw ~5.5x the baseline Pauli circuits, VarSaw ~0.2x; the
    VarSaw:JigSaw reduction is ~25x on average and >1000x for Cr2-34."""
    rows = fig12_rows(records)
    mean_ratio = geometric_mean([r["ratio"] for r in rows])

    by_key = {r["key"]: r for r in rows}
    # JigSaw's relative overhead grows with qubit count...
    assert by_key["H2-4"]["jig_rel"] < by_key["CH4-8"]["jig_rel"]
    assert by_key["CH4-8"]["jig_rel"] < by_key["C2H4-20"]["jig_rel"]
    # ...while VarSaw's relative subset count shrinks.
    assert by_key["CH4-6"]["var_rel"] > by_key["H6-10"]["var_rel"]
    assert by_key["H6-10"]["var_rel"] > by_key["C2H4-20"]["var_rel"]
    # Reduction ratio grows with size; the largest system exceeds 100x
    # (paper: >1000x for Cr2-34, which runs at full scale).
    ratios = [r["ratio"] for r in rows]
    assert ratios[-1] == max(ratios)
    assert by_key["C2H4-20"]["ratio"] > 100
    if "Cr2-34" in by_key:
        assert by_key["Cr2-34"]["ratio"] > 1000
    # Mean reduction is the paper's order of magnitude.
    assert mean_ratio > 10
    return (f"geometric-mean reduction ratio: {mean_ratio:.1f}x "
            "(paper mean ~25x)")


_register(CatalogEntry(
    name="fig12",
    figure="Fig. 12",
    title="Pauli-term reduction in measurement subsets vs JigSaw",
    build=_build_fig12,
    tables=_tables_fig12,
    claims=(fig12_subset_reduction,),
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


def fig13_ch4_energy_trace(records: list) -> str:
    """At equal circuits VarSaw reaches the lowest energy of the noisy
    schemes, close to Ideal; JigSaw completes a fraction of the
    iterations."""
    runs = {
        r["point"]["scheme"]: r["result"] for r in records
    }
    trace = select(
        records, point__scheme="varsaw"
    )[0]["result"]["energy_history"]
    step = max(1, len(trace) // 8)

    # JigSaw completes the fewest iterations (its per-iteration cost is
    # ~Qx higher); VarSaw completes the most of the mitigated schemes.
    assert runs["varsaw"]["iterations"] > 3 * runs["jigsaw"]["iterations"]
    assert runs["baseline"]["iterations"] > runs["jigsaw"]["iterations"]
    # VarSaw achieves the best energy among the noisy schemes.
    noisy_best = min(
        runs[k]["energy"] for k in ("baseline", "jigsaw")
    )
    assert runs["varsaw"]["energy"] <= noisy_best + 0.05
    # And the ideal is the floor.
    assert runs["ideal"]["energy"] <= runs["varsaw"]["energy"] + 1e-9
    return "VarSaw best-so-far trace (iter:energy): " + ", ".join(
        f"{i}:{trace[i]:.2f}" for i in range(0, len(trace), step)
    )


_register(CatalogEntry(
    name="fig13",
    figure="Fig. 13",
    title="CH4 VQE energy traces under a fixed circuit budget",
    build=_build_fig13,
    tables=_tables_fig13,
    followup=_followup_fig13,
    claims=(fig13_ch4_energy_trace,),
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
    """Fig. 14's per-workload summary rows (shared with the claim)."""
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


def fig14_accuracy_vs_baseline(records: list) -> str:
    """VarSaw closes 13%-86% (mean 45%) of the noisy baseline's gap to
    the Ideal, with Globals on ~0.01-0.1 of the evaluations."""
    rows = fig14_rows(records)
    mean = sum(r["mitigated"] for r in rows) / len(rows)

    # VarSaw improves on the baseline for most workloads and on average.
    improved = [r for r in rows if r["mitigated"] > 0]
    assert len(improved) >= len(rows) - 1
    assert mean > 10
    # Globals are sparse: far fewer than one per evaluation.
    for r in rows:
        assert r["global_fraction"] < 0.6, r["key"]
    return f"mean % mitigated: {mean:.0f}% (paper: 45%)"


_register(CatalogEntry(
    name="fig14",
    figure="Fig. 14",
    title="% of noisy-VQE inaccuracy mitigated by VarSaw",
    build=_build_fig14,
    tables=_tables_fig14,
    claims=(fig14_accuracy_vs_baseline,),
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
    """Fig. 15 row dicts from stored records (shared with the claim)."""
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


def fig15_varsaw_vs_jigsaw_fixed_budget(records: list) -> str:
    """At equal circuits VarSaw runs many more iterations and closes
    21-92% (mean 55%) of JigSaw's remaining inaccuracy."""
    rows = fig15_rows(records)
    mean = sum(r["mitigated"] for r in rows) / len(rows)

    for r in rows:
        # The economic mechanism: VarSaw runs far more iterations.
        assert (
            r["varsaw"]["iterations"] > 2 * r["jigsaw"]["iterations"]
        ), r["key"]
    # And converts them into better energy on average (the paper's 55%
    # comes from the full 2000-iteration regime; quick scale shows the
    # same direction at smaller magnitude).
    assert mean > 5
    wins = [
        r for r in rows
        if r["varsaw"]["energy"] <= r["jigsaw"]["energy"]
    ]
    assert len(wins) >= len(rows) - 1
    return f"mean % mitigated over JigSaw: {mean:.0f}% (paper: 55%)"


_register(CatalogEntry(
    name="fig15",
    figure="Fig. 15",
    title="VQE accuracy of VarSaw over JigSaw at fixed budget",
    build=_build_fig15,
    tables=_tables_fig15,
    claims=(fig15_varsaw_vs_jigsaw_fixed_budget,),
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


def fig16_tfim_on_device_models(records: list) -> None:
    """On Lagos- and Jakarta-like devices, sparse VarSaw completes ~4x
    the iterations and improves the objective 1.5-3x."""
    for name, device in FIG16_DEVICES:
        runs = {
            r["point"]["scheme"]: r["result"]
            for r in select(records, point__device__preset=device["preset"])
        }
        sparse = runs["varsaw_max_sparsity"]
        dense = runs["varsaw_no_sparsity"]
        # Sparse VarSaw completes several times the iterations (paper: ~4x).
        assert sparse["iterations"] > 1.5 * dense["iterations"], name
        # And its objective is at least competitive.
        assert sparse["energy"] <= dense["energy"] + 0.3, name


_register(CatalogEntry(
    name="fig16",
    figure="Fig. 16",
    title="VarSaw temporal optimization on device models (TFIM-5)",
    build=_build_fig16,
    tables=_tables_fig16,
    claims=(fig16_tfim_on_device_models,),
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


def fig17_deep_ansatz(records: list) -> None:
    """At p = 4 the sparse run still converges lower for the same
    circuit budget, despite a slower per-iteration rate."""
    runs = {
        r["point"]["scheme"]: r["result"] for r in records
    }
    sparse = runs["varsaw_max_sparsity"]
    dense = runs["varsaw_no_sparsity"]
    # More iterations for the same budget...
    assert sparse["iterations"] > 1.5 * dense["iterations"]
    # ...and a final energy that is competitive or better.
    assert sparse["energy"] <= dense["energy"] + 0.2


_register(CatalogEntry(
    name="fig17",
    figure="Fig. 17",
    title="Global sparsity at ansatz depth p = 4 (LiH-6)",
    build=_build_fig17,
    tables=_tables_fig17,
    claims=(fig17_deep_ansatz,),
))


# ================================================================ fig18

FIG18_KEYS = ["LiH-6", "H2O-6"]

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
        cells=[{"workload": {"key": key}} for key in FIG18_KEYS],
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


def fig18_varsaw_plus_mbm(records: list) -> None:
    """MBM under VarSaw gains ~10% for H2O and is negligible for LiH:
    it never hurts."""
    for key in FIG18_KEYS:
        plain, = select(
            records, point__workload__key=key,
            point__estimator={},
        )
        stacked, = select(
            records, point__workload__key=key,
            point__estimator={"mbm": True},
        )
        ideal = plain["result"]["ideal_energy"]
        err_plain = abs(plain["result"]["energy"] - ideal)
        err_stacked = abs(stacked["result"]["energy"] - ideal)
        # MBM stacking never hurts beyond noise (paper: ~0-10% gain).
        assert err_stacked <= err_plain * 1.25 + 0.05, key


_register(CatalogEntry(
    name="fig18",
    figure="Fig. 18",
    title="Stacking VarSaw with matrix-based mitigation",
    build=_build_fig18,
    tables=_tables_fig18,
    claims=(fig18_varsaw_plus_mbm,),
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
    """Fig. 19 row dicts from stored records (shared with the claim)."""
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


def fig19_subset_sizes(records: list) -> None:
    """Accuracy gains vary little with window size while subset
    circuits grow with it, so the 2-qubit window dominates."""
    by_key: dict = {}
    for r in fig19_rows(records):
        by_key.setdefault(r["key"], []).append(r)
    for key, entries in by_key.items():
        entries.sort(key=lambda r: r["window"])
        window2 = entries[0]
        best_improvement = max(e["improvement"] for e in entries)
        fewest_subsets = min(e["subsets"] for e in entries)
        # Appendix A's conclusion: the 2-qubit window is the clear choice —
        # its accuracy is within the (low) variance across window sizes
        # while its circuit count is at (or near) the minimum.
        assert window2["improvement"] >= 0.7 * best_improvement, key
        assert window2["subsets"] <= 1.5 * fewest_subsets, key
        # Mitigation is positive at every window size.
        for e in entries:
            assert e["improvement"] > 0, (key, e["window"])


_register(CatalogEntry(
    name="fig19",
    figure="Fig. 19",
    title="Subset-size sweep at optimal parameters",
    build=_build_fig19,
    tables=_tables_fig19,
    claims=(fig19_subset_sizes,),
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
    """Table 1 row dicts from stored records (shared with the claim)."""
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


def table1_jigsaw_circuit_level(records: list) -> str:
    """At optimal parameters JigSaw recovers most (>70%) of the
    measurement-induced inaccuracy for LiH, H2O, H2 and CH4."""
    rows = table1_rows(records)
    for r in rows:
        # JigSaw lands strictly closer to the reference than the noisy run.
        assert energy_error(r["jigsaw"], r["ref"]) < energy_error(
            r["noisy"], r["ref"]
        ), r["key"]
    # Meaningful recovery on average (paper: >70%).
    mean_recovered = sum(r["recovered"] for r in rows) / len(rows)
    assert mean_recovered > 40
    return f"mean % inaccuracy recovered: {mean_recovered:.0f}%"


_register(CatalogEntry(
    name="table1",
    figure="Table 1",
    title="JigSaw circuit-level mitigation at optimal parameters",
    build=_build_table1,
    tables=_tables_table1,
    claims=(table1_jigsaw_circuit_level,),
))


# ========================================================== table3 / 4

TABLE4_DEPTHS = [1, 2, 4, 8]

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
        cells=_selective_cells(keys, TABLE4_DEPTHS, "reps"),
        axes={"scheme": ["varsaw_no_sparsity", "varsaw"]},
    )


def selective_table(records: list, field_name: str, variations) -> dict:
    """Table 3/4 cells keyed ``(key, variation)`` (shared with claims)."""
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
    return [Table(
        "Table 4: % inaccuracy mitigated by selective Globals, "
        "per depth p (sparse/dense iterations in parentheses)",
        ["Workload"] + [f"p = {p}" for p in TABLE4_DEPTHS],
        _selective_rows(records, "reps", TABLE4_DEPTHS),
    )]


def table3_ansatz_types(records: list) -> None:
    """Selective Globals mitigate a positive share (23%-96%) of the
    no-sparsity inaccuracy for every molecule and ansatz type."""
    from ..ansatz import ENTANGLEMENT_TYPES

    table = selective_table(
        records, "entanglement", list(ENTANGLEMENT_TYPES)
    )
    cells = list(table.values())
    for cell in cells:
        # The economics: selective execution completes far more
        # iterations under the same budget...
        assert cell["sparse_iters"] > 1.5 * cell["dense_iters"]
        # ...without giving up energy beyond run-to-run noise.
        assert cell["gap"] < 0.25
    if is_full_scale():
        # The paper's Table 3: positive mitigation in every cell.
        values = [c["mitigated"] for c in cells]
        assert sum(values) / len(values) > 0
        assert sum(1 for v in values if v > 0) >= len(values) - 1


def table4_ansatz_depths(records: list) -> None:
    """Sparsity helps at every depth p but for one marginally negative
    cell, with the benefit shrinking at larger p."""
    table = selective_table(records, "reps", TABLE4_DEPTHS)
    cells = list(table.values())
    for cell in cells:
        assert cell["sparse_iters"] > 1.5 * cell["dense_iters"]
        assert cell["gap"] < 0.25
    if is_full_scale():
        # Paper's Table 4 shape: positive everywhere except (at most) one
        # marginal cell.
        values = [c["mitigated"] for c in cells]
        assert sum(values) / len(values) > 0
        negatives = [v for v in values if v <= 0]
        assert len(negatives) <= max(1, len(values) // 6)


_register(CatalogEntry(
    name="table3",
    figure="Table 3",
    title="Selective-execution benefit across ansatz types",
    build=_build_table3,
    tables=_tables_table3,
    claims=(table3_ansatz_types,),
))

_register(CatalogEntry(
    name="table4",
    figure="Table 4",
    title="Selective-execution benefit across ansatz depths",
    build=_build_table4,
    tables=_tables_table4,
    claims=(table4_ansatz_depths,),
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
    """``{scale: {scheme: energy}}`` in grid order (shared with claim)."""
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


def table5_noise_sweep(records: list) -> None:
    """Max-Sparsity beats the baseline at every noise scale and tracks
    No-Sparsity; sparsity's advantage disappears as noise vanishes."""
    table = table5_grid(records)
    scales = list(table)
    wins = 0
    for scale in scales:
        runs = table[scale]
        if runs["varsaw_max_sparsity"] <= runs["baseline"] + 1e-9:
            wins += 1
        # Max-Sparsity tracks No-Sparsity (within a scale-dependent band).
        band = 0.3 + 0.4 * scale
        assert (
            runs["varsaw_max_sparsity"] - runs["varsaw_no_sparsity"] < band
        ), scale
    # Max-Sparsity beats the unmitigated baseline at (almost) every scale.
    assert wins >= len(scales) - 1
    # Energies degrade (rise) as noise grows for the baseline.
    energies = [table[s]["baseline"] for s in sorted(scales)]
    assert energies[0] < energies[-1]


_register(CatalogEntry(
    name="table5",
    figure="Table 5",
    title="Global sparsity across noise scales (H2O-6)",
    build=_build_table5,
    tables=_tables_table5,
    claims=(table5_noise_sweep,),
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
    """Section 6.7 row dicts from stored records (shared with the claim)."""
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


def sec67_optimization_ablation(records: list) -> None:
    """Spatial alone ~5x below JigSaw; temporal alone >10x below the
    baseline; both ~25x below JigSaw and ~10x below the baseline."""
    rows = sec67_rows(records)
    for r in rows:
        # Spatial alone already beats JigSaw substantially...
        assert r["spatial"] < 0.5 * r["jigsaw"], r["key"]
        # ...temporal stacks on top: full VarSaw under spatial-only...
        assert r["full"] < r["spatial"], r["key"]
        # ...and the paper's headline stack-up: full VarSaw is several
        # times below JigSaw and at worst on par with the baseline (the
        # "below baseline" margin widens with molecule size — see the
        # largest-workload check below).
        assert r["jigsaw"] / r["full"] > 4, r["key"]
        assert r["full"] < 1.1 * r["baseline"], r["key"]
        # Temporal-only (keep JigSaw's unreduced subsets, sparse globals)
        # is still far above full VarSaw — temporal optimization is only
        # really useful after spatial (the paper's Section 6.7 note).
        jig_subsets = r["jigsaw"] - r["baseline"]
        temporal_only = r["fraction"] * r["baseline"] + jig_subsets
        assert temporal_only > r["full"], r["key"]
    # Subsets shrink relative to the baseline as molecules grow, so the
    # largest workload in the sweep lands strictly below the baseline —
    # the >10x full-scale figure comes from the biggest systems.
    largest = max(rows, key=lambda r: r["baseline"])
    assert largest["full"] < largest["baseline"]


_register(CatalogEntry(
    name="sec67",
    figure="Section 6.7",
    title="Isolated effect of each VarSaw optimization",
    build=_build_sec67,
    tables=_tables_sec67,
    claims=(sec67_optimization_ablation,),
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


def calibration_gate_threshold_sweep(records: list) -> None:
    """§7.1: qubits with near-zero readout error need no mitigation, so
    gating their windows saves circuits at (near) zero accuracy cost."""
    by = {}
    for record in records:
        threshold = record["point"]["options"]["threshold"]
        label = "off" if threshold is None else f"{threshold:g}"
        by[label] = record["result"]
    # A permissive threshold keeps everything (== VarSaw).
    assert by["0.0001"]["skipped"] == 0
    assert by["0.0001"]["circuits"] == by["off"]["circuits"]
    # The intended operating point prunes the clean-line windows at
    # near-zero accuracy cost.
    assert by["0.01"]["skipped"] > 0
    assert by["0.01"]["circuits"] < by["off"]["circuits"]
    assert by["0.01"]["error"] < by["off"]["error"] + 0.15
    # Gating everything degenerates toward the unmitigated baseline:
    # maximal savings, and accuracy is allowed to suffer.
    assert by["0.1"]["circuits"] <= by["0.01"]["circuits"]


_register(CatalogEntry(
    name="ext_calibration_gating",
    figure="Extension (§7.1)",
    title="Calibration-gated subsetting threshold sweep",
    build=_build_ext_calibration_gating,
    tables=_tables_ext_calibration_gating,
    claims=(calibration_gate_threshold_sweep,),
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


def drift_policy_frontier(records: list) -> None:
    """Online detection re-calibrates iff the noise drifts, and costs
    between static scheduling and an oracle."""
    by = {}
    for record in records:
        options = record["point"]["options"]
        by[(options["magnitude"], options["policy"])] = record["result"]

    # Detection: the online policy re-calibrates iff there is drift —
    # no false alarms at zero drift, at least one alarm per step.
    for policy in ("static", "oracle", "online"):
        assert by[(0.0, policy)]["recalibrations"] == 0
    for magnitude in (1.0, 2.0):
        assert by[(magnitude, "online")]["recalibrations"] > 0
        # Static scheduling has no detector at all.
        assert by[(magnitude, "static")]["recalibrations"] == 0

    # Cost ordering at every magnitude: static executes the fewest
    # circuits, the oracle (fresh Globals every epoch) the most, and
    # the online policy sits between — probes are cheaper than
    # paranoid re-calibration.
    for magnitude in (0.0, 1.0, 2.0):
        static = by[(magnitude, "static")]["circuits"]
        online = by[(magnitude, "online")]["circuits"]
        oracle = by[(magnitude, "oracle")]["circuits"]
        assert static < online < oracle

    # Drift hurts every policy: heavier drift, larger mean error.
    for policy in ("static", "oracle", "online"):
        assert (
            by[(2.0, policy)]["mean_error"]
            > by[(0.0, policy)]["mean_error"]
        )


_register(CatalogEntry(
    name="ext_drift_frontier",
    figure="Extension (drift)",
    title="Re-calibration policy cost/accuracy frontier under drift",
    build=_build_ext_drift_frontier,
    tables=_tables_ext_drift_frontier,
    claims=(drift_policy_frontier,),
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


def online_policy_across_schedules(records: list) -> None:
    """CUSUM detection stays silent without drift and alarms on every
    drifting schedule kind, not only the step jump."""
    by = {
        record["point"]["options"]["schedule"]: record["result"]
        for record in records
    }
    # The zero-drift schedule must not trip the detector; every
    # drifting kind must.
    assert by["constant"]["recalibrations"] == 0
    for label in ("step", "linear", "sine", "random_walk"):
        assert by[label]["recalibrations"] > 0
        assert (
            by[label]["peak_statistic"]
            > by["constant"]["peak_statistic"]
        )
    # Oscillating drift keeps alarming as the rates swing.
    assert by["sine"]["recalibrations"] >= by["step"]["recalibrations"]


_register(CatalogEntry(
    name="ext_drift_schedules",
    figure="Extension (drift)",
    title="Online re-calibration across drift schedule kinds",
    build=_build_ext_drift_schedules,
    tables=_tables_ext_drift_schedules,
    claims=(online_policy_across_schedules,),
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


def engine_throughput_on_repeated_trace(records: list) -> None:
    """The engine's cache absorbs a tuning trace's parameter revisits
    with identical ledgers and energies."""
    direct = select(records, point__options={"cache": False})[0]["result"]
    engine = select(records, point__options={})[0]["result"]
    # The paper's cost metric is untouched: identical ledgers...
    assert engine["circuits"] == direct["circuits"]
    assert engine["shots"] == direct["shots"]
    # ...and identical energies (shared-RNG sampling order is preserved).
    assert engine["energies"] == direct["energies"]
    # The cache absorbs the revisits: fewer simulations than submissions,
    # a positive hit rate, and (on any reasonable machine) a wall-clock win.
    assert engine["hit_rate"] > 0.0
    assert engine["simulations"] < engine["circuits"]
    assert engine["simulations"] < direct["simulations"]


_register(CatalogEntry(
    name="ext_engine_throughput",
    figure="Extension (engine)",
    title="Execution-engine throughput on a repeated-parameter trace",
    build=_build_ext_engine_throughput,
    tables=_tables_ext_engine_throughput,
    normalize=functools.partial(_mask_timings, speedup=True),
    claims=(engine_throughput_on_repeated_trace,),
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


def gc_versus_qwc_grouping(records: list) -> None:
    """§3.1: general commutation needs fewer circuits, but only at the
    price of entangling measurement rotations."""
    for record in select(records, point__task="gc_grouping"):
        r = record["result"]
        # GC always merges at least as well as QWC...
        assert r["gc_groups"] <= r["qwc_groups"]
        # ...but pays with entangling gates QWC never needs (the paper's
        # stated reason for scoping VarSaw to trivial commutation).
        if r["gc_groups"] < r["qwc_groups"]:
            assert r["gc_rotation_cx"] > 0


def gc_group_validity(records: list) -> None:
    """Every GC group is internally commuting and diagonalizable."""
    stats, = select(records, point__task="gc_validity")
    assert stats["result"]["groups"] >= 1
    assert stats["result"]["pairs_checked"] > 0


def gc_versus_qwc_end_to_end(records: list) -> None:
    """GC needs ~5x fewer circuits at comparable accuracy under
    readout-dominated noise (§3.1's trade-off, measured)."""

    def result(scheme):
        record, = select(
            records, point__task="gc_end_to_end",
            point__options__regime="standard",
            point__options__estimator=scheme,
        )
        return record["result"]

    qwc = result("QWC baseline")
    gc = result("GC estimator")
    # GC runs several-fold fewer circuits...
    assert gc["circuits"] * 2 < qwc["circuits"]
    # ...at comparable accuracy in the readout-dominated regime.
    assert gc["error"] < 2.5 * qwc["error"]


_register(CatalogEntry(
    name="ext_gc_grouping",
    figure="Extension (§3.1)",
    title="Qubit-wise vs general commutation grouping",
    build=_build_ext_gc_grouping,
    tables=_tables_ext_gc_grouping,
    claims=(
        gc_versus_qwc_grouping,
        gc_group_validity,
        gc_versus_qwc_end_to_end,
    ),
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


def subset_placement_readout_gain(records: list) -> None:
    """Subsets gain by measuring on the best readout lines (Section 1,
    benefit a)."""
    rows = [
        record["result"]
        for record in select(records, point__task="readout_placement")
    ]
    for r in rows:
        assert r["best"] <= r["default"]
    # best-k mean error is monotone nondecreasing in the window size:
    # wider subsets are forced onto progressively worse readout lines.
    best_means = [r["best"] for r in rows]
    assert best_means == sorted(best_means)


def ansatz_routing_overhead(records: list) -> None:
    """On heavy-hex, Table 3's full entanglement pays SWAPs that linear
    entanglement avoids entirely."""
    rows = [
        record["result"]
        for record in select(records, point__task="routing")
    ]
    by_type = {r["entanglement"]: r for r in rows}
    # Linear entanglement routes SWAP-free on a line-containing topology;
    # full entanglement cannot.
    assert by_type["linear"]["swaps"] == 0
    assert by_type["full"]["swaps"] > 0
    # Full entanglement pays the largest native gate bill.
    assert by_type["full"]["native_cx"] == max(
        r["native_cx"] for r in rows
    )


_register(CatalogEntry(
    name="ext_layout_routing",
    figure="Extension (layout)",
    title="Layout & routing costs behind the paper's premises",
    build=_build_ext_layout_routing,
    tables=_tables_ext_layout_routing,
    claims=(subset_placement_readout_gain, ansatz_routing_overhead),
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


def mitigation_shootout(records: list) -> None:
    """Matrix inversion wins at small width, while JigSaw's subsetting
    still recovers GHZ-8 where inversion amplifies sampling noise."""
    stats = {
        n: select(
            records,
            point__task="mitigation_shootout",
            point__options__n_qubits=n,
        )[0]["result"]
        for n in SHOOTOUT_WIDTHS
    }
    for n, results in stats.items():
        raw_tvd = results["raw"][0]
        # JigSaw beats raw at every width — subsetting degrades
        # gracefully where matrix inversion cannot.
        assert results["JigSaw"][0] < 0.6 * raw_tvd
        # Bias-aware averaging never makes the distribution worse
        # (it halves the worst-case asymmetric bias).
        assert results["bias-aware"][0] < raw_tvd * 1.1
    # Matrix methods dominate at small width...
    for n in (4, 6):
        assert stats[n]["M3"][0] < 0.4 * stats[n]["raw"][0]
        assert stats[n]["MBM"][0] < 0.4 * stats[n]["raw"][0]
    # ...but amplify sampling noise catastrophically at GHZ-8 under 2x
    # noise, while JigSaw still recovers most of the infidelity — the
    # MICRO'21 motivation for subsetting, reproduced end to end.
    assert stats[8]["JigSaw"][0] < stats[8]["M3"][0]
    assert stats[8]["JigSaw"][0] < 0.5 * stats[8]["raw"][0]


def mitigation_stacking(records: list) -> None:
    """M3-corrected Globals inside JigSaw: Fig. 18's stacking, per circuit."""
    stacking = select(
        records, point__task="mitigation_stacking"
    )[0]["result"]
    # Fig. 18's shape: stacking helps or is negligible, never a blow-up.
    assert stacking["jigsaw+m3 global"] < stacking["jigsaw"] * 1.1


_register(CatalogEntry(
    name="ext_mitigation_shootout",
    figure="Extension (mitigation)",
    title="Measurement-mitigation shootout on fixed circuits",
    build=_build_ext_mitigation_shootout,
    tables=_tables_ext_mitigation_shootout,
    claims=(mitigation_shootout, mitigation_stacking),
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


def qaoa_spatial_structure(records: list) -> None:
    """§7.3: a single-basis MaxCut Hamiltonian leaves little spatial
    redundancy to harvest."""
    stats = select(records, point__task="structure")[0]["result"]
    # Every ZZ term lives in the single all-Z commuting family: the
    # spatial opportunity is structurally smaller than in VQE (§7.3).
    assert stats["qwc_families"] == 1
    # Spatial reduction still prunes the sliding-window subsets well
    # below the term count (shared 2-qubit windows merge).
    assert stats["varsaw"] < stats["jigsaw"]


def qaoa_temporal_benefit(records: list) -> None:
    """§7.3: sparse Globals still buy more iterations at >= accuracy
    for a fixed budget."""
    runs = {
        r["point"]["scheme"]: r["result"]
        for r in select(records, point__task="tuning")
    }
    dense = runs["varsaw_no_sparsity"]
    sparse = runs["varsaw_max_sparsity"]
    # The temporal prediction: sparsity buys strictly more iterations...
    assert (
        sparse["iterations_completed"] > dense["iterations_completed"]
    )
    # ...and does not give up accuracy (small tolerance for tuner noise).
    assert sparse["energy"] <= dense["energy"] + 0.35


_register(CatalogEntry(
    name="ext_qaoa",
    figure="Extension (§7.3)",
    title="VarSaw on QAOA MaxCut",
    build=_build_ext_qaoa,
    tables=_tables_ext_qaoa,
    claims=(qaoa_spatial_structure, qaoa_temporal_benefit),
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


def ext_term_selective_tradeoff(records: list) -> None:
    """§7.3: mitigating only the heaviest terms trades subset circuits
    for accuracy."""
    ideal = select(
        records, point__task="energy", point__scheme="ideal"
    )[0]["result"]["energy"]
    baseline = select(
        records, point__task="energy", point__scheme="baseline"
    )[0]["result"]["energy"]
    rows = [
        r["result"]
        for r in select(records, point__task="term_selective")
    ]
    # Subset cost grows with selected mass...
    costs = [r["subsets"] for r in rows]
    assert costs == sorted(costs)
    # ...full selection does at least as well as the unmitigated baseline
    # and partial selection lands in between.
    base_error = abs(baseline - ideal)
    assert rows[-1]["error"] < base_error
    assert rows[0]["subsets"] < rows[-1]["subsets"]


def ext_phase_selective_run(records: list) -> None:
    """Mitigate only the tuning endgame: cheaper than always-on, more
    accurate at the end than never-on."""
    out = {
        r["point"]["options"]["policy"]: r["result"]
        for r in select(records, point__task="phase_selective")
    }
    # Endgame-only mitigation is cheaper than always-on...
    assert out["endgame"]["circuits"] < out["always"]["circuits"]
    # ...at comparable accuracy.
    assert out["endgame"]["energy"] <= out["always"]["energy"] + 0.3


_register(CatalogEntry(
    name="ext_selective_mitigation",
    figure="Extension (§7.3)",
    title="Selective mitigation: cost vs accuracy",
    build=_build_ext_selective_mitigation,
    tables=_tables_ext_selective_mitigation,
    claims=(ext_term_selective_tradeoff, ext_phase_selective_run),
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


def ext_spin_model_spatial_reduction(records: list) -> None:
    """§7.3: spin-model terms spread across bases, so subsets shrink,
    most for multi-basis Heisenberg."""
    rows = {
        r["point"]["workload"]["model"]: r["result"]
        for r in select(records, point__task="structure")
    }
    for model, r in rows.items():
        assert r["varsaw"] < r["jigsaw"], model
    # The multi-basis models (Heisenberg spans X/Y/Z) show the strongest
    # redundancy, as Section 7.3 predicts.
    heis = rows["heisenberg"]
    assert heis["jigsaw"] / heis["varsaw"] > 2


def ext_spin_model_temporal_economics(records: list) -> None:
    """§7.3: sparse Globals buy iterations on TFIM, Heisenberg and XY
    at a fixed budget."""
    for model in ("tfim", "heisenberg", "xy"):
        runs = {
            r["point"]["scheme"]: r["result"]
            for r in select(
                records, point__task="tuning",
                point__workload__model=model,
            )
        }
        sparse = runs["varsaw_max_sparsity"]
        dense = runs["varsaw_no_sparsity"]
        assert sparse["iterations"] > 1.3 * dense["iterations"], model
        assert sparse["energy"] <= dense["energy"] + 0.4, model


_register(CatalogEntry(
    name="ext_spin_models",
    figure="Extension (§7.3)",
    title="VarSaw on spin-model Hamiltonians",
    build=_build_ext_spin_models,
    tables=_tables_ext_spin_models,
    claims=(
        ext_spin_model_spatial_reduction,
        ext_spin_model_temporal_economics,
    ),
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


def quench_mitigation(records: list) -> None:
    """§7.3: JigSaw recovers the readout bias of a TFIM quench's
    magnetization at every evolution time."""
    rows = [
        r["result"]
        for r in select(records, point__task="quench")
    ]
    improvements = 0
    for r in rows:
        noisy_err = abs(r["noisy"] - r["exact"])
        mit_err = abs(r["jigsaw"] - r["exact"])
        if mit_err < noisy_err:
            improvements += 1
    # Mitigation wins at every sampled time on this workload.
    assert improvements == len(rows)


def trotter_formula_quality(records: list) -> None:
    """Product-formula error orders, as the library's docs claim."""
    rows = [
        r["result"]
        for r in select(records, point__task="trotter_error")
    ]
    # Monotone convergence, and order 2 dominates order 1 throughout.
    for a, b in zip(rows, rows[1:]):
        assert b["order1"] < a["order1"]
        assert b["order2"] < a["order2"]
    for r in rows:
        assert r["order2"] < r["order1"]
    # Asymptotic rates: O(1/n) vs O(1/n^2) over the 8x step range.
    assert rows[-1]["order1"] < rows[0]["order1"] / 4
    assert rows[-1]["order2"] < rows[0]["order2"] / 30


def sparse_global_sweep(records: list) -> None:
    """VarSaw's temporal bet transplanted to the quench sweep.

    Adjacent time points share Globals: running a fresh Global only
    every 4th point costs a fraction of dense JigSaw at comparable
    accuracy — the Section 7.3 extension, end to end.
    """
    by_period = {
        r["point"]["options"]["period"]: r["result"]
        for r in select(records, point__task="quench_sweep")
    }
    dense, sparse = by_period[1], by_period[4]
    assert sparse["circuits"] < dense["circuits"]
    assert sparse["globals"] == 2
    # The staleness bet: comparable accuracy at lower cost.
    assert sparse["error"] < dense["error"] + 0.05


_register(CatalogEntry(
    name="ext_trotter_mitigation",
    figure="Extension (§7.3)",
    title="Measurement mitigation for Trotterized time evolution",
    build=_build_ext_trotter_mitigation,
    tables=_tables_ext_trotter_mitigation,
    claims=(quench_mitigation, trotter_formula_quality, sparse_global_sweep),
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


def tuner_robustness(records: list) -> None:
    """§5.1's noise-robust tuners (SPSA, ImFil) close most of the
    start-to-ideal gap; Nelder-Mead improves but lags."""
    stats = {
        r["point"]["options"]["tuner"]: r["result"]
        for r in records
    }
    ideal = records[0]["result"]["ideal_energy"]

    def progress(row):
        return (row["start"] - row["energy"]) / (row["start"] - ideal)

    # The paper's tuners (SPSA, ImFil) are noise-robust by design and
    # dig most of the way toward the ideal.
    assert progress(stats["SPSA"]) > 0.5
    assert progress(stats["ImFil"]) > 0.5
    # Nelder-Mead improves but lags on noisy objectives — the well-known
    # simplex-collapse-under-shot-noise effect, and the reason Section
    # 5.1 picks SPSA/ImFil.  We assert the direction, not parity.
    assert progress(stats["NelderMead"]) > 0.0
    assert stats["NelderMead"]["energy"] >= min(
        stats["SPSA"]["energy"], stats["ImFil"]["energy"]
    ) - 0.2


_register(CatalogEntry(
    name="ext_tuner_comparison",
    figure="Extension (§5.1)",
    title="Classical tuner ablation under VarSaw",
    build=_build_ext_tuner_comparison,
    tables=_tables_ext_tuner_comparison,
    claims=(tuner_robustness,),
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
    """Scheme-label -> energy, plus ``ideal`` (shared with the claim)."""
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


def ext_zne_comparison(records: list) -> None:
    """ZNE and VarSaw each beat the noisy baseline, and so does their
    stack (§6.8's MBM stacking, with ZNE)."""
    energies = zne_energies(records)
    ideal = energies.pop("ideal")
    errors = {k: abs(v - ideal) for k, v in energies.items()}
    # Both mitigations individually beat the raw baseline.
    assert errors["baseline+ZNE"] < errors["baseline"]
    assert errors["varsaw"] < errors["baseline"]
    # The stack also beats the raw baseline.  (It is NOT always better
    # than VarSaw alone: when VarSaw saturates the measurement error,
    # ZNE's extrapolation only amplifies residual shot noise — mirroring
    # Fig. 18's 'negligible for LiH' observation for the MBM stack.)
    assert errors["varsaw+ZNE"] < errors["baseline"]
    # Mitigation overall removes most of the noise-induced error here.
    assert min(errors.values()) < 0.5 * errors["baseline"]


_register(CatalogEntry(
    name="ext_zne_comparison",
    figure="Extension (§6.8)",
    title="VarSaw vs / with zero-noise extrapolation",
    build=_build_ext_zne_comparison,
    tables=_tables_ext_zne_comparison,
    claims=(ext_zne_comparison,),
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
    """Payload kind -> tuning result (shared with the claim)."""
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


def ext_api_session(records: list) -> None:
    """Every registered kind tunes through inline specs; GC spends
    several-fold fewer circuits than VarSaw."""
    rows = api_session_rows(records)
    assert set(rows) == {
        "varsaw", "gc", "selective", "calibration_gated"
    }
    for kind, result in rows.items():
        assert result["circuits"] > 0, kind
        assert result["error"] < 10.0, kind
    # GC groups whole commuting families: far fewer circuits than the
    # subset-based schemes.
    assert rows["gc"]["circuits"] < rows["varsaw"]["circuits"] / 2
    # Selective mitigation only prunes work relative to full VarSaw.
    assert rows["selective"]["circuits"] <= rows["varsaw"]["circuits"]
    # Mumbai-like readout is uniformly bad enough that the calibration
    # gate keeps every subset: bit-identical to plain VarSaw.
    assert rows["calibration_gated"]["energy"] == rows["varsaw"]["energy"]
    assert (
        rows["calibration_gated"]["circuits"] == rows["varsaw"]["circuits"]
    )


_register(CatalogEntry(
    name="ext_api_session",
    figure="Extension (API)",
    title="Typed estimator specs driving the sweep pipeline",
    build=_build_ext_api_session,
    tables=_tables_ext_api_session,
    claims=(ext_api_session,),
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
    """Backend kind -> task result (shared with the claim)."""
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


def ext_backend_matrix(records: list) -> None:
    """Backend choice never changes the circuit/shot ledger; clifford
    runs every circuit on the stabilizer path."""
    rows = backend_matrix_rows(records)
    assert set(rows) == {"dense", "clifford", "density"}
    # Backend choice never changes the paper's cost metric: one charge
    # per executed circuit, shots included, on every backend.
    ledgers = {
        (result["circuits"], result["shots"]) for result in rows.values()
    }
    assert len(ledgers) == 1, rows
    # The clifford backend dispatched every circuit to the stabilizer
    # path; nothing fell back to dense simulation.
    assert rows["clifford"]["stabilizer_runs"] == rows["clifford"][
        "circuits"
    ]
    assert rows["clifford"]["fallbacks"] == 0
    assert rows["dense"]["stabilizer_runs"] == 0
    # Analytic density counts carry no shot noise: the all-zeros weight
    # is a plain probability in [0, 1], and the sampled backends agree
    # with each other (same PMF up to float dust, same seeded RNG —
    # tolerance of a couple of shots, not exact equality, so a numpy
    # upgrade shifting the dust across one draw boundary cannot flake).
    assert 0.0 <= rows["density"]["zero_weight"] <= 1.0
    shots_per_run = rows["dense"]["shots"] / rows["dense"]["circuits"]
    assert abs(
        rows["dense"]["zero_weight"] - rows["clifford"]["zero_weight"]
    ) <= 2.0 / shots_per_run


_register(CatalogEntry(
    name="ext_backend_matrix",
    figure="Extension (backends)",
    title="Pluggable execution backends on one stabilizer workload",
    build=_build_ext_backend_matrix,
    tables=_tables_ext_backend_matrix,
    normalize=_mask_timings,
    claims=(ext_backend_matrix,),
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
    """Tenant count -> task result (shared with the claim)."""
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


def ext_serve_throughput(records: list) -> None:
    """8 tenants submit 8x the jobs but execute the same distinct jobs,
    and per-tenant charges sum to the engines' ledger."""
    rows = serve_throughput_rows(records)
    solo, fleet = rows[1], rows[8]
    # A lone tenant has nobody to share with; a fleet of 8 submitting
    # the same jobs shares almost everything.
    assert solo["cross_tenant_dedup"] == 0
    assert fleet["cross_tenant_dedup"] > 0
    # Job-level dedup: 8x the submissions, identical executions.
    assert fleet["submitted"] == 8 * solo["submitted"]
    assert fleet["executed"] == solo["executed"]
    # Every distinct job ran exactly once in both cells, so the
    # engines' ledgers agree — the fleet paid nothing extra.
    assert fleet["circuits"] == solo["circuits"]
    assert fleet["shots"] == solo["shots"]
    # Cost attribution is exact: per-tenant charges sum to the
    # engines' total ledger in both cells.
    assert solo["ledger_match"] and fleet["ledger_match"]
    assert fleet["tenant_circuits"] == fleet["circuits"]
    assert fleet["tenant_shots"] == fleet["shots"]


_register(CatalogEntry(
    name="ext_serve_throughput",
    figure="Extension (serve)",
    title="Multi-tenant estimation service with request coalescing",
    build=_build_ext_serve_throughput,
    tables=_tables_ext_serve_throughput,
    normalize=_mask_timings,
    claims=(ext_serve_throughput,),
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
    """Shard count -> task result (shared with the claim)."""
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


def ext_dist_scaling(records: list) -> None:
    """Four work-stealing shards store records identical to a serial
    run's, each point exactly once."""
    rows = dist_scaling_rows(records)
    serial, sharded = rows[1], rows[4]
    # The hard invariant: sharded records are byte-identical to the
    # serial run's (canonically, volatile wall-clock fields excluded).
    assert sharded["digest"] == serial["digest"]
    # Every point recorded exactly once, no lost or duplicated work.
    assert serial["records"] == serial["points"]
    assert sharded["records"] == sharded["points"]
    assert serial["duplicates"] == 0
    assert sharded["duplicates"] == 0


_register(CatalogEntry(
    name="ext_dist_scaling",
    figure="Extension (dist)",
    title="Sharded sweeps with work-stealing: records match serial",
    build=_build_ext_dist_scaling,
    tables=_tables_ext_dist_scaling,
    normalize=_mask_timings,
    claims=(ext_dist_scaling,),
))
