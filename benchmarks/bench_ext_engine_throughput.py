"""Extension: execution-engine throughput on a repeated-parameter trace.

The estimators submit whole-iteration batches to :mod:`repro.engine`,
which memoizes exact noisy PMFs and deduplicates structurally identical
circuits.  This bench replays one H2-4 VQE parameter trace — with the
parameter revisits that real tuning produces — through two engine
configurations (caches disabled vs the default bounded cache) and
asserts identical ledgers/energies with fewer simulations.

Ported to the declarative catalog (entry ``ext_engine_throughput``):
each replay is one ``engine_replay`` point.  The wall-clock column is
inherently volatile, so the golden-parity suite compares this entry
under the catalog's normalizer (timing cells masked).
"""

from conftest import print_table, record_entry_stat

from repro.sweeps import ResultStore, get_entry, run_entry, select

ENTRY = "ext_engine_throughput"


def test_engine_throughput_on_repeated_trace(benchmark, tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    entry = get_entry(ENTRY)
    outcome = benchmark.pedantic(
        lambda: run_entry(entry, store), iterations=1, rounds=1
    )
    assert run_entry(entry, store).executed == []
    table = outcome.tables()[0]
    print_table(table.title, table.headers, table.rows)

    records = outcome.records
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
    # Compiled plans + the vectorized noise finisher make the cached
    # engine strictly faster than the plan-less direct row; CI gates on
    # the recorded ratio (see BENCH_ext_engine_throughput.json).
    assert engine["seconds"] < direct["seconds"]
    record_entry_stat(
        ENTRY, speedup=direct["seconds"] / engine["seconds"]
    )

