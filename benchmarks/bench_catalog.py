"""The paper benchmarks: one test per catalog entry.

Each test regenerates one table or figure of the VarSaw paper, or one
extension study, from its :mod:`repro.sweeps.catalog` entry (at quick
scale by default, paper scale under ``REPRO_SCALE=full``): it runs the
grid once under pytest-benchmark timing, prints the entry's tables,
checks that a resume executes nothing, and runs the paper claims
registered on the entry, printing any summary line a claim returns.
The claims never read a wall-clock field; the two checks that do are
kept here, in :data:`WALL_CLOCK`.
"""

import os

import pytest
from conftest import print_tables, record_entry_stat

from repro.analysis import is_full_scale
from repro.sweeps import ResultStore, select
from repro.sweeps.catalog import (
    dist_scaling_rows,
    entry_names,
    get_entry,
    run_entry,
)


def _engine_throughput_timing(records):
    direct = select(records, point__options={"cache": False})[0]["result"]
    engine = select(records, point__options={})[0]["result"]
    # Compiled plans + the vectorized noise finisher make the cached
    # engine strictly faster than the unbatched direct row; CI gates on
    # the recorded ratio (see BENCH_ext_engine_throughput.json), and
    # each row's own time shows which side moved when the ratio does.
    assert engine["seconds"] < direct["seconds"]
    record_entry_stat(
        "ext_engine_throughput",
        speedup=direct["seconds"] / engine["seconds"],
        direct_s=direct["seconds"],
        engine_s=engine["seconds"],
    )


def _dist_scaling_timing(records):
    rows = dist_scaling_rows(records)
    serial, sharded = rows[1], rows[4]
    cores = os.cpu_count() or 1
    speedup = serial["seconds"] / sharded["seconds"]
    record_entry_stat(
        "ext_dist_scaling",
        speedup=speedup,
        cores=cores,
        serial_s=serial["seconds"],
        sharded_s=sharded["seconds"],
    )
    # Timing is machine-dependent: gate the scaling claim only where
    # the hardware can express it and the cells are paper-sized.
    if cores >= 4 and is_full_scale():
        assert speedup >= 2.5


#: Checks on wall-clock fields, which no claim reads, by entry name.
WALL_CLOCK = {
    "ext_engine_throughput": _engine_throughput_timing,
    "ext_dist_scaling": _dist_scaling_timing,
}


@pytest.mark.parametrize("name", entry_names())
def test_entry(name, benchmark, tmp_path):
    entry = get_entry(name)
    store = ResultStore(tmp_path / "store.jsonl")
    outcome = benchmark.pedantic(
        lambda: run_entry(entry, store), iterations=1, rounds=1
    )
    print_tables(name, outcome.tables())
    # The grid is fully checkpointed: a re-run executes nothing.
    assert run_entry(entry, store).executed == []
    for claim in entry.claims:
        line = claim(outcome.records)
        if line is not None:
            print(line)
    if name in WALL_CLOCK:
        WALL_CLOCK[name](outcome.records)
