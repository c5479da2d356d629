"""Store durability: atomic appends, torn tails, versioning, merge."""

import json

import pytest

from repro.dist.shard import _merge_ready
from repro.sweeps import RESULT_SCHEMA_VERSION, Point, ResultStore


def point(seed=0, **overrides):
    fields = {
        "workload": {"key": "H2-4"},
        "scheme": "baseline",
        "seed": seed,
        "shots": 32,
        "max_iterations": 3,
    }
    fields.update(overrides)
    return Point(**fields)


def fill(store, seeds):
    for seed in seeds:
        store.append(point(seed), {"energy": float(seed)}, wall_time_s=0.1)


class TestAppendLoad:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        record = store.append(point(), {"energy": -1.5}, wall_time_s=0.25)
        assert record["schema"] == RESULT_SCHEMA_VERSION
        assert record["result"]["energy"] == -1.5
        assert record["wall_time_s"] == 0.25

        reloaded = ResultStore(tmp_path / "s.jsonl")
        assert point().fingerprint() in reloaded
        assert reloaded.get(point().fingerprint())["result"]["energy"] == -1.5

    def test_energy_floats_roundtrip_exactly(self, tmp_path):
        # Bit-identical resume depends on JSON float round-tripping.
        energy = -109.86452370012345
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(point(), {"energy": energy}, wall_time_s=0.0)
        loaded = ResultStore(tmp_path / "s.jsonl").load().records
        assert loaded[point().fingerprint()]["result"]["energy"] == energy

    def test_first_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(point(), {"energy": 1.0}, wall_time_s=0.0)
        store.append(point(), {"energy": 2.0}, wall_time_s=0.0)
        assert len(store) == 1
        assert store.get(point().fingerprint())["result"]["energy"] == 1.0
        # The duplicate never reached the file either.
        assert len((tmp_path / "s.jsonl").read_text().splitlines()) == 1

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "missing.jsonl").load().records == {}


class TestCrashTolerance:
    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        fill(ResultStore(path), seeds=range(3))
        # Simulate a kill -9 mid-append: chop the last line in half.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])

        store = ResultStore(path)
        report = store.load_report
        assert len(store) == 2
        assert report.corrupt_lines == 1
        assert point(0).fingerprint() in store
        assert point(2).fingerprint() not in store

    def test_unknown_schema_version_is_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        fill(store, seeds=[0])
        alien = {
            "schema": RESULT_SCHEMA_VERSION + 1,
            "fingerprint": "ffff",
            "point": {},
            "result": {"energy": 9.9},
        }
        with path.open("a") as handle:
            handle.write(json.dumps(alien) + "\n")

        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.load_report.incompatible_records == 1
        assert "ffff" not in reloaded

    def test_garbage_lines_never_fatal(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('not json\n{"also": "not a record"}\n\n')
        store = ResultStore(path)
        assert len(store) == 0
        assert store.load_report.corrupt_lines == 2

    def test_duplicate_lines_on_disk_first_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        record = store.append(point(), {"energy": 1.0}, wall_time_s=0.0)
        tampered = dict(record, result={"energy": 2.0})
        with path.open("a") as handle:
            handle.write(json.dumps(tampered) + "\n")
        reloaded = ResultStore(path)
        assert reloaded.get(point().fingerprint())["result"]["energy"] == 1.0
        assert reloaded.load_report.duplicate_records == 1


class TestMerge:
    """The sharded coordinator's merge of shard stores into the main one."""

    @staticmethod
    def merge(store, paths, seeds) -> int:
        merged = []
        _merge_ready(
            [(point(seed), point(seed).fingerprint()) for seed in seeds],
            store, paths,
            lambda _point, fingerprint, _record: merged.append(fingerprint),
        )
        return len(merged)

    def test_merge_from_path_skips_known_fingerprints(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        b = ResultStore(tmp_path / "b.jsonl")
        fill(a, seeds=[0, 1])
        fill(b, seeds=[1, 2, 3])

        merged = self.merge(a, [tmp_path / "b.jsonl"], seeds=range(4))
        assert merged == 2
        assert len(a) == 4
        # a's own seed=1 record survived the merge untouched.
        assert a.get(point(1).fingerprint())["result"]["energy"] == 1.0
        # And the merge is durable, not just in-memory.
        assert len(ResultStore(tmp_path / "a.jsonl").load().records) == 4

    def test_merge_is_idempotent(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        b = ResultStore(tmp_path / "b.jsonl")
        fill(a, seeds=[0])
        fill(b, seeds=[0, 1])
        assert self.merge(a, [b.path], seeds=[0, 1]) == 1
        assert self.merge(a, [b.path], seeds=[0, 1]) == 0
