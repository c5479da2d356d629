"""Property-based tests for sweep fingerprints and store merging.

Two invariants carry the whole resume story:

* a :class:`Point`'s fingerprint is a pure function of its *content* —
  stable under dict-key ordering, field spelling (dataclass vs dict
  round trip), and sweep-axis ordering, and sensitive to any value
  change;
* :class:`ResultStore` loading/merging is idempotent and
  order-insensitive under the failure modes an append-only JSONL file
  actually exhibits: shuffled lines, duplicated records, and a torn
  tail from a killed writer.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.shard import _merge_ready
from repro.sweeps import Point, ResultStore, SweepSpec
from repro.sweeps.store import RESULT_SCHEMA_VERSION

# ------------------------------------------------------------ strategies

_SCALARS = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-100, 100, allow_nan=False),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd")
        ),
        max_size=8,
    ),
    st.booleans(),
    st.none(),
)


@st.composite
def points(draw):
    workload = draw(st.sampled_from([
        {"key": "H2-4"},
        {"key": "H2O-6", "reps": 2},
        {"model": "tfim", "n_qubits": 4, "field": 0.7},
        {"qaoa": "ring", "n_qubits": 4},
        {"named": "paper_tfim"},
    ]))
    options = draw(st.dictionaries(
        st.sampled_from(["a", "b", "window", "threshold"]),
        _SCALARS, max_size=3,
    ))
    return Point(
        workload=workload,
        scheme=draw(st.sampled_from(["baseline", "varsaw", "jigsaw"])),
        seed=draw(st.integers(0, 50)),
        shots=draw(st.integers(1, 4096)),
        max_iterations=draw(st.integers(1, 1000)),
        options=options,
    )


# ----------------------------------------------------------- fingerprints


@given(points())
@settings(max_examples=50, deadline=None)
def test_fingerprint_survives_json_round_trip(point):
    clone = Point.from_dict(json.loads(json.dumps(point.to_dict())))
    assert clone.fingerprint() == point.fingerprint()


@given(points(), st.randoms())
@settings(max_examples=50, deadline=None)
def test_fingerprint_ignores_mapping_key_order(point, rng):
    data = point.to_dict()
    shuffled = {}
    keys = list(data)
    rng.shuffle(keys)
    for key in keys:
        value = data[key]
        if isinstance(value, dict):
            subkeys = list(value)
            rng.shuffle(subkeys)
            value = {k: value[k] for k in subkeys}
        shuffled[key] = value
    assert Point.from_dict(shuffled).fingerprint() == point.fingerprint()


@given(points(), st.integers(1, 1000))
@settings(max_examples=50, deadline=None)
def test_fingerprint_sensitive_to_value_changes(point, delta):
    changed = Point.from_dict(
        {**point.to_dict(), "seed": point.seed + delta}
    )
    assert changed.fingerprint() != point.fingerprint()


@given(st.permutations(["baseline", "varsaw", "jigsaw"]),
       st.permutations([0, 1, 2]))
@settings(max_examples=25, deadline=None)
def test_axis_order_changes_grid_order_not_fingerprints(schemes, seeds):
    reference = SweepSpec(
        name="grid",
        base={"workload": {"key": "H2-4"}},
        axes={"scheme": ["baseline", "varsaw", "jigsaw"],
              "seed": [0, 1, 2]},
    )
    permuted = SweepSpec(
        name="grid",
        base={"workload": {"key": "H2-4"}},
        axes={"scheme": list(schemes), "seed": list(seeds)},
    )
    assert (
        {p.fingerprint() for p in permuted.points()}
        == {p.fingerprint() for p in reference.points()}
    )


# ------------------------------------------------------------ store merge


@st.composite
def record_lines(draw):
    """JSONL lines for n distinct fake records, in fingerprint order."""
    n = draw(st.integers(1, 8))
    lines = []
    for i in range(n):
        record = {
            "schema": RESULT_SCHEMA_VERSION,
            "fingerprint": f"fp-{i:04d}",
            "point": {"workload": {"key": "H2-4"}, "scheme": "baseline"},
            "result": {"energy": draw(
                st.floats(-100, 100, allow_nan=False)
            )},
            "wall_time_s": 0.0,
            "finished_at": 0.0,
        }
        lines.append(json.dumps(record, sort_keys=True))
    return lines


@given(lines=record_lines(), rng=st.randoms())
@settings(max_examples=40, deadline=None)
def test_load_is_order_insensitive_and_duplicate_tolerant(
    tmp_path_factory, lines, rng
):
    tmp = tmp_path_factory.mktemp("store")
    clean = tmp / "clean.jsonl"
    clean.write_text("\n".join(lines) + "\n")
    reference = ResultStore(clean).load().records

    mangled_lines = lines + [rng.choice(lines)]  # a duplicate
    rng.shuffle(mangled_lines)
    mangled = tmp / "mangled.jsonl"
    mangled.write_text("\n".join(mangled_lines) + "\n")
    store = ResultStore(mangled)
    report = store.load_report
    assert {
        fp: record["result"] for fp, record in report.records.items()
    } == {fp: record["result"] for fp, record in reference.items()}
    assert report.duplicate_records >= 1


@given(lines=record_lines(), torn_bytes=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_torn_tail_loses_at_most_the_last_record(
    tmp_path_factory, lines, torn_bytes
):
    tmp = tmp_path_factory.mktemp("store")
    path = tmp / "torn.jsonl"
    text = "\n".join(lines) + "\n"
    path.write_bytes(text.encode()[:-torn_bytes])
    records = ResultStore(path).load().records
    expected = {
        json.loads(line)["fingerprint"] for line in lines
    }
    # Tearing up to 40 bytes can only corrupt the final record (every
    # line is far longer): everything earlier survives intact.
    assert set(records) <= expected
    assert len(records) >= len(lines) - 1


@given(lines=record_lines(), rng=st.randoms())
@settings(max_examples=40, deadline=None)
def test_merge_is_idempotent_and_order_insensitive(
    tmp_path_factory, lines, rng
):
    tmp = tmp_path_factory.mktemp("store")
    source_path = tmp / "source.jsonl"
    source_path.write_text("\n".join(lines) + "\n")
    source = ResultStore(source_path)

    shuffled_lines = list(lines)
    rng.shuffle(shuffled_lines)
    other_path = tmp / "other.jsonl"
    other_path.write_text("\n".join(shuffled_lines) + "\n")

    # The sharded coordinator's merge, one shard journal at a time.
    items = [
        (Point(task="synthetic"), fp) for fp in sorted(source.fingerprints())
    ]

    def merge(path) -> int:
        merged = []
        _merge_ready(
            items, target, [path],
            lambda _point, fingerprint, _record: merged.append(fingerprint),
        )
        return len(merged)

    target = ResultStore(tmp / "target.jsonl")
    first = merge(source_path)
    assert first == len(lines)
    # Merging again — from either ordering — adds nothing.
    assert merge(source_path) == 0
    assert merge(other_path) == 0
    assert target.fingerprints() == source.fingerprints()
    # And a reload from disk sees exactly the same records.
    assert {
        fp: record["result"]
        for fp, record in ResultStore(target.path).load().records.items()
    } == {
        fp: record["result"]
        for fp, record in ResultStore(source_path).load().records.items()
    }
