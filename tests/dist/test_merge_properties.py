"""Property tests: shard-journal merging and claim replay.

The distributed invariants, stated over *arbitrary* interleavings:

* however finished records are scattered across K shard journals —
  duplicated, reordered, with torn garbage appended by killed
  writers — the coordinator's first-wins merge reproduces the serial
  store byte-for-byte;
* however a claim journal is replayed and interleaved, ownership is
  deterministic and completion (judged only from stores) is
  unaffected — no point is ever skipped.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.claims import ClaimQueue
from repro.dist.shard import _merge_ready
from repro.sweeps import ResultStore
from repro.sweeps.spec import Point

#: Torn tails an interrupted writer can leave behind.
_GARBAGE = ['{"torn', "not json at all", '["a list line"]', '{}']


def _points(n: int) -> list[Point]:
    return [Point(task="synthetic", options={"i": i}) for i in range(n)]


def _serial_store(tmp_path, n: int) -> ResultStore:
    store = ResultStore(tmp_path / "serial.jsonl")
    for i, point in enumerate(_points(n)):
        store.append(
            point, {"value": i * 1.5}, wall_time_s=0.001 * i
        )
    return store


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), shards=st.integers(1, 3))
def test_scattered_journals_merge_to_serial(tmp_path_factory, data,
                                            n, shards):
    tmp_path = tmp_path_factory.mktemp("merge")
    serial = _serial_store(tmp_path, n)
    records = list(serial.records())
    # Scatter: each record lands in >= 1 journal, possibly several.
    placements = [
        (
            record,
            data.draw(
                st.lists(
                    st.integers(0, shards - 1),
                    min_size=1, max_size=shards, unique=True,
                )
            ),
        )
        for record in records
    ]
    lines: list[list[str]] = [[] for _ in range(shards)]
    for record, journals in placements:
        text = json.dumps(record, sort_keys=True) + "\n"
        for index in journals:
            copies = data.draw(st.integers(1, 2))  # replayed appends
            lines[index].extend([text] * copies)
    shard_paths = []
    for index in range(shards):
        order = data.draw(st.permutations(lines[index]))
        path = tmp_path / f"shard{index}.jsonl"
        content = "".join(order)
        if data.draw(st.booleans()):
            content += data.draw(st.sampled_from(_GARBAGE))
        path.write_text(content)
        shard_paths.append(path)
    merged = ResultStore(tmp_path / "merged.jsonl")
    items = [(point, point.fingerprint()) for point in _points(n)]
    seen: list[str] = []
    _merge_ready(
        items, merged, shard_paths,
        lambda point, fingerprint, record: seen.append(fingerprint),
    )
    # Every point merges exactly once, from whichever shard has it.
    assert sorted(seen) == sorted(fingerprint for _, fingerprint in items)
    # Byte-for-byte: identical records in, identical records out —
    # including the volatile fields, because every copy is verbatim.
    assert {r["fingerprint"]: r for r in merged.records()} == {
        r["fingerprint"]: r for r in records
    }


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 5),
    claimers=st.integers(1, 4),
)
def test_claim_replay_is_deterministic_and_skips_nothing(
    tmp_path_factory, data, n, claimers
):
    tmp_path = tmp_path_factory.mktemp("claims")
    fingerprints = [f"fp{i}" for i in range(n)]
    # An arbitrary interleaving of (possibly conflicting, possibly
    # replayed) claims across several shards.
    events = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(fingerprints),
                st.integers(0, claimers - 1),
            ),
            min_size=1,
            max_size=4 * n,
        )
    )
    path = tmp_path / "claims.jsonl"
    queue = ClaimQueue(path)
    first_owner: dict[str, int] = {}
    for fingerprint, shard in events:
        queue.claim(fingerprint, shard)
        first_owner.setdefault(fingerprint, shard)
    # Replay the whole journal verbatim plus a torn tail.
    text = path.read_text()
    with path.open("a") as handle:
        handle.write(text)
        handle.write(data.draw(st.sampled_from(_GARBAGE)))
    reloaded = ClaimQueue(path)
    for fingerprint in fingerprints:
        expected = first_owner.get(fingerprint)
        assert reloaded.owner(fingerprint) == expected
    # Loading is idempotent.
    reloaded.load()
    for fingerprint, shard in first_owner.items():
        assert reloaded.owner(fingerprint) == shard
    # (The end-to-end "claims never skip execution" guarantee is
    # exercised with a live shard worker in test_shard.py.)
