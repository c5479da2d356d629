"""Compare two sets of benchmark results, workload by workload.

Usage, from the repository root::

    python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a directory of result files written by ``run.py``
(``perfbench/results/`` of a checkout).  For every workload present in
both sets it prints:

* each end-to-end metric's quartiles and median on both sides, and a
  verdict against the metric's bound in ``BENCHMARK.json``: ``better``
  when the new side wins at least nine tenths of the seed-matched pairs
  and the medians differ by more than the base's quartile distance;
  ``worse`` when the new median is worse by more than the bound;
  ``unresolved`` when the run-to-run spread exceeds the bound and
  neither side beats every run of the other; ``within bound``
  otherwise;
* from the traced runs, each layer's median self time on both sides
  and the difference, largest first, and every count that moved, so a
  change can show where its saving sits.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """``{(workload, trace): [result, ...]}`` for one result directory."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        runs[result["workload"], result["trace"]].append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, bound: float, lower_is_better: bool) -> str:
    """Classify one metric; ``base``/``new`` map seed -> value."""
    sign = 1.0 if lower_is_better else -1.0
    a, b = list(base.values()), list(new.values())
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse_by = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and worse_by < 0
        and abs(b_med - a_med) > a_q3 - a_q1
    ):
        return "better"
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "within bound"


def by_seed(results, metric: str) -> dict:
    return {r["seed"]: r["metrics"][metric]["value"] for r in results}


def medians(results) -> dict:
    names = results[0]["metrics"]
    return {
        name: statistics.median(
            r["metrics"][name]["value"] for r in results
        )
        for name in names
    }


def compare(base: dict, new: dict, config: dict) -> None:
    for workload in sorted({w for w, _ in base} & {w for w, _ in new}):
        a, b = base.get((workload, 0), []), new.get((workload, 0), [])
        print(f"== {workload}: {len(a)} base runs, {len(b)} new runs")
        if a and b:
            env_a, env_b = a[0]["environment"], b[0]["environment"]
            print(f"   base {env_a['commit'][:12]}  new "
                  f"{env_b['commit'][:12]}  nproc {env_b['nproc']}  "
                  f"blas threads {env_b['blas_threads']}")
            print(f"   {'metric':16s} {'unit':6s} {'base q1/med/q3':>30s}"
                  f" {'new q1/med/q3':>30s} {'change':>8s}  verdict")
            for spec in config["end_to_end"]:
                name = spec["name"]
                xa, xb = by_seed(a, name), by_seed(b, name)
                qa, qb = quartiles(list(xa.values())), quartiles(
                    list(xb.values())
                )
                change = (qb[1] - qa[1]) / qa[1]
                print(
                    f"   {name:16s} {spec['unit']:6s} "
                    f"{'/'.join(f'{v:.4g}' for v in qa):>30s} "
                    f"{'/'.join(f'{v:.4g}' for v in qb):>30s} "
                    f"{change:+8.1%}  "
                    + verdict(xa, xb, spec["bound"],
                              spec["better"] == "lower")
                )
        ta, tb = base.get((workload, 1), []), new.get((workload, 1), [])
        if not (ta and tb):
            continue
        ma, mb = medians(ta), medians(tb)
        units = {m["name"]: m["unit"] for m in config["per_layer"]}
        times = [n for n in units if units[n] == "s"]
        print(f"   per-layer self time, median of {len(ta)} / {len(tb)}"
              " traced runs:")
        for name in sorted(times, key=lambda n: -abs(mb[n] - ma[n])):
            if ma[name] or mb[name]:
                print(f"   {name:32s} {ma[name]:10.4f} s {mb[name]:10.4f} s"
                      f" {mb[name] - ma[name]:+10.4f} s")
        moved = [n for n in units if units[n] != "s" and ma[n] != mb[n]]
        for name in moved:
            print(f"   {name:32s} {ma[name]:10.4g} {mb[name]:10.4g} "
                  f"{units[name]}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    compare(load(Path(argv[0])), load(Path(argv[1])), config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
