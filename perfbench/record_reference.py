"""Record ``reference.json``: the outputs pinned at seed 7.

Run once at the commit whose outputs the benchmark should hold later
commits to, from the repository root::

    python3 perfbench/record_reference.py

It pins the quickstart final energies (bit patterns) and circuit
ledgers, and the first density operations' job and mitigated PMFs,
which later runs must match within 1e-10.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import _import_program  # noqa: E402

DENSITY_CIRCUITS = 16


def _tuning_entry(workload, inputs) -> dict:
    import workloads

    state = workload.setup(inputs)
    legs = {}
    for kind, session, estimator in state[1]:
        vqe, _, _, _ = workloads._tune(
            estimator, workload.max_iterations, inputs.spsa_seed, False
        )
        legs[kind] = {
            "circuits": session.ledger().circuits,
            "energy": vqe.energy.hex(),
        }
    workload.teardown(state)
    return {"seed": workloads.PINNED_SEED, "legs": legs}


def main() -> None:
    _import_program()
    import workloads

    inputs = workloads.Inputs(workloads.PINNED_SEED)
    reference = {
        workloads.QuickstartH2.name: _tuning_entry(
            workloads.QuickstartH2(), inputs
        ),
        workloads.DensityJigSaw.name: workloads.DensityJigSaw()
        .reference_entry(inputs, DENSITY_CIRCUITS),
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference) + "\n")
    for name, entry in reference.items():
        print(name, entry.get("legs", f"{len(entry.get('circuits', []))} "
                                      "density operations"))


if __name__ == "__main__":
    main()
