"""Every estimator hands the engine fresh, precomputed suffix digests.

Estimators hash each basis or subset suffix once, at construction, and
pass the digest with every state spec; the engine keys the spec's
fingerprint and its suffix-plan lookup by it.  A digest that no longer
matches its suffix (a subclass swapping in another subset plan after
the digests were taken) would silently pair a spec with another
suffix's cached plan and PMF.  After one H2-4 evaluation of every kind
that submits state specs, each submitted digest must equal the one
recomputed from the spec's suffix, and each subset spec must measure
exactly its subset's support.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import estimator_kinds
from repro.engine import Batch, StateSpec, body_fingerprint
from repro.noise import ibmq_mumbai_like
from repro.workloads import make_workload

#: Options per kind: the partially mitigated selective path, and a
#: calibration gate that prunes 10 of H2-4's 15 subsets.
KIND_OPTIONS = {
    "baseline": {},
    "gc": {},
    "jigsaw": {},
    "varsaw": {},
    "varsaw_no_sparsity": {},
    "varsaw_max_sparsity": {},
    "selective": {"mass_fraction": 0.5},
    "calibration_gated": {"error_threshold": 0.05},
    "drift_adaptive": {},
}


def test_every_kind_that_submits_state_specs_is_covered():
    assert set(KIND_OPTIONS) == set(estimator_kinds()) - {"ideal"}


@pytest.mark.parametrize("kind", sorted(KIND_OPTIONS))
def test_submitted_suffix_digests_match_their_suffixes(kind, monkeypatch):
    passed, specs = [], []
    submit_state = Batch.submit_state

    def recording(self, state, suffix, measured_qubits, shots,
                  map_to_best=False, gate_load=(0, 0), suffix_digest=None):
        passed.append(suffix_digest)
        handle = submit_state(self, state, suffix, measured_qubits, shots,
                              map_to_best, gate_load, suffix_digest)
        specs.append(handle.spec)
        return handle

    monkeypatch.setattr(Batch, "submit_state", recording)
    workload = make_workload("H2-4")
    session = Session(ibmq_mumbai_like(), seed=7)
    estimator = session.estimator(
        kind, workload, shots=64, **KIND_OPTIONS[kind]
    )
    if kind == "calibration_gated":
        assert estimator.subsets_skipped > 0
    estimator.evaluate(
        np.linspace(-1.0, 1.0, workload.ansatz.num_parameters)
    )
    session.close()

    assert specs and all(isinstance(s, StateSpec) for s in specs)
    assert None not in passed  # every digest was precomputed
    for spec in specs:
        assert spec.suffix_digest == body_fingerprint(spec.suffix)
        if not spec.map_to_best:
            continue  # a Global: every qubit measured
        if kind == "jigsaw":
            assert spec.measured_qubits in estimator.windows
        else:
            index = int(spec.suffix.name.removeprefix("subset_"))
            assert spec.measured_qubits == estimator.plan.support(index)
