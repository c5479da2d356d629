"""Every estimator submits the suffix plans it compiled at construction.

Estimators compile each basis or subset suffix once, when they are
built, and pass the plan with every state spec; the engine fingerprints
and groups state specs by the plan's structure key, and its plan cache
holds only circuit bodies.  After one H2-4 evaluation of every kind
that submits state specs:

* each submitted suffix is one of the estimator's own compiled plans
  (the very object) and has no parameter slots;
* each subset spec measures its subset's support (for JigSaw, a
  window);
* the engine compiled only circuit bodies: the ansatz, and
  ``drift_adaptive``'s calibration probe, a circuit spec.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import estimator_kinds
from repro.engine import Batch, StateSpec
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

#: Circuit bodies each kind compiles through the engine's plan cache.
BODY_COMPILES = {kind: 1 for kind in KIND_OPTIONS} | {"drift_adaptive": 2}


def test_every_kind_that_submits_state_specs_is_covered():
    assert set(KIND_OPTIONS) == set(estimator_kinds()) - {"ideal"}


def own_plans(estimator) -> list:
    """Every suffix plan the estimator compiled for itself."""
    plans = list(estimator._rotations.values())
    plans += getattr(estimator, "_subset_rotations", [])
    plans += getattr(estimator, "_suffixes", [])
    return plans


@pytest.mark.parametrize("kind", sorted(KIND_OPTIONS))
def test_submitted_suffixes_are_own_plans(kind, monkeypatch):
    specs = []
    submit = Batch.submit

    def recording(self, spec):
        specs.append(spec)
        return submit(self, spec)

    monkeypatch.setattr(Batch, "submit", recording)
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

    state_specs = [s for s in specs if isinstance(s, StateSpec)]
    assert state_specs
    plans = own_plans(estimator)
    for spec in state_specs:
        assert any(spec.suffix is plan for plan in plans)
        assert spec.suffix.num_slots == 0
        if not spec.map_to_best:
            continue  # a Global: every qubit measured
        if kind == "jigsaw":
            assert spec.measured_qubits in estimator.windows
        else:
            index = next(
                i for i, plan in enumerate(estimator._subset_rotations)
                if plan is spec.suffix
            )
            assert spec.measured_qubits == estimator.plan.support(index)
    assert estimator.engine.stats.plan_cache.misses == BODY_COMPILES[kind]
