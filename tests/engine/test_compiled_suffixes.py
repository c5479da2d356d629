"""Every estimator submits suffix plans it compiled once, on first use.

Estimators compile each basis or subset suffix the first time they
submit it and keep the plan; construction compiles nothing.  They pass
the plan with every state spec; the engine fingerprints and groups
state specs by the plan's structure key, and its plan cache holds only
circuit bodies.  After one H2-4 evaluation of every kind that submits
state specs:

* each submitted suffix is one of the estimator's own compiled plans
  (the very object) and has no parameter slots;
* each subset spec measures its subset's support (for JigSaw, a
  window);
* the engine compiled only circuit bodies: the ansatz, and
  ``drift_adaptive``'s calibration probe, a circuit spec;
* the estimator compiled exactly the suffixes it submitted, each once.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import estimator_kinds
from repro.engine import Batch, StateSpec
from repro.noise import ibmq_mumbai_like
from repro.sim.plan import compile_plan
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

#: Suffix plans one H2-4 evaluation compiles: one per QWC basis it
#: measures (5 Globals), one per subset it runs (all 15, the 3 that
#: ``selective``'s kept groups need, or the 5 the calibration gate
#: keeps) and ``gc``'s 2 Clifford suffixes.
SUFFIX_COMPILES = {
    "ideal": 0,
    "baseline": 5,
    "gc": 2,
    "jigsaw": 5,
    "varsaw": 20,
    "varsaw_no_sparsity": 20,
    "varsaw_max_sparsity": 20,
    "selective": 8,
    "calibration_gated": 10,
    "drift_adaptive": 20,
}


def test_every_kind_that_submits_state_specs_is_covered():
    assert set(KIND_OPTIONS) == set(estimator_kinds()) - {"ideal"}


def record_specs(monkeypatch) -> list:
    """Every spec submitted to any batch from now on, in order."""
    specs = []
    submit = Batch.submit

    def recording(self, spec):
        specs.append(spec)
        return submit(self, spec)

    monkeypatch.setattr(Batch, "submit", recording)
    return specs


def count_compiles(monkeypatch) -> Counter:
    """``compile_plan`` calls from now on, per calling ``repro`` module."""
    calls: Counter = Counter()
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "compile_plan", None) is compile_plan
        ):
            def counting(circuit, _module=name):
                calls[_module] += 1
                return compile_plan(circuit)

            monkeypatch.setattr(module, "compile_plan", counting)
    return calls


def own_plans(estimator) -> list:
    """Every suffix plan the estimator compiled for itself."""
    plans = list(estimator._rotations.values())
    plans += getattr(estimator, "_subset_rotations", [])
    plans += getattr(estimator, "_suffixes", [])
    return plans


@pytest.mark.parametrize("kind", sorted(KIND_OPTIONS))
def test_submitted_suffixes_are_own_plans(kind, monkeypatch):
    specs = record_specs(monkeypatch)
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


def test_every_kind_has_a_compile_count():
    assert set(SUFFIX_COMPILES) == set(estimator_kinds())


@pytest.mark.parametrize("kind", sorted(SUFFIX_COMPILES))
def test_suffixes_compile_on_first_submission(kind, monkeypatch):
    workload = make_workload("H2-4")
    session = Session(ibmq_mumbai_like(), seed=7)
    calls = count_compiles(monkeypatch)
    estimator = session.estimator(
        kind, workload, shots=64, **KIND_OPTIONS.get(kind, {})
    )
    assert not calls  # construction compiles nothing
    specs = record_specs(monkeypatch)
    params = np.linspace(-1.0, 1.0, workload.ansatz.num_parameters)
    estimator.evaluate(params)
    session.close()

    suffix_compiles = sum(
        n for module, n in calls.items() if module != "repro.engine.engine"
    )
    submitted = {
        id(spec.suffix) for spec in specs
        if isinstance(spec, StateSpec) and spec.suffix is not None
    }
    assert suffix_compiles == len(submitted) == SUFFIX_COMPILES[kind]
    assert calls["repro.engine.engine"] == BODY_COMPILES.get(kind, 1)
