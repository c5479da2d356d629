"""Every estimator submits measurements it compiled once, on first use.

Estimators compile each basis or subset suffix, and each measurement
of it, the first time they submit it and keep both; construction
compiles nothing.  They pass the compiled measurement with every
prepared state; the engine keys and groups state jobs by the
measurement's key and its suffix plan's structure key, and its plan
cache holds only circuit bodies.  After one H2-4 evaluation of every
kind that submits state jobs:

* each submitted measurement is one of the estimator's own compiled
  measurements (the very object), and its suffix one of its own
  compiled plans, with no parameter slots;
* each subset measurement reads its subset's support (for JigSaw, a
  window);
* the engine compiled only circuit bodies: the ansatz, and
  ``drift_adaptive``'s calibration probe, a circuit spec;
* the estimator compiled exactly the suffixes it submitted, each once,
  and a second evaluation compiles nothing more.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import estimator_kinds
from repro.engine import Batch
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


def record_measurements(monkeypatch) -> list:
    """The measurement of every state job submitted from now on."""
    measurements = []
    submit_state = Batch.submit_state

    def recording(self, state, measurement):
        measurements.append(measurement)
        return submit_state(self, state, measurement)

    monkeypatch.setattr(Batch, "submit_state", recording)
    return measurements


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


def own_measurements(estimator) -> list:
    """Every measurement the estimator compiled for itself."""
    measurements = list(estimator._measurements.values())
    measurements += getattr(estimator, "_subset_measurements", [])
    measurements += getattr(estimator, "_group_measurements", [])
    return [m for m in measurements if m is not None]


def own_plans(estimator) -> list:
    """Every suffix plan the estimator compiled for itself."""
    plans = list(estimator._rotations.values())
    plans += [m.suffix for m in own_measurements(estimator)]
    return plans


@pytest.mark.parametrize("kind", sorted(KIND_OPTIONS))
def test_submitted_suffixes_are_own_plans(kind, monkeypatch):
    specs = record_measurements(monkeypatch)
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

    assert specs
    plans = own_plans(estimator)
    measurements = own_measurements(estimator)
    for spec in specs:
        assert any(spec is m for m in measurements)
        assert any(spec.suffix is plan for plan in plans)
        assert spec.suffix.num_slots == 0
        if not spec.map_to_best:
            continue  # a Global: every qubit measured
        if kind == "jigsaw":
            assert spec.measured_qubits in estimator.windows
        else:
            index = next(
                i for i, m in enumerate(estimator._subset_measurements)
                if m is spec
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
    specs = record_measurements(monkeypatch)
    params = np.linspace(-1.0, 1.0, workload.ansatz.num_parameters)
    estimator.evaluate(params)
    first = {id(spec) for spec in specs}
    estimator.evaluate(-params)
    session.close()

    suffix_compiles = sum(
        n for module, n in calls.items() if module != "repro.engine.engine"
    )
    submitted = {
        id(spec.suffix) for spec in specs if spec.suffix is not None
    }
    assert suffix_compiles == len(submitted) == SUFFIX_COMPILES[kind]
    assert {id(spec) for spec in specs} <= first
    assert calls["repro.engine.engine"] == BODY_COMPILES.get(kind, 1)
