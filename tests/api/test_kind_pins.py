"""Every registered estimator kind's energy and ledger, pinned.

One short tuning run per kind (plus ``selective`` with a term selector
that leaves some groups unmitigated): H2-4 on its default device, a
``Session(seed=7)``, 256 shots and 12 SPSA iterations at seed 7.  Each
row is the final energy's ``float.hex()``, the circuits and shots
charged, and the observed Global fraction (``None`` for kinds without a
temporal scheduler).  A refactor of the execution path, the noise
finisher or an estimator must leave every row unchanged; a change that
means to move one re-pins it and says why.
"""

from repro import Session, make_workload, run_vqe
from repro.api import estimator_kinds

PINS = {
    "ideal": ("0x1.6580bade00edep+3", 0, 0, None),
    "baseline": ("0x1.6ab57ac0a19ccp+3", 400, 102400, None),
    "jigsaw": ("0x1.6b570f1516155p+3", 1600, 409600, None),
    "varsaw": ("0x1.6506df5dac956p+3", 650, 166400, 0.125),
    "varsaw_no_sparsity": ("0x1.683810983e5cep+3", 1000, 256000, 1.0),
    "varsaw_max_sparsity": ("0x1.616fc4c0f505ap+3", 610, 156160, 0.025),
    "gc": ("0x1.6a533c3459fb2p+3", 80, 20480, None),
    "selective": ("0x1.6506df5dac956p+3", 650, 166400, 0.125),
    "calibration_gated": ("0x1.6506df5dac956p+3", 650, 166400, 0.125),
    "drift_adaptive": ("0x1.6107e1336f2cep+3", 720, 194560, 0.2),
    "selective(mass_fraction=0.5)": (
        "0x1.65acdaf9aa118p+3", 458, 117248, 0.225
    ),
}

CONFIGS = [(kind, kind, {}) for kind in estimator_kinds()] + [
    ("selective(mass_fraction=0.5)", "selective", {"mass_fraction": 0.5}),
]


def test_every_kind_reproduces_its_pinned_energy_and_ledger():
    workload = make_workload("H2-4")
    rows = {}
    for label, kind, knobs in CONFIGS:
        session = Session(workload.device, seed=7)
        estimator = session.estimator(kind, workload, shots=256, **knobs)
        result = run_vqe(estimator, max_iterations=12, seed=7)
        session.close()
        ledger = session.ledger()
        rows[label] = (
            result.energy.hex(),
            ledger.circuits,
            ledger.shots,
            getattr(estimator, "global_fraction", None),
        )
    assert rows == PINS
