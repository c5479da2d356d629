"""Integration tests tying the extension subsystems into the VQE stack.

Each test exercises a full tuning or evaluation path through components
added beyond the paper's core reproduction: QAOA workloads, the
general-commutation estimator, calibration-gated VarSaw, and routed
execution on a real device topology.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.noise import SimulatorBackend, ibm_lagos_like, ibmq_mumbai_like
from repro.vqe import (
    GeneralCommutationEstimator,
    GeneralCommutationSpec,
    run_vqe,
)


class TestQAOAThroughTheFullStack:
    def test_varsaw_qaoa_tuning_run(self):
        from repro.qaoa import make_qaoa_workload

        workload = make_qaoa_workload("ring", 4, reps=1)
        session = Session(ibmq_mumbai_like(scale=2.0), seed=31)
        estimator = session.estimator("varsaw", workload, shots=256)
        result = run_vqe(estimator, max_iterations=60, seed=31)
        # The tuner must make real progress toward the max cut.
        assert result.energy < -1.5
        assert result.circuits_executed > 0
        assert 0.0 < estimator.global_fraction <= 1.0

    def test_qaoa_temporal_scheduler_engages(self):
        from repro.qaoa import make_qaoa_workload

        workload = make_qaoa_workload("ring", 4, reps=1)
        session = Session(ibmq_mumbai_like(scale=2.0), seed=33)
        estimator = session.estimator("varsaw", workload, shots=128)
        run_vqe(estimator, max_iterations=50, seed=33)
        # Under noise the adaptive scheduler should skip most Globals.
        assert estimator.global_fraction < 0.9


class TestGCEstimatorInTheLoop:
    def test_gc_vqe_tuning_improves(self):
        from repro.workloads import make_workload

        workload = make_workload("H2-4")
        backend = SimulatorBackend(ibmq_mumbai_like(), seed=37)
        estimator = GeneralCommutationEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            GeneralCommutationSpec(shots=512),
        )
        start = np.full(workload.ansatz.num_parameters, 0.1)
        start_energy = estimator.evaluate(start)
        result = run_vqe(
            estimator, max_iterations=80, seed=37, initial_params=start
        )
        assert result.energy < start_energy
        # GC runs far fewer circuits per iteration than the QWC cover.
        assert estimator.num_groups <= 3


class TestCalibrationGatedInTheLoop:
    def test_gated_varsaw_tuning_run(self):
        from repro.core import (
            CalibrationGatedSpec,
            CalibrationGatedVarSawEstimator,
        )
        from repro.noise import (
            DepolarizingGateNoise,
            DeviceModel,
            QubitReadoutError,
            ReadoutErrorModel,
        )
        from repro.workloads import make_workload

        readout = ReadoutErrorModel(
            [
                QubitReadoutError(1e-5, 1e-5),
                QubitReadoutError(1e-5, 1e-5),
                QubitReadoutError(0.05, 0.08),
                QubitReadoutError(0.04, 0.07),
            ],
            crosstalk_strength=0.1,
        )
        device = DeviceModel(
            "split", readout, DepolarizingGateNoise(1e-4, 2e-3)
        )
        workload = make_workload("H2-4", device=device)
        backend = SimulatorBackend(device, seed=41)
        estimator = CalibrationGatedVarSawEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            CalibrationGatedSpec(shots=256, error_threshold=0.01),
        )
        assert estimator.subsets_skipped > 0
        result = run_vqe(estimator, max_iterations=60, seed=41)
        assert np.isfinite(result.energy)
        assert result.energy < workload.ideal_energy + 4.0


class TestRoutedExecutionOnRealTopology:
    def test_routed_ansatz_samples_match_logical(self):
        """Route a bound ansatz onto the Lagos H-shape and verify the
        noise-free outcome distribution matches the logical circuit."""
        from repro.ansatz import EfficientSU2
        from repro.layout import noise_aware_path_layout, route_circuit
        from repro.noise import ideal_device
        from repro.sim.statevector import probabilities, run_statevector

        device = ibm_lagos_like()
        coupling = device.coupling_map
        ansatz = EfficientSU2(4, reps=1, entanglement="linear")
        rng = np.random.default_rng(43)
        bound = ansatz.bind(rng.uniform(-1, 1, ansatz.num_parameters))
        layout = noise_aware_path_layout(4, coupling, device.readout)
        routed = route_circuit(bound, coupling, layout)

        expected = run_statevector(bound)
        routed_state = run_statevector(routed.circuit)
        # Read each logical amplitude out of the physical state: logical
        # qubit l lives at final_layout.physical(l); unused physical
        # qubits stay |0>.
        n_phys = routed.circuit.n_qubits
        actual = np.zeros(2**4, dtype=complex)
        for index in range(2**4):
            bits = format(index, "04b")
            phys = ["0"] * n_phys
            for l in range(4):
                phys[routed.final_layout.physical(l)] = bits[l]
            actual[index] = routed_state[int("".join(phys), 2)]
        assert np.allclose(
            probabilities(actual), probabilities(expected), atol=1e-9
        )

    def test_linear_ansatz_routes_free_on_lagos(self):
        from repro.ansatz import EfficientSU2
        from repro.layout import noise_aware_path_layout, route_circuit

        device = ibm_lagos_like()
        coupling = device.coupling_map
        ansatz = EfficientSU2(5, reps=2, entanglement="linear")
        bound = ansatz.bind(np.zeros(ansatz.num_parameters))
        layout = noise_aware_path_layout(5, coupling, device.readout)
        routed = route_circuit(bound, coupling, layout)
        assert routed.swaps_inserted == 0


class TestSweepsThroughTheFullStack:
    def test_sweep_record_matches_direct_run_tuning(self, tmp_path):
        """A declarative point reproduces the imperative path bit for bit.

        A direct ``sweeps.runner.execute_tuning`` call and the sweep
        runner share one code path; a stored sweep record must
        therefore carry exactly the energy a direct call produces.
        """
        from repro.api import make_spec
        from repro.sweeps import Point, ResultStore, run_sweep
        from repro.sweeps.runner import execute_tuning
        from repro.workloads import make_workload

        workload = make_workload("H2-4")
        device = ibmq_mumbai_like(scale=2.0)
        direct = execute_tuning(
            make_spec("varsaw", shots=64), workload, max_iterations=4,
            seed=9, device=device,
        )

        point = Point(
            workload={"key": "H2-4"},
            scheme="varsaw",
            device={"preset": "ibmq_mumbai_like", "scale": 2.0},
            seed=9,
            shots=64,
            max_iterations=4,
        )
        report = run_sweep([point], ResultStore(tmp_path / "s.jsonl"))
        record = report.records[point.fingerprint()]
        assert record["result"]["energy"] == direct.energy
        assert record["result"]["iterations"] == direct.result.iterations
        assert (
            record["result"]["circuits"]
            == direct.result.circuits_executed
        )
        assert record["result"]["global_fraction"] == pytest.approx(
            direct.global_fraction
        )
