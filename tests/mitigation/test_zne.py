"""Unit tests for zero-noise extrapolation."""

import numpy as np
import pytest

from repro.analysis import optimal_parameters
from repro.mitigation import linear_extrapolate, richardson_extrapolate, zne_energy
from repro.api import Session, make_spec
from repro.workloads import make_workload


class TestRichardson:
    def test_exact_on_linear_data(self):
        # E(c) = 5 - 2c -> E(0) = 5.
        assert richardson_extrapolate(
            [1.0, 2.0], [3.0, 1.0]
        ) == pytest.approx(5.0)

    def test_exact_on_quadratic_data(self):
        scales = [1.0, 2.0, 3.0]
        values = [4 + 2 * c + c**2 for c in scales]
        assert richardson_extrapolate(scales, values) == pytest.approx(4.0)

    def test_two_points_is_linear(self):
        assert richardson_extrapolate(
            [1.0, 3.0], [10.0, 14.0]
        ) == pytest.approx(linear_extrapolate([1.0, 3.0], [10.0, 14.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([1.0], [1.0])
        with pytest.raises(ValueError):
            richardson_extrapolate([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            richardson_extrapolate([1.0, 2.0], [1.0])


class TestLinear:
    def test_fits_noisy_line(self):
        rng = np.random.default_rng(0)
        scales = np.array([1.0, 1.5, 2.0, 2.5])
        values = 7.0 + 3.0 * scales + rng.normal(0, 1e-3, 4)
        assert linear_extrapolate(scales, values) == pytest.approx(
            7.0, abs=0.01
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_extrapolate([1.0], [2.0])


class TestZneEnergy:
    def test_zne_improves_baseline_energy(self):
        """At near-optimal parameters, the extrapolated energy is closer
        to the noise-free value than the scale-1 evaluation."""
        workload = make_workload("H2-4")
        params = optimal_parameters(workload, iterations=300)
        ideal = Session(seed=0).estimator("ideal", workload).evaluate(params)
        estimate, energies = zne_energy(
            workload,
            params,
            make_spec("baseline", shots=60_000),
            scales=(1.0, 2.0, 3.0),
            seed=3,
        )
        assert abs(estimate - ideal) < abs(energies[0] - ideal)

    def test_energies_degrade_with_scale(self):
        workload = make_workload("H2-4")
        params = optimal_parameters(workload, iterations=300)
        _, energies = zne_energy(
            workload,
            params,
            make_spec("baseline", shots=60_000),
            scales=(0.5, 2.0, 4.0),
            seed=1,
        )
        # Energy error grows with the noise scale (monotone ladder).
        ideal = Session(seed=0).estimator("ideal", workload).evaluate(params)
        errors = [abs(e - ideal) for e in energies]
        assert errors[0] < errors[-1]

    def test_stacks_with_varsaw(self):
        workload = make_workload("H2-4")
        params = optimal_parameters(workload, iterations=300)
        estimate, energies = zne_energy(
            workload,
            params,
            make_spec("varsaw_no_sparsity", shots=8192),
            scales=(1.0, 2.0),
            seed=2,
        )
        assert len(energies) == 2
        assert np.isfinite(estimate)

    def test_method_validation(self):
        workload = make_workload("H2-4")
        with pytest.raises(ValueError):
            zne_energy(
                workload, np.zeros(24), make_spec("baseline"),
                method="cubic",
            )
