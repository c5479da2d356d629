"""The ``density`` backend: exact mixed-state evaluation, analytic PMFs.

Two departures from the ``dense`` default, both aimed at *reference*
quality rather than throughput:

* **Local gate noise.**  Full-circuit executions evolve a
  :class:`~repro.sim.DensityMatrix` with a depolarizing channel after
  every gate (plus optional amplitude damping) instead of the dense
  backend's single global-depolarizing approximation.  The
  prepared-state fast path (``prepare_states`` + ``state_rows``)
  keeps the global approximation: it starts from a cached pure
  statevector, where the per-gate channel history is no longer
  available.
* **Analytic sampling.**  Engine jobs return the *expected* counts
  (``pmf * shots``, as floats) instead of drawing multinomial
  samples, so an estimator whose statistic is linear in the counts —
  every PMF-based expectation in the library — evaluates to the exact
  noisy expectation with zero shot variance, and consumes no RNG.
  Set ``analytic=False`` to restore sampling.

:mod:`repro.sim.density` evolution is O(4^n) per gate and channel,
for validation and small systems.  The engine runs it once per circuit
body per batch, so a JigSaw Global and its subsets share one evolution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..api.spec import check_bool, check_fraction
from ..circuits import Circuit
from ..noise import DeviceModel, SimulatorBackend
from ..noise.backend import PlanFor
from ..sim import PMF, Counts, run_density_matrix
from .registry import register_backend
from .spec import BackendSpec

__all__ = ["DensityBackend", "DensityBackendSpec"]


class DensityBackend(SimulatorBackend):
    """A :class:`~repro.noise.SimulatorBackend` over mixed states."""

    backend_kind = "density"

    def __init__(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
        analytic: bool = True,
        amplitude_damping: float = 0.0,
        readout_enabled: bool = True,
        gate_noise_enabled: bool = True,
    ):
        super().__init__(
            device,
            seed=seed,
            readout_enabled=readout_enabled,
            gate_noise_enabled=gate_noise_enabled,
        )
        self.analytic = analytic
        self.amplitude_damping = amplitude_damping

    def pmf_fingerprint_extra(self) -> str:
        """Extra PMF-shaping state for the engine's cache key.

        ``amplitude_damping`` changes exact PMFs, so (like the noise
        kill-switches) it must never let two configurations share a
        memoized distribution.
        """
        return f"ad{float(self.amplitude_damping).hex()}"

    # ------------------------------------------------------- simulation

    def circuit_probabilities_batch(
        self, circuits: Sequence[Circuit], plan_for: PlanFor
    ) -> list[np.ndarray]:
        """Mixed-state evolution with local per-gate noise channels.

        Each circuit evolves on its own; ``plan_for`` is unused.
        """
        gn = self.device.gate_noise
        scale = gn.scale if self.gate_noise_enabled else 0.0
        return [
            run_density_matrix(
                circuit,
                gate_error_1q=min(1.0, gn.error_1q * scale),
                gate_error_2q=min(1.0, gn.error_2q * scale),
                amplitude_damping=self.amplitude_damping,
            ).probabilities()
            for circuit in circuits
        ]

    def noise_gate_load(self, circuit: Circuit) -> tuple[int, int]:
        """``(0, 0)``: the local channels already applied the gate noise."""
        return (0, 0)

    # --------------------------------------------------------- sampling

    def sample(
        self, pmf: PMF, shots: int, rng: np.random.Generator
    ) -> Counts:
        """Expected counts when analytic; multinomial otherwise."""
        if self.analytic:
            return Counts.from_pmf_exact(pmf, shots)
        return super().sample(pmf, shots, rng)

    def __repr__(self) -> str:
        mode = "analytic" if self.analytic else "sampled"
        return (
            f"<DensityBackend device={self.device.name!r} {mode} "
            f"circuits_run={self.circuits_run}>"
        )


@register_backend("density")
@dataclass(frozen=True)
class DensityBackendSpec(BackendSpec):
    """Exact density-matrix evaluation with analytic expectations.

    Parameters
    ----------
    analytic:
        ``True`` (default) returns expected counts instead of sampling,
        making PMF-based expectations zero-variance; ``False`` restores
        multinomial shot noise.
    amplitude_damping:
        Optional per-gate T1-relaxation strength in [0, 1] — a noise
        channel the dense backend cannot express at all.
    readout / gate_noise:
        The shared noise kill-switches (see
        :class:`~repro.backends.DenseBackendSpec`).

    Example
    -------
    >>> from repro.backends import make_backend
    >>> backend = make_backend({"kind": "density", "analytic": True})
    >>> backend.backend_kind
    'density'
    """

    analytic: bool = True
    amplitude_damping: float = 0.0
    readout: bool = True
    gate_noise: bool = True

    def validate(self) -> None:
        """Check the flag types and the damping range eagerly."""
        check_bool("analytic", self.analytic)
        check_fraction("amplitude_damping", self.amplitude_damping)
        check_bool("readout", self.readout)
        check_bool("gate_noise", self.gate_noise)

    def create(
        self,
        device: DeviceModel | None = None,
        seed: int | None = None,
    ) -> DensityBackend:
        """Build the live :class:`DensityBackend`."""
        return DensityBackend(
            device,
            seed=seed,
            analytic=self.analytic,
            amplitude_damping=self.amplitude_damping,
            readout_enabled=self.readout,
            gate_noise_enabled=self.gate_noise,
        )
