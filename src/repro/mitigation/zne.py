"""Zero-noise extrapolation (ZNE) for VQE energies.

The paper's related work (Kandala et al. 2019, its Ref. [28]) uses ZNE to
improve VQA accuracy: evaluate the objective at several *amplified* noise
levels and extrapolate to the zero-noise limit.  Our device models carry
a global noise-scale knob, which is exactly the amplification mechanism
hardware implementations emulate with pulse stretching — so ZNE falls out
naturally and can be compared against (or stacked with) VarSaw.

Implements Richardson (polynomial through all points) and linear
extrapolation over a configurable scale ladder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..noise import DeviceModel

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle)
    from ..api import EstimatorSpec

__all__ = ["richardson_extrapolate", "linear_extrapolate", "zne_energy"]


def richardson_extrapolate(scales, values) -> float:
    """Zero-noise value of the degree-(k-1) polynomial through k points.

    Classic Richardson extrapolation: with distinct scales ``c_i``, the
    zero-noise estimate is ``sum_i gamma_i * E(c_i)`` where the weights
    solve ``sum gamma_i = 1`` and ``sum gamma_i c_i^j = 0`` for
    ``1 <= j < k`` — i.e. Lagrange interpolation evaluated at 0.
    """
    scales = [float(s) for s in scales]
    values = [float(v) for v in values]
    if len(scales) != len(values) or len(scales) < 2:
        raise ValueError("need >= 2 matching scales and values")
    if len(set(scales)) != len(scales):
        raise ValueError("scales must be distinct")
    estimate = 0.0
    for i, (ci, vi) in enumerate(zip(scales, values)):
        weight = 1.0
        for j, cj in enumerate(scales):
            if j != i:
                weight *= cj / (cj - ci)
        estimate += weight * vi
    return estimate


def linear_extrapolate(scales, values) -> float:
    """Least-squares line through (scale, value), evaluated at scale 0."""
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.size != values.size or scales.size < 2:
        raise ValueError("need >= 2 matching scales and values")
    slope, intercept = np.polyfit(scales, values, deg=1)
    return float(intercept)


def zne_energy(
    workload,
    params,
    spec: EstimatorSpec,
    scales=(1.0, 1.5, 2.0),
    method: str = "richardson",
    seed: int = 0,
    base_device: DeviceModel | None = None,
) -> tuple[float, list[float]]:
    """Evaluate the objective across a noise ladder and extrapolate.

    Returns ``(zero_noise_estimate, per_scale_energies)``.  ``spec``
    may describe any registered estimator kind — ZNE stacks with
    VarSaw by passing a ``varsaw_no_sparsity`` spec etc.
    """
    # Imported here: this module is imported during repro.api's own
    # registration pass, so a module-level import would be circular.
    from ..api import Session

    if method not in ("richardson", "linear"):
        raise ValueError("method must be 'richardson' or 'linear'")
    device = base_device if base_device is not None else workload.device
    energies = []
    for scale in scales:
        session = Session(device, seed=seed, noise_scale=scale)
        estimator = session.estimator(spec, workload)
        energies.append(estimator.evaluate(np.asarray(params, dtype=float)))
    if method == "richardson":
        return richardson_extrapolate(scales, energies), energies
    return linear_extrapolate(scales, energies), energies
