"""Declarative sweep specifications and content-addressed points.

A :class:`Point` is one cell of an experiment grid — everything needed
to reproduce one tuning run, written entirely in JSON-serializable
values (workload *descriptions*, device *presets*) rather than live
objects, so a point can be fingerprinted, stored, compared across
processes, and re-materialized later.

A :class:`SweepSpec` is a named grid: a ``base`` point template plus
``axes`` mapping field names to lists of values; :meth:`SweepSpec.points`
yields the cross product.  The spec round-trips through JSON, which is
what the ``repro sweep`` CLI consumes.

Fingerprints are blake2b digests of the canonical JSON encoding
(:func:`repro.api.spec.canonical_spec_json`, the one encoder behind
every fingerprint) of the point plus :data:`POINT_SCHEMA_VERSION` —
stable across processes, dict orderings, and sweep-axis orderings, and
deliberately invalidated when the point schema itself changes meaning.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Mapping

from ..api.spec import canonical_spec_json as canonical_json

__all__ = [
    "BACKEND_AWARE_TASKS",
    "POINT_SCHEMA_VERSION",
    "WORKLOAD_KINDS",
    "WORKLOAD_TASKS",
    "Point",
    "SweepSpec",
]

#: Bumped whenever a Point field changes meaning; part of every
#: fingerprint, so stores never silently mix incompatible schemas.
#: v2: added ``task``/``options``/``warm_start`` and the QAOA/named
#: workload kinds (the full benchmark-catalog schema).  The optional
#: ``backend`` field is *not* a version bump: it is omitted from the
#: serialized form when unset (= ``dense``), so every pre-existing
#: point keeps its v2 fingerprint.
POINT_SCHEMA_VERSION = 2

#: Workload-description discriminator keys: exactly one must be present
#: in a tuning point's ``workload`` mapping.
#:
#: * ``key`` — a Table 2 molecule (:func:`repro.workloads.make_workload`)
#: * ``model`` — a spin chain (:func:`repro.workloads.make_spin_workload`,
#:   also needs ``n_qubits``)
#: * ``qaoa`` — a MaxCut problem (:func:`repro.qaoa.make_qaoa_workload`,
#:   also needs ``n_qubits``)
#: * ``named`` — a bespoke paper workload from
#:   :data:`repro.sweeps.runner.NAMED_WORKLOADS` (e.g. ``paper_tfim``)
WORKLOAD_KINDS = ("key", "model", "qaoa", "named")

#: Tasks whose points materialize a full live ``Workload`` (ansatz +
#: device + reference energy) through the runner's prepare phase, and
#: therefore *require* a workload description.  Structure-style tasks
#: build only what they need themselves — e.g. a bare Hamiltonian for
#: a system wider than any device preset.
WORKLOAD_TASKS = frozenset(
    {
        "tuning",
        "energy",
        "zne",
        "term_selective",
        "phase_selective",
        "drift_frontier",
    }
)

#: Tasks whose executors honor the point's ``backend`` field.  Every
#: other executor constructs its own (dense) backends internally, so a
#: ``backend`` on such a point would be silently ignored and mislabel
#: the stored results — point validation rejects the combination
#: instead.
BACKEND_AWARE_TASKS = frozenset({"tuning", "backend_matrix"})


@dataclass(frozen=True)
class Point:
    """One grid cell: a fully-described, reproducible experiment run.

    Parameters
    ----------
    workload:
        A workload description naming exactly one of
        :data:`WORKLOAD_KINDS` plus constructor kwargs, e.g.
        ``{"key": "H2O-6", "reps": 2}``,
        ``{"model": "tfim", "n_qubits": 6, "field": 0.7}``,
        ``{"qaoa": "ring", "n_qubits": 6, "reps": 2}``, or
        ``{"named": "paper_tfim"}``.  Non-tuning tasks may leave it
        empty (their inputs live in ``options``).
    task:
        Executor name in :data:`repro.sweeps.tasks.TASKS` —
        ``"tuning"`` (the default, a full VQE tuning run) or any
        registered analysis/evaluation task (``"structure"``,
        ``"energy"``, the catalog's figure-specific tasks, ...).
    scheme:
        Estimator kind (see :data:`repro.workloads.ESTIMATOR_KINDS`).
        Required for ``tuning``; task-defined otherwise.
    device:
        ``{"preset": <DEVICE_PRESETS name>, "scale": <noise scale>}``;
        ``None`` uses the workload's default device.
    seed:
        Trial seed — seeds the backend RNG and the SPSA tuner, exactly
        as :func:`repro.analysis.run_tuning` does.
    shots / max_iterations / circuit_budget / spsa_gain:
        Passed through to the tuning run.
    warm_start_iterations:
        When set, tuning warm-starts from
        :func:`repro.analysis.optimal_parameters` computed with this
        many ideal iterations (the quick-scale benchmark idiom).
        Molecule workloads only.
    warm_start:
        General warm-start description: ``{"kind": "optimal",
        "iterations": n}`` (equivalent to ``warm_start_iterations``) or
        ``{"kind": "ideal_vqe", "iterations": n, "seed": s}`` (a
        noise-free VQE pre-tune, the spin/QAOA benchmark idiom).
        Mutually exclusive with ``warm_start_iterations``.
    estimator:
        Typed estimator parameters (``window``, selective-mitigation
        knobs, ...), validated eagerly against the scheme's registered
        :class:`~repro.api.EstimatorSpec` — a misspelled knob fails at
        spec build, not mid-sweep.  The payload may carry its own
        ``"kind"`` (an inline spec, e.g. ``{"kind": "selective",
        "mass_fraction": 0.85}``), which overrides ``scheme`` entirely
        and makes every registered kind addressable from a grid.  The
        boolean ``mbm`` flag is materialized into a
        :class:`~repro.mitigation.MatrixMitigator` for the point's
        device (Fig. 18's stacking).
    backend:
        Which execution backend runs the point's circuits: a registered
        :mod:`repro.backends` kind name (``"clifford"``, ...) or a
        payload dict with a ``'kind'`` key, validated eagerly against
        the backend registry.  Only accepted on
        :data:`BACKEND_AWARE_TASKS` — other executors build their own
        backends, and a silently-ignored field would mislabel results.
        ``None`` (the default) means ``dense`` and is *omitted from
        the serialized form*, so fingerprints of pre-existing points —
        and therefore every checkpointed store and golden snapshot —
        are unchanged.
    options:
        Task-specific JSON payload for non-tuning executors.
    """

    workload: Mapping[str, Any] = field(default_factory=dict)
    scheme: str = ""
    task: str = "tuning"
    device: Mapping[str, Any] | None = None
    seed: int = 0
    shots: int = 256
    max_iterations: int = 100
    circuit_budget: int | None = None
    spsa_gain: float | None = 0.3
    warm_start_iterations: int | None = None
    warm_start: Mapping[str, Any] | None = None
    estimator: Mapping[str, Any] = field(default_factory=dict)
    backend: str | Mapping[str, Any] | None = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        workload = dict(self.workload)
        if not self.task or not isinstance(self.task, str):
            raise ValueError("task must be a non-empty string")
        kinds = [k for k in WORKLOAD_KINDS if k in workload]
        if self.task in WORKLOAD_TASKS:
            if len(kinds) != 1:
                raise ValueError(
                    f"a {self.task!r} workload must name exactly one of "
                    f"{WORKLOAD_KINDS}; got {workload!r}"
                )
            inline_kind = dict(self.estimator).get("kind")
            if self.task in ("tuning", "energy", "zne") and not (
                (self.scheme and isinstance(self.scheme, str))
                or (inline_kind and isinstance(inline_kind, str))
            ):
                # These executors build an estimator from the scheme
                # (or an inline estimator-spec payload); fail at spec
                # build, not mid-sweep.
                raise ValueError(
                    "scheme must be a non-empty string (or the "
                    "estimator payload must carry a 'kind')"
                )
        elif len(kinds) > 1:
            raise ValueError(
                f"workload names several kinds {kinds}; got {workload!r}"
            )
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.circuit_budget is not None and self.circuit_budget < 1:
            raise ValueError("circuit_budget must be positive or None")
        if self.device is not None and "preset" not in self.device:
            raise ValueError("device must be {'preset': ..., 'scale': ...}")
        if self.warm_start_iterations is not None:
            if self.warm_start is not None:
                raise ValueError(
                    "pass either warm_start_iterations or warm_start, "
                    "not both"
                )
            if "key" not in workload:
                # optimal_parameters' cached ideal tuning only covers
                # the Table 2 molecule registry today.
                raise ValueError(
                    "warm_start_iterations requires a molecule workload "
                    "('key'); use warm_start={'kind': 'ideal_vqe', ...} "
                    "for spin/QAOA workloads"
                )
        if self.warm_start is not None:
            warm = dict(self.warm_start)
            kind = warm.get("kind")
            if kind not in ("optimal", "ideal_vqe"):
                raise ValueError(
                    "warm_start['kind'] must be 'optimal' or 'ideal_vqe'; "
                    f"got {kind!r}"
                )
            iterations = warm.get("iterations")
            if not isinstance(iterations, int) or iterations < 1:
                raise ValueError(
                    "warm_start['iterations'] must be a positive int; "
                    f"got {iterations!r}"
                )
            if kind == "optimal" and "key" not in workload:
                raise ValueError(
                    "warm_start kind 'optimal' requires a molecule "
                    "workload ('key')"
                )
        object.__setattr__(self, "workload", workload)
        if self.device is not None:
            object.__setattr__(self, "device", dict(self.device))
        if self.warm_start is not None:
            object.__setattr__(self, "warm_start", dict(self.warm_start))
        if isinstance(self.backend, Mapping):
            object.__setattr__(self, "backend", dict(self.backend))
        object.__setattr__(self, "estimator", dict(self.estimator))
        object.__setattr__(self, "options", dict(self.options))
        self._validate_estimator_payload()
        self._validate_backend()

    def _validate_estimator_payload(self) -> None:
        """Eagerly validate estimator parameters against the registry.

        A misspelled or out-of-range knob in ``estimator`` fails at
        point construction (i.e. at :class:`SweepSpec` build) with the
        offending key and the kind's accepted fields, instead of deep
        in a constructor mid-sweep.  Inline payload kinds must resolve;
        a *scheme* the registry doesn't know is left for the point's
        task executor to interpret.
        """
        payload = dict(self.estimator)
        kind = payload.pop("kind", None)
        inline = kind is not None
        if kind is None:
            if not payload or not self.scheme:
                return
            kind = self.scheme
        from ..api import spec_class

        try:
            cls = spec_class(kind)
        except ValueError:
            if inline:
                raise
            return
        cls(**cls.check_params(payload))

    def _validate_backend(self) -> None:
        """Eagerly validate ``backend`` against the backend registry.

        Mirrors :meth:`_validate_estimator_payload`: an unknown kind or
        misspelled backend knob fails at point construction, not
        mid-sweep.  Tasks outside :data:`BACKEND_AWARE_TASKS` build
        their own backends internally, so a ``backend`` there would be
        silently ignored — rejected here instead of mislabeling
        results.
        """
        if self.backend is None:
            return
        if self.task not in BACKEND_AWARE_TASKS:
            raise ValueError(
                f"task {self.task!r} does not honor the backend field "
                f"(its executor constructs its own backends); backend "
                f"applies to {sorted(BACKEND_AWARE_TASKS)}"
            )
        from ..backends import resolve_backend_spec

        resolve_backend_spec(self.backend)

    def estimator_args(self) -> tuple[str, int, dict]:
        """``(kind, shots, extra spec params)`` for this point.

        The one place the estimator-payload conventions are decoded:
        an inline payload ``kind`` overrides the ``scheme`` field, and
        a payload-pinned ``shots`` wins over the point-level ``shots``.
        Estimator-building task executors (``tuning``, ``energy``,
        ``zne``) all go through this.
        """
        payload = dict(self.estimator)
        kind = payload.pop("kind", None) or self.scheme
        shots = payload.pop("shots", self.shots)
        return kind, shots, payload

    def to_dict(self) -> dict:
        """JSON form of the point.

        The default ``backend`` (``None``, i.e. ``dense``) is omitted
        entirely so points written before the field existed serialize —
        and therefore fingerprint — identically today.
        """
        data = asdict(self)
        if data["backend"] is None:
            del data["backend"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Point":
        """Rebuild a point from :meth:`to_dict` output (any schema age)."""
        return cls(**data)

    def fingerprint(self) -> str:
        """Content digest of this point (stable across processes)."""
        payload = {"v": POINT_SCHEMA_VERSION, "point": self.to_dict()}
        h = hashlib.blake2b(digest_size=16)
        h.update(canonical_json(payload).encode())
        return h.hexdigest()

    def label(self) -> str:
        """Short human-readable cell label for progress output."""
        if "key" in self.workload:
            workload = self.workload["key"]
        elif "named" in self.workload:
            workload = self.workload["named"]
        elif "model" in self.workload or "qaoa" in self.workload:
            kind = self.workload.get("model") or (
                f"qaoa-{self.workload['qaoa']}"
            )
            workload = f"{kind}-{self.workload.get('n_qubits', '?')}"
        else:
            workload = self.task
        parts = [workload]
        if self.task != "tuning":
            parts.append(self.task)
        if self.scheme:
            parts.append(self.scheme)
        if self.backend is not None:
            kind = (
                self.backend
                if isinstance(self.backend, str)
                else self.backend.get("kind", "?")
            )
            parts.append(f"backend={kind}")
        parts.append(f"seed={self.seed}")
        if self.device is not None:
            scale = self.device.get("scale", 1.0)
            parts.append(f"{self.device['preset']}@{scale:g}")
        return " ".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """A named parameter grid: base point template x sweep axes.

    ``axes`` maps :class:`Point` field names to candidate values; the
    grid is the cross product in axis-insertion order (first axis
    outermost).  ``cells`` optionally lists explicit per-cell field
    overrides for grids whose fields are *correlated* (e.g. a circuit
    budget derived from the workload, Fig. 15) — the grid is then every
    cell crossed with the axes, cells outermost.  ``report`` optionally
    carries aggregation hints for the CLI — ``{"rows": <path>,
    "cols": <path>, "value": <path>}`` with dotted record paths (see
    :func:`repro.sweeps.get_path`).
    """

    name: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, list] = field(default_factory=dict)
    cells: list | None = None
    report: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a name")
        valid = set(Point.__dataclass_fields__)
        cells = self.cells
        if cells is not None:
            if not isinstance(cells, (list, tuple)) or not cells:
                raise ValueError("cells must be a non-empty list of dicts")
            cells = [dict(cell) for cell in cells]
        cell_fields = set().union(*cells) if cells else set()
        unknown = (set(self.base) | set(self.axes) | cell_fields) - valid
        if unknown:
            raise ValueError(
                f"unknown point fields {sorted(unknown)}; "
                f"valid fields: {sorted(valid)}"
            )
        overlap = (set(self.base) | cell_fields) & set(self.axes)
        if overlap:
            raise ValueError(
                f"fields {sorted(overlap)} appear in both base/cells "
                f"and axes"
            )
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"axis {axis!r} needs a non-empty list")
        object.__setattr__(self, "base", dict(self.base))
        object.__setattr__(
            self, "axes", {k: list(v) for k, v in self.axes.items()}
        )
        object.__setattr__(self, "cells", cells)
        if self.report is not None:
            object.__setattr__(self, "report", dict(self.report))
        # Materialize eagerly so malformed cells fail at spec build
        # time, not halfway through a sweep.
        object.__setattr__(self, "_points", tuple(self._build_points()))

    def _build_points(self) -> Iterator[Point]:
        names = list(self.axes)
        for cell in self.cells if self.cells is not None else [{}]:
            for combo in itertools.product(
                *(self.axes[n] for n in names)
            ):
                yield Point(
                    **{**self.base, **cell, **dict(zip(names, combo))}
                )

    def points(self) -> tuple[Point, ...]:
        """Every grid cell, first axis outermost."""
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def to_dict(self) -> dict:
        """JSON form of the grid (what ``repro sweep`` files hold)."""
        data = {
            "name": self.name,
            "base": dict(self.base),
            "axes": {k: list(v) for k, v in self.axes.items()},
        }
        if self.cells is not None:
            data["cells"] = [dict(cell) for cell in self.cells]
        if self.report is not None:
            data["report"] = dict(self.report)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a grid from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            base=data.get("base", {}),
            axes=data.get("axes", {}),
            cells=data.get("cells"),
            report=data.get("report"),
        )

    @classmethod
    def from_json_file(cls, path) -> "SweepSpec":
        """Load a grid from a JSON spec file (the CLI's input)."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
