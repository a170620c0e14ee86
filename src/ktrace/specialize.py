"""Partitioned (specialized) models over response-index or context splits.

A partition scheme maps every training example to exactly one label:
`ResponseIndex` by the interval of the student's prior-response count t
(time specialization), `ByField` by a categorical event field (context
specialization: `question_id` or any `str` row of `core.OPTIONAL_FIELDS`,
whose manifest flag the dataset must declare).  Each scheme's `keys`
labels a whole extracted matrix at once.  A fallback model is trained
on everything, and one model per partition with examples on that
partition's examples only, shrunk toward the fallback (regularized
multi-task learning, Evgeniou and Pontil, KDD 2004), so a small
partition stays close to it.  The fallback covers empty partitions and
unseen keys.  All partition models share the fallback's encoder, which
a stored fit (`save_partitioned`, one `fit.json`) holds once.  The
scheme is the spec's alone: `predict_routed_batch` takes it beside the
fit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ktrace import features, regression
from ktrace.core import OPTIONAL_FIELDS, ConfigError
from ktrace.evaluate import DEFAULT_SPLITPOINTS, FoldPrediction, PlainSpec, interval_label
from ktrace.features import Encoder, Recipe
from ktrace.ingest import Dataset
from ktrace.regression import Model, TrainConfig, write_fit

MISSING_KEY = "__missing__"


@dataclass(frozen=True)
class ResponseIndex:
    """Partition by the interval [lo, hi) of splitpoints holding t."""

    splitpoints: tuple[float, ...] = DEFAULT_SPLITPOINTS
    kind = "response_index"
    label = "response-index"
    flag = None  # t is always known

    def __post_init__(self) -> None:
        pts = self.splitpoints
        if not all(isinstance(p, numbers.Real) and (p == math.inf or p >= 0 and float(p).is_integer())
                   for p in pts):
            raise ConfigError(f"splitpoints must be integers >= 0 or inf, got {list(pts)!r}")
        if len(pts) < 2 or pts[0] != 0 or pts[-1] != math.inf:
            raise ConfigError("splitpoints must start at 0 and end at inf")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ConfigError("splitpoints must be strictly increasing")

    def keys(self, ext: features.ExtractResult) -> tuple[list[str], np.ndarray]:
        """Every interval label, in order, and each row's interval index."""
        pts = self.splitpoints
        codes = np.searchsorted(np.asarray(pts, dtype=np.float64), ext.t, side="right") - 1
        return [interval_label(a, b) for a, b in zip(pts, pts[1:])], codes

    def to_json(self) -> dict:
        return {"kind": self.kind, "splitpoints": ["inf" if p == math.inf else p for p in self.splitpoints]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "ResponseIndex":
        return cls(tuple(math.inf if p == "inf" else p for p in obj.get("splitpoints", ())))


# fields usable for context specialization, with the manifest flag each needs
_FIELD_FLAGS: dict[str, str | None] = {
    "question_id": None,
    **{name: f.flag for name, f in OPTIONAL_FIELDS.items() if f.type is str},
}


@dataclass(frozen=True)
class ByField:
    """Partition by the value of a categorical event field."""

    field: str
    kind = "by_feature"

    def __post_init__(self) -> None:
        if self.field not in _FIELD_FLAGS:
            raise ConfigError(f"by_feature field must be one of {tuple(_FIELD_FLAGS)}, got {self.field!r}")

    @property
    def label(self) -> str:
        return f"by-feature:{self.field}"

    @property
    def flag(self) -> str | None:
        return _FIELD_FLAGS[self.field]

    def keys(self, ext: features.ExtractResult) -> tuple[list[str], np.ndarray]:
        """The field's values present, in sorted order, and each row's value index."""
        values = [MISSING_KEY if v is None else str(v) for v in map(attrgetter(self.field), ext.events)]
        labels, codes = np.unique(np.asarray(values, dtype=str), return_inverse=True)
        return labels.tolist(), codes

    def to_json(self) -> dict:
        return {"kind": self.kind, "feature": self.field}

    @classmethod
    def from_json(cls, obj: Mapping) -> "ByField":
        return cls(obj.get("feature"))


Scheme = ResponseIndex | ByField
_SCHEMES = {cls.kind: cls for cls in (ResponseIndex, ByField)}


def scheme_from_json(obj: Mapping) -> Scheme:
    """The constructors validate, so a malformed scheme fails with a ConfigError."""
    kind = obj.get("kind")
    if kind not in _SCHEMES:
        raise ConfigError(f"unknown partition kind {kind!r}")
    return _SCHEMES[kind].from_json(obj)


def _rows_by_partition(labels: Sequence[str], codes: np.ndarray) -> dict[str, np.ndarray]:
    """Row indices per label of a scheme's `keys`, in sorted label order;
    labels with no rows are left out."""
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(len(labels) + 1))
    groups = {labels[c]: order[lo:hi] for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < hi}
    return {key: groups[key] for key in sorted(groups)}


@dataclass
class PartitionedModel:
    """Per-partition models sharing one encoder, plus the fallback; the
    scheme that routes rows to them is its spec's."""

    encoder: Encoder
    models: dict[str, Model]
    fallback: Model
    single_class: tuple[str, ...] = ()
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "encoder": self.encoder.to_json(),
            "fallback": self.fallback.to_json(),
            "models": {key: model.to_json() for key, model in self.models.items()},
            "single_class": list(self.single_class),
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "PartitionedModel":
        encoder = Encoder.from_json(obj["encoder"])
        return cls(
            encoder=encoder,
            models={key: Model.from_json(model, encoder) for key, model in obj["models"].items()},
            fallback=Model.from_json(obj["fallback"], encoder),
            single_class=tuple(obj["single_class"]),
            warnings=list(obj["warnings"]),
        )


def fit_partitioned(
    student_ids: tuple[str, ...],
    scheme: Scheme,
    recipe: Recipe,
    dataset: Dataset,
    config: TrainConfig = TrainConfig(),
) -> PartitionedModel:
    """Train the fallback on all of the dataset's students `student_ids`,
    then one model per partition with examples.

    Each partition model starts at c and is penalized by l2/2 ||w - c||^2,
    bias included, where c is the fallback's weights with the student
    block zeroed: student weights never fire for the unseen students of
    student-level cross-validation, and an unpenalized bias of a tiny
    single-class partition would run to about +-ln(1/gtol).  Empty
    partitions warn and route to the fallback; single-class ones are
    flagged.  A scheme whose manifest flag the dataset does not declare
    is a ConfigError.
    """
    if scheme.flag is not None and not dataset.manifest.allows(scheme.flag):
        raise ConfigError(
            f"partition {scheme.label} needs the manifest flag {scheme.flag!r}, "
            f"which dataset {dataset.manifest.name!r} does not declare"
        )
    encoder = features.fit_encoders(dataset, student_ids, recipe)
    ext = features.build_matrix(dataset, student_ids, encoder)
    fallback = regression.fit(ext.X, ext.y, config, encoder=encoder)

    labels, codes = scheme.keys(ext)
    groups = _rows_by_partition(labels, codes)
    warnings = [f"partition {key}: no training examples, routed to fallback"
                for key in labels if key not in groups]

    center = fallback.weights.copy()
    for fam, off, size in encoder.blocks:
        if fam.kind == "student":
            center[off : off + size] = 0.0
    models: dict[str, Model] = {}
    single_class: list[str] = []
    for key, rows in groups.items():
        yk = ext.y[rows]
        models[key] = regression.fit(ext.X.take(rows), yk, config, reg_mask=np.ones(encoder.dim), init=center,
                                     center=center)
        if yk.min() == yk.max():
            single_class.append(key)
    return PartitionedModel(
        encoder=encoder,
        models=models,
        fallback=fallback,
        single_class=tuple(single_class),
        warnings=warnings,
    )


def predict_routed_batch(pm: PartitionedModel, ext: features.ExtractResult, scheme: Scheme) -> np.ndarray:
    """Probabilities for an extracted matrix, in row order, each row's
    from the model of its partition under `scheme` (the one `pm` was fit with)."""
    out = np.zeros(len(ext.y), dtype=np.float64)
    for key, rows in _rows_by_partition(*scheme.keys(ext)).items():
        out[rows] = regression.predict_proba_batch(pm.models.get(key, pm.fallback), ext.X.take(rows))
    return out


@dataclass(frozen=True)
class PartitionedSpec(PlainSpec):
    """Cross-validation spec for a partitioned model family; its fit is a
    `PartitionedModel`."""

    scheme: Scheme = ResponseIndex()
    fit_kind = PartitionedModel

    @property
    def label(self) -> str:
        return f"{super().label}@{self.scheme.label}"

    def fit_on(self, student_ids: tuple[str, ...], dataset: Dataset, config: TrainConfig) -> PartitionedModel:
        return fit_partitioned(student_ids, self.scheme, self.resolve_recipe(dataset), dataset, config)

    def predict_on(self, fitted: PartitionedModel, student_ids: tuple[str, ...], dataset: Dataset) -> FoldPrediction:
        ext = features.build_matrix(dataset, student_ids, fitted.encoder)
        return FoldPrediction(probs=predict_routed_batch(fitted, ext, self.scheme), labels=ext.y, t=ext.t)

    def to_json(self) -> dict:
        return {**super().to_json(), "kind": "partitioned", "scheme": self.scheme.to_json()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PartitionedSpec":
        plain = PlainSpec.from_json(obj)
        return cls(plain.recipe, plain.extras, scheme_from_json(obj["scheme"]))

    def save(self, fitted: PartitionedModel, out_dir: str | Path) -> None:
        save_partitioned(fitted, out_dir, self)


def save_partitioned(pm: PartitionedModel, out_dir: str | Path, spec: PartitionedSpec) -> Path:
    """Write a partitioned fit's document: the shared encoder once, the
    fallback and every partition model."""
    return write_fit(pm, out_dir, spec)
