"""Partitioned (specialized) models over response-index or context splits.

A partition scheme maps every training example to exactly one key:
either the interval of the student's prior-response count t (time
specialization) or a categorical event field (context specialization).
One model is trained per sufficiently large partition on that
partition's examples only; a fallback model trained on everything
covers merged, empty and unseen partitions.  All partition models share
the fallback's encoder, so with the single partition [0, inf) routing
reproduces the plain model bit for bit.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ktrace import features, regression
from ktrace.core import ConfigError, InteractionEvent, canonical_json
from ktrace.evaluate import (
    DEFAULT_SPLITPOINTS,
    FoldPrediction,
    PlainSpec,
    check_saved_spec,
    extract,
    interval_label,
    save_spec,
)
from ktrace.features import Encoder, Recipe
from ktrace.ingest import Dataset
from ktrace.regression import Model, TrainConfig

MISSING_KEY = "__missing__"

# event fields usable for context specialization
BY_FEATURE_FIELDS = (
    "question_id",
    "study_module",
    "teacher_group",
    "school",
    "course",
    "topic",
    "bundle",
    "part_area",
    "platform",
)


@dataclass(frozen=True)
class PartitionScheme:
    """Either ResponseIndex(splitpoints) or ByFeature(field)."""

    kind: str
    splitpoints: tuple[float, ...] = DEFAULT_SPLITPOINTS
    feature: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "response_index":
            pts = self.splitpoints
            if len(pts) < 2 or pts[0] != 0 or not math.isinf(pts[-1]):
                raise ConfigError("splitpoints must start at 0 and end at inf")
            if any(a >= b for a, b in zip(pts, pts[1:])):
                raise ConfigError("splitpoints must be strictly increasing")
        elif self.kind == "by_feature":
            if self.feature not in BY_FEATURE_FIELDS:
                raise ConfigError(
                    f"by_feature field must be one of {BY_FEATURE_FIELDS}, got {self.feature!r}"
                )
        else:
            raise ConfigError(f"unknown partition kind {self.kind!r}")

    @classmethod
    def response_index(cls, splitpoints: Sequence[float] = DEFAULT_SPLITPOINTS) -> "PartitionScheme":
        return cls(kind="response_index", splitpoints=tuple(splitpoints))

    @classmethod
    def by_feature(cls, feature: str) -> "PartitionScheme":
        return cls(kind="by_feature", feature=feature)

    @property
    def label(self) -> str:
        if self.kind == "response_index":
            return "response-index"
        return f"by-feature:{self.feature}"

    def interval_keys(self) -> list[str]:
        """All interval labels, in order (response_index only)."""
        if self.kind != "response_index":
            raise ConfigError("interval_keys only applies to response_index schemes")
        return [interval_label(a, b) for a, b in zip(self.splitpoints, self.splitpoints[1:])]

    def to_json(self) -> dict:
        if self.kind == "response_index":
            return {
                "kind": self.kind,
                "splitpoints": ["inf" if math.isinf(p) else p for p in self.splitpoints],
            }
        return {"kind": self.kind, "feature": self.feature}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PartitionScheme":
        """The constructor validates, so a malformed scheme fails with a ConfigError."""
        if obj.get("kind") == "response_index":
            pts = tuple(math.inf if p == "inf" else float(p) for p in obj.get("splitpoints", ()))
            return cls.response_index(pts)
        return cls(kind=obj.get("kind"), feature=obj.get("feature"))


def assign_partition(scheme: PartitionScheme, event: InteractionEvent, t: int) -> str:
    """Partition key for one example: t is the prior-response count."""
    if scheme.kind == "response_index":
        pts = scheme.splitpoints
        i = bisect_right(pts, t) - 1
        return interval_label(pts[i], pts[i + 1])
    value = getattr(event, scheme.feature)
    return MISSING_KEY if value is None else str(value)


def _rows_by_partition(scheme: PartitionScheme, ext: features.ExtractResult) -> dict[str, np.ndarray]:
    """Row indices of an extracted matrix grouped by partition key, in sorted key order."""
    groups: dict[str, list[int]] = {}
    for i, (event, t) in enumerate(zip(ext.events, ext.t)):
        groups.setdefault(assign_partition(scheme, event, int(t)), []).append(i)
    return {key: np.asarray(groups[key], dtype=np.int64) for key in sorted(groups)}


@dataclass
class PartitionedModel:
    """Per-partition models sharing one encoder, plus the fallback."""

    scheme: PartitionScheme
    encoder: Encoder
    models: dict[str, Model]
    fallback: Model
    min_partition: int
    merged: tuple[str, ...] = ()
    single_class: tuple[str, ...] = ()
    warnings: list[str] = field(default_factory=list)

    def model_for(self, key: str) -> Model:
        return self.models.get(key, self.fallback)


def fit_partitioned(
    train_students: Mapping[str, list],
    scheme: PartitionScheme,
    recipe: Recipe,
    dataset: Dataset,
    config: TrainConfig = TrainConfig(),
    *,
    min_partition: int,
) -> PartitionedModel:
    """Train the fallback on everything, one model per viable partition.

    Partitions with fewer than min_partition examples are merged into
    the fallback; empty response-index intervals produce a warning.
    Single-class partitions are trained anyway but flagged.
    """
    encoder = features.fit_encoders(train_students, recipe, dataset.manifest, kc_graph=dataset.kc_graph)
    ext = extract(train_students, encoder, dataset)
    fallback = regression.fit(ext.X, ext.y, config, encoder=encoder, recipe=recipe)

    groups = _rows_by_partition(scheme, ext)
    assert sum(rows.size for rows in groups.values()) == len(ext.events)

    warnings: list[str] = []
    if scheme.kind == "response_index":
        for key in scheme.interval_keys():
            if key not in groups:
                warnings.append(f"partition {key}: no training examples, routed to fallback")

    models: dict[str, Model] = {}
    merged: list[str] = []
    single_class: list[str] = []
    for key, rows in groups.items():
        if rows.size < min_partition:
            merged.append(key)
            warnings.append(
                f"partition {key}: {rows.size} examples < floor {min_partition}, merged into fallback"
            )
            continue
        yk = ext.y[rows]
        models[key] = regression.fit(ext.X[rows], yk, config, encoder=encoder, recipe=recipe)
        if yk.min() == yk.max():
            single_class.append(key)
    return PartitionedModel(
        scheme=scheme,
        encoder=encoder,
        models=models,
        fallback=fallback,
        min_partition=min_partition,
        merged=tuple(merged),
        single_class=tuple(single_class),
        warnings=warnings,
    )


def predict_routed_batch(pm: PartitionedModel, ext: features.ExtractResult) -> np.ndarray:
    """Routed probabilities for an extracted matrix, in row order."""
    out = np.zeros(len(ext.events), dtype=np.float64)
    for key, rows in _rows_by_partition(pm.scheme, ext).items():
        out[rows] = regression.predict_proba_batch(pm.model_for(key), ext.X[rows])
    return out


@dataclass(frozen=True)
class PartitionedSpec(PlainSpec):
    """Cross-validation spec for a partitioned model family.  Stored as
    `partitioned.json`, `encoder.json`, `fallback.json` and `part-*.json`."""

    scheme: PartitionScheme = PartitionScheme.response_index()
    min_partition: int = 50

    @property
    def label(self) -> str:
        return f"{super().label}@{self.scheme.label}"

    def fit_on(self, students: Mapping[str, list], dataset: Dataset, config: TrainConfig) -> PartitionedModel:
        return fit_partitioned(
            students, self.scheme, self.resolve_recipe(dataset), dataset, config,
            min_partition=self.min_partition,
        )

    def predict_on(self, fitted: PartitionedModel, students: Mapping[str, list], dataset: Dataset) -> FoldPrediction:
        ext = extract(students, fitted.encoder, dataset)
        return FoldPrediction(probs=predict_routed_batch(fitted, ext), labels=ext.y, t=ext.t)

    def to_json(self) -> dict:
        return {**super().to_json(), "kind": "partitioned", "scheme": self.scheme.to_json(),
                "min_partition": self.min_partition}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PartitionedSpec":
        plain = PlainSpec.from_json(obj)
        return cls(plain.recipe, plain.extras, PartitionScheme.from_json(obj["scheme"]),
                   int(obj["min_partition"]))

    def save(self, fitted: PartitionedModel, out_dir: str | Path) -> None:
        save_partitioned(fitted, out_dir)
        save_spec(self, out_dir)

    def load(self, out_dir: str | Path) -> PartitionedModel:
        check_saved_spec(self, out_dir)
        return load_partitioned(out_dir)


# ---------------------------------------------------------------------------
# Serialization

def _safe_filename(key: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_.-]", "_", key) or "partition"
    name = f"part-{base}.json"
    n = 1
    while name in taken:
        name = f"part-{base}.{n}.json"
        n += 1
    taken.add(name)
    return name


def save_partitioned(pm: PartitionedModel, out_dir: str | Path) -> Path:
    """Write encoder, fallback and per-partition model files plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "encoder.json").write_text(canonical_json(pm.encoder.to_json()), encoding="utf-8")
    regression.save_model(pm.fallback, out / "fallback.json")
    taken: set[str] = set()
    files: dict[str, str] = {}
    for key in sorted(pm.models):
        name = _safe_filename(key, taken)
        regression.save_model(pm.models[key], out / name)
        files[key] = name
    manifest = {
        "kind": "partitioned_model",
        "scheme": pm.scheme.to_json(),
        "min_partition": pm.min_partition,
        "merged": list(pm.merged),
        "single_class": list(pm.single_class),
        "warnings": list(pm.warnings),
        "encoder": "encoder.json",
        "encoder_digest": pm.encoder.digest(),
        "fallback": "fallback.json",
        "partitions": files,
    }
    path = out / "partitioned.json"
    path.write_text(canonical_json(manifest), encoding="utf-8")
    return path


def load_partitioned(out_dir: str | Path) -> PartitionedModel:
    out = Path(out_dir)
    manifest = json.loads((out / "partitioned.json").read_text(encoding="utf-8"))
    if manifest.get("kind") != "partitioned_model":
        raise ConfigError(f"{out} does not hold a partitioned model")
    encoder = Encoder.from_json(json.loads((out / manifest["encoder"]).read_text(encoding="utf-8")))
    if encoder.digest() != manifest["encoder_digest"]:
        raise ConfigError("encoder file does not match the recorded digest")
    fallback = regression.load_model(out / manifest["fallback"], encoder=encoder)
    models = {
        key: regression.load_model(out / name, encoder=encoder)
        for key, name in manifest["partitions"].items()
    }
    return PartitionedModel(
        scheme=PartitionScheme.from_json(manifest["scheme"]),
        encoder=encoder,
        models=models,
        fallback=fallback,
        min_partition=int(manifest["min_partition"]),
        merged=tuple(manifest["merged"]),
        single_class=tuple(manifest["single_class"]),
        warnings=list(manifest["warnings"]),
    )
