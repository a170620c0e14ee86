"""Stacked models: a meta logistic regression over base-model probabilities.

The meta model must never see predictions a base made on its own
training data, so fitting splits the training students 90/10 by a
seeded shuffle: bases train on the 90 percent, the meta model trains on
their predictions over the held-out 10 percent (plus a bias input), and
the bases are then refit on the full training set for deployment.
Subset selection evaluates every non-empty candidate subset on the
first fold only, keeping later folds untouched by the choice.  It fits
each candidate twice (on the 90 percent and on all of the fold-1
training students) and scores every subset from those cached
predictions, so n candidates cost 2n base fits plus one small meta fit
per subset of size >= 2 (2^n - n - 1 of them).  Every base fit and
base prediction goes through the dataset's fit memo
(`evaluate.fit_once`, `predict_once`): cross-validation fold 0 trains on
the same students with the same split, so a stacked or single chosen
model refits no base that selection fitted.  A stored stack
(`save_combined`) is one `fit.json` that nests each base's fit; the
base specs, split seed and meta loss are its spec's and its meta
model's, stored there once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from ktrace import regression, specialize
from ktrace.core import ConfigError, FoldAssignment
from ktrace.evaluate import FoldPrediction, PlainSpec, auc, fit_once, predict_once
from ktrace.ingest import Dataset
from ktrace.regression import Model, TrainConfig, read_fit, write_fit


class CombinationError(RuntimeError):
    """A base model failed while fitting a combination."""


def _split_meta_students(student_ids: tuple[str, ...], seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded 90/10 student split; the held-out 10% feeds the meta model."""
    ids = sorted(student_ids)
    if len(ids) < 2:
        raise ConfigError("combining needs at least 2 training students")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    n_meta = max(1, len(ids) // 10)
    meta = tuple(sorted(ids[i] for i in perm[:n_meta]))
    base = tuple(sorted(ids[i] for i in perm[n_meta:]))
    return base, meta


def _meta_inputs(columns: Sequence[np.ndarray]) -> sp.csr_matrix:
    """A bias column and the base columns, as the CSR matrix `sp.csr_matrix`
    makes of them (exact zeros dropped), built from its arrays directly:
    the dense conversion cost more than a small meta fit."""
    dense = np.column_stack([np.ones_like(columns[0]), *columns])
    n, k = dense.shape
    keep = (dense != 0).ravel()
    indptr = np.empty(n + 1, dtype=np.int32)
    indptr[0] = 0
    indptr[1:] = np.cumsum(keep, dtype=np.int32)[k - 1 :: k]
    indices = np.tile(np.arange(k, dtype=np.int32), n)[keep]
    return sp.csr_matrix((dense.ravel()[keep], indices, indptr), shape=(n, k))


def _base_predictions(
    specs: Sequence,
    fit_ids: tuple[str, ...],
    predict_ids: tuple[str, ...],
    dataset: Dataset,
    config: TrainConfig,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Fit each base on the students fit_ids; its probabilities on predict_ids.

    Both go through the dataset's memo.  Returns one probability column
    per base and the shared labels.
    """
    columns: list[np.ndarray] = []
    labels: np.ndarray | None = None
    for spec in specs:
        try:
            pred = predict_once(spec, fit_ids, predict_ids, dataset, config)
        except Exception as exc:
            raise CombinationError(f"base {spec.label!r} failed to train: {exc}") from exc
        columns.append(pred.probs)
        if labels is None:
            labels = pred.labels
        elif not np.array_equal(labels, pred.labels):
            raise CombinationError("base predictions disagree on example order")
    return columns, labels


def _fit_meta(columns: Sequence[np.ndarray], labels: np.ndarray, config: TrainConfig) -> Model:
    """The meta model over base columns; only its bias goes unregularized."""
    return regression.fit(
        _meta_inputs(columns),
        labels,
        config,
        reg_mask=np.array([0.0] + [1.0] * len(columns)),
    )


@dataclass
class CombinedModel:
    """Fitted base predictors plus the meta model over their probabilities;
    the base specs they were fit by are their `CombinedSpec`'s."""

    fitted_bases: list
    meta: Model
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "bases": [fitted.to_json() for fitted in self.fitted_bases],
            "meta": self.meta.to_json(),
            "info": self.info,
        }

    @classmethod
    def from_json(cls, obj: Mapping, bases: Sequence) -> "CombinedModel":
        """The fit `to_json` wrote, its bases' fits read by their specs `bases`."""
        return cls(
            fitted_bases=[spec.fit_kind.from_json(fit) for spec, fit in zip(bases, obj["bases"], strict=True)],
            meta=Model.from_json(obj["meta"]),
            info=dict(obj["info"]),
        )


def fit_combined(
    student_ids: tuple[str, ...],
    specs: Sequence,
    dataset: Dataset,
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> CombinedModel:
    """Fit bases and the meta model on the dataset's students
    `student_ids`; bases are refit on all of them."""
    if len(specs) < 2:
        raise ConfigError("a combination needs at least 2 base specs")
    base_ids, meta_ids = _split_meta_students(student_ids, seed)
    columns, labels = _base_predictions(specs, base_ids, meta_ids, dataset, config)
    meta = _fit_meta(columns, labels, config)

    fitted_bases = []
    for spec in specs:
        try:
            fitted_bases.append(fit_once(spec, student_ids, dataset, config))
        except Exception as exc:
            raise CombinationError(f"base {spec.label!r} failed to train: {exc}") from exc
    return CombinedModel(
        fitted_bases=fitted_bases,
        meta=meta,
        info={"n_base_students": len(base_ids), "n_meta_students": len(meta_ids)},
    )


def predict_combined(cm: CombinedModel, specs: Sequence, student_ids: tuple[str, ...],
                     dataset: Dataset) -> FoldPrediction:
    """Meta prediction over the base probability columns, each base's fit
    predicted by its spec in `specs` (those `cm` was fit with)."""
    columns = []
    labels = t = None
    for spec, fitted in zip(specs, cm.fitted_bases):
        pred = spec.predict_on(fitted, student_ids, dataset)
        columns.append(pred.probs)
        if labels is None:
            labels, t = pred.labels, pred.t
    probs = regression.predict_proba_batch(cm.meta, _meta_inputs(columns))
    return FoldPrediction(probs=probs, labels=labels, t=t)


@dataclass(frozen=True)
class CombinedSpec:
    """Cross-validation spec for a stacked model; its fit is a `CombinedModel`."""

    bases: tuple
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.bases) < 2:
            raise ConfigError("a combination needs at least 2 base specs")

    @property
    def label(self) -> str:
        return "combined(" + "+".join(s.label for s in self.bases) + ")"

    def fit_on(self, student_ids: tuple[str, ...], dataset: Dataset, config: TrainConfig) -> CombinedModel:
        return fit_combined(student_ids, self.bases, dataset, config, seed=self.seed)

    def predict_on(self, fitted: CombinedModel, student_ids: tuple[str, ...], dataset: Dataset) -> FoldPrediction:
        return predict_combined(fitted, self.bases, student_ids, dataset)

    def to_json(self) -> dict:
        return {"kind": "combined", "bases": [s.to_json() for s in self.bases], "seed": self.seed}

    @classmethod
    def from_json(cls, obj: Mapping) -> "CombinedSpec":
        return cls(tuple(_base_spec_from_json(b) for b in obj["bases"]), int(obj["seed"]))

    def save(self, fitted: CombinedModel, out_dir: str | Path) -> None:
        save_combined(fitted, out_dir, self)

    def load(self, out_dir: str | Path) -> CombinedModel:
        return read_fit(self, out_dir, lambda fit: CombinedModel.from_json(fit, self.bases))


@dataclass
class SelectionResult:
    chosen: tuple[int, ...]
    best_auc: float
    table: list[dict]

    def chosen_specs(self, candidates: Sequence) -> tuple:
        return tuple(candidates[i] for i in self.chosen)


def select_bases(
    candidates: Sequence,
    dataset: Dataset,
    folds: FoldAssignment,
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> SelectionResult:
    """Exhaustively score every non-empty candidate subset on fold 1.

    Each candidate is fitted twice: on all fold-1 training students
    (predicting the fold-1 test students) and, when there are at least
    two candidates, on the base 90 percent of fit_combined's meta split
    (predicting the meta students).  Every subset is then scored from
    those cached predictions: a single base by its own test
    probabilities, a larger subset by the meta model fit_combined would
    fit over the same columns.  So selection costs two base fits per
    candidate plus one small meta fit per subset of size >= 2
    (2^n - n - 1 of them), with the scores of fitting every subset from
    scratch.

    Subsets are enumerated smallest-first in index order and a new
    winner must be strictly better, so ties resolve toward fewer bases.
    Returns candidate indices, the winning fold-1 AUC and the full table.
    """
    if not candidates:
        raise ConfigError("no candidate base specs given")
    if len(candidates) > 12:
        raise ConfigError(f"exhaustive selection caps at 12 candidates, got {len(candidates)}")
    train = tuple(folds.train_students(0))
    test = tuple(folds.students_in(0))

    if len(candidates) >= 2:
        base_ids, meta_ids = _split_meta_students(train, seed)
        meta_columns, meta_labels = _base_predictions(candidates, base_ids, meta_ids, dataset, config)
    test_columns, test_labels = _base_predictions(candidates, train, test, dataset, config)

    table: list[dict] = []
    best: tuple[int, ...] | None = None
    best_auc = -1.0
    for size in range(1, len(candidates) + 1):
        for subset in itertools.combinations(range(len(candidates)), size):
            if size == 1:
                probs = test_columns[subset[0]]
            else:
                meta = _fit_meta([meta_columns[i] for i in subset], meta_labels, config)
                probs = regression.predict_proba_batch(
                    meta, _meta_inputs([test_columns[i] for i in subset])
                )
            score = auc(probs, test_labels)
            table.append(
                {"subset": list(subset), "labels": [candidates[i].label for i in subset], "auc": score}
            )
            if score > best_auc:
                best = subset
                best_auc = score
    return SelectionResult(chosen=best, best_auc=best_auc, table=table)


# ---------------------------------------------------------------------------
# Serialization

# the spec classes a stacked model's bases may have, by their JSON "kind"
_BASE_SPECS = {"plain": PlainSpec, "partitioned": specialize.PartitionedSpec}


def _base_spec_from_json(obj: Mapping):
    kind = obj.get("kind")
    if kind not in _BASE_SPECS:
        raise ConfigError(f"unknown base spec kind {kind!r}; expected one of {', '.join(_BASE_SPECS)}")
    return _BASE_SPECS[kind].from_json(obj)


def save_combined(cm: CombinedModel, out_dir: str | Path, spec: CombinedSpec) -> Path:
    """Write a stacked fit's document: the meta model and each base's fit."""
    return write_fit(cm, out_dir, spec)
