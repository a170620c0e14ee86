"""Metrics, student-level cross-validation and dataset statistics.

Accuracy uses a fixed threshold with the boundary counting as a
positive prediction.  AUC is the exact rank statistic: ties between a
positive and a negative score contribute half credit, so the value
equals (#concordant + 0.5 * #tied) / (#pos * #neg) without ever
enumerating pairs.  Cross-validation splits by student, never by
response, so test students are completely unseen during encoder
fitting and training.  Each spec stores a fold's fit as one document,
`fit.json` (`regression.write_fit`), and loads it back with `load`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ktrace import features, regression
from ktrace.core import ConfigError, FoldAssignment, canonical_json
from ktrace.features import FeatureFamily, Recipe
from ktrace.ingest import Dataset, split_folds
from ktrace.recipes import resolve
from ktrace.regression import PlainFit, TrainConfig, read_fit

# Response-index intervals used both for cold-start AUC breakdowns and
# as the default time-specialization splitpoints.
DEFAULT_SPLITPOINTS: tuple[float, ...] = (0, 10, 50, 100, 250, 500, math.inf)


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (e.g. single-class AUC)."""


def _check_pairs(probs, labels) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.ndim != 1 or p.shape != y.shape:
        raise ConfigError(f"probs and labels must be equal-length 1-d, got {p.shape} vs {y.shape}")
    if p.size == 0:
        raise UndefinedMetricError("empty input")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ConfigError("labels must be binary")
    return p, y


def accuracy(probs, labels, threshold: float = 0.5) -> float:
    """Fraction of responses where (prob >= threshold) matches the label."""
    p, y = _check_pairs(probs, labels)
    return float(np.mean((p >= threshold) == (y == 1.0)))


def auc(probs, labels) -> float:
    """Exact rank-based AUC with half credit for tied scores."""
    p, y = _check_pairs(probs, labels)
    n_pos = int(np.sum(y))
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative label")
    ranks = _average_ranks(p)
    u = float(np.sum(ranks[y == 1.0])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _average_ranks(p: np.ndarray) -> np.ndarray:
    """Ranks 1..n of p, each tie run sharing its mean rank: the values of
    `scipy.stats.rankdata(p, method="average")`, all NaN when p holds a NaN,
    without its per-call dispatch."""
    order = np.argsort(p, kind="stable")
    s = p[order]
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))  # each tie run's first position
    ends = np.append(first[1:], p.size)
    ranks = np.empty(p.size)
    ranks[order] = np.repeat(0.5 * (first + ends + 1), ends - first)  # exact: halves of integers
    if np.isnan(s[-1]):  # argsort puts NaN last; ranks relative to a NaN are undefined
        ranks.fill(np.nan)
    return ranks


def roc_curve(probs, labels) -> list[tuple[float, float]]:
    """(fpr, tpr) points: one per distinct score, plus the (0, 0) endpoint.

    Thresholds sweep the distinct scores in descending order with the
    >= decision rule, so the last point is always (1, 1) and the
    trapezoidal area under the points equals auc() exactly.
    """
    p, y = _check_pairs(probs, labels)
    n_pos = int(np.sum(y))
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs at least one positive and one negative label")
    order = np.argsort(-p, kind="stable")
    p_sorted = p[order]
    # the last position of each run of equal scores: one threshold each
    last = np.flatnonzero(np.append(p_sorted[1:] != p_sorted[:-1], True))
    tp = np.cumsum(y[order])[last]
    fp = last + 1 - tp
    return [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]


# ---------------------------------------------------------------------------
# Model specs and cross-validation

@dataclass(frozen=True)
class FoldPrediction:
    """Predictions for one set of students, in extraction order."""

    probs: np.ndarray
    labels: np.ndarray
    t: np.ndarray


@dataclass(frozen=True)
class PlainSpec:
    """A single logistic-regression model over a named recipe.

    Every spec follows one protocol: `label`, `fit_on` and `predict_on`
    for cross-validation, each given a sorted tuple of the dataset's
    student ids; `to_json`/`from_json` for the spec itself; and
    `save(fitted, out_dir)`/`load(out_dir)` for what `fit_on` returned.
    `save` writes the one document `out_dir/fit.json`, the spec's JSON and
    the fit's; `load` refuses a directory without it or holding another
    spec's fit.  The fit holds what training learned, the spec what was
    asked; neither repeats the other.  A plain fit is a `regression.PlainFit`.
    """

    recipe: str = "best-lr"
    extras: tuple[FeatureFamily, ...] = ()
    fit_kind = PlainFit  # what fit_on returns; its from_json reads a stored fit

    @property
    def label(self) -> str:
        extra = "+" + "+".join(f.name for f in self.extras) if self.extras else ""
        return f"{self.recipe}{extra}"

    def resolve_recipe(self, dataset: Dataset) -> Recipe:
        return resolve(self.recipe, dataset.manifest, extras=self.extras or None).recipe

    def fit_on(self, student_ids: tuple[str, ...], dataset: Dataset, config: TrainConfig):
        recipe = self.resolve_recipe(dataset)
        encoder = features.fit_encoders(dataset, student_ids, recipe)
        ext = features.build_matrix(dataset, student_ids, encoder)
        return PlainFit(encoder, regression.fit(ext.X, ext.y, config, encoder=encoder))

    def predict_on(self, fitted, student_ids: tuple[str, ...], dataset: Dataset) -> FoldPrediction:
        encoder, model = fitted
        ext = features.build_matrix(dataset, student_ids, encoder)
        return FoldPrediction(
            probs=regression.predict_proba_batch(model, ext.X), labels=ext.y, t=ext.t
        )

    def to_json(self) -> dict:
        return {"kind": "plain", "recipe": self.recipe, "extras": [f.name for f in self.extras]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "PlainSpec":
        return cls(obj["recipe"], tuple(FeatureFamily.parse(n) for n in obj.get("extras", [])))

    def save(self, fitted: PlainFit, out_dir: str | Path) -> None:
        regression.save_model(fitted, out_dir, self)

    def load(self, out_dir: str | Path):
        return read_fit(self, out_dir, self.fit_kind.from_json)


@dataclass
class MetricsReport:
    """Per-fold scores with means, population variances and cold-start buckets."""

    spec: str
    dataset: str
    k: int
    seed: int
    config: dict
    per_fold: list[dict]
    acc_mean: float
    auc_mean: float
    acc_var: float
    auc_var: float
    buckets: list[dict]
    roc: list[tuple[float, float]] | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        obj = {
            "spec": self.spec,
            "dataset": self.dataset,
            "k": self.k,
            "seed": self.seed,
            "config": self.config,
            "per_fold": self.per_fold,
            "acc_mean": self.acc_mean,
            "auc_mean": self.auc_mean,
            "acc_var": self.acc_var,
            "auc_var": self.auc_var,
            "buckets": self.buckets,
            "extra": {k: self.extra[k] for k in sorted(self.extra)},
        }
        if self.roc is not None:
            obj["roc"] = [[x, y] for x, y in self.roc]
        return obj

    def to_canonical_json(self) -> str:
        return canonical_json(self.to_json())


def interval_label(lo: float, hi: float) -> str:
    """Name of the response-index interval [lo, hi), e.g. "10-50" or "500-inf"."""
    return f"{int(lo)}-{'inf' if math.isinf(hi) else int(hi)}"


def bucket_metrics(
    probs: np.ndarray,
    labels: np.ndarray,
    t: np.ndarray,
    splitpoints: Sequence[float] = DEFAULT_SPLITPOINTS,
) -> list[dict]:
    """Cold-start breakdown: ACC/AUC per prior-response-count interval.

    Intervals with a single label class report a null AUC instead of
    failing; empty intervals report null ACC as well.
    """
    out = []
    for lo, hi in zip(splitpoints, splitpoints[1:]):
        mask = (t >= lo) & (t < hi)
        n = int(np.sum(mask))
        pos = int(np.sum(labels[mask]))
        entry = {
            "bucket": interval_label(lo, hi),
            "n": n,
            "positives": pos,
            "acc": accuracy(probs[mask], labels[mask]) if n else None,
            "auc": auc(probs[mask], labels[mask]) if 0 < pos < n else None,
        }
        out.append(entry)
    return out


def fit_once(spec, student_ids: tuple[str, ...], dataset: Dataset, config: TrainConfig):
    """`spec.fit_on(student_ids, dataset, config)`, made once per dataset.

    A fit is a pure function of the spec, the training students and the
    config, so the dataset's memo keys it by them: the spec object (specs
    are frozen dataclasses, equal by value), the sorted student ids and
    the config.  Base selection and cross-validation fold 0 fit the same
    bases on the same students; the second asks the memo.
    """
    key = (spec, tuple(sorted(student_ids)), config)
    return dataset.fits.get(key, lambda: spec.fit_on(student_ids, dataset, config))


def predict_once(
    spec, fit_ids: tuple[str, ...], student_ids: tuple[str, ...], dataset: Dataset, config: TrainConfig
) -> FoldPrediction:
    """`spec.predict_on` of `fit_once`'s fit on `student_ids`, made once per
    dataset; the memoized arrays are read-only."""

    def predict() -> FoldPrediction:
        pred = spec.predict_on(fit_once(spec, fit_ids, dataset, config), student_ids, dataset)
        for values in (pred.probs, pred.labels, pred.t):
            values.flags.writeable = False
        return pred

    key = (spec, tuple(sorted(fit_ids)), config, tuple(sorted(student_ids)))
    return dataset.fits.get(key, predict)


def run_fold(
    spec,
    dataset: Dataset,
    folds: FoldAssignment,
    fold: int,
    config: TrainConfig,
    on_fitted=None,
) -> FoldPrediction:
    """Fit on the fold's training students, predict its test students,
    each through the dataset's memo.

    on_fitted(fold, fitted), when given, sees the trained model before
    prediction, memoized or not; callers use it to persist per-fold
    artifacts.
    """
    train = tuple(folds.train_students(fold))
    fitted = fit_once(spec, train, dataset, config)
    if on_fitted is not None:
        on_fitted(fold, fitted)
    return predict_once(spec, train, tuple(folds.students_in(fold)), dataset, config)


def cross_validate(
    dataset: Dataset,
    spec,
    k: int = 5,
    seed: int = 0,
    folds: FoldAssignment | None = None,
    config: TrainConfig = TrainConfig(),
    jobs: int = 1,
    splitpoints: Sequence[float] = DEFAULT_SPLITPOINTS,
    include_roc: bool = False,
    on_fitted=None,
) -> MetricsReport:
    """Student-level k-fold cross-validation of one model spec.

    Per-fold work is independent; with jobs > 1 folds run in a thread
    pool and results are reduced in fold order, so the report is
    byte-identical for any worker count.  on_fitted(fold, fitted) must
    be thread-safe across distinct fold indices.
    """
    if folds is None:
        folds = split_folds(dataset, k=k, seed=seed)
    else:
        k, seed = folds.k, folds.seed

    def one(i: int) -> FoldPrediction:
        return run_fold(spec, dataset, folds, i, config, on_fitted=on_fitted)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            preds = list(pool.map(one, range(k)))
    else:
        preds = [one(i) for i in range(k)]

    per_fold = []
    accs = np.zeros(k)
    aucs = np.zeros(k)
    for i, pr in enumerate(preds):
        accs[i] = accuracy(pr.probs, pr.labels)
        aucs[i] = auc(pr.probs, pr.labels)
        per_fold.append(
            {
                "fold": i,
                "n": int(pr.labels.size),
                "positives": int(np.sum(pr.labels)),
                "acc": float(accs[i]),
                "auc": float(aucs[i]),
            }
        )
    pooled_p = np.concatenate([pr.probs for pr in preds])
    pooled_y = np.concatenate([pr.labels for pr in preds])
    pooled_t = np.concatenate([pr.t for pr in preds])
    return MetricsReport(
        spec=spec.label,
        dataset=dataset.manifest.name,
        k=k,
        seed=seed,
        config=config.to_json(),
        per_fold=per_fold,
        acc_mean=float(np.mean(accs)),
        auc_mean=float(np.mean(aucs)),
        acc_var=float(np.var(accs)),
        auc_var=float(np.var(aucs)),
        buckets=bucket_metrics(pooled_p, pooled_y, pooled_t, splitpoints),
        roc=roc_curve(pooled_p, pooled_y) if include_roc else None,
    )


# ---------------------------------------------------------------------------
# Dataset statistics

def _modal_successor_accuracy(sequences: list[list]) -> float | None:
    """Accuracy of predicting each item's successor by the corpus-wide mode.

    Ties between successors break toward the smaller key so the
    statistic is deterministic.  None when there are no transitions.
    """
    counts: dict = {}
    for seq in sequences:
        for cur, nxt in zip(seq, seq[1:]):
            counts.setdefault(cur, {}).setdefault(nxt, 0)
            counts[cur][nxt] += 1
    modal = {
        cur: min((k for k, c in nxts.items() if c == max(nxts.values())))
        for cur, nxts in counts.items()
    }
    hits = total = 0
    for seq in sequences:
        for cur, nxt in zip(seq, seq[1:]):
            hits += 1 if modal[cur] == nxt else 0
            total += 1
    return hits / total if total else None


def dataset_stats(dataset: Dataset) -> dict:
    """Corpus summary: sizes, correctness, histogram, predictability."""
    lengths: dict[int, int] = {}
    questions: set[str] = set()
    kcs: set[str] = set()
    corrects = 0
    responses = 0
    events = 0
    q_seqs: list[list[str]] = []
    kc_seqs: list[list[tuple[str, ...]]] = []
    for sid in sorted(dataset.students):
        evs = dataset.students[sid]
        events += len(evs)
        qs = [e.question_id for e in evs if e.is_response()]
        ks = [e.kc_ids for e in evs if e.is_response()]
        q_seqs.append(qs)
        kc_seqs.append(ks)
        lengths[len(qs)] = lengths.get(len(qs), 0) + 1
        responses += len(qs)
        corrects += sum(1 for e in evs if e.is_response() and e.correct)
        questions.update(qs)
        for kc_set in ks:
            kcs.update(kc_set)
    return {
        "dataset": dataset.manifest.name,
        "n_students": len(dataset.students),
        "n_events": events,
        "n_responses": responses,
        "n_questions": len(questions),
        "n_kcs": len(kcs),
        "overall_correct_rate": corrects / responses if responses else None,
        "responses_per_student": {str(k): lengths[k] for k in sorted(lengths)},
        "next_question_predictability": _modal_successor_accuracy(q_seqs),
        "next_kc_predictability": _modal_successor_accuracy(kc_seqs),
        "quality": {k: dataset.quality[k] for k in sorted(dataset.quality)},
    }
