"""Synthetic interaction logs with known generating probabilities.

The generator is not a realistic student simulator; it produces data
whose true response probabilities are recorded, so learned models can
be compared against the Bayes-optimal predictor.  The response logit is

    ability - difficulty            (switching to a second difficulty
                                     table from response index
                                     regime_step onward)
    + momentum * min(streak, cap) / cap
    + prereq_transfer * ln(1 + corrects on prerequisite KCs)
    + module offset

with everything after the first term optional.  Each question carries
one KC; KCs form a prerequisite chain kc0 -> kc1 -> ... when the
transfer term is enabled.  Inter-arrival times are exponential and
every elapsed time is capped at half the gap to the next event, so
no lag time needs clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ktrace.core import (
    ConfigError,
    DatasetManifest,
    EventKind,
    FoldAssignment,
    InteractionEvent,
    KCGraph,
    canonical_json,
)
from ktrace.evaluate import auc
from ktrace.ingest import Dataset, write_events, write_manifest

_MAX_LOGIT = 30.0


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n_students: int = 500
    n_questions: int = 50
    n_kcs: int = 5
    responses_per_student: int = 50
    ability_scale: float = 1.0
    difficulty_scale: float = 1.0
    momentum: float = 0.0
    momentum_cap: int = 5
    regime_step: int | None = None
    prereq_transfer: float = 0.0
    modules: tuple[str, ...] = ()
    module_scale: float = 1.0
    mean_gap_s: float = 6 * 3600.0
    mean_elapsed_s: float = 60.0
    start_ts: int = 1_600_000_000
    name: str = "synth"

    def __post_init__(self) -> None:
        if min(self.n_students, self.n_questions, self.n_kcs, self.responses_per_student) < 1:
            raise ConfigError("counts must be positive")
        if self.n_kcs > self.n_questions:
            raise ConfigError("need at least one question per KC")
        if self.momentum_cap < 1:
            raise ConfigError("momentum_cap must be >= 1")
        if self.regime_step is not None and self.regime_step < 1:
            raise ConfigError("regime_step must be >= 1")
        if self.mean_gap_s <= 0 or self.mean_elapsed_s <= 0:
            raise ConfigError("time scales must be positive")

    def to_json(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["modules"] = list(self.modules)
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "GeneratorConfig":
        kw = dict(obj)
        if "modules" in kw:
            kw["modules"] = tuple(kw["modules"])
        return cls(**kw)


@dataclass
class GroundTruth:
    """Sampled parameters plus the true probability of every response."""

    config: GeneratorConfig
    abilities: dict[str, float]
    difficulties: dict[str, float]
    difficulties_late: dict[str, float] | None
    module_offsets: dict[str, float]
    probs: dict[str, list[float]]

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "abilities": dict(sorted(self.abilities.items())),
            "difficulties": dict(sorted(self.difficulties.items())),
            "difficulties_late": dict(sorted(self.difficulties_late.items()))
            if self.difficulties_late is not None
            else None,
            "module_offsets": dict(sorted(self.module_offsets.items())),
            "probs": {s: self.probs[s] for s in sorted(self.probs)},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "GroundTruth":
        return cls(
            config=GeneratorConfig.from_json(obj["config"]),
            abilities=dict(obj["abilities"]),
            difficulties=dict(obj["difficulties"]),
            difficulties_late=dict(obj["difficulties_late"])
            if obj.get("difficulties_late") is not None
            else None,
            module_offsets=dict(obj["module_offsets"]),
            probs={s: [float(p) for p in v] for s, v in obj["probs"].items()},
        )


def _sigmoid(z: float) -> float:
    z = max(-_MAX_LOGIT, min(_MAX_LOGIT, z))
    return 1.0 / (1.0 + math.exp(-z))


def generate(config: GeneratorConfig) -> tuple[Dataset, GroundTruth]:
    """Draw a dataset and its ground truth, fully determined by the seed."""
    rng = np.random.default_rng(config.seed)
    sids = [f"s{i:05d}" for i in range(config.n_students)]
    qids = [f"q{i:05d}" for i in range(config.n_questions)]
    kcs = [f"kc{i:03d}" for i in range(config.n_kcs)]
    question_kc = {q: kcs[i % config.n_kcs] for i, q in enumerate(qids)}

    abilities = dict(zip(sids, rng.normal(0.0, config.ability_scale, config.n_students)))
    difficulties = dict(zip(qids, rng.normal(0.0, config.difficulty_scale, config.n_questions)))
    difficulties_late = None
    if config.regime_step is not None:
        difficulties_late = dict(
            zip(qids, rng.normal(0.0, config.difficulty_scale, config.n_questions))
        )
    module_offsets = {}
    if config.modules:
        offsets = rng.normal(0.0, config.module_scale, len(config.modules))
        module_offsets = dict(zip(config.modules, offsets))

    graph = None
    parent_of = {kcs[i]: kcs[i - 1] for i in range(1, len(kcs))}
    if config.prereq_transfer:
        graph = KCGraph("kc", [(parent_of[k], k) for k in kcs if k in parent_of])

    students: dict[str, list[InteractionEvent]] = {}
    probs: dict[str, list[float]] = {}
    n = config.responses_per_student
    for sid in sids:
        ts = config.start_ts + int(rng.integers(0, 30 * 86400))
        gaps = rng.exponential(config.mean_gap_s, n)
        elapsed_draws = rng.exponential(config.mean_elapsed_s, n)
        timestamps = []
        for g in gaps:
            timestamps.append(ts)
            ts += max(1, int(g))
        q_draws = rng.integers(0, config.n_questions, n)
        u_draws = rng.random(n)

        events: list[InteractionEvent] = []
        p_list: list[float] = []
        streak = 0
        kc_corrects = {k: 0 for k in kcs}
        for t in range(n):
            q = qids[int(q_draws[t])]
            kc = question_kc[q]
            table = difficulties
            if config.regime_step is not None and t >= config.regime_step:
                table = difficulties_late
            z = abilities[sid] - table[q]
            if config.momentum:
                z += config.momentum * min(streak, config.momentum_cap) / config.momentum_cap
            if config.prereq_transfer and kc in parent_of:
                z += config.prereq_transfer * math.log1p(kc_corrects[parent_of[kc]])
            module = None
            if config.modules:
                module = config.modules[t % len(config.modules)]
                z += module_offsets[module]
            p = _sigmoid(z)
            correct = bool(u_draws[t] < p)
            if t + 1 < n:
                gap_next = timestamps[t + 1] - timestamps[t]
                elapsed = min(float(elapsed_draws[t]), 0.5 * gap_next)
            else:
                elapsed = float(elapsed_draws[t])
            events.append(
                InteractionEvent(
                    student_id=sid,
                    timestamp=timestamps[t],
                    kind=EventKind.QUESTION_RESPONSE,
                    question_id=q,
                    kc_ids=(kc,),
                    correct=correct,
                    elapsed_time_s=round(elapsed, 3),
                    study_module=module,
                )
            )
            p_list.append(p)
            streak = streak + 1 if correct else 0
            if correct:
                kc_corrects[kc] += 1
        students[sid] = events
        probs[sid] = p_list

    caps = {"elapsed_lag_time"}
    if config.modules:
        caps.add("study_module")
    if graph is not None:
        caps.add("prereq_graph")
    manifest = DatasetManifest(name=config.name, capabilities=frozenset(caps))
    dataset = Dataset(manifest=manifest, students=students, kc_graph=graph)
    truth = GroundTruth(
        config=config,
        abilities={k: float(v) for k, v in abilities.items()},
        difficulties={k: float(v) for k, v in difficulties.items()},
        difficulties_late={k: float(v) for k, v in difficulties_late.items()}
        if difficulties_late is not None
        else None,
        module_offsets={k: float(v) for k, v in module_offsets.items()},
        probs=probs,
    )
    return dataset, truth


def true_probabilities(
    dataset: Dataset, truth: GroundTruth, students: list[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """True probabilities and labels in extraction order (sorted students)."""
    ps: list[float] = []
    ys: list[float] = []
    for sid in sorted(students if students is not None else dataset.students):
        resp = [e for e in dataset.students[sid] if e.is_response()]
        if len(resp) != len(truth.probs[sid]):
            raise ConfigError(f"ground truth for {sid} does not match the dataset")
        ps.extend(truth.probs[sid])
        ys.extend(1.0 if e.correct else 0.0 for e in resp)
    return np.asarray(ps), np.asarray(ys)


def bayes_auc(dataset: Dataset, truth: GroundTruth, folds: FoldAssignment | None = None) -> float:
    """AUC of the true generating probabilities.

    With a fold assignment, the per-fold AUCs over test students are
    averaged (the same aggregation cross-validation reports); without
    one, a single pooled AUC over all responses.
    """
    if folds is None:
        p, y = true_probabilities(dataset, truth)
        return auc(p, y)
    scores = []
    for i in range(folds.k):
        p, y = true_probabilities(dataset, truth, folds.students_in(i))
        scores.append(auc(p, y))
    return float(np.mean(scores))


def write_synth(dataset: Dataset, truth: GroundTruth, out_dir: str | Path) -> dict[str, Path]:
    """Write events.csv, manifest.json and ground_truth.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": out / "events.csv",
        "manifest": out / "manifest.json",
        "ground_truth": out / "ground_truth.json",
    }
    write_events(dataset, paths["events"])
    write_manifest(dataset.manifest, paths["manifest"], kc_graph=dataset.kc_graph)
    paths["ground_truth"].write_text(canonical_json(truth.to_json()), encoding="utf-8")
    return paths


def load_ground_truth(path: str | Path) -> GroundTruth:
    import json

    return GroundTruth.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
