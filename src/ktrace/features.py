"""Feature extraction: recipes, encoders, state updates and emission.

A Recipe is an ordered list of feature families plus extraction
parameters.  An Encoder binds a recipe to a training fold: it fixes the
categorical vocabularies, the per-family block offsets, the total
dimension, and the training-fold mean correctness used by the smoothed
average.  Emission maps (student state, upcoming question) to a
SparseVector using only events strictly before the question.

Everything known about a family kind sits in its one row of the
`_KINDS` table: the variants it takes, the manifest capability it needs
(a flag, the context field's flag, or either graph flag), the
vocabulary its block is indexed by, the block width, and the emitter
that writes the block.  Family validation, capability gating, encoder
fitting and `emit` all read that row, so a new family is one row plus
one emitter.

Counts and time values pass through scale() = ln(1+x).  Time-window
counts use ascending windows whose last entry is infinite; a prior
response falls into a finite window when its age is strictly less than
the window length.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from ktrace.core import (
    ConfigError,
    DatasetManifest,
    EventKind,
    InteractionEvent,
    KCGraph,
    SparseVector,
    StudentState,
    canonical_json,
    scale,
)

# ---------------------------------------------------------------------------
# Families and recipes

# context variant -> manifest flag it needs
_CONTEXT_FIELDS = {
    "teacher_group": "teacher_group",
    "school": "school",
    "course": "course",
    "topic": "topic",
    "difficulty": "difficulty",
    "bundle": "bundle",
    "part_area": "part_area",
    "platform": "platform",
    "age": "age_gender",
    "gender": "age_gender",
    "social_support": "social_support",
}


@dataclass(frozen=True, slots=True)
class FeatureFamily:
    """One feature block: a kind plus an optional variant qualifier."""

    kind: str
    variant: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown feature family kind {self.kind!r}")
        variants = _KINDS[self.kind].variants
        if variants is None:
            if self.variant is not None:
                raise ConfigError(f"family {self.kind!r} takes no variant")
        elif self.variant not in variants:
            raise ConfigError(
                f"family {self.kind!r} needs a variant in {variants}, got {self.variant!r}"
            )

    @property
    def name(self) -> str:
        return self.kind if self.variant is None else f"{self.kind}:{self.variant}"

    @classmethod
    def parse(cls, name: str) -> "FeatureFamily":
        kind, _, variant = name.partition(":")
        return cls(kind, variant or None)

    def allowed_by(self, manifest: DatasetManifest) -> bool:
        """Whether the manifest has a capability this family needs (any one suffices)."""
        flags = _KINDS[self.kind].needs(self.variant)
        return not flags or any(manifest.allows(f) for f in flags)


def F(kind: str, variant: str | None = None) -> FeatureFamily:
    return FeatureFamily(kind, variant)


DEFAULT_WINDOWS_DAYS: tuple[float, ...] = (1.0 / 24.0, 1.0, 7.0, 30.0, math.inf)


@dataclass(frozen=True)
class TWConfig:
    """Ascending time windows in days; the last window must be infinite."""

    days: tuple[float, ...] = DEFAULT_WINDOWS_DAYS

    def __post_init__(self) -> None:
        if not self.days:
            raise ConfigError("at least one time window required")
        if not math.isinf(self.days[-1]):
            raise ConfigError("last time window must be infinite")
        for a, b in zip(self.days, self.days[1:]):
            if not a < b:
                raise ConfigError("time windows must be strictly ascending")
        if self.days[0] <= 0:
            raise ConfigError("time windows must be positive")

    @property
    def finite_seconds(self) -> tuple[float, ...]:
        return tuple(d * 86400.0 for d in self.days if not math.isinf(d))

    @property
    def count(self) -> int:
        return len(self.days)


@dataclass(frozen=True)
class Recipe:
    """Ordered feature families with extraction parameters."""

    families: tuple[FeatureFamily, ...]
    n_recent: int = 10
    eta: float = 5.0
    tw: TWConfig = TWConfig()

    def __post_init__(self) -> None:
        names = [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature families in recipe")
        if not self.families:
            raise ConfigError("recipe needs at least one family")
        if self.n_recent < 1 or self.n_recent > 16:
            raise ConfigError("n_recent must be in 1..16")
        if self.eta < 0:
            raise ConfigError("eta must be >= 0")

    def has(self, kind: str, variant: str | None = None) -> bool:
        return any(f.kind == kind and (variant is None or f.variant == variant) for f in self.families)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "families": [f.name for f in self.families],
            "n_recent": self.n_recent,
            "eta": self.eta,
            "windows_days": ["inf" if math.isinf(d) else d for d in self.tw.days],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Recipe":
        days = tuple(math.inf if d == "inf" else float(d) for d in obj["windows_days"])
        return cls(
            families=tuple(FeatureFamily.parse(n) for n in obj["families"]),
            n_recent=int(obj["n_recent"]),
            eta=float(obj["eta"]),
            tw=TWConfig(days),
        )


# ---------------------------------------------------------------------------
# Binning and scalar helpers

ELAPSED_MAX_S = 300
LAG_CATEGORIES_MIN: tuple[int, ...] = tuple(range(6)) + tuple(range(10, 1441, 10))


def elapsed_bins(seconds: float) -> tuple[int, float]:
    """Elapsed-time category (whole seconds, capped at 300) and scaled value."""
    if seconds < 0:
        raise ValueError("elapsed time must be >= 0")
    return min(int(math.floor(seconds)), ELAPSED_MAX_S), scale(seconds)


def lag_bins(minutes: float) -> tuple[int, float]:
    """Lag-time category index and scaled value.

    Minutes are rounded half-up to an integer, then mapped to the
    largest listed category value not exceeding them; values above 1440
    fall into the final category.
    """
    if minutes < 0:
        raise ValueError("lag time must be >= 0")
    whole = int(math.floor(minutes + 0.5))
    pos = bisect_right(LAG_CATEGORIES_MIN, whole) - 1
    return min(pos, len(LAG_CATEGORIES_MIN) - 1), scale(minutes)


def smoothed_avg_correct(corrects: int, attempts: int, rbar: float, eta: float) -> float:
    """Average correctness shrunk toward the training mean rbar."""
    if corrects < 0 or attempts < corrects:
        raise ValueError("need 0 <= corrects <= attempts")
    if not 0.0 <= rbar <= 1.0:
        raise ValueError("rbar must be in [0, 1]")
    denom = attempts + eta
    if denom <= 0:
        raise ValueError("attempts + eta must be positive")
    return (corrects + eta * rbar) / denom


def pattern_block(bits: Sequence[int], n: int) -> int | None:
    """One-hot index of the last n responses (most recent = low bit).

    Returns None when fewer than n prior responses exist.
    """
    if len(bits) < n:
        return None
    idx = 0
    for i in range(1, n + 1):
        if bits[-i]:
            idx |= 1 << (i - 1)
    return idx


# ---------------------------------------------------------------------------
# Encoder

@dataclass(frozen=True)
class Encoder:
    """A recipe bound to training-fold vocabularies and offsets."""

    recipe: Recipe
    vocabs: dict[str, dict[str, int]]
    blocks: tuple[tuple[FeatureFamily, int, int], ...]
    dim: int
    rbar: float

    def offset_of(self, name: str) -> tuple[int, int]:
        for fam, off, size in self.blocks:
            if fam.name == name:
                return off, size
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "recipe": self.recipe.to_json(),
            "vocabs": {d: dict(sorted(v.items())) for d, v in sorted(self.vocabs.items())},
            "blocks": [[fam.name, off, size] for fam, off, size in self.blocks],
            "dim": self.dim,
            "rbar": self.rbar,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Encoder":
        recipe = Recipe.from_json(obj["recipe"])
        vocabs = {d: {k: int(i) for k, i in v.items()} for d, v in obj["vocabs"].items()}
        blocks = tuple(
            (FeatureFamily.parse(name), int(off), int(size))
            for name, off, size in obj["blocks"]
        )
        return cls(recipe=recipe, vocabs=vocabs, blocks=blocks, dim=int(obj["dim"]), rbar=float(obj["rbar"]))

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.to_json()).encode()).hexdigest()


def check_recipe_supported(recipe: Recipe, manifest: DatasetManifest, kc_graph: KCGraph | None) -> None:
    gaps = [f.name for f in recipe.families if not f.allowed_by(manifest)]
    if gaps:
        raise ConfigError(
            f"dataset {manifest.name!r} does not support feature families: {', '.join(gaps)}"
        )
    needs_graph = [
        f.name for f in recipe.families if _KINDS[f.kind].domain(f.variant) == "graph_node"
    ]
    if needs_graph and kc_graph is None:
        raise ConfigError(
            f"families {', '.join(needs_graph)} need a prerequisite graph, none was provided"
        )


def fit_encoders(
    train_students: Mapping[str, Sequence[InteractionEvent]],
    recipe: Recipe,
    manifest: DatasetManifest,
    kc_graph: KCGraph | None = None,
) -> Encoder:
    """Build the encoder for a recipe from training-fold events only.

    Vocabularies are collected from question responses and indexed in
    sorted order, so the result is independent of event iteration order.
    """
    check_recipe_supported(recipe, manifest, kc_graph)

    needed = {_KINDS[f.kind].domain(f.variant) for f in recipe.families} - {None}
    seen: dict[str, set[str]] = {d: set() for d in needed if d != "graph_node"}
    corrects = 0
    attempts = 0
    for events in train_students.values():
        for e in events:
            if not e.is_response():
                continue
            attempts += 1
            if e.correct:
                corrects += 1
            if "student" in seen:
                seen["student"].add(e.student_id)
            if "question" in seen:
                seen["question"].add(e.question_id)  # type: ignore[arg-type]
            if "kc" in seen:
                seen["kc"].update(e.kc_ids)
            if "study_module" in seen and e.study_module is not None:
                seen["study_module"].add(e.study_module)
            for ctx in _CONTEXT_FIELDS:
                if ctx in seen:
                    value = getattr(e, ctx)
                    if value is not None:
                        seen[ctx].add(value)
    if attempts == 0:
        raise ConfigError("cannot fit encoders: no question responses in training data")

    vocabs: dict[str, dict[str, int]] = {
        d: {v: i for i, v in enumerate(sorted(values))} for d, values in seen.items()
    }
    if "graph_node" in needed:
        assert kc_graph is not None
        vocabs["graph_node"] = {n: i for i, n in enumerate(kc_graph.nodes)}

    blocks: list[tuple[FeatureFamily, int, int]] = []
    offset = 0
    for fam in recipe.families:
        size = _KINDS[fam.kind].width(fam, vocabs, recipe)
        blocks.append((fam, offset, size))
        offset += size
    return Encoder(
        recipe=recipe,
        vocabs=vocabs,
        blocks=tuple(blocks),
        dim=offset,
        rbar=corrects / attempts,
    )


# ---------------------------------------------------------------------------
# State updates

def update_state(state: StudentState, event: InteractionEvent) -> None:
    """Fold one event into the student's running aggregates.

    Events must arrive in non-decreasing timestamp order.  Question
    responses update correctness logs (total, per KC, per question),
    module/part counters, graph-node tallies, the recent-response bits
    and the prior elapsed/lag snapshot.  Material events update the
    corresponding tallies; hint counts attached to responses count
    toward the hint tally as well.
    """
    state.check_order(event.timestamp)
    kcs = event.kc_ids
    if event.is_response():
        correct = bool(event.correct)
        ts = event.timestamp
        state.total.add(ts, correct)
        for k in kcs:
            state.kc_log(k).add(ts, correct)
        state.question_log(event.question_id).add(ts, correct)  # type: ignore[arg-type]
        inc = 1 if correct else 0
        if event.study_module is not None:
            cell = state.by_module.setdefault(event.study_module, [0, 0])
            cell[0] += inc
            cell[1] += 1
        if event.part_area is not None:
            cell = state.by_part.setdefault(event.part_area, [0, 0])
            cell[0] += inc
            cell[1] += 1
        if state.kc_graph is not None:
            graph = state.kc_graph
            if graph.node_kind == "question":
                keys: tuple[str, ...] = (event.question_id,)  # type: ignore[assignment]
            else:
                keys = state.original_kcs(kcs)
            touched: set[str] = set()
            for key in keys:
                touched.update(graph.nodes_counting.get(key, ()))
            for node in touched:  # once per response, even with several matching KCs
                cell = state.graph_nodes.setdefault(node, [0, 0])
                cell[0] += inc
                cell[1] += 1
        state.recent_bits.append(inc)
        if event.hint_count:
            state.hints.add(kcs, float(event.hint_count))
        state.prior_elapsed_s = event.elapsed_time_s
        state.prior_lag_s = event.lag_s
        state.prior_no_lag = event.no_lag
        state.has_prior_response = True
        return
    minutes = event.consumption_minutes or 0.0
    if event.kind is EventKind.VIDEO_WATCH:
        state.videos_watched.add(kcs, 1.0)
        if minutes:
            state.video_minutes.add(kcs, minutes)
    elif event.kind is EventKind.VIDEO_SKIP:
        state.videos_skipped.add(kcs, 1.0)
    elif event.kind is EventKind.READING:
        state.readings.add(kcs, 1.0)
        if minutes:
            state.reading_minutes.add(kcs, minutes)
    elif event.kind is EventKind.HINT_USE:
        state.hints.add(kcs, float(event.hint_count if event.hint_count else 1))
        if minutes:
            state.hint_minutes.add(kcs, minutes)


# ---------------------------------------------------------------------------
# Emission

def _push_pair(entries: list, off: int, corrects: float, attempts: float) -> None:
    if corrects:
        entries.append((off, scale(corrects)))
    if attempts:
        entries.append((off + 1, scale(attempts)))


def _scope_log(fam: FeatureFamily, state: StudentState, event: InteractionEvent):
    """Response log of a total- or question-scoped counts family (None if unseen)."""
    return state.total if fam.variant == "total" else state.by_question.get(event.question_id)


# Emitters: (entries, off, fam, encoder, state, event) -> None, appending
# the (index, value) pairs of one block that starts at column off.

def _emit_bias(entries, off, fam, encoder, state, event) -> None:
    entries.append((off, 1.0))


def _one_hot(attr: str, domain: str):
    """Emitter for the one-hot of an event field in a vocabulary."""

    def emit_one_hot(entries, off, fam, encoder, state, event) -> None:
        idx = encoder.vocabs[domain].get(getattr(event, attr))
        if idx is not None:
            entries.append((off + idx, 1.0))

    return emit_one_hot


def _emit_context(entries, off, fam, encoder, state, event) -> None:
    idx = encoder.vocabs[fam.variant].get(getattr(event, fam.variant))
    if idx is not None:
        entries.append((off + idx, 1.0))


def _emit_kc(entries, off, fam, encoder, state, event) -> None:
    kvoc = encoder.vocabs["kc"]
    for k in event.kc_ids:
        idx = kvoc.get(k)
        if idx is not None:
            entries.append((off + idx, 1.0))


def _emit_counts(entries, off, fam, encoder, state, event) -> None:
    if fam.variant != "kc":
        log = _scope_log(fam, state, event)
        if log is not None:
            _push_pair(entries, off, log.corrects, log.attempts)
        return
    kvoc = encoder.vocabs["kc"]
    for k in event.kc_ids:
        idx = kvoc.get(k)
        log = state.by_kc.get(k)
        if idx is not None and log is not None:
            _push_pair(entries, off + 2 * idx, log.corrects, log.attempts)


def _push_windows(entries: list, off: int, log, now: int) -> None:
    if log is None or not log.ts:
        return
    win = log.window_counts(now)
    win.append((log.corrects, log.attempts))
    for j, (c, a) in enumerate(win):
        _push_pair(entries, off + 2 * j, c, a)


def _emit_tw_counts(entries, off, fam, encoder, state, event) -> None:
    if fam.variant != "kc":
        _push_windows(entries, off, _scope_log(fam, state, event), event.timestamp)
        return
    kvoc = encoder.vocabs["kc"]
    per_kc = 2 * encoder.recipe.tw.count
    for k in event.kc_ids:
        idx = kvoc.get(k)
        if idx is not None:
            _push_windows(entries, off + idx * per_kc, state.by_kc.get(k), event.timestamp)


def _emit_elapsed_time(entries, off, fam, encoder, state, event) -> None:
    secs = event.elapsed_time_s if fam.variant == "current" else state.prior_elapsed_s
    if secs is not None:
        cat, scaled = elapsed_bins(secs)
        entries.append((off + cat, 1.0))
        if scaled:
            entries.append((off + ELAPSED_MAX_S + 1, scaled))


def _emit_lag_time(entries, off, fam, encoder, state, event) -> None:
    if fam.variant == "current":
        lag_s, flag = event.lag_s, event.no_lag
    else:
        lag_s, flag = state.prior_lag_s, state.prior_no_lag
    n_cat = len(LAG_CATEGORIES_MIN)
    if flag:
        entries.append((off + n_cat + 1, 1.0))
    elif lag_s is not None:
        cat, scaled = lag_bins(lag_s / 60.0)
        entries.append((off + cat, 1.0))
        if scaled:
            entries.append((off + n_cat, scaled))


# datetime variant -> (block width, column of a UTC datetime)
_DATETIME: dict[str, tuple[int, Callable[[datetime], int]]] = {
    "month": (12, lambda dt: dt.month - 1),
    "week": (53, lambda dt: dt.isocalendar().week - 1),
    "day": (7, datetime.weekday),
    "hour": (24, lambda dt: dt.hour),
}


def _emit_datetime(entries, off, fam, encoder, state, event) -> None:
    dt = datetime.fromtimestamp(event.timestamp, tz=timezone.utc)
    entries.append((off + _DATETIME[fam.variant][1](dt), 1.0))


def _emit_study_module_counts(entries, off, fam, encoder, state, event) -> None:
    idx = encoder.vocabs["study_module"].get(event.study_module)
    cell = state.by_module.get(event.study_module)
    if idx is not None and cell is not None:
        _push_pair(entries, off + 2 * idx, cell[0], cell[1])


def _emit_part_area_counts(entries, off, fam, encoder, state, event) -> None:
    cell = state.by_part.get(event.part_area)
    if cell is not None:
        _push_pair(entries, off, cell[0], cell[1])


def _graph(step: str, counts: bool):
    """Emitter for the nodes one `step` ("prereqs_of" or "postreqs_of") away
    from the event's graph nodes: one-hots, or correct/attempt tallies."""

    def emit_graph(entries, off, fam, encoder, state, event) -> None:
        graph = state.kc_graph
        if graph is None:
            raise ConfigError(f"family {fam.name} requires a prerequisite graph")
        nodes = graph.nodes_for_event(event.question_id, state.original_kcs(event.kc_ids))
        related: set[str] = set()
        for node in nodes:
            related.update(getattr(graph, step)(node))
        nvoc = encoder.vocabs["graph_node"]
        for p in sorted(related):
            idx = nvoc.get(p)
            if idx is None:
                continue
            if not counts:
                entries.append((off + idx, 1.0))
            elif (cell := state.graph_nodes.get(p)) is not None:
                _push_pair(entries, off + 2 * idx, cell[0], cell[1])

    return emit_graph


def _tally(attr: str):
    """Emitter for a material tally of StudentState: (total, related to the event's KCs)."""

    def emit_tally(entries, off, fam, encoder, state, event) -> None:
        tally = getattr(state, attr)
        _push_pair(entries, off, tally.total, tally.for_kcs(event.kc_ids))

    return emit_tally


def _emit_smoothed_avg_correct(entries, off, fam, encoder, state, event) -> None:
    value = smoothed_avg_correct(
        state.total.corrects, state.total.attempts, encoder.rbar, encoder.recipe.eta
    )
    if value:
        entries.append((off, value))


def _emit_response_pattern(entries, off, fam, encoder, state, event) -> None:
    idx = pattern_block(state.recent_bits, encoder.recipe.n_recent)
    if idx is not None:
        entries.append((off + idx, 1.0))


def _per_variant(value, variant: str | None):
    return value.get(variant) if isinstance(value, Mapping) else value


@dataclass(frozen=True)
class _Kind:
    """Everything this module knows about one family kind.

    `flags` and `vocab` hold one value for every variant, or a dict keyed
    by variant.  A block has `slots` columns per entry of its vocabulary,
    or `slots` columns in all when it has none.
    """

    emitter: Callable[..., None]
    variants: tuple[str, ...] | None = None
    flags: tuple[str, ...] | Mapping[str, tuple[str, ...]] = ()  # any one suffices
    vocab: str | Mapping[str, str] | None = None
    slots: int | Callable[[FeatureFamily, Recipe], int] = 1

    def needs(self, variant: str | None) -> tuple[str, ...]:
        return _per_variant(self.flags, variant)

    def domain(self, variant: str | None) -> str | None:
        return _per_variant(self.vocab, variant)

    def width(self, fam: FeatureFamily, vocabs: Mapping[str, Mapping[str, int]], recipe: Recipe) -> int:
        per = self.slots(fam, recipe) if callable(self.slots) else self.slots
        domain = self.domain(fam.variant)
        return per if domain is None else per * len(vocabs[domain])


_SCOPES = ("total", "kc", "question")
_NOW_OR_PRIOR = ("current", "prior")
_GRAPH = ("prereq_graph", "kc_hierarchy")  # an explicit graph or an ontology-derived one

_KINDS: dict[str, _Kind] = {
    "bias": _Kind(_emit_bias),
    "student": _Kind(_one_hot("student_id", "student"), vocab="student"),
    "question": _Kind(_one_hot("question_id", "question"), vocab="question"),
    "kc": _Kind(_emit_kc, vocab="kc"),
    "counts": _Kind(_emit_counts, _SCOPES, vocab={"kc": "kc"}, slots=2),
    "tw_counts": _Kind(
        _emit_tw_counts, _SCOPES, vocab={"kc": "kc"}, slots=lambda fam, recipe: 2 * recipe.tw.count
    ),
    # categories, then the scaled value (and the no-lag flag for lag time)
    "elapsed_time": _Kind(
        _emit_elapsed_time, _NOW_OR_PRIOR, flags=("elapsed_lag_time",), slots=ELAPSED_MAX_S + 2
    ),
    "lag_time": _Kind(
        _emit_lag_time, _NOW_OR_PRIOR, flags=("elapsed_lag_time",), slots=len(LAG_CATEGORIES_MIN) + 2
    ),
    "datetime": _Kind(
        _emit_datetime, tuple(_DATETIME), slots=lambda fam, recipe: _DATETIME[fam.variant][0]
    ),
    "study_module": _Kind(
        _one_hot("study_module", "study_module"), flags=("study_module",), vocab="study_module"
    ),
    "study_module_counts": _Kind(
        _emit_study_module_counts, flags=("study_module",), vocab="study_module", slots=2
    ),
    "context": _Kind(
        _emit_context,
        tuple(_CONTEXT_FIELDS),
        flags={v: (flag,) for v, flag in _CONTEXT_FIELDS.items()},
        vocab={v: v for v in _CONTEXT_FIELDS},
    ),
    "part_area_counts": _Kind(_emit_part_area_counts, flags=("part_area",), slots=2),
    "prereq_ids": _Kind(_graph("prereqs_of", False), flags=_GRAPH, vocab="graph_node"),
    "prereq_counts": _Kind(_graph("prereqs_of", True), flags=_GRAPH, vocab="graph_node", slots=2),
    "postreq_ids": _Kind(_graph("postreqs_of", False), flags=_GRAPH, vocab="graph_node"),
    "postreq_counts": _Kind(_graph("postreqs_of", True), flags=_GRAPH, vocab="graph_node", slots=2),
    "video_watched_counts": _Kind(_tally("videos_watched"), flags=("videos",), slots=2),
    "video_skipped_counts": _Kind(_tally("videos_skipped"), flags=("videos",), slots=2),
    "video_watched_time": _Kind(_tally("video_minutes"), flags=("videos",), slots=2),
    "reading_counts": _Kind(_tally("readings"), flags=("reading",), slots=2),
    "reading_time": _Kind(_tally("reading_minutes"), flags=("reading",), slots=2),
    "hint_counts": _Kind(_tally("hints"), flags=("hints",), slots=2),
    "hint_time": _Kind(_tally("hint_minutes"), flags=("hints",), slots=2),
    "smoothed_avg_correct": _Kind(_emit_smoothed_avg_correct),
    "response_pattern": _Kind(_emit_response_pattern, slots=lambda fam, recipe: 1 << recipe.n_recent),
}


def emit(encoder: Encoder, state: StudentState, event: InteractionEvent) -> SparseVector:
    """Feature vector for predicting the response to `event`.

    Uses only the history already folded into `state`; the event itself
    supplies the question context (ids, receipt time, current lag and
    metadata).  Unseen categorical values emit nothing in their block.
    """
    if not event.is_response():
        raise ConfigError("can only emit features for question responses")
    entries: list[tuple[int, float]] = []
    for fam, off, _ in encoder.blocks:
        _KINDS[fam.kind].emitter(entries, off, fam, encoder, state, event)
    vec = SparseVector.from_pairs(entries)
    if vec.nnz and vec.indices[-1] >= encoder.dim:
        raise RuntimeError("emitted index outside encoder dimension")
    return vec


# ---------------------------------------------------------------------------
# Extraction driver

def iter_contexts(
    events: Sequence[InteractionEvent],
    tw: TWConfig = TWConfig(),
    kc_graph: KCGraph | None = None,
    squash_map: Mapping[str, tuple[str, ...]] | None = None,
) -> Iterator[tuple[InteractionEvent, StudentState, int]]:
    """Walk one student's events, yielding (response, state-before, index).

    The yielded index is the number of prior responses; the state has
    absorbed only events strictly before the yielded response.
    """
    state = StudentState(tw.finite_seconds, kc_graph=kc_graph, squash_map=squash_map)
    t = 0
    for e in events:
        if e.is_response():
            yield e, state, t
            t += 1
        update_state(state, e)


@dataclass
class ExtractResult:
    """Stacked training examples for one encoder."""

    X: sp.csr_matrix
    y: np.ndarray
    t: np.ndarray
    events: list[InteractionEvent]


def stack_vectors(vectors: Sequence[SparseVector], dim: int) -> sp.csr_matrix:
    n = len(vectors)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, v in enumerate(vectors):
        indptr[i + 1] = indptr[i] + v.nnz
    if n:
        indices = np.concatenate([v.indices for v in vectors])
        data = np.concatenate([v.values for v in vectors])
    else:
        indices = np.zeros(0, dtype=np.int64)
        data = np.zeros(0, dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(n, dim))


def build_matrix(
    students: Mapping[str, Sequence[InteractionEvent]],
    encoder: Encoder,
    kc_graph: KCGraph | None = None,
    squash_map: Mapping[str, tuple[str, ...]] | None = None,
) -> ExtractResult:
    """Extract features for every response of every given student."""
    vectors: list[SparseVector] = []
    labels: list[int] = []
    t_idx: list[int] = []
    kept: list[InteractionEvent] = []
    for sid in sorted(students):
        for event, state, t in iter_contexts(
            students[sid], encoder.recipe.tw, kc_graph=kc_graph, squash_map=squash_map
        ):
            vectors.append(emit(encoder, state, event))
            labels.append(1 if event.correct else 0)
            t_idx.append(t)
            kept.append(event)
    return ExtractResult(
        X=stack_vectors(vectors, encoder.dim),
        y=np.asarray(labels, dtype=np.float64),
        t=np.asarray(t_idx, dtype=np.int64),
        events=kept,
    )
