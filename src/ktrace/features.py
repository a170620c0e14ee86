"""Feature extraction: recipes, encoders, state updates and emission.

A Recipe is an ordered list of feature families plus extraction
parameters.  An Encoder binds a recipe to a training fold: it fixes the
categorical vocabularies, the per-family block offsets, the total
dimension, and the training-fold mean correctness (rbar) used by the
smoothed average.  Emission maps (student state, upcoming question) to
features using only events strictly before the question.

Everything known about a family kind sits in its one row of the
`_KINDS` table: the variants it takes, the manifest capability it needs
(its event field's or material tally's flag in the `core` schema
tables, or either graph flag), the vocabulary its block is indexed by,
the block width, and the emitter that writes the block.  Family
validation, capability gating, encoder fitting and emission all read
that row, so a new family is one row plus one emitter.

Emitters write keyed rows, which no fold changes: per entry the block,
the vocabulary key's code (or none), the slot within the key's columns
and the value.  Most families are prefix functions of one student's
responses: bias, the event-field one-hots, counts, time-window counts,
the smoothed average's counts and the response pattern.  Their array
emitters write a block for a whole batch of students at once, from
grouped cumulative sums over (student), (student, question) and
(student, KC), `np.searchsorted` on (group, timestamp) keys for the
windows, and shifted labels for the pattern.  The other families (lag
and elapsed time, datetime, module and part counts, material tallies,
graph families) have state emitters, which read a StudentState walked
one response at a time; a recipe walks that way only if it holds one.
A RowStore, one per dataset, walks each student once per recipe
(families, n_recent, windows), the students one call lacks in one
batch, and keeps the entries as flat arrays; that one walk serves a
fold's encoder and all its matrices.
`fit_encoders` takes each vocabulary from the keys its blocks use in the
training rows and rbar from their labels.  `build_matrix` remaps the
entries for an encoder with one vectorized lookup, column = block
offset + vocabulary index * slots + slot, dropping keys the fold's
vocabulary lacks, and computes the smoothed average from stored
correct/attempt counts and the fold's rbar and eta.
One prediction's features are a row of a one-student `build_matrix`.

Counts and time values pass through scale() = ln(1+x), array counts
through a table that scale() fills.  Time-window counts use ascending
windows whose last entry is infinite; a prior response falls into a
finite window when its age is strictly less than the window length
(its timestamp exceeds the float64 now - seconds).  Lag time is a value
of the walk, not of the event: `core.lag_since` from the state's latest
response end.
"""

from __future__ import annotations

import hashlib
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from ktrace.core import (
    ConfigError,
    DatasetManifest,
    EventKind,
    InteractionEvent,
    KCGraph,
    MATERIAL_KINDS,
    OPTIONAL_FIELDS,
    SequencingError,
    StudentState,
    canonical_json,
    lag_since,
    response_end,
    scale,
)

# ---------------------------------------------------------------------------
# Families and recipes

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

    @cached_property
    def _layout(self) -> "_Layout":
        """Vocabulary domain and columns per key of each block (see _Placer)."""
        return _Layout.of(self)

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


def smoothed_avg_correct(corrects, attempts, rbar: float, eta: float):
    """Average correctness shrunk toward the training mean rbar.

    Takes counts or equal-shaped arrays of counts (elementwise).
    """
    corrects = np.asarray(corrects)
    attempts = np.asarray(attempts)
    if np.any(corrects < 0) or np.any(attempts < corrects):
        raise ValueError("need 0 <= corrects <= attempts")
    if not 0.0 <= rbar <= 1.0:
        raise ValueError("rbar must be in [0, 1]")
    denom = attempts + eta
    if np.any(denom <= 0):
        raise ValueError("attempts + eta must be positive")
    return (corrects + eta * rbar) / denom


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
    squash_map: Mapping[str, tuple[str, ...]] | None = None,
    store: RowStore | None = None,
) -> Encoder:
    """Build the encoder for a recipe from the training fold's keyed rows.

    The rows come from `store` (a dataset's `feature_rows`; a throwaway
    store when None), so one walk per (recipe, student) serves the
    encoder and every matrix built from the same store.  A domain's
    vocabulary is the keys its blocks use in those rows, indexed in
    sorted order; `graph_node` takes the graph's nodes.  A domain read
    only by keyed counts blocks thus lacks keys no training row counts,
    whose columns could only hold zero weight.  rbar is the rows' mean
    label.
    """
    check_recipe_supported(recipe, manifest, kc_graph)
    store = RowStore() if store is None else store
    parts, keys = store.rows(train_students, recipe, kc_graph, squash_map)
    attempts = sum(len(p.responses) for p in parts)
    if attempts == 0:
        raise ConfigError("cannot fit encoders: no question responses in training data")

    used = _used_keys(parts, recipe._layout.domains, keys)
    vocabs = {d: {k: i for i, k in enumerate(sorted(ks))} for d, ks in used.items()}
    if "graph_node" in vocabs:
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
        rbar=float(sum(p.y.sum() for p in parts)) / attempts,
    )


# ---------------------------------------------------------------------------
# State updates

def update_state(state: StudentState, event: InteractionEvent) -> None:
    """Fold one event into the student's running aggregates.

    Events must arrive in non-decreasing timestamp order.  Question
    responses update module/part counters, graph-node tallies and the
    latest response's elapsed time, lag time and end.  Material events update the corresponding tallies; hint
    counts attached to responses count toward the hint tally as well.
    """
    state.check_order(event.timestamp)
    kcs = event.kc_ids
    if event.is_response():
        inc = 1 if event.correct else 0
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
        if event.hint_count:
            state.hints.add(kcs, float(event.hint_count))
        state.prior_elapsed_s = event.elapsed_time_s
        state.prior_lag_s, _ = lag_since(state.prior_end, event.timestamp)
        state.prior_end = response_end(event)
        return
    material = MATERIAL_KINDS[event.kind]
    count = float(event.hint_count or 1) if event.kind is EventKind.HINT_USE else 1.0
    getattr(state, material.count).add(kcs, count)
    if event.consumption_minutes and material.minutes:
        getattr(state, material.minutes).add(kcs, event.consumption_minutes)


# ---------------------------------------------------------------------------
# Emission: keyed entries
#
# A block's entries are (row, key code, slot, value).  Blocks indexed by a
# vocabulary (student, question, KC, ...) give the key's code in that
# domain's _Codes and the slot within the key's group of columns; other
# blocks give code -1 and the column within the block.  Nothing an emitter
# writes depends on a fold: _Placer puts the entries in an encoder's
# columns.
#
# Each family kind has one emitter of one of two sorts.  An array emitter
# writes its block for every response of a batch of students at once,
# from the prefix arrays of a _Batch.  A state emitter appends its block's
# entries for one response, reading the StudentState of a per-student
# iter_contexts walk, which runs only for recipes holding such a family.

class _Codes(dict):
    """Dense integer codes for one vocabulary domain's keys, in first-seen order."""

    def code(self, key: str) -> int:
        c = self.get(key)
        if c is None:
            c = self[key] = len(self)
        return c

    def codes_of(self, keys: Sequence[str | None]) -> np.ndarray:
        """The codes of many keys (-1 for None), coding new ones in order."""
        for key in dict.fromkeys(keys):
            if key is not None and key not in self:
                self[key] = len(self)
        return np.fromiter(map(self.get, keys, repeat(-1)), np.int64, len(keys))


class _Block(NamedTuple):
    """Entries of one block: per entry the row in its batch, key code, slot and value."""

    row: np.ndarray
    code: np.ndarray
    slot: np.ndarray
    value: np.ndarray


def _ones(rows: np.ndarray, code=-1, slot=0) -> _Block:
    """Entries of value 1.0 at `rows`; code and slot are one value or one per row."""
    shape = rows.shape
    return _Block(rows, np.broadcast_to(code, shape), np.broadcast_to(slot, shape), np.ones(shape))


def _check_order(walks: Sequence[Sequence[InteractionEvent]]) -> None:
    """Raise update_state's SequencingError at a student's first event that goes back in time."""
    ts = np.fromiter(map(attrgetter("timestamp"), chain.from_iterable(walks)), np.int64)
    back = ts[1:] < ts[:-1]
    ends = np.cumsum([len(events) for events in walks], dtype=np.int64)
    back[ends[(ends > 0) & (ends < len(ts))] - 1] = False  # one student's last event, the next one's first
    if back.any():
        i = int(np.argmax(back))
        raise SequencingError(f"event at {ts[i + 1]} arrived after state reached {ts[i]}")


class _Scope:
    """Correct and attempt counts before each (row, key) pair of one scope.

    A group is one student's pairs on one key: all their responses (total
    scope), one question's, or one KC's.  Pairs are sorted by group,
    stably, so each group keeps walk order; the pairs counted before a
    pair are its group's pairs in earlier rows, so a response listing a
    KC twice counts twice on it.
    """

    def __init__(self, group: np.ndarray, row: np.ndarray, code: np.ndarray, ts: np.ndarray, y: np.ndarray):
        if np.any(group[1:] < group[:-1]):
            order = np.argsort(group, kind="stable")
            group, row, code, ts, y = group[order], row[order], code[order], ts[order], y[order]
        at = np.arange(len(group))
        new_group = np.ones(len(group), dtype=bool)
        new_group[1:] = group[1:] != group[:-1]
        new_row = new_group.copy()
        new_row[1:] |= row[1:] != row[:-1]
        start = np.maximum.accumulate(np.where(new_group, at, 0))  # the group's first pair
        self.first = np.maximum.accumulate(np.where(new_row, at, 0))  # the row's first pair in the group
        self.rank = np.cumsum(new_group) - 1  # dense group number
        self.cum = np.zeros(len(group) + 1, dtype=np.int64)  # corrects of the pairs before each index
        np.cumsum(y, out=self.cum[1:])
        self.row, self.code, self.ts = row, code, ts
        # (corrects, attempts) before each pair, all time
        self.totals = np.column_stack((self.cum[self.first] - self.cum[start], self.first - start))

    def windows(self, seconds: Sequence[float]) -> np.ndarray:
        """(corrects, attempts) before each pair within each finite window, in columns.

        A prior response is inside when its age is strictly less than the
        window: its integer timestamp exceeds the cutoff now - seconds,
        a float64 difference, that is, exceeds floor(cutoff).  Searching
        (group, timestamp) keys for that counts the group's responses
        outside; the keys are sorted because _check_order holds every
        student's events in time order.
        """
        out = np.zeros((len(self.ts), 2 * len(seconds)), dtype=np.int64)
        if not len(self.ts):
            return out
        ts, first = self.ts, self.first
        before = self.cum[first]
        t0 = int(ts.min())
        span = int(ts.max()) - t0 + 2
        if (int(self.rank[-1]) + 1) * span >= 1 << 62:  # the keys would overflow int64
            raise ValueError("timestamps span too wide for time-window counts")
        base = self.rank * span
        keys = base + (ts - t0 + 1)
        now = ts.astype(np.float64)
        for j, wsec in enumerate(seconds):
            cutoff = np.floor(now - wsec).astype(np.int64)
            inside = np.searchsorted(keys, base + np.maximum(cutoff - t0 + 1, 0), side="right")
            out[:, 2 * j] = before - self.cum[inside]
            out[:, 2 * j + 1] = first - inside
        return out


class _Batch:
    """The responses of several students' walks laid end to end, as arrays.

    Row r is the batch's r-th response: students in the given order, each
    student's responses in walk order.  Key codes come from the store's
    per-domain _Codes, so every block and scope of a domain shares them.
    """

    def __init__(self, walks: Sequence[Sequence[InteractionEvent]], codes: dict[str, _Codes]):
        _check_order(walks)
        self.per_student = [[e for e in events if e.kind is EventKind.QUESTION_RESPONSE] for events in walks]
        self.responses = responses = list(chain.from_iterable(self.per_student))
        self.n = n = len(responses)
        lens = np.array([len(r) for r in self.per_student], dtype=np.int64)
        self.bounds = np.zeros(len(lens) + 1, dtype=np.int64)  # each student's first row, then n
        np.cumsum(lens, out=self.bounds[1:])
        self.student = np.repeat(np.arange(len(lens)), lens)
        self.prior = np.arange(n) - self.bounds[self.student]  # the student's responses before the row
        self.ts = np.fromiter(map(attrgetter("timestamp"), responses), np.int64, n)
        self.y = np.fromiter(map(attrgetter("correct"), responses), bool, n).astype(np.int64)
        self.codes = codes
        self._coded: dict[tuple[str, str], np.ndarray] = {}
        self._scopes: dict[str, _Scope] = {}
        self._log1p = np.zeros(0)

    def coded(self, domain: str, attr: str) -> np.ndarray:
        """Each row's code of its `attr` field's value in `domain` (-1 for None)."""
        got = self._coded.get((domain, attr))
        if got is None:
            values = list(map(attrgetter(attr), self.responses))
            got = self._coded[domain, attr] = self.codes.setdefault(domain, _Codes()).codes_of(values)
        return got

    @cached_property
    def kc_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and KC code of each (response, listed KC) pair."""
        kcs = list(map(attrgetter("kc_ids"), self.responses))
        row = np.repeat(np.arange(self.n), np.fromiter(map(len, kcs), np.int64, self.n))
        return row, self.codes.setdefault("kc", _Codes()).codes_of(list(chain.from_iterable(kcs)))

    def scope(self, variant: str) -> _Scope:
        """Counts before each row ("total", "question") or (row, KC) pair ("kc")."""
        got = self._scopes.get(variant)
        if got is None:
            if variant == "kc":
                row, code = self.kc_pairs
                group = self.student[row] * len(self.codes["kc"]) + code
            else:
                row, code = np.arange(self.n), np.full(self.n, -1)
                group = self.student
                if variant == "question":
                    question = self.coded("question", "question_id")
                    group = group * len(self.codes["question"]) + question
            got = self._scopes[variant] = _Scope(group, row, code, self.ts[row], self.y[row])
        return got

    def count_entries(self, scope: _Scope, counts: np.ndarray) -> _Block:
        """Entries of each pair's nonzero counts: slot = column, value = scale(count).

        scale's values come from a table filled by scale itself
        (math.log1p), since np.log1p may differ in the last bit.
        """
        i, slot = np.nonzero(counts)
        counts = counts[i, slot]
        top = int(counts.max(initial=0))
        if top >= len(self._log1p):
            self._log1p = np.array([scale(c) for c in range(top + 1)])
        return _Block(scope.row[i], scope.code[i], slot, self._log1p[counts])


# Array emitters: (batch, domain, fam, recipe) -> _Block, the entries of
# the family's block for every row of the batch; domain is the block's
# vocabulary domain (None if it has none).

def _emit_bias(batch, domain, fam, recipe) -> _Block:
    return _ones(np.arange(batch.n))


def _one_hot(attr: str | None):
    """Array emitter for the one-hot of an event field (None: the field the variant names)."""

    def emit_one_hot(batch, domain, fam, recipe) -> _Block:
        code = batch.coded(domain, attr or fam.variant)
        rows = np.flatnonzero(code >= 0)
        return _ones(rows, code[rows])

    return emit_one_hot


def _emit_kc(batch, domain, fam, recipe) -> _Block:
    return _ones(*batch.kc_pairs)


def _emit_counts(batch, domain, fam, recipe) -> _Block:
    scope = batch.scope(fam.variant)
    return batch.count_entries(scope, scope.totals)


def _emit_tw_counts(batch, domain, fam, recipe) -> _Block:
    # the finite windows in ascending order, then the infinite one
    scope = batch.scope(fam.variant)
    return batch.count_entries(scope, np.hstack((scope.windows(recipe.tw.finite_seconds), scope.totals)))


def _emit_response_pattern(batch, domain, fam, recipe) -> _Block:
    # once n_recent prior answers exist, their labels with the most recent in the low bit
    n = recipe.n_recent
    pattern = np.zeros(batch.n, dtype=np.int64)
    for i in range(1, n + 1):
        pattern[i:] |= batch.y[:-i] << (i - 1)
    rows = np.flatnonzero(batch.prior >= n)
    return _ones(rows, slot=pattern[rows])


# State emitters: (out, b, codes, fam, recipe, state, event) -> None,
# appending the (block, key code, slot, value) entries of block b for one
# response; codes is the block's domain (None if it has no vocabulary).

def _push_pair(out: list, b: int, code: int, slot: int, corrects: float, attempts: float) -> None:
    if corrects:
        out.append((b, code, slot, scale(corrects)))
    if attempts:
        out.append((b, code, slot + 1, scale(attempts)))


def _emit_elapsed_time(out, b, codes, fam, recipe, state, event) -> None:
    secs = event.elapsed_time_s if fam.variant == "current" else state.prior_elapsed_s
    if secs is not None:
        cat, scaled = elapsed_bins(secs)
        out.append((b, -1, cat, 1.0))
        if scaled:
            out.append((b, -1, ELAPSED_MAX_S + 1, scaled))


def _emit_lag_time(out, b, codes, fam, recipe, state, event) -> None:
    # the described response (this one or the latest, if any) lacks a lag
    # only when it is the student's first
    if fam.variant == "current":
        lag_s, _ = lag_since(state.prior_end, event.timestamp)
        described = True
    else:
        lag_s, described = state.prior_lag_s, state.prior_end is not None
    n_cat = len(LAG_CATEGORIES_MIN)
    if lag_s is not None:
        cat, scaled = lag_bins(lag_s / 60.0)
        out.append((b, -1, cat, 1.0))
        if scaled:
            out.append((b, -1, n_cat, scaled))
    elif described:
        out.append((b, -1, n_cat + 1, 1.0))


# datetime variant -> (block width, column of a UTC datetime)
_DATETIME: dict[str, tuple[int, Callable[[datetime], int]]] = {
    "month": (12, lambda dt: dt.month - 1),
    "week": (53, lambda dt: dt.isocalendar().week - 1),
    "day": (7, datetime.weekday),
    "hour": (24, lambda dt: dt.hour),
}


def _emit_datetime(out, b, codes, fam, recipe, state, event) -> None:
    dt = datetime.fromtimestamp(event.timestamp, tz=timezone.utc)
    out.append((b, -1, _DATETIME[fam.variant][1](dt), 1.0))


def _emit_study_module_counts(out, b, codes, fam, recipe, state, event) -> None:
    cell = state.by_module.get(event.study_module)
    if cell is not None:
        _push_pair(out, b, codes.code(event.study_module), 0, cell[0], cell[1])


def _emit_part_area_counts(out, b, codes, fam, recipe, state, event) -> None:
    cell = state.by_part.get(event.part_area)
    if cell is not None:
        _push_pair(out, b, -1, 0, cell[0], cell[1])


def _graph(step: str, counts: bool):
    """State emitter for the nodes one `step` ("prereqs_of" or "postreqs_of")
    away from the event's graph nodes: one-hots, or correct/attempt tallies."""

    def emit_graph(out, b, codes, fam, recipe, state, event) -> None:
        graph = state.kc_graph
        if graph is None:
            raise ConfigError(f"family {fam.name} requires a prerequisite graph")
        nodes = graph.nodes_for_event(event.question_id, state.original_kcs(event.kc_ids))
        related: set[str] = set()
        for node in nodes:
            related.update(getattr(graph, step)(node))
        for p in sorted(related):
            if not counts:
                out.append((b, codes.code(p), 0, 1.0))
            elif (cell := state.graph_nodes.get(p)) is not None:
                _push_pair(out, b, codes.code(p), 0, cell[0], cell[1])

    return emit_graph


def _per_variant(value, variant: str | None):
    return value.get(variant) if isinstance(value, Mapping) else value


@dataclass(frozen=True)
class _Kind:
    """Everything this module knows about one family kind.

    `emitter` is an array emitter, or a state emitter when `state` is
    set.  `flags` and `vocab` hold one value for every variant, or a dict
    keyed by variant.  A block has `slots` columns per entry of its
    vocabulary, or `slots` columns in all when it has none.
    """

    emitter: Callable[..., _Block | None]
    variants: tuple[str, ...] | None = None
    flags: tuple[str, ...] | Mapping[str, tuple[str, ...]] = ()  # any one suffices
    vocab: str | Mapping[str, str] | None = None
    slots: int | Callable[[FeatureFamily, Recipe], int] = 1
    state: bool = False

    def needs(self, variant: str | None) -> tuple[str, ...]:
        return _per_variant(self.flags, variant)

    def domain(self, variant: str | None) -> str | None:
        return _per_variant(self.vocab, variant)

    def per_entry(self, fam: FeatureFamily, recipe: Recipe) -> int:
        return self.slots(fam, recipe) if callable(self.slots) else self.slots

    def width(self, fam: FeatureFamily, vocabs: Mapping[str, Mapping[str, int]], recipe: Recipe) -> int:
        per = self.per_entry(fam, recipe)
        domain = self.domain(fam.variant)
        return per if domain is None else per * len(vocabs[domain])


def _material(attr: str) -> _Kind:
    """Row of a family emitting a StudentState material tally (total, related to the
    event's KCs), gated by the flag of the MATERIAL_KINDS row that fills the tally."""

    def emit_tally(out, b, codes, fam, recipe, state, event) -> None:
        tally = getattr(state, attr)
        _push_pair(out, b, -1, 0, tally.total, tally.for_kcs(event.kc_ids))

    flag = next(m.flag for m in MATERIAL_KINDS.values() if attr in (m.count, m.minutes))
    return _Kind(emit_tally, flags=(flag,), slots=2, state=True)


# each optional event field's flags, for the families reading it
_FIELD_FLAGS = {name: (f.flag,) for name, f in OPTIONAL_FIELDS.items()}
# context variants: the str event fields but study_module, which has its own families
_CONTEXT_FIELDS = tuple(n for n, f in OPTIONAL_FIELDS.items() if f.type is str and n != "study_module")
_SCOPES = ("total", "kc", "question")
_NOW_OR_PRIOR = ("current", "prior")
_GRAPH = ("prereq_graph", "kc_hierarchy")  # an explicit graph or an ontology-derived one
_ELAPSED = _FIELD_FLAGS["elapsed_time_s"]  # lag time too: a response ends after its elapsed time

_KINDS: dict[str, _Kind] = {
    "bias": _Kind(_emit_bias),
    "student": _Kind(_one_hot("student_id"), vocab="student"),
    "question": _Kind(_one_hot("question_id"), vocab="question"),
    "kc": _Kind(_emit_kc, vocab="kc"),
    "counts": _Kind(_emit_counts, _SCOPES, vocab={"kc": "kc"}, slots=2),
    "tw_counts": _Kind(
        _emit_tw_counts, _SCOPES, vocab={"kc": "kc"}, slots=lambda fam, recipe: 2 * recipe.tw.count
    ),
    # categories, then the scaled value (and the no-lag flag for lag time)
    "elapsed_time": _Kind(
        _emit_elapsed_time, _NOW_OR_PRIOR, flags=_ELAPSED, slots=ELAPSED_MAX_S + 2, state=True
    ),
    "lag_time": _Kind(
        _emit_lag_time, _NOW_OR_PRIOR, flags=_ELAPSED, slots=len(LAG_CATEGORIES_MIN) + 2, state=True
    ),
    "datetime": _Kind(
        _emit_datetime, tuple(_DATETIME), slots=lambda fam, recipe: _DATETIME[fam.variant][0], state=True
    ),
    "study_module": _Kind(_one_hot("study_module"), flags=_FIELD_FLAGS["study_module"], vocab="study_module"),
    "study_module_counts": _Kind(
        _emit_study_module_counts, flags=_FIELD_FLAGS["study_module"], vocab="study_module", slots=2, state=True
    ),
    "context": _Kind(
        _one_hot(None),
        _CONTEXT_FIELDS,
        flags={v: _FIELD_FLAGS[v] for v in _CONTEXT_FIELDS},
        vocab={v: v for v in _CONTEXT_FIELDS},
    ),
    "part_area_counts": _Kind(_emit_part_area_counts, flags=_FIELD_FLAGS["part_area"], slots=2, state=True),
    "prereq_ids": _Kind(_graph("prereqs_of", False), flags=_GRAPH, vocab="graph_node", state=True),
    "prereq_counts": _Kind(_graph("prereqs_of", True), flags=_GRAPH, vocab="graph_node", slots=2, state=True),
    "postreq_ids": _Kind(_graph("postreqs_of", False), flags=_GRAPH, vocab="graph_node", state=True),
    "postreq_counts": _Kind(_graph("postreqs_of", True), flags=_GRAPH, vocab="graph_node", slots=2, state=True),
    "video_watched_counts": _material("videos_watched"),
    "video_skipped_counts": _material("videos_skipped"),
    "video_watched_time": _material("video_minutes"),
    "reading_counts": _material("readings"),
    "reading_time": _material("reading_minutes"),
    "hint_counts": _material("hints"),
    "hint_time": _material("hint_minutes"),
    # a placeholder 1.0 per row: the value depends on the fold's rbar, and
    # _Placer computes it from the row's stored correct/attempt counts
    "smoothed_avg_correct": _Kind(_emit_bias),
    "response_pattern": _Kind(_emit_response_pattern, slots=lambda fam, recipe: 1 << recipe.n_recent),
}


@dataclass(frozen=True)
class _Entries:
    """Keyed entries of consecutive rows, flat.

    Per entry: block, key code, slot and value.  Per row: the number of
    entries and the student's correct and attempt counts before the
    response, from which _Placer computes the smoothed average.
    """

    block: np.ndarray  # int16
    code: np.ndarray  # int32, -1 for blocks without a vocabulary
    slot: np.ndarray  # int32
    value: np.ndarray  # float64
    row_len: np.ndarray  # int64
    corrects: np.ndarray  # int64
    attempts: np.ndarray  # int64

    @classmethod
    def concat(cls, parts: Sequence["_Entries"]) -> "_Entries":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


@dataclass(frozen=True)
class _Layout:
    """Per block of a recipe: vocabulary domain and columns per key; the smoothed-average block."""

    domains: tuple[str | None, ...]
    per: np.ndarray  # slots per vocabulary key; 0 for blocks without a vocabulary
    smoothed: int | None

    @classmethod
    def of(cls, recipe: Recipe) -> "_Layout":
        domains = tuple(_KINDS[f.kind].domain(f.variant) for f in recipe.families)
        per = np.array(
            [0 if d is None else _KINDS[f.kind].per_entry(f, recipe) for f, d in zip(recipe.families, domains)],
            dtype=np.int64,
        )
        per.flags.writeable = False
        smoothed = [b for b, f in enumerate(recipe.families) if f.kind == "smoothed_avg_correct"]
        return cls(domains, per, smoothed[0] if smoothed else None)


def _key_starts(
    domains: Sequence[str | None], keys: Mapping[str, Sequence[str]]
) -> tuple[dict[str, int], np.ndarray]:
    """Where each domain's keys start when all domains' keys are laid end to end
    in code order, and that start for each block (0 without a vocabulary)."""
    spans = {d: len(keys.get(d, ())) for d in domains if d is not None}
    starts = dict(zip(spans, np.cumsum([0, *spans.values()]).tolist()))
    return starts, np.array([starts.get(d, 0) for d in domains], dtype=np.int64)


class _Placer:
    """Places keyed entries in an encoder's columns.

    `keys[domain]` lists the domain's keys in code order.  An entry lands
    in column off + vocab_index * slots + slot of its block (off + slot
    without a vocabulary); keys the encoder's vocabulary lacks and zero
    values are dropped, and each row is ordered by column.
    """

    def __init__(self, encoder: Encoder, keys: Mapping[str, Sequence[str]]):
        layout = encoder.recipe._layout
        starts, self.base = _key_starts(layout.domains, keys)
        luts = [
            np.fromiter((encoder.vocabs[d].get(k, -1) for k in keys.get(d, ())), dtype=np.int64)
            for d in starts
        ]
        self.encoder = encoder
        self.lut = np.concatenate(luts) if luts else np.zeros(0, dtype=np.int64)
        self.off = np.array([o for _, o, _ in encoder.blocks], dtype=np.int64)
        self.per = layout.per
        self.smoothed = layout.smoothed

    def place(self, entries: _Entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(entries per row, columns, values) of the rows, each ordered by column."""
        encoder = self.encoder
        n = len(entries.row_len)
        block = entries.block
        rows = np.repeat(np.arange(n, dtype=np.int64), entries.row_len)
        value = entries.value
        if self.smoothed is not None:
            at = block == self.smoothed
            r = rows[at]
            value = value.copy()
            value[at] = smoothed_avg_correct(
                entries.corrects[r], entries.attempts[r], encoder.rbar, encoder.recipe.eta
            )
        vidx = np.zeros(len(block), dtype=np.int64)
        keyed = entries.code >= 0
        vidx[keyed] = self.lut[self.base[block[keyed]] + entries.code[keyed]]
        col = self.off[block] + vidx * self.per[block] + entries.slot
        keep = (vidx >= 0) & (value != 0.0)
        rows, col, value = rows[keep], col[keep], value[keep]

        if col.size > 1:
            key = rows * max(encoder.dim, int(col.max()) + 1) + col
            if not np.all(key[1:] > key[:-1]):
                order = np.argsort(key, kind="stable")
                key, rows, col, value = key[order], rows[order], col[order], value[order]
                if np.any(key[1:] == key[:-1]):
                    raise ValueError("duplicate feature index")
        if col.size and col.max() >= encoder.dim:
            raise RuntimeError("emitted index outside encoder dimension")
        return np.bincount(rows, minlength=n), col, value


# ---------------------------------------------------------------------------
# Extraction driver

def iter_contexts(
    events: Sequence[InteractionEvent],
    kc_graph: KCGraph | None = None,
    squash_map: Mapping[str, tuple[str, ...]] | None = None,
) -> Iterator[tuple[InteractionEvent, StudentState, int]]:
    """Walk one student's events, yielding (response, state-before, index).

    The yielded index is the number of prior responses; the state has
    absorbed only events strictly before the yielded response.
    """
    state = StudentState(kc_graph=kc_graph, squash_map=squash_map)
    t = 0
    for e in events:
        if e.is_response():
            yield e, state, t
            t += 1
        update_state(state, e)


@dataclass(frozen=True)
class _StudentRows:
    """One student's walk under one recipe: keyed entries plus labels."""

    events: Sequence[InteractionEvent]  # the walked sequence, to catch a different one
    responses: list[InteractionEvent]
    y: np.ndarray
    entries: _Entries


def _state_entries(
    walks: Sequence[Sequence[InteractionEvent]],
    plan: Sequence[tuple],
    recipe: Recipe,
    kc_graph: KCGraph | None,
    squash_map: Mapping[str, tuple[str, ...]] | None,
) -> tuple[np.ndarray, _Block]:
    """Block numbers and entries of the state families in `plan`, from one
    iter_contexts walk per student; rows count on across the students."""
    out: list[tuple] = []
    row_len: list[int] = []
    for events in walks:
        for event, state, _ in iter_contexts(events, kc_graph=kc_graph, squash_map=squash_map):
            start = len(out)
            for emitter, b, domain_codes, fam in plan:
                emitter(out, b, domain_codes, fam, recipe, state, event)
            row_len.append(len(out) - start)
    flat = np.fromiter(chain.from_iterable(out), dtype=np.float64, count=4 * len(out)).reshape(-1, 4)
    rows = np.repeat(np.arange(len(row_len)), row_len)
    entries = _Block(rows, flat[:, 1].astype(np.int64), flat[:, 2].astype(np.int64), flat[:, 3])
    return flat[:, 0].astype(np.int16), entries


def _walk(
    walks: Mapping[str, Sequence[InteractionEvent]],
    recipe: Recipe,
    kc_graph: KCGraph | None,
    squash_map: Mapping[str, tuple[str, ...]] | None,
    codes: dict[str, _Codes],
) -> list[_StudentRows]:
    """The rows of several students (id -> events) under one recipe, in the given order.

    The array emitters write their blocks for all the students at once;
    when the recipe holds a state family, iter_contexts walks each
    student for the state emitters.  A stable sort on row merges the
    blocks, and the result is split back per student.
    """
    batch = _Batch(list(walks.values()), codes)
    blocks: list[tuple[np.ndarray, _Block]] = []
    plan = []  # (emitter, block, domain codes, family) of each state family
    for b, (fam, domain) in enumerate(zip(recipe.families, recipe._layout.domains)):
        kind = _KINDS[fam.kind]
        if kind.state:
            plan.append((kind.emitter, b, None if domain is None else codes.setdefault(domain, _Codes()), fam))
        else:
            entries = kind.emitter(batch, domain, fam, recipe)
            blocks.append((np.full(len(entries.row), b, dtype=np.int16), entries))
    if plan:
        blocks.append(_state_entries(list(walks.values()), plan, recipe, kc_graph, squash_map))

    row = np.concatenate([e.row for _, e in blocks])
    order = np.argsort(row, kind="stable")
    block = np.concatenate([numbers for numbers, _ in blocks])[order]
    code = np.concatenate([e.code for _, e in blocks])[order].astype(np.int32)
    slot = np.concatenate([e.slot for _, e in blocks])[order].astype(np.int32)
    value = np.concatenate([e.value for _, e in blocks])[order]
    row_len = np.bincount(row, minlength=batch.n)
    ends = np.zeros(batch.n + 1, dtype=np.int64)  # each row's first entry, then the total
    np.cumsum(row_len, out=ends[1:])
    corrects, attempts = batch.scope("total").totals.T
    y = batch.y.astype(np.float64)
    parts = []
    for s, events in enumerate(walks.values()):
        r0, r1 = batch.bounds[s], batch.bounds[s + 1]
        e0, e1 = ends[r0], ends[r1]
        entries = _Entries(
            block[e0:e1], code[e0:e1], slot[e0:e1], value[e0:e1],
            row_len[r0:r1], corrects[r0:r1], attempts[r0:r1],
        )
        parts.append(_StudentRows(events, batch.per_student[s], y[r0:r1], entries))
    return parts


class RowStore:
    """Keyed rows of one dataset, walked once per (recipe, student).

    A row's keyed entries depend only on the student's own history and
    the recipe's walk parameters (families, n_recent, windows), never on
    a fold, so every fold, partition, base and stacking split of a
    dataset shares them.  Filling is lazy and under a lock, so folds
    running in threads walk each student once; the students one call
    misses are walked together, in one batch.  One store serves one
    dataset's KC graph and squash map.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: dict[tuple, dict[str, _StudentRows]] = {}
        self._codes: dict[str, _Codes] = {}
        self._context: tuple | None = None
        self.students_walked = 0
        self.rows_walked = 0
        self.rows_served = 0

    def counts(self) -> dict[str, int]:
        return {
            "students_walked": self.students_walked,
            "rows_walked": self.rows_walked,
            "rows_served": self.rows_served,
        }

    def rows(
        self,
        students: Mapping[str, Sequence[InteractionEvent]],
        recipe: Recipe,
        kc_graph: KCGraph | None,
        squash_map: Mapping[str, tuple[str, ...]] | None,
    ) -> tuple[list[_StudentRows], dict[str, list[str]]]:
        """Rows of the given students in sorted-id order, walking the missing
        ones, plus each domain's keys in code order."""
        with self._lock:
            if self._context is None:
                self._context = (kc_graph, squash_map)
            elif self._context[0] is not kc_graph or self._context[1] is not squash_map:
                raise ConfigError("a row store serves one KC graph and squash map")
            by_student = self._rows.setdefault((recipe.families, recipe.n_recent, recipe.tw), {})
            sids = sorted(students)
            missing = {}
            for sid in sids:
                part = by_student.get(sid)
                if part is None:
                    missing[sid] = students[sid]
                elif part.events is not students[sid]:
                    raise ConfigError(f"student {sid!r}: events differ from the ones this store walked")
            if missing:
                walked = _walk(missing, recipe, kc_graph, squash_map, self._codes)
                by_student.update(zip(missing, walked))
                self.students_walked += len(walked)
                self.rows_walked += sum(len(p.responses) for p in walked)
            parts = [by_student[sid] for sid in sids]
            self.rows_served += sum(len(p.responses) for p in parts)
            return parts, {d: list(c) for d, c in self._codes.items()}


# Entries placed per step of build_matrix; bounds the placement's
# temporaries, several times the size of the entries they place.
_CHUNK_ENTRIES = 1 << 12


def _chunks(parts: Sequence[_StudentRows]) -> Iterator[list[_StudentRows]]:
    """Consecutive runs of whole students holding about _CHUNK_ENTRIES entries."""
    chunk: list[_StudentRows] = []
    size = 0
    for part in parts:
        chunk.append(part)
        size += len(part.entries.value)
        if size >= _CHUNK_ENTRIES:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _used_keys(
    parts: Sequence[_StudentRows], domains: Sequence[str | None], keys: Mapping[str, Sequence[str]]
) -> dict[str, list[str]]:
    """Per vocabulary domain of a recipe's blocks, the keys those blocks use in the rows."""
    starts, base = _key_starts(domains, keys)
    used = np.zeros(sum(len(keys[d]) for d in starts), dtype=bool)
    for chunk in _chunks(parts):
        block = np.concatenate([p.entries.block for p in chunk])
        code = np.concatenate([p.entries.code for p in chunk])
        keyed = code >= 0
        used[base[block[keyed]] + code[keyed]] = True
    return {d: [keys[d][i] for i in np.flatnonzero(used[s : s + len(keys[d])])] for d, s in starts.items()}


@dataclass
class ExtractResult:
    """Stacked training examples for one encoder."""

    X: sp.csr_matrix
    y: np.ndarray
    t: np.ndarray
    events: list[InteractionEvent]


def build_matrix(
    students: Mapping[str, Sequence[InteractionEvent]],
    encoder: Encoder,
    kc_graph: KCGraph | None = None,
    squash_map: Mapping[str, tuple[str, ...]] | None = None,
    store: RowStore | None = None,
) -> ExtractResult:
    """Extract features for every response of every given student.

    Keyed rows come from `store` (a dataset's `feature_rows`; a
    throwaway store when None), which walks each student once per
    recipe; the encoder's vocabularies, offsets and rbar place them.
    """
    store = RowStore() if store is None else store
    parts, keys = store.rows(students, encoder.recipe, kc_graph, squash_map)
    placer = _Placer(encoder, keys)
    n = sum(len(p.responses) for p in parts)
    total = sum(len(p.entries.value) for p in parts)
    row_nnz = np.zeros(n, dtype=np.int64)
    indices = np.empty(total, dtype=np.int64)
    data = np.empty(total, dtype=np.float64)
    row = at = 0
    for chunk in _chunks(parts):
        counts, cols, values = placer.place(_Entries.concat([p.entries for p in chunk]))
        row_nnz[row : row + len(counts)] = counts
        indices[at : at + len(cols)] = cols
        data[at : at + len(cols)] = values
        row += len(counts)
        at += len(cols)
    if at < total:  # entries dropped: unseen keys, zero values
        indices, data = indices[:at].copy(), data[:at].copy()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=indptr[1:])
    return ExtractResult(
        X=sp.csr_matrix((data, indices, indptr), shape=(n, encoder.dim)),
        y=np.concatenate([p.y for p in parts] or [np.zeros(0, dtype=np.float64)]),
        t=np.concatenate(
            [np.arange(len(p.responses), dtype=np.int64) for p in parts] or [np.zeros(0, dtype=np.int64)]
        ),
        events=[e for p in parts for e in p.responses],
    )
