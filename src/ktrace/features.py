"""Feature extraction: recipes, encoders and emission.

A Recipe is an ordered list of feature families.  An Encoder binds a
recipe to a training fold: it fixes the categorical vocabularies, the
per-family block offsets, the total dimension, and the training-fold
mean correctness (rbar) used by the smoothed average.  Emission maps
(student state, upcoming question) to features using only events
strictly before the question.

Everything known about a family kind sits in its one row of the
`_KINDS` table: the variants it takes, the manifest capability it needs
(its event field's or material tally's flag in the `core` schema
tables, or either graph flag), the vocabulary its block is indexed by,
the block width, and the emitter that writes the block.  Family
validation, capability gating, encoder fitting and emission all read
that row, so a new family is one row plus one emitter.

Emitters write keyed rows, which no fold changes: per entry the block,
the vocabulary key's code (or none), the slot within the key's columns
and the value.  Every family is a prefix function of one student's
events, and its emitter writes its block for a whole batch of students
at once, from arrays over the batch's responses: grouped cumulative
sums over (student), (student, question), (student, KC) and (student,
module or part) for the counts, `np.searchsorted` on (group, timestamp)
keys for the windows, shifted labels for the pattern, shifted elapsed
times and response ends for elapsed and lag time, the UTC date of each
timestamp for datetime, and running sums, in event order, of the
increments a group's earlier events made for the graph-node counts and
the material tallies.  Each `ingest.Dataset` owns a RowStore, built
from its students, manifest, KC graph and squash map; a recipe's first
call walks all of the dataset's students once, in runs of about 2^16
responses, and keeps the entries as flat arrays; that one walk serves
every fold's encoder and matrices.
Extraction therefore takes a dataset and student ids:
`fit_encoders(dataset, ids, recipe)` takes each vocabulary from the keys
its blocks use in those students' rows and rbar from their labels;
`build_matrix(dataset, ids, encoder)` remaps the entries for an encoder
with one vectorized lookup, column = block offset + vocabulary index *
slots + slot, dropping keys the fold's vocabulary lacks, and computes
the smoothed average from stored correct/attempt counts and the fold's
rbar.
One prediction's features are a row of a one-student `build_matrix`.

Counts and time values pass through scale() = ln(1+x), array counts
through a table that scale() fills.  Time-window counts use the
WINDOWS_S windows, then all time; a prior response falls into a window
when its age is strictly less than the window length (its timestamp
exceeds now - seconds).  The response pattern is the last N_RECENT
answers, and the smoothed average shrinks toward rbar with weight ETA.
Lag time is a value of the walk, not of the event: `core.response_lags`
of the student's responses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from datetime import date, timedelta
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    response_lags,
    scale,
)

if TYPE_CHECKING:
    from ktrace.ingest import Dataset

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


# tw_counts' finite windows in whole seconds (1 hour, 1 day, 1 week, 30 days), then all time
WINDOWS_S: tuple[int, ...] = (3600, 86400, 604800, 2592000)
# response_pattern's one-hot covers the last N_RECENT answers
N_RECENT = 10
# smoothed_avg_correct's weight on the training-fold mean
ETA = 5.0


@dataclass(frozen=True)
class Recipe:
    """Ordered feature families."""

    families: tuple[FeatureFamily, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature families in recipe")
        if not self.families:
            raise ConfigError("recipe needs at least one family")

    @cached_property
    def _layout(self) -> "_Layout":
        """Vocabulary domain and columns per key of each block (see _Placer)."""
        return _Layout.of(self)

    def to_json(self) -> dict:
        return {"version": 1, "families": [f.name for f in self.families]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Recipe":
        unknown = sorted(set(obj) - {"version", "families"})
        if unknown:
            # a recipe fitted with other time windows, pattern length or smoothing weight
            raise ConfigError(f"recipe keys {', '.join(map(repr, unknown))} are not read; refit the model")
        return cls(families=tuple(FeatureFamily.parse(n) for n in obj["families"]))


# ---------------------------------------------------------------------------
# Binning and scalar helpers

ELAPSED_MAX_S = 300
LAG_CATEGORIES_MIN: tuple[int, ...] = tuple(range(6)) + tuple(range(10, 1441, 10))


def _scaled(x: np.ndarray) -> np.ndarray:
    """scale() of each value: math.log1p, since np.log1p may differ in the last bit."""
    return np.fromiter(map(scale, x.tolist()), np.float64, len(x))


def elapsed_bins(seconds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elapsed-time categories (whole seconds, capped at 300) and scaled
    values of an array of seconds."""
    seconds = np.asarray(seconds, dtype=np.float64)
    if np.any(seconds < 0):
        raise ValueError("elapsed time must be >= 0")
    return np.minimum(np.floor(seconds), ELAPSED_MAX_S).astype(np.int64), _scaled(seconds)


def lag_bins(minutes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lag-time category indices and scaled values of an array of minutes.

    Minutes are rounded half-up to an integer, then mapped to the
    largest listed category value not exceeding them; values above 1440
    fall into the final category.
    """
    minutes = np.asarray(minutes, dtype=np.float64)
    if np.any(minutes < 0):
        raise ValueError("lag time must be >= 0")
    whole = np.floor(minutes + 0.5)
    return np.searchsorted(LAG_CATEGORIES_MIN, whole, side="right") - 1, _scaled(minutes)


def smoothed_avg_correct(corrects, attempts, rbar: float):
    """Average correctness shrunk toward the training mean rbar, with weight ETA.

    Takes counts or equal-shaped arrays of counts (elementwise).
    """
    corrects = np.asarray(corrects)
    attempts = np.asarray(attempts)
    if np.any(corrects < 0) or np.any(attempts < corrects):
        raise ValueError("need 0 <= corrects <= attempts")
    if not 0.0 <= rbar <= 1.0:
        raise ValueError("rbar must be in [0, 1]")
    return (corrects + ETA * rbar) / (attempts + ETA)


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


def check_recipe_supported(recipe: Recipe, manifest: DatasetManifest, kc_graph: KCGraph | None) -> None:
    gaps = [f.name for f in recipe.families if not f.allowed_by(manifest)]
    if gaps:
        raise ConfigError(
            f"dataset {manifest.name!r} does not support feature families: {', '.join(gaps)}"
        )
    needs_graph = [f.name for f in recipe.families if _KINDS[f.kind].domain(f.variant) == "graph_node"]
    if needs_graph and kc_graph is None:
        raise ConfigError(
            f"families {', '.join(needs_graph)} need a prerequisite graph, none was provided"
        )


def fit_encoders(dataset: Dataset, student_ids: Iterable[str], recipe: Recipe) -> Encoder:
    """Build the encoder for a recipe from the keyed rows of the dataset's
    students `student_ids` (a training fold).

    The rows come from the dataset's RowStore, so one walk per recipe
    serves the encoder and every matrix built on the dataset.  A domain's
    vocabulary is the keys its blocks use in those rows, indexed in
    sorted order; `graph_node` takes the graph's nodes.  A domain read
    only by keyed counts blocks thus lacks keys no training row counts,
    whose columns could only hold zero weight.  rbar is the rows' mean
    label.
    """
    store = dataset.feature_rows
    parts, keys = store.rows(student_ids, recipe)
    attempts = sum(len(p.responses) for p in parts)
    if attempts == 0:
        raise ConfigError("cannot fit encoders: no question responses in training data")

    used = _used_keys(parts, recipe._layout.domains, keys)
    vocabs = {d: {k: i for i, k in enumerate(sorted(ks))} for d, ks in used.items()}
    if "graph_node" in vocabs:
        vocabs["graph_node"] = {n: i for i, n in enumerate(store.kc_graph.nodes)}

    blocks: list[tuple[FeatureFamily, int, int]] = []
    offset = 0
    for fam in recipe.families:
        size = _KINDS[fam.kind].width(fam, vocabs)
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
# Emission: keyed entries
#
# A block's entries are (row, key code, slot, value).  Blocks indexed by a
# vocabulary (student, question, KC, ...) give the key's code in that
# domain's _Codes and the slot within the key's group of columns; other
# blocks give code -1 and the column within the block.  Nothing an emitter
# writes depends on a fold: _Placer puts the entries in an encoder's
# columns.
#
# Each family kind has one emitter, which writes its block for every
# response of a batch of students at once from the arrays of a _Batch.
# Arrays only some families read (elapsed and lag times, dates, the
# merged event stream, graph nodes) are made the first time one asks.

class _Codes(dict):
    """Dense integer codes for one vocabulary domain's keys, in first-seen order."""

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


def _block(rows: np.ndarray, code=-1, slot=0, value=1.0) -> _Block:
    """Entries at `rows`; code, slot and value are one value or one per row."""
    shape = rows.shape
    return _Block(rows, np.broadcast_to(code, shape), np.broadcast_to(slot, shape), np.broadcast_to(value, shape))


def _join(*blocks: _Block) -> _Block:
    """The entries of several blocks as one."""
    return _Block(*(np.concatenate(parts) for parts in zip(*blocks)))


def _check_order(walks: Sequence[Sequence[InteractionEvent]]) -> None:
    """Raise a SequencingError at a student's first event that goes back in time."""
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

    def windows(self) -> np.ndarray:
        """(corrects, attempts) before each pair within each WINDOWS_S window, in columns.

        A prior response is inside when its age is strictly less than the
        window: its timestamp exceeds the cutoff now - seconds, exact in
        int64.  Searching (group, timestamp) keys for that counts the
        group's responses outside; the keys are sorted because
        _check_order holds every student's events in time order.
        """
        out = np.zeros((len(self.ts), 2 * len(WINDOWS_S)), dtype=np.int64)
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
        for j, wsec in enumerate(WINDOWS_S):
            inside = np.searchsorted(keys, base + np.maximum(ts - wsec - t0 + 1, 0), side="right")
            out[:, 2 * j] = before - self.cum[inside]
            out[:, 2 * j + 1] = first - inside
        return out


def _running_sums(value: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Running sums of `value` (along its first axis) that restart wherever
    `first` is set.  Each sum adds one value to the sum before it, in order,
    as a loop would: a global cumulative sum minus a group's start differs
    in the last bit (0.1 + 0.2 then 0.3 gives 0.30000000000000004 for the
    third value's group alone).  One step per position within the longest
    group, over all groups at once.
    """
    at = np.arange(len(value))
    rank = at - np.maximum.accumulate(np.where(first, at, 0))
    out = value.astype(np.float64)
    by_rank = np.argsort(rank, kind="stable")
    ends = np.cumsum(np.bincount(rank)).tolist()
    for lo, hi in zip(ends, ends[1:]):
        i = by_rank[lo:hi]
        out[i] += out[i - 1]
    return out


def _sums_before(group, at, amount, q_group, q_at) -> np.ndarray:
    """Per query (group, position), the sum of the amounts that its group's
    increments (group, position, amount) have at earlier positions, added
    in position order from 0.0.  An increment at a query's own position
    does not count.  `amount` may have columns, summed separately."""
    n_inc = len(group)
    is_increment = np.arange(n_inc + len(q_group)) < n_inc
    g = np.concatenate((group, q_group))
    order = np.lexsort((is_increment, np.concatenate((at, q_at)), g))  # queries first at a position
    value = np.zeros((len(g),) + amount.shape[1:])
    value[:n_inc] = amount
    g = g[order]
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    sums = _running_sums(value[order], first)  # a query adds 0.0, which changes no sum
    out = np.empty((len(q_group),) + amount.shape[1:])
    query = ~is_increment[order]
    out[order[query] - n_inc] = sums[query]
    return out


def _nodes(graph: KCGraph, which: str, squash_map: Mapping, question_id: str | None, kc_ids: tuple) -> list[str]:
    """Graph nodes of a response, by its pre-squash KCs: those it counts
    toward ("counted", each once), or the sorted nodes one `which` step
    ("prereqs_of" or "postreqs_of") away from its own nodes."""
    kcs = tuple(dict.fromkeys(chain.from_iterable(squash_map.get(k, (k,)) for k in kc_ids)))
    if which == "counted":
        keys = (question_id,) if graph.node_kind == "question" else kcs
        return list(dict.fromkeys(chain.from_iterable(graph.nodes_counting.get(k, ()) for k in keys)))
    step = getattr(graph, which)
    return sorted(set(chain.from_iterable(map(step, graph.nodes_for_event(question_id, kcs)))))


_EVENT_CODES = {kind: i for i, kind in enumerate(EventKind)}
_EPOCH = date(1970, 1, 1)


class _Stream(NamedTuple):
    """A batch's events, responses and material ones, end to end in walk order."""

    student: np.ndarray  # per event
    amounts: dict[str, np.ndarray]  # per material tally, what each event adds to it
    kc_event: np.ndarray  # per (event, listed KC) pair, the event
    kc_code: np.ndarray  # and the KC's code
    row_at: np.ndarray  # per row, its response's event


def _floats(objects: Sequence, attr: str) -> np.ndarray:
    """Each object's `attr` as float64, NaN for None."""
    return np.array(list(map(attrgetter(attr), objects)), dtype=np.float64)


class _Batch:
    """The responses of several students' walks laid end to end, as arrays.

    Row r is the batch's r-th response: students in the given order, each
    student's responses in walk order.  Key codes come from the store's
    per-domain _Codes, so every block and scope of a domain shares them.
    """

    def __init__(self, walks: Sequence[Sequence[InteractionEvent]], codes: dict[str, _Codes],
                 kc_graph: KCGraph | None, squash_map: Mapping[str, tuple[str, ...]] | None):
        _check_order(walks)
        self.walks = walks
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
        self.kc_graph = kc_graph
        self.squash_map = squash_map or {}
        self._coded: dict[tuple[str, str], np.ndarray] = {}
        self._scopes: dict[str, _Scope] = {}
        self._graph_nodes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
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

    def scope(self, key: str) -> _Scope:
        """Counts before each row ("total"), each (row, KC) pair ("kc"), or
        each row on its value of the event field a domain names ("question",
        "study_module", "part_area"); a row whose field is None has no pair."""
        got = self._scopes.get(key)
        if got is None:
            if key == "total":
                row, code = np.arange(self.n), np.zeros(self.n, dtype=np.int64)
            elif key == "kc":
                row, code = self.kc_pairs
            else:
                code = self.coded(key, "question_id" if key == "question" else key)
                row = np.flatnonzero(code >= 0)
                code = code[row]
            group = self.student[row] * (int(code.max(initial=0)) + 1) + code
            got = self._scopes[key] = _Scope(group, row, code, self.ts[row], self.y[row])
        return got

    def count_entries(self, row: np.ndarray, code: np.ndarray, counts: np.ndarray) -> _Block:
        """Entries of the nonzero counts of each (row, code) pair: slot =
        column, value = scale(count).

        scale's values come from a table filled by scale itself
        (math.log1p), since np.log1p may differ in the last bit.
        """
        i, slot = np.nonzero(counts)
        counts = counts[i, slot]
        top = int(counts.max(initial=0))
        if top >= len(self._log1p):
            self._log1p = np.array([scale(c) for c in range(top + 1)])
        return _Block(row[i], code[i], slot, self._log1p[counts])

    @cached_property
    def elapsed(self) -> np.ndarray:
        """Each row's elapsed seconds, NaN without."""
        return _floats(self.responses, "elapsed_time_s")

    @cached_property
    def lags(self) -> np.ndarray:
        """Each row's lag time in seconds, NaN for a student's first response."""
        return response_lags(self.per_student)[0]

    def on_dates(self, column: Callable[[date], int]) -> np.ndarray:
        """Each row's `column` of the UTC date of its timestamp, one call per distinct date."""
        days, index = np.unique(self.ts // 86400, return_inverse=True)
        return np.array([column(_EPOCH + timedelta(days=d)) for d in days.tolist()], dtype=np.int64)[index]

    @cached_property
    def stream(self) -> _Stream:
        events = list(chain.from_iterable(self.walks))
        m = len(events)
        lens = np.fromiter(map(len, self.walks), np.int64, len(self.walks))
        kind = np.fromiter(map(_EVENT_CODES.__getitem__, map(attrgetter("kind"), events)), np.int64, m)
        hints, minutes = (np.nan_to_num(_floats(events, a)) for a in ("hint_count", "consumption_minutes"))
        # an event of a material kind adds 1.0 (a HintUse its hint_count or 1) to the tally its
        # count goes to and its minutes to its minutes tally; a response adds its hint_count to
        # the tally HintUse counts toward
        amounts: dict[str, np.ndarray] = {}
        for kind_, material in MATERIAL_KINDS.items():
            at = kind == _EVENT_CODES[kind_]
            count = np.where(hints[at] != 0, hints[at], 1.0) if kind_ is EventKind.HINT_USE else 1.0
            amounts.setdefault(material.count, np.zeros(m))[at] = count
            if material.minutes:
                amounts.setdefault(material.minutes, np.zeros(m))[at] = minutes[at]
        row_at = np.flatnonzero(kind == _EVENT_CODES[EventKind.QUESTION_RESPONSE])
        amounts[MATERIAL_KINDS[EventKind.HINT_USE].count][row_at] = hints[row_at]
        kcs = list(map(attrgetter("kc_ids"), events))
        kc_event = np.repeat(np.arange(m), np.fromiter(map(len, kcs), np.int64, m))
        kc_code = self.codes.setdefault("kc", _Codes()).codes_of(list(chain.from_iterable(kcs)))
        return _Stream(np.repeat(np.arange(len(lens)), lens), amounts, kc_event, kc_code, row_at)

    @cached_property
    def graph_keys(self) -> tuple[_Codes, np.ndarray]:
        """The rows' distinct (question_id, kc_ids), coded in first-seen order, and each row's code."""
        keys = _Codes()
        return keys, keys.codes_of(list(map(attrgetter("question_id", "kc_ids"), self.responses)))

    def graph_nodes(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """(row, graph-node code) pairs of each row's `_nodes(graph, which, ...)`,
        worked out once per distinct (question_id, kc_ids) of the batch."""
        got = self._graph_nodes.get(which)
        if got is None:
            keys, index = self.graph_keys
            codes = self.codes.setdefault("graph_node", _Codes())
            per_key = [codes.codes_of(_nodes(self.kc_graph, which, self.squash_map, *key)) for key in keys]
            lens = np.fromiter(map(len, per_key), np.int64, len(per_key))
            n = lens[index]
            row = np.repeat(np.arange(self.n), n)
            # row r's nodes are per_key[index[r]], laid end to end
            at = np.arange(len(row)) + np.repeat((np.cumsum(lens) - lens)[index] - (np.cumsum(n) - n), n)
            flat = np.concatenate(per_key) if per_key else np.zeros(0, dtype=np.int64)
            got = self._graph_nodes[which] = (row, flat[at])
        return got


# Emitters: (batch, domain, fam) -> _Block, the entries of the
# family's block for every row of the batch; domain is the block's
# vocabulary domain (None if it has none).

def _emit_bias(batch, domain, fam) -> _Block:
    return _block(np.arange(batch.n))


def _one_hot(attr: str | None):
    """Emitter for the one-hot of an event field (None: the field the variant names)."""

    def emit_one_hot(batch, domain, fam) -> _Block:
        code = batch.coded(domain, attr or fam.variant)
        rows = np.flatnonzero(code >= 0)
        return _block(rows, code[rows])

    return emit_one_hot


def _emit_kc(batch, domain, fam) -> _Block:
    return _block(*batch.kc_pairs)


def _counts(key: str | None = None):
    """Emitter of the correct/attempt counts before each pair of the batch's
    scope `key` (None: the scope the variant names)."""

    def emit_counts(batch, domain, fam) -> _Block:
        scope = batch.scope(key or fam.variant)
        return batch.count_entries(scope.row, scope.code, scope.totals)

    return emit_counts


def _emit_tw_counts(batch, domain, fam) -> _Block:
    # the finite windows in ascending order, then the infinite one
    scope = batch.scope(fam.variant)
    counts = np.hstack((scope.windows(), scope.totals))
    return batch.count_entries(scope.row, scope.code, counts)


def _emit_response_pattern(batch, domain, fam) -> _Block:
    # once N_RECENT prior answers exist, their labels with the most recent in the low bit
    pattern = np.zeros(batch.n, dtype=np.int64)
    for i in range(1, N_RECENT + 1):
        pattern[i:] |= batch.y[:-i] << (i - 1)
    rows = np.flatnonzero(batch.prior >= N_RECENT)
    return _block(rows, slot=pattern[rows])


def _described(batch, fam) -> tuple[np.ndarray, np.ndarray]:
    """The rows whose variant describes a response, and that response's row:
    the row's own ("current") or the student's previous one ("prior")."""
    shift = int(fam.variant == "prior")
    rows = np.flatnonzero(batch.prior >= shift)
    return rows, rows - shift


def _binned(rows: np.ndarray, cat: np.ndarray, scaled: np.ndarray, value_slot: int) -> _Block:
    """A category one-hot per row, and the scaled value in `value_slot` where it is nonzero."""
    nonzero = np.flatnonzero(scaled)
    return _join(_block(rows, slot=cat), _block(rows[nonzero], slot=value_slot, value=scaled[nonzero]))


def _emit_elapsed_time(batch, domain, fam) -> _Block:
    rows, described = _described(batch, fam)
    secs = batch.elapsed[described]
    known = ~np.isnan(secs)
    return _binned(rows[known], *elapsed_bins(secs[known]), ELAPSED_MAX_S + 1)


def _emit_lag_time(batch, domain, fam) -> _Block:
    # the described response lacks a lag only when it is the student's first: the no-lag flag
    rows, described = _described(batch, fam)
    lag = batch.lags[described]
    first = np.isnan(lag)
    n_cat = len(LAG_CATEGORIES_MIN)
    return _join(_block(rows[first], slot=n_cat + 1), _binned(rows[~first], *lag_bins(lag[~first] / 60.0), n_cat))


# datetime variant -> (block width, each row's column from its UTC timestamp)
_DATETIME: dict[str, tuple[int, Callable[[_Batch], np.ndarray]]] = {
    "month": (12, lambda batch: batch.on_dates(lambda d: d.month - 1)),
    "week": (53, lambda batch: batch.on_dates(lambda d: d.isocalendar().week - 1)),  # ISO, not %W or %U
    "day": (7, lambda batch: batch.on_dates(date.weekday)),
    "hour": (24, lambda batch: batch.ts // 3600 % 24),
}


def _emit_datetime(batch, domain, fam) -> _Block:
    return _block(np.arange(batch.n), slot=_DATETIME[fam.variant][1](batch))


def _graph(step: str, counts: bool):
    """Emitter for the nodes one `step` ("prereqs_of" or "postreqs_of") away
    from each response's graph nodes: one-hots, or the student's correct and
    attempt counts on each node before the response."""

    def emit_graph(batch, domain, fam) -> _Block:
        row, node = batch.graph_nodes(step)
        if not counts:
            return _block(row, node)
        inc_row, inc_node = batch.graph_nodes("counted")
        width = len(batch.codes["graph_node"])
        before = _sums_before(
            batch.student[inc_row] * width + inc_node, inc_row,
            np.column_stack((batch.y[inc_row], np.ones(len(inc_row)))),
            batch.student[row] * width + node, row,
        )
        return batch.count_entries(row, node, before.astype(np.int64))

    return emit_graph


def _per_variant(value, variant: str | None):
    return value.get(variant) if isinstance(value, Mapping) else value


@dataclass(frozen=True)
class _Kind:
    """Everything this module knows about one family kind.

    `flags`, `vocab` and `slots` hold one value for every variant, or a
    dict keyed by variant.  A block has `slots` columns per entry of its
    vocabulary, or `slots` columns in all when it has none.
    """

    emitter: Callable[..., _Block]
    variants: tuple[str, ...] | None = None
    flags: tuple[str, ...] | Mapping[str, tuple[str, ...]] = ()  # any one suffices
    vocab: str | Mapping[str, str] | None = None
    slots: int | Mapping[str, int] = 1

    def needs(self, variant: str | None) -> tuple[str, ...]:
        return _per_variant(self.flags, variant)

    def domain(self, variant: str | None) -> str | None:
        return _per_variant(self.vocab, variant)

    def per_entry(self, variant: str | None) -> int:
        return _per_variant(self.slots, variant)

    def width(self, fam: FeatureFamily, vocabs: Mapping[str, Mapping[str, int]]) -> int:
        per = self.per_entry(fam.variant)
        domain = self.domain(fam.variant)
        return per if domain is None else per * len(vocabs[domain])


def _material(tally: str) -> _Kind:
    """Row of a family writing a material tally before each response, in
    total and summed over the response's listed KCs, gated by the flag of
    the MATERIAL_KINDS row that fills the tally."""

    def emit_tally(batch, domain, fam) -> _Block:
        stream = batch.stream
        amount = stream.amounts[tally]
        event = np.flatnonzero(amount)
        total = _sums_before(stream.student[event], event, amount[event], batch.student, stream.row_at)
        # per (student, KC), read at each listed KC of the response, duplicates too
        row, code = batch.kc_pairs
        pair = np.flatnonzero(amount[stream.kc_event])
        event = stream.kc_event[pair]
        width = len(batch.codes["kc"])
        per_kc = _sums_before(
            stream.student[event] * width + stream.kc_code[pair], event, amount[event],
            batch.student[row] * width + code, stream.row_at[row],
        )
        # summed over the response's KCs in listed order, as sum() adds them
        first = np.ones(len(row), dtype=bool)
        first[1:] = row[1:] != row[:-1]
        last = np.flatnonzero(np.append(first[1:], True)[: len(row)])  # none when no response lists a KC
        related = np.zeros(batch.n)
        related[row[last]] = _running_sums(per_kc, first)[last]
        blocks = []
        for slot, sums in enumerate((total, related)):
            rows = np.flatnonzero(sums)
            blocks.append(_block(rows, slot=slot, value=_scaled(sums[rows])))
        return _join(*blocks)

    flag = next(m.flag for m in MATERIAL_KINDS.values() if tally in (m.count, m.minutes))
    return _Kind(emit_tally, flags=(flag,), slots=2)


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
    "counts": _Kind(_counts(), _SCOPES, vocab={"kc": "kc"}, slots=2),
    "tw_counts": _Kind(_emit_tw_counts, _SCOPES, vocab={"kc": "kc"}, slots=2 * (len(WINDOWS_S) + 1)),
    # categories, then the scaled value (and the no-lag flag for lag time)
    "elapsed_time": _Kind(_emit_elapsed_time, _NOW_OR_PRIOR, flags=_ELAPSED, slots=ELAPSED_MAX_S + 2),
    "lag_time": _Kind(_emit_lag_time, _NOW_OR_PRIOR, flags=_ELAPSED, slots=len(LAG_CATEGORIES_MIN) + 2),
    "datetime": _Kind(_emit_datetime, tuple(_DATETIME), slots={v: width for v, (width, _) in _DATETIME.items()}),
    "study_module": _Kind(_one_hot("study_module"), flags=_FIELD_FLAGS["study_module"], vocab="study_module"),
    "study_module_counts": _Kind(
        _counts("study_module"), flags=_FIELD_FLAGS["study_module"], vocab="study_module", slots=2
    ),
    "context": _Kind(
        _one_hot(None),
        _CONTEXT_FIELDS,
        flags={v: _FIELD_FLAGS[v] for v in _CONTEXT_FIELDS},
        vocab={v: v for v in _CONTEXT_FIELDS},
    ),
    "part_area_counts": _Kind(_counts("part_area"), flags=_FIELD_FLAGS["part_area"], slots=2),
    "prereq_ids": _Kind(_graph("prereqs_of", False), flags=_GRAPH, vocab="graph_node"),
    "prereq_counts": _Kind(_graph("prereqs_of", True), flags=_GRAPH, vocab="graph_node", slots=2),
    "postreq_ids": _Kind(_graph("postreqs_of", False), flags=_GRAPH, vocab="graph_node"),
    "postreq_counts": _Kind(_graph("postreqs_of", True), flags=_GRAPH, vocab="graph_node", slots=2),
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
    "response_pattern": _Kind(_emit_response_pattern, slots=1 << N_RECENT),
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
            [0 if d is None else _KINDS[f.kind].per_entry(f.variant) for f, d in zip(recipe.families, domains)],
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
            value[at] = smoothed_avg_correct(entries.corrects[r], entries.attempts[r], encoder.rbar)
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

@dataclass(frozen=True)
class _StudentRows:
    """One student's walk under one recipe: keyed entries plus labels."""

    responses: list[InteractionEvent]
    y: np.ndarray
    entries: _Entries


def _walk(
    walks: Mapping[str, Sequence[InteractionEvent]],
    recipe: Recipe,
    kc_graph: KCGraph | None,
    squash_map: Mapping[str, tuple[str, ...]] | None,
    codes: dict[str, _Codes],
) -> list[_StudentRows]:
    """The rows of several students (id -> events) under one recipe, in the given order.

    Each family's emitter writes its block for all the students at once;
    a stable sort on row merges the blocks, and the result is split back
    per student.
    """
    batch = _Batch(list(walks.values()), codes, kc_graph, squash_map)
    blocks: list[tuple[np.ndarray, _Block]] = []
    for b, (fam, domain) in enumerate(zip(recipe.families, recipe._layout.domains)):
        entries = _KINDS[fam.kind].emitter(batch, domain, fam)
        if domain is None:  # a block without a vocabulary has no key codes
            entries = entries._replace(code=np.broadcast_to(-1, entries.row.shape))
        blocks.append((np.full(len(entries.row), b, dtype=np.int16), entries))

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
    for s in range(len(walks)):
        r0, r1 = batch.bounds[s], batch.bounds[s + 1]
        e0, e1 = ends[r0], ends[r1]
        entries = _Entries(
            block[e0:e1], code[e0:e1], slot[e0:e1], value[e0:e1],
            row_len[r0:r1], corrects[r0:r1], attempts[r0:r1],
        )
        parts.append(_StudentRows(batch.per_student[s], y[r0:r1], entries))
    return parts


class RowStore:
    """Keyed rows of one dataset's students, walked once per recipe.

    A row's keyed entries depend only on the student's own history and
    the recipe's families, never on a fold, so every fold, partition, base and stacking split of a
    dataset shares them.  The store is built from the dataset's
    students, manifest, KC graph and squash map (`ingest.Dataset` makes
    it and is frozen, so they never change under it).  A recipe's first
    call walks every student, in sorted-id order and in runs of whole
    students holding at most _WALK_RESPONSES responses (a longer student
    runs alone), which bounds the walk's temporaries; later calls walk
    nothing.  Filling is under a lock, so folds running in threads walk
    each student once.
    """

    def __init__(
        self,
        students: Mapping[str, Sequence[InteractionEvent]],
        manifest: DatasetManifest,
        kc_graph: KCGraph | None,
        squash_map: Mapping[str, tuple[str, ...]] | None,
    ) -> None:
        self.students = students
        self.manifest = manifest
        self.kc_graph = kc_graph
        self.squash_map = squash_map
        self._lock = threading.Lock()
        self._rows: dict[tuple[FeatureFamily, ...], dict[str, _StudentRows]] = {}
        self._codes: dict[str, _Codes] = {}
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
        self, student_ids: Iterable[str], recipe: Recipe
    ) -> tuple[list[_StudentRows], dict[str, list[str]]]:
        """Rows of the given students in sorted-id order, plus each domain's
        keys in code order.  A recipe the dataset cannot serve is a
        ConfigError before any walk."""
        check_recipe_supported(recipe, self.manifest, self.kc_graph)
        with self._lock:
            by_student = self._rows.get(recipe.families)
            if by_student is None:  # kept only once every run is walked, so a failed walk fails again
                by_student = {}
                for run in _runs({sid: self.students[sid] for sid in sorted(self.students)}):
                    by_student.update(zip(run, _walk(run, recipe, self.kc_graph, self.squash_map, self._codes)))
                self._rows[recipe.families] = by_student
                self.students_walked += len(by_student)
                self.rows_walked += sum(len(p.responses) for p in by_student.values())
            parts = [by_student[sid] for sid in sorted(student_ids)]
            self.rows_served += sum(len(p.responses) for p in parts)
            return parts, {d: list(c) for d, c in self._codes.items()}


# Responses walked at a time, unless one student holds more.  This bounds the
# walk's temporaries: walking best-lr+ over 1M responses in one batch lifted
# peak RSS to 2.6 GB, and in runs of this size to 1.0 GB.
_WALK_RESPONSES = 1 << 16

_kind_of = attrgetter("kind")


def _runs(walks: Mapping[str, Sequence[InteractionEvent]]) -> Iterator[dict[str, Sequence[InteractionEvent]]]:
    """Consecutive runs of whole students holding at most _WALK_RESPONSES
    responses; a student holding more runs alone."""
    run: dict[str, Sequence[InteractionEvent]] = {}
    size = 0
    for sid, events in walks.items():
        n = list(map(_kind_of, events)).count(EventKind.QUESTION_RESPONSE)
        if run and size + n > _WALK_RESPONSES:
            yield run
            run, size = {}, 0
        run[sid] = events
        size += n
    if run:
        yield run


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


def build_matrix(dataset: Dataset, student_ids: Iterable[str], encoder: Encoder) -> ExtractResult:
    """Extract features for every response of the dataset's students
    `student_ids`, in sorted-id order.

    Keyed rows come from the dataset's RowStore, which walks each
    student once per recipe; the encoder's vocabularies, offsets and
    rbar place them.
    """
    parts, keys = dataset.feature_rows.rows(student_ids, encoder.recipe)
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
