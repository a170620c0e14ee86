"""Feature extraction: recipes, encoders and emission.

A Recipe is an ordered list of feature families.  An Encoder binds a
recipe to a training fold: it fixes the categorical vocabularies and
the training-fold mean correctness (rbar) used by the smoothed average;
the per-family block offsets and the total dimension follow from the
vocabularies (`_blocks`).  Emission maps
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
responses, with each vocabulary's keys coded in sorted order, so the
walk places every entry once, in its column of one dataset-wide CSR
matrix: that of an encoder holding every key of the dataset.  That one
walk serves every fold's encoder and matrices.
Extraction therefore takes a dataset and student ids:
`fit_encoders(dataset, ids, recipe)` takes each vocabulary from the
global columns those students' rows use and rbar from their labels;
`build_matrix(dataset, ids, encoder)` gathers the students' rows and
maps their columns through the encoder's table, global column ->
encoder column (block offset + vocabulary index * slots + slot), which
keeps each row ordered, dropping keys the fold's vocabulary lacks, and
computes the smoothed average from stored correct/attempt counts and
the fold's rbar.
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
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

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
        """Vocabulary domain and slots of each block (see _Layout)."""
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
    """A recipe bound to training-fold vocabularies and mean correctness;
    its blocks (family, offset, width) and dimension follow from them."""

    recipe: Recipe
    vocabs: dict[str, dict[str, int]]
    rbar: float

    def __post_init__(self) -> None:
        blocks, dim = _blocks(self.recipe, self.vocabs)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "dim", dim)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "recipe": self.recipe.to_json(),
            "vocabs": {d: dict(sorted(v.items())) for d, v in sorted(self.vocabs.items())},
            "rbar": self.rbar,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Encoder":
        vocabs = {d: {k: int(i) for k, i in v.items()} for d, v in obj["vocabs"].items()}
        if any(sorted(v.values()) != list(range(len(v))) for v in vocabs.values()):
            raise ConfigError("an encoder vocabulary must index its n keys 0, ..., n - 1")
        return cls(recipe=Recipe.from_json(obj["recipe"]), vocabs=vocabs, rbar=float(obj["rbar"]))


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
    """Build the encoder for a recipe from the rows of the dataset's
    students `student_ids` (a training fold).

    The rows come from the dataset's RowStore, whose one walk per recipe
    serves the encoder and every matrix built on the dataset.  A domain's
    vocabulary is the keys whose columns of the dataset-wide matrix those
    rows use, indexed in sorted order; `graph_node` takes the graph's
    nodes.  A domain read only by keyed counts blocks thus lacks keys no
    training row counts, whose columns could only hold zero weight.  rbar
    is the rows' mean label.
    """
    rows, walked = dataset.feature_rows.rows(student_ids, recipe)
    if not len(rows):
        raise ConfigError("cannot fit encoders: no question responses in training data")
    in_rows = np.zeros(len(walked.frame.events), dtype=bool)
    in_rows[rows] = True
    used = np.zeros(walked.dim, dtype=bool)
    used[walked.indices[np.repeat(in_rows, np.diff(walked.indptr))]] = True
    hit = {d: np.full(len(keys), d == "graph_node") for d, keys in walked.keys.items()}  # every graph node
    for (_, g, size), domain, slots in zip(walked.blocks, walked.layout.domains, walked.layout.slots):
        if domain is not None:
            hit[domain] |= used[g : g + size].reshape(-1, slots).any(axis=1)
    vocabs = {d: {k: i for i, k in enumerate(compress(walked.keys[d], h))} for d, h in hit.items()}
    return Encoder(recipe=recipe, vocabs=vocabs, rbar=float(walked.frame.y[rows].sum()) / len(rows))


# ---------------------------------------------------------------------------
# Emission: keyed entries
#
# A block's entries are (row, key code, slot, value).  Blocks indexed by a
# vocabulary (student, question, KC, ...) give the key's code in that
# domain's _Codes and the slot within the key's group of columns; other
# blocks give code -1 and the column within the block.  Nothing an emitter
# writes depends on a fold: RowStore places the entries in one
# dataset-wide matrix per recipe, whose columns build_matrix maps to an
# encoder's.
#
# Each family kind has one emitter, which writes its block for every
# response of a batch of students at once from the arrays of a _Batch.
# Arrays only some families read (elapsed and lag times, dates, the
# merged event stream, graph nodes) are made the first time one asks.

# the event field a vocabulary domain's keys are values of, where the names
# differ (a domain of a context field is named after the field; "kc" reads kc_ids)
_FIELD = {"student": "student_id", "question": "question_id"}


class _Codes(dict):
    """Dense integer codes for one domain's keys: sorted for a recipe's
    vocabulary domains (RowStore codes them before its walk), else in
    first-seen order."""

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
    student's responses in walk order, as `per_student` holds them (the
    store's `_Frame` rows, so no walk filters them out of the events again).
    Key codes come from the store's per-domain _Codes, so every block and
    scope of a domain shares them.
    """

    def __init__(self, walks: Sequence[Sequence[InteractionEvent]],
                 per_student: Sequence[Sequence[InteractionEvent]], codes: dict[str, _Codes],
                 kc_graph: KCGraph | None, squash_map: Mapping[str, tuple[str, ...]] | None):
        _check_order(walks)
        self.walks = walks
        self.per_student = per_student
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
        self._coded: dict[str, np.ndarray] = {}
        self._scopes: dict[str, _Scope] = {}
        self._graph_nodes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._log1p = np.zeros(0)

    def coded(self, domain: str) -> np.ndarray:
        """Each row's code in `domain` of its value of the domain's event field (-1 for None)."""
        got = self._coded.get(domain)
        if got is None:
            values = list(map(attrgetter(_FIELD.get(domain, domain)), self.responses))
            got = self._coded[domain] = self.codes.setdefault(domain, _Codes()).codes_of(values)
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
                code = self.coded(key)
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
            at = _ranges((np.cumsum(lens) - lens)[index], n)  # row r's nodes are per_key[index[r]], end to end
            flat = np.concatenate(per_key) if per_key else np.zeros(0, dtype=np.int64)
            got = self._graph_nodes[which] = (row, flat[at])
        return got


# Emitters: (batch, domain, fam) -> _Block, the entries of the
# family's block for every row of the batch; domain is the block's
# vocabulary domain (None if it has none).

def _emit_bias(batch, domain, fam) -> _Block:
    return _block(np.arange(batch.n))


def _emit_one_hot(batch, domain, fam) -> _Block:
    code = batch.coded(domain)
    rows = np.flatnonzero(code >= 0)
    return _block(rows, code[rows])


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
    "student": _Kind(_emit_one_hot, vocab="student"),
    "question": _Kind(_emit_one_hot, vocab="question"),
    "kc": _Kind(_emit_kc, vocab="kc"),
    "counts": _Kind(_counts(), _SCOPES, vocab={"kc": "kc"}, slots=2),
    "tw_counts": _Kind(_emit_tw_counts, _SCOPES, vocab={"kc": "kc"}, slots=2 * (len(WINDOWS_S) + 1)),
    # categories, then the scaled value (and the no-lag flag for lag time)
    "elapsed_time": _Kind(_emit_elapsed_time, _NOW_OR_PRIOR, flags=_ELAPSED, slots=ELAPSED_MAX_S + 2),
    "lag_time": _Kind(_emit_lag_time, _NOW_OR_PRIOR, flags=_ELAPSED, slots=len(LAG_CATEGORIES_MIN) + 2),
    "datetime": _Kind(_emit_datetime, tuple(_DATETIME), slots={v: width for v, (width, _) in _DATETIME.items()}),
    "study_module": _Kind(_emit_one_hot, flags=_FIELD_FLAGS["study_module"], vocab="study_module"),
    "study_module_counts": _Kind(
        _counts("study_module"), flags=_FIELD_FLAGS["study_module"], vocab="study_module", slots=2
    ),
    "context": _Kind(
        _emit_one_hot,
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
    # build_matrix computes it from the row's stored correct/attempt counts
    "smoothed_avg_correct": _Kind(_emit_bias),
    "response_pattern": _Kind(_emit_response_pattern, slots=1 << N_RECENT),
}


@dataclass(frozen=True)
class _Layout:
    """Per block of a recipe: its vocabulary domain and slots (columns per
    vocabulary key, or in all without a vocabulary); the smoothed-average block."""

    domains: tuple[str | None, ...]
    slots: tuple[int, ...]
    smoothed: int | None

    @classmethod
    def of(cls, recipe: Recipe) -> "_Layout":
        domains = tuple(_KINDS[f.kind].domain(f.variant) for f in recipe.families)
        slots = tuple(_KINDS[f.kind].per_entry(f.variant) for f in recipe.families)
        smoothed = [b for b, f in enumerate(recipe.families) if f.kind == "smoothed_avg_correct"]
        return cls(domains, slots, smoothed[0] if smoothed else None)


def _blocks(recipe: Recipe, vocabs: Mapping[str, Mapping]) -> tuple[tuple[tuple[FeatureFamily, int, int], ...], int]:
    """Each family's (family, offset, width) over the vocabularies, and the total width."""
    blocks = []
    offset = 0
    for fam, domain, slots in zip(recipe.families, recipe._layout.domains, recipe._layout.slots):
        size = slots if domain is None else slots * len(vocabs[domain])
        blocks.append((fam, offset, size))
        offset += size
    return tuple(blocks), offset


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + lens[i] - 1 for each i, end to end."""
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(starts - (np.cumsum(lens) - lens), lens)


# ---------------------------------------------------------------------------
# The row store

class _Frame(NamedTuple):
    """A dataset's rows as every recipe shares them: students in sorted-id
    order, each student's responses in walk order."""

    span: dict[str, tuple[int, int]]  # per student, its first row and row count
    events: list[InteractionEvent]  # per row, its response
    y: np.ndarray  # per row, the label (float64)
    t: np.ndarray  # per row, the student's responses before it (int64)
    corrects: np.ndarray  # per row, how many of those were correct (int64)

    @classmethod
    def of(cls, students: Mapping[str, Sequence[InteractionEvent]]) -> "_Frame":
        per = {sid: [e for e in students[sid] if e.is_response()] for sid in sorted(students)}
        lens = np.fromiter(map(len, per.values()), np.int64, len(per))
        starts = np.cumsum(lens) - lens
        events = list(chain.from_iterable(per.values()))
        y = np.fromiter(map(attrgetter("correct"), events), bool, len(events)).astype(np.int64)
        first = np.repeat(starts, lens)
        cum = np.zeros(len(events) + 1, dtype=np.int64)
        np.cumsum(y, out=cum[1:])
        span = dict(zip(per, zip(starts.tolist(), lens.tolist())))
        return cls(span, events, y.astype(np.float64), np.arange(len(events)) - first, cum[:-1] - cum[first])

    def rows(self, student_ids: Iterable[str]) -> np.ndarray:
        """The rows of the students, in sorted-id order."""
        spans = np.array([self.span[sid] for sid in sorted(student_ids)], dtype=np.int64).reshape(-1, 2)
        return _ranges(spans[:, 0], spans[:, 1])

    def keys(self, domain: str, kc_graph: KCGraph | None) -> list[str]:
        """The sorted keys of a vocabulary domain in the responses; the graph's nodes for graph_node."""
        if domain == "graph_node":
            return list(kc_graph.nodes)
        if domain == "kc":
            return sorted(set(chain.from_iterable(map(attrgetter("kc_ids"), self.events))))
        return sorted(set(map(attrgetter(_FIELD.get(domain, domain)), self.events)) - {None})


@dataclass(frozen=True)
class _Matrix:
    """One recipe's rows of a whole dataset, as CSR in global columns.

    The columns are those of an encoder holding every key of the dataset:
    block b at blocks[b], and a key's slots at its index in its domain's
    `keys` (sorted, which is the graph's order for graph_node).  Each row
    is ordered by column and keeps every entry the walk wrote, zero values
    and repeated columns too, so that vocabularies see every key a row
    uses and build_matrix drops and refuses per encoder.
    """

    layout: _Layout
    keys: dict[str, list[str]]
    blocks: tuple[tuple[FeatureFamily, int, int], ...]
    dim: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    frame: _Frame

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR (indptr, indices, data) of the given rows, copied by scipy's
        row-index kernel (`_sparsetools.csr_row_index`)."""
        rows = rows.astype(self.indptr.dtype)
        indptr = np.zeros(len(rows) + 1, dtype=self.indptr.dtype)
        np.cumsum(self.indptr[rows + 1] - self.indptr[rows], out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=self.indices.dtype)
        data = np.empty(indptr[-1], dtype=np.float64)
        _sparsetools.csr_row_index(len(rows), rows, self.indptr, self.indices, self.data, indices, data)
        return indptr, indices, data

    def columns_of(self, encoder: Encoder) -> np.ndarray:
        """Per global column, the encoder's column, or -1 where the
        encoder's vocabulary lacks the key.  Vocabularies index their keys
        in sorted order, so the table increases where it is not -1 and
        keeps every row ordered."""
        table = np.empty(self.dim, dtype=self.indices.dtype)
        layout = self.layout
        for (_, g, size), (_, off, _), domain, slots in zip(self.blocks, encoder.blocks, layout.domains, layout.slots):
            slot = np.arange(slots)
            if domain is None:
                table[g : g + size] = off + slot
            else:
                vocab, keys = encoder.vocabs[domain], self.keys[domain]
                at = np.fromiter((vocab.get(k, -1) for k in keys), np.int64, len(keys))[:, None]
                table[g : g + size] = np.where(at >= 0, off + at * slots + slot, -1).ravel()
        mapped = table[table >= 0]
        if np.any(mapped[1:] <= mapped[:-1]):
            raise ValueError("encoder vocabularies are not in the dataset's key order")
        return table


def _walk(walks: Mapping[str, Sequence[InteractionEvent]], frame: _Frame, recipe: Recipe, blocks: Sequence[tuple],
          kc_graph: KCGraph | None, squash_map: Mapping | None, codes: dict[str, _Codes]) -> tuple[np.ndarray, ...]:
    """The rows of several students (id -> events) under one recipe, in the
    given order: the entries of each row, then each entry's column and
    value, row by row, each row ordered by column.  Each student's
    responses are its rows of `frame`.

    `codes` holds each vocabulary domain's keys coded in sorted order, so
    an entry lands in column off + code * slots + slot of its block at
    `blocks` (off + slot without a vocabulary).  Each family's emitter
    writes its block for all the students at once, and one stable sort
    on (row, column) merges the blocks.
    """
    per_student = [frame.events[start : start + n] for start, n in map(frame.span.__getitem__, walks)]
    batch = _Batch(list(walks.values()), per_student, codes, kc_graph, squash_map)
    rows, cols, values = [], [], []
    for (fam, off, _), domain, slots in zip(blocks, recipe._layout.domains, recipe._layout.slots):
        entries = _KINDS[fam.kind].emitter(batch, domain, fam)
        rows.append(entries.row)
        cols.append(off + entries.slot if domain is None else off + entries.code * slots + entries.slot)
        values.append(entries.value)
    row, col = np.concatenate(rows), np.concatenate(cols)
    dim = sum(size for _, _, size in blocks)
    order = np.argsort(row * dim + col, kind="stable")
    dtype = np.int32 if dim < 1 << 31 else np.int64
    return np.bincount(row, minlength=batch.n), col[order].astype(dtype), np.concatenate(values)[order]


class RowStore:
    """One dataset's rows under each recipe, walked once per recipe.

    A row's entries depend only on the student's own history and the
    recipe's families, never on a fold, so every fold, partition, base and
    stacking split of a dataset shares them.  The store is built from the
    dataset's students, manifest, KC graph and squash map (`ingest.Dataset`
    makes it and is frozen, so they never change under it).  A recipe's
    first call codes each vocabulary domain's keys in sorted order, then
    walks every student, in sorted-id order and in runs of whole students
    holding at most _WALK_RESPONSES responses (a longer student runs
    alone), which bounds the walk's temporaries; each run's entries land
    once in their global columns of one dataset-wide CSR matrix
    (`_Matrix`), and later calls walk nothing.  Each row's response,
    label, t and the student's correct and attempt counts before it are
    kept once for every recipe (`_Frame`).  Filling is under a lock, so
    folds running in threads walk each student once.
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
        self._frame: _Frame | None = None
        self._matrices: dict[tuple[FeatureFamily, ...], _Matrix] = {}
        self.students_walked = 0
        self.rows_walked = 0
        self.rows_served = 0

    def counts(self) -> dict[str, int]:
        return {
            "students_walked": self.students_walked,
            "rows_walked": self.rows_walked,
            "rows_served": self.rows_served,
        }

    def rows(self, student_ids: Iterable[str], recipe: Recipe) -> tuple[np.ndarray, _Matrix]:
        """The rows of the given students in sorted-id order, and the
        recipe's matrix they index.  A recipe the dataset cannot serve is
        a ConfigError before any walk."""
        check_recipe_supported(recipe, self.manifest, self.kc_graph)
        with self._lock:
            matrix = self._matrices.get(recipe.families)
            if matrix is None:  # kept only once every run is walked, so a failed walk fails again
                matrix = self._matrices[recipe.families] = self._fill(recipe)
                self.students_walked += len(matrix.frame.span)
                self.rows_walked += len(matrix.frame.events)
            rows = matrix.frame.rows(student_ids)
            self.rows_served += len(rows)
        return rows, matrix

    def _fill(self, recipe: Recipe) -> _Matrix:
        if self._frame is None:
            self._frame = _Frame.of(self.students)
        frame = self._frame
        keys = {d: frame.keys(d, self.kc_graph) for d in recipe._layout.domains if d is not None}
        codes = {d: _Codes((k, i) for i, k in enumerate(ks)) for d, ks in keys.items()}
        blocks, dim = _blocks(recipe, codes)
        runs = [
            _walk({sid: self.students[sid] for sid in run}, frame, recipe, blocks, self.kc_graph, self.squash_map,
                  codes)
            for run in _runs(frame.span)
        ]
        nnz = sum(len(col) for _, col, _ in runs)
        dtype = np.int32 if max(nnz, dim) < 1 << 31 else np.int64
        indptr = np.zeros(len(frame.events) + 1, dtype=dtype)
        np.cumsum(np.concatenate([row_len for row_len, _, _ in runs] or [np.zeros(0, np.int64)]), out=indptr[1:])
        indices, data = np.empty(nnz, dtype=dtype), np.empty(nnz)
        at = 0
        while runs:  # each run is freed once copied
            _, col, value = runs.pop(0)
            indices[at : at + len(col)], data[at : at + len(col)] = col, value
            at += len(col)
        return _Matrix(recipe._layout, keys, blocks, dim, indptr, indices, data, frame)


# Responses walked at a time, unless one student holds more.  This bounds the
# walk's temporaries: walking best-lr+ over 1M responses in one batch lifted
# peak RSS to 2.6 GB, and in runs of this size to 1.0 GB.
_WALK_RESPONSES = 1 << 16


def _runs(span: Mapping[str, tuple[int, int]]) -> Iterator[list[str]]:
    """Consecutive runs of whole students holding at most _WALK_RESPONSES
    responses; a student holding more runs alone."""
    run: list[str] = []
    size = 0
    for sid, (_, n) in span.items():
        if run and size + n > _WALK_RESPONSES:
            yield run
            run, size = [], 0
        run.append(sid)
        size += n
    if run:
        yield run


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

    The students' rows of the dataset-wide matrix of the encoder's recipe
    (the RowStore walks each student once per recipe) are gathered, and
    their columns mapped through the encoder's table
    (`_Matrix.columns_of`), which keeps each row ordered; the smoothed
    average is recomputed from the rows' stored counts and the encoder's
    rbar, and zero values and keys the encoder's vocabulary lacks are
    dropped.
    """
    rows, walked = dataset.feature_rows.rows(student_ids, encoder.recipe)
    frame = walked.frame
    indptr, col, data = walked.gather(rows)
    smoothed = walked.layout.smoothed
    if smoothed is not None:  # its block's one column holds a placeholder in every row
        at = col == walked.blocks[smoothed][1]
        data[at] = smoothed_avg_correct(frame.corrects[rows], frame.t[rows], encoder.rbar)
    col = walked.columns_of(encoder)[col]
    keep = (col >= 0) & (data != 0.0)
    if not keep.all():
        kept = np.zeros(len(keep) + 1, dtype=np.int64)  # entries kept before each one
        np.cumsum(keep, out=kept[1:])
        indptr, col, data = kept[indptr], col[keep], data[keep]
    X = sp.csr_matrix((data, col, indptr), shape=(len(rows), encoder.dim))
    if not X.has_canonical_format:  # rows are ordered, so a column repeats
        raise ValueError("duplicate feature index")
    return ExtractResult(
        X=X,
        y=frame.y[rows],
        t=frame.t[rows],
        events=[frame.events[r] for r in rows.tolist()],
    )
