"""Shared domain types for event-log knowledge tracing.

An interaction log is a per-student sequence of timestamped events
(question responses plus optional study-material events).  Feature
extraction turns the history before each response into one sparse row
of a feature matrix; models are dense weight vectors over an encoder's
index space.  The types here carry no model logic: they define the data
contracts that ingestion, feature extraction, and training build on.
All types are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class SchemaError(ValueError):
    """Input data violates the declared schema or manifest capabilities."""


class ParseError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ValueError):
    """Inconsistent or unsupported configuration."""


class SequencingError(ValueError):
    """Events applied to a student state out of timestamp order."""


class EventKind(str, Enum):
    QUESTION_RESPONSE = "QuestionResponse"
    VIDEO_WATCH = "VideoWatch"
    VIDEO_SKIP = "VideoSkip"
    READING = "Reading"
    HINT_USE = "HintUse"


class InteractionEvent(NamedTuple):
    """One logged interaction.

    Only ``student_id``, ``timestamp`` and ``kind`` are always present.
    Question responses additionally carry ``question_id``, ``kc_ids``
    and ``correct``; every other field is dataset-dependent, and its
    ``OPTIONAL_FIELDS`` row names the manifest flag it needs.  The
    fields are the canonical CSV columns, one to one; lag times are not
    stored but computed from the responses (``response_lags``).  An
    event is a tuple: a changed copy is ``event._replace(field=value)``.
    """

    student_id: str
    timestamp: int
    kind: EventKind
    question_id: str | None = None
    kc_ids: tuple[str, ...] = ()
    correct: bool | None = None
    elapsed_time_s: float | None = None
    study_module: str | None = None
    teacher_group: str | None = None
    school: str | None = None
    course: str | None = None
    topic: str | None = None
    bundle: str | None = None
    part_area: str | None = None
    platform: str | None = None
    difficulty: str | None = None
    hint_count: int | None = None
    consumption_minutes: float | None = None
    age: str | None = None
    gender: str | None = None
    social_support: str | None = None

    def is_response(self) -> bool:
        return self.kind is EventKind.QUESTION_RESPONSE


# Capability flags a dataset manifest may declare.  A column (or event
# kind) tied to a flag may only be populated when the flag is set, and
# feature families are gated on the same flags.
CAPABILITY_FLAGS: tuple[str, ...] = (
    "elapsed_lag_time",
    "study_module",
    "prereq_graph",
    "kc_hierarchy",
    "bundle",
    "videos",
    "reading",
    "hints",
    "age_gender",
    "social_support",
    "platform",
    "difficulty",
    "teacher_group",
    "school",
    "course",
    "topic",
    "part_area",
)


class OptionalField(NamedTuple):
    type: type  # cell type: str, float or int
    flag: str | None  # manifest flag that gates the column; None when its event kind does


# The event schema beyond the six fixed CSV columns (student_id,
# timestamp, event_kind, question_id, kc_ids, correct): every optional
# InteractionEvent field, in canonical CSV column order.
OPTIONAL_FIELDS: dict[str, OptionalField] = {
    "elapsed_time_s": OptionalField(float, "elapsed_lag_time"),
    "study_module": OptionalField(str, "study_module"),
    "teacher_group": OptionalField(str, "teacher_group"),
    "school": OptionalField(str, "school"),
    "course": OptionalField(str, "course"),
    "topic": OptionalField(str, "topic"),
    "bundle": OptionalField(str, "bundle"),
    "part_area": OptionalField(str, "part_area"),
    "platform": OptionalField(str, "platform"),
    "difficulty": OptionalField(str, "difficulty"),
    "hint_count": OptionalField(int, "hints"),
    "consumption_minutes": OptionalField(float, None),
    "age": OptionalField(str, "age_gender"),
    "gender": OptionalField(str, "age_gender"),
    "social_support": OptionalField(str, "social_support"),
}


class MaterialKind(NamedTuple):
    flag: str  # manifest flag the event kind needs
    count: str  # the material tally its events count toward
    minutes: str | None  # the material tally its consumption minutes add to


# Every study-material event kind (all kinds but QuestionResponse).
MATERIAL_KINDS: dict[EventKind, MaterialKind] = {
    EventKind.VIDEO_WATCH: MaterialKind("videos", "videos_watched", "video_minutes"),
    EventKind.VIDEO_SKIP: MaterialKind("videos", "videos_skipped", None),
    EventKind.READING: MaterialKind("reading", "readings", "reading_minutes"),
    EventKind.HINT_USE: MaterialKind("hints", "hints", "hint_minutes"),
}


@dataclass(frozen=True)
class DatasetManifest:
    """Declares which optional log attributes a dataset provides."""

    name: str
    capabilities: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        unknown = set(self.capabilities) - set(CAPABILITY_FLAGS)
        if unknown:
            raise ConfigError(f"unknown capability flags: {sorted(unknown)}")

    def allows(self, flag: str) -> bool:
        if flag not in CAPABILITY_FLAGS:
            raise ConfigError(f"unknown capability flag {flag!r}")
        return flag in self.capabilities

    @classmethod
    def full(cls, name: str = "synthetic") -> "DatasetManifest":
        return cls(name=name, capabilities=frozenset(CAPABILITY_FLAGS))

    @classmethod
    def minimal(cls, name: str = "minimal") -> "DatasetManifest":
        return cls(name=name)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "name": self.name,
            "capabilities": {f: (f in self.capabilities) for f in CAPABILITY_FLAGS},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "DatasetManifest":
        caps = obj.get("capabilities", {})
        if not isinstance(caps, Mapping):
            raise SchemaError("manifest capabilities must be an object")
        enabled = frozenset(k for k, v in caps.items() if v)
        return cls(name=str(obj.get("name", "dataset")), capabilities=enabled)


class KCGraph:
    """Directed prerequisite relation over KC ids or question ids.

    Edges run prerequisite -> dependent.  ``members_of`` maps each graph
    node to the event-level ids whose responses count toward that node;
    for plain graphs every node aggregates only itself, while
    pseudo-graphs derived from a topic ontology let a parent node
    aggregate all of its leaf children.  The postrequisite relation is
    the exact edge reversal.
    """

    def __init__(
        self,
        node_kind: str,
        edges: Iterable[tuple[str, str]],
        members_of: Mapping[str, Sequence[str]] | None = None,
    ):
        if node_kind not in ("kc", "question"):
            raise ConfigError(f"node_kind must be 'kc' or 'question', got {node_kind!r}")
        self.node_kind = node_kind
        prereqs: dict[str, set[str]] = {}
        postreqs: dict[str, set[str]] = {}
        nodes: set[str] = set()
        edge_list: list[tuple[str, str]] = []
        for pre, dep in edges:
            if pre == dep:
                raise SchemaError(f"self-edge on node {pre!r}")
            nodes.add(pre)
            nodes.add(dep)
            prereqs.setdefault(dep, set()).add(pre)
            postreqs.setdefault(pre, set()).add(dep)
            edge_list.append((pre, dep))
        if members_of is not None:
            nodes.update(members_of)
        self.edges = tuple(sorted(set(edge_list)))
        self.nodes: tuple[str, ...] = tuple(sorted(nodes))
        self._prereqs = {n: tuple(sorted(v)) for n, v in prereqs.items()}
        self._postreqs = {n: tuple(sorted(v)) for n, v in postreqs.items()}
        if members_of is None:
            self.members_of = {n: (n,) for n in self.nodes}
        else:
            self.members_of = {n: tuple(sorted(set(members_of.get(n, (n,))))) for n in self.nodes}
        # reverse index: event-level id -> nodes it counts toward
        rev: dict[str, set[str]] = {}
        for node, members in self.members_of.items():
            for m in members:
                rev.setdefault(m, set()).add(node)
        self.nodes_counting = {m: tuple(sorted(v)) for m, v in rev.items()}

    def prereqs_of(self, node: str) -> tuple[str, ...]:
        return self._prereqs.get(node, ())

    def postreqs_of(self, node: str) -> tuple[str, ...]:
        return self._postreqs.get(node, ())

    def nodes_for_event(self, question_id: str | None, kc_ids: Sequence[str]) -> tuple[str, ...]:
        """Graph nodes directly representing the given question."""
        if self.node_kind == "question":
            if question_id is not None and question_id in self.members_of:
                return (question_id,)
            return ()
        return tuple(sorted(k for k in kc_ids if k in self.members_of))

    @classmethod
    def from_ontology(cls, parent_of: Mapping[str, str]) -> "KCGraph":
        """Pseudo-prerequisite graph from the two lowest ontology layers.

        Each leaf KC gets its direct parent as a prerequisite; a parent
        node aggregates responses on all of its leaf children.
        """
        edges = [(parent, leaf) for leaf, parent in parent_of.items()]
        members: dict[str, list[str]] = {}
        for leaf, parent in parent_of.items():
            members.setdefault(parent, []).append(leaf)
            members.setdefault(leaf, []).append(leaf)
        return cls("kc", edges, members_of=members)

    def to_json(self) -> dict:
        obj: dict = {
            "version": 1,
            "node_kind": self.node_kind,
            "edges": [list(e) for e in self.edges],
        }
        if any(self.members_of[n] != (n,) for n in self.nodes):
            obj["members_of"] = {n: list(v) for n, v in sorted(self.members_of.items())}
        return obj

    @classmethod
    def from_json(cls, obj: Mapping) -> "KCGraph":
        if "ontology_parent_of" in obj:
            return cls.from_ontology(dict(obj["ontology_parent_of"]))
        members = obj.get("members_of")
        return cls(
            obj.get("node_kind", "kc"),
            [tuple(e) for e in obj.get("edges", [])],
            members_of=members,
        )


def scale(x: float) -> float:
    """Count/time scaling ln(1 + x); rejects negative input."""
    if x < 0:
        raise ValueError(f"scale() requires x >= 0, got {x}")
    return math.log1p(x)


def response_lags(students: Iterable[Sequence[InteractionEvent]]) -> tuple[np.ndarray, np.ndarray]:
    """The lag time of every response of the given students' time-ordered
    events, one student after another, and whether it was clamped.

    A response's lag is the seconds from the end of the student's previous
    response (its receipt timestamp plus its elapsed time, 0 without one)
    to its own receipt; material events do not move it.  A negative gap
    is clamped to 0.0.  A student's first response has no lag (NaN).
    """
    responses = [[e for e in events if e.is_response()] for events in students]
    lens = np.fromiter(map(len, responses), np.int64, len(responses))
    flat = list(chain.from_iterable(responses))
    ts = np.fromiter(map(attrgetter("timestamp"), flat), np.int64, len(flat))
    elapsed = np.array(list(map(attrgetter("elapsed_time_s"), flat)), dtype=np.float64)  # None: NaN
    end = ts + np.where(np.isnan(elapsed), 0.0, elapsed)
    lag = np.full(len(flat), np.nan)
    lag[1:] = ts[1:] - end[:-1]
    lag[(np.cumsum(lens) - lens)[lens > 0]] = np.nan
    clamped = lag < 0
    lag[clamped] = 0.0
    return lag, clamped


@dataclass(frozen=True)
class FoldAssignment:
    """Student-level fold map for cross-validation."""

    k: int
    seed: int
    folds: Mapping[str, int]

    def __post_init__(self) -> None:
        bad = [s for s, f in self.folds.items() if not 0 <= f < self.k]
        if bad:
            raise ConfigError(f"fold index out of range for students {bad[:3]}")

    def students_in(self, fold: int) -> list[str]:
        return sorted(s for s, f in self.folds.items() if f == fold)

    def train_students(self, fold: int) -> list[str]:
        return sorted(s for s, f in self.folds.items() if f != fold)

    def sizes(self) -> list[int]:
        out = [0] * self.k
        for f in self.folds.values():
            out[f] += 1
        return out

    def to_json(self) -> dict:
        return {"version": 1, "k": self.k, "seed": self.seed, "folds": dict(sorted(self.folds.items()))}

    @classmethod
    def from_json(cls, obj: Mapping) -> "FoldAssignment":
        return cls(k=int(obj["k"]), seed=int(obj["seed"]), folds={str(s): int(f) for s, f in obj["folds"].items()})


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, tight separators, newline end."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
