import json
import math

import numpy as np
import pytest

from ktrace.core import (
    ConfigError,
    DatasetManifest,
    EventKind,
    FoldAssignment,
    InteractionEvent,
    KCGraph,
    ParseError,
    SchemaError,
    scale,
)
from ktrace.ingest import Dataset, load_events, write_events
from oracle import reference_validate


def test_scale_examples():
    assert scale(0.0) == 0.0
    assert abs(scale(math.e - 1.0) - 1.0) < 1e-12
    assert abs(scale(99.0) - math.log(100.0)) < 1e-12
    with pytest.raises(ValueError):
        scale(-0.5)


def test_scale_monotone_and_bounded():
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(0.0, 5000.0, size=300))
    ys = [scale(float(x)) for x in xs]
    for a, b in zip(ys, ys[1:]):
        assert a <= b
    for x, y in zip(xs, ys):
        assert y <= x


def test_manifest_flags():
    m = DatasetManifest(name="d", capabilities=frozenset({"videos", "hints"}))
    assert m.allows("videos") and m.allows("hints")
    assert not m.allows("reading")
    with pytest.raises(ConfigError):
        m.allows("nonsense")
    with pytest.raises(ConfigError):
        DatasetManifest(name="d", capabilities=frozenset({"bogus_flag"}))
    again = DatasetManifest.from_json(m.to_json())
    assert again.capabilities == m.capabilities


def test_event_validation(tmp_path):
    """The loader keeps an event that passes the per-event checks and refuses
    one that fails them, with the same message."""
    ok = InteractionEvent(
        student_id="s1",
        timestamp=100,
        kind=EventKind.QUESTION_RESPONSE,
        question_id="q1",
        kc_ids=("k1",),
        correct=True,
    )
    reference_validate(ok)
    bad = ok._replace(kc_ids=())
    with pytest.raises(SchemaError) as err:
        reference_validate(bad)
    manifest, path = DatasetManifest.minimal(), tmp_path / "e.csv"
    write_events(Dataset(manifest, {"s1": [ok]}), path)
    assert load_events(path, manifest).students == {"s1": [ok]}
    write_events(Dataset(manifest, {"s1": [ok, bad]}), path)
    with pytest.raises(ParseError, match=f"^line 3: {err.value}$"):
        load_events(path, manifest)


def test_events_are_immutable():
    event = InteractionEvent("s1", 100, EventKind.QUESTION_RESPONSE, "q1", ("k1",), True)
    for name in InteractionEvent._fields:
        with pytest.raises(AttributeError):
            setattr(event, name, None)
    with pytest.raises(AttributeError):
        event.lag_time = 1.0
    changed = event._replace(correct=False)
    assert changed.correct is False and event.correct is True
    assert changed[:5] == event[:5]


def test_kc_graph_reversal_and_members():
    g = KCGraph("kc", [("a", "b"), ("a", "c"), ("b", "c")])
    assert g.prereqs_of("c") == ("a", "b")
    assert g.postreqs_of("a") == ("b", "c")
    assert g.postreqs_of("c") == ()
    assert g.members_of["a"] == ("a",)
    with pytest.raises(SchemaError):
        KCGraph("kc", [("x", "x")])


def test_kc_graph_from_ontology():
    # leaves k1,k2 under parent p1; leaf k3 under p2
    g = KCGraph.from_ontology({"k1": "p1", "k2": "p1", "k3": "p2"})
    assert g.prereqs_of("k1") == ("p1",)
    assert g.postreqs_of("p1") == ("k1", "k2")
    assert g.members_of["p1"] == ("k1", "k2")
    assert set(g.nodes_counting["k2"]) == {"k2", "p1"}
    again = KCGraph.from_json(g.to_json())
    assert again.edges == g.edges
    assert again.members_of == g.members_of


def test_fold_assignment_roundtrip():
    fa = FoldAssignment(k=3, seed=9, folds={"a": 0, "b": 1, "c": 2, "d": 0})
    assert fa.sizes() == [2, 1, 1]
    assert fa.students_in(0) == ["a", "d"]
    assert fa.train_students(0) == ["b", "c"]
    again = FoldAssignment.from_json(json.loads(json.dumps(fa.to_json())))
    assert again == fa
    with pytest.raises(ConfigError):
        FoldAssignment(k=2, seed=0, folds={"a": 5})
