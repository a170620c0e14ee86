import numpy as np
import pytest

from ktrace.core import DatasetManifest, EventKind, InteractionEvent
from ktrace.ingest import CANONICAL_COLUMNS, Dataset


def csv_line(**cells) -> str:
    row = {c: "" for c in CANONICAL_COLUMNS}
    for key, value in cells.items():
        assert key in row, key
        row[key] = str(value)
    return ",".join(row[c] for c in CANONICAL_COLUMNS)


def write_csv(path, lines):
    text = ",".join(CANONICAL_COLUMNS) + "\n" + "".join(line + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
    return path


def response(sid, ts, qid, kcs, correct, **extra) -> InteractionEvent:
    return InteractionEvent(
        student_id=sid,
        timestamp=ts,
        kind=EventKind.QUESTION_RESPONSE,
        question_id=qid,
        kc_ids=tuple(sorted(kcs)),
        correct=correct,
        **extra,
    )


def toy_dataset(per_student, name="toy", capabilities=()) -> Dataset:
    """per_student: dict sid -> list of events (already ordered)."""
    manifest = DatasetManifest(name=name, capabilities=frozenset(capabilities))
    return Dataset(manifest=manifest, students={s: list(v) for s, v in sorted(per_student.items())})


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
