"""Feature-based logistic regression models over tutoring-system logs."""

from ktrace.core import (
    ConfigError,
    DatasetManifest,
    EventKind,
    FoldAssignment,
    InteractionEvent,
    KCGraph,
    ParseError,
    SchemaError,
    SequencingError,
    scale,
)
from ktrace.ingest import Dataset

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "DatasetManifest",
    "EventKind",
    "FoldAssignment",
    "InteractionEvent",
    "KCGraph",
    "ParseError",
    "SchemaError",
    "SequencingError",
    "scale",
    "__version__",
]
