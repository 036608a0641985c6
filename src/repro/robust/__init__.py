"""Robust progress estimation: run history and statistics feedback (see
docs/ROBUST.md)."""

from repro.robust.feedback import (
    build_record,
    observed_view,
    record_run,
)
from repro.robust.history import (
    PlanFingerprint,
    RunRecord,
    canonical_expression,
    fingerprint_plan,
)
from repro.robust.store import HistoryStore, HistoryWriteError

__all__ = [
    "HistoryStore",
    "HistoryWriteError",
    "PlanFingerprint",
    "RunRecord",
    "build_record",
    "canonical_expression",
    "fingerprint_plan",
    "observed_view",
    "record_run",
]
