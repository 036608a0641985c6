"""Robust progress estimation: run history, online ensembles, statistics
feedback (see docs/ROBUST.md)."""

from repro.robust.ensemble import COLD, WARM, EnsembleState
from repro.robust.feedback import (
    build_record,
    observed_view,
    record_run,
)
from repro.robust.history import (
    EstimatorPrior,
    PlanFingerprint,
    Prior,
    RunRecord,
    aggregate_prior,
    canonical_expression,
    fingerprint_plan,
)
from repro.robust.store import HistoryStore

__all__ = [
    "COLD",
    "EnsembleState",
    "EstimatorPrior",
    "HistoryStore",
    "PlanFingerprint",
    "Prior",
    "RunRecord",
    "WARM",
    "aggregate_prior",
    "build_record",
    "canonical_expression",
    "fingerprint_plan",
    "observed_view",
    "record_run",
]
