"""Shared utilities: error types, seeded randomness, incremental statistics.

These helpers are deliberately dependency-light; everything in
:mod:`repro.core` and :mod:`repro.executor` builds on them.
"""

from repro.common.errors import (
    CatalogError,
    EstimationError,
    ExecutorError,
    PlanError,
    ReproError,
    SchemaError,
)
from repro.common.locks import (
    LockAssertionError,
    acquires,
    assert_owned,
    asserts_enabled,
    guarded_by,
    holds_lock,
)
from repro.common.rng import derive_seed, make_rng
from repro.common.stats import normal_quantile, squared_coefficient_of_variation

__all__ = [
    "CatalogError",
    "EstimationError",
    "ExecutorError",
    "LockAssertionError",
    "PlanError",
    "ReproError",
    "SchemaError",
    "acquires",
    "assert_owned",
    "asserts_enabled",
    "derive_seed",
    "guarded_by",
    "holds_lock",
    "make_rng",
    "normal_quantile",
    "squared_coefficient_of_variation",
]
