"""Partitionable-set constructions over cyclic groups and their applications."""

from .core import (
    BudgetExceededError,
    PairSet,
    PPSSpec,
    SetKind,
    VerifyReport,
    aps_necessary,
    admissible_params,
    admissible_witness,
    infer_params,
    nonexistence_case,
    scale_set,
    verify_pps,
)
from .kramer_mesner import exhaustive_search

__all__ = [
    "BudgetExceededError",
    "PairSet",
    "PPSSpec",
    "SetKind",
    "VerifyReport",
    "admissible_params",
    "admissible_witness",
    "aps_necessary",
    "exhaustive_search",
    "infer_params",
    "nonexistence_case",
    "scale_set",
    "verify_pps",
]

__version__ = "0.1.0"
