"""Evaluation metrics and harnesses for entity alignment."""

from .metrics import (
    ranks_from_similarity,
    hits_at_k,
    mean_reciprocal_rank,
    AlignmentMetrics,
    evaluate_alignment,
)
from .evaluator import Evaluator

__all__ = [
    "ranks_from_similarity",
    "hits_at_k",
    "mean_reciprocal_rank",
    "AlignmentMetrics",
    "evaluate_alignment",
    "Evaluator",
]
