"""Task-level evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import rules
from ..core.ann import generate_candidates
from ..core.similarity import blockwise_topk
from ..core.task import PreparedTask
from .metrics import EVALUATION_K, AlignmentMetrics, evaluate_alignment

__all__ = ["Evaluator"]


@dataclass
class Evaluator:
    """Evaluate a model or a decode against a prepared task's test split.

    :meth:`evaluate_model` streams the model's ``decode_states()`` through
    :func:`~repro.core.similarity.blockwise_topk` at
    :data:`~repro.eval.metrics.EVALUATION_K`, so no evaluation materialises
    the ``n_s x n_t`` matrix; ranks stay exact through the fallback that
    replays the scan blocks of unproven rows.  ``encode`` /
    ``encode_batch_size`` pick the encoder path
    (``encode="sampled"`` is the neighbour-sampled training pipeline's
    batched inference).  ``ranking="csls"`` ranks on CSLS-rescaled
    similarities, and only then does the decode reduce the column
    statistics.  ``candidates="ivf"`` or a registered plug-in generator
    (with an optional :class:`~repro.core.ann.AnnConfig`) restricts the
    decode to approximate candidate sets; such decodes are scored with honest recall-style ranks
    and refuse CSLS ranking rather than degrade silently.
    """

    task: PreparedTask
    restrict_candidates: bool = True
    encode: str = "full"
    encode_batch_size: int | None = None
    ranking: str = "cosine"
    candidates: str = "exhaustive"
    ann: object | None = None

    def __post_init__(self) -> None:
        # Legality delegated to repro.core.rules (the spec validator uses
        # the same functions), so an incoherent evaluator is rejected at
        # construction with the same message everywhere.
        rules.check_encode_method(self.encode)
        rules.check_ranking_method(self.ranking)
        rules.check_candidates_method(self.candidates)
        rules.check_ranking_candidates(self.ranking, self.candidates)

    def evaluate_similarity(self, similarity) -> AlignmentMetrics:
        """Score a similarity matrix or top-k decode on the test pairs."""
        return evaluate_alignment(similarity, self.task.test_pairs,
                                  restrict_candidates=self.restrict_candidates,
                                  ranking=self.ranking)

    def evaluate_model(self, model, use_propagation: bool = True) -> AlignmentMetrics:
        """Score any model exposing ``decode_states()``."""
        source, target = model.decode_states(
            use_propagation=use_propagation, encode=self.encode,
            encode_batch_size=self.encode_batch_size)
        row_candidates = None
        if self.candidates != "exhaustive":
            row_candidates = generate_candidates(self.candidates, source,
                                                 target, self.ann)
        return self.evaluate_similarity(blockwise_topk(
            source, target, k=EVALUATION_K, row_candidates=row_candidates,
            column_stats=self.ranking == "csls"))
