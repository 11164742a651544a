"""Single-source legality rules of the alignment pipeline.

Four PRs of scaling work each added a string switch (``decode``,
``encode``, ``sampling``, ``candidates``, ``ranking``) and the
rules about which combinations are coherent ended up re-checked in several
places — ``TrainingConfig.__post_init__``, the evaluator, the similarity
engine and the training loops.  This module is now the only place a rule
and its error message live: every legacy validation site and
:meth:`repro.pipeline.PipelineSpec.validate` delegate here, so a rejected
combination produces the same actionable message no matter which API
surface it entered through.
"""

from __future__ import annotations

from .registries import candidate_methods, training_loop_names

__all__ = [
    "check_decode_method",
    "check_encode_method",
    "check_sampling_method",
    "check_candidates_method",
    "check_ranking_method",
    "check_iterative_candidates",
    "check_patience_cadence",
    "check_ranking_candidates",
    "check_fanouts",
    "approximate_csls_error",
]


# ---------------------------------------------------------------------------
# Per-field vocabulary checks
# ---------------------------------------------------------------------------
def check_decode_method(decode: str) -> None:
    """``"auto"`` and ``"blockwise"`` both name the one streaming decode."""
    if decode == "dense":
        raise ValueError(
            "decode='dense' was removed: every decode streams through "
            "blockwise_topk with exact ranks; use decode='auto' or 'blockwise'")
    if decode not in {"blockwise", "auto"}:
        raise ValueError("decode must be 'auto' or 'blockwise'")


def check_encode_method(encode: str) -> None:
    if encode not in {"full", "sampled"}:
        raise ValueError("encode must be 'full' or 'sampled'")


def check_sampling_method(sampling: str) -> None:
    known = training_loop_names()
    if sampling not in known:
        raise ValueError(
            f"sampling must name a registered training loop "
            f"({sorted(known)}), got {sampling!r}")


def check_candidates_method(candidates: str) -> None:
    known = candidate_methods()
    if candidates not in known:
        raise ValueError(
            f"candidates must name a registered candidate generator "
            f"({sorted(known)}), got {candidates!r}")


def check_ranking_method(ranking: str) -> None:
    if ranking not in {"cosine", "csls"}:
        raise ValueError("ranking must be 'cosine' or 'csls'")


# ---------------------------------------------------------------------------
# Cross-field rules
# ---------------------------------------------------------------------------
def check_iterative_candidates(iterative: bool, candidates: str) -> None:
    """Pseudo-seeding needs a provably exact top-1, which LSH cannot offer."""
    if iterative and candidates == "lsh":
        raise ValueError(
            "iterative pseudo-seeding needs a provably exact top-1, which "
            "LSH candidates cannot offer; use candidates='ivf' (escalated "
            "automatically) or 'exhaustive'")


def check_patience_cadence(early_stopping_patience: int, eval_every: int) -> None:
    """Early stopping consumes the periodic evaluations, so it needs a cadence."""
    if early_stopping_patience > 0 and eval_every <= 0:
        raise ValueError(
            "early stopping consumes periodic evaluations; set eval_every > 0")


def approximate_csls_error(context: str = "the decode") -> ValueError:
    """The CSLS-on-approximate-candidates refusal, shared verbatim.

    Raised both at spec/evaluator construction (from the ``ranking`` /
    ``candidates`` switches) and at scoring time (from an ``approximate``
    :class:`~repro.core.similarity.TopKSimilarity` artefact).
    """
    return ValueError(
        f"CSLS ranking needs exact row and column k-NN statistics, but "
        f"{context} is restricted to approximate candidate sets — decode "
        f"with candidates='exhaustive' for CSLS-ranked evaluation")


def check_ranking_candidates(ranking: str, candidates: str) -> None:
    if ranking == "csls" and candidates != "exhaustive":
        raise approximate_csls_error(f"candidates={candidates!r}")


def check_fanouts(fanouts) -> None:
    if fanouts is None:
        return
    for fanout in fanouts:
        if fanout is not None and fanout != -1 and fanout <= 0:
            raise ValueError("fanout entries must be positive, -1 or None")
