"""Efficiency analysis (Sec. V-E) — training time and propagation cost.

The paper reports that DESAlign adds only a small overhead over MEAformer
and that Semantic Propagation itself takes seconds (linear in the number of
entities, no learning).  This runner measures, per model, the wall-clock
training time, the decoding time and the model size, plus the isolated cost
of the propagation step on the trained DESAlign embeddings.
"""

from __future__ import annotations

import time

from ..core.propagation import SemanticPropagation
from .reporting import ExperimentResult
from .runner import ExperimentScale, PROMINENT_MODELS, QUICK_SCALE, build_task, train_model

__all__ = ["run_efficiency"]


def run_efficiency(scale: ExperimentScale = QUICK_SCALE,
                   dataset: str = "FBDB15K",
                   models: tuple[str, ...] = PROMINENT_MODELS) -> ExperimentResult:
    """Regenerate the efficiency comparison of Sec. V-E."""
    result = ExperimentResult(
        experiment="efficiency",
        description="Training / decoding wall-clock and propagation cost (Sec. V-E)",
        parameters={"scale": scale.__dict__, "dataset": dataset, "models": list(models)},
    )
    task = build_task(dataset, scale, seed_ratio=0.2)
    desalign_model = None
    for model_name in models:
        model, cell = train_model(model_name, task, scale)
        if model_name == "DESAlign":
            desalign_model = model
        result.add_row(
            dataset=dataset,
            model=model_name,
            train_seconds=round(cell.train_seconds, 3),
            decode_seconds=round(cell.decode_seconds, 3),
            parameters=cell.num_parameters,
            h1=round(100.0 * cell.metrics.hits_at_1, 1),
            mrr=round(100.0 * cell.metrics.mrr, 1),
        )

    if desalign_model is not None:
        source_embeddings, target_embeddings = desalign_model._evaluation_embeddings()
        source_known, target_known = desalign_model.propagation_masks()
        start = time.perf_counter()
        SemanticPropagation(iterations=2)(
            source_embeddings, target_embeddings,
            task.source.adjacency, task.target.adjacency,
            source_known=source_known, target_known=target_known,
        )
        propagation_seconds = time.perf_counter() - start
        result.add_row(
            dataset=dataset,
            model="SemanticPropagation (decode only)",
            train_seconds=0.0,
            decode_seconds=round(propagation_seconds, 4),
            parameters=0,
            h1=float("nan"),
            mrr=float("nan"),
        )
    return result
