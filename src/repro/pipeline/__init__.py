"""Declarative pipeline API: specs, registries, facade and artifacts.

The one-stop entry point for composing everything the scaling PRs built —
CSR graph operators, blockwise decoding, neighbour-sampled training, candidate
generation — without threading a dozen keyword arguments by hand:

.. code-block:: python

    from repro.pipeline import AlignmentPipeline, PipelineSpec

    spec = PipelineSpec.from_json_file("spec.json")
    aligner = AlignmentPipeline.from_spec(spec).fit()
    print(aligner.metrics)
    aligner.save("artifacts/run")

Components plug in by name through the registries re-exported here
(``@register_model``, ``@register_training_loop``,
``@register_candidate_generator``).
"""

# Importing the model zoo populates the model registry the spec validator
# and the facade resolve names against (the loops and candidate generators
# register transitively through repro.core).
from .. import baselines as _baselines  # noqa: F401
from ..core.registries import (
    register_candidate_generator,
    register_model,
    register_training_loop,
)
from .facade import (
    Aligner,
    AlignmentPipeline,
    PARAMS_FILENAME,
    SPEC_FILENAME,
    TopKAlignment,
)
from .spec import (CUSTOM_DATASET, DataSpec, DecodeSpec, DeltaSpec,
                   ModelSpec, PerturbationSpec, PipelineSpec)

__all__ = [
    "AlignmentPipeline",
    "Aligner",
    "TopKAlignment",
    "PipelineSpec",
    "DataSpec",
    "ModelSpec",
    "DecodeSpec",
    "PerturbationSpec",
    "DeltaSpec",
    "CUSTOM_DATASET",
    "SPEC_FILENAME",
    "PARAMS_FILENAME",
    "register_model",
    "register_training_loop",
    "register_candidate_generator",
]
