"""Common execution helpers shared by every experiment runner.

The experiment modules describe *what* to run (datasets, splits, model
rows); this module knows *how* to run a single cell of a table.  Since the
pipeline API landed, "how" means: translate the cell into a declarative
:class:`~repro.pipeline.PipelineSpec` and drive the
:class:`~repro.pipeline.AlignmentPipeline` facade — the same path the CLI
and downstream users take — so the experiment harness exercises the public
API surface rather than a private shortcut.

Experiment scale (entity count, epoch count, which model rows to include)
is controlled by an :class:`ExperimentScale` so the same code serves both
quick benchmark runs and larger overnight reproductions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace

from ..core.config import TrainingConfig
from ..core.task import PreparedTask
from ..core.trainer import TrainingResult
from ..pipeline import AlignmentPipeline, DataSpec, ModelSpec, PipelineSpec

__all__ = ["ExperimentScale", "QUICK_SCALE", "PAPER_SCALE", "PROMINENT_MODELS",
           "BASIC_MODELS", "build_task", "train_model", "run_cell"]

#: Models used in the robustness tables (Tables II / III) and Fig. 3 (right).
PROMINENT_MODELS = ("EVA", "MCLEA", "MEAformer", "DESAlign")

#: The "basic model" rows of Table IV that this reproduction implements.
BASIC_MODELS = ("TransE", "GCN-align", "PoE", "EVA", "MCLEA", "MEAformer", "DESAlign")


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how expensive an experiment run is."""

    num_entities: int = 100
    epochs: int = 60
    iterative_epochs: int = 20
    iterative_rounds: int = 1
    hidden_dim: int = 32
    eval_every: int = 0
    seed: int = 0

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Spec translation
    # ------------------------------------------------------------------
    def data_spec(self, dataset: str, seed_ratio: float | None = None,
                  image_ratio: float | None = None,
                  text_ratio: float | None = None) -> DataSpec:
        """The ``data`` section of a spec run at this scale."""
        return DataSpec(dataset=dataset, num_entities=self.num_entities,
                        seed_ratio=seed_ratio, image_ratio=image_ratio,
                        text_ratio=text_ratio, seed=self.seed)

    def training_config(self, iterative: bool = False) -> TrainingConfig:
        """The ``training`` section of a spec run at this scale."""
        return TrainingConfig(
            epochs=self.epochs,
            eval_every=self.eval_every,
            iterative=iterative,
            iterative_rounds=self.iterative_rounds,
            iterative_epochs=self.iterative_epochs,
            seed=self.seed,
        )


#: Fast setting used by the pytest-benchmark harness (seconds per cell).
QUICK_SCALE = ExperimentScale(num_entities=80, epochs=30)

#: Larger setting closer to the paper's training budget (minutes per cell).
PAPER_SCALE = ExperimentScale(num_entities=200, epochs=150, iterative_epochs=50,
                              iterative_rounds=2)


def _config_options(config) -> dict:
    """Flatten a legacy config object (dataclass or plain) into spec options."""
    if dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    return dict(vars(config))


def _model_spec(model_name: str, scale: ExperimentScale,
                model_kwargs: dict | None) -> ModelSpec:
    """Translate the legacy ``model_kwargs`` surface into a :class:`ModelSpec`.

    A ``config=`` entry (a :class:`~repro.core.config.DESAlignConfig` or
    :class:`~repro.baselines.BaselineConfig`) is flattened into spec
    options; remaining kwargs pass through as options directly.
    """
    options = dict(model_kwargs or {})
    hidden_dim = scale.hidden_dim
    seed = scale.seed
    config = options.pop("config", None)
    if config is not None:
        flattened = _config_options(config)
        hidden_dim = flattened.pop("hidden_dim", hidden_dim)
        seed = flattened.pop("seed", seed)
        options.update(flattened)
    hidden_dim = options.pop("hidden_dim", hidden_dim)
    seed = options.pop("seed", seed)
    return ModelSpec(name=model_name, hidden_dim=hidden_dim, seed=seed,
                     options=options)


def build_task(dataset: str, scale: ExperimentScale,
               seed_ratio: float | None = None,
               image_ratio: float | None = None,
               text_ratio: float | None = None) -> PreparedTask:
    """Materialise and prepare one benchmark split at the requested scale."""
    spec = PipelineSpec(
        data=scale.data_spec(dataset, seed_ratio=seed_ratio,
                             image_ratio=image_ratio, text_ratio=text_ratio),
        model=ModelSpec(hidden_dim=scale.hidden_dim),
    )
    return AlignmentPipeline.from_spec(spec).build_task()


def train_model(model_name: str, task: PreparedTask, scale: ExperimentScale,
                iterative: bool = False, model_kwargs: dict | None = None,
                training_overrides: dict | None = None):
    """Train one model on one prepared split; returns ``(model, TrainingResult)``.

    The cell is expressed as a :class:`~repro.pipeline.PipelineSpec`
    (``dataset="custom"`` because the task is already prepared and shared
    across the row's cells) and run through the facade.
    """
    training = scale.training_config(iterative=iterative)
    if training_overrides:
        training = training.with_overrides(**training_overrides)
    spec = PipelineSpec(
        data=DataSpec(dataset="custom", num_entities=scale.num_entities,
                      seed=scale.seed),
        model=_model_spec(model_name, scale, model_kwargs),
        training=training,
    )
    aligner = AlignmentPipeline.from_spec(spec).fit(task)
    return aligner.model, aligner.result


def run_cell(model_name: str, task: PreparedTask, scale: ExperimentScale,
             iterative: bool = False, model_kwargs: dict | None = None,
             training_overrides: dict | None = None) -> TrainingResult:
    """Train and evaluate one model on one prepared split (one table cell)."""
    _, result = train_model(model_name, task, scale, iterative=iterative,
                            model_kwargs=model_kwargs,
                            training_overrides=training_overrides)
    return result
