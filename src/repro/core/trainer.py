"""Training loops for DESAlign and the baselines.

Implements the optimisation recipe of Sec. V-A(4): AdamW, cosine warm-up
over the first 15% of steps, gradient clipping, optional early stopping,
and the optional *iterative strategy* — a buffering mechanism that promotes
cross-graph mutual nearest-neighbour pairs from the candidate (test) pool to
pseudo-seed alignments between training rounds.

The *how* of one optimisation phase is a pluggable :class:`TrainingLoop`
strategy selected by ``TrainingConfig.sampling``:

* :class:`FullGraphLoop` (``sampling="full"``) encodes both whole graphs on
  every step — the original formulation, simplest and fastest at small
  scale;
* :class:`NeighbourSampledLoop` (``sampling="neighbour"``) draws
  GraphSAGE-style layer-wise neighbour-sampled mini-batches through a
  :class:`~repro.data.loader.SeedPairLoader` and the model's subgraph-aware
  encoder path, evaluates through batched (scatter-back) inference and runs
  the iterative pseudo-seed selection on the streaming blockwise decode —
  no stage ever materialises a full-graph forward pass or an
  ``n_s x n_t`` similarity matrix.

Every aligner in this repository (DESAlign and the baselines) exposes the
same minimal interface — ``loss(source_index, target_index)``,
``decode_states()`` and ``parameters()`` — so a single :class:`Trainer`
covers the whole model zoo and the experiment harness stays uniform; the
neighbour strategy additionally requires ``subgraph_loss`` and
``neighbour_sampler`` (DESAlign implements both).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..autograd import Tensor, no_grad
from ..data.loader import SeedPairLoader, epoch_order
from ..eval.evaluator import Evaluator
from ..eval.metrics import AlignmentMetrics
from ..nn import AdamW, CosineWarmupSchedule, EarlyStopping, GradientClipper
from .alignment import mutual_nearest_pairs
from .ann import AnnConfig, IVFWarmStart, generate_candidates, resolve_ann
from .config import TrainingConfig
from .registries import TRAINING_LOOP_REGISTRY, register_training_loop
from .energy import EnergyMonitor
from .similarity import TopKSimilarity, blockwise_topk
from .task import PreparedTask

__all__ = ["TrainingHistory", "TrainingResult", "TrainingLoop", "FullGraphLoop",
           "NeighbourSampledLoop", "build_training_loop", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch loss values and periodic evaluation metrics."""

    losses: list[float] = field(default_factory=list)
    evaluations: list[tuple[int, AlignmentMetrics]] = field(default_factory=list)
    pseudo_pairs: list[int] = field(default_factory=list)

    def last_metrics(self) -> AlignmentMetrics | None:
        return self.evaluations[-1][1] if self.evaluations else None


@dataclass
class TrainingResult:
    """Outcome of a full training run."""

    metrics: AlignmentMetrics
    history: TrainingHistory
    train_seconds: float
    decode_seconds: float
    num_parameters: int

    def as_dict(self) -> dict[str, float]:
        summary = dict(self.metrics.as_dict())
        summary["train_seconds"] = self.train_seconds
        summary["decode_seconds"] = self.decode_seconds
        return summary


def _loss_total(value) -> Tensor:
    """Accept either a plain Tensor or a LossBreakdown-like object."""
    return value.total if hasattr(value, "total") else value


class TrainingLoop:
    """Strategy object: how batches form, how a loss is computed, how to evaluate.

    Subclasses implement :meth:`_build_evaluator`, :meth:`epoch_batches`
    and :meth:`batch_loss`; the optimisation skeleton (:meth:`train_phase`)
    — optimiser, schedule, clipping, the periodic-evaluation cadence and
    early stopping — and the pseudo-seed decode (:meth:`model_similarity`,
    which encodes as the evaluator does) are shared.
    """

    name = "abstract"

    def __init__(self, model, task: PreparedTask, config: TrainingConfig,
                 rng: np.random.Generator):
        self.model = model
        self.task = task
        self.config = config
        self._rng = rng
        self.evaluator = self._build_evaluator()
        #: Wall-clock seconds of the most recent :meth:`evaluate` call.
        self.last_eval_seconds = 0.0
        #: Carries IVF k-means centroids across the iterative strategy's
        #: per-round pseudo-seed decodes (None off the IVF path).
        self._ann_warm_start = (IVFWarmStart()
                                if config.candidates == "ivf" else None)

    # -- strategy hooks -------------------------------------------------
    def _build_evaluator(self) -> Evaluator:
        raise NotImplementedError

    def epoch_batches(self, pairs: np.ndarray):
        """Yield one epoch's batches (strategy-specific batch objects)."""
        raise NotImplementedError

    def batch_loss(self, batch) -> Tensor:
        """Differentiable total loss of one batch."""
        raise NotImplementedError

    def record_energy(self, monitor: EnergyMonitor, epoch: int) -> None:
        """Log a Dirichlet-energy snapshot (no-op where it would defeat sampling)."""

    # -- candidate generation -------------------------------------------
    def resolved_ann(self) -> AnnConfig | None:
        """The candidate-generation config with the training seed threaded in.

        One ``TrainingConfig.seed`` must deterministically drive the
        neighbour sampler, the batch loader *and* the k-means
        initialisation, so an ``ann`` config without an explicit seed
        inherits the training seed here.
        """
        if self.config.candidates == "exhaustive":
            return None
        return resolve_ann(self.config.ann, self.config.seed)

    def model_similarity(self) -> TopKSimilarity:
        """Streaming decode feeding the iterative mutual-NN selection.

        Encodes the way the loop's evaluator does.  Approximate candidates
        are only admissible here when escalation makes the per-row/per-column
        top-1 provably exact — IVF escalates; every other generator is
        rejected at config construction.  The warm start re-fits each round's quantiser from
        the previous round's centroids; escalation keeps the selection
        exact, so the pseudo-seed pairs are independent of that history.
        """
        source, target = self.model.decode_states(
            use_propagation=True, encode=self.evaluator.encode,
            encode_batch_size=self.evaluator.encode_batch_size)
        row_candidates = None
        if self.config.candidates != "exhaustive":
            ann = self.resolved_ann().with_overrides(exact_escalation=True)
            row_candidates = generate_candidates(
                self.config.candidates, source, target, ann,
                warm_start=self._ann_warm_start)
        # Mutual-NN selection reads the column argmax.
        return blockwise_topk(source, target, row_candidates=row_candidates,
                              column_stats=True)

    # -- shared skeleton ------------------------------------------------
    def evaluate(self) -> AlignmentMetrics:
        """Evaluate the model on the task's test split (timed)."""
        start = time.perf_counter()
        metrics = self._evaluate()
        self.last_eval_seconds = time.perf_counter() - start
        return metrics

    def _evaluate(self) -> AlignmentMetrics:
        return self.evaluator.evaluate_model(self.model)

    def train_phase(self, pairs: np.ndarray, epochs: int,
                    history: TrainingHistory,
                    energy_monitor: EnergyMonitor | None = None) -> None:
        """Run one optimisation phase over ``pairs`` for ``epochs`` epochs.

        Periodic evaluation — and the early-stopping update it feeds — runs
        strictly on the ``eval_every`` cadence; enabling early stopping
        without a cadence is rejected at config construction.
        """
        config = self.config
        if epochs <= 0 or len(pairs) == 0:
            return
        optimizer = AdamW(self.model.parameters(), lr=config.learning_rate,
                          weight_decay=config.weight_decay)
        batches_per_epoch = max(1, int(np.ceil(len(pairs) / config.batch_size)))
        schedule = CosineWarmupSchedule(optimizer, total_steps=epochs * batches_per_epoch,
                                        warmup_fraction=config.warmup_fraction)
        clipper = GradientClipper(config.grad_clip) if config.grad_clip else None
        stopper = (EarlyStopping(patience=config.early_stopping_patience)
                   if config.early_stopping_patience > 0 else None)

        for epoch in range(epochs):
            epoch_loss = 0.0
            num_batches = 0
            for batch in self.epoch_batches(pairs):
                schedule.step()
                optimizer.zero_grad()
                loss = self.batch_loss(batch)
                loss.backward()
                if clipper is not None:
                    clipper.clip(self.model.parameters())
                optimizer.step()
                epoch_loss += loss.item()
                num_batches += 1
                # Free this step's tape before the next forward records one.
                del loss
            history.losses.append(epoch_loss / max(1, num_batches))

            should_evaluate = (config.eval_every > 0
                               and (epoch + 1) % config.eval_every == 0)
            if should_evaluate:
                metrics = self.evaluate()
                history.evaluations.append((len(history.losses), metrics))
                if energy_monitor is not None:
                    self.record_energy(energy_monitor, len(history.losses))
                if stopper is not None:
                    stopper.update(metrics.hits_at_1)
                    if stopper.should_stop:
                        break


@register_training_loop("full")
class FullGraphLoop(TrainingLoop):
    """Classic strategy: every step encodes all entities of both graphs."""

    name = "full"

    def _build_evaluator(self) -> Evaluator:
        return Evaluator(self.task, candidates=self.config.candidates,
                         ann=self.resolved_ann())

    def epoch_batches(self, pairs: np.ndarray):
        """Yield mini-batches of seed pairs (full batch when small enough)."""
        batch_size = self.config.batch_size
        order = epoch_order(self._rng, len(pairs), batch_size)
        for start in range(0, len(pairs), batch_size):
            yield pairs[order[start:start + batch_size]]

    def batch_loss(self, batch: np.ndarray) -> Tensor:
        return _loss_total(self.model.loss(batch[:, 0], batch[:, 1]))

    def record_energy(self, monitor: EnergyMonitor, epoch: int) -> None:
        if hasattr(self.model, "encode"):
            with no_grad():
                monitor.record(epoch, self.model.encode("source"))


@register_training_loop("neighbour")
class NeighbourSampledLoop(TrainingLoop):
    """Neighbour-sampled mini-batch strategy (GraphSAGE-style).

    Batches come from a :class:`SeedPairLoader` (sharing the trainer's
    generator, so the batch schedule matches the full-graph strategy);
    losses go through ``model.subgraph_loss``; evaluation and the iterative
    pseudo-seed decode use sampled (batched) inference plus the streaming
    blockwise top-k engine, so nothing materialises a full-graph forward or
    an ``n_s x n_t`` matrix.
    """

    name = "neighbour"

    def __init__(self, model, task: PreparedTask, config: TrainingConfig,
                 rng: np.random.Generator):
        if not (hasattr(model, "subgraph_loss") and hasattr(model, "neighbour_sampler")):
            raise TypeError(
                f"{type(model).__name__} does not support sampling='neighbour': "
                "it must expose subgraph_loss(...) and neighbour_sampler(...)")
        if getattr(getattr(model, "config", None), "energy_weight", 0) > 0:
            raise ValueError(
                "the Dirichlet-energy penalty (energy_weight > 0) requires the "
                "full Laplacian and cannot be trained with sampling='neighbour'")
        self._source_sampler = model.neighbour_sampler(
            "source", fanouts=config.fanouts, seed=config.seed)
        self._target_sampler = model.neighbour_sampler(
            "target", fanouts=config.fanouts, seed=config.seed + 1)
        super().__init__(model, task, config, rng)

    def _build_evaluator(self) -> Evaluator:
        return Evaluator(self.task, encode="sampled",
                         encode_batch_size=self.config.eval_batch_size,
                         candidates=self.config.candidates,
                         ann=self.resolved_ann())

    def epoch_batches(self, pairs: np.ndarray):
        loader = SeedPairLoader(pairs, self._source_sampler, self._target_sampler,
                                batch_size=self.config.batch_size, rng=self._rng)
        yield from loader

    def batch_loss(self, batch) -> Tensor:
        return _loss_total(self.model.subgraph_loss(
            batch.source_view, batch.target_view,
            batch.pairs[:, 0], batch.pairs[:, 1],
            source_local=batch.source_index, target_local=batch.target_index))

    # Recording energy would require a full-graph encoder pass, which this
    # strategy exists to avoid; record_energy stays the base no-op, and
    # Trainer.__init__ rejects an energy monitor paired with this loop.


def build_training_loop(model, task: PreparedTask, config: TrainingConfig,
                        rng: np.random.Generator | None = None) -> TrainingLoop:
    """Instantiate the :class:`TrainingLoop` selected by ``config.sampling``.

    The lookup goes through the training-loop registry
    (:mod:`repro.core.registries`), so strategies registered by downstream
    code are selectable by name exactly like the built-ins.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    loop_cls = TRAINING_LOOP_REGISTRY.get(config.sampling)
    if loop_cls is None:
        raise ValueError(
            f"no training loop registered under sampling={config.sampling!r}; "
            f"registered: {sorted(TRAINING_LOOP_REGISTRY)}")
    return loop_cls(model, task, config, rng)


class Trainer:
    """Generic trainer for entity-alignment models on a prepared task.

    This is the optimisation *engine*; the declarative facade
    (:class:`repro.pipeline.AlignmentPipeline`) drives this very class
    internally and adds spec validation, artifact persistence and decode
    caching on top.
    """

    def __init__(self, model, task: PreparedTask, config: TrainingConfig | None = None,
                 energy_monitor: EnergyMonitor | None = None):
        self.model = model
        self.task = task
        self.config = config or TrainingConfig()
        self.energy_monitor = energy_monitor
        self._rng = np.random.default_rng(self.config.seed)
        self.loop = build_training_loop(model, task, self.config, self._rng)
        if (energy_monitor is not None
                and type(self.loop).record_energy is TrainingLoop.record_energy):
            raise ValueError(
                f"energy monitoring needs a full-graph encoder pass, which the "
                f"'{self.loop.name}' training loop never runs; use "
                f"sampling='full' or drop the energy monitor")
        self.evaluator = self.loop.evaluator

    # ------------------------------------------------------------------
    # Iterative (bootstrapping) strategy
    # ------------------------------------------------------------------
    def _augment_with_pseudo_pairs(self, seeds: np.ndarray) -> np.ndarray:
        """Promote mutual nearest-neighbour test candidates to pseudo-seeds.

        The selection runs on the loop's streaming
        :class:`~repro.core.similarity.TopKSimilarity` — its running
        row/column argmax reductions — instead of an ``n_s x n_t`` matrix.
        """
        similarity = self.loop.model_similarity()
        seed_sources = set(int(s) for s in seeds[:, 0])
        seed_targets = set(int(t) for t in seeds[:, 1])
        candidates = mutual_nearest_pairs(
            similarity,
            threshold=self.config.iterative_threshold,
            exclude_source=seed_sources,
            exclude_target=seed_targets,
        )
        if not candidates:
            return seeds
        pseudo = np.asarray(candidates, dtype=np.int64)
        return np.concatenate([seeds, pseudo], axis=0)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def fit(self) -> TrainingResult:
        """Train the model (optionally iteratively) and evaluate it."""
        history = TrainingHistory()
        seeds = self.task.train_pairs.copy()

        train_start = time.perf_counter()
        self.loop.train_phase(seeds, self.config.epochs, history, self.energy_monitor)
        if self.config.iterative:
            for _ in range(self.config.iterative_rounds):
                seeds = self._augment_with_pseudo_pairs(seeds)
                history.pseudo_pairs.append(len(seeds) - len(self.task.train_pairs))
                self.loop.train_phase(seeds, self.config.iterative_epochs, history,
                                      self.energy_monitor)
        train_seconds = time.perf_counter() - train_start

        # The parameters have not changed since the last in-training
        # evaluation when it landed on the final epoch — reuse it instead
        # of decoding the same model twice.  That evaluation ran inside the
        # training window, so its time moves from the train to the decode
        # figure rather than being counted in both.
        if history.evaluations and history.evaluations[-1][0] == len(history.losses):
            metrics = history.evaluations[-1][1]
            train_seconds = max(0.0, train_seconds - self.loop.last_eval_seconds)
        else:
            metrics = self.loop.evaluate()
        decode_seconds = self.loop.last_eval_seconds

        num_parameters = 0
        if hasattr(self.model, "num_parameters"):
            num_parameters = self.model.num_parameters()
        return TrainingResult(
            metrics=metrics,
            history=history,
            train_seconds=train_seconds,
            decode_seconds=decode_seconds,
            num_parameters=num_parameters,
        )
