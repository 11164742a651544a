"""The :class:`AlignmentPipeline` facade and its fitted :class:`Aligner` handle.

This is the stable, declarative entry point over the engines the previous
PRs built (CSR graph operators, blockwise decoding, neighbour-sampled
training, IVF candidate generation):

.. code-block:: python

    spec = PipelineSpec.from_json_file("spec.json")
    aligner = AlignmentPipeline.from_spec(spec).fit()
    aligner.evaluate()            # H@1 / H@10 / MRR on the test split
    aligner.align(k=5)            # top-5 target candidates per source entity
    aligner.rank([3, 17])         # ranked candidates for chosen entities
    aligner.save("artifacts/run") # spec JSON + parameter/decode payloads
    Aligner.load("artifacts/run") # bit-identical decode, no retraining

Internally ``fit`` drives ``prepare_task``, the registered model builders,
the pluggable :class:`~repro.core.trainer.TrainingLoop` strategies, the
:class:`~repro.eval.Evaluator` and the streaming decode stack.

The :class:`Aligner` caches the evaluation embeddings (per-propagation-round
state lists) and the fitted candidate structure (e.g. the IVF inverted
index's probe result) across repeated ``align`` / ``rank`` queries, so
serving several ``k`` values or entity subsets pays the encoder and
quantiser cost once.  ``save``/``load`` persist exactly those cached
arrays, which is what makes a reloaded aligner's decode bit-identical to
the in-memory one.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.ann import (RowCandidates, _normalize_rows, count_dot_products,
                        generate_candidates, resolve_ann)
from ..core.registries import build_model_from_spec
from ..core.similarity import (DEFAULT_BLOCK_SIZE, TopKSimilarity,
                               blockwise_topk, compute_partial_topk_candidates)
from ..core.store import EmbeddingStore
from ..core.task import PreparedTask, prepare_task
from ..core.trainer import Trainer, TrainingResult
from ..data.benchmarks import load_benchmark
from ..eval.metrics import EVALUATION_K, AlignmentMetrics, evaluate_alignment
from ..kg.pair import KGPair
from ..robustness.operators import perturb_pair, perturb_task
from .spec import CUSTOM_DATASET, PipelineSpec

__all__ = ["AlignmentPipeline", "Aligner", "TopKAlignment",
           "SPEC_FILENAME", "PARAMS_FILENAME", "STORE_DIRNAME"]

#: Artifact directory layout written by :meth:`Aligner.save`.
SPEC_FILENAME = "spec.json"
PARAMS_FILENAME = "params.npz"
STORE_DIRNAME = "store"              # shard-aligned .npy decode store

#: The artifact format: decode payloads live in an
#: :class:`~repro.core.store.EmbeddingStore` directory of mappable ``.npy``
#: files.  Version 1 (everything zipped into ``decode.npz``) is no longer
#: read.
_ARTIFACT_VERSION = 2


@dataclass
class TopKAlignment:
    """Decoded top-``k`` alignment candidates for a set of source entities.

    ``target_ids[i, j]`` is the ``j``-th best target candidate of source
    entity ``source_ids[i]``, with ``scores`` descending along ``j``.
    ``approximate`` marks decodes restricted to ANN candidate sets.
    """

    source_ids: np.ndarray        # (n,)
    target_ids: np.ndarray        # (n, k)
    scores: np.ndarray            # (n, k)
    approximate: bool = False

    @property
    def k(self) -> int:
        return self.target_ids.shape[1]

    def pairs(self) -> list[tuple[int, int, float]]:
        """Best (top-1) target per source entity as ``(source, target, score)``."""
        return [(int(source), int(targets[0]), float(scores[0]))
                for source, targets, scores
                in zip(self.source_ids, self.target_ids, self.scores)]

    def to_records(self) -> list[dict]:
        """JSON-native per-entity records (the CLI's ``--format json``)."""
        return [
            {"source": int(source),
             "targets": [int(t) for t in targets],
             "scores": [float(s) for s in scores]}
            for source, targets, scores
            in zip(self.source_ids, self.target_ids, self.scores)
        ]

    def to_tsv(self) -> str:
        """``source<TAB>rank<TAB>target<TAB>score`` lines (``--format tsv``)."""
        lines = ["source\trank\ttarget\tscore"]
        for source, targets, scores in zip(self.source_ids, self.target_ids,
                                           self.scores):
            for rank, (target, score) in enumerate(zip(targets, scores), start=1):
                lines.append(f"{int(source)}\t{rank}\t{int(target)}\t{score:.10g}")
        return "\n".join(lines) + "\n"


class AlignmentPipeline:
    """Declarative facade: spec in, fitted :class:`Aligner` out."""

    def __init__(self, spec: PipelineSpec):
        self.spec = spec.validate()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: PipelineSpec) -> "AlignmentPipeline":
        return cls(spec)

    @classmethod
    def from_dict(cls, payload: dict) -> "AlignmentPipeline":
        return cls(PipelineSpec.from_dict(payload))

    @classmethod
    def from_json_file(cls, path) -> "AlignmentPipeline":
        return cls(PipelineSpec.from_json_file(path))

    # ------------------------------------------------------------------
    # Stage builders (usable standalone; fit() composes them)
    # ------------------------------------------------------------------
    def build_task(self, pair: KGPair | PreparedTask | None = None) -> PreparedTask:
        """Materialise and prepare the task the spec's ``data`` section names.

        An explicit ``pair`` overrides the benchmark preset: a ``KGPair``
        is prepared under the spec's seed, a ``PreparedTask`` is used
        as-is.

        The spec's ``perturbation`` section is applied here, exactly once
        — graph-level corruptions before preparation, task-level ones
        after — so every model fitted on this task sees the identical
        corrupted world.  An all-zero section skips the operators
        entirely (bit-exact no-op).  A pre-built ``PreparedTask`` is
        assumed already perturbed by whoever prepared it.
        """
        data = self.spec.data
        perturbation = self.spec.perturbation
        if isinstance(pair, PreparedTask):
            return pair
        if pair is None:
            if data.dataset == CUSTOM_DATASET:
                raise ValueError(
                    "the spec declares dataset='custom'; pass the KGPair to "
                    "fit(pair=...) / build_task(pair=...)")
            pair = load_benchmark(
                data.dataset,
                seed_ratio=data.seed_ratio,
                image_ratio=data.image_ratio,
                text_ratio=data.text_ratio,
                num_entities=data.num_entities,
                seed=data.dataset_seed,
            )
        if not perturbation.is_noop():
            pair = perturb_pair(pair, perturbation)
        task = prepare_task(pair, structure_dim=self.spec.model.hidden_dim,
                            seed=data.seed)
        if not perturbation.is_noop():
            task = perturb_task(task, perturbation)
        return task

    def build_model(self, task: PreparedTask):
        """Instantiate the registered aligner the ``model`` section names."""
        return build_model_from_spec(self.spec.model, task,
                                     default_seed=self.spec.data.seed)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def fit(self, pair: KGPair | PreparedTask | None = None) -> "Aligner":
        """Prepare, train and evaluate; returns the fitted :class:`Aligner`."""
        task = self.build_task(pair)
        model = self.build_model(task)
        result = Trainer(model, task, self.spec.training).fit()
        return Aligner(self.spec, task=task, model=model, result=result)


class Aligner:
    """A fitted alignment artefact: query handle plus persistence.

    Not constructed directly — obtained from
    :meth:`AlignmentPipeline.fit` or :meth:`Aligner.load`.  The decode
    inputs (per-round evaluation states) and the generated candidate
    structure are computed once and reused across ``align`` / ``rank``
    calls with different ``k``; they are also exactly what ``save``
    persists, so a loaded aligner decodes bit-identically.  Concurrent
    queries fill each lazy cache once (double-checked under one lock).
    """

    def __init__(self, spec: PipelineSpec, *, task: PreparedTask | None = None,
                 model=None, result: TrainingResult | None = None,
                 states: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
                 row_candidates: RowCandidates | None = None,
                 candidates_ready: bool = False,
                 train_pairs: np.ndarray | None = None,
                 test_pairs: np.ndarray | None = None,
                 params_path: Path | None = None):
        self.spec = spec
        self.task = task
        self.model = model
        self.result = result
        #: Saved parameters to restore into a lazily rebuilt model (load()).
        self._params_path = params_path
        self._states = states
        self._row_candidates = row_candidates
        self._candidates_ready = candidates_ready
        self._topk_cache: dict[int, TopKSimilarity] = {}
        self._train_pairs = (train_pairs if train_pairs is not None
                             else (task.train_pairs if task is not None else None))
        self._test_pairs = (test_pairs if test_pairs is not None
                            else (task.test_pairs if task is not None else None))
        #: The one normalised copy of the decode tables, shared by every
        #: full-table decode and row-subset serving decode.
        self._norm_states: tuple[list[np.ndarray], list[np.ndarray]] | None = None
        self._fill_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Cached decode inputs
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> AlignmentMetrics | None:
        """Test metrics recorded at fit time (``None`` on a bare load)."""
        return self.result.metrics if self.result is not None else None

    def _ensure_model(self) -> bool:
        """Rebuild the task/model from a loaded artifact on first need.

        ``load()`` defers this to :meth:`decode_states`, which needs it
        only when no states are cached, so pure serving queries
        (``align``/``rank``/``evaluate`` over the cached decode) never pay
        benchmark regeneration, task preparation or model construction.
        Returns whether a model is available afterwards.
        """
        if self.model is not None:
            return True
        if self._params_path is None or self.spec.data.dataset == CUSTOM_DATASET:
            return False
        pipeline = AlignmentPipeline(self.spec)
        task = pipeline.build_task()
        model = pipeline.build_model(task)
        with np.load(self._params_path) as params:
            model.load_state_dict({key: params[key] for key in params.files})
        self.task = task
        self.model = model
        return True

    def decode_states(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The (cached) per-round evaluation states feeding every decode."""
        if self._states is None:
            with self._fill_lock:
                if self._states is None:
                    if not self._ensure_model():
                        raise RuntimeError(
                            "this aligner holds no model and no cached decode "
                            "states; load() an artifact saved by save() or "
                            "fit() a pipeline")
                    decode = self.spec.decode
                    self._states = self.model.decode_states(
                        use_propagation=decode.use_propagation,
                        encode=decode.encode,
                        encode_batch_size=decode.encode_batch_size)
        return self._states

    def row_candidates(self) -> RowCandidates | None:
        """The (cached) candidate sets of the spec's generator, fitted once.

        ``None`` for exhaustive decoding or when the generator proves
        complete coverage.  Building this is where the IVF quantiser (or a
        plug-in generator's structure) is fitted; every subsequent
        ``align``/``rank``/``save`` reuses the result.
        """
        if not self._candidates_ready:
            with self._fill_lock:
                decode = self.spec.decode
                if (not self._candidates_ready
                        and decode.candidates != "exhaustive"):
                    source_states, target_states = self.decode_states()
                    self._row_candidates = generate_candidates(
                        decode.candidates, source_states, target_states,
                        resolve_ann(decode.ann, self.spec.training.seed))
                self._candidates_ready = True
        return self._row_candidates

    def topk(self, k: int | None = None) -> TopKSimilarity:
        """The streaming decode at ``k`` (cached per ``k``)."""
        k = int(k) if k is not None else self.spec.decode.k
        if k <= 0:
            raise ValueError("k must be positive")
        cached = self._topk_cache.get(k)
        if cached is None:
            with self._fill_lock:
                cached = self._topk_cache.get(k)
                if cached is None:
                    source_norm, target_norm = self._normalized_states()
                    cached = blockwise_topk(
                        source_norm, target_norm, k=k,
                        row_candidates=self.row_candidates(),
                        pre_normalized=True,
                        num_workers=self.spec.decode.num_workers)
                    self._topk_cache[k] = cached
        return cached

    def _normalized_states(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Row-normalised decode tables, computed once per artifact.

        Exactly the arrays the streaming engine derives internally
        (``_normalize_rows`` at float64).  Full-table decodes
        (``pre_normalized=True``) and row-subset serving decodes both read
        this one copy, so they stay bit-identical: the very same
        normalised values enter the products.
        """
        if self._norm_states is None:
            with self._fill_lock:
                if self._norm_states is None:
                    source_states, target_states = self.decode_states()
                    self._norm_states = (
                        [_normalize_rows(state) for state in source_states],
                        [_normalize_rows(state) for state in target_states])
        return self._norm_states

    def decode_fingerprint(self) -> str:
        """Stable identity of this artifact's decode configuration.

        A hash over the full validated spec: any change to the data,
        model, training or decode parameters changes the fingerprint.
        Serving result caches key on it (together with the engine's
        artifact generation) so cached rows can never outlive the decode
        parameters that produced them.
        """
        payload = json.dumps(self.spec.to_dict(), sort_keys=True)
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def align(self, k: int | None = None) -> TopKAlignment:
        """Top-``k`` target candidates for every source entity."""
        k = int(k) if k is not None else self.spec.decode.k
        topk = self.topk(k)
        # The engine may keep extra columns for CSLS statistics; the
        # alignment surfaces exactly the k the caller asked for.
        width = min(k, topk.indices.shape[1])
        return TopKAlignment(
            source_ids=np.arange(topk.shape[0], dtype=np.int64),
            target_ids=topk.indices[:, :width].copy(),
            scores=topk.scores[:, :width].copy(),
            approximate=topk.approximate,
        )

    def rank(self, entity_ids, k: int | None = None) -> TopKAlignment:
        """Ranked target candidates for selected source entities.

        Delegates to :meth:`rank_rows`, which serves from the cached full
        table when one exists and decodes only the requested rows
        otherwise — always with results bit-identical to slicing
        :meth:`align`.
        """
        return self.rank_rows(entity_ids, k)

    def rank_rows(self, entity_ids, k: int | None = None) -> TopKAlignment:
        """Ranked candidates for selected rows — the serving fast path.

        Candidate-restricted artifacts decode only the requested rows:
        their candidate rows are selected and padded, then gathered one
        per-edge dot product each by
        :func:`~repro.core.similarity.compute_partial_topk_candidates`, so
        cost scales with the batch, not the corpus.  Every cell is
        computed from its own two rows, independent of which other rows
        share the batch, which is what makes micro-batched, single-row
        and full-table decodes bit-identical — the GEMM kernel used by
        exhaustive decodes does *not* have that property (its last-ulp
        rounding depends on the batch shape), so exhaustive artifacts are
        served by slicing the cached full top-``k`` table instead: one
        corpus-sized decode on the first query per ``k``, O(1) row slices
        afterwards.
        """
        k = int(k) if k is not None else self.spec.decode.k
        if k <= 0:
            raise ValueError("k must be positive")
        entity_ids = np.asarray(entity_ids, dtype=np.int64).reshape(-1)
        source_norm, target_norm = self._normalized_states()
        num_source = source_norm[0].shape[0]
        if len(entity_ids) and (entity_ids.min() < 0
                                or entity_ids.max() >= num_source):
            raise ValueError(
                f"entity ids must lie in [0, {num_source}), got "
                f"{entity_ids.min()}..{entity_ids.max()}")
        candidates = self.row_candidates()
        restricted = candidates is not None and not candidates.is_complete()
        if not restricted or k in self._topk_cache:
            topk = self.topk(k)
            width = min(k, topk.indices.shape[1])
            return TopKAlignment(
                source_ids=entity_ids,
                target_ids=topk.indices[entity_ids, :width].copy(),
                scores=topk.scores[entity_ids, :width].copy(),
                approximate=topk.approximate,
            )
        width = min(k, target_norm[0].shape[0])
        partial = compute_partial_topk_candidates(
            [state[entity_ids] for state in source_norm], target_norm,
            candidates.select_rows(entity_ids).padded(width),
            0, len(entity_ids), k_keep=width, block_size=DEFAULT_BLOCK_SIZE,
            dtype=np.float64)
        count_dot_products(partial.computed_cells)
        return TopKAlignment(source_ids=entity_ids, target_ids=partial.indices,
                             scores=partial.scores, approximate=True)

    def with_decode(self, decode) -> "Aligner":
        """A sibling handle over the same fitted model with another decode spec.

        Shares the task, model and training result.  Decode caches carry
        over exactly as far as they stay valid: the cached states (and
        their normalised copy) survive when the new
        :class:`~repro.pipeline.DecodeSpec` computes them the same way
        (``use_propagation`` / ``encode`` unchanged), and the
        fitted candidate structure additionally requires an unchanged
        ``candidates`` / ``ann`` — so changing only ``k`` or ``ranking``
        on a loaded model-less artifact keeps working.  Useful for
        ablations (e.g. re-evaluating without Semantic Propagation)
        without re-fitting.
        """
        from dataclasses import replace

        spec = replace(self.spec, decode=decode).validate()
        old, new = self.spec.decode, spec.decode
        same_states = (self._states is not None
                       and new.use_propagation == old.use_propagation
                       and new.encode == old.encode
                       and new.encode_batch_size == old.encode_batch_size)
        same_candidates = (same_states and self._candidates_ready
                           and new.candidates == old.candidates
                           and new.ann == old.ann)
        sibling = Aligner(spec, task=self.task, model=self.model,
                          result=self.result,
                          states=self._states if same_states else None,
                          row_candidates=(self._row_candidates
                                          if same_candidates else None),
                          candidates_ready=same_candidates,
                          train_pairs=self._train_pairs,
                          test_pairs=self._test_pairs,
                          params_path=self._params_path)
        if same_states:
            sibling._norm_states = self._norm_states
        return sibling

    def evaluate(self) -> AlignmentMetrics:
        """H@1 / H@10 / MRR on the held-out test pairs, per the decode spec.

        Scores this artifact's own decode of its cached states at
        :data:`~repro.eval.metrics.EVALUATION_K`, so a fitted aligner and
        its reload report the same metrics, and a loaded artifact needs no
        model to evaluate.
        """
        if self._test_pairs is None:
            raise RuntimeError("this aligner carries no test pairs to evaluate on")
        return evaluate_alignment(self.topk(EVALUATION_K), self._test_pairs,
                                  ranking=self.spec.decode.ranking)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory) -> Path:
        """Persist spec + parameters + decode payloads under ``directory``.

        Writes ``spec.json`` (the validated spec plus artifact metadata),
        ``params.npz`` (the model's state dict, when a model is attached)
        and the decode payloads as an
        :class:`~repro.core.store.EmbeddingStore` — shard-aligned ``.npy``
        files holding the cached per-round states, the candidate CSR and
        the train/test splits, which
        ``load(mmap=True)`` maps natively.  :meth:`load` rebuilds an
        aligner whose ``align``/``rank`` reproduce this one's decode
        bit-identically, because they consume these exact arrays.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)

        source_states, target_states = self.decode_states()
        candidates = self.row_candidates()
        EmbeddingStore.create(
            directory / STORE_DIRNAME,
            source_states=source_states, target_states=target_states,
            row_candidates=candidates,
            train_pairs=self._train_pairs, test_pairs=self._test_pairs,
            block_size=DEFAULT_BLOCK_SIZE)

        target_params = directory / PARAMS_FILENAME
        if self.model is not None:
            np.savez_compressed(target_params, **self.model.state_dict())
        elif (self._params_path is not None
              and self._params_path.resolve() != target_params.resolve()):
            # A lazily-loaded aligner that never needed its model still
            # carries the parameter payload forward on re-save.
            shutil.copyfile(self._params_path, target_params)

        payload = {
            "format_version": _ARTIFACT_VERSION,
            "spec": self.spec.to_dict(),
            "num_rounds": len(source_states),
            "num_targets": int(np.asarray(target_states[0]).shape[0]),
            "has_candidates": candidates is not None,
            "has_model": (self.model is not None
                          or self._params_path is not None),
        }
        (directory / SPEC_FILENAME).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return directory

    @classmethod
    def load(cls, directory, *, mmap: bool = False) -> "Aligner":
        """Reconstruct a saved aligner; its decode is bit-identical to save time.

        ``align``/``rank``/``evaluate`` serve straight from the persisted
        decode payloads, with no model.  When the spec's dataset is a
        regenerable benchmark preset, the task and model are rebuilt
        *lazily* — only when a sibling from :meth:`with_decode` needs
        states the artifact does not cache (e.g. ``use_propagation=False``)
        — with the saved parameters restored; for custom data only the
        cached decode artefacts are available.

        ``mmap=True`` memory-maps the decode payloads read-only instead of
        loading them into process memory, so serving worker pools (and
        co-hosted processes) share a single page-cache copy of the
        embedding tables and row gathers touch only the pages they read.

        Only ``format_version`` 2 artifacts are read; a version-1 artifact
        (``decode.npz``) raises a ``ValueError`` naming its version.
        """
        directory = Path(directory)
        spec_path = directory / SPEC_FILENAME
        if not spec_path.exists():
            raise FileNotFoundError(f"no {SPEC_FILENAME} under {directory}")
        payload = json.loads(spec_path.read_text())
        version = payload.get("format_version")
        if version != _ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact format_version {version!r} "
                             f"(this build reads {_ARTIFACT_VERSION}); re-fit "
                             "and save the pipeline to write a current artifact")
        spec = PipelineSpec.from_dict(payload["spec"])
        store = EmbeddingStore.open(directory / STORE_DIRNAME, mmap=mmap)

        params_path: Path | None = None
        if payload.get("has_model"):
            params_path = directory / PARAMS_FILENAME
            if not params_path.exists():
                # Restoring without parameters would silently decode a
                # randomly initialised model; a truncated artifact must
                # fail loudly instead.
                raise FileNotFoundError(
                    f"artifact {directory} declares a model but "
                    f"{PARAMS_FILENAME} is missing — the artifact is "
                    "incomplete")

        return cls(spec, states=store.states(),
                   row_candidates=store.row_candidates(),
                   candidates_ready=True, train_pairs=store.train_pairs,
                   test_pairs=store.test_pairs, params_path=params_path)

