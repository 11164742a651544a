"""Declarative, JSON-round-trippable specification of an alignment pipeline.

A :class:`PipelineSpec` composes the four concerns a full alignment run
spans into one frozen, validated object:

* ``data`` — which benchmark split (or custom pair) to align, and at
  what scale (:class:`DataSpec`);
* ``model`` — which registered aligner, at what width, with which
  model-specific options (:class:`ModelSpec`);
* ``training`` — the optimisation recipe, reusing the existing
  :class:`~repro.core.config.TrainingConfig` verbatim;
* ``decode`` — how test-time similarities are produced and ranked
  (:class:`DecodeSpec`);
* ``perturbation`` — which seeded corruptions to inject into the task
  between data preparation and fit (:class:`PerturbationSpec`; the
  all-zero default is a bit-exact no-op).

Specs serialise losslessly: ``PipelineSpec.from_dict(spec.to_dict()) ==
spec``, and ``from_json_file`` / ``to_json_file`` move them through plain
JSON (tuples become lists on the way out and are restored on the way in).
Unknown keys and illegal combinations are rejected with actionable
messages; every cross-field legality rule — candidates × ranking,
iterative × candidates, patience × cadence, sampling capability — is enforced
in exactly one place,
:meth:`PipelineSpec.validate`, through the shared rule functions of
:mod:`repro.core.rules`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..core import rules
from ..core.ann import AnnConfig
from ..core.config import TrainingConfig
from ..core.registries import model_names, model_supports_sampling
from ..data.benchmarks import ALL_DATASETS

__all__ = ["DataSpec", "ModelSpec", "DecodeSpec", "PerturbationSpec",
           "DeltaSpec", "PipelineSpec", "CUSTOM_DATASET"]

#: ``DataSpec.dataset`` value declaring that the pair is supplied by the
#: caller (``AlignmentPipeline.fit(pair)``) instead of a benchmark preset.
CUSTOM_DATASET = "custom"


def _jsonable(value):
    """Tuples become lists and nested dataclasses (e.g. ``AnnConfig``)
    become dicts, so a section dict is directly ``json.dump``-able."""
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    return value


def _section_to_dict(section) -> dict:
    return {f.name: _jsonable(getattr(section, f.name)) for f in fields(section)}


def _check_keys(cls, payload, section: str) -> dict:
    """Reject non-dict payloads and unknown keys with an actionable message."""
    if not isinstance(payload, dict):
        raise ValueError(f"the {section!r} section must be a JSON object, "
                         f"got {type(payload).__name__}")
    valid = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - valid)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in the {section!r} section; "
                         f"valid keys: {sorted(valid)}")
    return dict(payload)


def _tuple_or_none(value):
    if value is None:
        return None
    return tuple(value)


#: Keys saved specs may carry that ``AnnConfig`` no longer has, with the
#: one value each still loads at (``None``: any value).  ``tables`` and
#: ``hyperplanes`` only shaped LSH, now ``examples/lsh_candidate_plugin.py``.
_REMOVED_ANN_KEYS = {"tables": None, "hyperplanes": None,
                     "adaptive_slack": 0.0, "gather": "edge"}


def _ann_from_payload(value, section: str) -> AnnConfig | None:
    if value is None or isinstance(value, AnnConfig):
        return value
    if isinstance(value, dict):
        value = dict(value)
        for key, kept in _REMOVED_ANN_KEYS.items():
            found = value.pop(key, kept)
            if kept is not None and found != kept:
                raise ValueError(
                    f"{section}.ann.{key}={found!r} was removed; saved specs "
                    f"load only with {key}={kept!r}, which every decode does")
    return AnnConfig(**_check_keys(AnnConfig, value, f"{section}.ann"))


@dataclass(frozen=True)
class DataSpec:
    """Which alignment task to materialise, at what scale.

    ``dataset`` names a benchmark preset (see
    :data:`repro.data.benchmarks.ALL_DATASETS`) or :data:`CUSTOM_DATASET`
    for a caller-supplied :class:`~repro.kg.KGPair`.  ``seed`` drives task
    preparation (feature hashing, imputation, train/test split);
    ``dataset_seed`` optionally overrides the preset's base seed for the
    synthetic generator itself (``None`` keeps the preset default, which is
    what the experiment harness uses).

    Every graph runs as CSR; ``backend`` accepts ``"dense"`` and
    ``"sparse"``, which both name that one representation, so specs and
    artifacts written with either still parse.
    """

    dataset: str = "FBDB15K"
    num_entities: int = 120
    seed_ratio: float | None = None
    image_ratio: float | None = None
    text_ratio: float | None = None
    backend: str = "dense"
    seed: int = 0
    dataset_seed: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in {"dense", "sparse"}:
            raise ValueError(
                f"backend must be 'dense' or 'sparse', got {self.backend!r}")
        if self.num_entities <= 0:
            raise ValueError("num_entities must be positive")
        for name in ("seed_ratio", "image_ratio", "text_ratio"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")

    @classmethod
    def from_dict(cls, payload: dict) -> "DataSpec":
        return cls(**_check_keys(cls, payload, "data"))


@dataclass(frozen=True)
class ModelSpec:
    """Which registered aligner to build, and how wide.

    ``name`` is looked up in the model registry
    (:func:`repro.core.registries.register_model`); ``options`` carries
    model-specific constructor options as a JSON-native mapping (e.g.
    ``{"propagation_iters": 3}`` for DESAlign, ``{"gnn": "gat"}`` for a
    modal baseline — list values are converted to tuples at build time).
    ``seed=None`` inherits the pipeline's data seed.
    """

    name: str = "DESAlign"
    hidden_dim: int = 32
    seed: int | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.hidden_dim <= 0:
            raise ValueError("hidden_dim must be positive")
        if not isinstance(self.options, dict):
            raise ValueError("model options must be a mapping")
        # Canonicalise to the JSON-native form (tuples -> lists) so the
        # round-trip invariant from_dict(to_dict(s)) == s holds even for
        # tuple-valued options; the model builders re-tuple at build time.
        object.__setattr__(self, "options", _jsonable(self.options))

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelSpec":
        return cls(**_check_keys(cls, payload, "model"))


@dataclass(frozen=True)
class DecodeSpec:
    """How the fitted aligner produces and ranks test-time similarities.

    Every decode streams through
    :func:`~repro.core.similarity.blockwise_topk`; ``decode`` accepts
    ``"auto"`` and ``"blockwise"``, which both name that one decode, so
    specs and artifacts written with either still parse (``"dense"`` was
    removed and is rejected).  The other fields set the stored neighbours
    ``k``, the encoder path (``full`` / ``sampled`` + batch size), the
    ranking (``cosine`` / ``csls``), candidate generation (``exhaustive``
    or a registered generator, with an optional
    :class:`~repro.core.ann.AnnConfig`) and whether Semantic Propagation
    runs.

    ``num_workers`` shards the full-table decode across that many forked
    worker processes (:mod:`repro.core.sharded`) — bit-identical to the
    single-process decode; ``None`` keeps the in-process scan.
    """

    decode: str = "auto"
    k: int = 10
    encode: str = "full"
    encode_batch_size: int | None = None
    ranking: str = "cosine"
    candidates: str = "exhaustive"
    ann: AnnConfig | None = None
    use_propagation: bool = True
    num_workers: int | None = None

    def __post_init__(self) -> None:
        rules.check_decode_method(self.decode)
        rules.check_encode_method(self.encode)
        rules.check_ranking_method(self.ranking)
        rules.check_candidates_method(self.candidates)
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.encode_batch_size is not None and self.encode_batch_size <= 0:
            raise ValueError("encode_batch_size must be positive")
        if self.num_workers is not None and self.num_workers <= 0:
            raise ValueError("num_workers must be positive")

    @classmethod
    def from_dict(cls, payload: dict) -> "DecodeSpec":
        data = _check_keys(cls, payload, "decode")
        if "ann" in data:
            data["ann"] = _ann_from_payload(data["ann"], "decode")
        return cls(**data)


#: Channels :class:`PerturbationSpec.dropout_channels` may name — the two
#: modalities an entity can lose while remaining a valid graph node.
DROPPABLE_CHANNELS = ("vision", "attribute")

#: Feature channels :class:`PerturbationSpec.noise_channels` may name —
#: any prepared modal feature matrix.
NOISE_CHANNELS = ("graph", "relation", "attribute", "vision")


@dataclass(frozen=True)
class PerturbationSpec:
    """Declarative corruption of the task, applied once before fitting.

    All rates are severities in ``[0, 1]``; a spec whose severities are
    all zero is a *bit-exact no-op* — the pipeline skips the operators
    entirely, so zero-severity sweep cells reproduce the unperturbed run
    bit for bit.  ``seed`` drives every operator through independent
    per-operator child generators, so enabling one corruption never
    shifts another's random stream.

    Graph-level corruptions (applied to the raw pair, before task
    preparation): ``modality_dropout`` removes each channel in
    ``dropout_channels`` from that fraction of carrying entities;
    ``edge_deletion`` drops relation triples uniformly;
    ``edge_rewiring`` reconnects triple tails uniformly at random;
    ``degree_skew`` reconnects tails preferentially toward hubs.

    Task-level corruptions (applied to the prepared artefacts):
    ``feature_noise`` adds Gaussian noise at that multiple of each
    matrix's own standard deviation to the channels in
    ``noise_channels``; ``seed_noise`` mislabels that fraction of the
    seed (train) pairs by permuting their targets — test pairs are never
    touched.
    """

    modality_dropout: float = 0.0
    dropout_channels: tuple = DROPPABLE_CHANNELS
    feature_noise: float = 0.0
    noise_channels: tuple = ("vision", "attribute")
    seed_noise: float = 0.0
    edge_deletion: float = 0.0
    edge_rewiring: float = 0.0
    degree_skew: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Canonicalise to tuples so the frozen spec hashes/compares and
        # the JSON round trip (lists in, tuples here) stays lossless.
        object.__setattr__(self, "dropout_channels",
                           tuple(self.dropout_channels))
        object.__setattr__(self, "noise_channels",
                           tuple(self.noise_channels))
        for name in ("modality_dropout", "seed_noise", "edge_deletion",
                     "edge_rewiring", "degree_skew"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.feature_noise < 0.0:
            raise ValueError("feature_noise must be non-negative, got "
                             f"{self.feature_noise!r}")
        for channel in self.dropout_channels:
            if channel not in DROPPABLE_CHANNELS:
                raise ValueError(
                    f"dropout_channels may only name {DROPPABLE_CHANNELS}, "
                    f"got {channel!r}")
        for channel in self.noise_channels:
            if channel not in NOISE_CHANNELS:
                raise ValueError(
                    f"noise_channels may only name {NOISE_CHANNELS}, "
                    f"got {channel!r}")
        # A positive severity aimed at zero channels would be a silent
        # no-op — reject it the way every other illegal spec is rejected.
        if self.modality_dropout > 0.0 and not self.dropout_channels:
            raise ValueError("modality_dropout > 0 requires at least one "
                             "dropout channel")
        if self.feature_noise > 0.0 and not self.noise_channels:
            raise ValueError("feature_noise > 0 requires at least one "
                             "noise channel")

    def is_noop(self) -> bool:
        """True when no corruption is declared (the pipeline skips it)."""
        return (self.modality_dropout == 0.0 and self.feature_noise == 0.0
                and self.seed_noise == 0.0 and self.edge_deletion == 0.0
                and self.edge_rewiring == 0.0 and self.degree_skew == 0.0)

    @classmethod
    def from_dict(cls, payload: dict) -> "PerturbationSpec":
        return cls(**_check_keys(cls, payload, "perturbation"))


@dataclass(frozen=True)
class DeltaSpec:
    """How the incremental subsystem ingests delta batches.

    The all-default section changes nothing about a non-incremental run
    (specs and artifacts written before it existed load unchanged); it
    only parameterises ``repro ingest`` /
    :meth:`~repro.serve.ServingEngine.ingest`.  ``fanouts`` bound the
    warm-encode receptive field per GNN layer (``None`` keeps the model's
    full neighbourhood, which keeps re-encoded rows bit-compatible with
    the full encode); ``encode_batch_size`` sizes the sampled re-encode
    batches (``None`` follows the decode section / model default);
    ``refit_threshold`` is the fraction of moved-or-inserted IVF vectors
    tolerated before the quantiser is re-trained, via
    ``refit_train_size``-subsampled k-means warm-started from the current
    centroids; ``seed`` drives the per-batch feature/parameter streams.
    """

    fanouts: tuple | None = None
    encode_batch_size: int | None = None
    refit_threshold: float = 0.25
    refit_train_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fanouts is not None:
            object.__setattr__(
                self, "fanouts",
                tuple(None if f is None else int(f) for f in self.fanouts))
            for fanout in self.fanouts:
                if fanout is not None and fanout <= 0:
                    raise ValueError("fanouts must be positive or None, got "
                                     f"{fanout!r}")
        if self.encode_batch_size is not None and self.encode_batch_size <= 0:
            raise ValueError("encode_batch_size must be positive, got "
                             f"{self.encode_batch_size!r}")
        if self.refit_threshold <= 0.0:
            raise ValueError("refit_threshold must be positive, got "
                             f"{self.refit_threshold!r}")
        if self.refit_train_size is not None and self.refit_train_size <= 0:
            raise ValueError("refit_train_size must be positive, got "
                             f"{self.refit_train_size!r}")

    @classmethod
    def from_dict(cls, payload: dict) -> "DeltaSpec":
        data = _check_keys(cls, payload, "delta")
        if "fanouts" in data:
            data["fanouts"] = _tuple_or_none(data["fanouts"])
        return cls(**data)


def _training_from_dict(payload: dict) -> TrainingConfig:
    data = _check_keys(TrainingConfig, payload, "training")
    if "fanouts" in data:
        data["fanouts"] = _tuple_or_none(data["fanouts"])
    if "ann" in data:
        data["ann"] = _ann_from_payload(data["ann"], "training")
    return TrainingConfig(**data)


@dataclass(frozen=True)
class PipelineSpec:
    """One validated, serialisable description of a full alignment run."""

    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    decode: DecodeSpec = field(default_factory=DecodeSpec)
    #: Declarative task corruption (all-zero default is a bit-exact no-op,
    #: so specs and artifacts written before this section existed load
    #: unchanged).
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    #: Incremental-ingestion parameters (the default is inert outside
    #: ``repro ingest`` / ``ServingEngine.ingest``, so older specs and
    #: artifacts load unchanged).
    delta: DeltaSpec = field(default_factory=DeltaSpec)

    # ------------------------------------------------------------------
    # Validation (the single home of every cross-field legality rule)
    # ------------------------------------------------------------------
    def validate(self) -> "PipelineSpec":
        """Check every cross-field legality rule; returns ``self``.

        Section-local vocabulary is already validated at construction (the
        dataclasses delegate to :mod:`repro.core.rules` in their
        ``__post_init__``); this method adds everything that spans
        sections, so an illegal pipeline is rejected here — once — instead
        of partway through a run.
        """
        data, model, training, decode = (self.data, self.model,
                                         self.training, self.decode)
        # -- registry membership ---------------------------------------
        known_models = model_names()
        if model.name not in known_models:
            raise ValueError(f"unknown model {model.name!r}; "
                             f"registered: {known_models}")
        if data.dataset != CUSTOM_DATASET and data.dataset not in ALL_DATASETS:
            raise ValueError(
                f"unknown dataset {data.dataset!r}; use one of "
                f"{list(ALL_DATASETS)} or {CUSTOM_DATASET!r} with "
                "AlignmentPipeline.fit(pair=...)")
        # -- decode coherence ------------------------------------------
        rules.check_ranking_candidates(decode.ranking, decode.candidates)
        # -- training coherence (re-run so validate() covers the full
        #    rule set even if TrainingConfig construction is bypassed) --
        rules.check_iterative_candidates(training.iterative, training.candidates)
        rules.check_patience_cadence(training.early_stopping_patience,
                                     training.eval_every)
        # -- capability: neighbour sampling / sampled inference --------
        if training.sampling == "neighbour" and not model_supports_sampling(model.name):
            raise ValueError(
                f"model {model.name!r} does not support sampling='neighbour' "
                "(it must expose subgraph_loss and neighbour_sampler); "
                "register it with supports_sampling=True or use sampling='full'")
        if decode.encode == "sampled" and not model_supports_sampling(model.name):
            raise ValueError(
                f"model {model.name!r} does not support encode='sampled' "
                "(batched subgraph inference); use encode='full'")
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-native nested dict (tuples listed, dataclasses expanded)."""
        return {
            "data": _section_to_dict(self.data),
            "model": _section_to_dict(self.model),
            "training": _section_to_dict(self.training),
            "decode": _section_to_dict(self.decode),
            "perturbation": _section_to_dict(self.perturbation),
            "delta": _section_to_dict(self.delta),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineSpec":
        """Build and validate a spec from a (possibly partial) nested dict."""
        if not isinstance(payload, dict):
            raise ValueError("a pipeline spec must be a JSON object")
        known = {"data", "model", "training", "decode", "perturbation",
                 "delta"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown top-level key(s) {unknown} in pipeline "
                             f"spec; valid sections: {sorted(known)}")
        spec = cls(
            data=DataSpec.from_dict(payload.get("data", {})),
            model=ModelSpec.from_dict(payload.get("model", {})),
            training=_training_from_dict(payload.get("training", {})),
            decode=DecodeSpec.from_dict(payload.get("decode", {})),
            perturbation=PerturbationSpec.from_dict(
                payload.get("perturbation", {})),
            delta=DeltaSpec.from_dict(payload.get("delta", {})),
        )
        return spec.validate()

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_json_file(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_json_file(cls, path) -> "PipelineSpec":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"spec file {path} is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_overrides(self, **sections) -> "PipelineSpec":
        """Return a copy with whole sections replaced (and re-validated)."""
        from dataclasses import replace

        return replace(self, **sections).validate()
