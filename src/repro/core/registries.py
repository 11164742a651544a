"""Named component registries behind the declarative pipeline API.

Every pluggable component family of the decode/training stack — aligner
models, training-loop strategies and candidate generators — registers here
under the string name a :class:`~repro.pipeline.PipelineSpec` refers to it
by.  The registries are the single dispatch point: ``build_model`` /
``build_training_loop`` / ``generate_candidates`` all resolve their string
switches through these tables, so a third-party component registered with
one decorator call plugs into the facade, the ``Trainer`` engine, the CLI
and the experiment harness alike.

This module deliberately imports nothing from the rest of the package so
that it can sit below :mod:`repro.core.config` and
:mod:`repro.core.rules` without cycles; the built-in components register
themselves when their defining modules import (``repro.baselines`` for the
model zoo, :mod:`repro.core.trainer` for the loops, :mod:`repro.core.ann`
for the candidate generators).

Out-of-tree packages plug in without being imported by anyone: a
distribution that declares an entry point in the ``repro.plugins`` group ::

    [project.entry-points."repro.plugins"]
    my_models = "my_package.repro_plugin"

is discovered through :func:`importlib.metadata.entry_points` and loaded
(once, lazily) by :func:`load_entry_point_plugins` the first time a
registry lookup *misses* — importing the target module runs its
``@register_model`` / ``@register_training_loop`` /
``@register_candidate_generator`` decorators, exactly like the built-ins.
A broken plugin is skipped with a warning rather than taking the host
process down.
"""

from __future__ import annotations

import warnings
from typing import Callable

__all__ = [
    "MODEL_REGISTRY",
    "TRAINING_LOOP_REGISTRY",
    "CANDIDATE_REGISTRY",
    "register_model",
    "register_training_loop",
    "register_candidate_generator",
    "build_model",
    "build_model_from_spec",
    "model_names",
    "model_supports_sampling",
    "training_loop_names",
    "candidate_methods",
    "load_entry_point_plugins",
    "PLUGIN_ENTRY_POINT_GROUP",
]

#: ``importlib.metadata`` entry-point group scanned for out-of-tree plugins.
PLUGIN_ENTRY_POINT_GROUP = "repro.plugins"

#: Whether the entry-point scan has run (it runs at most once per process;
#: tests reset this through :func:`load_entry_point_plugins`'s ``force``).
_PLUGINS_LOADED = False


def load_entry_point_plugins(force: bool = False) -> list[str]:
    """Import every ``repro.plugins`` entry point; return the loaded names.

    Idempotent: the scan runs once per process unless ``force=True`` (which
    re-imports nothing already cached by ``sys.modules`` but re-runs the
    discovery, for tests that install fake distributions).  Each entry
    point's value is imported for its registration side effects; one
    failing plugin is reported as a ``RuntimeWarning`` and skipped so it
    cannot break unrelated pipelines.
    """
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED and not force:
        return []
    _PLUGINS_LOADED = True
    loaded: list[str] = []
    try:
        from importlib.metadata import entry_points
        points = entry_points(group=PLUGIN_ENTRY_POINT_GROUP)
    except Exception as error:  # pragma: no cover - metadata backend broken
        warnings.warn(f"plugin discovery failed: {error}", RuntimeWarning,
                      stacklevel=2)
        return []
    for point in points:
        try:
            point.load()
        except Exception as error:
            warnings.warn(
                f"plugin entry point {point.name!r} ({point.value}) failed "
                f"to load and was skipped: {error}", RuntimeWarning,
                stacklevel=2)
        else:
            loaded.append(point.name)
    return loaded

#: Name -> constructor for every aligner usable by the experiment harness.
#: (Re-exported by :mod:`repro.baselines` for backward compatibility.)
MODEL_REGISTRY: dict[str, Callable] = {}

#: Extra per-model metadata: the spec builder used by the facade and the
#: capability flags the spec validator checks.
_MODEL_INFO: dict[str, dict] = {}

#: ``TrainingConfig.sampling`` value -> :class:`TrainingLoop` subclass.
TRAINING_LOOP_REGISTRY: dict[str, type] = {}

#: Candidate-generation method -> builder ``(source, target, config) ->
#: RowCandidates | None`` (``"exhaustive"`` is implicit: no generator runs).
CANDIDATE_REGISTRY: dict[str, Callable] = {}


def _tupled(value):
    """JSON-native lists become tuples (specs arrive through ``json.load``)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tupled(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------
def register_model(name: str, *, spec_builder: Callable | None = None,
                   supports_sampling: bool = False):
    """Class/factory decorator registering an aligner under ``name``.

    ``spec_builder(task, hidden_dim=..., seed=..., options=...)`` adapts a
    declarative :class:`~repro.pipeline.ModelSpec` to the component's own
    constructor; without one the factory itself is called as
    ``factory(task, hidden_dim=..., seed=..., **options)``.
    ``supports_sampling`` declares that the model implements
    ``subgraph_loss`` / ``neighbour_sampler`` / ``encode_entities_sampled``,
    which ``sampling="neighbour"`` training and ``encode="sampled"``
    inference require — the spec validator rejects those combinations for
    models registered without it.
    """

    def decorator(factory):
        MODEL_REGISTRY[name] = factory
        _MODEL_INFO[name] = {
            "spec_builder": spec_builder,
            "supports_sampling": supports_sampling,
        }
        return factory

    return decorator


def model_names() -> list[str]:
    """Registered aligner names, sorted (entry-point plugins included)."""
    load_entry_point_plugins()
    return sorted(MODEL_REGISTRY)


def model_supports_sampling(name: str) -> bool:
    """Whether ``name`` was registered with neighbour-sampling support."""
    return bool(_MODEL_INFO.get(name, {}).get("supports_sampling"))


def build_model(name: str, task, **kwargs):
    """Instantiate a registered aligner by its paper-table name."""
    if name not in MODEL_REGISTRY:
        load_entry_point_plugins()
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; registered: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[name](task, **kwargs)


def build_model_from_spec(model_spec, task, default_seed: int = 0):
    """Instantiate the aligner a :class:`~repro.pipeline.ModelSpec` declares.

    The spec's ``seed=None`` inherits ``default_seed`` (the pipeline's data
    seed) so one seed drives dataset preparation and model initialisation
    unless the spec pins them apart; list-valued options are converted to
    tuples because JSON has no tuple type.  Saved specs may still carry the
    removed graph-backend option (``"auto"``, ``"dense"`` or ``"sparse"``);
    every graph runs as CSR, so that key is dropped here.
    """
    name = model_spec.name
    if name not in MODEL_REGISTRY:
        load_entry_point_plugins()
    if name not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; registered: {sorted(MODEL_REGISTRY)}")
    seed = model_spec.seed if model_spec.seed is not None else default_seed
    options = {key: _tupled(value) for key, value in model_spec.options.items()
               if key != "backend"}
    builder = _MODEL_INFO.get(name, {}).get("spec_builder")
    if builder is not None:
        return builder(task, hidden_dim=model_spec.hidden_dim, seed=seed,
                       options=options)
    return MODEL_REGISTRY[name](task, hidden_dim=model_spec.hidden_dim,
                                seed=seed, **options)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------
def register_training_loop(name: str):
    """Class decorator registering a loop under a ``sampling=`` value."""

    def decorator(loop_cls):
        TRAINING_LOOP_REGISTRY[name] = loop_cls
        return loop_cls

    return decorator


def training_loop_names() -> set[str]:
    """Valid ``TrainingConfig.sampling`` values.

    The built-in names are included unconditionally so validation stays
    correct even before :mod:`repro.core.trainer` has been imported.
    """
    load_entry_point_plugins()
    return set(TRAINING_LOOP_REGISTRY) | {"full", "neighbour"}


# ---------------------------------------------------------------------------
# Candidate generators
# ---------------------------------------------------------------------------
def register_candidate_generator(name: str):
    """Decorator registering a builder under a ``candidates=`` value.

    The builder is called as ``builder(source, target, config)`` with
    per-round state lists and a resolved
    :class:`~repro.core.ann.AnnConfig`; it returns a
    :class:`~repro.core.ann.RowCandidates` or ``None`` for provably
    complete coverage (which dispatches to the exhaustive decode).
    """

    def decorator(builder):
        CANDIDATE_REGISTRY[name] = builder
        return builder

    return decorator


def candidate_methods() -> set[str]:
    """Valid ``candidates=`` values (``"exhaustive"`` plus every generator).

    The built-in names are included unconditionally so validation stays
    correct even before :mod:`repro.core.ann` has been imported.
    """
    load_entry_point_plugins()
    return set(CANDIDATE_REGISTRY) | {"exhaustive", "ivf"}
