"""Command-line interface for the DESAlign reproduction.

Five sub-commands cover the common workflows without writing any Python:

``python -m repro.cli train``
    Train one aligner (DESAlign or a baseline) on a benchmark split and
    print its test metrics (a shorthand for ``run`` with an inline spec).

``python -m repro.cli run --config spec.json``
    Run a declarative pipeline spec end to end; optionally save the fitted
    alignment artifact and a JSON metrics file.

``python -m repro.cli align --artifact DIR``
    Load a saved alignment artifact and emit top-k aligned pairs as JSON
    or TSV — no retraining, bit-identical to the decode at save time.

``python -m repro.cli serve --artifact DIR``
    Serve a saved artifact long-lived over a stdin/stdout JSON-lines
    protocol: micro-batched concurrent ranking, LRU result caching and
    graceful artifact hot-swap (see :mod:`repro.serve`).

``python -m repro.cli experiment``
    Run one of the registered table/figure experiments at a chosen scale and
    print (and optionally save) the regenerated table.

``python -m repro.cli robustness``
    Sweep corruption type x severity across the model zoo (declarative
    :class:`~repro.pipeline.PerturbationSpec` injection) and print the
    degradation summary; ``--fast`` smokes a tiny grid.

``python -m repro.cli ingest --artifact DIR --delta FILE``
    Fold a JSON delta batch (new entities/triples/features/seed pairs)
    into a saved artifact without a re-fit: warm-start encoding over the
    delta's receptive field, online IVF inserts and a selective re-decode
    (see :mod:`repro.incremental`).

``python -m repro.cli datasets``
    List the benchmark presets and the 60-split evaluation suite.
"""

from __future__ import annotations

import argparse
import json
import sys

from .baselines import MODEL_REGISTRY
from .data.benchmarks import ALL_DATASETS, benchmark_suite
from .experiments import (CORRUPTIONS, DEFAULT_CORRUPTIONS, ROBUSTNESS_MODELS,
                          ExperimentScale, list_experiments, run_experiment,
                          run_robustness)
from .pipeline import Aligner, AlignmentPipeline, DataSpec, ModelSpec, PipelineSpec

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of DESAlign (ICDE 2024): training, experiments, datasets.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="train one aligner on one benchmark split")
    train.add_argument("--model", default="DESAlign", choices=sorted(MODEL_REGISTRY))
    train.add_argument("--dataset", default="FBDB15K", choices=ALL_DATASETS)
    train.add_argument("--seed-ratio", type=float, default=None)
    train.add_argument("--image-ratio", type=float, default=None)
    train.add_argument("--text-ratio", type=float, default=None)
    train.add_argument("--entities", type=int, default=100)
    train.add_argument("--epochs", type=int, default=80)
    train.add_argument("--iterative", action="store_true")
    train.add_argument("--candidates", default="exhaustive",
                       choices=["exhaustive", "ivf"],
                       help="decode candidate generation (ivf = approximate, "
                            "sub-quadratic FLOPs)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--save", default=None, metavar="DIR",
                       help="optional directory for the fitted alignment artifact")

    run = subparsers.add_parser(
        "run", help="run a declarative pipeline spec (JSON) end to end")
    run.add_argument("--config", required=True,
                     help="path to a PipelineSpec JSON file")
    run.add_argument("--save", default=None, metavar="DIR",
                     help="optional directory for the fitted alignment artifact")
    run.add_argument("--output", default=None,
                     help="optional path for a JSON copy of the test metrics")

    align = subparsers.add_parser(
        "align", help="decode top-k aligned pairs from a saved artifact")
    align.add_argument("--artifact", required=True,
                       help="directory written by Aligner.save / run --save")
    align.add_argument("--k", type=int, default=None,
                       help="neighbours per source entity (default: the spec's k)")
    align.add_argument("--entities", default=None,
                       help="comma-separated source entity ids (default: all)")
    align.add_argument("--format", choices=["json", "tsv"], default="json")
    align.add_argument("--num-workers", type=int, default=None,
                       help="decode worker processes for the sharded "
                            "blockwise decode (default: the spec's setting)")
    align.add_argument("--output", default=None,
                       help="write the pairs here instead of stdout")

    serve = subparsers.add_parser(
        "serve", help="serve a saved artifact over a stdin/stdout JSON protocol")
    serve.add_argument("--artifact", required=True,
                       help="directory written by Aligner.save / run --save")
    serve.add_argument("--no-mmap", action="store_true",
                       help="load decode payloads into memory instead of "
                            "memory-mapping them read-only")
    serve.add_argument("--batch-window", type=float, default=0.002,
                       help="seconds the micro-batcher waits to coalesce "
                            "concurrent requests (default 0.002)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="max entity rows per coalesced batch (default 64)")
    serve.add_argument("--pool-size", type=int, default=2,
                       help="decode worker threads (default 2)")
    serve.add_argument("--queue-size", type=int, default=128,
                       help="bounded work-queue depth; full = structured "
                            "'overloaded' errors (default 128)")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="result-cache entries (default 4096)")
    serve.add_argument("--num-workers", type=int, default=None,
                       help="decode worker processes for full-table decodes "
                            "(default: the spec's setting)")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="default per-request deadline in seconds "
                            "(default 30)")
    faults = serve.add_argument_group(
        "fault injection", "seeded faults on the decode path (testing / "
        "chaos drills; all off by default)")
    faults.add_argument("--fault-decode-failure-rate", type=float, default=0.0,
                        help="probability a decode raises a structured "
                             "injected error instead of running")
    faults.add_argument("--fault-code", default="internal",
                        help="error code injected decode failures carry "
                             "(default internal; try overloaded/timeout "
                             "to exercise client retries)")
    faults.add_argument("--fault-latency", type=float, default=0.0,
                        help="seconds of injected latency before a decode")
    faults.add_argument("--fault-latency-rate", type=float, default=1.0,
                        help="probability the latency fires (default 1.0)")
    faults.add_argument("--fault-worker-death-rate", type=float, default=0.0,
                        help="probability a batch kills its worker thread "
                             "(the pool respawns a replacement)")
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault schedule (default 0)")

    robustness = subparsers.add_parser(
        "robustness",
        help="sweep corruption type x severity across the model zoo")
    robustness.add_argument("--fast", action="store_true",
                            help="tiny smoke grid (one corruption, two "
                                 "severities, two models, short training)")
    robustness.add_argument("--dataset", default="FBDB15K", choices=ALL_DATASETS)
    robustness.add_argument("--corruptions", default=None,
                            help="comma-separated corruption axes "
                                 f"(default {','.join(DEFAULT_CORRUPTIONS)}; "
                                 f"available: {','.join(CORRUPTIONS)})")
    robustness.add_argument("--severities", default=None,
                            help="comma-separated severities in [0,1] "
                                 "(default 0.0,0.3,0.6; 0.0 is the bit-exact "
                                 "clean baseline)")
    robustness.add_argument("--models", default=None,
                            help="comma-separated registered models "
                                 f"(default {','.join(ROBUSTNESS_MODELS)})")
    robustness.add_argument("--entities", type=int, default=100)
    robustness.add_argument("--epochs", type=int, default=60)
    robustness.add_argument("--seed", type=int, default=0)
    robustness.add_argument("--output", default=None, metavar="PATH.json",
                            help="write the sweep as JSON here and the "
                                 "rendered table beside it as PATH.txt")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables or figures")
    experiment.add_argument("experiment_id",
                            choices=[key for key, _ in list_experiments()])
    experiment.add_argument("--entities", type=int, default=100)
    experiment.add_argument("--epochs", type=int, default=60)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--output", default=None,
                            help="optional path for a JSON copy of the results")

    ingest = subparsers.add_parser(
        "ingest", help="fold a JSON delta batch into a saved artifact "
                       "(warm-start incremental update, no re-fit)")
    ingest.add_argument("--artifact", required=True,
                        help="directory written by Aligner.save / run --save")
    ingest.add_argument("--delta", required=True,
                        help="JSON delta batch (see repro.incremental.DeltaBatch)")
    ingest.add_argument("--out", default=None, metavar="DIR",
                        help="directory for the updated artifact "
                             "(default: <artifact>-updated)")

    subparsers.add_parser("datasets", help="list benchmark presets and the 60-split suite")
    return parser


def _train_spec(args: argparse.Namespace) -> PipelineSpec:
    """The spec equivalent of the ``train`` sub-command's flag surface."""
    scale = ExperimentScale(num_entities=args.entities, epochs=args.epochs,
                            seed=args.seed)
    training = scale.training_config(iterative=args.iterative)
    if args.candidates != "exhaustive":
        training = training.with_overrides(candidates=args.candidates)
    return PipelineSpec(
        data=scale.data_spec(args.dataset, seed_ratio=args.seed_ratio,
                             image_ratio=args.image_ratio,
                             text_ratio=args.text_ratio),
        model=ModelSpec(name=args.model, hidden_dim=scale.hidden_dim),
        training=training,
    )


def _report_fit(aligner: Aligner, header: str) -> None:
    result = aligner.result
    print(header)
    print(f"metrics: {result.metrics}")
    print(f"train time: {result.train_seconds:.1f}s, "
          f"parameters: {result.num_parameters}")


def _command_train(args: argparse.Namespace) -> int:
    spec = _train_spec(args)
    aligner = AlignmentPipeline.from_spec(spec).fit()
    task = aligner.task
    _report_fit(aligner, f"model={args.model} dataset={args.dataset} "
                         f"seeds={len(task.train_pairs)} test={len(task.test_pairs)}")
    if args.save:
        directory = aligner.save(args.save)
        print(f"saved alignment artifact to {directory}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    pipeline = AlignmentPipeline.from_json_file(args.config)
    spec = pipeline.spec
    aligner = pipeline.fit()
    _report_fit(aligner, f"model={spec.model.name} dataset={spec.data.dataset} "
                         f"entities={spec.data.num_entities} "
                         f"sampling={spec.training.sampling} "
                         f"candidates={spec.decode.candidates}")
    if args.save:
        directory = aligner.save(args.save)
        print(f"saved alignment artifact to {directory}")
    if args.output:
        payload = {"spec": spec.to_dict(),
                   "metrics": aligner.result.as_dict()}
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"saved JSON metrics to {args.output}")
    return 0


def _with_num_workers(aligner: Aligner, num_workers: int | None) -> Aligner:
    """Apply a ``--num-workers`` override through ``with_decode``.

    Only the worker count changes, so every decode cache (states,
    candidates) carries over and the results stay bit-identical — the
    sharded decode is partition-invariant.
    """
    if num_workers is None:
        return aligner
    from dataclasses import replace

    return aligner.with_decode(replace(aligner.spec.decode,
                                       num_workers=num_workers))


def _command_align(args: argparse.Namespace) -> int:
    aligner = _with_num_workers(Aligner.load(args.artifact), args.num_workers)
    if args.entities:
        entity_ids = [int(token) for token in args.entities.split(",") if token]
        table = aligner.rank(entity_ids, k=args.k)
    else:
        table = aligner.align(k=args.k)
    if args.format == "tsv":
        rendered = table.to_tsv()
    else:
        rendered = json.dumps({"k": table.k, "approximate": table.approximate,
                               "alignments": table.to_records()}, indent=2)
        rendered += "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        print(f"wrote {len(table.source_ids)} alignment rows to {args.output}")
    else:
        sys.stdout.write(rendered)
    return 0


def _command_serve(args: argparse.Namespace, stdin=None, stdout=None) -> int:
    from .serve import FaultInjector, ServingEngine, ServingServer

    injector = None
    if (args.fault_decode_failure_rate > 0 or args.fault_latency > 0
            or args.fault_worker_death_rate > 0):
        injector = FaultInjector(
            decode_failure_rate=args.fault_decode_failure_rate,
            failure_code=args.fault_code,
            latency=args.fault_latency,
            latency_rate=args.fault_latency_rate,
            worker_death_rate=args.fault_worker_death_rate,
            seed=args.fault_seed)
        print(f"fault injection ON: {injector.stats()}", file=sys.stderr)
    aligner = _with_num_workers(
        Aligner.load(args.artifact, mmap=not args.no_mmap), args.num_workers)
    engine = ServingEngine(
        aligner,
        batch_window=args.batch_window, max_batch=args.max_batch,
        pool_size=args.pool_size, queue_size=args.queue_size,
        cache_size=args.cache_size, default_timeout=args.timeout,
        fault_injector=injector)
    server = ServingServer(engine)
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    print(f"serving artifact {args.artifact} "
          f"(generation {engine.generation}); one JSON request per line, "
          "op in rank|stats|swap|ping|shutdown", file=sys.stderr)
    server.serve_forever(stdin, stdout)
    return 0


def _command_robustness(args: argparse.Namespace) -> int:
    kwargs = {"dataset": args.dataset}
    if args.fast:
        scale = ExperimentScale(num_entities=min(args.entities, 40),
                                epochs=min(args.epochs, 8), seed=args.seed)
        kwargs.update(corruptions=("modality_dropout",),
                      severities=(0.0, 0.6), models=("EVA", "DESAlign"))
    else:
        scale = ExperimentScale(num_entities=args.entities,
                                epochs=args.epochs, seed=args.seed)
    if args.corruptions:
        kwargs["corruptions"] = tuple(
            token for token in args.corruptions.split(",") if token)
    if args.severities:
        kwargs["severities"] = tuple(
            float(token) for token in args.severities.split(",") if token)
    if args.models:
        kwargs["models"] = tuple(
            token for token in args.models.split(",") if token)
    result = run_robustness(scale=scale, **kwargs)
    print(result.to_table())
    print("\ndegradation (H@1):")
    for entry in result.parameters["degradation"]:
        print(f"  {entry['corruption']:>16s}  {entry['model']:<10s} "
              f"clean={entry['clean_H@1']:.1f} worst={entry['worst_H@1']:.1f} "
              f"drop={entry['drop_H@1']:.1f} "
              f"slope={entry['slope_H@1_per_severity']:.1f}")
    if args.output:
        result.to_json(args.output)
        text_path = args.output.rsplit(".", 1)[0] + ".txt"
        with open(text_path, "w", encoding="utf-8") as handle:
            handle.write(result.to_table() + "\n")
        print(f"\nsaved JSON results to {args.output} "
              f"and the table to {text_path}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    scale = ExperimentScale(num_entities=args.entities, epochs=args.epochs, seed=args.seed)
    result = run_experiment(args.experiment_id, scale=scale)
    print(result.to_table())
    if args.output:
        result.to_json(args.output)
        print(f"\nsaved JSON results to {args.output}")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    from .incremental import DeltaBatch, IncrementalAligner

    out = args.out if args.out else args.artifact.rstrip("/") + "-updated"
    incremental = IncrementalAligner.from_artifact(args.artifact)
    report = incremental.ingest(DeltaBatch.load(args.delta), directory=out)
    payload = dict(report.to_dict(), artifact=out)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _command_datasets() -> int:
    print("Benchmark presets:")
    for dataset in ALL_DATASETS:
        print(f"  {dataset}")
    suite = benchmark_suite()
    print(f"\nEvaluation suite ({len(suite)} splits):")
    for split in suite:
        print(f"  {split.identifier}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return _command_train(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "align":
        return _command_align(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "robustness":
        return _command_robustness(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "ingest":
        return _command_ingest(args)
    if args.command == "datasets":
        return _command_datasets()
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
