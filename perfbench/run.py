"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up three times (``setup_s`` is the median),
then measures it untraced and reports the end-to-end metrics.
``--trace 1`` sets it up once, measures it untraced, then installs the
span wrappers of :mod:`perfbench.tracing`, reopens it and measures again;
it reports the per-layer metrics plus the tracing overhead.  Metric names
and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON
``record`` with the environment, every named result of the workload and
the output checks.  Spans stay in memory.  The exit code is non-zero when
an operation or an output check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _load_repro() -> bool:
    """Put the checkout's sources on the path; False when they are absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
            getter = handle.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        threads = getter()
        break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": _blas(), "git_sha": _git_sha(),
            "machine": platform.machine()}


def reset_peak_rss() -> bool:
    """Restart the kernel's resident-memory high-water mark (``VmHWM``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _median_ms(seconds) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def gemm_gflops(block: tuple) -> float:
    """GFLOP/s of a plain ``numpy.matmul`` with one scan block's shape."""
    import numpy as np

    rows, dim, cols = block
    rng = np.random.default_rng(0)
    left = rng.standard_normal((rows, dim))
    right = rng.standard_normal((dim, cols))
    times = []
    for _ in range(7):
        start = time.perf_counter()
        np.matmul(left, right)
        times.append(time.perf_counter() - start)
    return 2.0 * rows * dim * cols / statistics.median(times) / 1e9


def per_layer_metrics(tracer, workload, untraced_ms: float) -> dict:
    """Every per-layer value, normalised per measured operation."""
    from perfbench.tracing import percentile

    ops = max(1, len(workload.ops_s))
    spans = tracer.spans

    def per_op(name):
        return tracer.total(name) / ops

    def named(name):
        return [span for span in spans if span.name == name]

    def attr_sum(name, key):
        return sum(span.attrs.get(key, 0) for span in named(name))

    scans = named("similarity.scan")
    scan_time = sum(span.duration for span in scans)
    scan_flops = sum(2.0 * s.attrs["cells"] * s.attrs["dim"] for s in scans)
    rank_rows_ms = [span.duration * 1e3 for span in named("pipeline.rank_rows")]
    ingests = [span.attrs for span in named("incremental.ingest")
               if not span.attrs.get("noop")]
    gen2 = [pause for generation, pause in tracer.gc_pauses if generation == 2]
    traced_ms = _median_ms(workload.ops_s)
    window = sum(hi - lo for lo, hi in workload.windows)
    idle = sum(tracer.unattributed(lo, hi) * (hi - lo)
               for lo, hi in workload.windows)
    metrics = {
        "autograd.backward_s": per_op("autograd.backward"),
        "autograd.gc_pause_s": sum(p for _, p in tracer.gc_pauses) / ops,
        "autograd.gc_gen2": len(gen2) / ops,
        "nn.step_s": per_op("nn.step"),
        "nn.clip_s": per_op("nn.clip"),
        "encoder.forward_s": per_op("encoder.forward"),
        "encoder.forward_calls": len(named("encoder.forward")) / ops,
        "encoder.subgraph_s": per_op("encoder.subgraph"),
        "trainer.loss_s": per_op("trainer.loss"),
        "trainer.pseudo_seed_s": per_op("trainer.pseudo_seed"),
        "trainer.pseudo_pairs": attr_sum("trainer.pseudo_seed", "pairs") / ops,
        "data.build_task_s": per_op("data.build_task"),
        "kg.sample_s": per_op("kg.sample"),
        "propagation.propagate_s": per_op("propagation.propagate"),
        "eval.evaluate_s": per_op("eval.evaluate"),
        "eval.rank_s": per_op("eval.rank"),
        "eval.fallback_rows": len(named("eval.row_scores")) / ops,
        "eval.fallback_share": (len(named("eval.row_scores"))
                                / max(1, attr_sum("eval.rank", "pairs"))),
        "similarity.topk_s": per_op("similarity.topk"),
        "similarity.scan_s": per_op("similarity.scan"),
        "similarity.gather_s": per_op("similarity.gather"),
        "similarity.merge_s": per_op("similarity.merge"),
        "similarity.cells": tracer.cells / ops,
        "similarity.scan_gflops": (scan_flops / scan_time / 1e9
                                   if scan_time > 0 else 0.0),
        "similarity.gemm_gflops": (gemm_gflops(scans[0].attrs["block"])
                                   if scans else 0.0),
        "ann.generate_s": per_op("ann.generate"),
        "ann.kmeans_s": per_op("ann.kmeans"),
        "ann.probe_s": per_op("ann.probe"),
        "ann.insert_s": per_op("ann.insert"),
        "ann.candidate_share": (attr_sum("ann.probe", "cells")
                                / max(1, attr_sum("ann.probe", "space"))),
        "store.create_s": per_op("store.create"),
        "store.open_s": per_op("store.open"),
        "store.mb": workload.detail.get("artifact_mb", (0.0, "MB"))[0],
        "pipeline.rank_rows_ms.p50": percentile(rank_rows_ms, 50),
        "pipeline.rank_rows_ms.p99": percentile(rank_rows_ms, 99),
        "pipeline.rows_per_call": (attr_sum("pipeline.rank_rows", "rows")
                                   / max(1, len(rank_rows_ms))),
        "serve.batch_wait_ms.p50": percentile(tracer.batch_waits, 50) * 1e3,
        "serve.batch_wait_ms.p99": percentile(tracer.batch_waits, 99) * 1e3,
        "serve.pool_wait_ms.p50": percentile(tracer.pool_waits, 50) * 1e3,
        "serve.pool_wait_ms.p99": percentile(tracer.pool_waits, 99) * 1e3,
        "serve.cache_hit_rate": 0.0,
        "serve.requests_per_batch": 0.0,
        "serve.overloads": 0.0,
        "serve.timeouts": 0.0,
        "serve.swap_s": per_op("serve.swap"),
        "serve.generator_late_ms.ingest": workload.detail.get(
            "generator_late_ms.ingest", (0.0, "ms"))[0],
        "incremental.ingest_s": per_op("incremental.ingest"),
        "incremental.apply_s": per_op("incremental.apply"),
        "incremental.rows_encoded": (
            sum(a["rows_encoded"] for a in ingests) / max(1, len(ingests))),
        "incremental.rows_decoded": (
            sum(a["rows_decoded"] for a in ingests) / max(1, len(ingests))),
        "incremental.redecode_share": (
            sum(a["rows_decoded"] / a["num_source"] for a in ingests)
            / max(1, len(ingests))),
        "incremental.refits": (sum(a["refit"] for a in ingests)
                               / max(1, len(ingests))),
        "trace.unattributed": idle / window if window > 0 else 0.0,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_share": ((traced_ms - untraced_ms) / untraced_ms
                                 if untraced_ms > 0 else 0.0),
    }
    metrics.update({name: value for name, (value, _) in
                    workload.serve_metrics().items()})
    return metrics


def _declared(kind: str) -> dict:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in catalogue[kind]}


def _emit(declared: dict, values: dict) -> dict:
    if set(declared) != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(values))}, extra "
            f"{sorted(set(values) - set(declared))}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.tracing import Tracer
    from perfbench.traffic import CompletionProbe
    from perfbench.workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / f"{workload_name}-{seed}-{os.getpid()}"
    cls = WORKLOADS[workload_name]
    probe = CompletionProbe()
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment()}
    workload = None
    try:
        if not trace:
            setup_s = []
            for repeat in range(SETUP_REPEATS):
                if workload is not None:
                    workload.close()
                workload = cls(seed, workdir / f"setup-{repeat}", probe)
                start = time.perf_counter()
                workload.setup()
                setup_s.append(time.perf_counter() - start)
            record["rss_scope"] = ("measured" if reset_peak_rss()
                                   else "process")
            workload.measure(seconds)
            values = {"setup_s": statistics.median(setup_s),
                      "peak_rss_mb": peak_rss_mb(),
                      "op_p50_ms": _median_ms(workload.ops_s)}
            metrics = _emit(_declared("end_to_end"), values)
            record["setup_s"] = setup_s
        else:
            workload = cls(seed, workdir, probe)
            workload.setup()
            workload.measure(seconds)
            untraced_ms = _median_ms(workload.ops_s)
            untraced = (workload.attempted, workload.failed)
            tracer = Tracer()
            tracer.install()
            tracer.install_serving()
            workload.restart(tracer)
            workload.measure(seconds)
            values = per_layer_metrics(tracer, workload, untraced_ms)
            missing = tracer.missing(workload_name)
            workload.check("expected_spans_recorded", not missing)
            if workload_name in ("serve", "ingest"):
                # Cache misses must decode rows, not slice a cached table.
                workload.check("rank_rows_decodes_rows", tracer.calls_with_child(
                    "pipeline.rank_rows", "similarity.gather") > 0)
            workload.attempted += untraced[0]
            workload.failed += untraced[1]
            metrics = _emit(_declared("per_layer"), values)
            record.update(missing_spans=missing,
                          binding_sites=tracer.binding_sites,
                          self_time_s_per_op={
                              name: total / max(1, len(workload.ops_s))
                              for name, total in tracer.self_times().items()},
                          untraced_op_p50_ms=untraced_ms)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(detail={name: {"value": value, "unit": unit}
                          for name, (value, unit) in workload.detail.items()},
                  checks={name: {"passed": passed, "total": total}
                          for name, (passed, total)
                          in workload.checks.items()},
                  operations=len(workload.ops_s))
    for name, entry in sorted({**record["detail"], **metrics}.items()):
        print(f"{workload_name:>7} {name:<34} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    for name, entry in sorted(record["checks"].items()):
        print(f"{workload_name:>7} check {name}: "
              f"{entry['passed']}/{entry['total']} passed")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": workload.failed == 0,
                      "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}),
          flush=True)
    return 0 if workload.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "decode", "serve", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _load_repro():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
