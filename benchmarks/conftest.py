"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures through the
experiment harness in :mod:`repro.experiments`.  By default each benchmark
runs a reduced grid (fewer ratios / datasets, small synthetic graphs, short
training) so that ``pytest benchmarks/ --benchmark-only`` completes in a few
minutes on a laptop CPU; set the environment variable ``REPRO_BENCH_FULL=1``
to run the complete grids of the paper at a larger scale.

Each benchmark prints the regenerated table so the numbers can be compared
with ``EXPERIMENTS.md`` and with the paper.  The tables land in the
committed ``results/`` directory only when ``REPRO_WRITE_RESULTS=1`` (CI's
benchmark job sets it); otherwise every writer, the efficiency-row splice
included, writes to a temporary directory of the pytest session, so a
local run leaves no diff.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.experiments import ExperimentScale

# The decode benchmarks check against the test suite's brute-force oracles
# (tests/oracles.py).
sys.path.append(os.path.join(os.path.dirname(__file__), "..", "tests"))

FULL = os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false", "False")

#: Scale used by the reduced (default) benchmark grids.
BENCH_SCALE = ExperimentScale(num_entities=70, epochs=60, iterative_epochs=20,
                              iterative_rounds=1)

#: Scale used when REPRO_BENCH_FULL=1.
FULL_SCALE = ExperimentScale(num_entities=150, epochs=100, iterative_epochs=40,
                             iterative_rounds=2)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return FULL_SCALE if FULL else BENCH_SCALE


@pytest.fixture(scope="session")
def full_grids() -> bool:
    return FULL


RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: Whether this session regenerates the committed ``results/`` tables.
WRITE_RESULTS = os.environ.get("REPRO_WRITE_RESULTS", "0") == "1"

_output_dir = RESULTS_DIR


@pytest.fixture(scope="session", autouse=True)
def results_dir(tmp_path_factory) -> str:
    """Where this session's tables go: ``results/`` or a session temp dir."""
    global _output_dir
    _output_dir = (RESULTS_DIR if WRITE_RESULTS
                   else str(tmp_path_factory.mktemp("results")))
    return _output_dir


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under pytest-benchmark timing and persist its tables.

    The regenerated table is written to ``<experiment>.txt`` (plain text)
    and ``<experiment>.json`` in the session's results directory
    (``results/`` under ``REPRO_WRITE_RESULTS=1``) so that
    ``EXPERIMENTS.md`` and downstream analysis can read the numbers
    without re-running anything.
    """
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    os.makedirs(_output_dir, exist_ok=True)
    text_path = os.path.join(_output_dir, f"{result.experiment}.txt")
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(result.to_table() + "\n")
    result.to_json(os.path.join(_output_dir, f"{result.experiment}.json"))
    return result


#: Model-name prefixes of the rows that the serving, out-of-core and
#: incremental benchmarks splice into ``results/efficiency.json``.
SPLICED_PREFIXES = ("incremental-", "outofcore-", "serving-")


def splice_efficiency_rows(prefix: str, rows: list[dict]) -> None:
    """Replace the ``prefix`` rows of ``efficiency.json`` with ``rows``.

    The file is the session's (``results/efficiency.json`` under
    ``REPRO_WRITE_RESULTS=1``).

    The Sec. V-E rows that ``test_efficiency.py`` writes stay first, in the
    order the experiment writes them; the spliced rows follow, sorted by
    model name, so the file's row order does not depend on which benchmark
    ran last.
    """
    if prefix not in SPLICED_PREFIXES:
        raise ValueError(f"unknown spliced-row prefix {prefix!r}")
    path = os.path.join(_output_dir, "efficiency.json")
    os.makedirs(_output_dir, exist_ok=True)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    else:  # pragma: no cover - efficiency benchmark not run yet
        payload = {"experiment": "efficiency", "description": "",
                   "parameters": {}, "rows": []}
    section, spliced = [], list(rows)
    for row in payload.get("rows", []):
        model = str(row.get("model", ""))
        if not model.startswith(SPLICED_PREFIXES):
            section.append(row)
        elif not model.startswith(prefix):
            spliced.append(row)
    payload["rows"] = section + sorted(spliced, key=lambda row: row["model"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
