"""One repetition of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/rep.py WORKLOAD SEED TRACE WORKDIR``

Runs the workload's cells once with a fresh result store and
build-cache spill directory under ``WORKDIR``, then prints one JSON
line: wall and set-up time, peak RSS, each cell's science digests and,
with ``TRACE`` = 1, the per-layer metrics.  ``run.py`` starts one of
these per repetition so no in-process memo (dataset cache, build cache,
captured programs) carries over between repetitions.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, jobs  # noqa: E402


def run(name: str, seed: int, traced: bool, workdir: Path) -> dict:
    from repro.experiments import runner, scheduler
    from repro.experiments.store import ResultStore

    workload = WORKLOADS[name]
    specs = workload.specs(seed)
    labels = {spec.run_id(): reference.cell_label(spec) for spec in specs}
    (workdir / "spans").mkdir(parents=True)
    workers = min(jobs(), len(specs)) if workload.matrix else 0
    tracer = tracing.install(tracing.Tracer(workdir / "spans", full=traced))
    errors = {}
    try:
        start = time.perf_counter()
        if workload.matrix:
            store = ResultStore(workdir / "store")
            report = scheduler.run_cells(specs, store=store, jobs=jobs())
        else:
            outcome = runner.run_spec(specs[0])
        wall = time.perf_counter() - start
    finally:
        tracer.close()
    if workload.matrix:
        histories = {
            record["run_id"]: record["history"] for record in store.records()
        }
        for run_id, text in report.failed.items():
            errors[labels[run_id]] = text.strip().splitlines()[-1]
    else:
        histories = {specs[0].run_id(): outcome.history.to_dict()}
    spans, counters = tracer.collect()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "wall_s": wall,
        "setup_s": layers.setup_seconds(spans),
        # ru_maxrss is in KiB on Linux; workers are counted at their own
        # peak each, an upper bound on what they held at once.
        "peak_rss_mb": (own + workers * largest_worker) / 1024,
        "cells": {
            labels.get(run_id, run_id): reference.science(history)
            for run_id, history in histories.items()
        },
        "errors": errors,
    }
    if traced:
        result["layers"], result["samples"] = layers.layer_metrics(
            spans, counters, list(histories.values()), max(workers, 1)
        )
    return result


def main(argv) -> int:
    name, seed, traced, workdir = argv
    try:
        result = run(name, int(seed), traced == "1", Path(workdir))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
