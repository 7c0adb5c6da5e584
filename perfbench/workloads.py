"""The benchmark's workloads: which cells each one runs, and why.

Each workload is a list of :class:`~repro.spec.RunSpec` cells derived
from the workload seed.  Single-cell workloads run through ``run_spec``
as ``repro run`` does; matrix workloads run through ``run_cells`` with
``jobs`` equal to the usable CPU count, into a fresh ``ResultStore``.
Nothing here sets BLAS or OpenMP thread counts: the program runs with
whatever the environment gives it, as a user's invocation would.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

#: Rounds (flushes for async-1m) per repetition, cut from the BENCH
#: preset's 12 so that nine or more fresh-interpreter repetitions fit in
#: one run and their median is steady; each round does the same work as
#: in a longer run
CNN_ROUNDS = 2
TABULAR_100P_ROUNDS = 3
ASYNC_1M_FLUSHES = 20
#: table3-lite's rounds per cell, cut from the SMOKE preset's 4
TABLE3_LITE_ROUNDS = 2

#: four times the BENCH preset's 1200 samples.  dir(0.5) over 100
#: parties redraws until no party is empty and gives up after 100
#: draws: one draw fails with probability 0.94 at 2400 samples (seed 356
#: of 0-599 gives up) and 0.74 at 4800, where giving up takes 0.74**100,
#: about 1e-13 per seed
TABULAR_100P_TRAIN = 4800

TABLE3_SLICE_DATASETS = ("adult", "fcube", "covtype", "rcv1")
TABLE3_LITE_DATASETS = ("adult", "fcube", "covtype")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: cells one repetition runs (every one is checked)
    cells: int
    #: True: run through ``run_cells``; False: one ``run_spec`` call
    matrix: bool
    specs: Callable[[int], list]


def jobs() -> int:
    """``--jobs`` as a user would pass it: the usable CPU count."""
    return len(os.sched_getaffinity(0))


def _cnn_cell(seed: int) -> list:
    from repro.experiments.scale import BENCH
    from repro.spec import RunSpec

    return [
        RunSpec.build(
            "mnist", "#C=2", "fedavg", model="cnn", preset=BENCH,
            num_parties=10, compile=True, num_rounds=CNN_ROUNDS, seed=seed,
        )
    ]


def _tabular_100p(seed: int) -> list:
    from repro.experiments.scale import BENCH
    from repro.spec import RunSpec

    return [
        RunSpec.build(
            "adult", "dir(0.5)", "scaffold", model="mlp", preset=BENCH,
            num_parties=100, codec="qsgd", codec_bits=4,
            num_rounds=TABULAR_100P_ROUNDS, seed=seed,
            dataset_kwargs={"n_train": TABULAR_100P_TRAIN},
        )
    ]


def _async_1m(seed: int) -> list:
    from repro.experiments.scale import BENCH
    from repro.spec import RunSpec

    return [
        RunSpec.build(
            "adult", "iid", "fedavg", model="mlp", preset=BENCH,
            population=1_000_000, population_skew_beta=0.5,
            aggregation="async", sample_per_round=100, buffer_size=20,
            staleness_exponent=0.5, num_rounds=ASYNC_1M_FLUSHES, seed=seed,
        )
    ]


def _table3(datasets, rounds=None):
    def specs(seed: int) -> list:
        from dataclasses import replace

        from repro.experiments.scale import SMOKE
        from repro.experiments.table3 import table3_specs

        preset = SMOKE if rounds is None else replace(SMOKE, num_rounds=rounds)
        cells = table3_specs(datasets=datasets, preset=preset, base_seed=seed)
        return [spec for trials in cells.values() for spec in trials]

    return specs


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "cnn-cell",
            "image cnn cell with compiled steps: conv compute in the capture/"
            "replay engine dominates and ragged #C=2 tails fall back to eager",
            cells=1, matrix=False, specs=_cnn_cell,
        ),
        Workload(
            "tabular-100p",
            "100 tiny scaffold parties with a 4-bit qsgd codec: per-party fixed "
            "cost, the uplink codec and aggregation dominate; capture is off",
            cells=1, matrix=False, specs=_tabular_100p,
        ),
        Workload(
            "async-1m",
            "1M-party virtual population on the async event engine: the only "
            "load on populations and the second round loop; RSS must stay flat",
            cells=1, matrix=False, specs=_async_1m,
        ),
        Workload(
            "table3-lite",
            "40 two-round SMOKE Table-3 cells (adult, fcube, covtype) through "
            "run_cells: load on the scheduler, the store and the build cache",
            cells=40, matrix=True, specs=_table3(TABLE3_LITE_DATASETS, TABLE3_LITE_ROUNDS),
        ),
        Workload(
            "table3-slice",
            "the 56-cell tabular Table-3 slice with rcv1; not in BENCHMARK.json: "
            "forked workers oversubscribe BLAS threads, so its time is bimodal",
            cells=56, matrix=True, specs=_table3(TABLE3_SLICE_DATASETS),
        ),
    )
}
