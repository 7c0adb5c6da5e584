"""One BLAS thread in every process, and results that do not depend on it.

Importing :mod:`repro` sets numpy's OpenBLAS to one thread
(:mod:`repro._blas`).  These tests check that the setting overrides an
inherited ``OPENBLAS_NUM_THREADS``, that it reaches the forked
``run_cells`` and ``ParallelExecutor`` workers, and that a cell whose
reductions OpenBLAS would split across threads stores the same History
whatever the thread variable says.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import _blas
from repro.experiments import scheduler
from repro.experiments.scale import SMOKE
from repro.experiments.store import ResultStore
from repro.federated.executor import ParallelExecutor, fork_available
from repro.spec import RunSpec

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    _blas.num_threads() is None, reason="numpy's BLAS is not OpenBLAS"
)

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _python(script: str, *args: str, threads: str) -> str:
    """Run ``script`` in a fresh interpreter with ``OPENBLAS_NUM_THREADS``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def _worker_threads(_):
    return os.getpid(), _blas.num_threads()


class TestOneThread:
    def test_this_process(self):
        assert _blas.num_threads() == 1

    def test_import_overrides_inherited_env(self):
        script = "import repro, repro._blas as b; print(b.num_threads())"
        for threads in ("2", "4"):
            assert _python(script, threads=threads).strip() == "1"

    @needs_fork
    @pytest.mark.parallel
    def test_run_cells_workers(self, tmp_path, monkeypatch):
        """Each forked scheduler worker reports its thread count as a cell."""

        def probe(store, spec, heartbeat_every):
            return SimpleNamespace(final_accuracy=float(_blas.num_threads())), {}

        monkeypatch.setattr(scheduler, "_run_one", probe)
        specs = [
            RunSpec.build("fcube", "iid", "fedavg", preset=SMOKE, seed=seed)
            for seed in (0, 1)
        ]
        events = []
        scheduler.run_cells(
            specs, store=ResultStore(tmp_path / "store"), jobs=2,
            progress=events.append,
        )
        done = [event for event in events if event.kind == "done"]
        assert done
        assert all(event.worker != os.getpid() for event in done)
        assert [event.final_accuracy for event in done] == [1.0] * len(done)

    @needs_fork
    @pytest.mark.parallel
    def test_parallel_executor_workers(self):
        executor = ParallelExecutor(2)
        executor.setup(model=None, algorithm=None, clients=[], config=None)
        try:
            executor._ensure_pool({"weight": np.zeros(1)})
            answers = executor._pool.map(_worker_threads, range(4), chunksize=1)
        finally:
            executor.close()
        assert all(pid != os.getpid() for pid, _ in answers)
        assert [threads for _, threads in answers] == [1] * 4


_CELL = """
import json
from repro.experiments.runner import run_spec
from repro.experiments.scale import SMOKE
from repro.spec import RunSpec

spec = RunSpec.build("rcv1", "dir(0.5)", "fedavg", preset=SMOKE)
print(json.dumps(run_spec(spec).history.to_dict()))
"""


def test_history_independent_of_blas_thread_env():
    """rcv1's wide gemv is split across OpenBLAS threads when it has them.

    With two threads its first-round ``train_loss`` moves in the ninth
    decimal; pinned to one thread in every process, the History (every
    field, ``train_loss`` included) is the same under any setting.
    """
    one, two = (
        json.loads(_python(_CELL, threads=threads)) for threads in ("1", "2")
    )
    assert [r["train_loss"] for r in one["records"]] == [
        r["train_loss"] for r in two["records"]
    ]
    assert one == two
