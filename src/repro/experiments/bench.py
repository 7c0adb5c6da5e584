"""Micro-benchmarks for the training hot paths.

Two timings matter for this repo's wall-clock budget:

1. **One CNN local round** — the inner loop every federated experiment
   spends ~95% of its time in (im2col convolutions + fused cross-entropy
   + SGD steps).  This is the number the allocation-cutting work in
   :mod:`repro.grad.functional` moves.
2. **One full federated round** — local rounds across all sampled
   parties plus aggregation, under the serial executor and under the
   parallel executor at several worker counts.  This is the number the
   executor backend in :mod:`repro.federated.executor` moves.

A third family measures the communication layer in :mod:`repro.comm`:
per-codec encode/decode throughput on a model-sized vector, and the
measured bytes one federated round puts on the wire under each codec
(the compression-ratio column of the Section 5.2 trade-off).

Run as ``python -m repro.experiments.bench`` (or ``make bench`` /
``repro-bench``); results land in ``BENCH_core.json`` with enough
hardware context to interpret the speedup column.  On a machine with
fewer physical cores than workers the parallel speedup is capped by the
hardware, not the implementation — the ``note`` field records this.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.data import load_dataset
from repro.federated import (
    FedAvg,
    FederatedConfig,
    FederatedServer,
    evaluate,
    evaluate_accuracy,
    evaluate_loss,
    make_clients,
)
from repro.federated.executor import fork_available
from repro.federated.trainer import run_local_training
from repro.grad import functional as F
from repro.grad.capture import training_engine
from repro.grad.optim import SGD
from repro.grad.tensor import Tensor
from repro.models import build_model
from repro.partition import HomogeneousPartitioner

DEFAULT_OUTPUT = "BENCH_core.json"


def _build_fixture(seed: int = 0, n_train: int = 640, num_parties: int = 10):
    """Small CNN/MNIST-like federated setup shared by both benchmarks."""
    train, _, info = load_dataset("mnist", n_train=n_train, n_test=64, seed=seed)
    partition = HomogeneousPartitioner().partition(
        train, num_parties, np.random.default_rng(seed + 17)
    )
    clients = make_clients(partition, train, seed=seed + 29)
    model = build_model("cnn", info, seed=seed + 53)
    return model, clients


def _config(num_workers: int = 0, **overrides) -> FederatedConfig:
    defaults = dict(
        num_rounds=1,
        local_epochs=1,
        batch_size=32,
        lr=0.01,
        momentum=0.9,
        seed=0,
        num_workers=num_workers,
    )
    defaults.update(overrides)
    return FederatedConfig(**defaults)


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time; best-of filters scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _duel(fns, repeats: int) -> list[float]:
    """Best-of-``repeats`` wall time for each ``fn``, interleaved.

    Comparative benchmarks must not time one path's repeats back to back
    and then the other's: on a shared host, background load drifts over
    seconds, and whichever path runs second absorbs a different machine.
    Alternating the paths within every repeat round exposes both to the
    same drift, so the per-path minima are actually comparable.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def bench_local_round(repeats: int = 3, seed: int = 0) -> dict:
    """Time one party's local training round on the paper CNN."""
    model, clients = _build_fixture(seed=seed)
    config = _config()
    client = clients[0]
    state = model.state_dict()

    def one_round():
        model.load_state_dict(state)
        return run_local_training(model, client, config)

    warm = one_round()  # warm-up: also reports the step count
    seconds = _time(one_round, repeats)
    return {
        "seconds": round(seconds, 4),
        "num_steps": warm.num_steps,
        "num_samples": warm.num_samples,
        "seconds_per_step": round(seconds / max(warm.num_steps, 1), 4),
    }


def _step_fixture(name: str, seed: int = 0, batch_size: int = 32):
    """A (model, features, labels) triple for the step benchmarks."""
    _, _, info = load_dataset("mnist", n_train=64, n_test=16, seed=seed)
    model = build_model(name, info, seed=seed + 53)
    rng = np.random.default_rng(seed + 5)
    shape = (batch_size, *info.input_shape)
    if name in ("mlp", "logistic"):
        shape = (batch_size, info.num_features)
    features = rng.standard_normal(shape).astype(np.float32)
    labels = rng.integers(0, info.num_classes, size=batch_size)
    return model, features, labels


def _alloc_stats(fn) -> tuple[int, int]:
    """(peak traced bytes, allocation block count) of one call to ``fn``."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn()
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = sum(stat.count for stat in snapshot.statistics("filename"))
    return peak, blocks


def bench_compiled_step(
    repeats: int = 3, seed: int = 0, steps: int = 20
) -> list[dict]:
    """Eager vs captured-replay training steps (see repro.grad.capture).

    Times ``steps`` full SGD steps both ways on the paper MLP and CNN,
    and records tracemalloc peak bytes / allocation counts for a single
    step — the replay path's whole point is reusing one buffer arena
    instead of re-allocating the graph every step.
    """
    rows = []
    for name in ("mlp", "cnn"):

        def make_runner(compiled):
            model, features, labels = _step_fixture(name, seed=seed)
            model.train()
            optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
            engine = training_engine(model, len(labels)) if compiled else None

            def one_step():
                optimizer.zero_grad()
                loss_value = (
                    engine.step(features, labels) if engine is not None else None
                )
                if loss_value is None:
                    loss = F.cross_entropy(model(Tensor(features)), labels)
                    loss.backward()
                    loss_value = loss.item()
                optimizer.step()
                return loss_value

            one_step()  # warm-up: the capture step (or eager cache fills)
            return one_step

        eager_step = make_runner(False)
        replay_step = make_runner(True)

        def run_many(step_fn):
            return lambda: [step_fn() for _ in range(steps)]

        eager_s, replay_s = (
            t / steps
            for t in _duel([run_many(eager_step), run_many(replay_step)], repeats)
        )
        eager_peak, eager_blocks = _alloc_stats(eager_step)
        replay_peak, replay_blocks = _alloc_stats(replay_step)
        rows.append(
            {
                "model": name,
                "eager_seconds_per_step": round(eager_s, 6),
                "compiled_seconds_per_step": round(replay_s, 6),
                "speedup": round(eager_s / replay_s, 2) if replay_s > 0 else None,
                "eager_alloc_peak_bytes": eager_peak,
                "compiled_alloc_peak_bytes": replay_peak,
                "eager_alloc_blocks": eager_blocks,
                "compiled_alloc_blocks": replay_blocks,
            }
        )
    return rows


#: stack sizes benchmarked; 1 is the serial compiled-replay baseline
BENCH_STACK_SIZES = (1, 4, 16, 64)


def bench_stacked_replay(
    repeats: int = 3,
    seed: int = 0,
    steps: int = 10,
    stack_sizes: tuple[int, ...] = BENCH_STACK_SIZES,
) -> list[dict]:
    """Per-client cost of batched stacked replay vs serial compiled replay.

    For each model, times ``steps`` full SGD steps at every stack size
    ``K`` — ``K = 1`` is the serial captured-replay fast path, ``K >= 2``
    the :class:`~repro.grad.capture.StackedStep` program driving ``K``
    clients through one set of fat NumPy ops — and reports seconds per
    step *per client* (duel time / steps / K).  The win is amortized
    dispatch: per-op Python/NumPy overhead is paid once per stack instead
    of once per client, so per-client cost should fall as ``K`` grows
    until the fat operands saturate memory bandwidth.
    """
    from repro.grad.capture import CaptureError, stacked_engine
    from repro.grad.optim import StackedSGD

    rows = []
    for name in ("mlp", "cnn"):

        def make_serial_runner():
            model, features, labels = _step_fixture(name, seed=seed)
            model.train()
            optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
            engine = training_engine(model, len(labels))

            def one_step():
                optimizer.zero_grad()
                engine.step(features, labels)
                optimizer.step()

            one_step()  # warm-up: the capture step
            return one_step

        def make_stacked_runner(stack):
            model, features, labels = _step_fixture(name, seed=seed)
            try:
                program = stacked_engine(model).program(
                    stack,
                    np.zeros_like(features),
                    np.zeros(labels.shape, np.int64),
                )
            except CaptureError:
                return None
            state = model.state_dict()
            keys = [key for key, _ in model.named_parameters()]
            stacks = [program.param_stack(i) for i in range(len(keys))]
            for index, key in enumerate(keys):
                if stacks[index] is not None:
                    stacks[index][:] = state[key]
            optimizer = StackedSGD(stacks, lr=0.01, momentum=0.9)

            def one_step():
                # Bill the per-client batch staging too — the executor
                # pays it every step, so leaving it out would flatter
                # large stacks.
                for k in range(stack):
                    program.features[k] = features
                    program.labels[k] = labels
                program.step()
                optimizer.step(program.grads())

            one_step()  # warm-up
            return one_step

        runners = []
        for stack in stack_sizes:
            runner = make_serial_runner() if stack == 1 else make_stacked_runner(stack)
            if runner is not None:
                runners.append((stack, runner))

        def run_many(step_fn):
            return lambda: [step_fn() for _ in range(steps)]

        times = _duel([run_many(fn) for _, fn in runners], repeats)
        serial_per_client = None
        for (stack, _), seconds in zip(runners, times):
            per_client = seconds / steps / stack
            if stack == 1:
                serial_per_client = per_client
            rows.append(
                {
                    "model": name,
                    "stack_size": stack,
                    "seconds_per_step": round(seconds / steps, 6),
                    "per_client_seconds_per_step": round(per_client, 6),
                    "speedup_vs_serial": (
                        round(serial_per_client / per_client, 2)
                        if serial_per_client and per_client > 0
                        else None
                    ),
                }
            )
    return rows


def bench_arena_plan(seed: int = 0, stack: int = 16) -> list[dict]:
    """Arena-planner statistics for the bench programs (no timing).

    Compiles each program with the optimizer on and off and reports the
    planner's own accounting (see
    :class:`~repro.grad.capture.ArenaPlanStats`): peak planned arena
    bytes vs the unplanned one-buffer-per-op arena, slot counts, and
    dead ops eliminated.  ``reduction`` is the headline number — the
    fraction of managed arena bytes the liveness coloring removed.
    """
    from repro.grad.capture import CaptureError, stacked_engine

    def train_stats(name):
        model, features, labels = _step_fixture(name, seed=seed)
        model.train()
        engine = training_engine(model, len(labels))
        engine.step(features, labels)
        (program,) = engine.programs.values()
        return program.stats

    def stacked_stats(name):
        model, features, labels = _step_fixture(name, seed=seed)
        try:
            program = stacked_engine(model).program(
                stack, np.zeros_like(features), np.zeros(labels.shape, np.int64)
            )
        except CaptureError:
            return None
        return program.stats

    rows = []
    for name in ("mlp", "cnn"):
        for label, stats in (
            (f"{name}-train", train_stats(name)),
            (f"{name}-stacked-k{stack}", stacked_stats(name)),
        ):
            if stats is None:
                continue
            rows.append({"program": label, **stats.to_dict()})
    return rows


def bench_eval_fastpath(repeats: int = 3, seed: int = 0, n_test: int = 512) -> dict:
    """Two-pass vs fused vs captured-replay evaluation of the bench CNN."""
    _, test, info = load_dataset("mnist", n_train=64, n_test=n_test, seed=seed)
    model = build_model("cnn", info, seed=seed + 53)

    def two_pass():
        # The pre-fusion server cost: separate accuracy and loss passes.
        return evaluate_accuracy(model, test), evaluate_loss(model, test)

    def fused():
        return evaluate(model, test)

    def fused_compiled():
        return evaluate(model, test, compiled=True)

    fused_compiled()  # warm-up: captures the inference program
    two_pass_s, fused_s, compiled_s = _duel(
        [two_pass, fused, fused_compiled], repeats
    )
    return {
        "num_samples": n_test,
        "two_pass_seconds": round(two_pass_s, 5),
        "fused_seconds": round(fused_s, 5),
        "fused_compiled_seconds": round(compiled_s, 5),
        "speedup_fused_vs_two_pass": round(two_pass_s / fused_s, 2),
        "speedup_compiled_vs_two_pass": round(two_pass_s / compiled_s, 2),
    }


def bench_federated_round(
    num_workers: int, repeats: int = 2, seed: int = 0
) -> dict:
    """Time one full round (all parties + aggregation), excluding setup.

    A warm-up round runs first so pool creation and lazy caches are not
    billed to the measured rounds.
    """
    model, clients = _build_fixture(seed=seed)
    # Explicit backend: "auto" would degrade to serial on a single-CPU
    # host and this benchmark would silently time the wrong thing.
    config = _config(
        num_workers=num_workers,
        executor="parallel" if num_workers >= 2 else "serial",
    )
    with FederatedServer(model, FedAvg(), clients, config) as server:
        server.fit(1)  # warm-up (forks the pool when num_workers >= 2)
        seconds = _time(lambda: server.fit(1), repeats)
    return {
        "num_workers": num_workers,
        "executor": "parallel" if num_workers >= 2 else "serial",
        "seconds": round(seconds, 4),
    }


#: codec configurations benchmarked, mirroring the sweep's default ladder
BENCH_CODECS = (
    {"codec": "identity"},
    {"codec": "float16"},
    {"codec": "qsgd", "codec_bits": 4},
    {"codec": "qsgd", "codec_bits": 8},
    {"codec": "topk", "codec_k": 0.1},
    {"codec": "randk", "codec_k": 0.1},
)


def _codec_label(spec: dict) -> str:
    name = spec["codec"]
    if name == "qsgd":
        return f"qsgd{spec['codec_bits']}"
    if name in ("topk", "randk"):
        return f"{name}{spec['codec_k']:g}"
    return name


def bench_codecs(size: int = 131072, repeats: int = 3, seed: int = 0) -> list[dict]:
    """Encode/decode throughput and wire size per codec on a dense vector.

    ``size`` defaults to the order of the bench CNN's parameter count so
    the timings predict real per-client encode cost.
    """
    from repro.comm import FLOAT_BYTES, make_codec

    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(size).astype(np.float32)
    rows = []
    for spec in BENCH_CODECS:
        codec = make_codec(
            spec["codec"],
            bits=spec.get("codec_bits", 8),
            k=spec.get("codec_k", 0.1),
        )
        codec_rng = np.random.default_rng(seed + 1)
        payload = codec.encode(vector, rng=codec_rng)
        encode_s = _time(lambda: codec.encode(vector, rng=codec_rng), repeats)
        decode_s = _time(lambda: codec.decode(payload), repeats)
        rows.append(
            {
                "codec": _codec_label(spec),
                "encode_seconds": round(encode_s, 5),
                "decode_seconds": round(decode_s, 5),
                "encode_mfloats_per_s": round(size / encode_s / 1e6, 1),
                "nbytes": payload.nbytes,
                "ratio_vs_float32": round(
                    payload.nbytes / (FLOAT_BYTES * size), 4
                ),
            }
        )
    return rows


#: dropout levels benchmarked; 0.0 is the fault-free accuracy baseline
BENCH_DROPOUT_PROBS = (0.0, 0.2, 0.4)


def bench_dropout(num_rounds: int = 4, seed: int = 0) -> list[dict]:
    """Accuracy under client dropout: the robustness-vs-loss trade-off.

    Runs the bench fixture for a few rounds at each dropout level with
    partial participation (so over-sampling engages) and reports final
    accuracy next to the parties actually dropped — the degradation
    column a fault-model change moves.
    """
    from repro.data import load_dataset

    rows = []
    for prob in BENCH_DROPOUT_PROBS:
        model, clients = _build_fixture(seed=seed)
        _, test, _ = load_dataset("mnist", n_train=640, n_test=64, seed=seed)
        config = _config(
            num_rounds=num_rounds,
            sample_fraction=0.5,
            dropout_prob=prob,
        )
        with FederatedServer(
            model, FedAvg(), clients, config, test_dataset=test
        ) as server:
            history = server.fit()
        rows.append(
            {
                "dropout_prob": prob,
                "final_accuracy": round(history.final_accuracy, 4),
                "dropped_total": int(history.dropped_counts.sum()),
                "mean_completed": round(
                    float(np.mean([len(r.participants) for r in history.records])), 2
                ),
            }
        )
    return rows


def bench_round_bytes(seed: int = 0) -> list[dict]:
    """Measured bytes one federated round transmits under each codec.

    Round 0 is measured, so error-feedback codecs show their dense
    warm-start broadcast on the downlink; their steady-state downlink is
    as sparse as the uplink.
    """
    rows = []
    for spec in BENCH_CODECS:
        model, clients = _build_fixture(seed=seed)
        config = _config(**spec)
        with FederatedServer(model, FedAvg(), clients, config) as server:
            record = server.run_round(0)
        rows.append(
            {
                "codec": _codec_label(spec),
                "bytes_down": record.bytes_down,
                "bytes_up": record.bytes_up,
                "bytes_total": record.bytes_communicated,
            }
        )
    baseline = next(r for r in rows if r["codec"] == "identity")
    for row in rows:
        row["ratio_vs_identity"] = round(
            row["bytes_total"] / baseline["bytes_total"], 4
        )
    return rows


#: population sizes for the flat-memory scaling column (fixed cohort)
BENCH_POPULATION_SIZES = (1_000, 100_000, 1_000_000)

#: the child process measuring one population point's peak RSS; its own
#: ru_maxrss is the honest number — measuring in-process would fold every
#: previously-run benchmark's allocations into the peak.
_ASYNC_CHILD = """
import json, resource, sys, time
from repro.spec import RunSpec
from repro.experiments.runner import run_spec
from repro.experiments.scale import SMOKE

size, cohort, rounds, seed = (int(a) for a in sys.argv[1:5])
spec = RunSpec.build(
    "mnist", "iid", "fedavg", preset=SMOKE, population=size,
    sample_per_round=cohort, aggregation="async", num_rounds=rounds,
    seed=seed,
)
start = time.perf_counter()
outcome = run_spec(spec)
wall = time.perf_counter() - start
print(json.dumps({
    "wall_seconds": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "final_accuracy": outcome.final_accuracy,
}))
"""


def bench_async_engine(
    seed: int = 0,
    smoke: bool = False,
    cohort: int = 32,
    num_rounds: int = 2,
    populations: tuple[int, ...] = BENCH_POPULATION_SIZES,
) -> dict:
    """Flat-memory scaling and the buffer-size trade-off of the async engine.

    Two tables:

    - ``scaling`` — wall time and peak RSS of a full async run at a fixed
      cohort while the population grows 1k -> 100k -> 1M.  Each point runs
      in a fresh subprocess so its ``ru_maxrss`` reflects that run alone;
      the flat-memory claim is RSS staying put while the population grows
      three orders of magnitude.
    - ``buffer_sweep`` — wall time, virtual time, mean staleness and final
      accuracy as the FedBuff buffer ``M`` shrinks from the cohort (exact
      barrier) downward at a fixed population.
    """
    import subprocess
    import sys

    from repro.spec import RunSpec
    from repro.experiments.runner import run_spec
    from repro.experiments.scale import SMOKE

    if smoke:
        populations = tuple(p for p in populations if p <= 100_000)
        cohort, num_rounds = 8, 1

    scaling = []
    for size in populations:
        out = subprocess.run(
            [sys.executable, "-c", _ASYNC_CHILD,
             str(size), str(cohort), str(num_rounds), str(seed)],
            capture_output=True, text=True, check=True,
        )
        point = json.loads(out.stdout.strip().splitlines()[-1])
        scaling.append(
            {
                "population": size,
                "cohort": cohort,
                "num_rounds": num_rounds,
                "wall_seconds": round(point["wall_seconds"], 3),
                "peak_rss_mb": round(point["peak_rss_mb"], 1),
            }
        )

    buffer_sweep = []
    sweep_cohort = 8
    buffers = (2, 8) if smoke else (2, 4, 8)
    for buffer in buffers:
        spec = RunSpec.build(
            "mnist", "iid", "fedavg", preset=SMOKE, population=10_000,
            sample_per_round=sweep_cohort, aggregation="async",
            buffer_size=buffer, staleness_exponent=0.5,
            num_rounds=2 if smoke else 4, seed=seed,
        )
        start = time.perf_counter()
        outcome = run_spec(spec)
        wall = time.perf_counter() - start
        history = outcome.history
        buffer_sweep.append(
            {
                "buffer_size": buffer,
                "cohort": sweep_cohort,
                "is_barrier": buffer == sweep_cohort,
                "wall_seconds": round(wall, 3),
                "virtual_time": round(float(history.virtual_times[-1]), 3),
                "mean_staleness": round(history.mean_staleness(), 3),
                "final_accuracy": round(history.final_accuracy, 4),
            }
        )
    return {"scaling": scaling, "buffer_sweep": buffer_sweep}


def _hardware_note(cpu_count: int, worker_counts: list[int]) -> str:
    if not worker_counts:
        return "No parallel worker counts benchmarked."
    capped = [w for w in worker_counts if w > cpu_count]
    if not capped:
        return (
            f"{cpu_count} CPUs available; worker counts up to "
            f"{max(worker_counts)} can run truly concurrently."
        )
    return (
        f"Hardware cap: this machine exposes {cpu_count} CPU(s), so worker "
        f"counts {capped} time-slice a single core instead of running "
        "concurrently. Parallel speedup is bounded by min(workers, cpus); "
        "expect ~1x (minus IPC overhead) here, and near-linear scaling on "
        "multi-core hosts. The determinism tests, not this timing, are the "
        "correctness signal on such machines."
    )


def run_benchmarks(
    repeats: int = 2,
    worker_counts: tuple[int, ...] = (0, 2, 4),
    seed: int = 0,
    smoke: bool = False,
) -> dict:
    """Run all micro-benchmarks and return the report dict.

    ``smoke`` shrinks every section to a seconds-scale sanity pass —
    enough to prove the benchmarks run, not to produce stable numbers.
    """
    if smoke:
        repeats, worker_counts = 1, tuple(w for w in worker_counts if w == 0)
    cpu_count = os.cpu_count() or 1
    bad = [w for w in worker_counts if w < 0 or w == 1]
    if bad:
        raise ValueError(
            f"worker counts must be 0 (serial) or >= 2 (parallel), got {bad}"
        )
    dropped = [w for w in worker_counts if w >= 2 and not fork_available()]
    if dropped:
        print(f"skipping worker counts {dropped}: fork is unavailable")
    worker_counts = [w for w in worker_counts if w not in dropped]
    report = {
        "schema": 1,
        "suite": "repro.experiments.bench",
        "hardware": {
            "cpu_count": cpu_count,
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "fork_available": fork_available(),
        },
        "local_round": bench_local_round(
            repeats=repeats if smoke else max(repeats, 3), seed=seed
        ),
        # More duel rounds than elsewhere: the eager/replay ratio is the
        # headline number and each interleaved round is only ~1s.
        "compiled_step": bench_compiled_step(
            repeats=repeats if smoke else max(repeats, 8),
            seed=seed,
            steps=5 if smoke else 20,
        ),
        "stacked_replay": bench_stacked_replay(
            repeats=repeats if smoke else max(repeats, 5),
            seed=seed,
            steps=3 if smoke else 10,
            stack_sizes=(1, 4) if smoke else BENCH_STACK_SIZES,
        ),
        # Deterministic planner accounting, not a timing: identical in
        # smoke and full runs.
        "arena_plan": bench_arena_plan(seed=seed),
        "eval_fastpath": bench_eval_fastpath(
            repeats=repeats if smoke else max(repeats, 3),
            seed=seed,
            n_test=128 if smoke else 512,
        ),
        "federated_round": [
            bench_federated_round(w, repeats=repeats, seed=seed)
            for w in worker_counts
        ],
        "codec_throughput": bench_codecs(
            repeats=repeats if smoke else max(repeats, 3), seed=seed
        ),
        "round_bytes": bench_round_bytes(seed=seed),
        "accuracy_under_dropout": bench_dropout(
            num_rounds=2 if smoke else 4, seed=seed
        ),
        "async_engine": bench_async_engine(seed=seed, smoke=smoke),
    }
    serial = next(
        (r for r in report["federated_round"] if r["num_workers"] == 0), None
    )
    if serial is not None:
        for row in report["federated_round"]:
            if row["num_workers"] >= 2 and row["seconds"] > 0:
                row["speedup_vs_serial"] = round(
                    serial["seconds"] / row["seconds"], 2
                )
    report["note"] = _hardware_note(
        cpu_count, [w for w in worker_counts if w >= 2]
    )
    return report


#: wall-time regression tolerance for --check-baseline: smoke runs use
#: best-of-1 timings on a shared host, so only a multiple-of-baseline
#: slowdown is a signal rather than noise.
BASELINE_TOLERANCE = 2.5


def check_baseline(report: dict, baseline: dict, tolerance: float = BASELINE_TOLERANCE):
    """Wall-time regressions of ``report`` vs a committed baseline.

    Compares the hot-path timings — ``compiled_step`` seconds per step
    and ``stacked_replay`` seconds per step — row by row, and returns a
    list of violation strings (empty = no regression beyond
    ``tolerance``x the committed number).
    """
    problems = []

    def compare(section, key_fields, value_field):
        old_rows = {
            tuple(row[field] for field in key_fields): row
            for row in baseline.get(section, [])
        }
        for row in report.get(section, []):
            key = tuple(row[field] for field in key_fields)
            old = old_rows.get(key)
            if old is None:
                continue
            now, then = row[value_field], old[value_field]
            if then > 0 and now > then * tolerance:
                label = "/".join(str(part) for part in key)
                problems.append(
                    f"{section}[{label}].{value_field}: {now:.6f}s vs "
                    f"baseline {then:.6f}s (tolerance {tolerance:g}x)"
                )

    compare("compiled_step", ("model",), "compiled_seconds_per_step")
    compare("stacked_replay", ("model", "stack_size"), "seconds_per_step")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="where to write the JSON report"
    )
    parser.add_argument(
        "--check-baseline", default=None, metavar="JSON",
        help="fail if compiled_step/stacked_replay wall times regress "
             f"beyond {BASELINE_TOLERANCE:g}x this committed report",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=[0, 2, 4],
        help="worker counts to benchmark (0 = serial)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale sanity run (small sizes, serial only)",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(
        repeats=args.repeats, worker_counts=tuple(args.workers), smoke=args.smoke
    )
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if args.check_baseline is not None:
        baseline = json.loads(Path(args.check_baseline).read_text())
        problems = check_baseline(report, baseline)
        for problem in problems:
            print(f"BASELINE REGRESSION: {problem}")
        if problems:
            return 1
        print(f"baseline check OK ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
