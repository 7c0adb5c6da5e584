"""Spans and counters recorded from outside the program.

The benchmark does not instrument ``src/``: it wraps each layer's public
entry point at the name its caller looks up (``runner.load_dataset``,
the algorithm modules' own ``run_local_training``, ...), records a span
per call and reads the program's own counters (capture-engine hits,
build-cache stats, population sizes) at the end of each cell.

A span is ``(id, parent, name, start, end, pid, tags)``; ``parent`` is
the span open on the caller's stack when the call began.  Spans stay in
memory.  Workers forked by ``run_cells`` exit without running
``atexit``, so a worker appends its spans to a JSONL file in the sink
directory whenever a store call returns, i.e. once per cell.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import namedtuple
from pathlib import Path

Span = namedtuple("Span", "sid parent name start end pid tags")

#: counters merged by maximum rather than by sum
PEAK_COUNTERS = frozenset({"population.materialized_peak"})

_BUILD_CACHE_HITS = ("dataset_hits", "dataset_disk_hits", "partition_hits")
_BUILD_CACHE_MISSES = ("dataset_misses", "partition_misses")


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.sid, ())
            if child.end > span.start and child.start < span.end
        )
        out[span.sid] = (span.end - span.start) - covered
    return out


def merge_counters(total: dict, part: dict) -> None:
    for name, value in part.items():
        if name in PEAK_COUNTERS:
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


class Tracer:
    """Records spans around wrapped calls; see the module docstring.

    ``full=False`` wraps only the calls that bound set-up (the cell entry,
    each round's dispatch, the store writes that flush worker spans) —
    what an untraced run needs to report ``setup_s``.
    """

    def __init__(self, sink_dir, full: bool = True):
        self.full = full
        self.sink_dir = Path(sink_dir)
        self.owner = os.getpid()
        self.spans: list[Span] = []
        self.counters: dict = {}
        self._stack: list = []
        self._names: list = []
        self._ids = itertools.count(1)
        self._engines: dict = {}
        self._populations: dict = {}
        self._cache_seen: dict = {}
        self._build_cache = None
        self._patches: list = []
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------

    def _after_fork(self) -> None:
        # The child keeps the open stack (its spans nest under the
        # parent's run_cells span) but none of the parent's records.
        self.spans = []
        self.counters = {}
        self._engines = {}
        self._populations = {}
        if self._build_cache is not None:
            self._cache_seen = self._build_cache.stats()

    def wrap(self, fn, name: str, guard: bool = False, tags=None, flush=False):
        """``fn`` timed as span ``name``.

        ``guard`` skips nested calls of the same name (an override calling
        ``super()``); ``tags(args, result)`` returns a dict for the span;
        ``flush`` writes a forked worker's records out after the call.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or (guard and name in tracer._names):
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = os.getpid() * 1_000_000_000 + next(tracer._ids)
            stack.append(sid)
            tracer._names.append(name)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._names.pop()
                tracer.spans.append(
                    Span(
                        sid, parent, name, start, end, os.getpid(),
                        tags(args, result) if tags and result is not None else None,
                    )
                )
                if flush and os.getpid() != tracer.owner:
                    tracer.flush()

        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with its traced wrapper (undone by close)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **options))

    def close(self) -> None:
        """Stop recording and restore every patched name."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters --------------------------------------------------------

    def note_engine(self, engine) -> None:
        self._engines[id(engine)] = engine

    def note_population(self, population) -> None:
        self._populations[id(population)] = population
        self.count_peak("population.materialized_peak", population.materialized_count)

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def count_peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def harvest(self) -> None:
        """Fold the program's own counters for finished cells into ours."""
        for engine in self._engines.values():
            self.count("capture.captures", engine.captures)
            self.count("capture.replays", engine.replays)
            self.count("capture.fallbacks", engine.fallbacks)
        self._engines = {}
        for population in self._populations.values():
            self.count("population.spilled", population.spilled_count)
        self._populations = {}
        if self._build_cache is None:
            return
        stats = self._build_cache.stats()
        for key, value in stats.items():
            delta = value - self._cache_seen.get(key, 0)
            if key in _BUILD_CACHE_HITS:
                self.count("data.cache_hits", delta)
            elif key in _BUILD_CACHE_MISSES:
                self.count("data.cache_misses", delta)
        self._cache_seen = stats

    def flush(self) -> None:
        """Append this process's records to its sink file and forget them."""
        self.harvest()
        line = json.dumps({"spans": self.spans, "counters": self.counters})
        with open(self.sink_dir / f"spans-{os.getpid()}.jsonl", "a") as sink:
            sink.write(line + "\n")
        self.spans = []
        self.counters = {}

    def collect(self) -> tuple[list[Span], dict]:
        """Every span and counter: this process's plus the workers' files."""
        self.harvest()
        spans = list(self.spans)
        counters = dict(self.counters)
        for path in sorted(self.sink_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                part = json.loads(line)
                spans.extend(Span(*span) for span in part["spans"])
                merge_counters(counters, part["counters"])
        return spans, counters


def install(tracer: Tracer) -> Tracer:
    """Wrap each layer's public entry point; ``tracer.close()`` undoes it."""
    from repro.data import build_cache
    from repro.experiments import runner, scheduler
    from repro.experiments.store import ResultStore
    from repro.federated import executor

    tracer._build_cache = build_cache
    # The calls that bound set-up are wrapped in untraced runs too.
    tracer.patch(runner, "run_spec", "cell")
    tracer.patch(scheduler, "run_spec", "cell")
    for cls in _classes_defining(executor.ClientExecutor, "execute_round"):
        tracer.patch(cls, "execute_round", "executor.round", guard=True)
    tracer.patch(ResultStore, "save", "store.save", flush=True)
    if tracer.full:
        _install_layers(tracer)
    tracer.active = True
    return tracer


def _install_layers(tracer: Tracer) -> None:
    from repro.comm.channel import CommChannel
    from repro.data import build_cache
    from repro.experiments import runner, scheduler
    from repro.experiments.store import ResultStore
    from repro.federated import algorithms, executor, trainer
    from repro.federated.algorithms import fedavg, fedprox, scaffold
    from repro.federated.async_engine import AsyncFederation
    from repro.federated.population import VirtualPopulation
    from repro.federated.server import FederatedServer

    tracer.patch(runner, "load_dataset", "data.load")
    tracer.patch(build_cache, "cached_partition", "partition.build")
    tracer.patch(runner, "build_model", "models.build")
    tracer.patch(scheduler, "run_cells", "scheduler.run")
    tracer.patch(ResultStore, "get", "store.get", flush=True)
    tracer.patch(FederatedServer, "run_round", "server.round")
    tracer.patch(FederatedServer, "evaluate", "eval")
    tracer.patch(AsyncFederation, "evaluate", "eval")
    tracer.patch(AsyncFederation, "fit", "async.fit")
    tracer.patch(CommChannel, "broadcast", "comm.broadcast")
    tracer.patch(executor, "process_upload", "comm.upload")
    for attr, name in (
        ("local_update", "client.local_update"),
        ("commit", "algorithm.commit"),
        ("aggregate", "algorithm.aggregate"),
    ):
        for cls in _classes_defining(algorithms.FedAlgorithm, attr):
            tracer.patch(cls, attr, name, guard=True)
    for module in (fedavg, fedprox, scaffold, executor):
        tracer.patch(
            module, "run_local_training", "trainer.train", guard=True,
            tags=lambda args, result: {"steps": result.num_steps},
        )
    # Counter sources: read when the cell's records are flushed.
    tracer.patch(trainer, "training_engine", "capture.engine",
                 tags=lambda args, result: tracer.note_engine(result))
    tracer.patch(VirtualPopulation, "checkout", "population.checkout",
                 tags=lambda args, result: tracer.note_population(args[0]))
    tracer.patch(VirtualPopulation, "release", "population.release")


def _classes_defining(base: type, attr: str) -> list[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
