"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(sid, parent, name, start, end, pid=1, tags=None):
    return Span(sid, parent, name, start, end, pid, tags)


# -- self time ---------------------------------------------------------------


def test_union_length_counts_overlaps_once():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.union_length([]) == 0


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        span(1, None, "server.round", 0.0, 10.0),
        span(2, 1, "executor.round", 1.0, 3.0),
        span(3, 1, "eval", 2.0, 5.0),  # overlaps its sibling
        span(4, 1, "comm.upload", 9.0, 12.0),  # runs past the parent's end
        span(5, 2, "trainer.train", 1.5, 2.5),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)


def test_setup_is_cell_entry_to_first_dispatch_per_cell():
    spans = [
        span(1, None, "cell", 0.0, 10.0, pid=7),
        span(2, 1, "executor.round", 2.5, 4.0, pid=7),
        span(3, 1, "executor.round", 4.0, 6.0, pid=7),
        span(4, None, "cell", 1.0, 5.0, pid=8),
        span(5, 4, "executor.round", 1.5, 2.0, pid=8),
    ]
    assert layers.setup_seconds(spans) == pytest.approx(2.5 + 0.5)


def test_scheduler_share_counts_only_cells_under_run_cells():
    spans = [
        span(1, None, "scheduler.run", 0.0, 10.0),
        span(2, 1, "cell", 0.0, 6.0, pid=2),
        span(3, 1, "cell", 0.0, 8.0, pid=3),
        span(4, None, "cell", 0.0, 1.0),
    ]
    metrics, samples = layers.layer_metrics(spans, {}, [], jobs=2)
    assert samples["scheduler.cell_s"] == [6.0, 8.0]
    assert metrics["scheduler.busy_share"] == pytest.approx(14.0 / 20.0)
    assert metrics["scheduler.idle_s"] == pytest.approx(6.0)
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_s"}


# -- the tail-percentile rule ----------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        cut = run.percentile(values, expected)
        assert sum(value > cut for value in values) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90.0) == 90
    assert run.percentile(values, 50.0) == 50
    assert run.percentile([3.0], 99.0) == 3.0


def test_summary_reports_no_tail_below_twenty_samples():
    assert "tail=n/a range=[1, 5] n=5" in run.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert "p50=" in run.summarize([float(v) for v in range(20)])


# -- the reference check -----------------------------------------------------


def _history():
    from repro.federated.history import History, RoundRecord

    return History(records=[
        RoundRecord(
            round_index=index, test_accuracy=0.5 + index / 10, train_loss=1.0 / (index + 1),
            participants=[0, 1], client_steps=[3, 4], bytes_down=100, bytes_up=60,
            bytes_communicated=160,
        )
        for index in range(3)
    ])


def test_reference_matches_an_identical_history():
    cells = {"adult/iid/fedavg/0": reference.science(_history().to_dict())}
    again = {"adult/iid/fedavg/0": reference.science(_history().to_dict())}
    assert reference.compare(cells, again) == {}


@pytest.mark.parametrize(
    "field, value, flagged",
    [
        ("test_accuracy", 0.75, ["final_accuracy", "test_accuracy"]),
        ("train_loss", 0.2500001, ["train_loss"]),
        ("bytes_up", 61, ["bytes_up"]),
        ("participants", [0, 2], ["participants"]),
        ("client_steps", [3, 5], ["client_steps"]),
    ],
)
def test_reference_flags_a_perturbed_history(field, value, flagged):
    expected = {"cell": reference.science(_history().to_dict())}
    history = _history()
    setattr(history.records[-1], field, value)
    assert reference.compare(expected, {"cell": reference.science(history.to_dict())}) == {
        "cell": flagged
    }


def test_reference_ignores_the_executor_fallback():
    expected = {"cell": reference.science(_history().to_dict())}
    history = _history()
    history.records[0].fallback = "serial:single-cpu"
    assert reference.compare(expected, {"cell": reference.science(history.to_dict())}) == {}


def test_reference_flags_missing_and_unexpected_cells():
    science = reference.science(_history().to_dict())
    bad = reference.compare({"a": science, "b": science}, {"a": science, "c": science})
    assert bad == {"b": ["missing"], "c": ["unexpected"]}


def test_reference_round_trips_through_the_file(tmp_path):
    path = tmp_path / "references.json"
    cells = {"cell": reference.science(_history().to_dict())}
    assert reference.load("host", "cnn-cell", 3, path=path) is None
    reference.record("host", {"cpu": "x"}, "cnn-cell", 3, cells, path=path)
    assert reference.load("host", "cnn-cell", 3, path=path) == cells
    assert reference.load("other", "cnn-cell", 3, path=path) is None


# -- the tracer --------------------------------------------------------------


def _module():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    return module


def test_tracer_nests_spans_and_restores_names(tmp_path):
    module = _module()
    original = module.inner
    tracer = tracing.Tracer(tmp_path)
    tracer.patch(module, "inner", "inner", tags=lambda args, result: {"x": args[0]})
    tracer.patch(module, "outer", "outer")
    tracer.active = True
    assert module.outer(1) == 4
    tracer.close()
    assert module.inner is original
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.tags == {"x": 1}


def test_guarded_span_skips_nested_calls_of_the_same_name(tmp_path):
    class Base:
        def aggregate(self):
            return 1

    class Child(Base):
        def aggregate(self):
            return super().aggregate() + 1

    tracer = tracing.Tracer(tmp_path)
    for cls in tracing._classes_defining(Base, "aggregate"):
        tracer.patch(cls, "aggregate", "algorithm.aggregate", guard=True)
    tracer.active = True
    assert Child().aggregate() == 2
    tracer.close()
    assert [s.name for s in tracer.spans] == ["algorithm.aggregate"]


def test_forked_worker_flushes_its_spans_per_call(tmp_path):
    module = _module()
    tracer = tracing.Tracer(tmp_path)
    tracer.patch(module, "inner", "store.save", flush=True)
    tracer.active = True
    pid = os.fork()
    if pid == 0:  # the worker exits without atexit, like run_cells' workers
        try:
            module.inner(1)
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    module.inner(2)
    tracer.close()
    spans, _ = tracer.collect()
    assert sorted(s.pid for s in spans) == sorted([os.getpid(), pid])


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for workload in bench["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()
    ]
