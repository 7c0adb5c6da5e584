"""Per-layer metrics derived from one repetition's spans and counters.

Times are seconds summed over every call of the named layer unless the
name says otherwise; ``*.self_s`` subtracts the child spans a call
covers.  ``client.local_update_s`` and ``scheduler.cell_s`` are medians
per call; their per-call samples are returned alongside so the report
can give the tail percentile too.
"""

from __future__ import annotations

import statistics

from tracing import self_times

#: per-layer metric -> (unit, which direction is better), in report order
PER_LAYER = {
    "data.load_s": ("s", "lower"),
    "partition.build_s": ("s", "lower"),
    "data.cache_hits": ("count", "higher"),
    "data.cache_misses": ("count", "lower"),
    "data.cache_hit_ratio": ("ratio", "higher"),
    "models.build_s": ("s", "lower"),
    "server.round_s": ("s", "lower"),
    "server.self_s": ("s", "lower"),
    "comm.broadcast_s": ("s", "lower"),
    "comm.upload_s": ("s", "lower"),
    "comm.bytes_per_round": ("bytes", "lower"),
    "executor.round_s": ("s", "lower"),
    "executor.self_s": ("s", "lower"),
    "client.local_update_s": ("s", "lower"),
    "algorithm.commit_s": ("s", "lower"),
    "algorithm.aggregate_s": ("s", "lower"),
    "trainer.steps": ("count", "lower"),
    "trainer.step_s": ("s", "lower"),
    "capture.captures": ("count", "lower"),
    "capture.replays": ("count", "higher"),
    "capture.fallbacks": ("count", "lower"),
    "capture.replay_ratio": ("ratio", "higher"),
    "eval.s": ("s", "lower"),
    "population.checkout_s": ("s", "lower"),
    "population.materialized_peak": ("count", "lower"),
    "population.spilled": ("count", "lower"),
    "async.self_s": ("s", "lower"),
    "async.flushes": ("count", "lower"),
    "async.mean_staleness": ("steps", "lower"),
    "scheduler.cell_s": ("s", "lower"),
    "scheduler.busy_share": ("ratio", "higher"),
    "scheduler.idle_s": ("s", "lower"),
    "store.save_s": ("s", "lower"),
    "store.get_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: span name -> metric holding the summed duration
_TOTALS = {
    "data.load": "data.load_s",
    "partition.build": "partition.build_s",
    "models.build": "models.build_s",
    "server.round": "server.round_s",
    "comm.broadcast": "comm.broadcast_s",
    "comm.upload": "comm.upload_s",
    "executor.round": "executor.round_s",
    "algorithm.commit": "algorithm.commit_s",
    "algorithm.aggregate": "algorithm.aggregate_s",
    "eval": "eval.s",
    "population.checkout": "population.checkout_s",
    "store.save": "store.save_s",
    "store.get": "store.get_s",
}

#: span name -> metric holding the summed self time
_SELF = {
    "server.round": "server.self_s",
    "executor.round": "executor.self_s",
    "async.fit": "async.self_s",
}


def setup_seconds(spans) -> float:
    """Sum over cells of the time from cell entry to its first dispatch."""
    dispatches: dict = {}
    for span in spans:
        if span.name == "executor.round":
            dispatches.setdefault(span.pid, []).append(span.start)
    total = 0.0
    for cell in (span for span in spans if span.name == "cell"):
        first = min(
            (t for t in dispatches.get(cell.pid, ()) if cell.start <= t <= cell.end),
            default=cell.end,
        )
        total += first - cell.start
    return total


def layer_metrics(spans, counters: dict, histories: list, jobs: int):
    """``(metrics, samples)``: every PER_LAYER value but the overhead,
    and the per-call samples behind the two per-call medians."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    del metrics["trace.overhead_s"]
    own = self_times(spans)
    by_id = {span.sid: span for span in spans}
    local_updates, cells = [], []
    steps = train_s = 0
    staleness, flushes = [], 0
    run_s = 0.0
    for span in spans:
        duration = span.end - span.start
        if span.name in _TOTALS:
            metrics[_TOTALS[span.name]] += duration
        if span.name in _SELF:
            metrics[_SELF[span.name]] += own[span.sid]
        if span.name == "client.local_update":
            local_updates.append(duration)
        elif span.name == "trainer.train" and span.tags:
            steps += span.tags["steps"]
            train_s += duration
        elif span.name == "scheduler.run":
            run_s += duration
        elif span.name == "cell":
            parent = by_id.get(span.parent)
            if parent is not None and parent.name == "scheduler.run":
                cells.append(duration)
    for history in histories:
        for record in history["records"]:
            if record.get("buffer_flush", 0):
                flushes += 1
                staleness.extend(record.get("staleness", ()))
    rounds = [
        record["bytes_down"] + record["bytes_up"]
        for history in histories
        for record in history["records"]
    ]
    hits = counters.get("data.cache_hits", 0)
    misses = counters.get("data.cache_misses", 0)
    captures = counters.get("capture.captures", 0)
    replays = counters.get("capture.replays", 0)
    fallbacks = counters.get("capture.fallbacks", 0)
    busy = sum(cells)
    metrics.update({
        "data.cache_hits": hits,
        "data.cache_misses": misses,
        "data.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "comm.bytes_per_round": statistics.fmean(rounds) if rounds else 0.0,
        "client.local_update_s": (
            statistics.median(local_updates) if local_updates else 0.0
        ),
        "trainer.steps": steps,
        "trainer.step_s": train_s / steps if steps else 0.0,
        "capture.captures": captures,
        "capture.replays": replays,
        "capture.fallbacks": fallbacks,
        "capture.replay_ratio": (
            replays / (captures + replays + fallbacks)
            if captures + replays + fallbacks else 0.0
        ),
        "population.materialized_peak": counters.get(
            "population.materialized_peak", 0
        ),
        "population.spilled": counters.get("population.spilled", 0),
        "async.flushes": flushes,
        "async.mean_staleness": statistics.fmean(staleness) if staleness else 0.0,
        "scheduler.cell_s": statistics.median(cells) if cells else 0.0,
        "scheduler.busy_share": busy / (jobs * run_s) if run_s else 0.0,
        "scheduler.idle_s": jobs * run_s - busy if run_s else 0.0,
    })
    return metrics, {
        "client.local_update_s": local_updates,
        "scheduler.cell_s": cells,
    }
