"""End-to-end benchmark of the NIID-Bench reproduction.

Usage::

    python3 perfbench/run.py --workload cnn-cell --seed 1 --seconds 30 --trace 0

Repeats the workload (see ``workloads.py``) for ``--seconds`` seconds,
each repetition in a fresh interpreter with a fresh result store and
build-cache spill directory, and checks every cell's History against the
reference recorded for this host, workload and seed (``references.json``;
without one, against the first repetition).  It prints the host's
provenance, a report with each metric's median, tail percentile and
sample count, and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
The gated times (``wall_norm_s``, ``setup_s``, ``cells_per_hour_norm``)
are scaled by a calibration kernel timed around each repetition, which
cancels the host's own speed drift; the raw ``wall_s`` and
``setup_raw_s`` are printed beside them.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, including the tracing overhead (traced minus
untraced median wall time).  ``--record-reference`` stores the first
repetition's science as this host's reference for the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, jobs  # noqa: E402

#: end-to-end metric -> unit, as gated in BENCHMARK.json.  The ``_norm``
#: times and ``setup_s`` are scaled by CAL_REFERENCE_S / the calibration
#: kernel's time around the repetition (see ``calibrate``).
END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_hour_norm": "1/h",
}

#: reported alongside, not gated: their spread is the host's speed drift
RAW = {"wall_s": "s", "setup_raw_s": "s", "cells_per_hour": "1/h",
       "calibration_s": "s"}

#: median ``calibrate()`` time on the 2-vCPU Xeon VM the references were
#: recorded on, so normalized times read as seconds on that host
CAL_REFERENCE_S = 0.035

#: the run must end within this many seconds of starting
RUN_LIMIT_S = 170.0

#: percentiles the report considers for a distribution's tail
_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of ``n`` samples beyond it."""
    best = None
    for p in _PERCENTILES:
        if n - _rank(n, p) >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile."""
    return sorted(values)[_rank(len(values), p) - 1]


def summarize(values) -> str:
    """``median=... p90=... range=[...] n=...`` (a tail only with enough samples)."""
    p = tail_percentile(len(values))
    tail = f"p{p:g}={percentile(values, p):.6g}" if p is not None else "tail=n/a"
    return (
        f"median={statistics.median(values):.6g} {tail} "
        f"range=[{min(values):.6g}, {max(values):.6g}] n={len(values)}"
    )


# -- provenance -------------------------------------------------------------


def _git(*args) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu() -> dict:
    """CPU model name, family/model numbers and a digest of its flags."""
    fields = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            name, _, value = line.partition(":")
            fields.setdefault(name.strip(), value.strip())
    except OSError:
        pass
    return {
        "cpu_model": fields.get("model name", platform.processor() or "unknown"),
        "cpu_id": f"{fields.get('cpu family', '?')}/{fields.get('model', '?')}",
        "cpu_flags": hashlib.sha256(fields.get("flags", "").encode()).hexdigest()[:12],
    }


def provenance(seed: int) -> dict:
    """Facts about the host and code that the numbers depend on."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": jobs(),
        **_cpu(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def fingerprint(host: dict) -> str:
    """The host facts a floating-point result can depend on, hashed.

    BLAS picks its kernels from the CPU's flags and splits work by its
    thread count, so the flags, CPU count and thread variables are part
    of the key.
    """
    key = {
        name: host[name]
        for name in ("machine", "cpu_model", "cpu_id", "cpu_flags", "nproc",
                     "numpy", "blas", "thread_env")
    }
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:12]


# -- repetitions ------------------------------------------------------------


def run_rep(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; ``{"error": ...}`` on failure."""
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir))
    command = [
        sys.executable, str(HERE / "rep.py"), workload, str(seed),
        "1" if traced else "0", str(scratch / "rep"),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True, env=dict(os.environ, TMPDIR=str(scratch)),
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # The repetition's forked workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if out is None:
        return {"error": "timed out"}
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}"}
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {"error": "no output"}


def check(reps: list, expected: dict, cells: int) -> tuple[int, list]:
    """Failed cell count over ``reps`` and a description of each failure."""
    failed, notes = 0, []
    for index, rep in enumerate(reps):
        if "error" in rep:
            failed += cells
            notes.append(f"repetition {index}: {rep['error']}")
            continue
        bad = reference.compare(expected, rep["cells"])
        for label, fields in bad.items():
            notes.append(f"repetition {index}: {label}: {', '.join(fields)}")
        for label, error in rep["errors"].items():
            notes.append(f"repetition {index}: {label} raised {error}")
        failed += len(set(bad) | set(rep["errors"]))
    return failed, notes


def calibrate() -> float:
    """Seconds a fixed kernel takes now: the host's current speed.

    The speed of the shared hosts this runs on drifts by tens of percent
    over seconds to minutes, and every workload slows with it.  The kernel
    mixes interpreter work, allocation and small BLAS calls as the
    workloads do; the median of three runs discounts one preemption.
    """
    import numpy

    matrix = numpy.full((64, 64), 0.5, dtype=numpy.float32)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        table = {i: str(i) for i in range(60_000)}
        for _ in range(600):
            matrix @ matrix
        times.append(time.perf_counter() - start)
        del table
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Repetitions for ``seconds`` seconds: ``(traced, result)`` pairs.

    A new round of repetitions starts only if the longest round so far
    still fits; with ``trace`` each round is one untraced and one traced
    repetition, in alternating order.  The calibration kernel runs
    between repetitions; each result gets the mean of the two around it
    as ``calibration_s``.
    """
    start = time.monotonic()
    deadline = start + seconds
    hard_stop = start + RUN_LIMIT_S
    reps, longest, index = [], 0.0, 0
    before = calibrate()
    while True:
        began = time.monotonic()
        order = [False] if not trace else [index % 2 == 1, index % 2 == 0]
        for traced in order:
            rep = run_rep(workload, seed, traced, hard_stop)
            after = calibrate()
            rep["calibration_s"] = (before + after) / 2
            reps.append((traced, rep))
            before = after
        longest = max(longest, time.monotonic() - began)
        index += 1
        if time.monotonic() + longest > min(deadline, hard_stop):
            return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    host = provenance(args.seed)
    print("provenance " + json.dumps(host, sort_keys=True))
    reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        (ROOT / ".perfbench").rmdir()
    except OSError:
        pass  # not empty: another run is using it
    good = [rep for _, rep in reps if "error" not in rep]
    if not good:
        for _, rep in reps:
            print(f"perfbench: repetition failed: {rep['error']}", file=sys.stderr)
        return 1

    key = fingerprint(host)
    expected = reference.load(key, args.workload, args.seed)
    source = "recorded for this host"
    if expected is None:
        expected, source = good[0]["cells"], "first repetition (none recorded)"
    attempted = workload.cells * len(reps)
    failed, notes = check([rep for _, rep in reps], expected, workload.cells)
    if args.record_reference and not failed:
        reference.record(key, host, args.workload, args.seed, good[0]["cells"])
        source = "first repetition, now recorded"
    print(f"reference: {source}; fingerprint {key}")
    for note in notes:
        print(f"MISMATCH {note}")
    print(f"{'failure_ratio':<16} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} cells failed)")

    untraced = [rep for traced, rep in reps if not traced and "error" not in rep]
    walls = [rep["wall_s"] for rep in untraced]
    if args.trace:
        metrics = layer_report(reps, walls)
        unit_of = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        def scaled(name):
            return [
                rep[name] * CAL_REFERENCE_S / rep["calibration_s"] for rep in untraced
            ]

        norm = scaled("wall_s")
        series = {
            "wall_s": walls,
            "wall_norm_s": norm,
            "setup_raw_s": [rep["setup_s"] for rep in untraced],
            "setup_s": scaled("setup_s"),
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
            "cells_per_hour": [3600.0 * workload.cells / w for w in walls],
            "cells_per_hour_norm": [3600.0 * workload.cells / w for w in norm],
            "calibration_s": [rep["calibration_s"] for rep in untraced],
        }
        unit_of = {**END_TO_END, **RAW}
        for name, values in series.items():
            print(f"{name:<20} {summarize(values)} {unit_of[name]}")
        metrics = {name: statistics.median(series[name]) for name in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def layer_report(reps: list, walls: list) -> dict:
    """Print the per-layer breakdown; return each metric's median."""
    traced = [rep for is_traced, rep in reps if is_traced and "error" not in rep]
    if not traced or not walls:
        raise SystemExit("perfbench: no complete traced/untraced pair")
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
    print(
        f"tracing overhead: traced {traced_wall:.4f} s - untraced "
        f"{statistics.median(walls):.4f} s = {metrics['trace.overhead_s']:.4f} s"
    )
    for name, (unit, _) in PER_LAYER.items():
        pooled = [value for rep in traced for value in rep["samples"].get(name, ())]
        detail = f"per call: {summarize(pooled)}" if pooled else ""
        print(f"{name:<30} {metrics[name]:<12.6g} {unit:<6} {detail}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
