"""The in-tree bench report's provenance and its baseline gate."""

from __future__ import annotations

import json
from pathlib import Path

from repro import _blas
from repro.experiments.bench import check_baseline, provenance

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_core.json"


def test_provenance_names_code_host_and_blas():
    facts = provenance()
    for name in ("git_sha", "cpu_count", "cpu_model", "numpy", "blas"):
        assert name in facts
    assert facts["blas_threads"] == _blas.num_threads()
    json.dumps(facts)  # the report is written as JSON


def test_baseline_without_provenance_still_checks():
    """Baselines written before the block existed still gate a report."""
    baseline = json.loads(BASELINE.read_text())
    baseline.pop("provenance", None)
    report = {
        "provenance": provenance(),
        "compiled_step": baseline["compiled_step"],
        "stacked_replay": baseline["stacked_replay"],
    }
    assert check_baseline(report, baseline) == []
