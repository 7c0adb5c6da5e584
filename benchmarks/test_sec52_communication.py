"""Section 5.2 supplement: communication-efficiency accounting.

The paper's Section 5.2 discusses convergence per communication round and
notes SCAFFOLD "doubles the communication size per round".  This bench
makes the cost explicit: it reports, per algorithm, the bytes shipped per
round and the accuracy reached per megabyte communicated.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import run_federated_experiment
from repro.experiments.scale import ScalePreset

from conftest import emit, run_once

PRESET = ScalePreset(
    name="sec52", n_train=600, n_test=300, num_rounds=8, local_epochs=3, batch_size=32
)
ALGORITHMS = ("fedavg", "fedprox", "scaffold", "fednova")


def run_accounting():
    rows = {}
    for algorithm in ALGORITHMS:
        outcome = run_federated_experiment(
            "mnist",
            "dir(0.5)",
            algorithm,
            preset=PRESET,
            seed=13,
            algorithm_kwargs={"mu": 0.01} if algorithm == "fedprox" else None,
        )
        history = outcome.history
        first = history.records[0]
        rows[algorithm] = {
            "per_round_bytes": first.bytes_communicated,
            "uploaders": len(first.participants),
            "per_round_mb": first.bytes_communicated / 1e6,
            "total_mb": history.cumulative_communication()[-1] / 1e6,
            "final_acc": history.final_accuracy,
        }
    return rows


def test_sec52_communication(benchmark, capsys):
    rows = run_once(benchmark, run_accounting)
    lines = [f"{'algorithm':9s} | {'MB/round':>8s} | {'total MB':>8s} | {'final acc':>9s} | {'acc/MB':>7s}"]
    lines.append("-" * len(lines[0]))
    for algorithm, row in rows.items():
        lines.append(
            f"{algorithm:9s} | {row['per_round_mb']:8.2f} | {row['total_mb']:8.2f} | "
            f"{row['final_acc']:9.3f} | {row['final_acc'] / row['total_mb']:7.3f}"
        )
    emit("sec52_communication", "\n".join(lines), capsys)

    # FedProx costs exactly what FedAvg costs; FedNova adds exactly one
    # float32 per uploading party (its local step count tau_i).
    fedavg_bytes = rows["fedavg"]["per_round_bytes"]
    assert rows["fedprox"]["per_round_bytes"] == fedavg_bytes
    assert rows["fednova"]["per_round_bytes"] == (
        fedavg_bytes + 4 * rows["fednova"]["uploaders"]
    )
    # SCAFFOLD roughly doubles the traffic (exactly double for models
    # without buffers; slightly less than 2x when buffers exist).
    ratio = rows["scaffold"]["per_round_mb"] / rows["fedavg"]["per_round_mb"]
    assert 1.9 < ratio <= 2.0
