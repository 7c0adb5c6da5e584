"""The output check: each cell's science against a recorded reference.

A cell's science is what its History says about the experiment —
per-round accuracy, loss, uplink/downlink bytes, participants, local
step counts, and the final accuracy — reduced to one digest per field.
``RoundRecord.fallback`` is left out: it names the executor's recovery
path, which depends on the host and the executor, not on the spec.

References are kept per host fingerprint (floating-point results may
differ across CPUs and BLAS builds; numbers from different hosts are
never compared), then per workload and seed, in ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: RoundRecord fields that make up a run's science
ROUND_FIELDS = (
    "test_accuracy",
    "train_loss",
    "bytes_up",
    "bytes_down",
    "participants",
    "client_steps",
)


def _canonical(value) -> str:
    # NaN (a round where every party failed) canonicalizes to "NaN", so
    # it compares equal to itself here.
    return json.dumps(value, sort_keys=True)


def cell_label(spec) -> str:
    """A cell's key in a reference: stable across ``run_id`` schemes."""
    return "/".join(
        str(part)
        for part in (spec.data.name, spec.partition.strategy,
                     spec.algorithm.name, spec.seed)
    )


def science(history: dict) -> dict:
    """Field -> digest for a ``History.to_dict()`` payload."""
    records = history["records"]
    out = {
        field: hashlib.sha256(
            _canonical([record[field] for record in records]).encode()
        ).hexdigest()[:16]
        for field in ROUND_FIELDS
    }
    evaluated = [
        record["test_accuracy"]
        for record in records
        if record["test_accuracy"] is not None
    ]
    out["final_accuracy"] = evaluated[-1] if evaluated else None
    out["rounds"] = len(records)
    return out


def compare(expected: dict, actual: dict) -> dict:
    """Cell label -> list of mismatching fields (empty dict: a match).

    A cell missing from ``actual`` did not land; a cell only in
    ``actual`` is not part of the workload.  Both count as mismatches.
    """
    bad = {}
    for label in sorted(set(expected) | set(actual)):
        if label not in actual:
            bad[label] = ["missing"]
        elif label not in expected:
            bad[label] = ["unexpected"]
        else:
            fields = sorted(
                name
                for name in set(expected[label]) | set(actual[label])
                if _canonical(expected[label].get(name))
                != _canonical(actual[label].get(name))
            )
            if fields:
                bad[label] = fields
    return bad


def load(fingerprint: str, workload: str, seed: int, path=REFERENCES):
    """The recorded reference for this host, workload and seed, or None."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return None
    host = data.get(fingerprint, {})
    return host.get("workloads", {}).get(workload, {}).get(str(seed))


def record(fingerprint: str, host: dict, workload: str, seed: int, cells: dict,
           path=REFERENCES) -> None:
    """Store ``cells`` as the reference for this host, workload and seed."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        data = {}
    entry = data.setdefault(fingerprint, {"host": host, "workloads": {}})
    entry["workloads"].setdefault(workload, {})[str(seed)] = cells
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
