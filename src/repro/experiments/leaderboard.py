"""Leaderboard: rank algorithms per non-IID setting.

The paper: "We also maintain a leaderboard along with our code to rank
state-of-the-art federated learning algorithms on different non-IID
settings."  This module is that leaderboard — accumulate
:class:`~repro.experiments.runner.TrialSummary` entries, rank per
(dataset, partition) setting, count wins per algorithm (the paper's
"number of times that performs best" rows), and persist to JSON.
"""

from __future__ import annotations

import json
import pathlib
from collections import defaultdict

from repro.experiments.runner import TrialSummary
from repro.federated.algorithms import ALGORITHM_NAMES


def _canonical_order(name: str) -> tuple[int, str]:
    """Registry order (the order Table 3 enumerates), unknown names last."""
    if name in ALGORITHM_NAMES:
        return ALGORITHM_NAMES.index(name), name
    return len(ALGORITHM_NAMES), name


class Leaderboard:
    """Accumulates trial summaries and ranks algorithms per setting."""

    def __init__(self):
        # (dataset, partition) -> {algorithm: TrialSummary}
        self._entries: dict[tuple[str, str], dict[str, TrialSummary]] = defaultdict(dict)

    def add(self, summary: TrialSummary) -> None:
        """Record (or replace) an algorithm's result for a setting."""
        if not summary.accuracies:
            raise ValueError("summary has no trial accuracies")
        key = (summary.dataset, summary.partition)
        self._entries[key][summary.algorithm] = summary

    @property
    def settings(self) -> list[tuple[str, str]]:
        return sorted(self._entries)

    def algorithms(self) -> list[str]:
        names = set()
        for entries in self._entries.values():
            names.update(entries)
        return sorted(names)

    def ranking(self, dataset: str, partition: str) -> list[tuple[str, float]]:
        """Algorithms for one setting, best mean accuracy first.

        Ties go to the canonical algorithm order, not to insertion
        order: under ``--jobs`` entries arrive in completion order, and
        :meth:`best`/:meth:`win_counts` must not depend on scheduling.
        """
        key = (dataset, partition)
        if key not in self._entries:
            raise KeyError(f"no entries for {key}")
        entries = self._entries[key]
        return sorted(
            ((name, summary.mean) for name, summary in entries.items()),
            key=lambda item: (-item[1], _canonical_order(item[0])),
        )

    def best(self, dataset: str, partition: str) -> str:
        return self.ranking(dataset, partition)[0][0]

    def win_counts(self) -> dict[str, int]:
        """The paper's "number of times that performs best" row."""
        counts: dict[str, int] = defaultdict(int)
        for dataset, partition in self.settings:
            counts[self.best(dataset, partition)] += 1
        return dict(counts)

    def render(self) -> str:
        """Text table: one row per setting, one column per algorithm."""
        algorithms = self.algorithms()
        if not algorithms:
            return "(empty leaderboard)"
        header = f"{'dataset':10s} {'partition':16s} | " + " | ".join(
            f"{a:>18s}" for a in algorithms
        )
        lines = [header, "-" * len(header)]
        for dataset, partition in self.settings:
            entries = self._entries[(dataset, partition)]
            best = self.best(dataset, partition)
            cells = []
            for algorithm in algorithms:
                summary = entries.get(algorithm)
                if summary is None:
                    cells.append(f"{'-':>18s}")
                else:
                    marker = "*" if algorithm == best else " "
                    cells.append(f"{summary.format_cell():>17s}{marker}")
            lines.append(f"{dataset:10s} {partition:16s} | " + " | ".join(cells))
        wins = self.win_counts()
        lines.append("")
        lines.append(
            "wins: " + ", ".join(f"{a}={wins.get(a, 0)}" for a in algorithms)
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "dataset": summary.dataset,
                    "partition": summary.partition,
                    "algorithm": summary.algorithm,
                    "accuracies": list(summary.accuracies),
                }
                for entries in self._entries.values()
                for summary in entries.values()
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Leaderboard":
        board = cls()
        for entry in data.get("entries", []):
            board.add(
                TrialSummary(
                    dataset=entry["dataset"],
                    partition=entry["partition"],
                    algorithm=entry["algorithm"],
                    accuracies=[float(a) for a in entry["accuracies"]],
                )
            )
        return board

    def save(self, path) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path) -> "Leaderboard":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))
