"""Shared machinery for the table/figure reproduction benchmarks.

Every bench:

1. runs its experiment suite at reduced scale (see
   ``repro.experiments.scale`` and the per-bench presets below);
2. prints the paper-style table/series directly to the terminal (bypassing
   pytest capture) so ``pytest benchmarks/ --benchmark-only | tee ...``
   records it;
3. writes the same text to ``benchmarks/results/<name>.txt``.

Timing is reported through pytest-benchmark (`benchmark.pedantic`, one
iteration — these are experiments, not micro-benchmarks).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.scale import ScalePreset
from repro.federated import FederatedConfig

#: the golden files; ``--results-dir`` writes a run's output elsewhere
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Tiny preset used by the heavier accuracy benches (Table 3, Figures 7-12).
TINY = ScalePreset(
    name="tiny", n_train=600, n_test=300, num_rounds=8, local_epochs=3, batch_size=32
)


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir", default=None,
        help="write bench output here instead of benchmarks/results/",
    )
    parser.addoption(
        "--no-compile", action="store_true",
        help="run every federated config with compile=False (eager steps)",
    )


def pytest_configure(config):
    global RESULTS_DIR
    if config.getoption("--results-dir"):
        RESULTS_DIR = pathlib.Path(config.getoption("--results-dir"))


@pytest.fixture(autouse=True, scope="session")
def _eager_steps(request):
    """``--no-compile``: force compile off on every config, however built."""
    if not request.config.getoption("--no-compile"):
        yield
        return
    post_init = FederatedConfig.__post_init__

    def eager(self):
        post_init(self)
        self.compile = False

    FederatedConfig.__post_init__ = eager
    try:
        yield
    finally:
        FederatedConfig.__post_init__ = post_init


def emit(name: str, text: str, capsys) -> None:
    """Print ``text`` to the real terminal and save it under the results dir."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    with capsys.disabled():
        print(f"\n===== {name} =====")
        print(text)


def format_curves(curves: dict[str, "object"], decimals: int = 3) -> str:
    """Render {label: accuracy-sequence} as aligned text series."""
    width = max(len(label) for label in curves) + 1
    lines = []
    for label, series in curves.items():
        values = " ".join(f"{float(v):.{decimals}f}" for v in series)
        lines.append(f"{label.ljust(width)}: {values}")
    return "\n".join(lines)


def run_once(benchmark, fn):
    """Time ``fn`` exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


@pytest.fixture
def tiny_preset() -> ScalePreset:
    return TINY
