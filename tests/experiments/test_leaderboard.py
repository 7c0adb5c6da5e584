"""Tests for the leaderboard (per-setting algorithm ranking)."""

import pytest

from repro.experiments.leaderboard import Leaderboard
from repro.experiments.runner import TrialSummary


def summary(dataset, partition, algorithm, accs):
    return TrialSummary(dataset, partition, algorithm, accuracies=list(accs))


@pytest.fixture
def board():
    b = Leaderboard()
    b.add(summary("mnist", "#C=1", "fedavg", [0.30, 0.32]))
    b.add(summary("mnist", "#C=1", "fedprox", [0.40, 0.42]))
    b.add(summary("mnist", "#C=1", "scaffold", [0.10, 0.12]))
    b.add(summary("mnist", "iid", "fedavg", [0.99]))
    b.add(summary("mnist", "iid", "fedprox", [0.98]))
    return b


class TestLeaderboard:
    def test_settings_listed(self, board):
        assert board.settings == [("mnist", "#C=1"), ("mnist", "iid")]

    def test_algorithms_union(self, board):
        assert board.algorithms() == ["fedavg", "fedprox", "scaffold"]

    def test_ranking_order(self, board):
        ranking = board.ranking("mnist", "#C=1")
        assert [name for name, _ in ranking] == ["fedprox", "fedavg", "scaffold"]

    def test_best(self, board):
        assert board.best("mnist", "#C=1") == "fedprox"
        assert board.best("mnist", "iid") == "fedavg"

    def test_win_counts(self, board):
        assert board.win_counts() == {"fedprox": 1, "fedavg": 1}

    def test_ties_break_by_canonical_order_not_insertion(self):
        # Under --jobs entries land in completion order; a tied mean must
        # still rank fedavg > fedprox > scaffold > fednova, then unknowns.
        forward, backward = Leaderboard(), Leaderboard()
        names = ["fedavg", "fedprox", "scaffold", "fednova", "custom"]
        for name in names:
            forward.add(summary("adult", "iid", name, [0.7033]))
        for name in reversed(names):
            backward.add(summary("adult", "iid", name, [0.7033]))
        for board in (forward, backward):
            assert [n for n, _ in board.ranking("adult", "iid")] == names
            assert board.best("adult", "iid") == "fedavg"
            assert board.win_counts() == {"fedavg": 1}
        assert forward.render() == backward.render()

    def test_unknown_setting(self, board):
        with pytest.raises(KeyError):
            board.ranking("cifar10", "iid")

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            Leaderboard().add(summary("d", "p", "a", []))

    def test_replacement(self, board):
        board.add(summary("mnist", "iid", "fedavg", [0.10]))
        assert board.best("mnist", "iid") == "fedprox"

    def test_render_marks_winner(self, board):
        text = board.render()
        assert "*" in text
        assert "wins:" in text
        assert "fedprox" in text

    def test_render_empty(self):
        assert "(empty" in Leaderboard().render()

    def test_missing_cell_rendered_as_dash(self, board):
        # scaffold has no iid entry.
        lines = [l for l in board.render().splitlines() if "iid" in l]
        assert "-" in lines[0]

    def test_roundtrip_json(self, board, tmp_path):
        path = tmp_path / "board.json"
        board.save(path)
        loaded = Leaderboard.load(path)
        assert loaded.settings == board.settings
        assert loaded.best("mnist", "#C=1") == "fedprox"
        assert loaded.win_counts() == board.win_counts()
