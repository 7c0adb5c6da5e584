"""`--compile` end-to-end: replayed federated runs are bitwise-eager.

The acceptance bar for the capture engine is not "close": for every
registered model under every algorithm, an entire federated run with
``compile=True`` must produce the same ``History`` and the same global
weights, bit for bit, as the eager run — including across a
checkpoint/resume boundary, whose payload must stay free of replay state.
"""

import pickle

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.data.registry import DatasetInfo
from repro.federated import (
    FedAvg,
    FedNova,
    FedProx,
    FederatedConfig,
    FederatedServer,
    Scaffold,
    make_clients,
)
from repro.experiments import run_spec
from repro.experiments.scale import SMOKE
from repro.federated import trainer
from repro.grad import nn
from repro.grad.capture import training_engine
from repro.models import MODEL_NAMES, build_model
from repro.partition import HomogeneousPartitioner, parse_strategy
from repro.spec import RunSpec

#: Small enough that even resnet50 steps in well under a second.
CASES = {
    "mlp": ((16,), "tabular"),
    "logistic": ((16,), "tabular"),
    "cnn": ((3, 16, 16), "image"),
    "vgg9": ((3, 16, 16), "image"),
    "resnet8": ((3, 16, 16), "image"),
    "resnet20": ((3, 16, 16), "image"),
    "resnet50": ((3, 16, 16), "image"),
}

#: Per-step cost tiers: heavy models get the minimal capture+replay run.
LIGHT = ("mlp", "logistic", "cnn")

ALGORITHMS = {
    "fedavg": FedAvg,
    "fedprox": lambda: FedProx(mu=0.01),
    "scaffold": Scaffold,
    "fednova": FedNova,
}


def tiny_dataset(name, n, seed=0, num_classes=4):
    shape, modality = CASES[name]
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, *shape)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return ArrayDataset(features, labels)


def make_server(name, algorithm, compile):
    if name in LIGHT:
        n, batch_size, rounds = 16, 4, 2
    else:
        n, batch_size, rounds = 4, 2, 1
    shape, modality = CASES[name]
    info = DatasetInfo(
        name="synthetic", modality=modality, num_classes=4,
        input_shape=shape, num_train=n, num_test=n,
    )
    train = tiny_dataset(name, n)
    partition = HomogeneousPartitioner().partition(
        train, 2, np.random.default_rng(0)
    )
    config = FederatedConfig(
        num_rounds=rounds, local_epochs=1, batch_size=batch_size,
        lr=0.05, momentum=0.9, seed=17, compile=compile,
    )
    clients = make_clients(partition, train, seed=config.seed)
    model = build_model(name, info, seed=61)
    server = FederatedServer(model, algorithm(), clients, config)
    return server, rounds


def run(name, algorithm, compile):
    server, rounds = make_server(name, algorithm, compile)
    with server:
        server.fit(rounds)
    history = [record.to_dict() for record in server.history.records]
    state = {k: np.array(v, copy=True) for k, v in server.global_state.items()}
    return history, state


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_history_and_state_bitwise(name, algorithm):
    eager_history, eager_state = run(name, ALGORITHMS[algorithm], False)
    compiled_history, compiled_state = run(name, ALGORITHMS[algorithm], True)
    assert eager_history == compiled_history
    assert eager_state.keys() == compiled_state.keys()
    for key in eager_state:
        np.testing.assert_array_equal(
            eager_state[key], compiled_state[key],
            err_msg=f"{name}/{algorithm}: {key}",
        )


class TestResume:
    """Checkpoint/resume under --compile stays bitwise with both the
    uninterrupted compiled run and the fully eager run."""

    @staticmethod
    def make(compile=True):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 3)).astype(np.float32)
        x = rng.standard_normal((96, 6)).astype(np.float32)
        train = ArrayDataset(x, (x @ w).argmax(axis=1).astype(np.int64))
        partition = HomogeneousPartitioner().partition(
            train, 3, np.random.default_rng(0)
        )
        config = FederatedConfig(
            num_rounds=4, local_epochs=1, batch_size=16, lr=0.05,
            momentum=0.9, seed=29, compile=compile,
        )
        clients = make_clients(partition, train, seed=config.seed)
        model_rng = np.random.default_rng(2)
        model = nn.Sequential(
            nn.Linear(6, 12, rng=model_rng), nn.ReLU(),
            nn.Linear(12, 3, rng=model_rng),
        )
        return FederatedServer(
            model, FedAvg(), clients, config, test_dataset=train
        )

    @staticmethod
    def collect(server):
        return (
            [record.to_dict() for record in server.history.records],
            {k: np.array(v, copy=True) for k, v in server.global_state.items()},
        )

    def test_resume_bitwise(self, tmp_path):
        path = str(tmp_path / "compiled.ckpt")
        with self.make() as straight:
            straight.fit(4)
        with self.make() as first:
            first.fit(2)
            first.save_checkpoint(path)
        with self.make() as second:
            second.resume(path)
            second.fit(2)
        with self.make(compile=False) as eager:
            eager.fit(4)
        straight_history, straight_state = self.collect(straight)
        resumed_history, resumed_state = self.collect(second)
        eager_history, eager_state = self.collect(eager)
        assert straight_history == resumed_history == eager_history
        for key in straight_state:
            np.testing.assert_array_equal(
                straight_state[key], resumed_state[key], err_msg=key
            )
            np.testing.assert_array_equal(
                straight_state[key], eager_state[key], err_msg=key
            )

    def test_checkpoint_free_of_replay_state(self, tmp_path):
        path = str(tmp_path / "compiled.ckpt")
        with self.make() as server:
            server.fit(2)
            server.save_checkpoint(path)
        blob = open(path, "rb").read()
        # The engine cache lives on the (unpickled) model object; none of
        # the capture machinery may leak into the checkpoint payload.
        for marker in (b"_capture_engines", b"CapturedStep", b"grad.capture"):
            assert marker not in blob, marker
        payload = pickle.loads(blob)
        for value in payload["global_state"].values():
            assert isinstance(value, np.ndarray)


class TestCaptureRule:
    """The training engine captures exactly ``batch_size`` rows."""

    BATCH = 8

    def test_small_first_party_does_not_claim_the_program(self):
        n, rounds = 96, 2
        info = DatasetInfo(
            name="synthetic", modality="tabular", num_classes=4,
            input_shape=(16,), num_train=n, num_test=n,
        )
        train = tiny_dataset("mlp", n)
        # Partition seed 6 gives party sizes [7, 32, 12, 10, 9, 26].
        partition = parse_strategy("dir(0.5)").partition(
            train, 6, np.random.default_rng(6)
        )
        config = FederatedConfig(
            num_rounds=rounds, local_epochs=1, batch_size=self.BATCH,
            lr=0.05, momentum=0.9, seed=17,
        )
        assert config.compile  # the default
        clients = make_clients(partition, train, seed=config.seed)
        model = build_model("mlp", info, seed=61)
        with FederatedServer(model, FedAvg(), clients, config) as server:
            server.fit(rounds)
        first = server.history.records[0].participants[0]
        assert clients[first].num_samples < self.BATCH

        engine = training_engine(model, self.BATCH)
        assert [key[0][0] for key in engine.programs] == [self.BATCH]
        sizes = [client.num_samples for client in clients]
        full = rounds * sum(size // self.BATCH for size in sizes)
        ragged = rounds * sum(size % self.BATCH > 0 for size in sizes)
        assert engine.captures == 1
        assert engine.replays == full - 1
        assert engine.fallbacks == ragged
        assert not engine.failures


def default_and_eager(dataset, partition, algorithm, model, monkeypatch):
    """History dicts of a default-exec spec and its ``compile=False`` twin.

    Also asserts that the default run really replayed captured steps.
    """
    engines = []

    def recording_engine(*args, **kwargs):
        engine = training_engine(*args, **kwargs)
        engines.append(engine)
        return engine

    monkeypatch.setattr(trainer, "training_engine", recording_engine)
    kwargs = dict(
        model=model, preset=SMOKE, num_rounds=2, local_epochs=1, seed=3,
        dataset_kwargs={"n_train": 200, "n_test": 100},
    )
    if algorithm == "fedprox":
        kwargs["algorithm_kwargs"] = {"mu": 0.01}
    default = RunSpec.build(dataset, partition, algorithm, **kwargs)
    eager = RunSpec.build(dataset, partition, algorithm, compile=False, **kwargs)
    assert default.exec.compile and not eager.exec.compile
    assert default.run_id() == eager.run_id()
    default_history = run_spec(default).history.to_dict()
    assert sum(engine.replays for engine in set(engines)) > 0
    engines.clear()
    eager_history = run_spec(eager).history.to_dict()
    assert not engines
    return default_history, eager_history


@pytest.mark.parametrize(
    "algorithm, model",
    [
        ("fedavg", "mlp"),
        ("fedprox", "mlp"),
        ("scaffold", "mlp"),
        ("fednova", "mlp"),
        ("fedavg", "cnn"),
    ],
)
def test_default_exec_history_bitwise_eager(algorithm, model, monkeypatch):
    dataset = "adult" if model == "mlp" else "mnist"
    default, eager = default_and_eager(
        dataset, "dir(0.5)", algorithm, model, monkeypatch
    )
    assert default == eager
