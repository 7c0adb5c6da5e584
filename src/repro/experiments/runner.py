"""One-call experiment runner implementing the paper's protocol.

:func:`run_spec` executes one fully-resolved :class:`~repro.spec.RunSpec`
— a single (dataset, partition, algorithm, ...) cell of the experimental
matrix.  :func:`run_federated_experiment` is the stable keyword facade
over it (flags in, spec out, run); ``run_trials`` repeats a cell over
seeds and reports mean +- std, the paper's three-trial protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import build_cache, load_dataset
from repro.data.dataset import DatasetInfo
from repro.federated import (
    AsyncFederation,
    FederatedConfig,
    FederatedServer,
    History,
    MaterializedPopulation,
    VirtualPopulation,
    make_algorithm,
    make_clients,
)
from repro.models import build_model
from repro.partition import Partition, parse_strategy
from repro.partition.base import Partitioner
from repro.spec import ExecSpec, RunSpec
from repro.experiments.scale import BENCH, ScalePreset

#: the paper tunes lr from {0.1, 0.01, 0.001}; rcv1 uses 0.1, the rest 0.01
PAPER_LEARNING_RATES = {"rcv1": 0.1}
DEFAULT_LR = 0.01


@dataclass
class ExperimentOutcome:
    """Everything produced by one experiment cell."""

    dataset: str
    partition: str
    algorithm: str
    model: str
    seed: int
    history: History
    #: None on virtual-population runs (parties are derived lazily from
    #: ``(seed, party)`` — there is no materialized partition)
    partition_result: Partition | None
    info: DatasetInfo
    config: FederatedConfig
    #: the resolved spec this outcome was produced from (content address
    #: via ``spec.run_id()``); None only on outcomes built by hand.
    spec: RunSpec | None = None

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy

    @property
    def best_accuracy(self) -> float:
        return self.history.best_accuracy


@dataclass
class TrialSummary:
    """Mean +- std over repeated trials (the paper's reporting format)."""

    dataset: str
    partition: str
    algorithm: str
    accuracies: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))

    def format_cell(self) -> str:
        """Render like the paper's Table 3 cells: ``68.2% +- 0.7%``."""
        return f"{100 * self.mean:.1f}% +- {100 * self.std:.1f}%"


def paper_lr_for(dataset: str) -> float:
    """The paper's tuned learning rate for a dataset."""
    return PAPER_LEARNING_RATES.get(dataset.lower().replace("-", ""), DEFAULT_LR)


def run_spec(spec: RunSpec, resume: str | None = None) -> ExperimentOutcome:
    """Run the experiment a :class:`~repro.spec.RunSpec` describes.

    Parameters
    ----------
    spec:
        A fully-resolved spec (see :meth:`RunSpec.build` /
        :meth:`RunSpec.from_dict`).  Validated against the component
        registries before any compute happens.
    resume:
        Path of a checkpoint to load before training; the run continues
        from the checkpointed round and only executes the remaining
        ones.  Execution state, not science — deliberately not a spec
        field.

    ``spec.seed`` controls dataset generation, partition draw, model
    init, sampling and local shuffling — two runs of equal specs are
    identical, and so are two specs differing only in ``spec.exec``.
    """
    spec.validate()
    if spec.population.size is not None or spec.population.aggregation == "async":
        return _run_population_spec(spec, resume)
    partitioner = parse_strategy(spec.partition.strategy)

    dataset_kwargs = dict(spec.data.kwargs)
    if spec.data.n_train is not None:
        dataset_kwargs["n_train"] = spec.data.n_train
    if spec.data.n_test is not None:
        dataset_kwargs["n_test"] = spec.data.n_test
    train, test, info = load_dataset(
        spec.data.name, seed=spec.seed, cache=True, **dataset_kwargs
    )

    # The partition draw is a pure function of (dataset, strategy, seed),
    # so it shares the build cache; a cache hit skips the rng draw but is
    # bitwise-identical to it by determinism.
    partition_result = build_cache.cached_partition(
        build_cache.partition_key(
            build_cache.dataset_key(spec.data.name, spec.seed, dataset_kwargs),
            spec.partition.strategy,
            spec.partition.num_parties,
            spec.seed + 17,
        ),
        lambda: partitioner.partition(
            train, spec.partition.num_parties, np.random.default_rng(spec.seed + 17)
        ),
    )
    clients = make_clients(partition_result, train, seed=spec.seed + 29, drop_empty=True)

    config = _config_from_spec(spec)
    net = build_model(spec.model.name, info, seed=spec.seed + 53, **spec.model.kwargs)
    algo = make_algorithm(spec.algorithm.name, **spec.algorithm.kwargs)
    with FederatedServer(net, algo, clients, config, test_dataset=test) as server:
        if resume is not None:
            server.resume(resume)
            remaining = max(0, config.num_rounds - len(server.history))
            history = server.fit(remaining)
        else:
            history = server.fit()

    return ExperimentOutcome(
        dataset=info.name,
        partition=partition_result.strategy,
        algorithm=spec.algorithm.name,
        model=spec.model.name,
        seed=spec.seed,
        history=history,
        partition_result=partition_result,
        info=info,
        config=config,
        spec=spec,
    )


def _config_from_spec(spec: RunSpec) -> FederatedConfig:
    """Resolve a spec's train/comm/faults/exec/population sections into a config."""
    return FederatedConfig(
        num_rounds=spec.train.num_rounds,
        local_epochs=spec.train.local_epochs,
        batch_size=spec.train.batch_size,
        lr=spec.train.lr,
        sample_fraction=spec.train.sample_fraction,
        sampler=spec.train.sampler,
        optimizer=spec.train.optimizer,
        bn_policy=spec.train.bn_policy,
        executor=spec.exec.executor,
        num_workers=spec.exec.num_workers,
        stack_size=spec.exec.stack_size,
        stacked_tolerance=spec.exec.stacked_tolerance,
        codec=spec.comm.codec,
        codec_bits=spec.comm.bits,
        codec_k=spec.comm.k,
        dropout_prob=spec.faults.dropout_prob,
        straggler_prob=spec.faults.straggler_prob,
        straggler_factor=spec.faults.straggler_factor,
        crash_prob=spec.faults.crash_prob,
        deadline=spec.faults.deadline,
        checkpoint_every=spec.exec.checkpoint_every,
        checkpoint_path=spec.exec.checkpoint_path,
        compile=spec.exec.compile,
        optimize=spec.exec.optimize,
        eval_every=spec.train.eval_every,
        aggregation=spec.population.aggregation,
        sample_per_round=spec.population.sample_per_round,
        buffer_size=spec.population.buffer_size,
        staleness_exponent=spec.population.staleness_exponent,
        seed=spec.seed + 41,
    )


def _run_population_spec(spec: RunSpec, resume: str | None) -> ExperimentOutcome:
    """Run a population/async spec through :class:`AsyncFederation`.

    Seed derivations mirror the sync path exactly (dataset ``seed``,
    clients ``seed + 29``, config ``seed + 41``, model ``seed + 53``) so
    an async-barrier run over materialized clients reproduces the sync
    server bit for bit.
    """
    if resume is not None:
        raise ValueError(
            "resume is not supported for async/population runs: the event "
            "loop replays deterministically from the spec seed instead"
        )
    dataset_kwargs = dict(spec.data.kwargs)
    if spec.data.n_train is not None:
        dataset_kwargs["n_train"] = spec.data.n_train
    if spec.data.n_test is not None:
        dataset_kwargs["n_test"] = spec.data.n_test
    train, test, info = load_dataset(
        spec.data.name, seed=spec.seed, cache=True, **dataset_kwargs
    )

    partition_result: Partition | None = None
    if spec.population.size is not None:
        population = VirtualPopulation(
            train,
            spec.population.size,
            samples_per_client=spec.population.samples_per_client,
            seed=spec.seed + 29,
            skew_beta=spec.population.skew_beta,
        )
        partition_label = (
            "virtual-iid"
            if spec.population.skew_beta is None
            else f"virtual-dir({spec.population.skew_beta})"
        )
    else:
        partitioner = parse_strategy(spec.partition.strategy)
        partition_result = build_cache.cached_partition(
            build_cache.partition_key(
                build_cache.dataset_key(spec.data.name, spec.seed, dataset_kwargs),
                spec.partition.strategy,
                spec.partition.num_parties,
                spec.seed + 17,
            ),
            lambda: partitioner.partition(
                train,
                spec.partition.num_parties,
                np.random.default_rng(spec.seed + 17),
            ),
        )
        clients = make_clients(
            partition_result, train, seed=spec.seed + 29, drop_empty=True
        )
        population = MaterializedPopulation(clients)
        partition_label = partition_result.strategy

    config = _config_from_spec(spec)
    net = build_model(spec.model.name, info, seed=spec.seed + 53, **spec.model.kwargs)
    algo = make_algorithm(spec.algorithm.name, **spec.algorithm.kwargs)
    with AsyncFederation(net, algo, population, config, test_dataset=test) as engine:
        history = engine.fit()

    return ExperimentOutcome(
        dataset=info.name,
        partition=partition_label,
        algorithm=spec.algorithm.name,
        model=spec.model.name,
        seed=spec.seed,
        history=history,
        partition_result=partition_result,
        info=info,
        config=config,
        spec=spec,
    )


def run_federated_experiment(
    dataset: str,
    partition: str | Partitioner,
    algorithm: str,
    *,
    model: str = "default",
    num_parties: int | None = None,
    preset: ScalePreset = BENCH,
    num_rounds: int | None = None,
    local_epochs: int | None = None,
    batch_size: int | None = None,
    lr: float | None = None,
    sample_fraction: float = 1.0,
    sampler: str = "uniform",
    optimizer: str = "sgd",
    bn_policy: str = "average",
    executor: str = "auto",
    num_workers: int = 0,
    codec: str = "identity",
    codec_bits: int = 8,
    codec_k: float = 0.1,
    dropout_prob: float = 0.0,
    straggler_prob: float = 0.0,
    straggler_factor: float = 1.0,
    crash_prob: float = 0.0,
    deadline: float | None = None,
    checkpoint_every: int = 0,
    checkpoint_path: str | None = None,
    compile: bool = ExecSpec.compile,
    resume: str | None = None,
    seed: int = 0,
    algorithm_kwargs: dict | None = None,
    dataset_kwargs: dict | None = None,
    eval_every: int = 1,
) -> ExperimentOutcome:
    """Run one federated experiment cell (keyword facade over :func:`run_spec`).

    This signature is frozen: only ``dataset``, ``partition`` and
    ``algorithm`` are positional, and ``tools/lint.py`` rejects growth —
    new axes are added as :class:`~repro.spec.RunSpec` fields, not here.
    The call builds a spec with :meth:`RunSpec.build` and executes it, so
    ``run_federated_experiment(**kw)`` and
    ``run_spec(RunSpec.build(**kw))`` produce bitwise-identical
    histories.

    Parameters
    ----------
    dataset:
        Paper dataset name (``mnist``, ``cifar10``, ``adult``, ...).
    partition:
        Strategy spec (``"#C=2"``, ``"dir(0.5)"``, ``"iid"``, ...) or a
        :class:`Partitioner` instance.
    algorithm:
        ``fedavg`` / ``fedprox`` / ``scaffold`` / ``fednova`` / ``fedopt``.
    model:
        Model name, or ``"default"`` for the paper's per-modality choice.
    num_parties:
        Defaults to the paper's 10 (4 for FCUBE).
    preset:
        Scale preset for sizes/rounds; individual overrides win.
    executor / num_workers:
        Client-execution backend (see :mod:`repro.federated.executor`).
        ``num_workers >= 2`` trains sampled parties in parallel worker
        processes; results are bitwise identical to serial execution.
    codec / codec_bits / codec_k:
        Update-compression codec for both transport directions (see
        :mod:`repro.comm`); the default ``identity`` is the paper's
        uncompressed float32 wire.
    dropout_prob / straggler_prob / straggler_factor / crash_prob / deadline:
        Fault model knobs (see :mod:`repro.federated.faults`); all zero /
        ``None`` by default, i.e. the fault-free synchronous protocol.
    checkpoint_every / checkpoint_path:
        Write a full run checkpoint to ``checkpoint_path`` every k rounds.
    compile:
        Capture & replay training/inference steps through preallocated
        buffers (see :mod:`repro.grad.capture`); bitwise-identical to
        eager execution, purely a speed knob.  On by default;
        ``compile=False`` runs every step eagerly.
    resume:
        Path of a checkpoint to load before training; the run continues
        from the checkpointed round and only executes the remaining ones.
    seed:
        Controls dataset generation, partition draw, model init, sampling
        and local shuffling — two runs with equal arguments are identical.
    """
    spec = RunSpec.build(
        dataset,
        partition,
        algorithm,
        model=model,
        num_parties=num_parties,
        preset=preset,
        num_rounds=num_rounds,
        local_epochs=local_epochs,
        batch_size=batch_size,
        lr=lr,
        sample_fraction=sample_fraction,
        sampler=sampler,
        optimizer=optimizer,
        bn_policy=bn_policy,
        executor=executor,
        num_workers=num_workers,
        codec=codec,
        codec_bits=codec_bits,
        codec_k=codec_k,
        dropout_prob=dropout_prob,
        straggler_prob=straggler_prob,
        straggler_factor=straggler_factor,
        crash_prob=crash_prob,
        deadline=deadline,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        compile=compile,
        seed=seed,
        algorithm_kwargs=algorithm_kwargs,
        dataset_kwargs=dataset_kwargs,
        eval_every=eval_every,
    )
    return run_spec(spec, resume=resume)


def run_trials(
    dataset: str | None = None,
    partition: str | Partitioner | None = None,
    algorithm: str | None = None,
    num_trials: int = 3,
    base_seed: int = 0,
    store=None,
    spec: RunSpec | None = None,
    jobs: int = 1,
    **kwargs,
) -> TrialSummary:
    """The paper's protocol: repeat a cell over seeds, report mean +- std.

    Builds the base :class:`~repro.spec.RunSpec` once (or takes a
    prebuilt one via ``spec``) and enumerates the trials with
    :meth:`~repro.spec.RunSpec.trial_specs`.  With a ``store``
    (:class:`~repro.experiments.store.ResultStore`), trials whose spec is
    already :meth:`~repro.experiments.store.ResultStore.completed` are
    read back instead of re-run, and fresh trials are saved — re-invoking
    a finished protocol runs zero new cells.  ``jobs > 1`` runs the
    trials concurrently through the crash-safe scheduler
    (:func:`~repro.experiments.scheduler.run_cells`); records are
    byte-identical to a serial run.
    """
    if spec is not None:
        if dataset is not None or partition is not None or algorithm is not None:
            raise TypeError("pass either spec or dataset/partition/algorithm")
        if kwargs:
            raise TypeError(
                f"spec given; unexpected keyword arguments {sorted(kwargs)} "
                "(derive variants with spec.with_overrides instead)"
            )
        base = spec
        dataset, partition, algorithm = (
            spec.data.name, spec.partition.strategy, spec.algorithm.name
        )
    elif dataset is None or partition is None or algorithm is None:
        raise TypeError("run_trials needs dataset, partition and algorithm (or spec)")
    else:
        base = RunSpec.build(dataset, partition, algorithm, **kwargs)
    trial_specs = base.trial_specs(num_trials, base_seed=base_seed)
    summary = TrialSummary(
        dataset=dataset,
        partition=str(partition),
        algorithm=algorithm,
    )
    if jobs > 1:
        import tempfile

        from repro.experiments.scheduler import run_cells
        from repro.experiments.store import ResultStore

        with tempfile.TemporaryDirectory(prefix="repro-trials-") as scratch:
            target = store if store is not None else ResultStore(scratch)
            run_cells(trial_specs, store=target, jobs=jobs).raise_on_failure()
            for trial_spec in trial_specs:
                summary.accuracies.append(
                    float(target.get(trial_spec)["final_accuracy"])
                )
        return summary
    for trial_spec in trial_specs:
        if store is not None and store.completed(trial_spec):
            summary.accuracies.append(
                float(store.get(trial_spec)["final_accuracy"])
            )
            continue
        outcome = run_spec(trial_spec)
        if store is not None:
            store.save(outcome)
        summary.accuracies.append(outcome.final_accuracy)
    return summary
