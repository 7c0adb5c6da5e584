"""Typed, content-addressed experiment specification (``RunSpec``).

Every experiment this repository can run — a Table 3 cell, a codec
ladder point, a dropout sweep entry — is one :class:`RunSpec`: a nested,
serializable value object covering data, partition, model, algorithm,
training, communication, fault and execution settings plus the seed.
The spec is the single currency between layers:

- the CLI parses flags (or a ``--spec file.json``) into a ``RunSpec``;
- :func:`repro.experiments.runner.run_spec` executes one;
- sweeps and the Table 3 driver generate matrix cells with
  :meth:`RunSpec.with_overrides` instead of threading keyword arguments;
- :class:`repro.experiments.store.ResultStore` keys saved runs by
  :meth:`RunSpec.run_id` and embeds the full spec in every record.

Content addressing
------------------
``run_id()`` is a deterministic hash of the spec's *scientific* content:
canonical JSON (sorted keys, no whitespace) fed through SHA-256.  It is
stable across processes and ``PYTHONHASHSEED`` values, and it changes
when any result-affecting field changes.  The :class:`ExecSpec` section
(executor backend, worker count, checkpoint cadence) is deliberately
excluded: executors are bitwise-identical by contract, so two runs
differing only in how they were scheduled share one ``run_id`` — a
result computed serially satisfies a parallel sweep's cache lookup.

Validation happens against the unified component registries
(:mod:`repro.registry`), so a spec naming an unknown dataset, model,
algorithm or codec fails fast with the live list of alternatives.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any


def _freeze_kwargs(kwargs: dict | None) -> dict:
    """Copy a kwargs mapping, insisting on JSON-compatible content."""
    kwargs = dict(kwargs or {})
    try:
        json.dumps(kwargs, sort_keys=True)
    except (TypeError, ValueError):
        raise TypeError(
            f"spec kwargs must be JSON-serializable, got {kwargs!r}"
        ) from None
    return kwargs


@dataclass(frozen=True)
class DataSpec:
    """Which dataset, at what size."""

    name: str
    n_train: int | None = None
    n_test: int | None = None
    #: generator extras (``num_writers`` for femnist, ``num_features``
    #: for rcv1, ...) — must be JSON-serializable
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PartitionSpec:
    """How the dataset is split across parties."""

    #: the paper's strategy notation (``"iid"``, ``"#C=2"``, ``"dir(0.5)"``)
    strategy: str
    num_parties: int = 10


@dataclass(frozen=True)
class ModelSpec:
    """Which model the parties train."""

    #: a registered model name, or ``"default"`` for the paper's
    #: per-modality choice (CNN for images, MLP for tabular)
    name: str = "default"
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which federated optimization algorithm, with its knobs."""

    name: str
    #: algorithm-specific settings (``mu`` for fedprox, ``option`` for
    #: scaffold, ``server_momentum``/``variant`` for fedopt)
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrainSpec:
    """The training protocol of a run (paper Section 5 knobs)."""

    num_rounds: int
    local_epochs: int
    batch_size: int
    lr: float
    optimizer: str = "sgd"
    sample_fraction: float = 1.0
    sampler: str = "uniform"
    bn_policy: str = "average"
    eval_every: int = 1


@dataclass(frozen=True)
class CommSpec:
    """Update-compression settings (see :mod:`repro.comm`)."""

    codec: str = "identity"
    bits: int = 8
    k: float = 0.1


@dataclass(frozen=True)
class FaultSpec:
    """Fault-injection settings (see :mod:`repro.federated.faults`)."""

    dropout_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 1.0
    crash_prob: float = 0.0
    deadline: float | None = None


@dataclass(frozen=True)
class PopulationSpec:
    """Population scale and aggregation mode (the async-engine axes).

    With ``size=None`` and ``aggregation="sync"`` (the defaults) the run
    is the classic partition-based synchronous federation and this
    section contributes nothing.  Setting ``size`` switches the run to a
    lazy :class:`~repro.federated.population.VirtualPopulation` of that
    many parties (the ``partition`` section's strategy is then ignored —
    per-party data comes from the closed-form ``(seed, party)`` draws);
    ``aggregation="async"`` runs the virtual-clock buffered engine
    (:class:`~repro.federated.async_engine.AsyncFederation`) — with or
    without a virtual population.
    """

    #: total parties; None = materialize clients from the partition
    size: int | None = None
    #: cohort size (clients concurrently in flight) for the async
    #: engine; None derives it from ``train.sample_fraction``
    sample_per_round: int | None = None
    #: local dataset size per virtual party
    samples_per_client: int = 64
    #: Dirichlet label-skew beta for virtual parties (None = iid)
    skew_beta: float | None = None
    #: "sync" (barrier rounds) or "async" (FedBuff-style buffering)
    aggregation: str = "sync"
    #: async buffer M; None = the cohort (an exact barrier)
    buffer_size: int | None = None
    #: staleness discount exponent for mixed-version async flushes
    staleness_exponent: float = 0.0


@dataclass(frozen=True)
class ExecSpec:
    """How a run is executed — excluded from :meth:`RunSpec.run_id`.

    Executors are bitwise-identical by contract and checkpointing does
    not change results, so none of these fields affect the History a
    spec produces.
    """

    executor: str = "auto"
    num_workers: int = 0
    #: clients per stack for ``executor="stacked"``
    stack_size: int = 16
    #: max drift the stacked executor's serial-vs-stacked check accepts
    #: (0.0 = bitwise, the contract on hosts with slice-exact kernels)
    stacked_tolerance: float = 0.0
    checkpoint_every: int = 0
    checkpoint_path: str | None = None
    #: capture & replay training/inference steps (bitwise-identical to
    #: eager by contract, hence exec-section; see repro.grad.capture).
    #: The one declaration of the compile default: FederatedConfig, the
    #: runner facade and the CLI all read it from here
    compile: bool = True
    #: run the program optimizer on captured steps (arena planning,
    #: dead-op elimination, constant interning — bitwise-identical by
    #: construction; ``--no-optimize`` is the escape hatch)
    optimize: bool = True


#: RunSpec section name -> section dataclass (the order of to_dict output)
SECTIONS = {
    "data": DataSpec,
    "partition": PartitionSpec,
    "model": ModelSpec,
    "algorithm": AlgorithmSpec,
    "train": TrainSpec,
    "comm": CommSpec,
    "faults": FaultSpec,
    "population": PopulationSpec,
    "exec": ExecSpec,
}

#: flat override name -> (section, field) accepted by ``with_overrides``.
#: ``seed`` lives on the RunSpec itself; ``mu`` is an algorithm-kwargs
#: convenience alias registered separately below.
OVERRIDE_PATHS: dict[str, tuple[str | None, str]] = {
    "dataset": ("data", "name"),
    "n_train": ("data", "n_train"),
    "n_test": ("data", "n_test"),
    "dataset_kwargs": ("data", "kwargs"),
    "partition": ("partition", "strategy"),
    "num_parties": ("partition", "num_parties"),
    "model": ("model", "name"),
    "model_kwargs": ("model", "kwargs"),
    "algorithm": ("algorithm", "name"),
    "algorithm_kwargs": ("algorithm", "kwargs"),
    "num_rounds": ("train", "num_rounds"),
    "local_epochs": ("train", "local_epochs"),
    "batch_size": ("train", "batch_size"),
    "lr": ("train", "lr"),
    "optimizer": ("train", "optimizer"),
    "sample_fraction": ("train", "sample_fraction"),
    "sampler": ("train", "sampler"),
    "bn_policy": ("train", "bn_policy"),
    "eval_every": ("train", "eval_every"),
    "codec": ("comm", "codec"),
    "codec_bits": ("comm", "bits"),
    "codec_k": ("comm", "k"),
    "dropout_prob": ("faults", "dropout_prob"),
    "straggler_prob": ("faults", "straggler_prob"),
    "straggler_factor": ("faults", "straggler_factor"),
    "crash_prob": ("faults", "crash_prob"),
    "deadline": ("faults", "deadline"),
    "population": ("population", "size"),
    "sample_per_round": ("population", "sample_per_round"),
    "samples_per_client": ("population", "samples_per_client"),
    "population_skew_beta": ("population", "skew_beta"),
    "aggregation": ("population", "aggregation"),
    "buffer_size": ("population", "buffer_size"),
    "staleness_exponent": ("population", "staleness_exponent"),
    "executor": ("exec", "executor"),
    "num_workers": ("exec", "num_workers"),
    "stack_size": ("exec", "stack_size"),
    "stacked_tolerance": ("exec", "stacked_tolerance"),
    "checkpoint_every": ("exec", "checkpoint_every"),
    "checkpoint_path": ("exec", "checkpoint_path"),
    "compile": ("exec", "compile"),
    "optimize": ("exec", "optimize"),
    "seed": (None, "seed"),
}


def overridable_names() -> tuple[str, ...]:
    """Every flat name ``with_overrides`` accepts (plus dotted paths)."""
    return tuple(sorted([*OVERRIDE_PATHS, "mu"]))


def _section_to_dict(section) -> dict:
    out = {}
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def _section_from_dict(cls, data: dict):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields {sorted(unknown)}; "
            f"known: {sorted(names)}"
        )
    return cls(**data)


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified experiment (see module docstring)."""

    data: DataSpec
    partition: PartitionSpec
    algorithm: AlgorithmSpec
    train: TrainSpec
    model: ModelSpec = field(default_factory=ModelSpec)
    comm: CommSpec = field(default_factory=CommSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    exec: ExecSpec = field(default_factory=ExecSpec)
    seed: int = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: str,
        partition,
        algorithm: str,
        *,
        model: str = "default",
        num_parties: int | None = None,
        preset=None,
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
        stack_size: int = 16,
        stacked_tolerance: float = 0.0,
        codec: str = "identity",
        codec_bits: int = 8,
        codec_k: float = 0.1,
        dropout_prob: float = 0.0,
        straggler_prob: float = 0.0,
        straggler_factor: float = 1.0,
        crash_prob: float = 0.0,
        deadline: float | None = None,
        population: int | None = None,
        sample_per_round: int | None = None,
        samples_per_client: int = 64,
        population_skew_beta: float | None = None,
        aggregation: str = "sync",
        buffer_size: int | None = None,
        staleness_exponent: float = 0.0,
        checkpoint_every: int = 0,
        checkpoint_path: str | None = None,
        compile: bool = ExecSpec.compile,
        optimize: bool = True,
        seed: int = 0,
        algorithm_kwargs: dict | None = None,
        model_kwargs: dict | None = None,
        dataset_kwargs: dict | None = None,
        eval_every: int = 1,
    ) -> "RunSpec":
        """Resolve runner-style keyword arguments into a concrete spec.

        This is the single place preset defaults, the per-dataset paper
        learning rate, and the partitioner's default party count are
        applied — the spec that comes out holds only concrete values, so
        its :meth:`run_id` does not depend on how it was phrased.

        ``partition`` may be a strategy string or a
        :class:`~repro.partition.base.Partitioner` instance (recorded
        via its canonical ``spec_string()``).
        """
        from repro.experiments.runner import paper_lr_for
        from repro.experiments.scale import BENCH
        from repro.partition import parse_strategy
        from repro.partition.base import Partitioner

        if preset is None:
            preset = BENCH
        if isinstance(partition, Partitioner):
            partitioner, strategy = partition, partition.spec_string()
        else:
            strategy = str(partition)
            partitioner = parse_strategy(strategy)
        if num_parties is None:
            num_parties = partitioner.default_num_parties

        dataset_kwargs = dict(dataset_kwargs or {})
        n_train = dataset_kwargs.pop("n_train", preset.n_train)
        n_test = dataset_kwargs.pop("n_test", preset.n_test)
        if dataset.lower().replace("-", "") == "fcube":
            # FCUBE is defined at its paper size; keep it unless asked.
            n_train = n_test = None

        return cls(
            data=DataSpec(
                name=dataset,
                n_train=n_train,
                n_test=n_test,
                kwargs=_freeze_kwargs(dataset_kwargs),
            ),
            partition=PartitionSpec(strategy=strategy, num_parties=num_parties),
            model=ModelSpec(name=model, kwargs=_freeze_kwargs(model_kwargs)),
            algorithm=AlgorithmSpec(
                name=algorithm, kwargs=_freeze_kwargs(algorithm_kwargs)
            ),
            train=TrainSpec(
                num_rounds=num_rounds if num_rounds is not None else preset.num_rounds,
                local_epochs=(
                    local_epochs if local_epochs is not None else preset.local_epochs
                ),
                batch_size=batch_size if batch_size is not None else preset.batch_size,
                lr=lr if lr is not None else paper_lr_for(dataset),
                optimizer=optimizer,
                sample_fraction=sample_fraction,
                sampler=sampler,
                bn_policy=bn_policy,
                eval_every=eval_every,
            ),
            comm=CommSpec(codec=codec, bits=codec_bits, k=codec_k),
            faults=FaultSpec(
                dropout_prob=dropout_prob,
                straggler_prob=straggler_prob,
                straggler_factor=straggler_factor,
                crash_prob=crash_prob,
                deadline=deadline,
            ),
            population=PopulationSpec(
                size=population,
                sample_per_round=sample_per_round,
                samples_per_client=samples_per_client,
                skew_beta=population_skew_beta,
                aggregation=aggregation,
                buffer_size=buffer_size,
                staleness_exponent=staleness_exponent,
            ),
            exec=ExecSpec(
                executor=executor,
                num_workers=num_workers,
                stack_size=stack_size,
                stacked_tolerance=stacked_tolerance,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                compile=compile,
                optimize=optimize,
            ),
            seed=seed,
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain nested dict, the inverse of :meth:`from_dict`."""
        out: dict[str, Any] = {
            name: _section_to_dict(getattr(self, name)) for name in SECTIONS
        }
        out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a JSON file).

        Sections and fields may be omitted — defaults fill them — but
        unknown sections or fields are an error, so a typo in a spec
        file cannot silently no-op.
        """
        data = dict(data)
        seed = int(data.pop("seed", 0))
        unknown = set(data) - set(SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown RunSpec sections {sorted(unknown)}; "
                f"known: {sorted([*SECTIONS, 'seed'])}"
            )
        kwargs = {
            name: _section_from_dict(section_cls, data.get(name, {}))
            for name, section_cls in SECTIONS.items()
        }
        return cls(seed=seed, **kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # -- content addressing ---------------------------------------------

    def canonical_dict(self) -> dict:
        """The hash input: :meth:`to_dict` minus the ``exec`` section."""
        out = self.to_dict()
        del out["exec"]
        return out

    def run_id(self) -> str:
        """Deterministic 16-hex-digit content hash of the spec.

        Stable across processes and ``PYTHONHASHSEED``; identical specs
        (including specs differing only in ``exec``) share it, and any
        change to a scientific field changes it.
        """
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- derivation ------------------------------------------------------

    def with_overrides(self, **overrides) -> "RunSpec":
        """A copy with the given fields replaced (literal, no re-resolution).

        Accepts the flat names in :data:`OVERRIDE_PATHS` (``lr``,
        ``codec``, ``dropout_prob``, ...), dotted section paths
        (``"train.lr"``), and ``mu`` as a shorthand for the fedprox
        proximal weight in ``algorithm.kwargs``.  Unknown names raise
        ``KeyError`` listing every valid option — a typo'd sweep axis
        fails loudly instead of silently sweeping nothing.
        """
        per_section: dict[str, dict] = {}
        flat: dict[str, Any] = {}
        for name, value in overrides.items():
            if name == "mu":
                merged = dict(self.algorithm.kwargs)
                merged["mu"] = value
                per_section.setdefault("algorithm", {})["kwargs"] = merged
                continue
            if "." in name:
                section, attr = name.split(".", 1)
                if section not in SECTIONS or attr not in {
                    f.name for f in dataclasses.fields(SECTIONS[section])
                }:
                    raise KeyError(
                        f"cannot override {name!r}; overridable: "
                        f"{list(overridable_names())} or section.field paths"
                    )
            elif name in OVERRIDE_PATHS:
                section, attr = OVERRIDE_PATHS[name]
            else:
                raise KeyError(
                    f"cannot override {name!r}; overridable: "
                    f"{list(overridable_names())} or section.field paths"
                )
            if section is None:
                flat[attr] = value
            else:
                per_section.setdefault(section, {})[attr] = value
        replacements: dict[str, Any] = dict(flat)
        for section, attrs in per_section.items():
            replacements[section] = dataclasses.replace(
                getattr(self, section), **attrs
            )
        return dataclasses.replace(self, **replacements)

    def trial_specs(
        self, num_trials: int, base_seed: int = 0, seed_stride: int = 1000
    ) -> list["RunSpec"]:
        """The paper's repeated-trial protocol as concrete specs.

        Pure enumeration — nothing runs.  Trial ``t`` is this spec with
        ``seed = base_seed + seed_stride * t``, exactly the seeds
        :func:`repro.experiments.runner.run_trials` executes, so a
        scheduler can claim the cells, and the store can answer
        ``completed()`` per trial, without ever touching the runner.
        """
        if num_trials <= 0:
            raise ValueError(f"num_trials must be positive, got {num_trials}")
        return [
            self.with_overrides(seed=base_seed + seed_stride * trial)
            for trial in range(num_trials)
        ]

    # -- validation ------------------------------------------------------

    def validate(self) -> "RunSpec":
        """Check names against the component registries and basic ranges.

        Returns ``self`` so call sites can chain
        ``RunSpec.from_dict(...).validate()``.  Deeper numeric checks
        (codec bit ranges, fault probabilities, ...) happen in
        :class:`repro.federated.config.FederatedConfig` at run time.
        """
        from repro.comm.codecs import CODECS
        from repro.data.registry import DATASETS
        from repro.federated.algorithms import ALGORITHMS
        from repro.models.registry import MODELS
        from repro.partition import parse_strategy

        problems = []
        if self.data.name not in DATASETS:
            problems.append(
                f"unknown dataset {self.data.name!r}; "
                f"available: {list(DATASETS.names())}"
            )
        if self.model.name != "default" and self.model.name not in MODELS:
            problems.append(
                f"unknown model {self.model.name!r}; "
                f"available: {list(MODELS.names())}"
            )
        if self.algorithm.name not in ALGORITHMS:
            problems.append(
                f"unknown algorithm {self.algorithm.name!r}; "
                f"available: {list(ALGORITHMS.names())}"
            )
        if self.comm.codec not in CODECS:
            problems.append(
                f"unknown codec {self.comm.codec!r}; "
                f"available: {list(CODECS.names())}"
            )
        try:
            parse_strategy(self.partition.strategy)
        except ValueError as error:
            problems.append(str(error))
        if self.partition.num_parties <= 0:
            problems.append(
                f"num_parties must be positive, got {self.partition.num_parties}"
            )
        for attr in ("num_rounds", "local_epochs", "batch_size"):
            if getattr(self.train, attr) <= 0:
                problems.append(
                    f"train.{attr} must be positive, got {getattr(self.train, attr)}"
                )
        if self.train.lr <= 0:
            problems.append(f"train.lr must be positive, got {self.train.lr}")
        if not 0.0 < self.train.sample_fraction <= 1.0:
            problems.append(
                "train.sample_fraction must be in (0, 1], "
                f"got {self.train.sample_fraction}"
            )
        pop = self.population
        if pop.aggregation not in ("sync", "async"):
            problems.append(
                "population.aggregation must be 'sync' or 'async', "
                f"got {pop.aggregation!r}"
            )
        if pop.size is not None and pop.size <= 0:
            problems.append(
                f"population.size must be positive, got {pop.size}"
            )
        if pop.sample_per_round is not None:
            if pop.sample_per_round <= 0:
                problems.append(
                    "population.sample_per_round must be positive, "
                    f"got {pop.sample_per_round}"
                )
            elif pop.size is not None and pop.sample_per_round > pop.size:
                problems.append(
                    f"population.sample_per_round ({pop.sample_per_round}) "
                    f"exceeds population.size ({pop.size}): cannot sample "
                    "more clients per round than the population holds"
                )
        if pop.samples_per_client <= 0:
            problems.append(
                "population.samples_per_client must be positive, "
                f"got {pop.samples_per_client}"
            )
        if pop.skew_beta is not None and pop.skew_beta <= 0:
            problems.append(
                f"population.skew_beta must be positive, got {pop.skew_beta}"
            )
        if pop.buffer_size is not None:
            if pop.buffer_size <= 0:
                problems.append(
                    f"population.buffer_size must be positive, got {pop.buffer_size}"
                )
            elif (
                pop.sample_per_round is not None
                and pop.buffer_size > pop.sample_per_round
            ):
                problems.append(
                    f"population.buffer_size ({pop.buffer_size}) exceeds the "
                    f"cohort (sample_per_round={pop.sample_per_round})"
                )
        if pop.staleness_exponent < 0:
            problems.append(
                "population.staleness_exponent must be non-negative, "
                f"got {pop.staleness_exponent}"
            )
        if problems:
            raise ValueError("invalid RunSpec:\n  " + "\n  ".join(problems))
        return self

    def describe(self) -> str:
        """One-line human summary: the cell key plus its run id."""
        return (
            f"{self.data.name} / {self.partition.strategy} / "
            f"{self.algorithm.name} / seed {self.seed} "
            f"[{self.run_id()}]"
        )


__all__ = [
    "DataSpec",
    "PartitionSpec",
    "ModelSpec",
    "AlgorithmSpec",
    "TrainSpec",
    "CommSpec",
    "FaultSpec",
    "PopulationSpec",
    "ExecSpec",
    "RunSpec",
    "OVERRIDE_PATHS",
    "overridable_names",
]
