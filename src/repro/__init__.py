"""NIID-Bench reproduction: federated learning on non-IID data silos.

Reproduction of Li, Diao, Chen & He, *"Federated Learning on Non-IID Data
Silos: An Experimental Study"* (ICDE 2022), built from scratch on NumPy:

- :mod:`repro.grad` — autodiff/NN substrate (the PyTorch stand-in);
- :mod:`repro.data` — datasets and synthetic stand-ins for the paper's nine;
- :mod:`repro.partition` — the six NIID-Bench partitioning strategies;
- :mod:`repro.models` — the paper's CNN/MLP plus VGG-9 and ResNets;
- :mod:`repro.federated` — FedAvg, FedProx, SCAFFOLD, FedNova (+ FedOpt);
- :mod:`repro.metrics` — accuracy and drift diagnostics;
- :mod:`repro.experiments` — configs, runner, and per-table/figure
  reproduction entry points.

Quickstart::

    from repro import run_federated_experiment

    outcome = run_federated_experiment(
        dataset="mnist", partition="#C=2", algorithm="fedavg",
        num_rounds=10,
    )
    print(outcome.final_accuracy)

Importing the package sets numpy's OpenBLAS to one thread (see
:mod:`repro._blas`), so results do not depend on the host's core count
and ``--jobs`` is the way to use more cores.
"""

from repro import _blas
from repro.experiments.runner import ExperimentOutcome, run_federated_experiment, run_spec
from repro.spec import RunSpec

# After the imports, so the OpenBLAS copies they mapped are all pinned.
_blas.pin_one_thread()

__version__ = "0.1.0"

__all__ = [
    "run_federated_experiment",
    "run_spec",
    "RunSpec",
    "ExperimentOutcome",
    "__version__",
]
