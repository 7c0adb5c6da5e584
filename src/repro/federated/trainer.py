"""Local training: the "Party executes" block of Algorithms 1 and 2.

All four algorithms share the same loop — E epochs of mini-batch SGD —
and differ only in the gradient they step on:

- FedAvg / FedNova: plain ``∇L``;
- FedProx: ``∇L + mu (w - w^t)`` via the optimizer's proximal anchor;
- SCAFFOLD: ``∇L - c_i + c`` via the optimizer's additive correction.

``LocalTrainingResult`` reports the local step count ``tau_i`` — the
quantity FedNova's normalization needs — and the trained state dict.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.grad import functional as F
from repro.grad.capture import training_engine
from repro.grad.nn.module import Module
from repro.grad.optim import Adam, SGD
from repro.grad.tensor import Tensor
from repro.federated.client import Client
from repro.federated.config import FederatedConfig
from repro.federated.faults import InjectedCrash


@dataclass
class LocalTrainingResult:
    """Outcome of one party's local round."""

    state: dict[str, np.ndarray]
    num_steps: int  # tau_i: number of mini-batch updates performed
    num_samples: int  # |D^i|
    mean_loss: float


#: Interception point for alternative local-training backends.  The
#: algorithms bind ``run_local_training`` at import time, so a backend
#: (the stacked executor) cannot monkeypatch the name — it installs a
#: hook here instead.  The hook sees the exact call the algorithm makes
#: (model already loaded with this party's start state) and may return a
#: finished :class:`LocalTrainingResult` to short-circuit, raise to
#: abort, or return None to fall through to the normal loop.
_TRAINING_HOOK = None


@contextmanager
def local_training_hook(hook):
    """Install ``hook`` for the duration of the ``with`` block.

    ``hook(model, client, config, proximal_mu, anchor, correction,
    correction_mode)`` runs at the top of :func:`run_local_training`.
    Hooks do not nest: installing one while another is active raises.
    """
    global _TRAINING_HOOK
    if _TRAINING_HOOK is not None:
        raise RuntimeError("a local-training hook is already installed")
    _TRAINING_HOOK = hook
    try:
        yield
    finally:
        _TRAINING_HOOK = None


def run_local_training(
    model: Module,
    client: Client,
    config: FederatedConfig,
    proximal_mu: float = 0.0,
    anchor: list[np.ndarray] | None = None,
    correction: list[np.ndarray] | None = None,
    correction_mode: str = "step",
) -> LocalTrainingResult:
    """Train ``model`` (already loaded with the global weights) locally.

    The model is mutated in place; callers snapshot ``model.state_dict()``
    from the returned result.
    """
    if _TRAINING_HOOK is not None:
        result = _TRAINING_HOOK(
            model, client, config, proximal_mu, anchor, correction, correction_mode
        )
        if result is not None:
            return result
    # Single gate for every non-SGD local optimizer (adam AND amsgrad):
    # SCAFFOLD's drift correction is defined on the SGD update rule, so
    # reject it here once instead of scattering per-optimizer checks.
    if correction is not None and config.optimizer != "sgd":
        raise ValueError(
            "SCAFFOLD's drift correction is defined on the SGD update rule; "
            f"optimizer={config.optimizer!r} cannot apply it — use "
            "optimizer='sgd'"
        )
    if config.optimizer == "sgd":
        optimizer = SGD(
            model.parameters(),
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
            proximal_mu=proximal_mu,
        )
    else:
        optimizer = Adam(
            model.parameters(),
            lr=config.lr,
            weight_decay=config.weight_decay,
            amsgrad=config.optimizer == "amsgrad",
            proximal_mu=proximal_mu,
        )
    if proximal_mu > 0:
        if anchor is None:
            raise ValueError("proximal training needs the global-model anchor")
        optimizer.set_anchor(anchor)
    if correction is not None:
        optimizer.set_correction(correction, mode=correction_mode)

    dp = config.dp
    dp_rng = None
    if dp is not None:
        from repro.federated import privacy

        dp_rng = np.random.default_rng(dp.seed + 7919 * client.client_id)

    model.train()
    params = model.parameters()
    loader = client.loader(config.batch_size)
    # Step capture & replay (see repro.grad.capture): the engine captures
    # and replays batches of exactly ``batch_size`` rows bitwise-identically
    # and returns None for any other shape (a ragged last batch, a party
    # smaller than one batch), which then runs the eager path below.
    engine = (
        training_engine(model, config.batch_size, optimize=config.optimize)
        if config.compile
        else None
    )
    steps = 0
    total_loss = 0.0
    epochs = client.local_epochs if client.local_epochs is not None else config.local_epochs
    for _ in range(epochs):
        for features, labels in loader:
            optimizer.zero_grad()
            loss_value = engine.step(features, labels) if engine is not None else None
            if loss_value is None:
                logits = model(Tensor(features))
                loss = F.cross_entropy(logits, labels)
                loss.backward()
                loss_value = loss.item()
            if dp is not None:
                grads = [p.grad for p in params if p.grad is not None]
                privacy.clip_gradients(grads, dp.clip_norm)
                privacy.add_noise(
                    grads, dp.clip_norm, dp.noise_multiplier, len(labels), dp_rng
                )
            optimizer.step()
            steps += 1
            total_loss += loss_value
            # Fault injection: die mid-round with the model workspace and
            # the client generator already dirtied — exactly the partial
            # work the executor's transactional commit must discard.
            if client.crash_after_steps is not None and steps >= client.crash_after_steps:
                raise InjectedCrash(client.client_id, steps)

    return LocalTrainingResult(
        state=model.state_dict(),
        num_steps=steps,
        num_samples=client.num_samples,
        mean_loss=total_loss / max(steps, 1),
    )


def full_batch_gradient(
    model: Module, client: Client, config: FederatedConfig
) -> list[np.ndarray]:
    """Gradient of the local objective at the current model weights.

    Used by SCAFFOLD's option (i) control-variate update: ``c_i* = ∇L_i(w^t)``.
    Computed by accumulating over mini-batches so large parties do not need
    one giant forward pass.
    """
    model.train()
    params = model.parameters()
    # Accumulate in the parameter dtype (float32): gradients arrive in it
    # anyway, and a per-batch float64 round-trip doubled the memory traffic
    # of this pass for no accuracy the downstream consumers can observe.
    accum = [np.zeros(p.data.shape, dtype=p.data.dtype) for p in params]
    total = 0
    for features, labels in client.loader(config.eval_batch_size):
        model.zero_grad()
        loss = F.cross_entropy(model(Tensor(features)), labels, reduction="sum")
        loss.backward()
        for slot, param in zip(accum, params):
            if param.grad is not None:
                slot += param.grad
        total += len(labels)
    model.zero_grad()
    return [slot / max(total, 1) for slot in accum]
