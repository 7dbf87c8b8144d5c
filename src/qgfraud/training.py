"""The training loop both models share, and its plumbing.

``fit`` is the seeded mini-batch Adam loop on binary cross-entropy that
``qgnn.train`` and ``sage.sage_train`` set up: each builds its rng and initial
parameters and hands the loop a batch-gradient function and a predict
function. The sigmoid, the clamped BCE, the run configuration and the epoch
history live here too.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .optim import AdamState

LOSS_CLAMP = 1e-7


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 5
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise TrainingError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate >= 0:
            raise TrainingError(f"learning_rate must be >= 0, got {self.learning_rate}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 < b < 1.0:
                raise TrainingError(f"{name} must lie in (0, 1), got {b}")
        if not self.eps > 0:
            raise TrainingError(f"eps must be > 0, got {self.eps}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float
    grad_norm_mean: float  # L2 norm of a batch's gradient over all parameter arrays
    grad_norm_max: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def append(
        self, epoch: int, train_loss: float, val_loss: float, seconds: float, grad_norms: list[float]
    ) -> None:
        # plain floats only: numpy scalars would repr as np.float64(...) on disk
        norms = np.asarray(grad_norms, dtype=float)
        stats = (train_loss, val_loss, seconds, norms.mean(), norms.max())
        self.epochs.append(EpochStats(int(epoch), *map(float, stats)))

    def __len__(self) -> int:
        return len(self.epochs)


def write_history(path, history: TrainHistory) -> None:
    """CSV of (epoch, train_loss, val_loss).

    Wall-clock stays out of this file on purpose: reruns with the same config
    and seed must produce byte-identical history files. Timings go in the run
    manifest instead.
    """
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for e in history.epochs:
            fh.write(f"{e.epoch},{e.train_loss!r},{e.val_loss!r}\n")


def check_finite(epoch: int, loss: float, grads: dict) -> None:
    """Stop training on a NaN or infinite batch loss or gradient entry."""
    if not np.isfinite(loss):
        raise TrainingError(f"epoch {epoch}: non-finite batch loss {float(loss)!r}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingError(f"epoch {epoch}: non-finite gradient in {name}")


def batch_slices(n: int, batch_size: int):
    """Yield (start, stop) index pairs covering range(n) in order."""
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


def sigmoid(x: float) -> float:
    # split to avoid overflow in exp for large |x|
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def bce_loss(p_hat: float, y: int) -> float:
    """Binary cross-entropy with probabilities clamped to [1e-7, 1 - 1e-7]."""
    p = min(max(float(p_hat), LOSS_CLAMP), 1.0 - LOSS_CLAMP)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def fit(params, train_graphs, val_graphs, config: TrainConfig, rng, batch_grad, predict, step):
    """Seeded mini-batch Adam on BCE; returns (params, per-epoch history).

    ``params`` has ``to_dict()`` and ``replace_arrays(dict)``.
    ``batch_grad(params, batch)`` returns the batch's summed loss and the
    gradient of its mean loss; ``predict(params, graphs)`` returns the
    probabilities the validation loss is taken on; ``step`` is
    ``optim.adam_step``. Each epoch draws its batch order from ``rng`` and
    records the mean and max of its batch-gradient norms.
    """
    if not train_graphs:
        raise TrainingError("training set is empty")
    state = AdamState.for_params(params.to_dict())
    history = TrainHistory()
    for epoch in range(1, config.epochs + 1):
        t0 = _time.perf_counter()
        order = rng.permutation(len(train_graphs))
        total = 0.0
        grad_norms = []
        for start, stop in batch_slices(len(order), config.batch_size):
            batch = [train_graphs[i] for i in order[start:stop]]
            loss_sum, grads = batch_grad(params, batch)
            check_finite(epoch, loss_sum, grads)
            grad_norms.append(np.sqrt(sum(np.sum(np.square(g)) for g in grads.values())))
            new_dict, state = step(
                params.to_dict(),
                grads,
                state,
                lr=config.learning_rate,
                beta1=config.beta1,
                beta2=config.beta2,
                eps=config.eps,
            )
            params = params.replace_arrays(new_dict)
            total += loss_sum
        val_loss = float("nan")
        if val_graphs:
            probs = predict(params, val_graphs)
            val_loss = float(np.mean([bce_loss(p, g.label) for p, g in zip(probs, val_graphs)]))
        history.append(epoch, total / len(train_graphs), val_loss, _time.perf_counter() - t0, grad_norms)
    return params, history
