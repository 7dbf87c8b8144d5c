"""Shared training plumbing: run configuration, epoch history, batching."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def append(self, epoch: int, train_loss: float, val_loss: float, seconds: float) -> None:
        # plain floats only: numpy scalars would repr as np.float64(...) on disk
        self.epochs.append(EpochStats(int(epoch), float(train_loss), float(val_loss), float(seconds)))

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
