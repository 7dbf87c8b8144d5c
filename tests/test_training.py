"""The shared mini-batch Adam loop, driven by a toy model with one weight."""

from dataclasses import dataclass

import numpy as np
import pytest

from qgfraud import optim
from qgfraud.rng import make_rng
from qgfraud.training import TrainConfig, TrainingError, bce_loss, fit, sigmoid


@dataclass(frozen=True)
class Toy:
    """p(fraud) = sigmoid(w) for every graph."""

    w: float

    def to_dict(self) -> dict:
        return {"w": np.asarray(self.w)}

    def replace_arrays(self, d: dict) -> "Toy":
        return Toy(float(d["w"]))


@dataclass(frozen=True)
class G:
    label: int


GRAPHS = [G(1), G(0), G(1), G(1), G(0)]


class Recorder:
    """Batch-gradient and predict functions that log what the loop asks of them."""

    def __init__(self, poison_batch=None):
        self.loss_sums: list[float] = []
        self.predicted: list[int] = []
        self.steps = 0
        self.poison_batch = poison_batch  # index over all batches of the run

    def batch_grad(self, params, batch):
        p = sigmoid(params.w)
        loss_sum = sum(bce_loss(p, g.label) for g in batch)
        if len(self.loss_sums) == self.poison_batch:
            loss_sum = float("nan")
        self.loss_sums.append(loss_sum)
        return loss_sum, {"w": np.asarray(np.mean([p - g.label for g in batch]))}

    def predict(self, params, graphs):
        self.predicted.append(len(graphs))
        return [sigmoid(params.w)] * len(graphs)

    def step(self, *args, **kwargs):
        self.steps += 1
        return optim.adam_step(*args, **kwargs)


def run(rec, epochs=3, batch_size=2, train=GRAPHS, val=GRAPHS[:2], w=0.3):
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.1, seed=4)
    return fit(Toy(w), train, val, cfg, make_rng(4), rec.batch_grad, rec.predict, rec.step)


def test_one_history_entry_per_epoch():
    _, history = run(Recorder(), epochs=3)
    assert [e.epoch for e in history.epochs] == [1, 2, 3]
    assert all(e.seconds >= 0 for e in history.epochs)


def test_train_loss_is_summed_batch_losses_over_graph_count():
    rec = Recorder()
    _, history = run(rec, epochs=2, batch_size=2)
    assert len(rec.loss_sums) == 6  # 3 batches of 5 graphs, twice
    for k, e in enumerate(history.epochs):
        assert e.train_loss == sum(rec.loss_sums[3 * k : 3 * k + 3]) / len(GRAPHS)


def test_val_loss_is_mean_bce_of_predictions():
    params, history = run(Recorder(), epochs=1, val=[G(1), G(0)])
    p = sigmoid(params.w)
    assert history.epochs[0].val_loss == pytest.approx((bce_loss(p, 1) + bce_loss(p, 0)) / 2, abs=0)


def test_val_loss_is_nan_without_validation_graphs():
    rec = Recorder()
    _, history = run(rec, epochs=2, val=[])
    assert all(np.isnan(e.val_loss) for e in history.epochs)
    assert rec.predicted == []


def test_zero_epochs_return_initial_params():
    rec = Recorder()
    params, history = run(rec, epochs=0, w=0.7)
    assert params == Toy(0.7)
    assert len(history) == 0
    assert rec.steps == 0


def test_step_called_once_per_batch():
    rec = Recorder()
    params, _ = run(rec, epochs=2, batch_size=2)
    assert rec.steps == 6
    assert params.w != 0.3


def test_non_finite_loss_names_the_epoch():
    with pytest.raises(TrainingError, match="epoch 2: non-finite batch loss"):
        run(Recorder(poison_batch=3), epochs=3)  # the first of epoch 2's 3 batches

