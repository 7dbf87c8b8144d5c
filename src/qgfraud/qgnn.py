"""Hybrid graph classifier: linear compression -> angle encoding -> VQC.

Per node, the 28-dim feature vector is compressed to q encoding angles by one
shared linear layer, pushed through the layered circuit, and read out as
per-qubit <Z>. Node readouts are average-pooled into a graph vector, and a
linear head plus sigmoid produces the fraud probability. Everything trains
end-to-end with Adam on binary cross-entropy; the quantum block is
differentiated by the adjoint method (about three circuit runs per batch,
see ``qsim.param_shift_grad_batch``), the classical layers by the chain rule.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from . import qsim
from .optim import AdamState, adam_step
from .rng import make_rng
from .training import TrainConfig, TrainHistory, TrainingError, batch_slices, check_finite

LOSS_CLAMP = 1e-7
ENCODE_ACTIVATIONS = ("none", "tanh_pi")


@dataclass(eq=False)
class QgnnParams:
    """All trainable arrays: compression, circuit angles, output head."""

    w_c: np.ndarray  # (q, 28)
    b_c: np.ndarray  # (q,)
    w_vqc: np.ndarray  # (2 * q * layers,)
    w_o: np.ndarray  # (q,)
    b_o: float

    def to_dict(self) -> dict:
        return {
            "w_c": self.w_c,
            "b_c": self.b_c,
            "w_vqc": self.w_vqc,
            "w_o": self.w_o,
            "b_o": np.asarray(self.b_o, dtype=float),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QgnnParams":
        return cls(
            w_c=np.asarray(d["w_c"], dtype=float),
            b_c=np.asarray(d["b_c"], dtype=float),
            w_vqc=np.asarray(d["w_vqc"], dtype=float),
            w_o=np.asarray(d["w_o"], dtype=float),
            b_o=float(np.asarray(d["b_o"])),
        )

    @property
    def n_parameters(self) -> int:
        return self.w_c.size + self.b_c.size + self.w_vqc.size + self.w_o.size + 1


def init_params(spec: qsim.CircuitSpec, rng: np.random.Generator, in_dim: int = 28) -> QgnnParams:
    """Linear layers ~ U(+-1/sqrt(fan_in)), circuit angles ~ U(0, 2pi), biases 0."""
    bound_c = 1.0 / np.sqrt(in_dim)
    bound_o = 1.0 / np.sqrt(spec.q)
    return QgnnParams(
        w_c=rng.uniform(-bound_c, bound_c, size=(spec.q, in_dim)),
        b_c=np.zeros(spec.q),
        w_vqc=rng.uniform(0.0, 2.0 * np.pi, size=spec.n_params),
        w_o=rng.uniform(-bound_o, bound_o, size=spec.q),
        b_o=0.0,
    )


def _sigmoid(x: float) -> float:
    # split to avoid overflow in exp for large |x|
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def _encode_inputs(nodes: np.ndarray, params: QgnnParams, activation: str):
    if activation not in ENCODE_ACTIVATIONS:
        raise TrainingError(f"unknown encode activation {activation!r}")
    a = nodes @ params.w_c.T + params.b_c
    enc = np.pi * np.tanh(a) if activation == "tanh_pi" else a
    return a, enc


def _check_graph(g) -> None:
    if g.n_nodes < 1:
        raise TrainingError("graph must have at least one node")


def forward(g, params: QgnnParams, spec: qsim.CircuitSpec, encode_activation: str = "none") -> float:
    """Fraud probability for one graph; deterministic."""
    _check_graph(g)
    _, enc = _encode_inputs(g.nodes, params, encode_activation)
    z = qsim.run_vqc_batch(enc, spec, params.w_vqc)
    pooled = z.mean(axis=0)
    return _sigmoid(float(pooled @ params.w_o) + params.b_o)


def predict(graphs, params: QgnnParams, spec: qsim.CircuitSpec, encode_activation: str = "none") -> np.ndarray:
    return np.array([forward(g, params, spec, encode_activation) for g in graphs])


def bce_loss(p_hat: float, y: int) -> float:
    """Binary cross-entropy with probabilities clamped to [1e-7, 1 - 1e-7]."""
    p = min(max(float(p_hat), LOSS_CLAMP), 1.0 - LOSS_CLAMP)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def backward_batch(graphs, params: QgnnParams, spec: qsim.CircuitSpec, ys, encode_activation: str = "none"):
    """Mean loss over the batch and its gradient w.r.t. every parameter.

    All nodes of the batch run through the circuit together, so the circuit
    gradient costs one forward and one reverse sweep per batch, not per node.
    """
    if not graphs:
        raise TrainingError("backward_batch needs at least one graph")
    for g in graphs:
        _check_graph(g)
    ys = np.asarray(ys, dtype=float)
    counts = np.array([g.n_nodes for g in graphs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    all_nodes = np.vstack([g.nodes for g in graphs])

    a, enc = _encode_inputs(all_nodes, params, encode_activation)
    z = qsim.run_vqc_batch(enc, spec, params.w_vqc)
    pooled = np.add.reduceat(z, offsets, axis=0) / counts[:, None]
    logits = pooled @ params.w_o + params.b_o
    ps = np.array([_sigmoid(float(x)) for x in logits])
    loss = float(np.mean([bce_loss(p, y) for p, y in zip(ps, ys)]))

    # d(mean loss)/dlogit = (p - y) / n_graphs
    dlogit = (ps - ys) / len(graphs)
    d_w_o = dlogit @ pooled
    d_b_o = float(np.sum(dlogit))
    dz = np.repeat(dlogit / counts, counts)[:, None] * params.w_o[None, :]

    d_w_vqc, denc = qsim.param_shift_grad_batch(enc, spec, params.w_vqc, dz)
    if encode_activation == "tanh_pi":
        da = denc * np.pi * (1.0 - np.tanh(a) ** 2)
    else:
        da = denc
    grads = {
        "w_c": da.T @ all_nodes,
        "b_c": da.sum(axis=0),
        "w_vqc": d_w_vqc,
        "w_o": d_w_o,
        "b_o": np.asarray(d_b_o, dtype=float),
    }
    return loss, grads


def backward(g, params: QgnnParams, spec: qsim.CircuitSpec, y: int, encode_activation: str = "none"):
    """Loss and exact gradient for a single labelled graph."""
    return backward_batch([g], params, spec, [y], encode_activation)


def _mean_loss(graphs, params, spec, encode_activation):
    if not graphs:
        return float("nan")
    return float(
        np.mean([bce_loss(forward(g, params, spec, encode_activation), g.label) for g in graphs])
    )


def train(
    train_graphs,
    val_graphs,
    spec: qsim.CircuitSpec,
    config: TrainConfig,
    encode_activation: str = "none",
):
    """Seeded mini-batch Adam loop; returns (params, per-epoch history)."""
    if not train_graphs:
        raise TrainingError("training set is empty")
    rng = make_rng(config.seed)
    params = init_params(spec, rng)
    state = AdamState.for_params(params.to_dict())
    history = TrainHistory()
    for epoch in range(1, config.epochs + 1):
        t0 = _time.perf_counter()
        order = rng.permutation(len(train_graphs))
        total = 0.0
        for start, stop in batch_slices(len(order), config.batch_size):
            batch = [train_graphs[i] for i in order[start:stop]]
            loss, grads = backward_batch(
                batch, params, spec, [g.label for g in batch], encode_activation
            )
            check_finite(epoch, loss, grads)
            new_dict, state = adam_step(
                params.to_dict(),
                grads,
                state,
                lr=config.learning_rate,
                beta1=config.beta1,
                beta2=config.beta2,
                eps=config.eps,
            )
            params = QgnnParams.from_dict(new_dict)
            total += loss * len(batch)
        train_loss = total / len(train_graphs)
        val_loss = _mean_loss(val_graphs, params, spec, encode_activation)
        history.append(epoch, train_loss, val_loss, _time.perf_counter() - t0)
    return params, history
