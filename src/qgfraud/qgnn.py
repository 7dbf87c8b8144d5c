"""Hybrid graph classifier: linear compression -> angle encoding -> VQC.

Per node, the 28-dim feature vector is compressed to q encoding angles by one
shared linear layer, pushed through the layered circuit, and read out as
per-qubit <Z>. Node readouts are average-pooled into a graph vector, and a
linear head plus sigmoid produces the fraud probability. Everything trains
end-to-end with Adam on binary cross-entropy, in the loop ``training.fit``
shares with the GraphSAGE baseline; the classical layers are
differentiated by the chain rule, the quantum block by
``qsim.param_shift_grad_batch``. For one circuit layer that readout and its
gradient are exact closed forms in O(q^2) per node, with no statevector.
Deeper circuits are read exactly from a matrix product state where the
entanglement is short-range and q is large (a 16-qubit chain or ring), and
otherwise from the statevector simulator with the adjoint method (about
three circuit runs per batch); ``qsim.circuit_path`` names the path a spec
takes, and train manifests record it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qsim
from .optim import adam_step
from .rng import make_rng
from .training import TrainConfig, TrainingError, bce_loss, fit, sigmoid

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

    def replace_arrays(self, d: dict) -> "QgnnParams":
        return QgnnParams.from_dict(d)

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


def _encode_inputs(nodes: np.ndarray, params: QgnnParams, activation: str):
    if activation not in ENCODE_ACTIVATIONS:
        raise TrainingError(f"unknown encode activation {activation!r}")
    a = nodes @ params.w_c.T + params.b_c
    enc = np.pi * np.tanh(a) if activation == "tanh_pi" else a
    return a, enc


def _check_graph(g) -> None:
    if g.n_nodes < 1:
        raise TrainingError("graph must have at least one node")


def _probability(z: np.ndarray, params: QgnnParams) -> float:
    """One graph's (n_nodes, q) readouts, mean-pooled, through the head. The sum
    over nodes divided by their count is what ``mean`` computes, bit for bit."""
    return sigmoid(float((z.sum(axis=0) / len(z)) @ params.w_o) + params.b_o)


def forward(g, params: QgnnParams, spec: qsim.CircuitSpec, encode_activation: str = "none") -> float:
    """Fraud probability for one graph; deterministic."""
    _check_graph(g)
    _, enc = _encode_inputs(g.nodes, params, encode_activation)
    return _probability(qsim.run_vqc_batch(enc, spec, params.w_vqc), params)


def predict(graphs, params: QgnnParams, spec: qsim.CircuitSpec, encode_activation: str = "none") -> np.ndarray:
    """Fraud probability of each graph, bit for bit as ``forward`` gives it.

    Every graph's nodes go through the circuit in one ``run_vqc_batch`` call,
    whose row chunks bound its memory on each path; a node's readout does not
    depend on the rows beside it. The encoding matmul and the pooling run per
    graph: over a longer batch their sums group differently (``np.add.reduceat``
    and ``mean`` differ in the last bit).
    """
    for g in graphs:
        _check_graph(g)
    if not graphs:
        return np.array([])
    enc = np.concatenate([_encode_inputs(g.nodes, params, encode_activation)[1] for g in graphs])
    z = qsim.run_vqc_batch(enc, spec, params.w_vqc)
    ends = itertools.accumulate(g.n_nodes for g in graphs)
    return np.array([_probability(z[end - g.n_nodes:end], params) for g, end in zip(graphs, ends)])


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
    ps = np.array([sigmoid(float(x)) for x in logits])
    # fsum: the batch mean must not depend on the order of the graphs
    loss = math.fsum(bce_loss(p, y) for p, y in zip(ps, ys)) / len(graphs)

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


def train(
    train_graphs,
    val_graphs,
    spec: qsim.CircuitSpec,
    config: TrainConfig,
    encode_activation: str = "none",
):
    """Seeded mini-batch Adam (``training.fit``); returns (params, per-epoch history)."""
    rng = make_rng(config.seed)

    def batch_grad(params, batch):
        loss, grads = backward_batch(batch, params, spec, [g.label for g in batch], encode_activation)
        return loss * len(batch), grads

    def val_probs(params, graphs):
        return predict(graphs, params, spec, encode_activation)

    # this module's adam_step, looked up at call time: the benchmark tracer
    # wraps it under this name to count optimizer steps
    return fit(init_params(spec, rng), train_graphs, val_graphs, config, rng, batch_grad, val_probs, adam_step)
