"""GraphSAGE baseline with mean aggregation, trained by hand-rolled backprop.

Each layer updates node v as

    relu(concat[W_self . drop(h_v), W_neigh . mean_u drop(h_u)] + b)

where u ranges over (a sample of) v's neighbours and drop() is inverted
dropout, active only in training mode. Two layers feed a mean-pool over nodes
and a dense sigmoid head, one probability per graph. Evaluation never touches
the RNG: no dropout, full neighbourhoods.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .optim import AdamState, adam_step
from .rng import make_rng
from .training import TrainConfig, TrainHistory, TrainingError, batch_slices, check_finite

DEFAULT_WIDTHS = (128, 128)
DEFAULT_FAN_OUTS = (2, 32)
DEFAULT_DROPOUT = 0.1
LOSS_CLAMP = 1e-7


@dataclass(eq=False)
class SageLayerParams:
    w_self: np.ndarray  # (width, in_dim)
    w_neigh: np.ndarray  # (width, in_dim)
    b: np.ndarray  # (2 * width,)
    dropout_p: float = 0.0

    def __post_init__(self) -> None:
        if self.w_self.shape != self.w_neigh.shape:
            raise TrainingError("self and neighbour weights must share a shape")
        if self.b.shape != (2 * self.w_self.shape[0],):
            raise TrainingError(
                f"bias must cover the concatenated output, expected {2 * self.w_self.shape[0]}"
            )
        if not 0.0 <= self.dropout_p < 1.0:
            raise TrainingError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")

    @property
    def width(self) -> int:
        return self.w_self.shape[0]


@dataclass(eq=False)
class SageModelParams:
    layer1: SageLayerParams
    layer2: SageLayerParams
    head_w: np.ndarray  # (2 * layer2.width,)
    head_b: float

    def to_dict(self) -> dict:
        return {
            "l1_w_self": self.layer1.w_self,
            "l1_w_neigh": self.layer1.w_neigh,
            "l1_b": self.layer1.b,
            "l2_w_self": self.layer2.w_self,
            "l2_w_neigh": self.layer2.w_neigh,
            "l2_b": self.layer2.b,
            "head_w": self.head_w,
            "head_b": np.asarray(self.head_b, dtype=float),
        }

    def replace_arrays(self, d: dict) -> "SageModelParams":
        return SageModelParams(
            layer1=SageLayerParams(
                np.asarray(d["l1_w_self"], dtype=float),
                np.asarray(d["l1_w_neigh"], dtype=float),
                np.asarray(d["l1_b"], dtype=float),
                self.layer1.dropout_p,
            ),
            layer2=SageLayerParams(
                np.asarray(d["l2_w_self"], dtype=float),
                np.asarray(d["l2_w_neigh"], dtype=float),
                np.asarray(d["l2_b"], dtype=float),
                self.layer2.dropout_p,
            ),
            head_w=np.asarray(d["head_w"], dtype=float),
            head_b=float(np.asarray(d["head_b"])),
        )

    @property
    def n_parameters(self) -> int:
        return sum(np.asarray(a).size for a in self.to_dict().values())


def init_sage_params(
    rng: np.random.Generator,
    in_dim: int = 28,
    widths=DEFAULT_WIDTHS,
    dropout: float = DEFAULT_DROPOUT,
) -> SageModelParams:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases; two layers plus head."""
    if len(widths) != 2:
        raise TrainingError(f"the model uses exactly two layers, got widths {widths!r}")

    def layer(d_in: int, width: int) -> SageLayerParams:
        bound = 1.0 / np.sqrt(d_in)
        return SageLayerParams(
            w_self=rng.uniform(-bound, bound, size=(width, d_in)),
            w_neigh=rng.uniform(-bound, bound, size=(width, d_in)),
            b=np.zeros(2 * width),
            dropout_p=dropout,
        )

    layer1 = layer(in_dim, widths[0])
    layer2 = layer(2 * widths[0], widths[1])
    head_in = 2 * widths[1]
    bound = 1.0 / np.sqrt(head_in)
    return SageModelParams(
        layer1=layer1,
        layer2=layer2,
        head_w=rng.uniform(-bound, bound, size=head_in),
        head_b=0.0,
    )


def neighbor_lists(g) -> list[np.ndarray]:
    adj: list[list[int]] = [[] for _ in range(g.n_nodes)]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return [np.array(sorted(nb), dtype=int) for nb in adj]


def _dropout_mask(rng, p: float, shape) -> np.ndarray:
    # inverted scaling: survivors are multiplied by 1/(1-p), eval needs no rescale
    if p <= 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= p) / (1.0 - p)


def _masked_mean(h: np.ndarray, idx: np.ndarray, p: float, rng):
    """Mean of dropped-out neighbour rows; zero vector when idx is empty."""
    if idx.size == 0:
        return np.zeros(h.shape[1]), np.zeros((0, h.shape[1]))
    masks = _dropout_mask(rng, p, (idx.size, h.shape[1]))
    return (masks * h[idx]).mean(axis=0), masks


def mean_aggregate(g, h, v: int, dropout_p: float, rng=None) -> np.ndarray:
    """Dropout-regularised mean of v's neighbour features; zeros if isolated."""
    h = np.asarray(h, dtype=float)
    if h.shape[0] != g.n_nodes:
        raise TrainingError("feature matrix must cover every node")
    if dropout_p > 0.0 and rng is None:
        raise TrainingError("dropout requires an RNG")
    return _masked_mean(h, neighbor_lists(g)[v], dropout_p, rng)[0]


def _layer_forward(h, adj, params: SageLayerParams, rng, train_mode: bool, fan_out):
    n, d = h.shape
    p = params.dropout_p if train_mode else 0.0
    self_masks = np.ones((n, d))
    neigh_idx: list[np.ndarray] = []
    neigh_masks: list[np.ndarray] = []
    agg = np.zeros((n, d))
    for v in range(n):
        nb = adj[v]
        if train_mode and fan_out is not None and nb.size > fan_out:
            nb = np.sort(rng.choice(nb, size=fan_out, replace=False))
        neigh_idx.append(nb)
        if p > 0.0:
            self_masks[v] = _dropout_mask(rng, p, d)
        agg[v], masks = _masked_mean(h, nb, p, rng)
        neigh_masks.append(masks)
    dropped = self_masks * h
    pre = np.concatenate([dropped @ params.w_self.T, agg @ params.w_neigh.T], axis=1) + params.b
    out = np.maximum(pre, 0.0)
    cache = (h, dropped, agg, pre, self_masks, neigh_idx, neigh_masks)
    return out, cache


def sage_layer(g, h, params: SageLayerParams, rng=None, train_mode: bool = False, fan_out=None):
    """One convolution over all nodes; returns the (n, 2*width) activations."""
    h = np.asarray(h, dtype=float)
    if h.shape[0] != g.n_nodes:
        raise TrainingError("feature matrix must cover every node")
    if h.shape[1] != params.w_self.shape[1]:
        raise TrainingError(
            f"feature width {h.shape[1]} does not match weights {params.w_self.shape}"
        )
    if train_mode and params.dropout_p > 0.0 and rng is None:
        raise TrainingError("training mode with dropout requires an RNG")
    out, _ = _layer_forward(h, neighbor_lists(g), params, rng, train_mode, fan_out)
    return out


def _layer_backward(d_out, params: SageLayerParams, cache):
    h, dropped, agg, pre, self_masks, neigh_idx, neigh_masks = cache
    width = params.width
    d_pre = d_out * (pre > 0)
    d_b = d_pre.sum(axis=0)
    d_self, d_neigh = d_pre[:, :width], d_pre[:, width:]
    d_w_self = d_self.T @ dropped
    d_w_neigh = d_neigh.T @ agg
    d_h = (d_self @ params.w_self) * self_masks
    d_agg = d_neigh @ params.w_neigh
    for v, (nb, masks) in enumerate(zip(neigh_idx, neigh_masks)):
        if nb.size:
            contrib = (d_agg[v][None, :] / nb.size) * masks
            np.add.at(d_h, nb, contrib)
    return d_h, {"w_self": d_w_self, "w_neigh": d_w_neigh, "b": d_b}


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def _forward_graph(g, params: SageModelParams, rng, train_mode: bool, fan_outs):
    adj = neighbor_lists(g)
    h1, cache1 = _layer_forward(g.nodes, adj, params.layer1, rng, train_mode, fan_outs[0])
    h2, cache2 = _layer_forward(h1, adj, params.layer2, rng, train_mode, fan_outs[1])
    pooled = h2.mean(axis=0)
    logit = float(pooled @ params.head_w) + params.head_b
    return _sigmoid(logit), (cache1, cache2, h2, pooled)


def sage_forward(
    g,
    params: SageModelParams,
    rng=None,
    train_mode: bool = False,
    fan_outs=(None, None),
) -> float:
    """Graph-level fraud probability. Eval mode is RNG-free and deterministic."""
    if g.n_nodes < 1:
        raise TrainingError("graph must have at least one node")
    if train_mode and rng is None and (
        params.layer1.dropout_p > 0 or params.layer2.dropout_p > 0 or any(fan_outs)
    ):
        raise TrainingError("training mode requires an RNG")
    prob, _ = _forward_graph(g, params, rng, train_mode, fan_outs)
    return prob


def sage_predict(graphs, params: SageModelParams) -> np.ndarray:
    return np.array([sage_forward(g, params) for g in graphs])


def bce_loss(p_hat: float, y: int) -> float:
    p = min(max(float(p_hat), LOSS_CLAMP), 1.0 - LOSS_CLAMP)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p))


def sage_backward(
    g,
    params: SageModelParams,
    y: int,
    rng=None,
    train_mode: bool = False,
    fan_outs=(None, None),
):
    """Loss and gradient for one graph, differentiating the realised masks."""
    prob, (cache1, cache2, h2, pooled) = _forward_graph(g, params, rng, train_mode, fan_outs)
    loss = bce_loss(prob, y)
    d_logit = prob - y
    d_head_w = d_logit * pooled
    d_head_b = d_logit
    d_pooled = d_logit * params.head_w
    d_h2 = np.tile(d_pooled / h2.shape[0], (h2.shape[0], 1))
    d_h1, g2 = _layer_backward(d_h2, params.layer2, cache2)
    _, g1 = _layer_backward(d_h1, params.layer1, cache1)
    grads = {
        "l1_w_self": g1["w_self"],
        "l1_w_neigh": g1["w_neigh"],
        "l1_b": g1["b"],
        "l2_w_self": g2["w_self"],
        "l2_w_neigh": g2["w_neigh"],
        "l2_b": g2["b"],
        "head_w": d_head_w,
        "head_b": np.asarray(d_head_b, dtype=float),
    }
    return loss, grads


def _mean_loss(graphs, params) -> float:
    if not graphs:
        return float("nan")
    return float(np.mean([bce_loss(sage_forward(g, params), g.label) for g in graphs]))


def sage_train(
    train_graphs,
    val_graphs,
    config: TrainConfig,
    in_dim: int = 28,
    widths=DEFAULT_WIDTHS,
    fan_outs=DEFAULT_FAN_OUTS,
    dropout: float = DEFAULT_DROPOUT,
):
    """Seeded mini-batch Adam on binary cross-entropy; returns (params, history)."""
    if not train_graphs:
        raise TrainingError("training set is empty")
    rng = make_rng(config.seed)
    params = init_sage_params(rng, in_dim=in_dim, widths=widths, dropout=dropout)
    state = AdamState.for_params(params.to_dict())
    history = TrainHistory()
    for epoch in range(1, config.epochs + 1):
        t0 = _time.perf_counter()
        order = rng.permutation(len(train_graphs))
        total = 0.0
        for start, stop in batch_slices(len(order), config.batch_size):
            batch = [train_graphs[i] for i in order[start:stop]]
            acc: dict | None = None
            batch_loss = 0.0
            for g in batch:
                loss, grads = sage_backward(
                    g, params, g.label, rng, train_mode=True, fan_outs=fan_outs
                )
                batch_loss += loss
                if acc is None:
                    acc = grads
                else:
                    acc = {k: acc[k] + grads[k] for k in acc}
            assert acc is not None
            grads = {k: v / len(batch) for k, v in acc.items()}
            check_finite(epoch, batch_loss, grads)
            new_dict, state = adam_step(
                params.to_dict(),
                grads,
                state,
                lr=config.learning_rate,
                beta1=config.beta1,
                beta2=config.beta2,
                eps=config.eps,
            )
            params = params.replace_arrays(new_dict)
            total += batch_loss
        train_loss = total / len(train_graphs)
        val_loss = _mean_loss(val_graphs, params)
        history.append(epoch, train_loss, val_loss, _time.perf_counter() - t0)
    return params, history
