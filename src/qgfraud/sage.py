"""GraphSAGE baseline with mean aggregation, trained by hand-rolled backprop.

Each layer updates node v as

    relu(concat[W_self . drop(h_v), W_neigh . mean_u drop(h_u)] + b)

where u ranges over (a sample of) v's neighbours and drop() is inverted
dropout, active only in training mode. Two layers feed a mean-pool over nodes
and a dense sigmoid head, one probability per graph. Evaluation never touches
the RNG: no dropout, full neighbourhoods. Training is the Adam/BCE loop
``training.fit`` shares with the qgnn.

A layer's numpy calls do not grow with its node count: one gather of every
node's neighbour rows, one ``bincount`` that sums them per node in neighbour
order, and in the backward pass one ``np.add.at`` that scatters all neighbour
cotangents in node order. The sums therefore round as a per-node loop's
would. Dropout draws keep the per-node order too: node v's self row, then its
neighbour rows, node after node. Without sampling that is one
``rng.random`` call; when some node has more neighbours than the fan-out,
the draws stay in a loop over nodes, each node's ``rng.choice`` first.
A forward reads the graph's neighbours, flat and node after node, from one
sort of its edge keys; only that sampling loop splits them per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optim import adam_step
from .rng import make_rng
from .training import TrainConfig, TrainingError, bce_loss, fit, sigmoid

DEFAULT_WIDTHS = (128, 128)
DEFAULT_FAN_OUTS = (2, 32)
DEFAULT_DROPOUT = 0.1


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

    @classmethod
    def from_dict(cls, d: dict, dropout_p: float) -> "SageModelParams":
        """The inverse of ``to_dict``, with ``dropout_p`` on both layers."""

        def layer(prefix: str) -> SageLayerParams:
            arrays = (np.asarray(d[f"{prefix}_{k}"], dtype=float) for k in ("w_self", "w_neigh", "b"))
            return SageLayerParams(*arrays, dropout_p)

        return cls(layer("l1"), layer("l2"), np.asarray(d["head_w"], dtype=float), float(np.asarray(d["head_b"])))

    def replace_arrays(self, d: dict) -> "SageModelParams":
        """The same model, each layer's dropout included, with new arrays."""
        new = SageModelParams.from_dict(d, self.layer1.dropout_p)
        new.layer2.dropout_p = self.layer2.dropout_p
        return new

    @property
    def n_parameters(self) -> int:
        return sum(np.asarray(a).size for a in self.to_dict().values())


def check_widths(widths):
    """The widths of the model's two layers, or a ``TrainingError`` unless both are at least 1."""
    if len(widths) != 2 or min(widths) < 1:
        raise TrainingError(f"the model uses exactly two layers of positive width, got widths {widths!r}")
    return widths


def init_sage_params(
    rng: np.random.Generator,
    in_dim: int = 28,
    widths=DEFAULT_WIDTHS,
    dropout: float = DEFAULT_DROPOUT,
) -> SageModelParams:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases; two layers plus head."""
    check_widths(widths)

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


@dataclass(frozen=True, eq=False)
class Neighbours:
    """Each node's neighbours in ascending order, node after node (``flat``),
    and each node's count of them (``deg``). Iterating gives each node's
    neighbours in turn."""

    flat: np.ndarray
    deg: np.ndarray

    def __iter__(self):
        return iter(np.split(self.flat, np.cumsum(self.deg)[:-1]))


def neighbor_lists(g) -> Neighbours:
    """The graph's neighbours from one sort: each edge (a, b) gives the keys
    a * n + b and b * n + a, which order by node, then neighbour."""
    n, edges = g.n_nodes, g.edges
    keys = np.array(sorted([a * n + b for a, b in edges] + [b * n + a for a, b in edges]), dtype=np.intp)
    return Neighbours(keys % n, np.bincount(keys // n, minlength=n))


def _sampled_draws(adj: Neighbours, rng, p: float, d: int, fan_out: int):
    """Neighbour samples and dropout draws when some node has more than
    ``fan_out`` neighbours: node by node, its sample, then its self row and
    its neighbour rows, so ``rng.choice`` keeps its place among the draws."""
    sampled, draws = [], []
    for nb in adj:
        if nb.size > fan_out:
            nb = np.sort(rng.choice(nb, size=fan_out, replace=False))
        sampled.append(nb)
        if p > 0.0:
            draws.append(rng.random((1 + nb.size, d)))
    deg = np.array([nb.size for nb in sampled])
    return Neighbours(np.concatenate(sampled), deg), np.concatenate(draws) if draws else None


def _cells(rows: np.ndarray, d: int) -> np.ndarray:
    """Flat indices of every cell of ``rows`` in a C-ordered (., d) array."""
    return (rows[:, None] * d + np.arange(d)).ravel()


def _layer_forward(h, adj: Neighbours, params: SageLayerParams, rng, train_mode: bool, fan_out):
    n, d = h.shape
    p = params.dropout_p if train_mode else 0.0
    if train_mode and fan_out is not None and adj.deg.max() > fan_out:
        adj, draws = _sampled_draws(adj, rng, p, d, fan_out)
    else:
        # node v's self row, then its neighbour rows: one call fills them in
        # the order a call per node would
        draws = rng.random((n + adj.deg.sum(), d)) if p > 0.0 else None
    nbrs, deg = adj.flat, adj.deg
    owner = np.repeat(np.arange(n), deg)
    rows = h[nbrs]
    self_masks = neigh_masks = None
    dropped = h
    if draws is not None:
        masks = (draws >= p) / (1.0 - p)  # inverted dropout: eval needs no rescale
        is_self = np.zeros(len(masks), dtype=bool)
        is_self[np.arange(n) + np.cumsum(deg) - deg] = True
        self_masks, neigh_masks = masks[is_self], masks[~is_self]
        dropped = self_masks * h
        rows = neigh_masks * rows
    # bincount adds each node's rows in order onto 0.0, as a per-node mean does
    count = np.maximum(deg, 1.0)[:, None]
    agg = np.bincount(_cells(owner, d), weights=rows.ravel(), minlength=n * d).reshape(n, d) / count
    pre = np.concatenate([dropped @ params.w_self.T, agg @ params.w_neigh.T], axis=1) + params.b
    out = np.maximum(pre, 0.0)
    cache = (h, dropped, agg, pre, self_masks, nbrs, owner, count, neigh_masks)
    return out, cache


def _layer_grads(d_out, params: SageLayerParams, cache):
    _, dropped, agg, pre, *_ = cache
    d_pre = d_out * (pre > 0)
    d_self, d_neigh = d_pre[:, : params.width], d_pre[:, params.width :]
    return d_pre, {"w_self": d_self.T @ dropped, "w_neigh": d_neigh.T @ agg, "b": d_pre.sum(axis=0)}


def _input_cotangent(d_pre, params: SageLayerParams, cache):
    *_, self_masks, nbrs, owner, count, neigh_masks = cache
    d_self, d_neigh = d_pre[:, : params.width], d_pre[:, params.width :]
    d_h = d_self @ params.w_self
    if self_masks is not None:
        d_h *= self_masks
    contrib = (d_neigh @ params.w_neigh / count)[owner]
    if neigh_masks is not None:
        contrib *= neigh_masks
    # in node order, onto the self term; flat indices take numpy's fast path
    np.add.at(d_h.reshape(-1), _cells(nbrs, d_h.shape[1]), contrib.reshape(-1))
    return d_h


def _forward_graph(g, params: SageModelParams, rng, train_mode: bool, fan_outs):
    if g.n_nodes < 1:
        raise TrainingError("graph must have at least one node")
    if train_mode and rng is None and (
        params.layer1.dropout_p > 0 or params.layer2.dropout_p > 0 or any(fan_outs)
    ):
        raise TrainingError("training mode requires an RNG")
    adj = neighbor_lists(g)
    h1, cache1 = _layer_forward(g.nodes, adj, params.layer1, rng, train_mode, fan_outs[0])
    h2, cache2 = _layer_forward(h1, adj, params.layer2, rng, train_mode, fan_outs[1])
    pooled = h2.mean(axis=0)
    logit = float(pooled @ params.head_w) + params.head_b
    return sigmoid(logit), (cache1, cache2, h2, pooled)


def sage_forward(
    g,
    params: SageModelParams,
    rng=None,
    train_mode: bool = False,
    fan_outs=(None, None),
) -> float:
    """Graph-level fraud probability. Eval mode is RNG-free and deterministic."""
    prob, _ = _forward_graph(g, params, rng, train_mode, fan_outs)
    return prob


def sage_predict(graphs, params: SageModelParams) -> np.ndarray:
    return np.array([sage_forward(g, params) for g in graphs])


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
    d_pre2, g2 = _layer_grads(d_h2, params.layer2, cache2)
    # layer 1's input is the node features: no gradient reads its cotangent
    _, g1 = _layer_grads(_input_cotangent(d_pre2, params.layer2, cache2), params.layer1, cache1)
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


def sage_train(
    train_graphs,
    val_graphs,
    config: TrainConfig,
    in_dim: int = 28,
    widths=DEFAULT_WIDTHS,
    fan_outs=DEFAULT_FAN_OUTS,
    dropout: float = DEFAULT_DROPOUT,
):
    """Seeded mini-batch Adam (``training.fit``); returns (params, history).

    The batch gradient averages per-graph gradients; dropout masks and
    neighbour samples come from the same rng as the batch order.
    """
    rng = make_rng(config.seed)

    def batch_grad(params, batch):
        acc: dict | None = None
        batch_loss = 0.0
        for g in batch:
            loss, grads = sage_backward(g, params, g.label, rng, train_mode=True, fan_outs=fan_outs)
            batch_loss += loss
            if acc is None:
                acc = grads
            else:
                for k, v in acc.items():
                    v += grads[k]
        for v in acc.values():
            v /= len(batch)
        return batch_loss, acc

    def val_probs(params, graphs):
        return sage_predict(graphs, params)

    params = init_sage_params(rng, in_dim=in_dim, widths=widths, dropout=dropout)
    # this module's adam_step, looked up at call time: the benchmark tracer
    # wraps it under this name to count optimizer steps
    return fit(params, train_graphs, val_graphs, config, rng, batch_grad, val_probs, adam_step)
