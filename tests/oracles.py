"""Independent reference implementations the tests check the package against.

Everything here is deliberately brute-force and kept free of the production
code paths: dense 2^q x 2^q circuit matrices, a gate-by-gate circuit on a
(2,) * q tensor, an MPS environment carried across one site by a loop over
its physical index, central finite differences, pairwise density
reachability for DBSCAN, pair-counting AUC, direct cluster-intersection
edges, the transaction graph assembled from those, a row-by-row CSV reader
with ``float()`` on every cell, and a GraphSAGE layer that aggregates, draws
its dropout masks and scatters its gradient one node at a time. The
exception is the parameter-shift gradient, which reruns the package's
forward simulator (itself checked against the dense oracle) at shifted
angles.
"""

from __future__ import annotations

import csv
import math
from functools import reduce
from pathlib import Path

import numpy as np

from qgfraud import qsim
from qgfraud.dataset import HEADER, N_FEATURES, DatasetError, Transaction
from qgfraud.sage import SageLayerParams

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def kron_chain(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def dense_1q(q: int, mat: np.ndarray, qubit: int) -> np.ndarray:
    """Full-unitary embedding of a single-qubit gate (qubit 0 = leftmost factor)."""
    return kron_chain([mat if i == qubit else I2 for i in range(q)])


def dense_cnot(q: int, control: int, target: int) -> np.ndarray:
    keep = kron_chain([P0 if i == control else I2 for i in range(q)])
    flip = kron_chain([P1 if i == control else (X if i == target else I2) for i in range(q)])
    return keep + flip


def dense_rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def dense_ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def dense_encode(x) -> np.ndarray:
    """Kronecker product of the per-qubit (cos x_i, i sin x_i) states."""
    return kron_chain([np.array([np.cos(xi), 1j * np.sin(xi)]) for xi in x])


def dense_run_vqc(x, spec, w) -> np.ndarray:
    """Multiply out full gate matrices, then read <Z_k> from the amplitudes."""
    q = spec.q
    state = dense_encode(x)
    idx = 0
    for _ in range(spec.layers):
        for k in range(q):
            state = dense_1q(q, dense_ry(w[idx]), k) @ state
            idx += 1
        for k in range(q):
            state = dense_1q(q, dense_rx(w[idx]), k) @ state
            idx += 1
        for c, t in spec.entangler:
            state = dense_cnot(q, c, t) @ state
    probs = np.abs(state) ** 2
    out = np.empty(q)
    for k in range(q):
        signs = np.array([1.0 if ((i >> (q - 1 - k)) & 1) == 0 else -1.0 for i in range(2**q)])
        out[k] = float(probs @ signs)
    return out


def tensor_state(x, spec, w) -> np.ndarray:
    """The circuit's 2^q output amplitudes, one gate at a time on a (2,) * q tensor.

    Qubit k is axis k. A rotation contracts its 2x2 matrix with its wire's
    axis; a CNOT flips the target axis where the control axis is 1. Costs
    O(2^q) per gate, where ``dense_run_vqc`` multiplies 2^q x 2^q matrices.
    """
    q = spec.q
    state = dense_encode(x).reshape((2,) * q)
    # control_is_one[c] broadcasts over the state: True where qubit c is 1
    control_is_one = [np.arange(2).reshape([2 if a == c else 1 for a in range(q)]) == 1 for c in range(q)]
    for layer in range(spec.layers):
        angles = w[2 * q * layer : 2 * q * (layer + 1)]
        gates = [dense_ry(a) for a in angles[:q]] + [dense_rx(a) for a in angles[q:]]
        for k, mat in enumerate(gates):
            state = np.moveaxis(np.tensordot(mat, state, axes=([1], [k % q])), 0, k % q)
        for c, t in spec.entangler:
            state = np.where(control_is_one[c], np.flip(state, axis=t), state)
    return state.reshape(-1)


def transfer_step(env, site, signs) -> np.ndarray:
    """One site's step of an MPS environment, a plain loop over the physical index:
    E' = sum_s signs[s] A_s^H E A_s, with A_s = site[:, s, :] of a (B, 2, B) site.
    signs (1, 1) carry the identity across the site and (1, -1) carry Z."""
    out = np.zeros(env.shape, dtype=complex)
    for s, sign in enumerate(signs):
        a = site[:, s, :]
        out += sign * (a.conj().T @ env @ a)
    return out


def simulator_state(xs, spec, w) -> np.ndarray:
    """The statevector simulator's (n, 2**q) output states of (n, q) rows: the
    full state that ``qsim.run_vqc_batch`` reads <Z> from."""
    return qsim._Statevector(spec, np.asarray(w, dtype=float)).state(np.asarray(xs, dtype=float))


def param_shift_grad_batch(xs, spec, w, upstream):
    """Exact circuit gradients by the parameter-shift rule (arXiv:1811.11184).

    Rotation angles use the half-generator shift (f(w+pi/2) - f(w-pi/2)) / 2.
    Encoding inputs rotate at twice the rate of RX, so their shift is pi/4
    with a unit prefactor. Returns (grad_w totalled over the batch, grad_x
    per row).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(w, dtype=float)
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    qsim._check_shapes(xs, spec, w, upstream)

    grad_w = np.zeros(spec.n_params)
    for m in range(spec.n_params):
        wp, wm = w.copy(), w.copy()
        wp[m] += np.pi / 2
        wm[m] -= np.pi / 2
        diff = qsim._z_expectations(simulator_state(xs, spec, wp), spec.q) - qsim._z_expectations(
            simulator_state(xs, spec, wm), spec.q
        )
        grad_w[m] = float(np.sum(upstream * diff) / 2.0)

    grad_x = np.zeros_like(xs)
    for i in range(spec.q):
        xp, xm = xs.copy(), xs.copy()
        xp[:, i] += np.pi / 4
        xm[:, i] -= np.pi / 4
        diff = qsim._z_expectations(simulator_state(xp, spec, w), spec.q) - qsim._z_expectations(
            simulator_state(xm, spec, w), spec.q
        )
        grad_x[:, i] = np.sum(upstream * diff, axis=1)
    return grad_w, grad_x


def fd_grad(f, x, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar or vector function of a vector."""
    x = np.asarray(x, dtype=float)
    probe = np.asarray(f(x))
    grad = np.zeros((x.size,) + probe.shape)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h)
    return grad


def brute_dbscan(values, eps: float, min_pts: int) -> list[int]:
    """Density-reachability by exhaustive pair checks.

    Clusters are connected components of core points (an edge when two cores
    lie within eps), numbered by their lowest-index core. A border point takes
    the smallest cluster id among cores within eps; everything else is -1.
    """
    v = [float(x) for x in values]
    n = len(v)
    within = [[abs(v[i] - v[j]) <= eps for j in range(n)] for i in range(n)]
    core = [sum(within[i]) >= min_pts for i in range(n)]
    comp = [-1] * n
    cid = 0
    for i in range(n):
        if not core[i] or comp[i] != -1:
            continue
        stack = [i]
        comp[i] = cid
        while stack:
            a = stack.pop()
            for b in range(n):
                if core[b] and comp[b] == -1 and within[a][b]:
                    comp[b] = cid
                    stack.append(b)
        cid += 1
    labels = [-1] * n
    for i in range(n):
        if core[i]:
            labels[i] = comp[i]
        else:
            reachable = [comp[j] for j in range(n) if core[j] and within[i][j]]
            if reachable:
                labels[i] = min(reachable)
    return labels


def pair_auc(scores, labels) -> float:
    """Mann-Whitney statistic: P(score_pos > score_neg), ties counted half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def intersection_edges(clusters) -> set:
    """Edges between clusters sharing at least one member, as index pairs."""
    sets = [set(c) for c in clusters]
    return {
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if sets[i] & sets[j]
    }


def cover_intervals(lo: float, hi: float, n: int, overlap: float) -> list:
    """n intervals of one length over [lo, hi], each starting ``overlap`` of
    that length before the previous one ends; the last one ends at hi
    exactly, so rounding cannot leave the maximum out. [lo, hi] alone when
    every value is equal."""
    if hi <= lo:
        return [(lo, hi)]
    length = (hi - lo) / (n - (n - 1) * overlap)
    starts = [lo + i * (length * (1.0 - overlap)) for i in range(n)]
    return [(a, a + length) for a in starts[:-1]] + [(starts[-1], hi)]


def oracle_transaction_graph(t, cover, db, direction=None):
    """(nodes, edges) of one transaction's graph, by membership tests per interval.

    Feature j projects to ``v_j * w_V``, w_V being the middle (V) weight of
    ``direction`` (default (1, 1, 1)/sqrt(3)): time and amount would shift
    every projection alike. Points whose projection lies in a cover interval
    (inclusive) are clustered by ``brute_dbscan``; unclustered points become
    singletons; nodes are the clusters in sorted member order, each keeping
    its members' feature values; edges are the sorted ``intersection_edges``
    pairs.
    """
    w_v = 1.0 / math.sqrt(3.0) if direction is None else float(direction[1])
    f = [x * w_v for x in t.v]
    clusters = []
    for a, b in cover_intervals(min(f), max(f), cover.n_intervals, cover.overlap_frac):
        inside = [j for j in range(len(f)) if a <= f[j] <= b]
        labels = brute_dbscan([f[j] for j in inside], db.eps, db.min_pts)
        for c in range(max(labels, default=-1) + 1):
            clusters.append(tuple(j for j, label in zip(inside, labels) if label == c))
    clustered = {j for c in clusters for j in c}
    clusters += [(j,) for j in range(len(f)) if j not in clustered]
    canon = sorted(tuple(sorted(set(c))) for c in clusters)
    nodes = np.zeros((len(canon), len(t.v)))
    for k, members in enumerate(canon):
        for j in members:
            nodes[k, j] = t.v[j]
    return nodes, sorted(intersection_edges(canon))


def read_transactions(path) -> list:
    """Every row of the CSV at ``path`` as a ``Transaction``, one ``float()`` per cell.

    Raises the ``DatasetError`` texts ``dataset.load_transactions`` must give:
    the missing file, the header, and the first bad row by number and column.
    """
    p = Path(path)
    if not p.exists():
        raise DatasetError(f"dataset file not found: {p}")
    rows = []
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{p}: empty file, expected header {','.join(HEADER)}")
        if tuple(h.strip().strip("'\"") for h in header) != HEADER:
            raise DatasetError(f"{p}: malformed header {header!r}")
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(HEADER):
                raise DatasetError(
                    f"{p}: row {lineno}: expected {len(HEADER)} columns, got {len(cells)}"
                )
            try:
                values = [float(c) for c in cells[: N_FEATURES + 2]]
            except ValueError as exc:
                raise DatasetError(f"{p}: row {lineno}: non-numeric value ({exc})") from None
            if not all(map(math.isfinite, values)):
                column = next(h for h, x in zip(HEADER, values) if not math.isfinite(x))
                raise DatasetError(f"{p}: row {lineno}: column {column} is not finite")
            label_cell = cells[N_FEATURES + 2].strip().strip("'\"")
            if label_cell not in ("0", "1"):
                raise DatasetError(
                    f"{p}: row {lineno}: label must be 0 or 1, got {cells[N_FEATURES + 2]!r}"
                )
            rows.append(Transaction(values[0], tuple(values[1:-1]), values[-1], int(label_cell)))
    return rows


def sage_dropout_mask(rng, p: float, shape) -> np.ndarray:
    # inverted scaling: survivors are multiplied by 1/(1-p), eval needs no rescale
    if p <= 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= p) / (1.0 - p)


def sage_masked_mean(h: np.ndarray, idx: np.ndarray, p: float, rng):
    """Mean of dropped-out neighbour rows; zero vector when idx is empty."""
    if idx.size == 0:
        return np.zeros(h.shape[1]), np.zeros((0, h.shape[1]))
    masks = sage_dropout_mask(rng, p, (idx.size, h.shape[1]))
    return (masks * h[idx]).mean(axis=0), masks


def sage_layer_forward(h, adj, params: SageLayerParams, rng, train_mode: bool, fan_out):
    """One GraphSAGE layer, node by node: for each node its neighbour sample,
    then its self mask, then its neighbour masks, each a separate rng call."""
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
            self_masks[v] = sage_dropout_mask(rng, p, d)
        agg[v], masks = sage_masked_mean(h, nb, p, rng)
        neigh_masks.append(masks)
    dropped = self_masks * h
    pre = np.concatenate([dropped @ params.w_self.T, agg @ params.w_neigh.T], axis=1) + params.b
    out = np.maximum(pre, 0.0)
    cache = (h, dropped, agg, pre, self_masks, neigh_idx, neigh_masks)
    return out, cache


def sage_layer_backward(d_out, params: SageLayerParams, cache):
    """The gradient of ``sage_layer_forward``, one ``np.add.at`` per node."""
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


def flatten_params(d: dict):
    """Deterministically flatten a dict of arrays into one vector + layout."""
    keys = sorted(d)
    layout = [(k, np.asarray(d[k], dtype=float).shape) for k in keys]
    vec = np.concatenate([np.asarray(d[k], dtype=float).reshape(-1) for k in keys])
    return vec, layout


def unflatten_params(vec, layout) -> dict:
    out = {}
    pos = 0
    for key, shape in layout:
        size = int(np.prod(shape)) if shape else 1
        out[key] = np.asarray(vec[pos : pos + size]).reshape(shape)
        pos += size
    return out
