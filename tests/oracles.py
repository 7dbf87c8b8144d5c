"""Independent reference implementations the tests check the package against.

Everything here is deliberately brute-force and kept free of the production
code paths: dense 2^q x 2^q circuit matrices, central finite differences,
pairwise density reachability for DBSCAN, pair-counting AUC, and direct
cluster-intersection edges. The one exception is the parameter-shift
gradient, which reruns the package's forward simulator (itself checked
against the dense oracle) at shifted angles.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from qgfraud import qsim

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
    qsim._check_shapes(xs, spec, w)
    if upstream.shape != xs.shape:
        raise qsim.QsimError(f"upstream shape {upstream.shape} does not match inputs {xs.shape}")

    grad_w = np.zeros(spec.n_params)
    for m in range(spec.n_params):
        wp, wm = w.copy(), w.copy()
        wp[m] += np.pi / 2
        wm[m] -= np.pi / 2
        diff = qsim._z_expectations(qsim._run(xs, spec, wp), spec.q) - qsim._z_expectations(
            qsim._run(xs, spec, wm), spec.q
        )
        grad_w[m] = float(np.sum(upstream * diff) / 2.0)

    grad_x = np.zeros_like(xs)
    for i in range(spec.q):
        xp, xm = xs.copy(), xs.copy()
        xp[:, i] += np.pi / 4
        xm[:, i] -= np.pi / 4
        diff = qsim._z_expectations(qsim._run(xp, spec, w), spec.q) - qsim._z_expectations(
            qsim._run(xm, spec, w), spec.q
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
