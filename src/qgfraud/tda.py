"""Per-transaction graph construction.

One transaction becomes a small undirected graph in four moves: lift the 28
features into 3-D points (scaled time, feature value, scaled amount), project
the points onto a fixed line, cluster the projections inside overlapping
intervals with DBSCAN, and connect clusters that share points. Node k carries
a 28-dim vector that is zero everywhere except at the coordinates of its
cluster's points, which keep their feature values, so the node vectors of a
graph jointly cover all 28 features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import N_FEATURES, Transaction

DEFAULT_PROJECTION = (1.0 / np.sqrt(3.0),) * 3


class TdaError(ValueError):
    """Invalid clustering/cover parameters or malformed graph data."""


@dataclass(frozen=True)
class CoverSpec:
    """Overlapping interval cover of the projected range."""

    n_intervals: int = 4
    overlap_frac: float = 0.5

    def __post_init__(self) -> None:
        if self.n_intervals < 1:
            raise TdaError(f"n_intervals must be >= 1, got {self.n_intervals}")
        if not 0.0 <= self.overlap_frac < 1.0:
            raise TdaError(f"overlap_frac must lie in [0, 1), got {self.overlap_frac}")


@dataclass(frozen=True)
class DbscanSpec:
    eps: float = 0.1
    min_pts: int = 2

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise TdaError(f"eps must be > 0, got {self.eps}")
        if self.min_pts < 1:
            raise TdaError(f"min_pts must be >= 1, got {self.min_pts}")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """28 points (time, V_j, amount); time and amount are shared across points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        if self.points.shape != (N_FEATURES, 3):
            raise TdaError(f"point cloud must be ({N_FEATURES}, 3), got {self.points.shape}")
        if np.ptp(self.points[:, 0]) != 0.0 or np.ptp(self.points[:, 2]) != 0.0:
            raise TdaError("time and amount must be identical across points of one cloud")


@dataclass(frozen=True, eq=False)
class TransactionGraph:
    """Cluster graph of one transaction: node features, undirected edges, label."""

    nodes: np.ndarray
    edges: tuple[tuple[int, int], ...]
    label: int

    def __post_init__(self) -> None:
        if self.nodes.ndim != 2 or self.nodes.shape[1] != N_FEATURES:
            raise TdaError(f"nodes must be (n, {N_FEATURES}), got {self.nodes.shape}")
        n = self.nodes.shape[0]
        if not 1 <= n <= N_FEATURES:
            raise TdaError(f"node count must be in [1, {N_FEATURES}], got {n}")
        if self.label not in (0, 1):
            raise TdaError(f"label must be 0 or 1, got {self.label!r}")
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise TdaError(f"self-loop on node {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise TdaError(f"edge ({a}, {b}) out of range for {n} nodes")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise TdaError(f"duplicate edge {key}")
            seen.add(key)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def build_point_cloud(t: Transaction) -> PointCloud:
    pts = np.empty((N_FEATURES, 3))
    pts[:, 0] = t.time
    pts[:, 1] = t.v
    pts[:, 2] = t.amount
    return PointCloud(pts)


def project_1d(cloud: PointCloud, direction=None) -> np.ndarray:
    """Dot each point with a fixed unit direction; default is (1,1,1)/sqrt(3)."""
    w = np.asarray(DEFAULT_PROJECTION if direction is None else direction, dtype=float)
    if w.shape != (3,):
        raise TdaError(f"projection direction must have 3 components, got {w.shape}")
    return cloud.points @ w


def dbscan(values, spec: DbscanSpec) -> np.ndarray:
    """1-D DBSCAN labels; -1 marks noise.

    A point is core iff at least ``min_pts`` values (itself included) lie
    within ``eps`` (inclusive). Clusters are the density-connected components
    of core points, numbered in ascending order of their first core point;
    border points keep the label of the first cluster that reaches them.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise TdaError("dbscan expects a non-empty 1-D value list")
    within = np.abs(v[:, None] - v[None, :]) <= spec.eps
    core = within.sum(axis=1) >= spec.min_pts
    labels = np.full(v.size, -1, dtype=int)
    cluster = 0
    for i in range(v.size):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        queue = [i]
        while queue:
            p = queue.pop(0)
            for j in np.flatnonzero(within[p]):
                if labels[j] == -1:
                    labels[j] = cluster
                    if core[j]:
                        queue.append(int(j))
        cluster += 1
    return labels


def cover_intervals(lo: float, hi: float, cover: CoverSpec) -> list[tuple[float, float]]:
    """Intervals covering [lo, hi], consecutive ones overlapping by the set fraction."""
    if hi <= lo:
        return [(lo, hi)]
    length = (hi - lo) / (cover.n_intervals - (cover.n_intervals - 1) * cover.overlap_frac)
    step = length * (1.0 - cover.overlap_frac)
    out = []
    for i in range(cover.n_intervals):
        a = lo + i * step
        # pin the last endpoint so float drift cannot drop the max point
        b = hi if i == cover.n_intervals - 1 else a + length
        out.append((a, b))
    return out


def cover_and_cluster(f, cover: CoverSpec, db: DbscanSpec) -> list[tuple[int, ...]]:
    """Cluster projected values inside each cover interval.

    Every non-noise DBSCAN cluster of every interval becomes one output
    cluster (a tuple of point indices); overlapping intervals may yield
    clusters sharing points. Points that end up in no cluster at all are kept
    as singletons so no feature is dropped.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise TdaError("cover_and_cluster expects a non-empty 1-D value list")
    clusters: list[tuple[int, ...]] = []
    for a, b in cover_intervals(float(f.min()), float(f.max()), cover):
        inside = np.flatnonzero((f >= a) & (f <= b))
        if inside.size == 0:
            continue
        labels = dbscan(f[inside], db)
        for c in range(int(labels.max()) + 1):
            members = inside[labels == c]
            clusters.append(tuple(int(j) for j in members))
    clustered = set().union(*clusters) if clusters else set()
    for j in range(f.size):
        if j not in clustered:
            clusters.append((j,))
    return clusters


def build_graph(clusters, t: Transaction) -> TransactionGraph:
    """One node per cluster, an edge wherever two clusters share a point.

    Nodes are ordered by their sorted member tuples, so equal inputs always
    produce the identical graph.
    """
    if not clusters:
        raise TdaError("build_graph needs at least one cluster")
    canon = sorted(tuple(sorted({int(j) for j in c})) for c in clusters)
    v = np.asarray(t.v, dtype=float)
    nodes = np.zeros((len(canon), N_FEATURES))
    for k, members in enumerate(canon):
        if not members:
            raise TdaError("clusters must be non-empty")
        if members[0] < 0 or members[-1] >= N_FEATURES:
            raise TdaError(f"cluster indices out of range: {members}")
        idx = list(members)
        nodes[k, idx] = v[idx]
    sets = [set(c) for c in canon]
    edges = tuple(
        (k, l)
        for k in range(len(canon))
        for l in range(k + 1, len(canon))
        if sets[k] & sets[l]
    )
    return TransactionGraph(nodes=nodes, edges=edges, label=t.label)


def transaction_graph(
    t: Transaction,
    cover: CoverSpec = CoverSpec(),
    db: DbscanSpec = DbscanSpec(),
    direction=None,
) -> TransactionGraph:
    """Full pipeline: point cloud -> projection -> covered clustering -> graph."""
    f = project_1d(build_point_cloud(t), direction)
    return build_graph(cover_and_cluster(f, cover, db), t)


def write_graph_corpus(path, graphs) -> None:
    """One JSON record per line: label, node feature vectors, edge list.

    Strict JSON: a NaN or infinite node value raises ``ValueError``.
    """
    with open(path, "w") as fh:
        for g in graphs:
            rec = {
                "label": g.label,
                "nodes": [[float(x) for x in row] for row in g.nodes],
                "edges": [[a, b] for a, b in g.edges],
            }
            fh.write(json.dumps(rec, separators=(",", ":"), allow_nan=False) + "\n")


def _reject_constant(token: str):
    raise TdaError(f"non-finite value {token}")


def read_graph_corpus(path) -> list[TransactionGraph]:
    """The graphs ``write_graph_corpus`` wrote; a NaN or infinite value is a ``TdaError``."""
    graphs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line, parse_constant=_reject_constant)
            except TdaError as exc:
                raise TdaError(f"{path}: line {lineno}: {exc}") from None
            graphs.append(
                TransactionGraph(
                    nodes=np.array(rec["nodes"], dtype=float),
                    edges=tuple((int(a), int(b)) for a, b in rec["edges"]),
                    label=int(rec["label"]),
                )
            )
    return graphs
