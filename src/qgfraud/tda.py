"""Per-transaction graph construction.

One transaction becomes a small undirected graph in three moves: project its
28 features onto a line, cluster the projections inside overlapping intervals
with DBSCAN, and connect clusters that share points. Feature j projects to
``v_j * w_V``, w_V being the V weight of the paper's unit (time, V, amount)
direction: time and amount shift all 28 points by one constant, which neither
the min-max-anchored cover nor DBSCAN sees. Node k carries a 28-dim vector
that is zero everywhere except at the coordinates of its cluster's points,
which keep their feature values, so the node vectors of a graph jointly cover
all 28 features. Overlapping intervals can put a point in several clusters, so
a graph can have more than 28 nodes.

The projections are sorted once per transaction. Each interval's points are
then a slice of the sorted values, and DBSCAN on a line is a scan of that
slice (see ``dbscan``): no pairwise distance matrix, no breadth-first search.
Edges come from one boolean cluster-by-feature membership matrix M: clusters
k and l share a point iff (M M^T)[k, l] is nonzero.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
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
class TransactionGraph:
    """Cluster graph of one transaction: node features, undirected edges, label."""

    nodes: np.ndarray
    edges: tuple[tuple[int, int], ...]
    label: int

    def __post_init__(self) -> None:
        if self.nodes.ndim != 2 or self.nodes.shape[1] != N_FEATURES:
            raise TdaError(f"nodes must be (n, {N_FEATURES}), got {self.nodes.shape}")
        n = self.nodes.shape[0]
        if n < 1:
            raise TdaError(f"a graph needs at least one node, got {n}")
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


def _sorted_values(values, what: str) -> tuple[list[float], list[int]]:
    """Values in stable ascending order, with the original index of each."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise TdaError(f"{what} expects a non-empty 1-D value list")
    if not np.isfinite(v).all():
        raise TdaError(f"{what} expects finite values")
    order = np.argsort(v, kind="stable")
    return v[order].tolist(), order.tolist()


def _scan_clusters(s: list[float], idx: list[int], spec: DbscanSpec) -> list[list[int]]:
    """DBSCAN clusters of the sorted values ``s`` as lists of their indices ``idx``,
    in cluster-number order; see ``dbscan`` for the rules."""
    eps = spec.eps
    n = len(s)
    core = []
    lo = hi = 0
    for x in s:
        while abs(x - s[lo]) > eps:
            lo += 1
        while hi + 1 < n and abs(s[hi + 1] - x) <= eps:
            hi += 1
        core.append(hi - lo + 1 >= spec.min_pts)

    runs: list[list[int]] = []  # members of each run of cores, left to right
    run_of = [-1] * n
    prev = -1
    for i in range(n):
        if core[i]:
            if prev < 0 or abs(s[i] - s[prev]) > eps:
                runs.append([])
            runs[-1].append(idx[i])
            run_of[i] = len(runs) - 1
            prev = i
    first = [min(r) for r in runs]

    left = [-1] * n  # run of the nearest core left of point i, if within eps
    near = -1
    for i in range(n):
        if core[i]:
            near = i
        elif near >= 0 and abs(s[i] - s[near]) <= eps:
            left[i] = run_of[near]
    near = -1
    for i in range(n - 1, -1, -1):
        if core[i]:
            near = i
            continue
        r = left[i]
        if near >= 0 and abs(s[near] - s[i]) <= eps:
            if r < 0 or first[run_of[near]] < first[r]:
                r = run_of[near]
        if r >= 0:
            runs[r].append(idx[i])
    return [runs[r] for r in sorted(range(len(runs)), key=first.__getitem__)]


def dbscan(values, spec: DbscanSpec) -> np.ndarray:
    """1-D DBSCAN labels; -1 marks noise.

    A point is core iff at least ``min_pts`` values (itself included) lie
    within ``eps`` (inclusive). Clusters are the density-connected components
    of core points, numbered in ascending order of their lowest-index core
    point; a border point keeps the label of the first cluster that reaches
    it, i.e. the lowest-numbered cluster with a core within ``eps``.

    On a line this needs one stable sort and a scan, with no pairwise
    distance matrix. Each point's eps-window is found with two pointers,
    comparing ``abs(a - b) <= eps`` exactly as the definition does. A cluster
    is a run of consecutive core points (in sorted order) whose gaps are
    within ``eps``. All cores within ``eps`` on one side of a border point
    belong to one cluster, so the point takes the lower-numbered cluster of
    its nearest core on each side that lies within ``eps``.
    """
    s, idx = _sorted_values(values, "dbscan")
    labels = np.full(len(s), -1, dtype=int)
    for c, members in enumerate(_scan_clusters(s, idx, spec)):
        labels[members] = c
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
    s, idx = _sorted_values(f, "cover_and_cluster")
    clusters: list[tuple[int, ...]] = []
    for a, b in cover_intervals(s[0], s[-1], cover):
        # an interval's points are a contiguous slice of the sorted values,
        # in the order a stable sort of those points alone would give
        lo, hi = bisect_left(s, a), bisect_right(s, b)
        if lo < hi:
            clusters.extend(tuple(sorted(m)) for m in _scan_clusters(s[lo:hi], idx[lo:hi], db))
    clustered = set().union(*clusters) if clusters else set()
    for j in range(len(s)):
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
    canon = sorted(tuple(sorted(set(map(int, c)))) for c in clusters)
    for members in canon:
        if not members:
            raise TdaError("clusters must be non-empty")
        if members[0] < 0 or members[-1] >= N_FEATURES:
            raise TdaError(f"cluster indices out of range: {members}")
    member = np.zeros((len(canon), N_FEATURES), dtype=bool)
    member[[k for k, m in enumerate(canon) for _ in m], [j for m in canon for j in m]] = True
    nodes = np.where(member, np.asarray(t.v, dtype=float), 0.0)
    # clusters k < l share a point iff (member @ member.T)[k, l]
    rows, cols = np.nonzero(member @ member.T)
    edges = tuple((k, l) for k, l in zip(rows.tolist(), cols.tolist()) if k < l)
    return TransactionGraph(nodes=nodes, edges=edges, label=t.label)


def transaction_graph(
    t: Transaction,
    cover: CoverSpec = CoverSpec(),
    db: DbscanSpec = DbscanSpec(),
    direction=None,
) -> TransactionGraph:
    """Full pipeline: projection along ``direction``'s V weight -> covered clustering -> graph."""
    w = np.asarray(DEFAULT_PROJECTION if direction is None else direction, dtype=float)
    if w.shape != (3,):
        raise TdaError(f"projection direction must have 3 components, got {w.shape}")
    f = np.asarray(t.v, dtype=float) * w[1]
    return build_graph(cover_and_cluster(f, cover, db), t)


def write_graph_corpus(path, graphs) -> None:
    """One JSON record per line: label, node feature vectors, edge list.

    Strict JSON: a NaN or infinite node value raises ``ValueError``.
    """
    with open(path, "w") as fh:
        for g in graphs:
            rec = {
                "label": g.label,
                "nodes": g.nodes.tolist(),
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
