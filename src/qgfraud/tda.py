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

The projections are sorted once per transaction, and one two-pointer pass
finds each point's eps-window. Each interval's points are then a slice of the
sorted values, and on a line every DBSCAN cluster is a range of sorted
positions, so an interval's clusters come from one pass over its slice (see
``dbscan``): no pairwise distance matrix, no breadth-first search. Edges come
from each feature's list of the nodes holding it.

A corpus file stores each graph as what it is, one JSON line: the label, the
node count, the 28-value V row, the ascending flat indices ``k * 28 + j`` of
the node-matrix cells that hold ``v[j]``, and the edges. That is about a
third of the bytes of the whole node matrix, and the reader rebuilds the
nodes with one scatter into zeros, bit for bit.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from math import isfinite
from operator import itemgetter

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
    """Values in stable ascending order, with the original index of each. A
    list of floats is taken as it is; anything else goes through numpy."""
    if type(values) is list and values and all(type(x) is float for x in values):
        vals = values
    else:
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise TdaError(f"{what} expects a non-empty 1-D value list")
        vals = v.tolist()
    if not all(map(isfinite, vals)):
        raise TdaError(f"{what} expects finite values")
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return [vals[i] for i in order], order


def _cluster_ranges(s: list[float], idx: list[int], spec: DbscanSpec, slices) -> list[list[int]]:
    """DBSCAN clusters of each slice [lo, hi) of the sorted values ``s``.

    A cluster is ``[a, b, first]``: it holds ``idx[a:b]``, and ``first`` is
    its lowest-index core. Slices come in the given order, each one's
    clusters left to right; see ``dbscan`` for the rules. A point's count in
    a slice is its eps-window clipped to the slice.
    """
    eps, min_pts, n = spec.eps, spec.min_pts, len(s)
    start, stop = [], []  # each point's eps-window: sorted positions [start, stop)
    lo = hi = 0
    # s is sorted and every window holds its own point, so s[lo] <= x <= s[hi]:
    # each difference below is the distance ``abs`` would give
    for x in s:
        while x - s[lo] > eps:
            lo += 1
        while hi < n and s[hi] - x <= eps:
            hi += 1
        start.append(lo)
        stop.append(hi)
    ranges: list[list[int]] = []
    for lo, hi in slices:
        k = len(ranges)
        reach = lo  # end of the eps-window of the last core seen
        for i in range(lo, hi):
            a = start[i]
            b = end = stop[i]
            if a < lo:
                a = lo
            if b > hi:
                b = hi
            if b - a < min_pts:
                continue
            if i < reach:
                run = ranges[-1]
                run[1] = b
                if idx[i] < run[2]:
                    run[2] = idx[i]
            else:
                ranges.append([a, b, idx[i]])
            reach = end
        # neighbouring runs can share only non-cores; they join the run
        # whose lowest-index core is lower
        for left, right in zip(ranges[k:], ranges[k + 1 :]):
            if left[1] > right[0]:
                if left[2] < right[2]:
                    right[0] = left[1]
                else:
                    left[1] = right[0]
    return ranges


def dbscan(values, spec: DbscanSpec) -> np.ndarray:
    """1-D DBSCAN labels; -1 marks noise.

    A point is core iff at least ``min_pts`` values (itself included) lie
    within ``eps`` (inclusive). Clusters are the density-connected components
    of core points, numbered in ascending order of their lowest-index core
    point; a border point keeps the label of the first cluster that reaches
    it, i.e. the lowest-numbered cluster with a core within ``eps``.

    On a line every cluster is a range of sorted positions, so this needs one
    stable sort and one pass, with no pairwise distance matrix. Two pointers
    find each point's eps-window, comparing ``abs(a - b) <= eps`` exactly as
    the definition does, and a point is core iff its window holds
    ``min_pts`` points. Consecutive cores join one run while each lies in
    the window of the one before; the run's cluster spans from the window
    start of its first core to the window end of its last. Two neighbouring
    spans can overlap only on non-cores, which go to the lower-numbered run.
    """
    s, idx = _sorted_values(values, "dbscan")
    labels = np.full(len(s), -1, dtype=int)
    ranges = sorted(_cluster_ranges(s, idx, spec, [(0, len(s))]), key=itemgetter(2))
    for c, (a, b, _) in enumerate(ranges):
        labels[idx[a:b]] = c
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
    cluster (a tuple of point indices in ascending projection order), in
    interval order and left to right within an interval; overlapping
    intervals may yield clusters sharing points. Points that end up in no
    cluster at all follow as singletons so no feature is dropped.
    """
    s, idx = _sorted_values(f, "cover_and_cluster")
    # an interval's points are a contiguous slice of the sorted values, in
    # the order a stable sort of those points alone would give
    slices = [(bisect_left(s, a), bisect_right(s, b)) for a, b in cover_intervals(s[0], s[-1], cover)]
    ranges = _cluster_ranges(s, idx, db, slices)
    held = bytearray(len(s))  # 1 at each sorted position some cluster holds
    for a, b, _ in ranges:
        held[a:b] = b"\x01" * (b - a)
    clusters = [tuple(idx[a:b]) for a, b, _ in ranges]
    clusters += [(j,) for j, h in zip(idx, held) if not h]
    return clusters


def build_graph(clusters, t: Transaction) -> TransactionGraph:
    """One node per cluster, an edge wherever two clusters share a point.

    Nodes are ordered by their sorted member lists, so equal inputs always
    produce the identical graph.
    """
    if not clusters:
        raise TdaError("build_graph needs at least one cluster")
    canon = sorted(map(sorted, clusters))  # sorted lists order as tuples do; a repeat is a self-loop
    if not canon[0]:  # an empty cluster sorts first
        raise TdaError("clusters must be non-empty")
    cols = list(chain.from_iterable(canon))
    if canon[0][0] < 0 or max(cols) >= N_FEATURES:
        raise TdaError(f"cluster indices out of range: {min(cols)}..{max(cols)}")
    owners: list[list[int]] = [[] for _ in range(N_FEATURES)]  # nodes holding each feature so far
    flat, edges = [], set()
    for k, members in enumerate(canon):
        for j in members:
            for other in owners[j]:  # node k shares feature j with each earlier holder
                edges.add((other, k))
            owners[j].append(k)
            flat.append(k * N_FEATURES + j)
    nodes = np.zeros((len(canon), N_FEATURES))
    np.put(nodes, flat, itemgetter(*cols)(t.v))
    return TransactionGraph(nodes=nodes, edges=tuple(sorted(edges)), label=t.label)


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
    weight = float(w[1])
    return build_graph(cover_and_cluster([v * weight for v in t.v], cover, db), t)


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def write_graph_corpus(path, graphs) -> None:
    """One JSON record per line: label, node count, V row, member cells, edges.

    ``v`` is the graph's V row, read off its own nodes; ``cells`` lists, in
    ascending order, the flat indices ``k * 28 + j`` of the node matrix that
    hold ``v[j]``: every cell that is not +0.0, so a -0.0 member keeps its
    sign and a +0.0 one reads back from the zeros around it. A graph whose
    nodes give one feature two different values is not one V row and is a
    ``TdaError``. Strict JSON: a NaN or infinite node value raises
    ``ValueError``.
    """
    with open(path, "w") as fh:
        for g in graphs:
            flat = np.ascontiguousarray(g.nodes, dtype=float).reshape(-1)
            cells = np.flatnonzero(flat.view(np.int64))  # +0.0 is the one float with no bit set
            held, feats = flat[cells], cells % N_FEATURES
            v = np.zeros(N_FEATURES)
            v[feats] = held
            clash = v[feats].view(np.int64) != held.view(np.int64)
            if clash.any():
                raise TdaError(f"the graph's nodes are not one V row: feature {feats[clash][0]} holds two values")
            rec = {"label": g.label, "n_nodes": g.n_nodes, "v": v.tolist(), "cells": cells.tolist(), "edges": g.edges}
            fh.write(_ENCODER.encode(rec) + "\n")


def _reject_constant(token: str):
    raise TdaError(f"non-finite value {token}")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode(rec) -> TransactionGraph:
    """The graph of one ``write_graph_corpus`` record: its V row scattered
    into the listed cells of a zero node matrix."""
    if "nodes" in rec:
        raise TdaError("a dense record from an earlier build-graphs; run build-graphs again")
    n, v, cells = rec["n_nodes"], np.array(rec["v"]), np.array(rec["cells"], ndmin=1)
    if type(n) is not int or n < 1:
        raise TdaError(f"n_nodes must be an integer >= 1, got {n!r}")
    if v.shape != (N_FEATURES,) or v.dtype.kind not in "if":
        raise TdaError(f"v must be a list of {N_FEATURES} numbers")
    if not np.isfinite(v).all():  # a number past the float range parses to inf
        raise TdaError("non-finite node value")
    if cells.ndim != 1 or cells.size and cells.dtype != np.intp:
        raise TdaError("cells must be a list of integers")
    cells = cells.astype(np.intp, copy=False)  # an empty list parses to floats
    if cells.size and (cells[0] < 0 or cells[-1] >= n * N_FEATURES or (cells[1:] <= cells[:-1]).any()):
        raise TdaError(f"cells must ascend strictly inside [0, {n * N_FEATURES}) for {n} nodes")
    nodes = np.zeros((n, N_FEATURES))
    nodes.reshape(-1)[cells] = v[cells % N_FEATURES]
    edges = tuple((int(a), int(b)) for a, b in rec["edges"])
    return TransactionGraph(nodes=nodes, edges=edges, label=int(rec["label"]))


def read_graph_corpus(path) -> list[TransactionGraph]:
    """The graphs ``write_graph_corpus`` wrote. Anything else is a
    ``TdaError`` that names the file and line: a dense record from an earlier
    build-graphs, a NaN or infinite V value, cells that repeat, decrease or
    fall outside the node matrix, a line that is not UTF-8 or not JSON, or a
    record without a field."""
    graphs = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode().strip()
                if line:
                    graphs.append(_decode(_DECODER.decode(line)))
            except KeyError as exc:
                raise TdaError(f"{path}: line {lineno}: record has no {exc} field") from None
            except (TypeError, ValueError) as exc:  # TdaError, JSONDecodeError and UnicodeDecodeError among them
                raise TdaError(f"{path}: line {lineno}: {exc}") from None
    return graphs
