import json
from dataclasses import replace

import numpy as np
import pytest

from qgfraud import sage, tda
from qgfraud.dataset import Transaction
from qgfraud.rng import make_rng
from qgfraud.tda import (
    CoverSpec,
    DbscanSpec,
    TdaError,
    TransactionGraph,
    build_graph,
    cover_and_cluster,
    cover_intervals,
    dbscan,
    read_graph_corpus,
    transaction_graph,
    write_graph_corpus,
)
from tests import oracles
from tests.oracles import brute_dbscan, intersection_edges, oracle_transaction_graph
from tests.synth import random_graphs


def make_transaction(v=None, time=0.5, amount=0.2, label=0, seed=None):
    if v is None:
        if seed is not None:
            v = tuple(float(x) for x in make_rng(seed).normal(size=28))
        else:
            v = (0.0,) * 28
    return Transaction(time=time, v=tuple(v), amount=amount, label=label)


class TestProjection:
    def test_zero_point(self):
        g = transaction_graph(make_transaction(time=0.7, amount=123.0))
        assert g.n_nodes == 1 and g.edges == () and not g.nodes.any()

    def test_unit_point(self):
        # feature 4 projects to w_V = 1/sqrt(3), the other 27 to 0
        v = [0.0] * 28
        v[4] = 1.0
        t = make_transaction(v=v, time=1.0, amount=1.0)
        gap = 1.0 / np.sqrt(3.0)
        joined = transaction_graph(t, CoverSpec(1, 0.0), DbscanSpec(eps=gap, min_pts=2))
        split = transaction_graph(t, CoverSpec(1, 0.0), DbscanSpec(eps=np.nextafter(gap, 0.0), min_pts=2))
        assert joined.n_nodes == 1 and split.n_nodes == 2

    def test_locality(self):
        v = [0.1] * 28
        assert transaction_graph(make_transaction(v=v)).n_nodes == 1
        v[4] = 7.0
        g = transaction_graph(make_transaction(v=v))
        members = sorted(tuple(np.flatnonzero(node).tolist()) for node in g.nodes)
        assert members == [tuple(j for j in range(28) if j != 4), (4,)]

    def test_custom_direction(self):
        # only the V weight of the direction moves points apart
        t = make_transaction(seed=6, time=2.0, amount=5.0)
        want = transaction_graph(t, direction=(0.0, 0.6, 0.0))
        for direction in [(0.8, 0.6, 0.0), (0.0, 0.6, 0.8), (-0.48, 0.6, 0.64)]:
            g = transaction_graph(t, direction=direction)
            assert g.nodes.tobytes() == want.nodes.tobytes() and g.edges == want.edges
        with pytest.raises(TdaError, match="3 components"):
            transaction_graph(t, direction=(0.6, 0.8))


class TestDbscan:
    def test_worked_example(self):
        labels = dbscan([0.0, 0.1, 0.2, 5.0], DbscanSpec(eps=0.15, min_pts=2))
        assert list(labels) == [0, 0, 0, -1]

    def test_identical_values_single_cluster(self):
        labels = dbscan([1.0] * 6, DbscanSpec(eps=0.1, min_pts=3))
        assert list(labels) == [0] * 6

    def test_min_pts_above_n_gives_noise(self):
        labels = dbscan([0.0, 1.0, 2.0], DbscanSpec(eps=10.0, min_pts=4))
        assert list(labels) == [-1, -1, -1]

    def test_matches_brute_force_oracle(self):
        rng = make_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            values = np.round(rng.uniform(0, 2, size=n), 2)
            eps = float(rng.uniform(0.05, 0.8))
            min_pts = int(rng.integers(1, 5))
            got = list(dbscan(values, DbscanSpec(eps=eps, min_pts=min_pts)))
            want = brute_dbscan(values, eps, min_pts)
            assert got == want, (values, eps, min_pts)
        # up to 28 values on a 0.05 grid, with duplicates, and eps a multiple
        # of the step, so gaps land on eps, one float rounding either side
        for _ in range(3000):
            n = int(rng.integers(1, 29))
            values = np.round(rng.integers(0, 40, size=n) * 0.05, 2)
            eps = round(int(rng.integers(1, 9)) * 0.05, 2)
            min_pts = int(rng.integers(1, 7))
            got = list(dbscan(values, DbscanSpec(eps=eps, min_pts=min_pts)))
            want = brute_dbscan(values, eps, min_pts)
            assert got == want, (values, eps, min_pts)

    def test_non_finite_rejected(self):
        with pytest.raises(TdaError, match="finite"):
            dbscan([0.0, float("nan")], DbscanSpec())
        with pytest.raises(TdaError, match="finite"):
            cover_and_cluster(np.array([0.0, float("inf")]), CoverSpec(), DbscanSpec())

    def test_empty_rejected(self):
        with pytest.raises(TdaError):
            dbscan([], DbscanSpec())

    def test_invalid_spec(self):
        with pytest.raises(TdaError):
            DbscanSpec(eps=0.0)
        with pytest.raises(TdaError):
            DbscanSpec(min_pts=0)


class TestRunBoundary:
    """Two runs of cores on a line, with one non-core point between them."""

    LEFT = [-0.9, -0.8, -0.7, 0.0]  # cores; 0.0 lies eps below the border point
    RIGHT = [2.0, 2.7, 2.8, 2.9]  # cores; 2.0 lies eps above it
    SPEC = DbscanSpec(eps=1.0, min_pts=4)  # the border point at 1.0 sees 3 points

    @pytest.mark.parametrize("left_first", [True, False])
    def test_border_joins_the_run_with_the_lower_index(self, left_first):
        first, second = (self.LEFT, self.RIGHT) if left_first else (self.RIGHT, self.LEFT)
        values = first + [1.0] + second
        assert brute_dbscan(values, self.SPEC.eps, self.SPEC.min_pts) == [0] * 5 + [1] * 4
        assert list(dbscan(values, self.SPEC)) == [0] * 5 + [1] * 4
        clusters = cover_and_cluster(np.array(values), CoverSpec(1, 0.0), self.SPEC)
        assert sorted(map(sorted, clusters)) == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]

    def test_min_pts_one_makes_every_point_core(self):
        values = [0.0, 5.0, 0.5, 10.0, 5.5]
        db = DbscanSpec(eps=0.5, min_pts=1)
        assert list(dbscan(values, db)) == [0, 1, 0, 2, 1]
        clusters = cover_and_cluster(np.array(values), CoverSpec(1, 0.0), db)
        assert sorted(map(sorted, clusters)) == [[0, 2], [1, 4], [3]]

    def test_min_pts_above_an_interval_count_leaves_singletons(self):
        # every eps-window holds all 28 points, but each of the four disjoint
        # intervals holds only 7, so inside the cover every point is noise
        v = np.linspace(0.1, 2.8, 28)
        db = DbscanSpec(eps=10.0, min_pts=8)
        assert list(dbscan(v, db)) == [0] * 28
        assert sorted(cover_and_cluster(v, CoverSpec(4, 0.0), db)) == [(j,) for j in range(28)]
        g = transaction_graph(make_transaction(v=v.tolist()), CoverSpec(4, 0.0), db)
        assert g.edges == () and np.array_equal(g.nodes, np.diag(v))


class TestCover:
    def test_degenerate_range(self):
        assert cover_intervals(1.0, 1.0, CoverSpec(4, 0.5)) == [(1.0, 1.0)]

    def test_spans_range_exactly(self):
        ivals = cover_intervals(0.0, 10.0, CoverSpec(4, 0.5))
        assert ivals[0][0] == 0.0
        assert ivals[-1][1] == 10.0
        for (a0, b0), (a1, b1) in zip(ivals, ivals[1:]):
            # consecutive intervals overlap by half an interval length
            assert (b0 - a1) == pytest.approx(0.5 * (b0 - a0), rel=1e-9)

    def test_matches_oracle_endpoints(self):
        cases = np.random.default_rng(8)
        for _ in range(500):
            lo, hi = np.sort(cases.normal(scale=3.0, size=2))
            n, overlap = int(cases.integers(1, 9)), float(cases.uniform(0.0, 0.9))
            got = cover_intervals(float(lo), float(hi), CoverSpec(n, overlap))
            assert got == oracles.cover_intervals(float(lo), float(hi), n, overlap)
            assert got[-1][1] == hi

    def test_all_equal_projections_single_cluster(self):
        f = np.zeros(28)
        clusters = cover_and_cluster(f, CoverSpec(4, 0.5), DbscanSpec(0.1, 2))
        assert clusters == [tuple(range(28))]

    def test_separated_groups_partition(self):
        f = np.concatenate([np.linspace(0, 0.1, 14), np.linspace(10.0, 10.1, 14)])
        clusters = cover_and_cluster(f, CoverSpec(2, 0.0), DbscanSpec(eps=0.15, min_pts=2))
        assert sorted(clusters) == [tuple(range(14)), tuple(range(14, 28))]

    def test_overlap_band_point_in_two_clusters(self):
        f = np.linspace(0.0, 1.0, 28)
        clusters = cover_and_cluster(f, CoverSpec(2, 0.5), DbscanSpec(eps=0.1, min_pts=2))
        # indices projecting into [1/3, 2/3] sit in both intervals
        shared = [j for j in range(28) if 1 / 3 <= f[j] <= 2 / 3]
        counts = {j: sum(j in c for c in clusters) for j in shared}
        assert all(v >= 2 for v in counts.values())

    def test_noise_becomes_singleton(self):
        f = np.zeros(28)
        f[27] = 100.0
        f[:27] = np.linspace(0, 0.5, 27)
        clusters = cover_and_cluster(f, CoverSpec(1, 0.0), DbscanSpec(eps=0.05, min_pts=3))
        assert (27,) in clusters
        assert set().union(*clusters) == set(range(28))


class TestBuildGraph:
    def test_single_cluster(self):
        t = make_transaction(seed=3)
        g = build_graph([tuple(range(28))], t)
        assert g.n_nodes == 1
        assert g.edges == ()
        assert np.array_equal(g.nodes[0], np.asarray(t.v))

    def test_disjoint_clusters_no_edges(self):
        g = build_graph([(0, 1), (2, 3)], make_transaction(seed=3))
        assert g.n_nodes == 2 and g.edges == ()

    def test_worked_example(self):
        g = build_graph([(1, 2), (2, 3), (4,)], make_transaction(seed=3))
        assert g.n_nodes == 3
        assert g.edges == ((0, 1),)

    def test_matches_intersection_oracle(self):
        rng = make_rng(8)
        for _ in range(50):
            n_clusters = int(rng.integers(1, 9))
            clusters = []
            for _ in range(n_clusters):
                size = int(rng.integers(1, 7))
                clusters.append(tuple(sorted(set(int(x) for x in rng.integers(0, 28, size=size)))))
            g = build_graph(clusters, make_transaction(seed=1))
            canon = sorted(tuple(sorted(set(c))) for c in clusters)
            assert set(g.edges) == intersection_edges(canon)

    def test_member_listed_twice_is_a_self_loop(self):
        with pytest.raises(TdaError, match="self-loop on node 0"):
            build_graph([(0, 3, 3), (5,)], make_transaction(seed=5))

    def test_node_feature_sparsity(self):
        t = make_transaction(seed=5)
        g = build_graph([(0, 3), (5,)], t)
        v = np.asarray(t.v)
        expected0 = np.zeros(28)
        expected0[[0, 3]] = v[[0, 3]]
        assert np.array_equal(g.nodes[0], expected0)
        assert np.flatnonzero(g.nodes[1]).tolist() == [5] or v[5] == 0.0


def adjacency(g):
    """0/1 matrix of the neighbour lists the models read a graph through."""
    a = np.zeros((g.n_nodes, g.n_nodes), dtype=int)
    for i, neighbours in enumerate(sage.neighbor_lists(g)):
        a[i, neighbours] = 1
    return a


class TestAdjacency:
    def test_five_node_reference(self):
        # directed reference: A->B, B->C, B->D, C->E, D->A, E->D; symmetrised
        nodes = np.zeros((5, 28))
        nodes[:, 0] = 1.0
        edges = ((0, 1), (1, 2), (1, 3), (2, 4), (0, 3), (3, 4))
        g = TransactionGraph(nodes=nodes, edges=edges, label=0)
        a = adjacency(g)
        expected = np.zeros((5, 5), dtype=int)
        for i, j in edges:
            expected[i, j] = expected[j, i] = 1
        assert np.array_equal(a, expected)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)

    def test_edgeless(self):
        g = TransactionGraph(nodes=np.ones((3, 28)), edges=(), label=1)
        assert np.array_equal(adjacency(g), np.zeros((3, 3), dtype=int))

    def test_complete_triangle(self):
        g = TransactionGraph(nodes=np.ones((3, 28)), edges=((0, 1), (0, 2), (1, 2)), label=0)
        assert np.array_equal(adjacency(g), np.ones((3, 3), dtype=int) - np.eye(3, dtype=int))


class TestGraphInvariants:
    def test_pipeline_properties(self):
        rng = make_rng(12)
        for i in range(40):
            v = rng.normal(size=28) * float(rng.uniform(0.5, 3.0))
            t = Transaction(
                time=float(rng.uniform(0, 1)),
                v=tuple(float(x) for x in v),
                amount=float(rng.uniform(0, 1)),
                label=int(rng.integers(0, 2)),
            )
            g = transaction_graph(t)
            assert 1 <= g.n_nodes <= 28
            a = adjacency(g)
            assert np.array_equal(a, a.T) and np.all(np.diag(a) == 0)
            # the nonzero coordinates of all nodes cover the features, each
            # keeping its own value
            member = g.nodes != 0.0
            assert member.any(axis=0).all()
            assert np.array_equal(g.nodes[member], np.broadcast_to(v, g.nodes.shape)[member])

    def test_deterministic_construction(self):
        t = make_transaction(seed=9, label=1)
        g1 = transaction_graph(t)
        g2 = transaction_graph(t)
        assert np.array_equal(g1.nodes, g2.nodes)
        assert g1.edges == g2.edges and g1.label == 1


PIPELINE_SETTINGS = [
    (CoverSpec(), DbscanSpec()),
    (CoverSpec(4, 0.75), DbscanSpec(0.1, 2)),
    (CoverSpec(1, 0.0), DbscanSpec(0.15, 3)),
    (CoverSpec(2, 0.0), DbscanSpec(0.3, 1)),
    (CoverSpec(6, 0.6), DbscanSpec(0.05, 2)),
    (CoverSpec(3, 0.25), DbscanSpec(0.2, 5)),
    (CoverSpec(8, 0.75), DbscanSpec(0.4, 4)),
]


def pipeline_inputs():
    """300 seeded transactions, every odd one with its V features rounded."""
    rng = make_rng(31)
    for i in range(300):
        v = rng.normal(size=28) * float(rng.uniform(0.3, 3.0))
        if i % 2:
            v = np.round(v, 1)  # duplicate values and tied gaps
        yield i, Transaction(
            time=float(rng.uniform(0, 1)),
            v=tuple(float(x) for x in v),
            amount=float(rng.uniform(0, 1)),
            label=int(rng.integers(0, 2)),
        )


class TestPipelineOracle:
    def test_matches_oracle_graph(self):
        over_28 = 0
        for i, t in pipeline_inputs():
            for cover, db in PIPELINE_SETTINGS:
                g = transaction_graph(t, cover, db)
                nodes, edges = oracle_transaction_graph(t, cover, db)
                assert g.nodes.tobytes() == nodes.tobytes() and g.nodes.shape == nodes.shape, (i, cover, db)
                assert list(g.edges) == edges, (i, cover, db)
                over_28 += g.n_nodes > 28
        assert over_28 > 0  # overlapping covers do give graphs above 28 nodes

    def test_ignores_time_and_amount(self):
        # time and amount shift every projection alike, so zeroing them
        # changes no graph, tied gaps included
        for i, t in pipeline_inputs():
            still = replace(t, time=0.0, amount=0.0)
            for cover, db in PIPELINE_SETTINGS:
                g, want = transaction_graph(t, cover, db), transaction_graph(still, cover, db)
                assert g.nodes.tobytes() == want.nodes.tobytes() and g.edges == want.edges, (i, cover, db)


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(TdaError):
            TransactionGraph(nodes=np.ones((2, 28)), edges=((1, 1),), label=0)

    def test_rejects_duplicate_edge(self):
        with pytest.raises(TdaError):
            TransactionGraph(nodes=np.ones((2, 28)), edges=((0, 1), (1, 0)), label=0)

    def test_rejects_empty(self):
        with pytest.raises(TdaError):
            TransactionGraph(nodes=np.ones((0, 28)), edges=(), label=0)

    @pytest.mark.parametrize("edge", [(0, -1), (-1, 1), (0, 3), (3, 1)])
    def test_rejects_edge_out_of_range(self, edge):
        with pytest.raises(TdaError, match=rf"edge \({edge[0]}, {edge[1]}\) out of range for 3 nodes"):
            TransactionGraph(nodes=np.ones((3, 28)), edges=((0, 1), edge), label=0)

    @pytest.mark.parametrize("shape", [(2, 27), (2, 29), (28,), (1, 2, 28)])
    def test_rejects_nodes_not_n_by_28(self, shape):
        with pytest.raises(TdaError, match="nodes must be"):
            TransactionGraph(nodes=np.ones(shape), edges=(), label=0)

    def test_rejects_label_2(self):
        with pytest.raises(TdaError, match="label must be 0 or 1, got 2"):
            TransactionGraph(nodes=np.ones((1, 28)), edges=(), label=2)

    @pytest.mark.parametrize("edges, message", [
        (((0, 1), (1, 0), (2, 2)), r"duplicate edge \(0, 1\)"),
        (((0, 1), (2, 2), (1, 0)), "self-loop on node 2"),
        (((1, 2), (0, 4), (1, 1)), r"edge \(0, 4\) out of range for 3 nodes"),
        (((2, 1), (1, 2)), r"duplicate edge \(1, 2\)"),
    ])
    def test_names_the_first_bad_edge(self, edges, message):
        with pytest.raises(TdaError, match=message):
            TransactionGraph(nodes=np.ones((3, 28)), edges=edges, label=0)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        rng = make_rng(4)
        graphs = []
        for _ in range(10):
            t = Transaction(
                time=float(rng.uniform(0, 1)),
                v=tuple(float(x) for x in rng.normal(size=28)),
                amount=float(rng.uniform(0, 1)),
                label=int(rng.integers(0, 2)),
            )
            graphs.append(transaction_graph(t))
        path = tmp_path / "corpus.jsonl"
        write_graph_corpus(path, graphs)
        back = read_graph_corpus(path)
        assert len(back) == len(graphs)
        for a, b in zip(graphs, back):
            assert np.array_equal(a.nodes, b.nodes)
            assert a.edges == b.edges and a.label == b.label

    def test_round_trip_is_bit_exact(self, tmp_path):
        # the pipeline graphs, and the tie-heavy ones whose members include
        # -0.0 and +0.0, come back with the same node bytes
        graphs = [transaction_graph(t, cover, db) for _, t in pipeline_inputs() for cover, db in PIPELINE_SETTINGS]
        graphs += [transaction_graph(t, cover, db) for t, cover, db in tie_heavy_cases()]
        path = tmp_path / "corpus.jsonl"
        write_graph_corpus(path, graphs)
        back = read_graph_corpus(path)
        assert len(back) == len(graphs)
        for a, b in zip(graphs, back):
            assert a.nodes.shape == b.nodes.shape and a.nodes.tobytes() == b.nodes.tobytes()
            assert a.edges == b.edges and a.label == b.label
        assert sum(np.signbit(g.nodes[g.nodes == 0.0]).any() for g in back) > 100

    def test_write_rejects_nodes_that_are_not_one_v_row(self, tmp_path):
        g = next(g for g in random_graphs(10, seed=3) if g.n_nodes > 1)
        with pytest.raises(TdaError, match="the graph's nodes are not one V row: feature 0 holds two values"):
            write_graph_corpus(tmp_path / "c.jsonl", [g])

    def test_write_is_deterministic(self, tmp_path):
        t = make_transaction(seed=2, label=1)
        g = transaction_graph(t)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_graph_corpus(p1, [g])
        write_graph_corpus(p2, [g])
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_rejects_non_finite(self, tmp_path):
        nodes = np.zeros((2, 28))
        nodes[1, 3] = np.nan
        with pytest.raises(ValueError):
            write_graph_corpus(tmp_path / "c.jsonl", [TransactionGraph(nodes=nodes, edges=((0, 1),), label=1)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_read_rejects_non_finite(self, tmp_path, bad):
        # a file written by a JSON encoder that is not strict can hold NaN/Infinity tokens
        good = {"label": 0, "n_nodes": 1, "v": [0.5] * 28, "cells": list(range(28)), "edges": []}
        poisoned = {"label": 1, "n_nodes": 1, "v": [0.0] * 3 + [bad] + [0.0] * 24, "cells": [3], "edges": []}
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in (good, poisoned)))
        with pytest.raises(TdaError, match="line 2: non-finite value"):
            read_graph_corpus(path)


def tie_heavy_v(rng) -> tuple:
    """28 V values rounded to 0-2 decimals: exact ties, repeated values and -0.0."""
    v = np.round(rng.normal(size=28) * float(rng.uniform(0.2, 3.0)), int(rng.integers(0, 3)))
    return tuple(v.tolist())


def tie_heavy_cases():
    """2000 seeded (transaction, cover, DBSCAN spec) triples on tie-heavy V rows."""
    rng = make_rng(1414)
    for case in range(2000):
        t = make_transaction(v=tie_heavy_v(rng), label=case % 2)
        cover = CoverSpec(int(rng.integers(1, 7)), float(rng.uniform(0.0, 0.9)))
        db = DbscanSpec(float(rng.uniform(0.01, 1.0)), int(rng.integers(1, 6)))
        yield t, cover, db


class TestAwkwardInputs:
    """``transaction_graph`` on inputs that are legal but unusual."""

    @pytest.mark.parametrize("cover, db", PIPELINE_SETTINGS)
    def test_value_types_give_identical_graphs(self, cover, db):
        rng = make_rng(57)
        rows = [rng.integers(-4, 5, size=28), np.round(rng.normal(size=28), 1)]
        for row in rows:
            forms = [tuple(row.tolist()), tuple(np.float64(x) for x in row)]
            if row.dtype.kind == "i":
                forms.append(tuple(int(x) for x in row))
            graphs = [transaction_graph(make_transaction(v=v), cover, db) for v in forms]
            for g in graphs[1:]:
                assert g.nodes.shape == graphs[0].nodes.shape and g.nodes.tobytes() == graphs[0].nodes.tobytes()
                assert g.edges == graphs[0].edges and g.label == graphs[0].label

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_v_value_rejected(self, bad):
        v = list(make_transaction(seed=4).v)
        v[5] = bad
        with pytest.raises(TdaError, match="finite"):
            transaction_graph(make_transaction(v=v))

    @pytest.mark.parametrize("min_pts", [1, 2, 3])
    def test_gap_equal_to_eps_matches_oracle(self, min_pts):
        # eps set to one gap between neighbouring projections, computed as the
        # clustering computes it, so that gap lies exactly on eps; then one
        # float below it, so the gap is just wider than eps
        weight = float(np.asarray(tda.DEFAULT_PROJECTION)[1])
        rng = make_rng(91)
        for case in range(40):
            v = np.round(rng.normal(size=28) * float(rng.uniform(0.3, 2.0)), int(rng.integers(1, 3)))
            t = make_transaction(v=tuple(v.tolist()))
            s = sorted(x * weight for x in t.v)
            gaps = [y - x for x, y in zip(s, s[1:]) if y > x]
            gap = gaps[int(rng.integers(len(gaps)))]
            for eps in (gap, np.nextafter(gap, 0.0)):
                for cover in (CoverSpec(1, 0.0), CoverSpec(4, 0.5), CoverSpec(3, 0.3)):
                    db = DbscanSpec(float(eps), min_pts)
                    g = transaction_graph(t, cover, db)
                    nodes, edges = oracle_transaction_graph(t, cover, db)
                    assert g.nodes.shape == nodes.shape and g.nodes.tobytes() == nodes.tobytes(), (case, eps, cover)
                    assert list(g.edges) == edges, (case, eps, cover)


class TestTieHeavyOracle:
    def test_graphs_match_oracle(self):
        negative_zeros = 0
        for case, (t, cover, db) in enumerate(tie_heavy_cases()):
            g = transaction_graph(t, cover, db)
            nodes, edges = oracle_transaction_graph(t, cover, db)
            # tobytes tells 0.0 from -0.0
            assert g.nodes.shape == nodes.shape and g.nodes.tobytes() == nodes.tobytes(), (case, t.v, cover, db)
            assert list(g.edges) == edges, (case, t.v, cover, db)
            negative_zeros += any(np.signbit(x) and x == 0.0 for x in t.v)
        assert negative_zeros > 100

    def test_dbscan_matches_brute_force(self):
        rng = make_rng(1415)
        for case in range(1500):
            n = int(rng.integers(1, 29))
            values = np.round(rng.normal(size=n) * float(rng.uniform(0.2, 3.0)), int(rng.integers(0, 3)))
            eps = float(rng.uniform(0.01, 1.0))
            min_pts = int(rng.integers(1, 7))
            got = list(dbscan(values, DbscanSpec(eps=eps, min_pts=min_pts)))
            assert got == brute_dbscan(values, eps, min_pts), (case, values.tolist(), eps, min_pts)
