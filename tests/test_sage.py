from dataclasses import dataclass

import numpy as np
import pytest

from qgfraud import sage
from qgfraud.rng import make_rng
from qgfraud.tda import TransactionGraph
from qgfraud.training import TrainConfig, TrainingError
from tests import oracles
from tests.oracles import fd_grad, flatten_params, unflatten_params
from tests.synth import random_graphs, separable_four_graphs


def graph_with(nodes, edges=(), label=1):
    return TransactionGraph(nodes=np.asarray(nodes, dtype=float), edges=tuple(edges), label=label)


@dataclass
class FakeGraph:
    """Graph stand-in with arbitrary feature width for small gradient checks."""

    nodes: np.ndarray
    edges: tuple
    label: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def small_graph(n_feat=28):
    # path graph 0-1-2 with fixed small features
    nodes = np.zeros((3, n_feat))
    nodes[0, 0], nodes[0, 1] = 1.0, 2.0
    nodes[1, 0], nodes[1, 1] = 3.0, -1.0
    nodes[2, 1] = 0.5
    return graph_with(nodes, edges=((0, 1), (1, 2)))


def tiny_params(in_dim, width, dropout=0.0, seed=0):
    rng = make_rng(seed)
    return sage.init_sage_params(rng, in_dim=in_dim, widths=(width, width), dropout=dropout)


def neighbour_mean(g, h, v):
    """Node v's neighbour mean as a layer computes it in eval mode (no dropout)."""
    return oracles.sage_masked_mean(np.asarray(h, dtype=float), sage.neighbor_lists(g)[v], 0.0, None)[0]


def layer(g, h, params, rng=None, train_mode=False, fan_out=None):
    """One convolution over all nodes; the (n, 2*width) activations."""
    return sage._layer_forward(np.asarray(h, dtype=float), sage.neighbor_lists(g), params, rng, train_mode, fan_out)[0]


class TestMeanAggregate:
    def test_single_neighbor_no_dropout(self):
        g = graph_with(np.zeros((2, 28)), edges=((0, 1),))
        h = np.arange(4.0).reshape(2, 2)
        np.testing.assert_array_equal(neighbour_mean(g, h, 0), h[1])

    def test_two_neighbors_mean(self):
        g = graph_with(np.zeros((3, 28)), edges=((0, 1), (0, 2)))
        h = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(neighbour_mean(g, h, 0), [0.5, 0.5])

    def test_isolated_node_gives_zeros(self):
        g = graph_with(np.zeros((2, 28)))
        h = np.ones((2, 3))
        np.testing.assert_array_equal(neighbour_mean(g, h, 0), np.zeros(3))

    def test_matches_plain_mean(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g_edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
            g = graph_with(np.zeros((n, 28)), edges=tuple(g_edges))
            h = rng.normal(size=(n, 4))
            adj = sage.neighbor_lists(g)
            for v in range(n):
                got = neighbour_mean(g, h, v)
                want = h[adj[v]].mean(axis=0) if adj[v].size else np.zeros(4)
                np.testing.assert_allclose(got, want, atol=1e-14)

    def test_dropout_requires_rng(self):
        g = small_graph()
        params = tiny_params(28, 4, dropout=0.5, seed=0)
        with pytest.raises(TrainingError, match="requires an RNG"):
            sage.sage_forward(g, params, rng=None, train_mode=True)


class TestSageLayer:
    def test_zero_weights_zero_output(self):
        g = small_graph(n_feat=28)
        params = sage.SageLayerParams(np.zeros((2, 28)), np.zeros((2, 28)), np.zeros(4))
        out = layer(g, g.nodes, params)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_decoupled_halves(self):
        g = small_graph(n_feat=28)
        w_self = np.zeros((2, 28))
        w_self[0, 0], w_self[1, 1] = 1.0, 1.0  # picks out the first two features
        params = sage.SageLayerParams(w_self, np.zeros((2, 28)), np.zeros(4))
        out = layer(g, g.nodes, params)
        np.testing.assert_array_equal(out[:, :2], np.maximum(g.nodes[:, :2], 0.0))
        np.testing.assert_array_equal(out[:, 2:], np.zeros((3, 2)))

    def test_hand_computed_instance(self):
        # 3-node path, 2-dim features, width-2 layer, no dropout; values worked
        # out by hand from the mean-aggregate + concat update rule
        h = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.5]])
        g = graph_with(np.zeros((3, 28)), edges=((0, 1), (1, 2)))
        params = sage.SageLayerParams(
            w_self=np.array([[1.0, 0.0], [0.0, 1.0]]),
            w_neigh=np.array([[0.5, 0.5], [1.0, -1.0]]),
            b=np.array([0.1, -0.2, 0.0, 0.3]),
        )
        out = layer(g, h, params)
        expected = np.array(
            [
                [1.1, 1.8, 1.0, 4.3],
                [3.1, 0.0, 0.875, 0.0],
                [0.1, 0.3, 1.0, 4.3],
            ]
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)


def same_bits(a, b) -> bool:
    """Equal to the last bit, the sign of a zero included."""
    a, b = (np.ascontiguousarray(x, dtype=float) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestLayersMatchPerNodeOracle:
    """The vectorised layers reproduce the node-by-node reference bit for bit,
    and leave the rng where it leaves it, so the draws come in the same order."""

    @staticmethod
    def random_case(rng):
        n = int(rng.integers(1, 13))
        # inputs of the model's layers have 28 or 2 * width columns; with one
        # column numpy's mean sums a node's rows pairwise rather than in order
        d = int(rng.integers(2, 9))
        width = int(rng.integers(1, 5))
        density = rng.choice([0.0, 0.3, 0.9])
        edges = tuple((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density)
        h = rng.normal(size=(n, d))
        h[rng.random((n, d)) < 0.2] = 0.0
        h[rng.random((n, d)) < 0.1] = -0.0
        params = sage.SageLayerParams(
            rng.normal(size=(width, d)), rng.normal(size=(width, d)), rng.normal(size=2 * width),
            dropout_p=float(rng.choice([0.0, 0.3])),
        )
        return FakeGraph(np.zeros((n, 1)), edges, 0), h, params

    @pytest.mark.parametrize("train_mode", [False, True])
    @pytest.mark.parametrize("fan_out", [None, 1, 3])
    def test_forward_and_backward_match(self, train_mode, fan_out):
        cases = make_rng(40 + 7 * (fan_out or 0) + train_mode)
        paths = set()
        for _ in range(60):
            g, h, params = self.random_case(cases)
            adj = sage.neighbor_lists(g)
            seed = int(cases.integers(2**32))
            rng_ref, rng_new = make_rng(seed), make_rng(seed)
            out_ref, cache_ref = oracles.sage_layer_forward(h, adj, params, rng_ref, train_mode, fan_out)
            out_new, cache_new = sage._layer_forward(h, adj, params, rng_new, train_mode, fan_out)
            assert same_bits(out_new, out_ref)
            assert same_bits(cache_new[3], cache_ref[3])  # pre-activations
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
            d_out = cases.normal(size=out_ref.shape)
            d_h_ref, grads_ref = oracles.sage_layer_backward(d_out, params, cache_ref)
            d_pre, grads_new = sage._layer_grads(d_out, params, cache_new)
            d_h_new = sage._input_cotangent(d_pre, params, cache_new)
            assert same_bits(d_h_new, d_h_ref)
            assert sorted(grads_new) == sorted(grads_ref)
            for key in grads_ref:
                assert same_bits(grads_new[key], grads_ref[key]), key
            samples = fan_out is not None and any(nb.size > fan_out for nb in adj)
            paths.add((train_mode and samples, params.dropout_p, any(nb.size == 0 for nb in adj)))
        # every case the layer tells apart came up: sampling or not (train
        # mode), dropout 0 and 0.3, with and without isolated nodes
        sampled = {True, False} if train_mode and fan_out is not None else {False}
        assert {s for s, _, _ in paths} == sampled
        assert {p for _, p, _ in paths} == {0.0, 0.3}
        assert {i for _, _, i in paths} == {True, False}


    def test_one_column_input_matches_to_rounding(self):
        # numpy's mean over a (k, 1) block sums pairwise, so the oracle and
        # the in-order bincount may differ in the last bits; draws still match
        cases = make_rng(77)
        for _ in range(40):
            n = int(cases.integers(2, 20))
            edges = tuple((a, b) for a in range(n) for b in range(a + 1, n) if cases.random() < 0.7)
            h = cases.normal(size=(n, 1))
            params = sage.SageLayerParams(cases.normal(size=(2, 1)), cases.normal(size=(2, 1)), np.zeros(4), 0.3)
            adj = sage.neighbor_lists(FakeGraph(np.zeros((n, 1)), edges, 0))
            rng_ref, rng_new = make_rng(5), make_rng(5)
            out_ref, _ = oracles.sage_layer_forward(h, adj, params, rng_ref, True, None)
            out_new, _ = sage._layer_forward(h, adj, params, rng_new, True, None)
            np.testing.assert_allclose(out_new, out_ref, rtol=1e-13, atol=1e-13)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestSageForward:
    def test_zero_head_gives_half(self):
        g = small_graph()
        params = tiny_params(28, 4, seed=1)
        params.head_w = np.zeros_like(params.head_w)
        params.head_b = 0.0
        assert sage.sage_forward(g, params) == pytest.approx(0.5, abs=1e-12)

    def test_single_node_edgeless(self):
        nodes = np.zeros((1, 28))
        nodes[0, :3] = [1.0, -2.0, 0.5]
        g = graph_with(nodes)
        params = tiny_params(28, 4, seed=2)
        p = sage.sage_forward(g, params)
        assert 0.0 < p < 1.0
        # neighbour halves contribute nothing for an isolated node
        zeroed = sage.SageModelParams(
            layer1=sage.SageLayerParams(
                params.layer1.w_self, np.zeros_like(params.layer1.w_neigh), params.layer1.b
            ),
            layer2=sage.SageLayerParams(
                params.layer2.w_self, np.zeros_like(params.layer2.w_neigh), params.layer2.b
            ),
            head_w=params.head_w,
            head_b=params.head_b,
        )
        assert sage.sage_forward(g, zeroed) == pytest.approx(p, abs=1e-12)

    def test_permutation_invariance(self, rng):
        params = tiny_params(28, 4, seed=3)
        nodes = rng.normal(size=(4, 28))
        g = graph_with(nodes, edges=((0, 1), (1, 2), (2, 3)))
        perm = [3, 1, 0, 2]
        remap = {old: new for new, old in enumerate(perm)}
        g2 = graph_with(nodes[perm], edges=tuple(tuple(sorted((remap[a], remap[b]))) for a, b in g.edges))
        assert sage.sage_forward(g, params) == pytest.approx(sage.sage_forward(g2, params), abs=1e-12)

    def test_eval_mode_ignores_rng(self):
        g = small_graph()
        params = tiny_params(28, 4, dropout=0.5, seed=4)
        a = sage.sage_forward(g, params, rng=make_rng(1), train_mode=False)
        b = sage.sage_forward(g, params, rng=make_rng(999), train_mode=False)
        c = sage.sage_forward(g, params, rng=None, train_mode=False)
        assert a == b == c

    def test_train_mode_dropout_is_seeded(self):
        g = small_graph()
        params = tiny_params(28, 4, dropout=0.4, seed=5)
        a = sage.sage_forward(g, params, rng=make_rng(7), train_mode=True)
        b = sage.sage_forward(g, params, rng=make_rng(7), train_mode=True)
        assert a == b

    def test_zero_dropout_train_equals_eval(self):
        g = small_graph()
        params = tiny_params(28, 4, dropout=0.0, seed=6)
        train = sage.sage_forward(g, params, rng=make_rng(1), train_mode=True)
        eval_ = sage.sage_forward(g, params, train_mode=False)
        assert train == pytest.approx(eval_, abs=1e-15)

    def test_fan_out_sampling_limits_neighbors(self):
        # hub node with 5 neighbours; fan_out=1 must pick exactly one
        nodes = np.zeros((6, 28))
        nodes[1:, 0] = np.arange(1.0, 6.0)
        g = graph_with(nodes, edges=tuple((0, i) for i in range(1, 6)))
        h = nodes.copy()
        params = sage.SageLayerParams(np.zeros((2, 28)), np.eye(2, 28), np.zeros(4), dropout_p=0.0)
        out = layer(g, h, params, rng=make_rng(3), train_mode=True, fan_out=1)
        # the neighbour half of node 0 must equal one single neighbour's value
        assert out[0, 2] in h[1:, 0]


class TestSageBackward:
    def test_matches_finite_differences(self):
        for seed in (0, 1, 2):
            rng = make_rng(seed)
            n_feat, width = 6, 3
            params = sage.init_sage_params(rng, in_dim=n_feat, widths=(width, width), dropout=0.0)
            nodes = rng.normal(size=(4, n_feat))
            g = FakeGraph(nodes, edges=((0, 1), (1, 2), (2, 3), (0, 3)), label=seed % 2)
            _, grads = sage.sage_backward(g, params, g.label, train_mode=False)
            vec, layout = flatten_params(params.to_dict())

            def loss_of(v):
                p = params.replace_arrays(unflatten_params(v, layout))
                return sage.bce_loss(sage.sage_forward(g, p), g.label)

            np.testing.assert_allclose(
                flatten_params(grads)[0], fd_grad(loss_of, vec), rtol=1e-4, atol=1e-7
            )

    def test_gradient_with_dropout_matches_realised_masks(self):
        # backward differentiates the same masks the forward pass drew, which a
        # fixed seed makes checkable against finite differences
        rng_seed = 13
        n_feat, width = 5, 3
        params = sage.init_sage_params(make_rng(0), in_dim=n_feat, widths=(width, width), dropout=0.3)
        nodes = make_rng(1).normal(size=(3, n_feat))
        g = FakeGraph(nodes, edges=((0, 1), (1, 2)), label=1)
        loss1, grads1 = sage.sage_backward(g, params, 1, rng=make_rng(rng_seed), train_mode=True)
        loss2, grads2 = sage.sage_backward(g, params, 1, rng=make_rng(rng_seed), train_mode=True)
        assert loss1 == loss2
        for key in grads1:
            np.testing.assert_array_equal(grads1[key], grads2[key])


    def test_dropout_requires_rng(self):
        g = small_graph()
        params = tiny_params(28, 4, dropout=0.1, seed=0)
        with pytest.raises(TrainingError, match="requires an RNG"):
            sage.sage_backward(g, params, 1, rng=None, train_mode=True, fan_outs=(2, 32))


class TestSageTrain:
    def test_zero_epochs_returns_init(self):
        graphs = random_graphs(4, seed=1, max_nodes=3)
        cfg = TrainConfig(epochs=0, seed=5)
        params, history = sage.sage_train(graphs, [], cfg, widths=(4, 4))
        expected = sage.init_sage_params(make_rng(5), widths=(4, 4), dropout=sage.DEFAULT_DROPOUT)
        np.testing.assert_array_equal(params.layer1.w_self, expected.layer1.w_self)
        assert len(history) == 0

    def test_same_seed_reproduces_history(self):
        graphs = random_graphs(6, seed=2, max_nodes=3)
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.05, seed=4)
        _, h1 = sage.sage_train(graphs, graphs[:2], cfg, widths=(4, 4))
        _, h2 = sage.sage_train(graphs, graphs[:2], cfg, widths=(4, 4))
        assert [(e.train_loss, e.val_loss) for e in h1.epochs] == [
            (e.train_loss, e.val_loss) for e in h2.epochs
        ]

    def test_learns_separable_fixture(self):
        graphs = separable_four_graphs()
        cfg = TrainConfig(epochs=50, batch_size=2, learning_rate=0.05, seed=0)
        _, history = sage.sage_train(graphs, [], cfg, widths=(8, 8), dropout=0.0)
        losses = [e.train_loss for e in history.epochs]
        assert losses[-1] <= 0.5 * losses[0]

    def test_empty_train_set_rejected(self):
        with pytest.raises(TrainingError):
            sage.sage_train([], [], TrainConfig())

    @pytest.mark.parametrize("poison", ["loss", "grad"])
    def test_non_finite_batch_stops_training(self, monkeypatch, poison):
        real = sage.sage_backward

        def poisoned(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            if poison == "loss":
                return float("nan"), grads
            return loss, dict(grads, head_w=np.full_like(grads["head_w"], np.nan))

        monkeypatch.setattr(sage, "sage_backward", poisoned)
        graphs = random_graphs(4, seed=1, max_nodes=3)
        with pytest.raises(TrainingError, match="non-finite"):
            sage.sage_train(graphs, [], TrainConfig(epochs=1, seed=0), widths=(4, 4))


class TestSagePredict:
    def test_matches_eval_forward(self):
        graphs = random_graphs(4, seed=7, max_nodes=3)
        params = tiny_params(28, 4, seed=8)
        scores = sage.sage_predict(graphs, params)
        np.testing.assert_array_equal(scores, [sage.sage_forward(g, params) for g in graphs])

    def test_default_model_size(self):
        params = sage.init_sage_params(make_rng(0))
        # (128*28)*2 + 256 + (128*256)*2 + 256 + 256 + 1
        assert params.n_parameters == 73473
