import numpy as np
import pytest

from qgfraud import qgnn, qsim
from qgfraud.optim import AdamState, adam_step
from qgfraud.rng import make_rng
from qgfraud.tda import TransactionGraph
from qgfraud.training import TrainConfig, TrainingError
from tests.oracles import fd_grad, flatten_params, unflatten_params
from tests.synth import random_graphs, separable_four_graphs


def graph_with(nodes, edges=(), label=1):
    return TransactionGraph(nodes=np.asarray(nodes, dtype=float), edges=tuple(edges), label=label)


def zero_params(spec):
    return qgnn.QgnnParams(
        w_c=np.zeros((spec.q, 28)),
        b_c=np.zeros(spec.q),
        w_vqc=np.zeros(spec.n_params),
        w_o=np.zeros(spec.q),
        b_o=0.0,
    )


class TestForward:
    def test_all_zero_params_give_half(self, rng):
        spec = qsim.CircuitSpec.chain(4, 1)
        g = graph_with(rng.normal(size=(3, 28)), edges=((0, 1),))
        assert qgnn.forward(g, zero_params(spec), spec) == pytest.approx(0.5, abs=1e-12)

    def test_single_node_pooling_is_identity(self, rng):
        spec = qsim.CircuitSpec.chain(3, 1)
        params = qgnn.init_params(spec, make_rng(0))
        row = rng.normal(size=28)
        single = graph_with(row[None, :])
        double = graph_with(np.vstack([row, row]), edges=((0, 1),))
        assert qgnn.forward(single, params, spec) == pytest.approx(
            qgnn.forward(double, params, spec), abs=1e-12
        )

    def test_node_permutation_invariance(self, rng):
        spec = qsim.CircuitSpec.chain(3, 2)
        params = qgnn.init_params(spec, make_rng(1))
        nodes = rng.normal(size=(5, 28))
        g = graph_with(nodes, edges=((0, 1), (2, 3)))
        perm = [4, 2, 0, 3, 1]
        remap = {old: new for new, old in enumerate(perm)}
        g2 = graph_with(nodes[perm], edges=tuple(tuple(sorted((remap[a], remap[b]))) for a, b in g.edges))
        assert qgnn.forward(g, params, spec) == pytest.approx(qgnn.forward(g2, params, spec), abs=1e-12)

    def test_output_in_open_interval(self, rng):
        spec = qsim.CircuitSpec.chain(2, 1)
        for seed in range(10):
            params = qgnn.init_params(spec, make_rng(seed))
            g = graph_with(rng.normal(size=(2, 28)) * 5)
            assert 0.0 < qgnn.forward(g, params, spec) < 1.0

    def test_tanh_activation_accepted(self, rng):
        spec = qsim.CircuitSpec.chain(2, 1)
        params = qgnn.init_params(spec, make_rng(3))
        g = graph_with(rng.normal(size=(2, 28)))
        p = qgnn.forward(g, params, spec, encode_activation="tanh_pi")
        assert 0.0 < p < 1.0

    def test_unknown_activation_rejected(self, rng):
        spec = qsim.CircuitSpec.chain(2, 1)
        g = graph_with(rng.normal(size=(1, 28)))
        with pytest.raises(TrainingError):
            qgnn.forward(g, zero_params(spec), spec, encode_activation="relu")


class TestLoss:
    def test_half_probability(self):
        assert qgnn.bce_loss(0.5, 1) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction(self):
        assert qgnn.bce_loss(1.0 - 1e-7, 1) == pytest.approx(0.0, abs=1e-6)

    def test_confident_mistake(self):
        assert qgnn.bce_loss(0.9, 0) == pytest.approx(-np.log(0.1), abs=1e-12)

    def test_clamp_handles_saturated_inputs(self):
        assert np.isfinite(qgnn.bce_loss(0.0, 1))
        assert np.isfinite(qgnn.bce_loss(1.0, 0))


class TestBackward:
    def test_matches_finite_differences(self):
        spec = qsim.CircuitSpec.chain(3, 1)
        for seed in range(4):
            rng = make_rng(seed)
            params = qgnn.init_params(spec, rng)
            g = graph_with(rng.normal(size=(3, 28)), edges=((0, 1), (1, 2)), label=seed % 2)
            _, grads = qgnn.backward(g, params, spec, g.label)
            vec, layout = flatten_params(params.to_dict())

            def loss_of(v):
                p = qgnn.QgnnParams.from_dict(unflatten_params(v, layout))
                return qgnn.bce_loss(qgnn.forward(g, p, spec), g.label)

            fd = fd_grad(loss_of, vec)
            got, _ = flatten_params(grads)
            np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-7)

    def test_matches_finite_differences_tanh(self):
        spec = qsim.CircuitSpec.chain(2, 1)
        rng = make_rng(11)
        params = qgnn.init_params(spec, rng)
        g = graph_with(rng.normal(size=(2, 28)), label=1)
        _, grads = qgnn.backward(g, params, spec, 1, encode_activation="tanh_pi")
        vec, layout = flatten_params(params.to_dict())

        def loss_of(v):
            p = qgnn.QgnnParams.from_dict(unflatten_params(v, layout))
            return qgnn.bce_loss(qgnn.forward(g, p, spec, "tanh_pi"), 1)

        np.testing.assert_allclose(flatten_params(grads)[0], fd_grad(loss_of, vec), rtol=1e-4, atol=1e-7)

    def test_zero_head_blocks_signal(self, rng):
        spec = qsim.CircuitSpec.chain(3, 1)
        params = qgnn.init_params(spec, make_rng(2))
        params.w_o = np.zeros(3)
        g = graph_with(rng.normal(size=(2, 28)), label=1)
        _, grads = qgnn.backward(g, params, spec, 1)
        assert np.all(grads["w_c"] == 0.0)
        assert np.all(grads["w_vqc"] == 0.0)

    def test_duplicate_nodes_equal_single_node(self, rng):
        spec = qsim.CircuitSpec.chain(2, 1)
        params = qgnn.init_params(spec, make_rng(5))
        row = rng.normal(size=28)
        _, g_single = qgnn.backward(graph_with(row[None, :], label=1), params, spec, 1)
        _, g_double = qgnn.backward(
            graph_with(np.vstack([row, row]), edges=((0, 1),), label=1), params, spec, 1
        )
        for key in g_single:
            np.testing.assert_allclose(g_single[key], g_double[key], atol=1e-12)

    def test_batch_gradient_is_mean(self, rng):
        spec = qsim.CircuitSpec.chain(2, 1)
        params = qgnn.init_params(spec, make_rng(6))
        graphs = random_graphs(3, seed=9, max_nodes=3)
        ys = [g.label for g in graphs]
        loss_b, grads_b = qgnn.backward_batch(graphs, params, spec, ys)
        singles = [qgnn.backward(g, params, spec, y) for g, y in zip(graphs, ys)]
        assert loss_b == pytest.approx(np.mean([l for l, _ in singles]), abs=1e-12)
        for key in grads_b:
            mean_grad = np.mean([np.asarray(g[key], dtype=float) for _, g in singles], axis=0)
            np.testing.assert_allclose(np.asarray(grads_b[key], dtype=float), mean_grad, atol=1e-12)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"a": np.array([1.0, 2.0])}
        state = AdamState.for_params(params)
        new, state2 = adam_step(params, {"a": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(new["a"], params["a"])
        assert state2.step == 1

    def test_first_step_is_signed_learning_rate(self):
        params = {"a": np.array([0.0, 0.0])}
        grads = {"a": np.array([3.0, -0.25])}
        new, _ = adam_step(params, grads, AdamState.for_params(params), lr=1e-3)
        np.testing.assert_allclose(new["a"], [-1e-3, 1e-3], rtol=1e-6)

    def test_deterministic(self):
        params = {"a": np.array([1.0])}
        grads = {"a": np.array([0.5])}
        out1 = adam_step(params, grads, AdamState.for_params(params), lr=0.01)
        out2 = adam_step(params, grads, AdamState.for_params(params), lr=0.01)
        np.testing.assert_array_equal(out1[0]["a"], out2[0]["a"])

    def test_key_mismatch_rejected(self):
        params = {"a": np.zeros(1)}
        with pytest.raises(ValueError):
            adam_step(params, {"b": np.zeros(1)}, AdamState.for_params(params))


class TestTrain:
    def test_zero_epochs_returns_init(self):
        spec = qsim.CircuitSpec.chain(2, 1)
        graphs = random_graphs(4, seed=1, max_nodes=2)
        cfg = TrainConfig(epochs=0, seed=3)
        params, history = qgnn.train(graphs, [], spec, cfg)
        expected = qgnn.init_params(spec, make_rng(3))
        np.testing.assert_array_equal(params.w_c, expected.w_c)
        np.testing.assert_array_equal(params.w_vqc, expected.w_vqc)
        assert len(history) == 0

    def test_same_seed_reproduces_history(self):
        spec = qsim.CircuitSpec.chain(2, 1)
        graphs = random_graphs(6, seed=2, max_nodes=2)
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.05, seed=9)
        _, h1 = qgnn.train(graphs, graphs[:2], spec, cfg)
        _, h2 = qgnn.train(graphs, graphs[:2], spec, cfg)
        assert [(e.train_loss, e.val_loss) for e in h1.epochs] == [
            (e.train_loss, e.val_loss) for e in h2.epochs
        ]

    def test_zero_learning_rate_freezes_params(self):
        spec = qsim.CircuitSpec.chain(2, 1)
        graphs = random_graphs(5, seed=4, max_nodes=2)
        cfg = TrainConfig(epochs=3, learning_rate=0.0, seed=1)
        params, history = qgnn.train(graphs, [], spec, cfg)
        expected = qgnn.init_params(spec, make_rng(1))
        np.testing.assert_array_equal(params.w_c, expected.w_c)
        losses = [e.train_loss for e in history.epochs]
        assert losses.count(losses[0]) == len(losses)

    def test_learns_separable_fixture(self):
        spec = qsim.CircuitSpec.chain(6, 1)
        graphs = separable_four_graphs()
        cfg = TrainConfig(epochs=50, batch_size=2, learning_rate=0.05, seed=0)
        _, history = qgnn.train(graphs, [], spec, cfg)
        losses = [e.train_loss for e in history.epochs]
        assert losses[-1] <= 0.5 * losses[0]

    def test_empty_train_set_rejected(self):
        with pytest.raises(TrainingError):
            qgnn.train([], [], qsim.CircuitSpec.chain(2, 1), TrainConfig())

    @pytest.mark.parametrize("poison", ["loss", "grad"])
    def test_non_finite_batch_stops_training(self, monkeypatch, poison):
        real = qgnn.backward_batch

        def poisoned(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            if poison == "loss":
                return float("nan"), grads
            return loss, dict(grads, w_vqc=np.full_like(grads["w_vqc"], np.inf))

        monkeypatch.setattr(qgnn, "backward_batch", poisoned)
        graphs = random_graphs(4, seed=1, max_nodes=2)
        with pytest.raises(TrainingError, match="non-finite"):
            qgnn.train(graphs, [], qsim.CircuitSpec.chain(2, 1), TrainConfig(epochs=1, seed=0))


class TestPredict:
    def test_empty_list(self):
        spec = qsim.CircuitSpec.chain(2, 1)
        assert qgnn.predict([], zero_params(spec), spec).size == 0

    def test_singleton_matches_forward(self, rng):
        spec = qsim.CircuitSpec.chain(2, 1)
        params = qgnn.init_params(spec, make_rng(7))
        g = graph_with(rng.normal(size=(2, 28)))
        np.testing.assert_allclose(qgnn.predict([g], params, spec), [qgnn.forward(g, params, spec)])

    def test_batch_equals_elementwise(self):
        spec = qsim.CircuitSpec.chain(2, 1)
        params = qgnn.init_params(spec, make_rng(8))
        graphs = random_graphs(5, seed=3, max_nodes=3)
        batch = qgnn.predict(graphs, params, spec)
        singles = [qgnn.forward(g, params, spec) for g in graphs]
        np.testing.assert_allclose(batch, singles, atol=0)


class TestParameterCount:
    def test_default_model_size(self):
        spec = qsim.CircuitSpec.chain(6, 1)
        params = qgnn.init_params(spec, make_rng(0))
        # 6*28 + 6 + 12 + 6 + 1
        assert params.n_parameters == 193
