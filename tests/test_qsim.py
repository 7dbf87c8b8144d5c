import numpy as np
import pytest

from qgfraud import qsim
from tests import oracles
from tests.oracles import dense_1q, dense_cnot, dense_encode, dense_run_vqc, dense_rx, dense_ry, fd_grad


def random_state(q, rng):
    amps = rng.normal(size=2**q) + 1j * rng.normal(size=2**q)
    return qsim.StateVector(amps / np.linalg.norm(amps))


class TestZeroState:
    def test_single_qubit(self):
        assert np.array_equal(qsim.zero_state(1).amps, [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(qsim.zero_state(2).amps, [1, 0, 0, 0])

    def test_norm(self):
        assert qsim.zero_state(5).norm_sq() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [0, -1, 21])
    def test_out_of_range(self, q):
        with pytest.raises(qsim.QsimError):
            qsim.zero_state(q)


class TestRotations:
    def test_ry_zero_is_identity(self, rng):
        s = random_state(3, rng)
        out = qsim.apply_rotation(s, "y", 1, 0.0)
        np.testing.assert_allclose(out.amps, s.amps, atol=1e-15)

    def test_ry_pi_flips_zero(self):
        out = qsim.apply_rotation(qsim.zero_state(1), "y", 0, np.pi)
        np.testing.assert_allclose(out.amps, [0, 1], atol=1e-15)

    def test_rx_half_pi(self):
        out = qsim.apply_rotation(qsim.zero_state(1), "x", 0, np.pi / 2)
        expected = [np.sqrt(2) / 2, -1j * np.sqrt(2) / 2]
        np.testing.assert_allclose(out.amps, expected, atol=1e-15)

    @pytest.mark.parametrize("axis,ref", [("x", dense_rx), ("y", dense_ry)])
    def test_matches_dense_matrix(self, axis, ref, rng):
        for _ in range(20):
            q = int(rng.integers(1, 5))
            qubit = int(rng.integers(0, q))
            theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            s = random_state(q, rng)
            out = qsim.apply_rotation(s, axis, qubit, theta)
            np.testing.assert_allclose(
                out.amps, dense_1q(q, ref(theta), qubit) @ s.amps, atol=1e-12
            )

    def test_inverse_restores_state(self, rng):
        for _ in range(20):
            q = int(rng.integers(1, 7))
            qubit = int(rng.integers(0, q))
            theta = float(rng.uniform(-np.pi, np.pi))
            axis = "x" if rng.random() < 0.5 else "y"
            s = random_state(q, rng)
            back = qsim.apply_rotation(qsim.apply_rotation(s, axis, qubit, theta), axis, qubit, -theta)
            np.testing.assert_allclose(back.amps, s.amps, atol=1e-12)

    def test_bad_qubit(self):
        with pytest.raises(qsim.QsimError):
            qsim.apply_rotation(qsim.zero_state(2), "x", 2, 0.1)

    def test_bad_axis(self):
        with pytest.raises(qsim.QsimError):
            qsim.apply_rotation(qsim.zero_state(1), "z", 0, 0.1)


class TestCnot:
    def test_truth_table(self):
        s = qsim.StateVector(np.array([0, 0, 1, 0], dtype=complex))  # |10>
        np.testing.assert_array_equal(qsim.apply_cnot(s, 0, 1).amps, [0, 0, 0, 1])

    def test_fixes_all_zero(self):
        s = qsim.zero_state(2)
        np.testing.assert_array_equal(qsim.apply_cnot(s, 0, 1).amps, [1, 0, 0, 0])

    def test_involution(self, rng):
        for _ in range(15):
            q = int(rng.integers(2, 7))
            c, t = rng.choice(q, size=2, replace=False)
            s = random_state(q, rng)
            back = qsim.apply_cnot(qsim.apply_cnot(s, int(c), int(t)), int(c), int(t))
            np.testing.assert_allclose(back.amps, s.amps, atol=1e-12)

    def test_matches_dense_matrix(self, rng):
        for _ in range(15):
            q = int(rng.integers(2, 5))
            c, t = (int(x) for x in rng.choice(q, size=2, replace=False))
            s = random_state(q, rng)
            np.testing.assert_allclose(
                qsim.apply_cnot(s, c, t).amps, dense_cnot(q, c, t) @ s.amps, atol=1e-12
            )

    def test_equal_indices_rejected(self):
        with pytest.raises(qsim.QsimError):
            qsim.apply_cnot(qsim.zero_state(2), 1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(qsim.QsimError):
            qsim.apply_cnot(qsim.zero_state(2), 0, 2)


class TestAngleEncode:
    def test_zeros_give_ground_state(self):
        np.testing.assert_array_equal(qsim.angle_encode([0.0, 0.0, 0.0]).amps, qsim.zero_state(3).amps)

    def test_half_pi(self):
        np.testing.assert_allclose(qsim.angle_encode([np.pi / 2]).amps, [0, 1j], atol=1e-15)

    def test_two_qubit_quarter_pi(self):
        out = qsim.angle_encode([np.pi / 4, np.pi / 4]).amps
        np.testing.assert_allclose(out, [0.5, 0.5j, 0.5j, -0.5], atol=1e-15)

    def test_matches_kron_oracle(self, rng):
        for _ in range(20):
            q = int(rng.integers(1, 5))
            x = rng.uniform(-3, 3, q)
            np.testing.assert_allclose(qsim.angle_encode(x).amps, dense_encode(x), atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(qsim.QsimError):
            qsim.run_vqc([0.0, 0.0], qsim.CircuitSpec.chain(3, 1), np.zeros(6))


def random_spec(rng, max_q=3):
    q = int(rng.integers(1, max_q + 1))
    layers = int(rng.integers(0, 3))
    factory = qsim.CircuitSpec.chain if rng.random() < 0.5 else qsim.CircuitSpec.ring
    return factory(q, layers)


class TestRunVqc:
    def test_all_zero_inputs_give_unit_z(self):
        spec = qsim.CircuitSpec.chain(4, 2)
        out = qsim.run_vqc(np.zeros(4), spec, np.zeros(spec.n_params))
        np.testing.assert_allclose(out, np.ones(4), atol=1e-12)

    def test_single_qubit_ry_pi(self):
        spec = qsim.CircuitSpec.chain(1, 1)
        out = qsim.run_vqc([0.0], spec, [np.pi, 0.0])
        np.testing.assert_allclose(out, [-1.0], atol=1e-12)

    def test_outputs_bounded_and_normalised(self, rng):
        for _ in range(25):
            spec = random_spec(rng, max_q=4)
            x = rng.uniform(-4, 4, spec.q)
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            z = qsim.run_vqc(x, spec, w)
            assert np.all(z <= 1.0 + 1e-12) and np.all(z >= -1.0 - 1e-12)
            state = qsim.StateVector(qsim._run(x[None, :], spec, w)[0])
            assert abs(state.norm_sq() - 1.0) < 1e-10

    def test_matches_dense_oracle(self, rng):
        for _ in range(60):
            spec = random_spec(rng)
            x = rng.uniform(-3, 3, spec.q)
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            np.testing.assert_allclose(
                qsim.run_vqc(x, spec, w), dense_run_vqc(x, spec, w), atol=1e-10
            )

    def test_batch_matches_single(self, rng):
        spec = qsim.CircuitSpec.chain(3, 2)
        xs = rng.uniform(-2, 2, (7, 3))
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        batch = qsim.run_vqc_batch(xs, spec, w)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(batch[i], qsim.run_vqc(x, spec, w), atol=1e-13)

    def test_wrong_param_count(self):
        with pytest.raises(qsim.QsimError):
            qsim.run_vqc([0.0], qsim.CircuitSpec.chain(1, 1), [0.0])


class TestParamShift:
    def test_even_point_gives_zero(self):
        # <Z> = cos(w0) around w0=0 is locally even
        spec = qsim.CircuitSpec.chain(1, 1)
        grad_w, _ = qsim.param_shift_grad([0.0], spec, [0.0, 0.0], [1.0])
        assert grad_w[0] == pytest.approx(0.0, abs=1e-12)

    def test_ry_derivative_at_half_pi(self):
        spec = qsim.CircuitSpec.chain(1, 1)
        grad_w, _ = qsim.param_shift_grad([0.0], spec, [np.pi / 2, 0.0], [1.0])
        assert grad_w[0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            spec = random_spec(rng, max_q=4)
            x = rng.uniform(-2, 2, spec.q)
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            upstream = rng.normal(size=spec.q)
            grad_w, grad_x = qsim.param_shift_grad(x, spec, w, upstream)
            fw = fd_grad(lambda wv: float(qsim.run_vqc(x, spec, wv) @ upstream), w)
            fx = fd_grad(lambda xv: float(qsim.run_vqc(xv, spec, w) @ upstream), x)
            np.testing.assert_allclose(grad_w, fw, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(grad_x, fx, rtol=1e-5, atol=1e-8)

    def test_upstream_shape_checked(self):
        spec = qsim.CircuitSpec.chain(2, 1)
        with pytest.raises(qsim.QsimError):
            qsim.param_shift_grad([0.0, 0.0], spec, np.zeros(4), [1.0])


class TestAdjointMatchesParamShift:
    def test_random_circuits(self, rng):
        for layers in range(4):
            for _ in range(25):
                q = int(rng.integers(1, 7))
                factory = qsim.CircuitSpec.chain if rng.random() < 0.5 else qsim.CircuitSpec.ring
                spec = factory(q, layers)
                n = int(rng.integers(1, 9))
                xs = rng.uniform(-3, 3, (n, q))
                w = rng.uniform(0, 2 * np.pi, spec.n_params)
                upstream = rng.normal(size=(n, q))
                grad_w, grad_x = qsim.param_shift_grad_batch(xs, spec, w, upstream)
                ref_w, ref_x = oracles.param_shift_grad_batch(xs, spec, w, upstream)
                np.testing.assert_allclose(grad_w, ref_w, rtol=0, atol=1e-10)
                np.testing.assert_allclose(grad_x, ref_x, rtol=0, atol=1e-10)


class TestCircuitSpec:
    def test_chain_layout(self):
        assert qsim.CircuitSpec.chain(4, 1).entangler == ((0, 1), (1, 2), (2, 3))

    def test_ring_adds_wraparound(self):
        assert qsim.CircuitSpec.ring(3, 1).entangler == ((0, 1), (1, 2), (2, 0))

    def test_param_count(self):
        assert qsim.CircuitSpec.chain(6, 2).n_params == 24

    def test_rejects_self_loop(self):
        with pytest.raises(qsim.QsimError):
            qsim.CircuitSpec(2, 1, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(qsim.QsimError):
            qsim.CircuitSpec(2, 1, ((0, 2),))
