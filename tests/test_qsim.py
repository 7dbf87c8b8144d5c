import itertools
import tracemalloc

import numpy as np
import pytest

from qgfraud import qsim
from tests import oracles
from tests.oracles import dense_1q, dense_cnot, dense_encode, dense_run_vqc, dense_rx, dense_ry, fd_grad


def random_state(q, rng):
    amps = rng.normal(size=2**q) + 1j * rng.normal(size=2**q)
    return amps / np.linalg.norm(amps)


def encoded(x):
    """The angle-encoded state of x: the circuit with no layers."""
    x = np.asarray(x, dtype=float)
    return oracles.simulator_state(x[None], qsim.CircuitSpec(x.size, 0, ()), np.zeros(0))[0]


def rotated(x, layer_angles):
    """Encode x, then apply layers of rotations and no CNOTs.

    ``layer_angles`` is a list of (axis, qubit, theta), one per layer; every
    other angle of that layer is 0.
    """
    q = len(x)
    w = np.zeros((len(layer_angles), 2 * q))
    for layer, (axis, qubit, theta) in enumerate(layer_angles):
        w[layer, qubit if axis == "y" else q + qubit] = theta
    spec = qsim.CircuitSpec(q, len(layer_angles), ())
    return oracles.simulator_state(np.asarray(x, dtype=float)[None], spec, w.reshape(-1))[0]


def cnot(amps, q, control, target):
    """A single CNOT as the layer kernels apply it: a gather by the entangler permutation."""
    perm, _ = qsim._entangler_perms(qsim.CircuitSpec(q, 1, ((control, target),)))
    return np.asarray(amps)[perm]


class TestZeroState:
    """|0...0> is the encoding of all-zero angles."""

    def test_single_qubit(self):
        assert np.array_equal(encoded([0.0]), [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(encoded([0.0, 0.0]), [1, 0, 0, 0])

    def test_norm(self):
        amps = encoded(np.zeros(5))
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [0, -1, 21])
    def test_out_of_range(self, q):
        with pytest.raises(qsim.QsimError):
            qsim.CircuitSpec(q, 0, ())


class TestRotations:
    """A layer's RY and RX, seen one wire and one angle at a time."""

    def test_ry_zero_is_identity(self, rng):
        x = rng.uniform(-3, 3, 3)
        np.testing.assert_allclose(rotated(x, [("y", 1, 0.0)]), encoded(x), atol=1e-15)

    def test_ry_pi_flips_zero(self):
        np.testing.assert_allclose(rotated([0.0], [("y", 0, np.pi)]), [0, 1], atol=1e-15)

    def test_rx_half_pi(self):
        expected = [np.sqrt(2) / 2, -1j * np.sqrt(2) / 2]
        np.testing.assert_allclose(rotated([0.0], [("x", 0, np.pi / 2)]), expected, atol=1e-15)

    @pytest.mark.parametrize("axis,ref", [("x", dense_rx), ("y", dense_ry)])
    def test_matches_dense_matrix(self, axis, ref, rng):
        for _ in range(20):
            q = int(rng.integers(1, 5))
            qubit = int(rng.integers(0, q))
            theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            x = rng.uniform(-3, 3, q)
            np.testing.assert_allclose(
                rotated(x, [(axis, qubit, theta)]), dense_1q(q, ref(theta), qubit) @ dense_encode(x), atol=1e-12
            )

    def test_inverse_restores_state(self, rng):
        # the second layer runs through the wire-group kernels, not the first-layer path
        for _ in range(20):
            q = int(rng.integers(1, 7))
            qubit = int(rng.integers(0, q))
            theta = float(rng.uniform(-np.pi, np.pi))
            axis = "x" if rng.random() < 0.5 else "y"
            x = rng.uniform(-3, 3, q)
            back = rotated(x, [(axis, qubit, theta), (axis, qubit, -theta)])
            np.testing.assert_allclose(back, encoded(x), atol=1e-12)


class TestCnot:
    def test_truth_table(self):
        np.testing.assert_array_equal(cnot([0, 0, 1, 0], 2, 0, 1), [0, 0, 0, 1])  # |10> -> |11>

    def test_fixes_all_zero(self):
        np.testing.assert_array_equal(cnot([1, 0, 0, 0], 2, 0, 1), [1, 0, 0, 0])

    def test_involution(self, rng):
        for _ in range(15):
            q = int(rng.integers(2, 7))
            c, t = (int(v) for v in rng.choice(q, size=2, replace=False))
            s = random_state(q, rng)
            np.testing.assert_array_equal(cnot(cnot(s, q, c, t), q, c, t), s)

    def test_matches_dense_matrix(self, rng):
        for _ in range(15):
            q = int(rng.integers(2, 5))
            c, t = (int(x) for x in rng.choice(q, size=2, replace=False))
            s = random_state(q, rng)
            np.testing.assert_allclose(cnot(s, q, c, t), dense_cnot(q, c, t) @ s, atol=1e-12)

    def test_equal_indices_rejected(self):
        # every pair of the entangler is checked, not only the first
        with pytest.raises(qsim.QsimError, match="control equals target"):
            qsim.CircuitSpec(4, 2, ((0, 1), (2, 2)))

    def test_out_of_range_rejected(self):
        for pair in ((-1, 0), (0, 3)):
            with pytest.raises(qsim.QsimError, match="out of range"):
                qsim.CircuitSpec(3, 1, ((0, 1), pair))


class TestAngleEncode:
    def test_zeros_give_ground_state(self):
        np.testing.assert_array_equal(encoded([0.0, 0.0, 0.0]), np.eye(8)[0])

    def test_half_pi(self):
        np.testing.assert_allclose(encoded([np.pi / 2]), [0, 1j], atol=1e-15)

    def test_two_qubit_quarter_pi(self):
        out = encoded([np.pi / 4, np.pi / 4])
        np.testing.assert_allclose(out, [0.5, 0.5j, 0.5j, -0.5], atol=1e-15)

    def test_matches_kron_oracle(self, rng):
        for _ in range(20):
            q = int(rng.integers(1, 5))
            x = rng.uniform(-3, 3, q)
            np.testing.assert_allclose(encoded(x), dense_encode(x), atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(qsim.QsimError):
            qsim.run_vqc_batch([[0.0, 0.0]], qsim.CircuitSpec.chain(3, 1), np.zeros(6))


def random_spec(rng, max_q=3):
    q = int(rng.integers(1, max_q + 1))
    layers = int(rng.integers(0, 3))
    factory = qsim.CircuitSpec.chain if rng.random() < 0.5 else qsim.CircuitSpec.ring
    return factory(q, layers)


class TestRunVqc:
    def test_all_zero_inputs_give_unit_z(self):
        spec = qsim.CircuitSpec.chain(4, 2)
        out = qsim.run_vqc_batch(np.zeros(4), spec, np.zeros(spec.n_params))[0]
        np.testing.assert_allclose(out, np.ones(4), atol=1e-12)

    def test_single_qubit_ry_pi(self):
        spec = qsim.CircuitSpec.chain(1, 1)
        out = qsim.run_vqc_batch([0.0], spec, [np.pi, 0.0])[0]
        np.testing.assert_allclose(out, [-1.0], atol=1e-12)

    def test_outputs_bounded_and_normalised(self, rng):
        for _ in range(25):
            spec = random_spec(rng, max_q=4)
            x = rng.uniform(-4, 4, spec.q)
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            z = qsim.run_vqc_batch(x, spec, w)
            assert np.all(z <= 1.0 + 1e-12) and np.all(z >= -1.0 - 1e-12)
            amps = oracles.simulator_state(x[None, :], spec, w)[0]
            assert abs(np.vdot(amps, amps).real - 1.0) < 1e-10

    def test_matches_dense_oracle(self, rng):
        for _ in range(60):
            spec = random_spec(rng)
            x = rng.uniform(-3, 3, spec.q)
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            np.testing.assert_allclose(
                qsim.run_vqc_batch(x, spec, w)[0], dense_run_vqc(x, spec, w), atol=1e-10
            )

    def test_batch_matches_single(self, rng):
        spec = qsim.CircuitSpec.chain(3, 2)
        xs = rng.uniform(-2, 2, (7, 3))
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        batch = qsim.run_vqc_batch(xs, spec, w)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(batch[i], qsim.run_vqc_batch(x[None], spec, w)[0], atol=1e-13)

    def test_wrong_param_count(self):
        with pytest.raises(qsim.QsimError):
            qsim.run_vqc_batch([0.0], qsim.CircuitSpec.chain(1, 1), [0.0])


class TestParamShift:
    def test_even_point_gives_zero(self):
        # <Z> = cos(w0) around w0=0 is locally even
        spec = qsim.CircuitSpec.chain(1, 1)
        grad_w, _ = qsim.param_shift_grad_batch([[0.0]], spec, [0.0, 0.0], [[1.0]])
        assert grad_w[0] == pytest.approx(0.0, abs=1e-12)

    def test_ry_derivative_at_half_pi(self):
        spec = qsim.CircuitSpec.chain(1, 1)
        grad_w, _ = qsim.param_shift_grad_batch([[0.0]], spec, [np.pi / 2, 0.0], [[1.0]])
        assert grad_w[0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            spec = random_spec(rng, max_q=4)
            x = rng.uniform(-2, 2, spec.q)
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            upstream = rng.normal(size=spec.q)
            grad_w, grad_x = qsim.param_shift_grad_batch(x[None], spec, w, upstream[None])
            fw = fd_grad(lambda wv: float(qsim.run_vqc_batch(x, spec, wv)[0] @ upstream), w)
            fx = fd_grad(lambda xv: float(qsim.run_vqc_batch(xv, spec, w)[0] @ upstream), x)
            np.testing.assert_allclose(grad_w, fw, rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(grad_x[0], fx, rtol=1e-5, atol=1e-8)

    def test_upstream_shape_checked(self):
        spec = qsim.CircuitSpec.chain(2, 1)
        with pytest.raises(qsim.QsimError):
            qsim.param_shift_grad_batch([[0.0, 0.0]], spec, np.zeros(4), [[1.0]])


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


def one_layer_specs(rng):
    """Chain, ring and random one-layer entanglers, with empty and repeated-pair cases."""
    specs = [qsim.CircuitSpec(2, 1, ()), qsim.CircuitSpec(3, 1, ((0, 1), (0, 1))),
             qsim.CircuitSpec(3, 1, ((0, 1), (1, 0), (0, 1), (2, 1), (2, 1), (1, 2)))]
    for q in range(1, 7):
        specs += [qsim.CircuitSpec.chain(q, 1), qsim.CircuitSpec.ring(q, 1)]
        for _ in range(8 if q > 1 else 0):
            pairs = [tuple(int(v) for v in rng.choice(q, size=2, replace=False))
                     for _ in range(int(rng.integers(0, 2 * q + 1)))]
            specs.append(qsim.CircuitSpec(q, 1, tuple(pairs)))
    return specs


def simulated_z(xs, spec, w):
    return qsim._z_expectations(oracles.simulator_state(xs, spec, w), spec.q)


class TestOneLayerClosedForm:
    def test_forward_matches_simulator(self, rng):
        for spec in one_layer_specs(rng):
            xs = rng.uniform(-3, 3, (int(rng.integers(1, 6)), spec.q))
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            want = simulated_z(xs, spec, w)
            np.testing.assert_allclose(qsim.run_vqc_batch(xs, spec, w), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(qsim.run_vqc_batch(xs[0], spec, w), want[:1], rtol=0, atol=1e-12)

    def test_forward_matches_simulator_at_16_qubits(self, rng):
        xs = rng.uniform(-3, 3, (3, 16))
        for factory in (qsim.CircuitSpec.chain, qsim.CircuitSpec.ring):
            spec = factory(16, 1)
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            np.testing.assert_allclose(
                qsim.run_vqc_batch(xs, spec, w), simulated_z(xs, spec, w), rtol=0, atol=1e-12
            )

    def test_gradient_matches_param_shift(self, rng):
        for spec in one_layer_specs(rng):
            n = int(rng.integers(1, 6))
            xs = rng.uniform(-3, 3, (n, spec.q))
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            upstream = rng.normal(size=(n, spec.q))
            grad_w, grad_x = qsim.param_shift_grad_batch(xs, spec, w, upstream)
            ref_w, ref_x = oracles.param_shift_grad_batch(xs, spec, w, upstream)
            np.testing.assert_allclose(grad_w, ref_w, rtol=0, atol=1e-10)
            np.testing.assert_allclose(grad_x, ref_x, rtol=0, atol=1e-10)

    def test_zero_wire_factor(self, rng):
        # wire 1 has x = pi/4 and no RY; its RX angle is 0 but for an offset
        # that cancels the rounding of cos(pi/2), so its factor z_1 is exactly
        # 0, and every ring readout has that factor
        spec = qsim.CircuitSpec.ring(3, 1)
        xs = np.array([[0.3, np.pi / 4, -1.1], [0.7, np.pi / 4, 2.0]])
        w = np.array([0.4, 0.0, 2.2, 1.3, -np.cos(np.pi / 2), 0.5])
        z = qsim.run_vqc_batch(xs, spec, w)
        assert np.all(z == 0.0)
        np.testing.assert_allclose(z, simulated_z(xs, spec, w), rtol=0, atol=1e-12)
        upstream = rng.normal(size=xs.shape)
        grad_w, grad_x = qsim.param_shift_grad_batch(xs, spec, w, upstream)
        assert np.isfinite(grad_w).all() and np.isfinite(grad_x).all()
        ref_w, ref_x = oracles.param_shift_grad_batch(xs, spec, w, upstream)
        np.testing.assert_allclose(grad_w, ref_w, rtol=0, atol=1e-10)
        np.testing.assert_allclose(grad_x, ref_x, rtol=0, atol=1e-10)

    def test_peak_memory_is_a_multiple_of_the_chunk_budget(self, rng, monkeypatch):
        # 2 000 rows at q16 are twenty chunks; the outputs and the angle terms
        # kept for every row (3 q reals a row) add 0.7 MiB to the budget
        spec = qsim.CircuitSpec.chain(16, 1)
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        xs = rng.uniform(-3, 3, (2000, 16))
        upstream = rng.normal(size=xs.shape)

        def peaks():
            found = []
            for call in (lambda: qsim.run_vqc_batch(xs, spec, w),
                         lambda: qsim.param_shift_grad_batch(xs, spec, w, upstream)):
                tracemalloc.start()
                try:
                    call()
                    found.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return found

        bound = 3 * qsim.CHUNK_AMPLITUDES * 16
        assert max(peaks()) < bound
        # the bound is tight enough to see 2 000 rows held at once
        monkeypatch.setattr(qsim, "CHUNK_AMPLITUDES", 2000 * qsim._OneLayer(spec, w).row_amplitudes)
        assert min(peaks()) > bound


def entangler_specs(q, layers, rng):
    """Chain, ring and one random entangler (up to q CNOTs) on q qubits."""
    pairs = tuple(tuple(int(v) for v in rng.choice(q, size=2, replace=False))
                  for _ in range(int(rng.integers(0, q + 1)) if q > 1 else 0))
    return qsim.CircuitSpec.chain(q, layers), qsim.CircuitSpec.ring(q, layers), qsim.CircuitSpec(q, layers, pairs)


class TestLayerKernels:
    def test_run_matches_tensor_state(self, rng):
        # q up to 9 covers one, two and three rotation groups, a group of one
        # wire, and the middle group of q=9 with wires on both sides
        for q in range(1, 10):
            for layers in range(4):
                for spec in entangler_specs(q, layers, rng):
                    xs = rng.uniform(-3, 3, (2, q))
                    w = rng.uniform(0, 2 * np.pi, spec.n_params)
                    got = oracles.simulator_state(xs, spec, w)
                    for x, amps in zip(xs, got):
                        np.testing.assert_allclose(amps, oracles.tensor_state(x, spec, w), rtol=0, atol=1e-12)

    def test_entangler_permutation_matches_dense_cnots(self, rng):
        # column j of the network's dense matrix is basis state j after the
        # gather; the inverse gather undoes it
        for q in range(1, 9):
            for spec in entangler_specs(q, 1, rng):
                network = np.eye(2**q)
                for c, t in spec.entangler:
                    network = dense_cnot(q, c, t).real @ network
                perm, inverse = qsim._entangler_perms(spec)
                basis = np.eye(2**q)
                np.testing.assert_array_equal(basis[perm], network)
                np.testing.assert_array_equal(basis[inverse], network.T)

    def test_entangler_permutation_is_cached_and_inverted(self):
        spec = qsim.CircuitSpec.ring(5, 2)
        perm, inverse = qsim._entangler_perms(spec)
        assert qsim._entangler_perms(qsim.CircuitSpec.ring(5, 2))[0] is perm
        np.testing.assert_array_equal(perm[inverse], np.arange(32))
        assert not perm.flags.writeable


def chunking_cases():
    for q in range(1, 7):
        for layers in (1, 2, 3):
            for factory in (qsim.CircuitSpec.chain, qsim.CircuitSpec.ring):
                yield factory(q, layers)


class TestChunking:
    def test_results_do_not_depend_on_chunk_size(self, rng, monkeypatch):
        # at q <= 6 the default budget holds all 11 rows in one chunk; 2**q and
        # 3 * 2**q force chunks of one row and of three (the last one short) on
        # the statevector, and of one row on the closed form
        for spec in chunking_cases():
            xs = rng.uniform(-3, 3, (11, spec.q))
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            upstream = rng.normal(size=xs.shape)
            z = qsim.run_vqc_batch(xs, spec, w)
            grad_w, grad_x = qsim.param_shift_grad_batch(xs, spec, w, upstream)
            for rows in (1, 3):
                monkeypatch.setattr(qsim, "CHUNK_AMPLITUDES", rows * 2**spec.q)
                np.testing.assert_array_equal(qsim.run_vqc_batch(xs, spec, w), z)
                chunked_w, chunked_x = qsim.param_shift_grad_batch(xs, spec, w, upstream)
                np.testing.assert_array_equal(chunked_x, grad_x)
                np.testing.assert_array_equal(chunked_w, grad_w)
                np.testing.assert_array_equal(qsim.run_vqc_batch(xs[4], spec, w)[0], z[4])
                monkeypatch.undo()

    def test_peak_memory_is_a_multiple_of_the_chunk_budget(self, rng, monkeypatch):
        # 64 rows at q=12 are four chunks of 16; numpy reports its buffers to
        # tracemalloc, so the peak counts every state and temporary. A
        # three-layer ring is simulated at any q (its MPS bond is 16)
        spec = qsim.CircuitSpec.ring(12, 3)
        assert qsim.circuit_path(spec) == qsim.STATEVECTOR
        xs = rng.uniform(-3, 3, (64, 12))
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        upstream = rng.normal(size=xs.shape)

        def peaks():
            found = []
            for call in (lambda: qsim.run_vqc_batch(xs, spec, w),
                         lambda: qsim.param_shift_grad_batch(xs, spec, w, upstream)):
                tracemalloc.start()
                try:
                    call()
                    found.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return found

        bound = 6 * qsim.CHUNK_AMPLITUDES * 16
        assert max(peaks()) < bound
        # the bound is tight enough to see a batch held as one state
        monkeypatch.setattr(qsim, "CHUNK_AMPLITUDES", 64 * 2**12)
        assert min(peaks()) > bound


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


def mps_specs(q, layers, rng):
    """Chain, ring and random entanglers; random ones only where a row of their
    MPS fits in ``CHUNK_AMPLITUDES``, the largest ``circuit_path`` ever sends to it."""
    chain, ring, _ = entangler_specs(q, layers, rng)
    randoms = [entangler_specs(q, layers, rng)[2] for _ in range(5)]
    return [chain, ring] + [s for s in randoms if qsim._mps_row_amplitudes(s) <= qsim.CHUNK_AMPLITUDES]


def tensor_z(xs, spec, w):
    return np.array([qsim._z_expectations(oracles.tensor_state(x, spec, w), spec.q) for x in xs])


def hermitian_coordinates(env):
    """The real coordinates of Hermitian matrices, e_xy = Re E_xy + Im E_xy."""
    return (env.real + env.imag).reshape(env.shape[:-2] + (-1,))


def hermitian_matrices(coords, bond):
    """The Hermitian matrices of real coordinates: E_xy = ((1 + i) e_xy + (1 - i) e_yx) / 2."""
    e = coords.reshape(coords.shape[:-1] + (bond, bond))
    return ((1 + 1j) * e + (1 - 1j) * e.swapaxes(-1, -2)) / 2


class TestRealEnvironments:
    """MPS environments are Hermitian and carried as B^2 real coordinates."""

    @pytest.mark.parametrize("bond", [1, 2, 4, 8])
    def test_real_step_matches_oracle(self, rng, bond):
        # (n, q) = (3, 2) random sites, scaled so that entries stay near 1
        size = 2 * bond * bond
        sites = (rng.normal(size=(3, 2, size)) + 1j * rng.normal(size=(3, 2, size))) / np.sqrt(2 * bond)
        transfers = qsim._transfers(sites, bond)
        env = rng.normal(size=(bond, bond)) + 1j * rng.normal(size=(bond, bond))
        env = (env + env.conj().T) / bond
        coords = hermitian_coordinates(env)
        for n in range(3):
            for j in range(2):
                site = sites[n, j].reshape(bond, 2, bond)
                for p, signs in enumerate([(1, 1), (1, -1)]):
                    got = hermitian_matrices(coords @ transfers[n, j, :, p], bond)
                    np.testing.assert_allclose(got, oracles.transfer_step(env, site, signs), rtol=0, atol=1e-14)


# one spec per circuit path, with the class ``_folded`` builds for it
PATHS = [(qsim.CircuitSpec.chain(6, 1), qsim._OneLayer), (qsim.CircuitSpec.chain(6, 2), qsim._Statevector),
         (qsim.CircuitSpec.chain(10, 2), qsim._Mps)]
PATH_IDS = [qsim.CLOSED_FORM, qsim.STATEVECTOR, qsim.MPS]


def kept_arrays(circuit):
    """The arrays a fold keeps for every call until the next fold."""
    if isinstance(circuit, qsim._OneLayer):
        return [circuit.mask, circuit.sin_a, circuit.cos_a, circuit.sin_b, circuit.cos_b, circuit.cos_ab]
    if isinstance(circuit, qsim._Statevector):
        return [circuit.w, circuit.wires, circuit.perm, circuit.inverse, *itertools.chain(*circuit.krons, *circuit.undo)]
    return [circuit.w, circuit.folds, circuit.grad_matrices, circuit.select, circuit.slots]


@pytest.mark.parametrize("spec, _", PATHS, ids=PATH_IDS)
def test_more_than_two_input_dimensions_are_rejected(rng, spec, _):
    # the contract is (n, q) rows or one (q,) row, on every path
    w = rng.uniform(0, 2 * np.pi, spec.n_params)
    xs = rng.uniform(-3, 3, (2, 3, spec.q))
    with pytest.raises(qsim.QsimError, match=r"rows or one .* row, got shape \(2, 3,"):
        qsim.run_vqc_batch(xs, spec, w)
    with pytest.raises(qsim.QsimError, match="got shape"):
        qsim.param_shift_grad_batch(xs, spec, w, np.ones(xs.shape))
    with pytest.raises(qsim.QsimError, match="upstream shape"):
        qsim.param_shift_grad_batch(xs[0], spec, w, np.ones(xs.shape))


class TestFold:
    """``_folded`` keeps the last parameter vector's circuit for the next call."""

    spec = qsim.CircuitSpec.chain(10, 2)

    @pytest.mark.parametrize("spec, kind", PATHS, ids=PATH_IDS)
    def test_forward_and_gradient_share_one_fold(self, rng, spec, kind):
        xs = rng.uniform(-3, 3, (4, spec.q))
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        qsim._folded.cache_clear()
        qsim.run_vqc_batch(xs, spec, w)
        qsim.param_shift_grad_batch(xs, spec, w, rng.normal(size=xs.shape))
        assert qsim._folded.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert isinstance(qsim._folded(spec, w.tobytes()), kind)

    @pytest.mark.parametrize("spec, kind", PATHS, ids=PATH_IDS)
    def test_the_class_called_directly_gives_the_public_bits(self, rng, spec, kind):
        xs = rng.uniform(-3, 3, (5, spec.q))
        upstream = rng.normal(size=xs.shape)
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        circuit = kind(spec, w)
        np.testing.assert_array_equal(qsim.run_vqc_batch(xs, spec, w), circuit.z(xs))
        angles, grad_x = circuit.grad(xs, upstream)
        for got, want in zip(qsim.param_shift_grad_batch(xs, spec, w, upstream), (angles.sum(axis=0), grad_x)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("spec, kind", PATHS, ids=PATH_IDS)
    def test_a_row_gives_the_same_bits_alone_and_in_a_batch(self, rng, spec, kind):
        # a fold returns per-row results, so a row's readouts, angle gradients
        # and input gradient do not depend on the rows computed beside it
        xs = rng.uniform(-3, 3, (7, spec.q))
        upstream = rng.normal(size=xs.shape)
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        circuit = kind(spec, w)
        z = circuit.z(xs)
        angles, grad_x = circuit.grad(xs, upstream)
        assert angles.shape == (len(xs), spec.n_params)
        for i in range(len(xs)):
            np.testing.assert_array_equal(circuit.z(xs[i:i + 1]), z[i:i + 1])
            row_angles, row_x = circuit.grad(xs[i:i + 1], upstream[i:i + 1])
            np.testing.assert_array_equal(row_angles, angles[i:i + 1])
            np.testing.assert_array_equal(row_x, grad_x[i:i + 1])

    def test_in_place_change_gives_the_fresh_result(self, rng):
        xs = rng.uniform(-3, 3, (3, 10))
        w = rng.uniform(0, 2 * np.pi, self.spec.n_params)
        before = qsim.run_vqc_batch(xs, self.spec, w)
        w[3] += 0.5
        after = qsim.run_vqc_batch(xs, self.spec, w)
        assert not np.allclose(after, before)
        np.testing.assert_allclose(after, tensor_z(xs, self.spec, w), rtol=0, atol=1e-12)

    def test_cached_arrays_are_read_only(self, rng):
        assert qsim.circuit_path(self.spec) == qsim.MPS
        for spec, kind in PATHS:
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            circuit = qsim._folded(spec, w.tobytes())
            assert isinstance(circuit, kind)
            for a in kept_arrays(circuit):
                assert not a.flags.writeable
            assert qsim._folded(spec, w.copy().tobytes()) is circuit

    def test_warm_and_cold_calls_give_the_same_bits(self, rng):
        xs = rng.uniform(-3, 3, (5, 10))
        upstream = rng.normal(size=xs.shape)
        w = rng.uniform(0, 2 * np.pi, self.spec.n_params)
        calls = (lambda: (qsim.run_vqc_batch(xs, self.spec, w),),
                 lambda: qsim.param_shift_grad_batch(xs, self.spec, w, upstream))
        for call in calls:
            qsim._folded.cache_clear()
            cold = call()
            for a, b in zip(cold, call()):
                np.testing.assert_array_equal(a, b)


class TestMatrixProductState:
    """The MPS kernels, called directly: ``circuit_path`` sends chains and rings
    of up to 8 qubits to the simulator, so these are the only tests of the MPS
    path there."""

    def test_readouts_match_tensor_state(self, rng):
        randoms = 0
        for q in range(1, 10):
            for layers in (2, 3):
                specs = mps_specs(q, layers, rng)
                randoms += len(specs) - 2
                for spec in specs:
                    xs = rng.uniform(-3, 3, (3, q))
                    w = rng.uniform(0, 2 * np.pi, spec.n_params)
                    np.testing.assert_allclose(qsim._Mps(spec, w).z(xs), tensor_z(xs, spec, w), rtol=0, atol=1e-12)
        assert randoms > 50

    def test_readouts_match_tensor_state_at_16_qubits(self, rng):
        # through the public entry point, with the fold cached and not
        xs = rng.uniform(-3, 3, (4, 16))
        for factory in (qsim.CircuitSpec.chain, qsim.CircuitSpec.ring):
            spec = factory(16, 2)
            assert qsim.circuit_path(spec) == qsim.MPS
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            want = tensor_z(xs, spec, w)
            qsim._folded.cache_clear()
            np.testing.assert_allclose(qsim.run_vqc_batch(xs, spec, w), want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(qsim.run_vqc_batch(xs, spec, w), want, rtol=0, atol=1e-12)

    def test_gradient_matches_param_shift_at_16_qubits(self, rng):
        xs = rng.uniform(-3, 3, (4, 16))
        upstream = rng.normal(size=xs.shape)
        for factory in (qsim.CircuitSpec.chain, qsim.CircuitSpec.ring):
            spec = factory(16, 2)
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            ref_w, ref_x = oracles.param_shift_grad_batch(xs, spec, w, upstream)
            qsim._folded.cache_clear()
            for _ in ("cold", "warm"):
                grad_w, grad_x = qsim.param_shift_grad_batch(xs, spec, w, upstream)
                np.testing.assert_allclose(grad_w, ref_w, rtol=0, atol=1e-10)
                np.testing.assert_allclose(grad_x, ref_x, rtol=0, atol=1e-10)

    def test_gradient_matches_param_shift(self, rng):
        for q in range(1, 9):
            for layers in (2, 3):
                for spec in mps_specs(q, layers, rng):
                    n = int(rng.integers(1, 5))
                    xs = rng.uniform(-3, 3, (n, q))
                    w = rng.uniform(0, 2 * np.pi, spec.n_params)
                    upstream = rng.normal(size=(n, q))
                    angles, grad_x = qsim._Mps(spec, w).grad(xs, upstream)
                    ref_w, ref_x = oracles.param_shift_grad_batch(xs, spec, w, upstream)
                    np.testing.assert_allclose(angles.sum(axis=0), ref_w, rtol=0, atol=1e-10)
                    np.testing.assert_allclose(grad_x, ref_x, rtol=0, atol=1e-10)

    def test_rows_do_not_depend_on_the_call(self, rng, monkeypatch):
        # 74 rows at q16/l2 chain are two chunks by default; then one call per
        # row, and chunks of three rows. Only the entry points chunk, so the
        # chunked calls go through them, with ``_folded`` giving this MPS fold
        specs = [factory(q, layers) for q in (3, 6) for layers in (2, 3)
                 for factory in (qsim.CircuitSpec.chain, qsim.CircuitSpec.ring)]
        for spec in specs + [qsim.CircuitSpec.chain(16, 2)]:
            n = 74 if spec.q == 16 else 11
            xs = rng.uniform(-3, 3, (n, spec.q))
            w = rng.uniform(0, 2 * np.pi, spec.n_params)
            upstream = rng.normal(size=xs.shape)
            circuit = qsim._Mps(spec, w)
            z = circuit.z(xs)
            angles, grad_x = circuit.grad(xs, upstream)
            grad_w = angles.sum(axis=0)
            total_w = np.zeros_like(grad_w)
            for i in range(n):
                np.testing.assert_array_equal(circuit.z(xs[i:i + 1]), z[i:i + 1])
                row_angles, row_x = circuit.grad(xs[i:i + 1], upstream[i:i + 1])
                np.testing.assert_array_equal(row_x, grad_x[i:i + 1])
                total_w += row_angles.sum(axis=0)
            np.testing.assert_allclose(total_w, grad_w, rtol=0, atol=1e-12)
            monkeypatch.setattr(qsim, "CHUNK_AMPLITUDES", 3 * qsim._mps_row_amplitudes(spec))
            monkeypatch.setattr(qsim, "_folded", lambda spec, angles: circuit)
            np.testing.assert_array_equal(qsim.run_vqc_batch(xs, spec, w), z)
            np.testing.assert_array_equal(qsim.param_shift_grad_batch(xs, spec, w, upstream)[1], grad_x)
            monkeypatch.undo()

    def test_path_selection(self, rng):
        assert qsim.circuit_path(qsim.CircuitSpec.chain(6, 1)) == qsim.CLOSED_FORM
        for factory in (qsim.CircuitSpec.chain, qsim.CircuitSpec.ring):
            assert qsim.circuit_path(factory(6, 2)) == qsim.STATEVECTOR
            assert qsim.circuit_path(factory(16, 2)) == qsim.MPS
        assert qsim.circuit_path(qsim.CircuitSpec.chain(16, 0)) == qsim.STATEVECTOR
        # the public entry points take the MPS path at q16/l2 chain
        spec = qsim.CircuitSpec.chain(16, 2)
        xs = rng.uniform(-3, 3, (5, 16))
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        upstream = rng.normal(size=xs.shape)
        circuit = qsim._Mps(spec, w)
        np.testing.assert_array_equal(qsim.run_vqc_batch(xs, spec, w), circuit.z(xs))
        angles, grad_x = circuit.grad(xs, upstream)
        for got, want in zip(qsim.param_shift_grad_batch(xs, spec, w, upstream), (angles.sum(axis=0), grad_x)):
            np.testing.assert_array_equal(got, want)

    def test_derivative_folds_are_built_once_by_the_first_gradient(self, rng, monkeypatch):
        # scoring never pays for the 4 L shifted folds; a batch's gradient builds them once
        spec = qsim.CircuitSpec.chain(16, 2)
        xs = rng.uniform(-3, 3, (3, 16))
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        folds, fold = [], qsim._mps_folds
        monkeypatch.setattr(qsim, "_mps_folds", lambda spec, ws: folds.append(len(ws)) or fold(spec, ws))
        qsim._folded.cache_clear()
        qsim.run_vqc_batch(xs, spec, w)
        circuit = qsim._folded(spec, w.tobytes())
        assert "grad_matrices" not in vars(circuit) and folds == [1]
        for _ in range(2):
            qsim.param_shift_grad_batch(xs, spec, w, rng.normal(size=xs.shape))
        assert "grad_matrices" in vars(circuit) and folds == [1, 4 * spec.layers]

    def test_small_circuits_stay_on_the_statevector(self):
        # q6 circuits are simulated bit for bit as before the MPS path existed
        for q in range(1, 9):
            for layers in (2, 3):
                for factory in (qsim.CircuitSpec.chain, qsim.CircuitSpec.ring):
                    assert qsim.circuit_path(factory(q, layers)) == qsim.STATEVECTOR

    def test_peak_memory_is_a_multiple_of_the_chunk_budget(self, rng, monkeypatch):
        spec = qsim.CircuitSpec.chain(16, 2)
        w = rng.uniform(0, 2 * np.pi, spec.n_params)

        def peaks(n):
            xs = rng.uniform(-3, 3, (n, 16))
            upstream = rng.normal(size=xs.shape)
            found = []
            for call in (lambda: qsim.run_vqc_batch(xs, spec, w),
                         lambda: qsim.param_shift_grad_batch(xs, spec, w, upstream)):
                tracemalloc.start()
                try:
                    call()
                    found.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return found

        bound = 3 * qsim.CHUNK_AMPLITUDES * 16
        assert max(peaks(74)) < bound
        # the bound is tight enough to see 740 rows held at once
        monkeypatch.setattr(qsim, "CHUNK_AMPLITUDES", 740 * qsim._mps_row_amplitudes(spec))
        assert min(peaks(740)) > bound

    def test_wide_entangler_falls_back_to_the_simulator(self, rng):
        # random CNOTs across 16 wires stack up on the middle cuts: a row of
        # that MPS would not fit in a chunk, so the statevector runs it
        pairs = tuple(tuple(int(v) for v in rng.choice(16, size=2, replace=False)) for _ in range(16))
        spec = qsim.CircuitSpec(16, 2, pairs)
        assert qsim._mps_row_amplitudes(spec) > qsim.CHUNK_AMPLITUDES
        assert qsim.circuit_path(spec) == qsim.STATEVECTOR
        xs = rng.uniform(-3, 3, (2, 16))
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        tracemalloc.start()
        try:
            z = qsim.run_vqc_batch(xs, spec, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * qsim.CHUNK_AMPLITUDES * 16
        np.testing.assert_allclose(z, simulated_z(xs, spec, w), rtol=0, atol=1e-12)
