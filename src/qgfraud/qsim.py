"""Exact statevector simulation of small RX/RY/CNOT circuits.

Conventions, fixed once and used everywhere:

* Qubit 0 is the most significant bit of the amplitude index, so
  ``amps.reshape((2,) * q)`` puts qubit k on axis k.
* ``RX(t) = exp(-i t X / 2)``, ``RY(t) = exp(-i t Y / 2)``.
* Angle encoding prepares the product state with per-qubit amplitudes
  ``(cos x_i, i sin x_i)``, i.e. ``RX(-2 x_i)`` applied to |0>.

Gates act on the amplitude array via axis manipulation (no 2^q x 2^q
matrices). The private kernels accept a leading batch dimension so a model
can push many encodings through the same circuit at once; the public
``StateVector`` API wraps a single state.

One-layer circuits never build a state. Their rotations leave a product
state whose wire j has <Z> = z_j = cos 2x_j cos a_j cos b_j + sin 2x_j sin b_j
(a_j, b_j the RY and RX angles), and the CNOTs that follow only permute basis
states: output bit k is the GF(2) parity of the input bits in row k of a
(q, q) mask. So <Z_k> = prod of z_j over that row, read and differentiated
in O(q^2) per input. ``run_vqc``, ``run_vqc_batch`` and
``param_shift_grad_batch`` take that path whenever ``spec.layers == 1``.

Deeper circuits are simulated, and their gradients come from the adjoint
method: one forward run plus one reverse sweep over the gates, about three
forward passes in all, where the parameter-shift rule needs 2 (2qL + q)
runs. Parameter shift survives only as the test oracle in
``tests/oracles.py``; the simulator is the reference the closed form is
tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 20


class QsimError(ValueError):
    """Inconsistent circuit shapes or out-of-range indices."""


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


_ROTATIONS = {"x": rx_matrix, "y": ry_matrix}


@dataclass(frozen=True)
class CircuitSpec:
    """Layered ansatz: per layer, RY on every qubit, RX on every qubit, then CNOTs.

    ``entangler`` is the ordered CNOT (control, target) list applied after the
    rotations of each layer. One layer holds 2q angles (q for RY, q for RX).
    """

    q: int
    layers: int
    entangler: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.q <= MAX_QUBITS:
            raise QsimError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.q}")
        if self.layers < 0:
            raise QsimError(f"layer count must be >= 0, got {self.layers}")
        for c, t in self.entangler:
            if c == t:
                raise QsimError(f"CNOT control equals target: {c}")
            if not (0 <= c < self.q and 0 <= t < self.q):
                raise QsimError(f"CNOT ({c}, {t}) out of range for q={self.q}")

    @classmethod
    def chain(cls, q: int, layers: int) -> "CircuitSpec":
        return cls(q, layers, tuple((i, i + 1) for i in range(q - 1)))

    @classmethod
    def ring(cls, q: int, layers: int) -> "CircuitSpec":
        pairs = tuple((i, i + 1) for i in range(q - 1))
        if q >= 2:
            pairs = pairs + ((q - 1, 0),)
        return cls(q, layers, pairs)

    @property
    def n_params(self) -> int:
        return 2 * self.q * self.layers


@dataclass(eq=False)
class StateVector:
    """2^q complex amplitudes of a q-qubit register."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim != 1 or self.amps.size != 2 ** self.q:
            raise QsimError(f"amplitude count {self.amps.size} is not a power of two")

    @property
    def q(self) -> int:
        return max(self.amps.size.bit_length() - 1, 0)

    def norm_sq(self) -> float:
        return float(np.sum(self.amps.real**2 + self.amps.imag**2))


# ---------------------------------------------------------------------------
# kernels over (..., 2**q) amplitude arrays
#
# Stride layout: for qubit k the index splits as (prefix, bit_k, block) with
# block = 2**(q-1-k), so a contiguous reshape exposes the qubit as its own
# axis and every update is a pair of large elementwise expressions. The
# in-place variants own their buffer; the public API always hands them a copy.

def _rot_inplace(amps2d: np.ndarray, mat: np.ndarray, qubit: int, q: int) -> None:
    block = 1 << (q - 1 - qubit)
    v = amps2d.reshape(-1, 2, block)
    a = v[:, 0, :].copy()
    b = v[:, 1, :]
    v[:, 0, :] = mat[0, 0] * a + mat[0, 1] * b
    v[:, 1, :] = mat[1, 0] * a + mat[1, 1] * b


def _cnot_inplace(amps2d: np.ndarray, control: int, target: int, q: int) -> None:
    first, second = (control, target) if control < target else (target, control)
    mid = 1 << (second - first - 1)
    rest = 1 << (q - 1 - second)
    v = amps2d.reshape(-1, 2, mid, 2, rest)
    if control < target:
        lo = v[:, 1, :, 0, :].copy()
        v[:, 1, :, 0, :] = v[:, 1, :, 1, :]
        v[:, 1, :, 1, :] = lo
    else:
        lo = v[:, 0, :, 1, :].copy()
        v[:, 0, :, 1, :] = v[:, 1, :, 1, :]
        v[:, 1, :, 1, :] = lo


def _apply_1q(amps: np.ndarray, mat: np.ndarray, qubit: int, q: int) -> np.ndarray:
    out = np.ascontiguousarray(amps).copy()
    _rot_inplace(out.reshape(-1, 2**q), mat, qubit, q)
    return out


def _apply_cnot(amps: np.ndarray, control: int, target: int, q: int) -> np.ndarray:
    out = np.ascontiguousarray(amps).copy()
    _cnot_inplace(out.reshape(-1, 2**q), control, target, q)
    return out


def _encode(x: np.ndarray) -> np.ndarray:
    # x: (..., q) angles -> contiguous (..., 2**q) product-state amplitudes
    lead, q = x.shape[:-1], x.shape[-1]
    amps = np.ones(lead + (1,), dtype=complex)
    for i in range(q):
        qubit = np.stack(
            [np.cos(x[..., i]).astype(complex), 1j * np.sin(x[..., i])], axis=-1
        )
        amps = (amps[..., :, None] * qubit[..., None, :]).reshape(lead + (-1,))
    return np.ascontiguousarray(amps)


def _z_expectations(amps: np.ndarray, q: int) -> np.ndarray:
    lead = amps.shape[:-1]
    probs = np.ascontiguousarray(amps.real**2 + amps.imag**2).reshape(-1, 2**q)
    out = np.empty((probs.shape[0], q))
    for k in range(q):
        block = 1 << (q - 1 - k)
        p = probs.reshape(probs.shape[0], -1, 2, block).sum(axis=(1, 3))
        out[:, k] = p[:, 0] - p[:, 1]
    return out.reshape(lead + (q,))


def _run(x: np.ndarray, spec: CircuitSpec, w: np.ndarray) -> np.ndarray:
    amps = _encode(x)
    flat = amps.reshape(-1, 2**spec.q)
    for layer in range(spec.layers):
        base = layer * 2 * spec.q
        for k in range(spec.q):
            # the layer applies RY on every wire, then RX on every wire;
            # per wire that composes to one 2x2 matrix, saving a full pass
            _rot_inplace(flat, rx_matrix(w[base + spec.q + k]) @ ry_matrix(w[base + k]), k, spec.q)
        for c, t in spec.entangler:
            _cnot_inplace(flat, c, t, spec.q)
    return amps


# ---------------------------------------------------------------------------
# public single-state API

def zero_state(q: int) -> StateVector:
    """|0...0> on q qubits."""
    if not 1 <= q <= MAX_QUBITS:
        raise QsimError(f"qubit count must be in [1, {MAX_QUBITS}], got {q}")
    amps = np.zeros(2**q, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps)


def apply_rotation(s: StateVector, axis: str, qubit: int, theta: float) -> StateVector:
    """Apply RX(theta) or RY(theta) on one wire; returns a new state."""
    key = axis.lower()
    if key not in _ROTATIONS:
        raise QsimError(f"axis must be 'x' or 'y', got {axis!r}")
    if not 0 <= qubit < s.q:
        raise QsimError(f"qubit {qubit} out of range for q={s.q}")
    return StateVector(_apply_1q(s.amps, _ROTATIONS[key](theta), qubit, s.q))


def apply_cnot(s: StateVector, control: int, target: int) -> StateVector:
    if control == target:
        raise QsimError(f"CNOT control equals target: {control}")
    if not (0 <= control < s.q and 0 <= target < s.q):
        raise QsimError(f"CNOT ({control}, {target}) out of range for q={s.q}")
    return StateVector(_apply_cnot(s.amps, control, target, s.q))


def angle_encode(x) -> StateVector:
    """Product state with per-qubit amplitudes (cos x_i, i sin x_i)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not 1 <= x.size <= MAX_QUBITS:
        raise QsimError(f"encoding vector must have 1..{MAX_QUBITS} entries, got {x.shape}")
    return StateVector(_encode(x))


def z_expectations(s: StateVector) -> np.ndarray:
    """<Z_k> for every qubit, each in [-1, 1]."""
    return _z_expectations(s.amps, s.q)


def _check_shapes(x: np.ndarray, spec: CircuitSpec, w: np.ndarray) -> None:
    if x.shape[-1] != spec.q:
        raise QsimError(f"input length {x.shape[-1]} does not match q={spec.q}")
    if w.shape != (spec.n_params,):
        raise QsimError(f"expected {spec.n_params} circuit angles, got {w.shape}")


# ---------------------------------------------------------------------------
# closed form for one layer

@functools.lru_cache(maxsize=64)
def _parity_mask(spec: CircuitSpec) -> np.ndarray:
    """(q, q) bools: after the entangler, bit k is the parity of input bits j with mask[k, j]."""
    mask = np.eye(spec.q, dtype=bool)
    for c, t in spec.entangler:
        mask[t] ^= mask[c]
    mask.setflags(write=False)  # one cached array serves every caller
    return mask


def _one_layer_z(x: np.ndarray, spec: CircuitSpec, w: np.ndarray) -> np.ndarray:
    q = spec.q
    z = np.cos(2.0 * x) * (np.cos(w[:q]) * np.cos(w[q:])) + np.sin(2.0 * x) * np.sin(w[q:])
    return np.where(_parity_mask(spec), z[..., None, :], 1.0).prod(axis=-1)


def _one_layer_grad(xs: np.ndarray, spec: CircuitSpec, w: np.ndarray, upstream: np.ndarray):
    q = spec.q
    mask = _parity_mask(spec)
    sin2x, cos2x = np.sin(2.0 * xs), np.cos(2.0 * xs)
    sin_a, cos_a, sin_b, cos_b = np.sin(w[:q]), np.cos(w[:q]), np.sin(w[q:]), np.cos(w[q:])
    z = cos2x * (cos_a * cos_b) + sin2x * sin_b
    # factors[n, k, j] is z_j where readout k depends on wire j, else 1; the
    # leave-one-out products come from prefix and suffix products, never from
    # dividing by z_j, which can be exactly 0
    factors = np.where(mask, z[:, None, :], 1.0)
    ones = np.ones(factors.shape[:-1] + (1,))
    before = np.cumprod(np.concatenate([ones, factors[..., :-1]], axis=-1), axis=-1)
    after = np.cumprod(np.concatenate([ones, factors[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    dz = np.einsum("nk,nkj->nj", upstream, before * after * mask)
    cos_sum, sin_sum = (dz * cos2x).sum(axis=0), (dz * sin2x).sum(axis=0)
    grad_w = np.concatenate([-cos_sum * sin_a * cos_b, sin_sum * cos_b - cos_sum * cos_a * sin_b])
    grad_x = dz * (2.0 * cos2x * sin_b - 2.0 * sin2x * (cos_a * cos_b))
    return grad_w, grad_x


def run_vqc(x, spec: CircuitSpec, w) -> np.ndarray:
    """Encode x, apply the layered circuit, return per-qubit <Z>."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    _check_shapes(x, spec, w)
    if spec.layers == 1:
        return _one_layer_z(x, spec, w)
    return _z_expectations(_run(x, spec, w), spec.q)


def run_vqc_batch(xs, spec: CircuitSpec, w) -> np.ndarray:
    """Row-wise ``run_vqc``: (n, q) inputs -> (n, q) expectations."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(w, dtype=float)
    _check_shapes(xs, spec, w)
    if spec.layers == 1:
        return _one_layer_z(xs, spec, w)
    return _z_expectations(_run(xs, spec, w), spec.q)


def _z_weights(upstream: np.ndarray) -> np.ndarray:
    # (n, q) cotangents -> (n, 2**q) diagonal of sum_k upstream[:, k] Z_k
    diag = np.zeros((upstream.shape[0], 1))
    for k in range(upstream.shape[1]):
        u = upstream[:, k, None]
        diag = np.stack([diag + u, diag - u], axis=-1).reshape(upstream.shape[0], -1)
    return diag


def _halves(amps2d: np.ndarray, qubit: int, q: int):
    # the amplitudes with the qubit at 0 and at 1, as (prefix, block) views
    v = amps2d.reshape(-1, 2, 1 << (q - 1 - qubit))
    return v[:, 0, :], v[:, 1, :]


def param_shift_grad_batch(xs, spec: CircuitSpec, w, upstream):
    """Exact circuit gradients contracted with an upstream (n, q) cotangent.

    One-layer circuits use the closed form (see the module docstring):
    dL/dz_j = sum_k upstream[n, k] prod_{i in row k, i != j} z_i, then the
    chain rule through z_j(x_j, a_j, b_j).

    Deeper circuits use the adjoint method (Jones & Gacon, arXiv:2009.02823).
    One forward run gives psi; lam = O psi carries the observable
    O = sum_k upstream[n, k] Z_k, which is diagonal. A reverse sweep then
    undoes each gate on both states, and a gate exp(-i t P / 2) contributes
    Im<lam|P psi>, read where both sit just after it. The cost is about
    three forward passes, where the parameter-shift rule needs 2 (2qL + q);
    ``tests/oracles.py`` keeps that rule as the reference the tests compare
    against. The function keeps its parameter-shift name because callers and
    the benchmark's tracer look it up by that name.

    Returns (grad_w totalled over the batch, grad_x per row).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(w, dtype=float)
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    _check_shapes(xs, spec, w)
    if upstream.shape != xs.shape:
        raise QsimError(f"upstream shape {upstream.shape} does not match inputs {xs.shape}")
    if spec.layers == 1:
        return _one_layer_grad(xs, spec, w, upstream)

    q = spec.q
    psi = _run(xs, spec, w).reshape(-1, 2**q)
    lam = _z_weights(upstream) * psi
    grad_w = np.zeros(spec.n_params)
    for layer in reversed(range(spec.layers)):
        for c, t in reversed(spec.entangler):
            _cnot_inplace(psi, c, t, q)
            _cnot_inplace(lam, c, t, q)
        base = layer * 2 * q
        # every wire is read here, before any rotation is undone: gates on the
        # other wires commute with the generator read, so this point serves all
        lam_c = lam.conj()
        im_diag = (lam_c * psi).imag.sum(axis=0)  # for the Im<lam|Z_k psi> terms
        for k in range(q):
            l0, l1 = _halves(lam_c, k, q)
            p0, p1 = _halves(psi, k, q)
            c01, c10 = (l0 * p1).sum(), (l1 * p0).sum()
            d0, d1 = _halves(im_diag, k, q)
            theta_x = w[base + q + k]
            # RX is the wire's last rotation, so its generator here is X; RY
            # sits under it and is seen as RX Y RX^dag = cos(t) Y + sin(t) Z
            grad_w[base + q + k] = (c01 + c10).imag
            grad_w[base + k] = np.cos(theta_x) * (c10 - c01).real + np.sin(theta_x) * (d0.sum() - d1.sum())
        for k in range(q):
            undo = ry_matrix(-w[base + k]) @ rx_matrix(-w[base + q + k])
            _rot_inplace(psi, undo, k, q)
            _rot_inplace(lam, undo, k, q)

    # the encoding applies RX(-2 x_i) to |0> on each wire
    lam_c = lam.conj()
    grad_x = np.empty_like(xs)
    for i in range(q):
        l0, l1 = _halves(lam_c, i, q)
        p0, p1 = _halves(psi, i, q)
        grad_x[:, i] = -2.0 * (l0 * p1 + l1 * p0).imag.reshape(len(xs), -1).sum(axis=1)
    return grad_w, grad_x


def param_shift_grad(x, spec: CircuitSpec, w, upstream):
    """Single-input ``param_shift_grad_batch``; returns (grad_w, grad_x)."""
    grad_w, grad_x = param_shift_grad_batch(
        np.asarray(x, dtype=float)[None, :], spec, w, np.asarray(upstream, dtype=float)[None, :]
    )
    return grad_w, grad_x[0]
