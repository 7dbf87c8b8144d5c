"""Exact readouts and gradients of small RX/RY/CNOT circuits.

Conventions, fixed once and used everywhere:

* Qubit 0 is the most significant bit of the amplitude index, so
  ``amps.reshape((2,) * q)`` puts qubit k on axis k.
* ``RX(t) = exp(-i t X / 2)``, ``RY(t) = exp(-i t Y / 2)``.
* Angle encoding prepares the product state with per-qubit amplitudes
  ``(cos x_i, i sin x_i)``, i.e. ``RX(-2 x_i)`` applied to |0>.

A circuit runs on one of three exact paths, which ``circuit_path`` picks from
the spec alone by a cost model (no option selects it). Each path is one class,
``_OneLayer``, ``_Mps`` or ``_Statevector``, built once per parameter vector
with two kernels that work on one chunk of rows: ``z(xs)``, and
``grad(xs, upstream)``, which returns each row's angle gradients in the order
of w and its input gradient. ``_folded`` is the only place that picks the
path, and it keeps the last fold: a training batch's forward and gradient
share one, as does every row scored under one checkpoint.

One-layer circuits never build a state. Their rotations leave a product
state whose wire j has <Z> = z_j = cos 2x_j cos a_j cos b_j + sin 2x_j sin b_j
(a_j, b_j the RY and RX angles), and the CNOTs that follow only permute basis
states: output bit k is the GF(2) parity of the input bits in row k of a
(q, q) mask. So <Z_k> = prod of z_j over that row, read and differentiated
in O(q^2) per input.

Deeper circuits take one of two paths:

* As a matrix product state (Vidal, arXiv:quant-ph/0301063) when the
  entanglement is short-range, as for chain and ring entanglers at 16 qubits.
  A CNOT is applied exactly, with no SVD, as a bond-2 MPO that doubles the
  bond of each cut it spans; sites are stacked at the largest bond B (2 for
  a q16/l2 chain, 4 for a ring), padded with exact zeros. The last entangler
  is never applied: as in the closed form, <Z_k> after it is the Z-string
  over row k of the parity mask before it. Wire j's site is linear in
  (cos x_j, i sin x_j), so its real I and Z transfer matrices are
  P_j + cos 2x_j Q_j + sin 2x_j S_j (Schuld, Sweke & Meyer,
  arXiv:2008.08605), folded once per parameter vector. Real environments
  (Schollwoeck, arXiv:1008.3477) are carried in a few channels built from
  the mask, not one per readout: row k is all identity past its last Z, so
  readout k is a left string's environment at that cut against the one
  identity environment from the right there. A chain has one left string
  (row k is Z on wires 0..k), a ring two. One scan runs the left channels
  and the right one together, one stacked matmul a step. The gradient of
  sum_k u_k <Z-string_k> is a sum of strings, a bond-2 automaton MPO
  (Crosswhite & Bacon, arXiv:0708.1221): it adds a left channel V that
  collects the u_k of readouts whose cut is passed and a right channel per
  left string that collects those not yet reached, so each transfer
  matrix's cotangent is a sum of rank-1 terms, four channels for a chain.
  The cotangents are read against dR/dx and against each angle's dP, dQ
  and dS, which folds shifted by +-pi/2 give exactly (Mitarai et al.,
  arXiv:1803.00745).
* Otherwise on the statevector, simulated a layer at a time over (rows, 2^q)
  arrays. The first layer acts on the encoded product state, so its
  rotations are applied to each wire's two amplitudes before the product is
  formed. A layer's RY and RX on a wire fuse to one 2x2 matrix, and the
  wires are rotated in groups of up to ``GROUP_WIRES``: one matmul per group
  with the Kronecker product of the group's matrices, built once per fold. A
  layer's CNOT network permutes basis states, so it is one gather,
  ``np.take(state, perm, axis=1)``; ``perm`` is cached per spec and built
  from the index bits of ``arange(2**q)``, one CNOT at a time. <Z_k> is read
  by halving the probabilities once per wire.

``run_vqc_batch`` and ``param_shift_grad_batch`` alone run rows in chunks of
``CHUNK_AMPLITUDES`` amplitudes (at least one row), so a call's memory is a
fixed multiple of that budget, or of one row beyond 16 qubits, plus its
per-row results, whatever the batch size. A row counts what it holds at most
(a fold's ``forward_amplitudes`` and ``row_amplitudes``): 2^q amplitudes on
the statevector, its (q, q) factors and partial products in the closed form,
each scan step's operands, its channels at every cut and the cotangents on
the MPS (``_mps_forward_amplitudes``, ``_mps_row_amplitudes``), which is taken only
when a gradient row fits in the budget. No result depends on the chunking;
the entry points total each row's angle gradients once.

On the statevector, gradients come from the adjoint method (``_Statevector.grad``).
Parameter shift of whole circuits survives only as the test oracle in
``tests/oracles.py``; the simulator is the reference the closed form is
tested against, and ``tests/oracles.tensor_state``, which applies one gate at
a time to a (2,) * q tensor, is the reference for the layer kernels and the
MPS path.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_QUBITS = 20
CHUNK_AMPLITUDES = 1 << 16  # 1 MiB of complex128 per simulated chunk
GROUP_WIRES = 4  # wires per rotation matmul: 16 x 16 Kronecker products


class QsimError(ValueError):
    """Inconsistent circuit shapes or out-of-range indices."""


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


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


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)  # cached arrays serve every caller


def _chunks(n: int, row_amplitudes: int) -> list:
    """Row slices of at most CHUNK_AMPLITUDES amplitudes each, one row at least."""
    step = max(1, CHUNK_AMPLITUDES // row_amplitudes)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _product_state(wires: np.ndarray, out: np.ndarray) -> np.ndarray:
    # wires: (n, q, 2) per-wire amplitudes -> their product state in out, (n, 2**q).
    # Built in place from the last wire up: the tail of each row holds the
    # product over wires k+1.., and wire k doubles it towards the front.
    size = out.shape[1]
    out[:, -1] = 1.0
    for k in reversed(range(wires.shape[1])):
        m = size >> (k + 1)
        tail = out[:, size - m:]
        np.multiply(tail, wires[:, k, 0, None], out=out[:, size - 2 * m:size - m])
        np.multiply(tail, wires[:, k, 1, None], out=tail)
    return out


def _z_expectations(amps: np.ndarray, q: int) -> np.ndarray:
    # halving: split on the most significant wire left, read its <Z>, then
    # sum the two halves so the next wire becomes the most significant
    lead = amps.shape[:-1]
    probs = (amps.real**2 + amps.imag**2).reshape(-1, 2**q)
    out = np.empty((probs.shape[0], q))
    for k in range(q):
        halves = probs.reshape(probs.shape[0], 2, -1)
        lo, hi = halves[:, 0], halves[:, 1]
        out[:, k] = lo.sum(axis=1) - hi.sum(axis=1)
        probs = lo + hi
    return out.reshape(lead + (q,))


# ---------------------------------------------------------------------------
# layer kernels over (rows, 2**q) chunks


def _wire_groups(q: int):
    """(first wire, wire count) of each rotation group, in wire order."""
    return [(k0, min(GROUP_WIRES, q - k0)) for k0 in range(0, q, GROUP_WIRES)]


@functools.lru_cache(maxsize=64)
def _entangler_perms(spec: CircuitSpec) -> tuple[np.ndarray, np.ndarray]:
    """(perm, inverse): ``np.take(state, perm, axis=-1)`` applies the CNOT network.

    A CNOT (c, t) swaps amplitude i with i ^ (qubit t's bit) wherever qubit
    c's bit of i is set, so each one reorders ``perm`` by that index map.
    """
    q = spec.q
    idx = np.arange(2**q)
    perm = idx
    for c, t in spec.entangler:
        perm = perm[idx ^ (((idx >> (q - 1 - c)) & 1) << (q - 1 - t))]
    inverse = np.argsort(perm)
    _read_only(perm, inverse)
    return perm, inverse


@functools.lru_cache(maxsize=None)
def _marginal_index(c: int) -> np.ndarray:
    """(2**(c-1), 2, 2, c) flat indices into a (2^c x 2^c) group overlap matrix:
    [:, a, b, j] are the entries with the group's wire j at (a, b) and every
    other wire equal."""
    rest = np.arange(1 << (c - 1))
    idx = np.empty((rest.size, 2, c), dtype=np.intp)
    for j in range(c):
        pos = c - 1 - j  # the group's first wire is its most significant bit
        high, low = (rest >> pos) << (pos + 1), rest & ((1 << pos) - 1)
        idx[:, 0, j], idx[:, 1, j] = high | low, high | (1 << pos) | low
    flat = (idx[:, :, None] << c) | idx[:, None, :]
    _read_only(flat)
    return flat


def _kron(mats: np.ndarray) -> np.ndarray:
    """Kronecker product of (c, 2, 2) matrices, the first one most significant."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(2 * len(out), -1)
    return out


def _permute(src: np.ndarray, perm: np.ndarray, dst: np.ndarray) -> np.ndarray:
    # a gather into dst; mode="clip" (perm is in range) keeps np.take from
    # buffering its output
    return np.take(src, perm, axis=1, out=dst, mode="clip")


def _rotate(amps: np.ndarray, krons: list, q: int, spare: np.ndarray) -> None:
    """Apply one layer's rotations to ``amps`` in place, one matmul per wire group.

    Every matmul is stacked by row (and prefix), so a row's arithmetic does not
    depend on how many rows the chunk holds.
    """
    n = amps.shape[0]
    src, dst = amps, spare
    for (k0, c), mat in zip(_wire_groups(q), krons):
        d, block = 1 << c, 1 << (q - k0 - c)
        if block == 1:
            np.matmul(src.reshape(n, -1, d), mat.T, out=dst.reshape(n, -1, d))
        else:
            np.matmul(mat, src.reshape(-1, d, block), out=dst.reshape(-1, d, block))
        src, dst = dst, src
    if src is not amps:
        np.copyto(amps, src)


def _wire_overlaps(lam: np.ndarray, psi: np.ndarray, q: int, scratch: np.ndarray) -> np.ndarray:
    """(n, 2, 2, q): [n, a, b, k] sums conj(lam) psi over row n's amplitude
    pairs with lam's wire k at a, psi's at b and every other wire equal.

    Each wire group's terms come from one (2^c x 2^c) overlap matrix per row,
    a stacked matmul of the two states; ``scratch`` holds conj(lam).
    """
    n = lam.shape[0]
    lam_c = np.conjugate(lam, out=scratch)
    parts = []
    for k0, c in _wire_groups(q):
        d, block = 1 << c, 1 << (q - k0 - c)
        if block == 1:
            overlap = lam_c.reshape(n, -1, d).transpose(0, 2, 1) @ psi.reshape(n, -1, d)
        else:
            overlap = lam_c.reshape(n, -1, d, block) @ psi.reshape(n, -1, d, block).transpose(0, 1, 3, 2)
            # the first group has one prefix, so there is nothing to sum
            overlap = overlap[:, 0] if k0 == 0 else overlap.sum(axis=1)
        # reductions run over a middle axis, so each row sums in the same order
        parts.append(np.take(overlap.reshape(n, -1), _marginal_index(c), axis=1).sum(axis=1))
    return np.concatenate(parts, axis=-1)


def _wire_rotations(spec: CircuitSpec, w: np.ndarray) -> np.ndarray:
    """(..., layers, q, 2, 2): a layer's RY then RX on one wire, as one matrix,
    for each of the (..., n_params) angle vectors w. With c and s the cosines
    and sines of the half angles, RX RY = [[cx cy - i sx sy, -cx sy - i sx cy],
    [cx sy - i sx cy, cx cy + i sx sy]]: each real and imaginary part is one
    product."""
    half = w.reshape(w.shape[:-1] + (spec.layers, 2, spec.q)) / 2.0
    cos, sin = np.cos(half), np.sin(half)
    (cy, cx), (sy, sx) = np.moveaxis(cos, -2, 0), np.moveaxis(sin, -2, 0)
    cc, ss, cs, sc = cx * cy, sx * sy, cx * sy, sx * cy
    out = np.empty(cc.shape + (2, 2), dtype=complex)
    out.real[..., 0, 0] = out.real[..., 1, 1] = cc
    out.real[..., 1, 0] = cs
    np.negative(cs, out=out.real[..., 0, 1])
    np.negative(ss, out=out.imag[..., 0, 0])
    out.imag[..., 1, 1] = ss
    np.negative(sc, out=out.imag[..., 0, 1])
    out.imag[..., 1, 0] = out.imag[..., 0, 1]
    return out


def _first_wires(xs: np.ndarray, wires: np.ndarray) -> np.ndarray:
    """(n, q, 2): each wire after encoding and the first layer's rotations."""
    enc = np.stack([np.cos(xs).astype(complex), 1j * np.sin(xs)], axis=-1)  # (cos x, i sin x)
    if not len(wires):
        return enc
    u = wires[0]  # u @ wire for every row and wire, written out elementwise
    return u[None, :, :, 0] * enc[:, :, None, 0] + u[None, :, :, 1] * enc[:, :, None, 1]


def _rotation_grads(overlaps: np.ndarray, w_layer: np.ndarray) -> np.ndarray:
    # (n, 2, 2, q) wire overlaps read just after a layer's rotations -> each
    # row's 2q angle gradients. RX is each wire's last rotation, so its generator
    # there is X; RY sits under it and is seen as RX Y RX^dag = cos(t) Y + sin(t) Z.
    re, im = overlaps.real, overlaps.imag
    theta_x = w_layer[overlaps.shape[-1]:]
    grad_y = np.cos(theta_x) * (re[:, 1, 0] - re[:, 0, 1]) + np.sin(theta_x) * (im[:, 0, 0] - im[:, 1, 1])
    return np.concatenate([grad_y, im[:, 0, 1] + im[:, 1, 0]], axis=-1)


def _encoding_grads(overlaps: np.ndarray, wires: np.ndarray) -> np.ndarray:
    """(n, q) grad_x from (n, 2, 2, q) wire overlaps (see ``_wire_overlaps``) read
    just after the first layer's rotations u, where the encoding's generator X of
    each wire is seen as u X u^dag; with no layers they are read at the encoding."""
    u = wires[0] if len(wires) else np.eye(2, dtype=complex)[None]
    generators = np.moveaxis(u @ _PAULI_X @ u.conj().swapaxes(-1, -2), 0, -1)
    enc = (generators * overlaps).reshape(-1, 4, overlaps.shape[-1])
    return -2.0 * enc.sum(axis=1).imag


def _z_weights(upstream: np.ndarray) -> np.ndarray:
    # (n, q) cotangents -> (n, 2**q) diagonal of sum_k upstream[:, k] Z_k
    diag = np.zeros((upstream.shape[0], 1))
    for k in range(upstream.shape[1]):
        u = upstream[:, k, None]
        diag = np.stack([diag + u, diag - u], axis=-1).reshape(upstream.shape[0], -1)
    return diag


class _Statevector:
    """The circuit on the statevector for one parameter vector: each layer's
    rotation groups as Kronecker products (``krons``), their conjugates for the
    reverse sweep (``undo``) and the entangler's cached permutations."""

    def __init__(self, spec: CircuitSpec, w: np.ndarray) -> None:
        self.q, self.layers, self.w = spec.q, spec.layers, w
        self.wires = _wire_rotations(spec, w)
        self.krons = [[_kron(mats[k0:k0 + c]) for k0, c in _wire_groups(spec.q)] for mats in self.wires[1:]]
        self.undo = [[m.conj().T for m in krons] for krons in self.krons]
        self.perm, self.inverse = _entangler_perms(spec)
        self.forward_amplitudes = self.row_amplitudes = 2**spec.q
        _read_only(self.wires, *itertools.chain(*self.krons, *self.undo))

    def rotated(self, first: np.ndarray):
        """(the state after the last layer's rotations, before its entangler, and
        a spare array of its shape), from each wire's amplitudes ``first``
        (``_first_wires``): two (n, 2**q) work arrays of their own."""
        amps, spare = np.empty((2, len(first), 2**self.q), dtype=complex)
        _product_state(first, amps)
        for krons in self.krons:
            amps, spare = _permute(amps, self.perm, spare), amps
            _rotate(amps, krons, self.q, spare)
        return amps, spare

    def state(self, xs: np.ndarray) -> np.ndarray:
        """(n, 2**q) output states of the (n, q) rows xs."""
        amps, spare = self.rotated(_first_wires(xs, self.wires))
        return _permute(amps, self.perm, spare) if self.layers else amps

    def z(self, xs: np.ndarray) -> np.ndarray:
        return _z_expectations(self.state(xs), self.q)

    def grad(self, xs: np.ndarray, upstream: np.ndarray):
        """The adjoint method (Jones & Gacon, arXiv:2009.02823).

        One forward run gives psi; lam = O psi carries the observable
        O = sum_k upstream[n, k] Z_k, which is diagonal. A reverse sweep then
        undoes each layer on both states, and a gate exp(-i t P / 2) contributes
        Im<lam|P psi>, read where both sit just after it. Every wire of a layer
        is read at one point, just after the layer's rotations, from the wire
        overlaps of ``_wire_overlaps``. Below the first layer psi is the product
        state again, so it is rebuilt rather than undone, and the encoding
        gradient is read there too, with the generator X carried through the
        first layer's rotation of that wire.
        """
        q, layers = self.q, self.layers
        first = _first_wires(xs, self.wires)
        psi, spare = self.rotated(first)
        weights = _z_weights(upstream)
        lam = np.multiply(np.take(weights, self.inverse, axis=1) if layers else weights, psi)
        w_layers = self.w.reshape(layers, 2 * q)
        angles = np.empty((len(xs), layers, 2 * q))
        for layer in range(layers - 1, 0, -1):
            angles[:, layer] = _rotation_grads(_wire_overlaps(lam, psi, q, spare), w_layers[layer])
            _rotate(lam, self.undo[layer - 1], q, spare)
            lam, spare = _permute(lam, self.inverse, spare), lam
            if layer > 1:
                _rotate(psi, self.undo[layer - 1], q, spare)
                psi, spare = _permute(psi, self.inverse, spare), psi
        overlaps = _wire_overlaps(lam, _product_state(first, spare), q, psi)
        if layers:
            angles[:, 0] = _rotation_grads(overlaps, w_layers[0])
        return angles.reshape(len(xs), self.w.size), _encoding_grads(overlaps, self.wires)


def _check_shapes(xs: np.ndarray, spec: CircuitSpec, w: np.ndarray, upstream=None) -> None:
    if xs.ndim > 2:
        raise QsimError(f"inputs must be (n, {spec.q}) rows or one ({spec.q},) row, got shape {xs.shape}")
    if xs.shape[-1] != spec.q:
        raise QsimError(f"input length {xs.shape[-1]} does not match q={spec.q}")
    if w.shape != (spec.n_params,):
        raise QsimError(f"expected {spec.n_params} circuit angles, got {w.shape}")
    if upstream is not None and upstream.shape != xs.shape:
        raise QsimError(f"upstream shape {upstream.shape} does not match inputs {xs.shape}")


# ---------------------------------------------------------------------------
# closed form for one layer

@functools.lru_cache(maxsize=64)
def _parity_mask(spec: CircuitSpec) -> np.ndarray:
    """(q, q) bools: after the entangler, bit k is the parity of input bits j with mask[k, j]."""
    mask = np.eye(spec.q, dtype=bool)
    for c, t in spec.entangler:
        mask[t] ^= mask[c]
    _read_only(mask)
    return mask


class _OneLayer:
    """The closed form for one parameter vector: the parity mask, and the sin
    and cos of each wire's RY angle a_j and RX angle b_j."""

    def __init__(self, spec: CircuitSpec, w: np.ndarray) -> None:
        q = spec.q
        self.mask = _parity_mask(spec)
        self.sin_a, self.cos_a, self.sin_b, self.cos_b = np.sin(w[:q]), np.cos(w[:q]), np.sin(w[q:]), np.cos(w[q:])
        self.cos_ab = self.cos_a * self.cos_b
        # amplitudes a row holds at most, a real counting as half of one: its (q, q)
        # factors, partial products and two product temporaries, and sin 2x, cos 2x, z and ones
        self.forward_amplitudes = self.row_amplitudes = q * (5 * q + 4) // 2
        _read_only(self.sin_a, self.cos_a, self.sin_b, self.cos_b, self.cos_ab)

    def wire_z(self, xs: np.ndarray):
        """(sin 2x, cos 2x, z): each wire's <Z> z_j before the entangler, all (n, q)."""
        sin2x, cos2x = np.sin(2.0 * xs), np.cos(2.0 * xs)
        return sin2x, cos2x, cos2x * self.cos_ab + sin2x * self.sin_b

    def z(self, xs: np.ndarray) -> np.ndarray:
        return np.where(self.mask, self.wire_z(xs)[2][:, None, :], 1.0).prod(axis=-1)

    def grad(self, xs: np.ndarray, upstream: np.ndarray):
        """dL/dz_j = sum_k upstream[n, k] prod_{i in row k, i != j} z_i, then the
        chain rule through z_j(x_j, a_j, b_j)."""
        sin2x, cos2x, z = self.wire_z(xs)
        # factors[n, k, j] is z_j where readout k depends on wire j, else 1; the
        # leave-one-out products come from prefix and suffix products, never from
        # dividing by z_j, which can be exactly 0
        factors = np.where(self.mask, z[:, None, :], 1.0)
        ones = np.ones(factors.shape[:-1] + (1,))
        before = np.cumprod(np.concatenate([ones, factors[..., :-1]], axis=-1), axis=-1)
        after = np.cumprod(np.concatenate([ones, factors[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
        dz = np.einsum("nk,nkj->nj", upstream, before * after * self.mask)
        cos_term = dz * cos2x
        angles = np.concatenate([cos_term * (-self.sin_a * self.cos_b),
                                 dz * sin2x * self.cos_b - cos_term * (self.cos_a * self.sin_b)], axis=1)
        return angles, dz * (2.0 * cos2x * self.sin_b - 2.0 * sin2x * self.cos_ab)


# ---------------------------------------------------------------------------
# matrix product states for deep circuits

CLOSED_FORM, MPS, STATEVECTOR = "closed form", "mps", "statevector"
SITE_COST = 900  # amplitude updates per row that one MPS site's numpy calls cost


@functools.lru_cache(maxsize=64)
def _mps_bonds(spec: CircuitSpec) -> tuple[int, ...]:
    """Bond of each of the q + 1 cuts (the outer two are 1) once every
    entangler but the last is applied: each CNOT doubles the cuts it spans."""
    bonds = [1] * (spec.q + 1)
    for _ in range(spec.layers - 1):
        for c, t in spec.entangler:
            for cut in range(min(c, t) + 1, max(c, t) + 1):
                bonds[cut] *= 2
    return tuple(bonds)


def _mps_forward_amplitudes(spec: CircuitSpec) -> int:
    """Amplitudes a row holds at most in an MPS forward, a real number counting as
    half of one, with c = m + 1 channels (m left strings, see ``_Channels``) at
    the largest bond B. While it scans: (1, cos 2x, sin 2x) and a temporary
    (4 q), each step's operands and their coefficients (q c (B^4 + 3)) and the
    channels at every cut ((q + 1) c B^2). Reading them out holds less."""
    q, size, b2 = spec.q, len(_mps_channels(spec).strings) + 1, max(_mps_bonds(spec)) ** 2
    return (q * (4 + size * (b2 * b2 + 3)) + (q + 1) * size * b2 + 1) // 2


def _mps_row_amplitudes(spec: CircuitSpec) -> int:
    """Amplitudes a gradient row holds at most, the most on the MPS path, with
    c = 2 m + 2 channels and m + 1 pairs of them. Throughout: the upstream
    weights at each cut ((q + 1) m), the channel mix of its q - 1 steps
    ((q - 1) c^2), (1, cos 2x, sin 2x) (3 q) and the channels at every cut
    (q c B^2). While it scans: each step's operands and their coefficients
    ((q - 1) c (B^4 + 3)) and a step's product (c B^2). Once it is done: each
    pair's two environments and its weighted slots (4 q (m + 1) B^2), the
    cotangents (2 q B^4), their inner products (q (2 + 6 layers)) and the angle
    terms and their sums (8 q layers + 4 q)."""
    q, m, b2 = spec.q, len(_mps_channels(spec).strings), max(_mps_bonds(spec)) ** 2
    size, steps = 2 * m + 2, q - 1
    scan = steps * size * (b2 * b2 + 3) + size * b2
    done = 4 * q * (m + 1) * b2 + 2 * q * b2 * b2 + q * (2 + 6 * spec.layers) + 8 * q * spec.layers + 4 * q
    held = (q + 1) * m + steps * size * size + 3 * q + q * size * b2
    return (held + max(scan, done) + 1) // 2


def circuit_path(spec: CircuitSpec) -> str:
    """How ``run_vqc_batch`` and ``param_shift_grad_batch`` evaluate the circuit.

    One layer has a closed form. Deeper circuits run as a matrix product state
    when a gradient row fits in ``CHUNK_AMPLITUDES`` and its work is the
    smaller, per row in amplitude updates: 2 q layers 2^q on the statevector
    (about 2q per amplitude and layer); on the MPS, at any depth, q sites of
    ``SITE_COST`` for their numpy calls plus 2 q B^4 real multiply-adds for
    carrying q readouts through a real (B^2, 2 B^2) transfer matrix. The
    constants come from timings on a 2-core x86 host when the MPS carried every
    readout: the paths broke even at q = 8 to 9 for a chain at two layers, q = 9
    to 10 for a chain at three and q = 10 to 11 for a ring at two. With a few
    channels the MPS is cheaper, and a 72-row training batch on the same host
    breaks even below q = 5, at q = 8 to 9 and at q = 8 to 9; the model still
    sends those in between to the statevector.
    """
    if spec.layers == 1:
        return CLOSED_FORM
    if spec.layers == 0 or _mps_row_amplitudes(spec) > CHUNK_AMPLITUDES:
        return STATEVECTOR
    work = spec.q * (SITE_COST + 2 * spec.q * max(_mps_bonds(spec)) ** 4)
    return MPS if work < 2 * spec.q * spec.layers << spec.q else STATEVECTOR


def _cnot_site(a: np.ndarray, j: int, c: int, t: int) -> np.ndarray:
    """Wire j's (n, l, 2, r) site tensor after the CNOT (c, t), as a bond-2 MPO.

    The MPO's index b is the control bit: P_b on the control, X^b on the
    target, the identity on the wires between, with b carried across every
    cut from c to t. b joins each bond it crosses as its least significant bit.
    """
    n, l, _, r = a.shape
    left, right = int(j > min(c, t)), int(j < max(c, t))
    out = np.zeros((n, l, 1 + left, 2, r, 1 + right), dtype=complex)
    for b in (0, 1):
        view = out[:, :, b * left, :, :, b * right]
        if j == c:
            view[:, :, b] = a[:, :, b]
        else:
            view[...] = a[:, :, ::-1] if j == t and b else a
    return out.reshape(n, l * (1 + left), 2, r * (1 + right))


@functools.lru_cache(maxsize=64)
def _entangler_maps(spec: CircuitSpec) -> np.ndarray:
    """(q, D, D): the entangler as a map on each wire's (B, 2, B) site, D = 2 B^2
    at the largest bond B, pushed through ``_cnot_site`` as a basis. No cut
    passes B before the last entangler, so indices past B (zero) are cut."""
    bond = max(_mps_bonds(spec))
    size = 2 * bond * bond
    maps = np.empty((spec.q, size, size), dtype=complex)
    for j in range(spec.q):
        site = np.eye(size, dtype=complex).reshape(size, bond, 2, bond)
        for c, t in spec.entangler:
            if min(c, t) <= j <= max(c, t):
                site = _cnot_site(site, j, c, t)[:, :bond, :, :bond]
        maps[j] = site.reshape(size, size).T
    _read_only(maps)
    return maps


class _Channels(NamedTuple):
    """The channels of an MPS scan for one spec (``_mps_channels``).

    Readout k is the Z-string ``strings[channel[k]]`` on its first ``cut[k]``
    wires, and the identity past them. A scan step t carries a stack of 2 m + 2
    channels, m = len(strings): the left strings L_0 .. L_{m-1} and V across
    wire t from the left, the right identity R_I and W_0 .. W_{m-1} across wire
    q - 1 - t from the right, in the order L, R_I, V, W, so that the readouts
    need only the first m + 1. ``right`` (2 m + 2,) marks the channels that
    come from the right. ``sites`` and ``slots`` (q, 2 m + 2) are the wire each
    channel of a step crosses and the slot of it that it reads, 0 for I and 1
    for Z; a right channel reads it transposed.
    """

    strings: np.ndarray
    channel: np.ndarray
    cut: np.ndarray
    right: np.ndarray
    sites: np.ndarray
    slots: np.ndarray


@functools.lru_cache(maxsize=64)
def _mps_channels(spec: CircuitSpec) -> _Channels:
    """The channel table of the spec's readouts, each one the Z-string over its
    row of ``_parity_mask``. A row's cut is one past its last Z, and past it the
    row is all identity, so one right channel serves every readout. Rows whose
    prefixes up to their cuts are prefixes of one another share a left string:
    a chain has one, a ring two, any mask at most q."""
    q = spec.q
    mask = _parity_mask(spec)
    cut = q - np.argmax(mask[:, ::-1], axis=1)
    strings, channel = [], np.empty(q, dtype=np.intp)
    for k in np.argsort(-cut, kind="stable"):  # longest first: a row joins the first string it begins
        prefix = mask[k, :cut[k]]
        channel[k] = next((c for c, s in enumerate(strings) if np.array_equal(s[:cut[k]], prefix)), len(strings))
        if channel[k] == len(strings):
            strings.append(np.where(np.arange(q) < cut[k], mask[k], False))
    strings = np.array(strings, dtype=np.intp)
    m = len(strings)
    right = np.array([False] * m + [True, False] + [True] * m)
    steps = np.arange(q)[:, None]
    sites = np.where(right, q - 1 - steps, steps)
    slots = np.zeros(sites.shape, dtype=np.intp)
    slots[:, :m], slots[:, m + 2:] = strings.T, strings.T[::-1]
    table = _Channels(strings, channel, cut, right, sites, slots)
    _read_only(*table)
    return table


def _transfers(sites: np.ndarray, bond: int) -> np.ndarray:
    """(n, q, B^2, 2, B^2) real I and Z transfer matrices of (n, q, D) sites.

    An environment E of a cut is a Hermitian (B, B) matrix, and site a carries
    it to sum_s (-1)^(s p) a_s^H E a_s (p = 1 for Z). It is stored as B^2 reals
    e_xy = Re E_xy + Im E_xy, which E_xy = ((1 + i) e_xy + (1 - i) e_yx) / 2
    inverts, and in which that step is e' = e @ R[:, p] with R[(x, y), p] =
    Re T[(x, y), p] + Im T[(y, x), p], T the complex transfer matrix:
    [(x, y), p, (x', y')] sums (-1)^(s p) conj(a[x, s, x']) a[y, s, y'] over s.
    R is read straight from the real and imaginary parts of the outer products,
    the site index innermost so that every pass runs over all n q sites at
    once. Only ``_mps_folds`` calls it, on three sites a wire and angle vector.
    """
    n, q, _ = sites.shape
    b = bond
    a = np.ascontiguousarray(sites.reshape(n * q, b, 2, b).transpose(2, 1, 3, 0))  # (s, x, x', site)
    outer = a.conj()[:, :, None, :, None] * a[:, None, :, None, :]  # (s, x, y, x', y', site)
    terms = np.add(outer.real, outer.imag.swapaxes(1, 2))
    del outer  # freed before the output is allocated
    out = np.empty((n * q, b, b, 2, b, b))
    by_site = out.transpose(1, 2, 3, 4, 5, 0)
    np.add(terms[0], terms[1], out=by_site[:, :, 0])
    np.subtract(terms[0], terms[1], out=by_site[:, :, 1])
    return out.reshape(n, q, b * b, 2, b * b)


def _mps_folds(spec: CircuitSpec, ws: np.ndarray) -> np.ndarray:
    """(m, 3, q, B^2, 2 B^2): P, Q and S of every wire under each of the (m,
    n_params) angle vectors ws, so that wire j's real transfer matrices (see
    ``_transfers``) at input x are R_j(x) = P_j + cos 2x Q_j + sin 2x S_j.

    Wire j's last site is A_j @ (cos x, i sin x), A_j the layers' rotations
    and entangler maps, so R_j is quadratic in (cos x, sin x). It is read at
    x = 0, pi/2 and pi/4, the last with its site scaled by sqrt 2 so that
    every coefficient below is an exact halving: R(0) = P + Q,
    R(pi/2) = P - Q and 2 R(pi/4) = 2 (P + S).
    """
    q, bond = spec.q, max(_mps_bonds(spec))
    entangler = _entangler_maps(spec)
    wires = _wire_rotations(spec, ws)
    a = np.zeros((len(ws), q, 2 * bond * bond, 2), dtype=complex)
    a[:, :, [0, bond]] = wires[:, 0]  # the first-layer amplitudes at (0, s, 0): bond 1 padded to B
    for u in wires[:, 1:].swapaxes(0, 1):  # a layer's entangler, then its rotations on each site's index s
        sites = (entangler @ a).reshape(len(ws), q, bond, 1, 2, -1)
        a = (u[:, :, None, :, :, None] * sites).sum(axis=-2).reshape(a.shape)
    sites = np.stack([a[..., 0], 1j * a[..., 1], a[..., 0] + 1j * a[..., 1]], axis=1)
    reads = _transfers(sites.reshape(-1, q, a.shape[-2]), bond).reshape(len(ws), 3, -1)
    folds = np.array([[1, 1, 0], [1, -1, 0], [-1, -1, 1]]) / 2 @ reads
    return folds.reshape(len(ws), 3, q, bond * bond, -1)


def _trig(xs: np.ndarray) -> np.ndarray:
    """(q, n, 3): (1, cos 2x, sin 2x) of each wire of the (n, q) rows xs."""
    twice = 2.0 * xs.T
    trig = np.empty(twice.shape + (3,))
    trig[..., 0] = 1.0
    trig[..., 1] = np.cos(twice)
    trig[..., 2] = np.sin(twice)
    return trig


class _Mps:
    """The circuit on the MPS path for one parameter vector: each wire's P, Q
    and S (``_mps_folds``), and the same laid out as the operands of each scan
    step's channels (see ``_Channels``)."""

    def __init__(self, spec: CircuitSpec, w: np.ndarray) -> None:
        self.spec, self.w = spec, w
        self.folds = _mps_folds(spec, w[None])[0]
        self.channels = _mps_channels(spec)
        q, b2 = spec.q, self.folds.shape[-2]
        right, sites, slots = self.channels.right, self.channels.sites, self.channels.slots
        # (q, 2 m + 2, 3, B^4): (1, cos 2x, sin 2x) @ operands[t, c] is channel c's operand at step t
        blocks = self.folds.reshape(3, q, b2, 2, b2).transpose(1, 3, 0, 2, 4)  # (wire, slot, P Q S, B^2, B^2)
        operands = np.empty((q, len(right), 3, b2, b2))
        operands[:, ~right] = blocks[sites[:, ~right], slots[:, ~right]]
        operands[:, right] = blocks[sites[:, right], slots[:, right]].swapaxes(-1, -2)
        self.operands = operands.reshape(q, len(right), 3, -1)
        self.forward_amplitudes, self.row_amplitudes = _mps_forward_amplitudes(spec), _mps_row_amplitudes(spec)
        _read_only(self.folds, self.operands)

    def scan(self, trig: np.ndarray, start: np.ndarray, mix=None) -> np.ndarray:
        """(steps + 1, c, n, 1, B^2): the first c channels of the stack before
        each step and after the last, in real coordinates (see ``_transfers``),
        from the (c, n, 1, B^2) boundaries ``start``, for the rows with (q, n, 3)
        ``trig`` (``_trig``).

        A row's operands are formed as one stacked (1 x 3) @ (3 x B^4) product a
        step and channel, of (1, cos 2x, sin 2x) at the wire it crosses with its
        P, Q and S; a step is then one stacked (1 x B^2) @ (B^2 x B^2) product a
        channel and row. There are q steps, or as many as ``mix`` (steps, n, c, c)
        has, which then mixes each row's channels after each step."""
        q, n = trig.shape[:2]
        size, b2 = len(start), self.folds.shape[-2]
        steps = q if mix is None else len(mix)
        coefficients = trig.take(self.channels.sites[:steps, :size], axis=0)[..., None, :]
        operands = (coefficients @ self.operands[:steps, :size, None]).reshape(steps, size, n, b2, b2)
        envs = np.empty((steps + 1,) + start.shape)
        envs[0] = start
        if mix is None:
            for env, op, out in zip(envs[:-1], operands, envs[1:]):
                np.matmul(env, op, out=out)
        else:
            for env, op, weights, out in zip(envs[:-1], operands, mix, envs[1:]):
                np.matmul(weights, (env @ op)[..., 0, :].swapaxes(0, 1), out=out[..., 0, :].swapaxes(0, 1))
        return envs

    @functools.cached_property
    def grad_matrices(self) -> np.ndarray:
        """(q, 2 + 6 layers, 2 B^4): per wire, Q and S, then dP, dQ and dS for each
        angle row in the order of w. A transfer matrix is a + b cos t + c sin t in
        each angle t, so its derivative is half the difference of two folds at
        t +- pi/2; a wire's transfers depend on its own angles alone, so one fold
        shifts a whole angle row, and all 4 layers shifted folds are one call."""
        rows = 2 * self.spec.layers
        shifts = np.repeat(np.eye(rows), self.spec.q, axis=1) * (np.pi / 2)
        shifted = _mps_folds(self.spec, self.w + np.concatenate([shifts, -shifts]))
        derivs = (shifted[:rows] - shifted[rows:]) / 2
        columns = np.concatenate([self.folds[1:], derivs.reshape(3 * rows, *self.folds.shape[1:])])
        out = np.ascontiguousarray(columns.reshape(len(columns), self.spec.q, -1).swapaxes(0, 1))
        _read_only(out)
        return out

    def z(self, xs: np.ndarray) -> np.ndarray:
        """Readout k: its left string at its cut, against the right identity there."""
        q, m = self.spec.q, len(self.channels.strings)
        start = np.zeros((m + 1, len(xs), 1, self.folds.shape[-2]))
        start[..., 0, 0] = 1.0  # the left boundary for L, the right one for R_I
        envs = self.scan(_trig(xs), start).reshape((q + 1) * (m + 1), len(xs), -1)
        cut, channel = self.channels.cut, self.channels.channel
        z = np.vecdot(envs.take(cut * (m + 1) + channel, axis=0), envs.take((q - cut) * (m + 1) + m, axis=0))
        return np.ascontiguousarray(z.T)  # rows in order, as the other paths give them

    def cotangents(self, trig: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """(q, n, B^2, 2, B^2): each wire's cotangent G_j for the rows with (q, n, 3)
        ``trig`` (``_trig``) and (n, q) ``upstream``.

        f = sum_k upstream_k <Z-string_k> is linear in each wire's transfer matrix
        R_j, with cotangent G_j = sum_k upstream_k left_jk (x) right_jk in readout
        k's I or Z slot, left and right its environments on either side. Readouts
        of one left string share their left environment up to their cuts, so G_j is
        sum_ch L_ch(j) (x) W_ch(j + 1) in slot ch[j], plus V(j) (x) R_I(j + 1) in
        the I slot. W_ch carries from the right the sum of upstream_k times readout
        k's right environment over the string's readouts with cut past j, each
        entering as upstream_k R_I at its cut; V carries from the left the sum over
        readouts with cut at most j, each entering as upstream_k L_ch at its cut.
        Each term is rank 1 a row."""
        q, n = trig.shape[:2]
        m, b2 = len(self.channels.strings), self.folds.shape[-2]
        size = 2 * m + 2
        weights = np.zeros((q + 1, m, n))  # upstream_k at readout k's cut and left string
        weights[self.channels.cut, self.channels.channel] = upstream.T
        start = np.zeros((size, n, 1, b2))
        start[:m + 1, :, 0, 0] = 1.0  # the left boundary for L, the right one for R_I
        start[m + 2:, :, 0, 0] = weights[q]  # W at cut q
        # q - 1 steps: V at cut q and every channel at cut 0 go unread
        mix = np.zeros((q - 1, n, size, size))
        mix[:, :, range(size), range(size)] = 1.0
        mix[:, :, m + 1, :m] = weights[1:q].swapaxes(1, 2)  # into V after step t, at cut t + 1
        mix[:, :, m + 2:, m] = weights[q - 1:0:-1].swapaxes(1, 2)  # into W, at cut q - 1 - t
        envs = self.scan(trig, start, mix)[..., 0, :]
        pairs = [*range(m), m + 1], [*range(m + 2, size), m]  # (L_c, W_c) and (V, R_I)
        left = envs[:q, pairs[0]]  # (j, pair, n, B^2): L_c and V at cut j, which cross wire j at step j
        right = envs[q - 1::-1, pairs[1]].swapaxes(1, 2)  # (j, n, pair, B^2): W_c and R_I at cut j + 1
        slots = np.eye(2)[self.channels.slots[:, pairs[0]]]  # (j, pair, slot): the slot each pair reads
        weighted = left[..., None] * slots[:, :, None, None, :]  # (j, pair, n, B^2, slot)
        out = weighted.reshape(q, m + 1, n, -1).transpose(0, 2, 3, 1) @ right
        return out.reshape(q, n, b2, 2, b2)

    def grad(self, xs: np.ndarray, upstream: np.ndarray):
        """Each wire's cotangent G_j (``cotangents``): grad_x is its inner product
        with dR_j/dx = 2 (cos 2x S_j - sin 2x Q_j), and an angle's gradient its
        inner product with dP_j + cos 2x dQ_j + sin 2x dS_j."""
        n, q = xs.shape
        trig = _trig(xs)
        cotangents = self.cotangents(trig, upstream).reshape(q, n, -1, 1)
        at = (self.grad_matrices[:, None] @ cotangents)[..., 0].swapaxes(0, 1)
        c, s = trig[..., 1].T, trig[..., 2].T
        terms = at[..., 2:].reshape(n, q, -1, 3)
        angles = terms[..., 0] + c[..., None] * terms[..., 1] + s[..., None] * terms[..., 2]
        return angles.transpose(0, 2, 1).reshape(n, -1), 2.0 * (c * at[..., 1] - s * at[..., 0])


@functools.lru_cache(maxsize=1)
def _folded(spec: CircuitSpec, angles: bytes):
    """The circuit of the float64 angles in ``angles`` on the path ``circuit_path``
    picks, kept until the next angles arrive: a training batch's forward and
    gradient share one fold, and so does every row scored under one checkpoint."""
    fold = {CLOSED_FORM: _OneLayer, MPS: _Mps, STATEVECTOR: _Statevector}[circuit_path(spec)]
    return fold(spec, np.frombuffer(angles))


def run_vqc_batch(xs, spec: CircuitSpec, w) -> np.ndarray:
    """Encode each row of xs, apply the layered circuit, return per-qubit <Z>.

    (n, q) inputs -> (n, q) expectations; a single (q,) input is one row.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(w, dtype=float)
    _check_shapes(xs, spec, w)
    fold = _folded(spec, w.tobytes())
    chunks = _chunks(len(xs), fold.forward_amplitudes)
    if len(chunks) == 1:
        return fold.z(xs)
    out = np.empty(xs.shape)
    for rows in chunks:
        out[rows] = fold.z(xs[rows])
    return out


def param_shift_grad_batch(xs, spec: CircuitSpec, w, upstream):
    """Exact circuit gradients contracted with an upstream (n, q) cotangent.

    The folded circuit's ``grad`` computes them for each row of a chunk on its
    path (``_OneLayer``, ``_Mps`` or ``_Statevector``). None uses the
    parameter-shift rule, which needs 2 (2qL + q) circuit runs and is kept in
    ``tests/oracles.py`` as the reference; the name stays because callers and
    the benchmark's tracer look the function up by it.

    Returns (grad_w totalled over the batch, grad_x per row). Rows run in
    chunks (see ``CHUNK_AMPLITUDES``), and each row's angle gradients are kept
    and totalled once, so neither result depends on the chunking.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(w, dtype=float)
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    _check_shapes(xs, spec, w, upstream)
    fold = _folded(spec, w.tobytes())
    angles, grad_x = np.empty((len(xs), spec.n_params)), np.empty(xs.shape)
    for rows in _chunks(len(xs), fold.row_amplitudes):
        angles[rows], grad_x[rows] = fold.grad(xs[rows], upstream[rows])
    return angles.sum(axis=0), grad_x
