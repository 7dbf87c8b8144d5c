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
with two methods, ``z(xs)`` and ``grad(xs, upstream)``. ``_folded`` is the
only place that picks the path, and it keeps the last fold: a training
batch's forward and gradient share one, as does every row scored under one
checkpoint.

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
  over row k of the parity mask before it, read by carrying real
  environments (Schollwoeck, arXiv:1008.3477) stacked over rows and readouts
  through each site's real I and Z transfer matrices, one matmul per site.
  Wire j's site is linear in (cos x_j, i sin x_j), so its transfer matrices
  are P_j + cos 2x_j Q_j + sin 2x_j S_j (Schuld, Sweke & Meyer,
  arXiv:2008.08605), folded once per parameter vector. The gradient scans
  from the right too and pairs both scans' environments into each transfer
  matrix's cotangent, read against dR/dx and against each angle's dP, dQ
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

Every path runs rows in chunks of ``CHUNK_AMPLITUDES`` amplitudes (at least
one row), so a call's memory is a fixed multiple of that budget, or of one
row beyond 16 qubits, plus its per-row results, whatever the batch size. A
row counts what it holds at most: 2^q amplitudes on the statevector, its
(q, q) factors and partial products in the closed form
(``_OneLayer.row_amplitudes``), its transfer matrices, environments and
cotangents on the MPS (``_mps_forward_amplitudes``, ``_mps_row_amplitudes``),
which is taken only when a gradient row fits in the budget. Per-row results
do not depend on the chunking, nor do the closed form's and the MPS's angle
gradients, totalled over all rows at once.

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
    for each of the (..., n_params) angle vectors w."""
    half = np.moveaxis(w.reshape(w.shape[:-1] + (spec.layers, 2, spec.q)), -2, 0) / 2.0
    (cy, cx), (sy, sx) = np.cos(half), np.sin(half)
    ry = np.stack([np.stack([cy, -sy], -1), np.stack([sy, cy], -1)], -2)
    rx = np.stack([np.stack([cx, -1j * sx], -1), np.stack([-1j * sx, cx], -1)], -2)
    return rx @ ry.astype(complex)


def _first_wires(xs: np.ndarray, wires: np.ndarray) -> np.ndarray:
    """(n, q, 2): each wire after encoding and the first layer's rotations."""
    enc = np.stack([np.cos(xs).astype(complex), 1j * np.sin(xs)], axis=-1)  # (cos x, i sin x)
    if not len(wires):
        return enc
    u = wires[0]  # u @ wire for every row and wire, written out elementwise
    return u[None, :, :, 0] * enc[:, :, None, 0] + u[None, :, :, 1] * enc[:, :, None, 1]


def _encoding_generators(wires: np.ndarray) -> np.ndarray:
    """(2, 2, q): the encoding's generator X of each wire, seen just after the
    first layer's rotation u as u X u^dag (X itself with no layers)."""
    u = wires[0] if len(wires) else np.eye(2, dtype=complex)[None]
    return np.moveaxis(u @ _PAULI_X @ u.conj().swapaxes(-1, -2), 0, -1)


def _rotation_grads(overlaps: np.ndarray, w_layer: np.ndarray) -> np.ndarray:
    # (2, 2, q) wire overlaps read just after a layer's rotations -> its 2q
    # angle gradients. RX is each wire's last rotation, so its generator there
    # is X; RY sits under it and is seen as RX Y RX^dag = cos(t) Y + sin(t) Z.
    (r00, r01), (r10, r11) = overlaps
    theta_x = w_layer[len(r00):]
    grad_y = np.cos(theta_x) * (r10 - r01).real + np.sin(theta_x) * (r00 - r11).imag
    return np.concatenate([grad_y, (r01 + r10).imag])


def _layer_grads(overlaps: np.ndarray, w: np.ndarray, wires: np.ndarray):
    """Gradients from wire overlaps (see ``_wire_overlaps``) read just after
    each layer's rotations: (layers, n, 2, 2, q) -> (grad_w totalled over the
    n rows, (n, q) grad_x). With no layers, overlaps[0] is read at the encoding."""
    w_layers = w.reshape(-1, overlaps.shape[-1] * 2)
    grad_w = np.array([_rotation_grads(o.sum(axis=0), wl) for o, wl in zip(overlaps, w_layers)])
    enc = (_encoding_generators(wires) * overlaps[0]).reshape(-1, 4, overlaps.shape[-1])
    return grad_w.reshape(-1), -2.0 * enc.sum(axis=1).imag


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
        _read_only(self.wires, *itertools.chain(*self.krons, *self.undo))

    def chunked(self, n: int, buffers: int) -> list:
        """(rows, work) for each of ``_chunks`` of n rows: work holds that many rows
        of ``buffers`` arrays, allocated once for the first, longest chunk."""
        chunks = _chunks(n, 2**self.q)
        work = np.empty((buffers, chunks[0].stop if chunks else 0, 2**self.q), dtype=complex)
        return [(rows, work[:, : rows.stop - rows.start]) for rows in chunks]

    def rotated(self, first: np.ndarray, amps: np.ndarray, spare: np.ndarray):
        """The state after the last layer's rotations, before its entangler.

        Computed in the work arrays ``amps`` and ``spare``; returns (the one
        that holds the state, the other).
        """
        _product_state(first, amps)
        for krons in self.krons:
            amps, spare = _permute(amps, self.perm, spare), amps
            _rotate(amps, krons, self.q, spare)
        return amps, spare

    def state(self, xs: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Output state of the rows xs, in one of the two arrays of ``work``."""
        amps, spare = self.rotated(_first_wires(xs, self.wires), work[0], work[1])
        return _permute(amps, self.perm, spare) if self.layers else amps

    def z(self, xs: np.ndarray) -> np.ndarray:
        out = np.empty(xs.shape)
        for rows, work in self.chunked(len(xs), 2):
            out[rows] = _z_expectations(self.state(xs[rows], work), self.q)
        return out

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
        grad_w = np.zeros(self.w.size)
        grad_x = np.empty_like(xs)
        for rows, work in self.chunked(len(xs), 3):
            first = _first_wires(xs[rows], self.wires)
            psi, spare = self.rotated(first, work[0], work[1])
            weights = _z_weights(upstream[rows])
            lam = np.multiply(np.take(weights, self.inverse, axis=1) if layers else weights, psi, out=work[2])
            overlaps = np.empty((max(layers, 1), len(first), 2, 2, q), dtype=complex)
            for layer in range(layers - 1, 0, -1):
                overlaps[layer] = _wire_overlaps(lam, psi, q, spare)
                _rotate(lam, self.undo[layer - 1], q, spare)
                lam, spare = _permute(lam, self.inverse, spare), lam
                if layer > 1:
                    _rotate(psi, self.undo[layer - 1], q, spare)
                    psi, spare = _permute(psi, self.inverse, spare), psi
            overlaps[0] = _wire_overlaps(lam, _product_state(first, spare), q, psi)
            chunk_w, grad_x[rows] = _layer_grads(overlaps, self.w, self.wires)
            grad_w += chunk_w
        return grad_w, grad_x


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
        # amplitudes a gradient row holds at most, a real counting as half of one: its (q, q)
        # factors, partial products and two product temporaries, and sin 2x, cos 2x, z and ones
        self.row_amplitudes = q * (5 * q + 4) // 2
        _read_only(self.sin_a, self.cos_a, self.sin_b, self.cos_b, self.cos_ab)

    def wire_z(self, xs: np.ndarray):
        """(sin 2x, cos 2x, z): each wire's <Z> z_j before the entangler, all (n, q)."""
        sin2x, cos2x = np.sin(2.0 * xs), np.cos(2.0 * xs)
        return sin2x, cos2x, cos2x * self.cos_ab + sin2x * self.sin_b

    def z(self, xs: np.ndarray) -> np.ndarray:
        out = np.empty(xs.shape)
        for rows in _chunks(len(xs), self.row_amplitudes):
            out[rows] = np.where(self.mask, self.wire_z(xs[rows])[2][:, None, :], 1.0).prod(axis=-1)
        return out

    def grad(self, xs: np.ndarray, upstream: np.ndarray):
        """dL/dz_j = sum_k upstream[n, k] prod_{i in row k, i != j} z_i, then the
        chain rule through z_j(x_j, a_j, b_j). The angle terms of every row are
        kept and totalled once, so grad_w does not depend on the chunking."""
        cos_terms, sin_terms, grad_x = np.empty(xs.shape), np.empty(xs.shape), np.empty(xs.shape)
        for rows in _chunks(len(xs), self.row_amplitudes):
            sin2x, cos2x, z = self.wire_z(xs[rows])
            # factors[n, k, j] is z_j where readout k depends on wire j, else 1; the
            # leave-one-out products come from prefix and suffix products, never from
            # dividing by z_j, which can be exactly 0
            factors = np.where(self.mask, z[:, None, :], 1.0)
            ones = np.ones(factors.shape[:-1] + (1,))
            before = np.cumprod(np.concatenate([ones, factors[..., :-1]], axis=-1), axis=-1)
            after = np.cumprod(np.concatenate([ones, factors[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
            dz = np.einsum("nk,nkj->nj", upstream[rows], before * after * self.mask)
            cos_terms[rows], sin_terms[rows] = dz * cos2x, dz * sin2x
            grad_x[rows] = dz * (2.0 * cos2x * self.sin_b - 2.0 * sin2x * self.cos_ab)
        cos_sum, sin_sum = cos_terms.sum(axis=0), sin_terms.sum(axis=0)
        grad_w = np.concatenate([-cos_sum * self.sin_a * self.cos_b,
                                 sin_sum * self.cos_b - cos_sum * self.cos_a * self.sin_b])
        return grad_w, grad_x


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
    half of one (D = 2 B^2 at the largest bond B). While its real transfer
    matrices are formed: them and one temporary (2 q D^2 / 4). While it scans:
    the transfer matrices (q D^2 / 4), the environments of every cut
    ((q + 1) q D / 4) and a step's product (q D / 2)."""
    q, size = spec.q, 2 * max(_mps_bonds(spec)) ** 2
    return q * size * max(2 * size, size + q + 3) // 4


def _mps_row_amplitudes(spec: CircuitSpec) -> int:
    """Amplitudes a gradient row holds at most, the most on the MPS path: while
    it scans, the forward's and a second scan's environments ((q + 1) q D / 4);
    once both scans are done, their environments ((q + 1) q D / 2), the
    cotangents (q D^2 / 4), one slot's weighted left environments (q^2 D / 4)
    and the weights (q^2)."""
    q, size = spec.q, 2 * max(_mps_bonds(spec)) ** 2
    scans = _mps_forward_amplitudes(spec) + (q + 1) * q * size // 4
    return max(scans, q * size * (3 * q + 2 + size) // 4 + q * q)


def circuit_path(spec: CircuitSpec) -> str:
    """How ``run_vqc_batch`` and ``param_shift_grad_batch`` evaluate the circuit.

    One layer has a closed form. Deeper circuits run as a matrix product state
    when a gradient row fits in ``CHUNK_AMPLITUDES`` and its work is the
    smaller, per row in amplitude updates: 2 q layers 2^q on the statevector
    (about 2q per amplitude and layer); on the MPS, at any depth, q sites of
    ``SITE_COST`` for their numpy calls plus 2 q B^4 real multiply-adds for
    carrying q readouts through a real (B^2, 2 B^2) transfer matrix. The
    constants come from timings on a 2-core x86 host: the paths break even at
    q = 8 to 9 for a chain at two layers, q = 9 to 10 for a chain at three and
    q = 10 to 11 for a ring at two.
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


@functools.lru_cache(maxsize=64)
def _mps_select(spec: CircuitSpec) -> np.ndarray:
    """(2, q, k, B^2) flat gather indices at the largest bond B: [0, j] picks readout
    k's environment past site j from its I and Z candidates laid out (k, 2, B^2) from
    the left, and [1, j] from (k, B^2, 2) from the right, with Z where ``_parity_mask``
    [k, j]."""
    b = max(_mps_bonds(spec))
    z = _parity_mask(spec).T[:, :, None]
    k, xy = np.arange(spec.q)[:, None], np.arange(b * b)
    select = np.stack([(2 * k + z) * b * b + xy, 2 * (k * b * b + xy) + z])
    _read_only(select)
    return select


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


class _Mps:
    """The circuit on the MPS path for one parameter vector: each wire's P, Q
    and S (``_mps_folds``), and the spec's gather indices, readout slots and
    row sizes."""

    def __init__(self, spec: CircuitSpec, w: np.ndarray) -> None:
        self.spec, self.w = spec, w
        self.folds = _mps_folds(spec, w[None])[0]
        self.select = _mps_select(spec)
        # (j, p, k): 1 where p is readout k's slot on wire j, p = 1 (Z) where row k of the parity mask holds j
        self.slots = (_parity_mask(spec).T[:, None, :] == np.arange(2)[:, None]).astype(float)
        self.forward_amplitudes, self.row_amplitudes = _mps_forward_amplitudes(spec), _mps_row_amplitudes(spec)
        _read_only(self.folds, self.slots)

    def transfers(self, cos2x: np.ndarray, sin2x: np.ndarray) -> np.ndarray:
        """(n, q, B^2, 2 B^2) real transfer matrices of the rows with these (n, q) cos 2x and sin 2x."""
        p, q, s = self.folds
        out = cos2x[:, :, None, None] * q
        out += sin2x[:, :, None, None] * s
        out += p
        return out

    def environments(self, transfers: np.ndarray, select: np.ndarray) -> np.ndarray:
        """(q + 1, n, k, B^2): each readout's environment at every cut in real
        coordinates, carried through (n, q, B^2, 2 B^2) real transfers (see
        ``_transfers``) by one matmul and one gather (``select``) a site."""
        n, q, b2 = transfers.shape[:3]
        envs = np.zeros((q + 1, n, q, b2))
        envs[0, :, :, 0] = 1.0
        for j in range(q):
            both = envs[j] @ transfers[:, j]
            both.reshape(n, -1).take(select[j], axis=1, out=envs[j + 1], mode="clip")
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
        """Readouts: each readout's environment past the last site."""
        out = np.empty(xs.shape)
        for rows in _chunks(len(xs), self.forward_amplitudes):
            transfers = self.transfers(np.cos(2.0 * xs[rows]), np.sin(2.0 * xs[rows]))
            out[rows] = self.environments(transfers, self.select[0])[-1, :, :, 0]
        return out

    def grad(self, xs: np.ndarray, upstream: np.ndarray):
        """f = sum_k upstream_k <Z-string_k> is linear in each wire's transfer matrix
        R_j, with cotangent G_j = sum_k upstream_k left_jk (x) right_jk in readout
        k's I or Z slot, left and right the environments on either side. grad_x is
        G_j's inner product with dR_j/dx = 2 (cos 2x S_j - sin 2x Q_j), and an
        angle's gradient sums G_j's inner products with dP_j + cos 2x dQ_j +
        sin 2x dS_j over the rows: each row's terms are kept and totalled once."""
        q = self.spec.q
        reads = self.grad_matrices
        cos2x, sin2x = np.cos(2.0 * xs), np.sin(2.0 * xs)
        grad_x = np.empty(xs.shape)
        angle_terms = np.empty((len(xs), q, 2 * self.spec.layers))
        for rows in _chunks(len(xs), self.row_amplitudes):
            c, s = cos2x[rows], sin2x[rows]
            transfers = self.transfers(c, s)
            n, b2 = len(transfers), transfers.shape[2]
            left = self.environments(transfers, self.select[0])[:q].transpose(1, 0, 3, 2)  # (n, j, B^2, k)
            # the same scan from the right, through each transfer matrix transposed
            mirrored = transfers.reshape(n, q, -1, b2).swapaxes(-1, -2)[:, ::-1]
            right = self.environments(mirrored, self.select[1, ::-1])[q - 1::-1].transpose(1, 0, 2, 3)
            del transfers, mirrored  # freed before the cotangents (see _mps_row_amplitudes)
            weights = upstream[rows][:, None, None, :] * self.slots  # (n, j, p, k)
            cotangents = np.empty((n, q, b2, 2, b2))
            for p in (0, 1):
                np.matmul(left * weights[:, :, p, None], right, out=cotangents[:, :, :, p])
            at = (reads @ cotangents.reshape(n, q, -1, 1))[..., 0]
            grad_x[rows] = 2.0 * (c * at[..., 1] - s * at[..., 0])
            terms = at[..., 2:].reshape(n, q, -1, 3)
            angle_terms[rows] = terms[..., 0] + c[..., None] * terms[..., 1] + s[..., None] * terms[..., 2]
        return angle_terms.sum(axis=0).T.reshape(-1), grad_x


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
    return _folded(spec, w.tobytes()).z(xs)


def param_shift_grad_batch(xs, spec: CircuitSpec, w, upstream):
    """Exact circuit gradients contracted with an upstream (n, q) cotangent.

    The folded circuit's ``grad`` computes them on its path (``_OneLayer``,
    ``_Mps`` or ``_Statevector``). None uses the parameter-shift rule, which
    needs 2 (2qL + q) circuit runs and is kept in ``tests/oracles.py`` as the
    reference; the name stays because callers and the benchmark's tracer look
    the function up by it.

    Returns (grad_w totalled over the batch, grad_x per row). Rows run in
    chunks (see ``CHUNK_AMPLITUDES``); on the statevector grad_w adds the
    chunks' totals in row order.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(w, dtype=float)
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    _check_shapes(xs, spec, w, upstream)
    return _folded(spec, w.tobytes()).grad(xs, upstream)
