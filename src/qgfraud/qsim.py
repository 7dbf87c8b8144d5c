"""Exact readouts and gradients of small RX/RY/CNOT circuits.

Conventions, fixed once and used everywhere:

* Qubit 0 is the most significant bit of the amplitude index, so
  ``amps.reshape((2,) * q)`` puts qubit k on axis k.
* ``RX(t) = exp(-i t X / 2)``, ``RY(t) = exp(-i t Y / 2)``.
* Angle encoding prepares the product state with per-qubit amplitudes
  ``(cos x_i, i sin x_i)``, i.e. ``RX(-2 x_i)`` applied to |0>.

One-layer circuits never build a state. Their rotations leave a product
state whose wire j has <Z> = z_j = cos 2x_j cos a_j cos b_j + sin 2x_j sin b_j
(a_j, b_j the RY and RX angles), and the CNOTs that follow only permute basis
states: output bit k is the GF(2) parity of the input bits in row k of a
(q, q) mask. So <Z_k> = prod of z_j over that row, read and differentiated
in O(q^2) per input. ``run_vqc_batch`` and ``param_shift_grad_batch``
take that path whenever ``spec.layers == 1``.

Deeper circuits take one of two exact paths, which ``circuit_path`` picks
from the spec alone by a cost model (no option selects it):

* As a matrix product state (Vidal, arXiv:quant-ph/0301063) when the
  entanglement is short-range, as for chain and ring entanglers at 16 qubits.
  A CNOT is applied exactly, with no SVD, as a bond-2 MPO that doubles the
  bond of each cut it spans, and every gate acts on single sites, so wire
  j's site is linear in its two first-layer amplitudes. Sites are stacked at
  the largest bond B (2 for a q16/l2 chain, 4 for a ring) as (B, 2, B)
  tensors padded with exact zeros. The layers' rotations fold into the
  cached entangler maps, one (2 B^2, 2) map per wire, once per parameter
  vector: the last fold is kept, so a training batch's forward and gradient
  share one, as does every row scored under one checkpoint. The last
  entangler is never applied: as in the closed form, <Z_k> after it is the
  Z-string over row k of the parity mask before it, read by carrying
  environments (Schollwoeck, arXiv:1008.3477) stacked over rows and readouts
  through each site's I and Z transfer matrices, one matmul per site. An
  environment is a Hermitian (B, B) matrix, carried as B^2 real coordinates,
  so the transfer matrices and the scan are real. The gradient runs the
  same scan from the right, turns both scans' environments back into
  complex matrices and contracts every site's cotangent at once.
* Otherwise on the statevector, simulated a layer at a time over (rows, 2^q)
  arrays. The first layer acts on the encoded product state, so its
  rotations are applied to each wire's two amplitudes before the product is
  formed. A layer's RY and RX on a wire fuse to one 2x2 matrix, and the
  wires are rotated in groups of up to ``GROUP_WIRES``: one matmul per group
  with the Kronecker product of the group's matrices. A layer's CNOT network
  permutes basis states, so it is one gather, ``np.take(state, perm,
  axis=1)``; ``perm`` is cached per spec and built from the index bits of
  ``arange(2**q)``, one CNOT at a time. <Z_k> is read by halving the
  probabilities once per wire.

Rows go through in chunks of ``CHUNK_AMPLITUDES`` amplitudes (at least one
row), so a state stays cache-sized and a call's memory is a fixed multiple of
that budget, or of one row beyond 16 qubits, whatever the batch size. The MPS
path chunks by what a row of its sites, transfer matrices and environments
holds (``_mps_forward_amplitudes``, ``_mps_row_amplitudes``), and is taken
only when a gradient row fits in the budget. Every per-row result is
computed the same way whatever the chunk holds, so readouts and input
gradients do not depend on the chunking.

On the statevector, gradients come from the adjoint method: one forward run
plus one reverse sweep with the inverse permutation and the conjugate group
matrices, about three forward passes in all, where the parameter-shift rule
needs 2 (2qL + q) runs. Parameter shift survives only as the test oracle in
``tests/oracles.py``; the simulator is the reference the closed form is
tested against, and ``tests/oracles.tensor_state``, which applies one gate
at a time to a (2,) * q tensor, is the reference for the layer kernels and
the MPS path.
"""

from __future__ import annotations

import functools
import math
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


def _encoding_wires(x: np.ndarray) -> np.ndarray:
    # (..., q) angles -> (..., q, 2) per-wire amplitudes (cos x, i sin x)
    return np.stack([np.cos(x).astype(complex), 1j * np.sin(x)], axis=-1)


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


def _chunks(n: int, q: int, buffers: int):
    """Row slices of at most CHUNK_AMPLITUDES amplitudes each (one row at least),
    each with that many rows of ``buffers`` work arrays, which every chunk reuses."""
    step = max(1, min(n, CHUNK_AMPLITUDES >> q))
    work = np.empty((buffers, step, 2**q), dtype=complex)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        yield rows, work[:, : rows.stop - start]


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
    for a in (perm, inverse):
        a.setflags(write=False)  # cached arrays serve every caller
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
    flat.setflags(write=False)
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
    """(layers, q, 2, 2): a layer's RY then RX on one wire, as one matrix."""
    half = w.reshape(spec.layers, 2, spec.q) / 2.0
    cos, sin = np.cos(half), np.sin(half)
    ry = np.stack([np.stack([cos[:, 0], -sin[:, 0]], -1), np.stack([sin[:, 0], cos[:, 0]], -1)], -2)
    rx = np.stack([np.stack([cos[:, 1], -1j * sin[:, 1]], -1), np.stack([-1j * sin[:, 1], cos[:, 1]], -1)], -2)
    return rx @ ry.astype(complex)


def _first_wires(xs: np.ndarray, wires: np.ndarray) -> np.ndarray:
    """(n, q, 2): each wire after encoding and the first layer's rotations."""
    enc = _encoding_wires(xs)
    if not len(wires):
        return enc
    u = wires[0]  # u @ wire for every row and wire, written out elementwise
    return u[None, :, :, 0] * enc[:, :, None, 0] + u[None, :, :, 1] * enc[:, :, None, 1]


def _encoding_generators(wires: np.ndarray) -> np.ndarray:
    """(2, 2, q): the encoding's generator X of each wire, seen just after the
    first layer's rotation u as u X u^dag (X itself with no layers)."""
    u = wires[0] if len(wires) else np.eye(2, dtype=complex)[None]
    return np.moveaxis(u @ _PAULI_X @ u.conj().swapaxes(-1, -2), 0, -1)


def _layer_grads(overlaps: np.ndarray, w: np.ndarray, wires: np.ndarray):
    """Gradients from wire overlaps (see ``_wire_overlaps``) read just after
    each layer's rotations: (layers, n, 2, 2, q) -> (grad_w totalled over the
    n rows, (n, q) grad_x). With no layers, overlaps[0] is read at the encoding."""
    w_layers = w.reshape(-1, overlaps.shape[-1] * 2)
    grad_w = np.array([_rotation_grads(o.sum(axis=0), wl) for o, wl in zip(overlaps, w_layers)])
    enc = (_encoding_generators(wires) * overlaps[0]).reshape(-1, 4, overlaps.shape[-1])
    return grad_w.reshape(-1), -2.0 * enc.sum(axis=1).imag


class _Layers:
    """One call's circuit in the form the layer kernels use."""

    def __init__(self, spec: CircuitSpec, w: np.ndarray) -> None:
        self.q, self.layers = spec.q, spec.layers
        self.wires = _wire_rotations(spec, w)
        self.krons = [[_kron(mats[k0:k0 + c]) for k0, c in _wire_groups(spec.q)] for mats in self.wires[1:]]
        self.perm, self.inverse = _entangler_perms(spec)

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


def _run(x: np.ndarray, spec: CircuitSpec, w: np.ndarray) -> np.ndarray:
    """The full (..., 2**q) output state, for tests and oracles."""
    xs = np.asarray(x, dtype=float).reshape(-1, spec.q)
    circuit = _Layers(spec, np.asarray(w, dtype=float))
    out = np.empty((len(xs), 2**spec.q), dtype=complex)
    for rows, work in _chunks(len(xs), spec.q, 2):
        out[rows] = circuit.state(xs[rows], work)
    return out.reshape(np.shape(x)[:-1] + (-1,))


def _simulated_z(xs: np.ndarray, spec: CircuitSpec, w: np.ndarray) -> np.ndarray:
    # (n, q) inputs -> (n, q) readouts, one chunk of states at a time
    circuit = _Layers(spec, w)
    out = np.empty(xs.shape)
    for rows, work in _chunks(len(xs), spec.q, 2):
        out[rows] = _z_expectations(circuit.state(xs[rows], work), spec.q)
    return out


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
    half of one (D = 2 B^2 at the largest bond B). While its transfer matrices are
    built: the sites and two copies (3 q D), their outer products and the real
    terms drawn from them (3 q D^2 / 4). While it scans: the sites, the real
    transfer matrices (q D^2 / 4) and the real environments of every cut
    ((q + 1) q D / 4)."""
    q, size = spec.q, 2 * max(_mps_bonds(spec)) ** 2
    return q * size * max(12 + 3 * size, 4 + size + q + 1) // 4


@functools.lru_cache(maxsize=64)
def _mps_row_amplitudes(spec: CircuitSpec) -> int:
    """Amplitudes a gradient row holds at most, the most on the MPS path: the
    forward's, or, once both scans are done, the sites and real transfer matrices,
    the environments of both scans ((q + 1) q D / 2) and the complex matrices of
    the cotangent contraction (3 q^2 D)."""
    q, size = spec.q, 2 * max(_mps_bonds(spec)) ** 2
    return max(_mps_forward_amplitudes(spec), q * size * (4 + size + 2 * (q + 1) + 12 * q) // 4)


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
    maps.setflags(write=False)
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
    select.setflags(write=False)
    return select


def _transfers(sites: np.ndarray, bond: int) -> np.ndarray:
    """(n, q, B^2, 2, B^2) real I and Z transfer matrices of (n, q, D) sites.

    An environment E of a cut is a Hermitian (B, B) matrix, and site a carries
    it to sum_s (-1)^(s p) a_s^H E a_s (p = 1 for Z). It is stored as B^2 reals
    e_xy = Re E_xy + Im E_xy (``_hermitian`` inverts this), in which that step is
    e' = e @ R[:, p] with R[(x, y), p] = Re T[(x, y), p] + Im T[(y, x), p], T the
    complex transfer matrix: [(x, y), p, (x', y')] sums (-1)^(s p) conj(a[x, s, x'])
    a[y, s, y'] over s. R is read straight from the real and imaginary parts of
    the outer products, the site index innermost so that every pass runs over
    all n q sites at once.
    """
    n, q, _ = sites.shape
    b = bond
    a = np.ascontiguousarray(sites.reshape(n * q, b, 2, b).transpose(2, 1, 3, 0))  # (s, x, x', site)
    outer = a.conj()[:, :, None, :, None] * a[:, None, :, None, :]  # (s, x, y, x', y', site)
    terms = np.add(outer.real, outer.imag.swapaxes(1, 2))
    del outer  # freed before the output is allocated (see _mps_forward_amplitudes)
    out = np.empty((n * q, b, b, 2, b, b))
    by_site = out.transpose(1, 2, 3, 4, 5, 0)
    np.add(terms[0], terms[1], out=by_site[:, :, 0])
    np.subtract(terms[0], terms[1], out=by_site[:, :, 1])
    return out.reshape(n, q, b * b, 2, b * b)


@functools.lru_cache(maxsize=None)
def _hermitian_map(bond: int) -> np.ndarray:
    """(B^2, 2 B^2) real matrix taking real coordinates (see ``_transfers``) to the
    interleaved real and imaginary parts of E_xy = ((1 + i) e_xy + (1 - i) e_yx) / 2."""
    same = np.eye(bond * bond).reshape(-1, bond, bond)  # [(x, y), x', y']: (x', y') = (x, y)
    swapped = same.swapaxes(1, 2)  # (x', y') = (y, x)
    out = np.stack([same + swapped, same - swapped], axis=-1).reshape(bond * bond, -1) / 2
    out.setflags(write=False)
    return out


def _hermitian(coords: np.ndarray, bond: int) -> np.ndarray:
    """(..., B^2) real coordinates -> (..., B, B) Hermitian matrices, by one real
    matmul: each entry adds at most two exact halves, so it rounds once, and a
    row's result does not depend on how many rows share the call."""
    flat = coords.reshape(-1, bond * bond) @ _hermitian_map(bond)
    return flat.view(complex).reshape(coords.shape[:-1] + (bond, bond))


def _rotate_sites(u: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Apply each wire's (2, 2) rotation u[j] to the physical index of maps[j], (q, D, m)."""
    q, size, m = maps.shape
    bond = math.isqrt(size // 2)
    sites = maps.reshape(q, bond, 1, 2, bond * m)
    return (u[:, None, :, :, None] * sites).sum(axis=3).reshape(q, size, m)


class _Mps:
    """The circuit on the MPS path for one parameter vector: wire j's site
    after layer l is ``maps[l][j] @ f_j``, f_j its two first-layer amplitudes.

    Built by ``_folded``, which keeps the last one, so its arrays are read-only.
    """

    def __init__(self, spec: CircuitSpec, w: np.ndarray) -> None:
        self.spec = spec
        self.wires = _wire_rotations(spec, w)
        self.entangler = _entangler_maps(spec)
        self.bond = math.isqrt(self.entangler.shape[-1] // 2)
        m = np.zeros((spec.q, 2 * self.bond**2, 2), dtype=complex)
        m[:, [0, self.bond], [0, 1]] = 1.0  # f_j at (0, s, 0): bond 1 padded to B
        maps = [m]
        for u in self.wires[1:]:
            maps.append(_rotate_sites(u, self.entangler @ maps[-1]))
        self.maps = tuple(maps)
        for a in (self.wires, *self.maps):
            a.setflags(write=False)

    def sites(self, first: np.ndarray) -> np.ndarray:
        # (n, q, 2) first-layer amplitudes -> (n, q, D) last sites, written out elementwise
        m = self.maps[-1]
        return m[:, :, 0] * first[:, :, 0, None] + m[:, :, 1] * first[:, :, 1, None]

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
    def grad_maps(self) -> np.ndarray:
        """(q, D, layers * 8) N: layer l's overlaps are [a, b] = sum_{d, c}
        conj(G[d]) N[d, l, a, b, c] f[c], G the last site's cotangent, where N
        sums K_l[d, (x, a, y)] maps[l][(x, b, y), c], K_l layer l -> last site."""
        q, b, size = self.spec.q, self.bond, self.entangler.shape[-1]
        k = np.broadcast_to(np.eye(size, dtype=complex), (q, size, size))
        parts = []
        for layer in reversed(range(len(self.maps))):
            ks = k.reshape(q, size, b, 2, b).transpose(0, 1, 3, 2, 4).reshape(q, 2 * size, b * b)
            ms = self.maps[layer].reshape(q, b, 2, b, 2).transpose(0, 1, 3, 2, 4).reshape(q, b * b, 4)
            parts.append((ks @ ms).reshape(q, size, 8))
            if layer:
                k = k @ _rotate_sites(self.wires[layer], self.entangler)
        out = np.stack(parts[::-1], axis=2).reshape(q, size, -1)
        out.setflags(write=False)
        return out


@functools.lru_cache(maxsize=1)
def _folded(spec: CircuitSpec, angles: bytes) -> _Mps:
    """``_Mps`` of the float64 angles in ``angles``, kept until the next angles
    arrive: a training batch's forward and gradient share one fold, and so does
    every row scored under one checkpoint."""
    return _Mps(spec, np.frombuffer(angles))


def _mps_chunks(n: int, row_amplitudes: int):
    step = max(1, CHUNK_AMPLITUDES // row_amplitudes)  # rows of at most CHUNK_AMPLITUDES, one at least
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _mps_z(xs: np.ndarray, spec: CircuitSpec, w: np.ndarray) -> np.ndarray:
    circuit = _folded(spec, w.tobytes())  # readouts: the environments past the last site
    out = np.empty(xs.shape)
    for rows in _mps_chunks(len(xs), _mps_forward_amplitudes(spec)):
        sites = circuit.sites(_first_wires(xs[rows], circuit.wires))
        transfers = _transfers(sites, circuit.bond).reshape(len(sites), spec.q, -1, 2 * circuit.bond**2)
        out[rows] = circuit.environments(transfers, _mps_select(spec)[0])[-1, :, :, 0]
    return out


def _mps_grad(xs, spec: CircuitSpec, w, upstream):
    """``param_shift_grad_batch`` on the MPS path.

    f = sum_k upstream_k <Z-string_k> is a quadratic form in each wire's last
    site A_j; G_j = df/d conj(A_j) is the left environment times A_j times the
    right one, each readout weighted by upstream_k and its sign on wire j. The
    overlaps ``_layer_grads`` reads come from G_j and f_j (``_Mps.grad_maps``).
    """
    q, layers = spec.q, spec.layers
    circuit = _folded(spec, w.tobytes())
    b, size = circuit.bond, 2 * circuit.bond**2
    reads = circuit.grad_maps
    select = _mps_select(spec)
    signs = np.where(_parity_mask(spec).T[:, None, :] & (np.arange(2)[:, None] == 1), -1.0, 1.0)  # (j, s, k)
    firsts = _first_wires(xs, circuit.wires)
    overlaps = np.empty((layers, len(xs), 2, 2, q), dtype=complex)
    for rows in _mps_chunks(len(xs), _mps_row_amplitudes(spec)):
        first = firsts[rows]
        sites, n = circuit.sites(first), len(first)
        transfers = _transfers(sites, b)
        left = circuit.environments(transfers.reshape(n, q, b * b, size), select[0])[:q]
        # the same scan from the right, through each transfer matrix transposed,
        # carries the conjugate of each right environment
        mirrored = transfers.reshape(n, q, size, b * b).swapaxes(-1, -2)[:, ::-1]
        right = circuit.environments(mirrored, select[1, ::-1])[q - 1::-1]
        # la[n, j, k, x, s, y'] = sum_y left[., x, y] a[., y, s, y'], weighted and laid
        # out as ((x, s), (k, y')) against the conjugate right environment as ((k, y'), x')
        la = _hermitian(left.transpose(1, 0, 2, 3), b).reshape(n, q, q * b, b) @ sites.reshape(n, q, b, 2 * b)
        weights = (upstream[rows][:, None, None, :] * signs)[:, :, None, :, :, None]  # (n, j, 1, s, k, 1)
        weighted = np.multiply(la.reshape(n, q, q, b, 2, b).transpose(0, 1, 3, 4, 2, 5), weights, order="C")
        right = _hermitian(right.transpose(1, 0, 2, 3), b).reshape(n, q, q * b, b)
        cotangents = weighted.reshape(n, q, 2 * b, q * b) @ right
        reads_at = (cotangents.reshape(n, q, 1, size).conj() @ reads).reshape(n, q, layers, 2, 2, 2)
        at = reads_at[..., 0] * first[:, :, None, None, None, 0] + reads_at[..., 1] * first[:, :, None, None, None, 1]
        overlaps[:, rows] = at.transpose(2, 0, 3, 4, 1)
    return _layer_grads(overlaps, w, circuit.wires)


def run_vqc_batch(xs, spec: CircuitSpec, w) -> np.ndarray:
    """Encode each row of xs, apply the layered circuit, return per-qubit <Z>.

    (n, q) inputs -> (n, q) expectations; a single (q,) input is one row.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(w, dtype=float)
    _check_shapes(xs, spec, w)
    path = circuit_path(spec)
    if path == CLOSED_FORM:
        return _one_layer_z(xs, spec, w)
    return _mps_z(xs, spec, w) if path == MPS else _simulated_z(xs, spec, w)


def _z_weights(upstream: np.ndarray) -> np.ndarray:
    # (n, q) cotangents -> (n, 2**q) diagonal of sum_k upstream[:, k] Z_k
    diag = np.zeros((upstream.shape[0], 1))
    for k in range(upstream.shape[1]):
        u = upstream[:, k, None]
        diag = np.stack([diag + u, diag - u], axis=-1).reshape(upstream.shape[0], -1)
    return diag


def _rotation_grads(overlaps: np.ndarray, w_layer: np.ndarray) -> np.ndarray:
    # (2, 2, q) wire overlaps read just after a layer's rotations -> its 2q
    # angle gradients. RX is each wire's last rotation, so its generator there
    # is X; RY sits under it and is seen as RX Y RX^dag = cos(t) Y + sin(t) Z.
    (r00, r01), (r10, r11) = overlaps
    theta_x = w_layer[len(r00):]
    grad_y = np.cos(theta_x) * (r10 - r01).real + np.sin(theta_x) * (r00 - r11).imag
    return np.concatenate([grad_y, (r01 + r10).imag])


def param_shift_grad_batch(xs, spec: CircuitSpec, w, upstream):
    """Exact circuit gradients contracted with an upstream (n, q) cotangent.

    One-layer circuits use the closed form (see the module docstring):
    dL/dz_j = sum_k upstream[n, k] prod_{i in row k, i != j} z_i, then the
    chain rule through z_j(x_j, a_j, b_j).

    Deeper circuits on the MPS path contract each wire's site with its
    environments (see ``_mps_grad``). On the statevector they use the adjoint
    method (Jones & Gacon, arXiv:2009.02823). One forward run gives psi; lam = O psi carries the observable
    O = sum_k upstream[n, k] Z_k, which is diagonal. A reverse sweep then
    undoes each layer on both states, and a gate exp(-i t P / 2) contributes
    Im<lam|P psi>, read where both sit just after it. Every wire of a layer
    is read at one point, just after the layer's rotations, from the wire
    overlaps of ``_wire_overlaps``. Below the first layer psi is the product
    state again, so it is rebuilt rather than undone, and the encoding
    gradient is read there too, with the generator X carried through the
    first layer's rotation of that wire. The cost is about three forward
    passes, where the parameter-shift rule needs 2 (2qL + q);
    ``tests/oracles.py`` keeps that rule as the reference the tests compare
    against. The function keeps its parameter-shift name because callers and
    the benchmark's tracer look it up by that name.

    Returns (grad_w totalled over the batch, grad_x per row). Rows run in
    chunks (see ``CHUNK_AMPLITUDES``); grad_w adds the chunks' totals in row
    order.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    w = np.asarray(w, dtype=float)
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    _check_shapes(xs, spec, w)
    if upstream.shape != xs.shape:
        raise QsimError(f"upstream shape {upstream.shape} does not match inputs {xs.shape}")
    path = circuit_path(spec)
    if path == CLOSED_FORM:
        return _one_layer_grad(xs, spec, w, upstream)
    if path == MPS:
        return _mps_grad(xs, spec, w, upstream)

    q, layers = spec.q, spec.layers
    circuit = _Layers(spec, w)
    undo = [[m.conj().T for m in krons] for krons in circuit.krons]
    grad_w = np.zeros(spec.n_params)
    grad_x = np.empty_like(xs)
    for rows, work in _chunks(len(xs), q, 3):
        first = _first_wires(xs[rows], circuit.wires)
        psi, spare = circuit.rotated(first, work[0], work[1])
        weights = _z_weights(upstream[rows])
        lam = np.multiply(np.take(weights, circuit.inverse, axis=1) if layers else weights, psi, out=work[2])
        overlaps = np.empty((max(layers, 1), len(first), 2, 2, q), dtype=complex)
        for layer in range(layers - 1, 0, -1):
            overlaps[layer] = _wire_overlaps(lam, psi, q, spare)
            _rotate(lam, undo[layer - 1], q, spare)
            lam, spare = _permute(lam, circuit.inverse, spare), lam
            if layer > 1:
                _rotate(psi, undo[layer - 1], q, spare)
                psi, spare = _permute(psi, circuit.inverse, spare), psi
        overlaps[0] = _wire_overlaps(lam, _product_state(first, spare), q, psi)
        chunk_w, grad_x[rows] = _layer_grads(overlaps, w, circuit.wires)
        grad_w += chunk_w
    return grad_w, grad_x
