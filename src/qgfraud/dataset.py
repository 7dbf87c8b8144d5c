"""Transaction CSV ingestion, class balancing, and stratified splits.

The expected CSV layout is the usual credit-card fraud format: a header of
``Time,V1,...,V28,Amount,Class`` followed by numeric rows, ``Class`` being 0
(non-fraud) or 1 (fraud). Quoted label cells are accepted.

The body is parsed in one ``np.loadtxt`` call into an (n, 31) float array.
The real file has 284 807 rows and undersampling keeps 984, so a loaded set
stays columnar and builds ``Transaction`` objects only for rows a caller
reads. When the array parse fails, or gives the wrong column count or a
non-finite value, the row-by-row parser reads the file again: its
``DatasetError`` names the row and column, and it accepts the cells
``float()`` takes and ``loadtxt`` refuses, such as ``1_5``.

Time and amount are parsed and validated like every column, but no graph
reads them: they shift all of a transaction's projections alike (see ``tda``).
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .rng import make_rng

N_FEATURES = 28
HEADER = ("Time", *[f"V{i}" for i in range(1, N_FEATURES + 1)], "Amount", "Class")
N_VALUES = N_FEATURES + 2  # time, V1..V28, amount


class DatasetError(ValueError):
    """Malformed input file or an invalid sampling/split request."""


@dataclass(frozen=True)
class Transaction:
    """One row: elapsed seconds, 28 PCA features, amount, binary label."""

    time: float
    v: tuple[float, ...]
    amount: float
    label: int

    def __post_init__(self) -> None:
        if len(self.v) != N_FEATURES:
            raise DatasetError(f"expected {N_FEATURES} V features, got {len(self.v)}")
        if self.label not in (0, 1):
            raise DatasetError(f"label must be 0 or 1, got {self.label!r}")


class TransactionSet:
    """Ordered transactions.

    The rows are held as an (n, 30) float array of time, V1..V28 and amount
    and an int label vector; ``rows`` builds the ``Transaction`` list on
    first use and keeps it.
    """

    def __init__(self, rows: Iterable[Transaction] = ()):
        self._rows = list(rows)
        values = [(t.time, *t.v, t.amount) for t in self._rows]
        self.values = np.array(values, dtype=float).reshape(-1, N_VALUES)
        self._labels = np.array([t.label for t in self._rows], dtype=int)

    @classmethod
    def _from_arrays(cls, values: np.ndarray, labels: np.ndarray):
        ts = cls()
        ts.values, ts._labels, ts._rows = values, labels, None
        return ts

    @property
    def rows(self) -> list[Transaction]:
        if self._rows is None:
            self._rows = [
                Transaction(x[0], tuple(x[1:-1]), x[-1], y)
                for x, y in zip(self.values.tolist(), self._labels.tolist())
            ]
        return self._rows

    def __len__(self) -> int:
        return len(self._labels)

    def labels(self) -> np.ndarray:
        return self._labels.copy()

    def class_counts(self) -> tuple[int, int]:
        """(non-fraud count, fraud count)."""
        n_fraud = int(np.count_nonzero(self._labels == 1))
        return len(self) - n_fraud, n_fraud


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.65
    val_frac: float = 0.05
    test_frac: float = 0.30

    def __post_init__(self) -> None:
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        for f in fracs:
            if not 0.0 < f < 1.0:
                raise DatasetError(f"split fractions must lie in (0, 1), got {f!r}")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise DatasetError(f"split fractions must sum to 1, got {sum(fracs)!r}")


def _label(cell: str) -> float:
    """A quoted or bare 0 or 1 (the real file quotes its labels); "1.0" is refused."""
    if (bare := cell.strip().strip("'\"")) not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {cell!r}")
    return float(bare)


def _has_body(fh) -> bool:
    """Whether anything but line breaks follows; ``loadtxt`` warns on no data."""
    while chunk := fh.read(1 << 16):
        if chunk.strip("\r\n"):
            return True
    return False


def load_transactions(path) -> TransactionSet:
    """Parse the CSV at ``path``; errors carry the offending row number.

    A NaN or infinite cell is an error: it would pass into the graph corpus.
    """
    p = Path(path)
    if not p.exists():
        raise DatasetError(f"dataset file not found: {p}")
    if p.is_dir():
        raise DatasetError(f"{p}: is a directory, expected a CSV file")
    try:
        with open(p, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DatasetError(f"{p}: empty file, expected header {','.join(HEADER)}")
            if tuple(h.strip().strip("'\"") for h in header) != HEADER:
                raise DatasetError(f"{p}: malformed header {header!r}")
            if not _has_body(fh):
                return TransactionSet()
        try:
            table = np.loadtxt(
                p,
                delimiter=",",
                comments=None,
                quotechar='"',
                ndmin=2,
                skiprows=1,
                converters={N_VALUES: _label},
                encoding="utf-8",
            )
        except (ValueError, OSError):  # OSError: loadtxt decompresses by file suffix
            table = None
        if table is None or table.shape[1] != len(HEADER) or not np.isfinite(table).all():
            table = _parse_rows(p)
    except UnicodeDecodeError:
        raise DatasetError(f"{p}: not UTF-8 text (a compressed file must be unpacked first)") from None
    return TransactionSet._from_arrays(table[:, :N_VALUES], table[:, N_VALUES].astype(int))


def _parse_rows(p: Path) -> np.ndarray:
    """Row-by-row parse into an (n, 31) array: slow, but errors name the row and column."""
    rows = []
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(HEADER):
                raise DatasetError(
                    f"{p}: row {lineno}: expected {len(HEADER)} columns, got {len(cells)}"
                )
            try:
                row = [float(c) for c in cells[:N_VALUES]]
            except ValueError as exc:
                raise DatasetError(f"{p}: row {lineno}: non-numeric value ({exc})") from None
            if not all(map(math.isfinite, row)):
                column = next(h for h, x in zip(HEADER, row) if not math.isfinite(x))
                raise DatasetError(f"{p}: row {lineno}: column {column} is not finite")
            try:
                row.append(_label(cells[N_VALUES]))
            except ValueError as exc:
                raise DatasetError(f"{p}: row {lineno}: {exc}") from None
            rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, len(HEADER))


def undersample(ts: TransactionSet, seed: int) -> TransactionSet:
    """Keep all fraud rows, sample non-fraud down to the fraud count, shuffle.

    Sampling is without replacement; the result order is a seeded permutation,
    so identical inputs and seed reproduce the exact row order.
    """
    labels = ts.labels()
    fraud = np.flatnonzero(labels == 1)
    clean = np.flatnonzero(labels == 0)
    if fraud.size == 0 or clean.size == 0:
        raise DatasetError("undersample requires at least one row of each class")
    rng = make_rng(seed)
    if clean.size > fraud.size:
        clean = rng.choice(clean, size=fraud.size, replace=False)
    kept = np.sort(np.concatenate([fraud, clean]))
    chosen = kept[rng.permutation(kept.size)]
    return TransactionSet._from_arrays(ts.values[chosen], labels[chosen])


def _largest_remainder(class_sizes: list[int], total: int, n: int) -> list[int]:
    # Proportional allocation of `total` slots among classes; exact total,
    # each class within one row of its quota. Ties go to the lower class.
    quotas = [size * total / n for size in class_sizes]
    alloc = [math.floor(q) for q in quotas]
    order = sorted(range(len(class_sizes)), key=lambda c: (alloc[c] - quotas[c], c))
    for c in order[: total - sum(alloc)]:
        alloc[c] += 1
    return alloc


def split_indices(labels, spec: SplitSpec, seed: int):
    """Stratified (train, val, test) row indices, each sorted ascending.

    Val and test get floor(frac * n) rows; the remainder goes to train. Within
    each part the per-class counts stay within one row of proportional.
    """
    labels = np.asarray(labels, dtype=int)
    n = labels.size
    if n == 0:
        raise DatasetError("cannot split an empty set")
    n_val = math.floor(spec.val_frac * n)
    n_test = math.floor(spec.test_frac * n)
    classes = [int(c) for c in np.unique(labels)]
    sizes = [int(np.sum(labels == c)) for c in classes]
    val_alloc = _largest_remainder(sizes, n_val, n)
    test_alloc = _largest_remainder(sizes, n_test, n)

    # Val and test round their quotas up independently, so together they can
    # overdraw a tiny class; push the excess test rows to the lowest class
    # with spare capacity so totals stay exact.
    spill = 0
    for i, size in enumerate(sizes):
        over = val_alloc[i] + test_alloc[i] - size
        if over > 0:
            test_alloc[i] -= over
            spill += over
    i = 0
    while spill > 0:
        room = sizes[i] - val_alloc[i] - test_alloc[i]
        if room > 0:
            take = min(room, spill)
            test_alloc[i] += take
            spill -= take
        i += 1

    rng = make_rng(seed)
    parts: dict[str, list[np.ndarray]] = {"train": [], "val": [], "test": []}
    for c, size, nv, nt in zip(classes, sizes, val_alloc, test_alloc):
        members = np.flatnonzero(labels == c)
        members = members[rng.permutation(size)]
        parts["val"].append(members[:nv])
        parts["test"].append(members[nv : nv + nt])
        parts["train"].append(members[nv + nt :])
    return tuple(
        np.sort(np.concatenate(parts[name])).astype(int) for name in ("train", "val", "test")
    )


@dataclass(frozen=True)
class TimeAmountScaler:
    """Min-max ranges for time and amount, fit on training rows only.

    ``transform`` maps time and amount onto [0, 1] and passes V1..V28 through;
    a constant column maps to 0. No graph depends on it (see ``tda``): it
    stays only because ``qgbench/worker.py`` still fits and applies it.
    """

    time_min: float
    time_max: float
    amount_min: float
    amount_max: float

    @classmethod
    def fit(cls, ts: TransactionSet) -> "TimeAmountScaler":
        if not ts.rows:
            raise DatasetError("cannot fit a scaler on an empty set")
        times = [t.time for t in ts.rows]
        amounts = [t.amount for t in ts.rows]
        return cls(min(times), max(times), min(amounts), max(amounts))

    @staticmethod
    def _scale(x: float, lo: float, hi: float) -> float:
        return 0.0 if hi == lo else (x - lo) / (hi - lo)

    def transform(self, t: Transaction) -> Transaction:
        return replace(
            t,
            time=self._scale(t.time, self.time_min, self.time_max),
            amount=self._scale(t.amount, self.amount_min, self.amount_max),
        )


def write_split_manifest(path, seed: int, spec: SplitSpec, idx_train, idx_val, idx_test) -> None:
    """Key-value record of the split: seed, fractions, and row indices."""
    with open(path, "w") as fh:
        fh.write(f"seed: {seed}\n")
        fh.write(f"train_frac: {spec.train_frac!r}\n")
        fh.write(f"val_frac: {spec.val_frac!r}\n")
        fh.write(f"test_frac: {spec.test_frac!r}\n")
        for name, idx in (("train", idx_train), ("val", idx_val), ("test", idx_test)):
            fh.write(f"{name}_indices: {','.join(str(int(i)) for i in idx)}\n")
