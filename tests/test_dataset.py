import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from qgfraud import dataset
from qgfraud.dataset import (
    DatasetError,
    SplitSpec,
    TimeAmountScaler,
    Transaction,
    TransactionSet,
    load_transactions,
    split_indices,
    undersample,
)
from qgfraud.rng import make_rng
from tests import oracles
from tests.synth import save_transactions


def make_row(label=0, time=0.0, amount=1.0, v=None):
    return Transaction(time=time, v=tuple(v) if v is not None else (0.0,) * 28, amount=amount, label=label)


def balanced_set(n_per_class, seed=0):
    rng = make_rng(seed)
    rows = []
    for label in (0, 1):
        for _ in range(n_per_class):
            rows.append(
                Transaction(
                    time=float(rng.uniform(0, 1000)),
                    v=tuple(float(x) for x in rng.normal(size=28)),
                    amount=float(rng.uniform(0, 100)),
                    label=label,
                )
            )
    return TransactionSet(rows)


class TestTransaction:
    def test_wrong_feature_count(self):
        with pytest.raises(DatasetError):
            Transaction(time=0.0, v=(1.0,) * 27, amount=0.0, label=0)

    def test_bad_label(self):
        with pytest.raises(DatasetError):
            Transaction(time=0.0, v=(0.0,) * 28, amount=0.0, label=2)


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_transactions(tmp_path / "nope.csv")

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("Time,V1,Amount,Class\n")
        with pytest.raises(DatasetError, match="header"):
            load_transactions(p)

    def test_header_only_gives_empty_set(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text(",".join(dataset.HEADER) + "\n")
        ts = load_transactions(p)
        assert len(ts) == 0

    def test_three_row_fixture(self, tmp_path):
        p = tmp_path / "three.csv"
        rows = [make_row(0, time=1.0), make_row(1, time=2.0), make_row(0, time=3.0)]
        save_transactions(TransactionSet(rows), p)
        ts = load_transactions(p)
        assert len(ts) == 3
        assert ts.class_counts() == (2, 1)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        save_transactions(TransactionSet([make_row(0), make_row(1)]), p)
        lines = p.read_text().splitlines()
        lines[2] = lines[2].replace("0.0", "oops", 1)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_transactions(p)

    def test_wrong_column_count_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        save_transactions(TransactionSet([make_row(0)]), p)
        with open(p, "a") as fh:
            fh.write("1.0,2.0\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_transactions(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        save_transactions(TransactionSet([make_row(0), make_row(1), make_row(0)]), p)
        lines = p.read_text().splitlines()
        cells = lines[3].split(",")
        cells[3] = cell  # V3
        lines[3] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="row 4: column V3 is not finite"):
            load_transactions(p)

    def test_quoted_label_accepted(self, tmp_path):
        p = tmp_path / "quoted.csv"
        save_transactions(TransactionSet([make_row(1)]), p)
        lines = p.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = '"1"'
        p.write_text(lines[0] + "\n" + ",".join(cells) + "\n")
        assert load_transactions(p).rows[0].label == 1

    def test_round_trip_is_exact(self, tmp_path):
        rng = make_rng(3)
        rows = [
            Transaction(
                time=float(rng.uniform(0, 1e5)),
                v=tuple(float(x) for x in rng.normal(size=28) * 10),
                amount=float(rng.uniform(0, 1e4)),
                label=int(rng.integers(0, 2)),
            )
            for _ in range(20)
        ]
        rows.append(make_row(0, time=0.1, amount=1e-12))
        p = tmp_path / "rt.csv"
        save_transactions(TransactionSet(rows), p)
        back = load_transactions(p)
        assert back.rows == rows


def csv_line(label="0", **cells) -> str:
    """A 31-cell row: distinct values per column, ``cells`` replacing some (``c3`` is V3)."""
    row = [repr(0.25 + 1.5 * j) for j in range(30)] + [label]
    for key, cell in cells.items():
        row[int(key[1:])] = cell
    return ",".join(row)


GOOD = [csv_line("0"), csv_line("1", c0="7.0"), csv_line("0", c29="3.5")]

# (case, text after the header line)
LOADER_CASES = [
    ("blank line", GOOD[0] + "\n\n" + GOOD[1] + "\n"),
    ("whitespace-only line", GOOD[0] + "\n   \n" + GOOD[1] + "\n"),
    ("crlf", "\r\n".join(GOOD) + "\r\n"),
    ("no final newline", "\n".join(GOOD)),
    ("header only", ""),
    ("header and blank lines", "\n\n"),
    ("header and a whitespace-only line", " \n"),
    ("quoted numeric cell", csv_line("1", c5='"2.5"') + "\n"),
    *[(f"label {cell}", csv_line(cell) + "\n") for cell in ('"1"', "'1'", " 1 ", "1.0")],
    *[(f"cell {cell!r}", GOOD[0] + "\n" + csv_line("1", c3=cell) + "\n")
      for cell in ("1.5#", "1_5", "0x1p3", "", "nan", "Infinity")],
    ("30-cell row", GOOD[0] + "\n" + GOOD[1].rsplit(",", 1)[0] + "\n"),
    ("32-cell row", GOOD[0] + "\n" + GOOD[1] + ",0\n"),
    ("every row 32 cells", "".join(line + ",0\n" for line in GOOD)),
]


def load_or_error(load, path):
    """(rows, None) or (None, the DatasetError text)."""
    try:
        ts = load(path)
    except DatasetError as exc:
        return None, str(exc)
    return (ts if isinstance(ts, list) else ts.rows), None


class TestLoaderMatchesRowOracle:
    """``load_transactions`` against the ``float()``-per-cell reader: equal
    rows, or the identical error text, with every warning an error."""

    @pytest.mark.parametrize("case, body", LOADER_CASES, ids=[c for c, _ in LOADER_CASES])
    def test_edge_case(self, tmp_path, case, body):
        p = tmp_path / "case.csv"
        p.write_bytes((",".join(dataset.HEADER) + "\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_or_error(load_transactions, p)
        assert got == load_or_error(oracles.read_transactions, p)

    def test_synthetic_file(self, small_csv):
        rows, error = load_or_error(load_transactions, small_csv)
        assert error is None and len(rows) == 340
        assert rows == oracles.read_transactions(small_csv)


class TestColumnarLoad:
    def test_only_kept_rows_become_transactions(self, small_csv, monkeypatch):
        built = []
        post_init = Transaction.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Transaction, "__post_init__", counted)
        ts = load_transactions(small_csv)
        assert len(ts) == 340  # every CSV row is counted
        out = undersample(ts, seed=1)
        assert len(built) <= len(out) == 80
        assert len(out.rows) == 80
        assert len(built) == 80


REAL_DATASET = Path(os.environ.get("QGFRAUD_DATASET", "data/creditcard.csv"))


@pytest.mark.skipif(not REAL_DATASET.exists(), reason="real credit-card CSV not available")
class TestRealDataset:
    def test_row_and_fraud_counts(self):
        ts = load_transactions(REAL_DATASET)
        assert len(ts) == 284_807
        assert ts.class_counts()[1] == 492

    def test_undersample_to_984(self):
        ts = load_transactions(REAL_DATASET)
        out = undersample(ts, seed=0)
        assert len(out) == 984
        assert out.class_counts() == (492, 492)


class TestUndersample:
    def test_balances_classes(self, small_csv):
        ts = load_transactions(small_csv)
        out = undersample(ts, seed=1)
        n_clean, n_fraud = out.class_counts()
        assert n_clean == n_fraud == ts.class_counts()[1]

    def test_keeps_every_fraud_row(self, small_csv):
        ts = load_transactions(small_csv)
        out = undersample(ts, seed=1)
        frauds_in = sorted(repr(t) for t in ts.rows if t.label == 1)
        frauds_out = sorted(repr(t) for t in out.rows if t.label == 1)
        assert frauds_in == frauds_out

    def test_already_balanced_preserves_multiset(self):
        ts = balanced_set(10)
        out = undersample(ts, seed=9)
        assert sorted(map(repr, out.rows)) == sorted(map(repr, ts.rows))

    def test_deterministic(self, small_csv):
        ts = load_transactions(small_csv)
        a = undersample(ts, seed=4)
        b = undersample(ts, seed=4)
        assert a.rows == b.rows

    def test_seed_changes_selection(self, small_csv):
        ts = load_transactions(small_csv)
        assert undersample(ts, seed=1).rows != undersample(ts, seed=2).rows

    def test_single_class_rejected(self):
        ts = TransactionSet([make_row(0), make_row(0)])
        with pytest.raises(DatasetError):
            undersample(ts, seed=0)


class TestSplit:
    def test_worked_sizes_984(self):
        ts = balanced_set(492)
        tr, va, te = split_indices(ts.labels(), SplitSpec(0.65, 0.05, 0.30), seed=0)
        assert (len(tr), len(va), len(te)) == (640, 49, 295)

    def test_single_row_goes_to_train(self):
        tr, va, te = split_indices([1], SplitSpec(0.65, 0.05, 0.30), seed=0)
        assert (len(tr), len(va), len(te)) == (1, 0, 0)

    def test_deterministic(self):
        ts = balanced_set(50)
        spec = SplitSpec(0.65, 0.05, 0.30)
        a = split_indices(ts.labels(), spec, seed=5)
        b = split_indices(ts.labels(), spec, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_stratified_within_one_row(self):
        labels = balanced_set(492).labels()
        for part in split_indices(labels, SplitSpec(0.65, 0.05, 0.30), seed=3):
            n_fraud = int(labels[part].sum())
            assert abs((len(part) - n_fraud) - n_fraud) <= 2  # one row of slack per class

    def test_disjoint_union_over_random_inputs(self):
        rng = make_rng(77)
        for trial in range(30):
            n = int(rng.integers(1, 200))
            labels = rng.integers(0, 2, size=n)
            if trial % 5 == 0:
                labels[:] = 1  # single-class sets must still split cleanly
            fracs = rng.uniform(0.05, 1.0, size=3)
            fracs = fracs / fracs.sum()
            if min(fracs) <= 0.0 or max(fracs) >= 1.0:
                continue
            spec = SplitSpec(float(fracs[0]), float(fracs[1]), float(1.0 - fracs[0] - fracs[1]))
            idx_tr, idx_va, idx_te = split_indices(labels, spec, seed=int(rng.integers(1 << 30)))
            merged = np.concatenate([idx_tr, idx_va, idx_te])
            assert len(merged) == n
            assert len(np.unique(merged)) == n
            assert len(idx_va) == int(np.floor(spec.val_frac * n))
            assert len(idx_te) == int(np.floor(spec.test_frac * n))

    def test_invalid_fractions(self):
        with pytest.raises(DatasetError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(DatasetError):
            SplitSpec(1.0, 0.0, 0.0)

    def test_empty_set_rejected(self):
        with pytest.raises(DatasetError):
            split_indices(np.array([], dtype=int), SplitSpec(0.65, 0.05, 0.30), seed=0)


class TestSplitManifest:
    def test_records_seed_fractions_and_indices(self, tmp_path):
        ts = balanced_set(20)
        spec = SplitSpec(0.65, 0.05, 0.30)
        idx = split_indices(ts.labels(), spec, seed=9)
        path = tmp_path / "split.txt"
        dataset.write_split_manifest(path, 9, spec, *idx)
        text = path.read_text()
        assert "seed: 9" in text
        assert "train_frac: 0.65" in text
        got_train = [int(x) for x in text.splitlines()[4].split(": ")[1].split(",")]
        assert got_train == [int(i) for i in idx[0]]


class TestScaler:
    def test_maps_train_range_to_unit_interval(self):
        ts = balanced_set(30, seed=2)
        scaler = TimeAmountScaler.fit(ts)
        out = [scaler.transform(t) for t in ts.rows]
        times = [t.time for t in out]
        amounts = [t.amount for t in out]
        assert min(times) == 0.0 and max(times) == 1.0
        assert min(amounts) == 0.0 and max(amounts) == 1.0

    def test_features_untouched(self):
        ts = balanced_set(5, seed=2)
        scaler = TimeAmountScaler.fit(ts)
        for before in ts.rows:
            after = scaler.transform(before)
            assert before.v == after.v
            assert before.label == after.label

    def test_constant_column_maps_to_zero(self):
        rows = [make_row(0, time=5.0), make_row(1, time=5.0)]
        scaler = TimeAmountScaler.fit(TransactionSet(rows))
        assert all(scaler.transform(t).time == 0.0 for t in rows)

    def test_empty_set_rejected(self):
        with pytest.raises(DatasetError):
            TimeAmountScaler.fit(TransactionSet([]))
