"""Synthetic stand-ins for the real transaction data.

The public credit-card CSV cannot ship with the repo, so tests and the
acceptance suite fall back to a generated file with the same schema: Gaussian
PCA-style features, a handful of class-shifted dimensions, lognormal amounts,
and a configurable fraud count. Also provides the tiny hand-built graph
fixtures used by the learnability tests, and a writer for hand-built rows.
"""

from __future__ import annotations

import csv

import numpy as np

from qgfraud.dataset import HEADER, TransactionSet
from qgfraud.rng import make_rng
from qgfraud.tda import TransactionGraph

# dimensions that separate the classes, and how far their means move
INFORMATIVE = (1, 3, 6, 9, 13, 16, 20, 24)
SHIFT = 1.6


def write_synthetic_csv(path, n_clean: int = 20000, n_fraud: int = 492, seed: int = 11) -> None:
    rng = make_rng(seed)
    n = n_clean + n_fraud
    labels = np.zeros(n, dtype=int)
    labels[rng.choice(n, size=n_fraud, replace=False)] = 1

    times = np.sort(rng.uniform(0.0, 172_792.0, size=n))
    v = rng.normal(size=(n, 28))
    signs = np.where(np.arange(len(INFORMATIVE)) % 2 == 0, 1.0, -1.0)
    for col, sign in zip(INFORMATIVE, signs):
        v[labels == 1, col] += sign * SHIFT
    amounts = np.round(rng.lognormal(mean=3.0, sigma=1.2, size=n), 2)
    amounts[labels == 1] = np.round(rng.lognormal(3.4, 1.4, size=int(labels.sum())), 2)

    # shortest round-trip reprs, one join per row; tolist() hands out Python floats
    with open(path, "w") as fh:
        fh.write(",".join(HEADER) + "\n")
        for t, row, amount, label in zip(times.tolist(), v, amounts.tolist(), labels.tolist()):
            fh.write(f"{t!r}," + ",".join(map(repr, row.tolist())) + f",{amount!r},{label}\n")


def save_transactions(ts: TransactionSet, path) -> None:
    """Write rows in the CSV dialect ``load_transactions`` reads; floats use shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for t in ts.rows:
            writer.writerow([repr(t.time), *(repr(x) for x in t.v), repr(t.amount), t.label])


def separable_four_graphs() -> list[TransactionGraph]:
    """Two positive graphs with positive features, two with the sign flipped."""
    graphs = []
    for label, scale in ((1, 2.0), (1, 1.5), (0, -2.0), (0, -1.5)):
        nodes = np.zeros((2, 28))
        nodes[0, :14] = scale
        nodes[1, 14:] = scale * 0.8
        graphs.append(TransactionGraph(nodes=nodes, edges=((0, 1),), label=label))
    return graphs


def random_graphs(n: int, seed: int, max_nodes: int = 5, informative: bool = False):
    """Small random graphs for API tests; optionally class-separable."""
    rng = make_rng(seed)
    graphs = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        n_nodes = int(rng.integers(1, max_nodes + 1))
        nodes = rng.normal(size=(n_nodes, 28))
        if informative:
            nodes[:, :6] += (2.0 if label else -2.0)
        edges = []
        for a in range(n_nodes):
            for b in range(a + 1, n_nodes):
                if rng.random() < 0.4:
                    edges.append((a, b))
        graphs.append(TransactionGraph(nodes=nodes, edges=tuple(edges), label=label))
    return graphs


if __name__ == "__main__":
    import sys

    out = sys.argv[1] if len(sys.argv) > 1 else "synthetic_creditcard.csv"
    write_synthetic_csv(out)
    print(f"wrote {out}")
