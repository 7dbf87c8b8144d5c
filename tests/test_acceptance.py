"""Acceptance suite: the eight release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale criteria
use the real credit-card CSV when one is available (QGFRAUD_DATASET env var
or data/creditcard.csv); otherwise they run on a generated surrogate with the
same schema and class balance, which is reported in the output line.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from qgfraud import cli, dataset, metrics, qgnn, qsim, sage, tda
from qgfraud.rng import make_rng
from qgfraud.training import TrainConfig
from tests.oracles import (
    brute_dbscan,
    dense_run_vqc,
    fd_grad,
    flatten_params,
    intersection_edges,
    pair_auc,
    unflatten_params,
)
from tests.synth import separable_four_graphs, write_synthetic_csv

# reference values recorded for comparison (not asserted): the published
# results this pipeline mirrors
REFERENCE = {
    "qgnn": {"accuracy_pct": 94.5, "precision_pct": 96.1, "recall_pct": 79.5, "f1": 0.86, "auc_pr": 0.85},
    "sage": {"accuracy_pct": 92.3, "precision_pct": 95.2, "recall_pct": 76.3, "f1": 0.83, "auc_roc": 0.77},
}


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: simulator vs dense-matrix oracle

def test_criterion_1_simulator_correctness():
    rng = make_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    worst_norm = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 4))
        layers = int(rng.integers(0, 3))
        factory = qsim.CircuitSpec.chain if rng.random() < 0.5 else qsim.CircuitSpec.ring
        spec = factory(q, layers)
        x = rng.uniform(-3, 3, q)
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        got = qsim.run_vqc_batch(x, spec, w)[0]
        want = dense_run_vqc(x, spec, w)
        worst = max(worst, float(np.abs(got - want).max()))
        amps = qsim._run(x[None, :], spec, w)[0]
        worst_norm = max(worst_norm, abs(np.vdot(amps, amps).real - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and worst_norm < 1e-10 and elapsed < 10.0
    report_line(
        1, ok,
        f"200 random circuits q<=3: max |dZ| {worst:.2e} (tol 1e-10), "
        f"max norm drift {worst_norm:.2e}, {elapsed:.1f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: gradients vs central finite differences

def _qgnn_fd_instance(seed):
    rng = make_rng(seed)
    spec = qsim.CircuitSpec.chain(int(rng.integers(2, 4)), 1)
    params = qgnn.init_params(spec, rng)
    n_nodes = int(rng.integers(1, 4))
    nodes = rng.normal(size=(n_nodes, 28))
    edges = tuple((a, a + 1) for a in range(n_nodes - 1))
    g = tda.TransactionGraph(nodes=nodes, edges=edges, label=int(rng.integers(0, 2)))
    _, grads = qgnn.backward_batch([g], params, spec, [g.label])
    vec, layout = flatten_params(params.to_dict())

    def loss_of(v):
        p = qgnn.QgnnParams.from_dict(unflatten_params(v, layout))
        return qgnn.bce_loss(qgnn.forward(g, p, spec), g.label)

    return flatten_params(grads)[0], fd_grad(loss_of, vec)


class _PlainGraph:
    def __init__(self, nodes, edges, label):
        self.nodes, self.edges, self.label = nodes, edges, label

    @property
    def n_nodes(self):
        return self.nodes.shape[0]


def _sage_fd_instance(seed):
    # differentiable points only: a pre-activation within the FD step of the
    # ReLU kink makes central differences straddle it (zero biases + isolated
    # nodes even land exactly on it), so such draws are skipped
    for attempt in range(50):
        rng = make_rng(seed + 1000 * attempt)
        n_feat = int(rng.integers(3, 7))
        width = int(rng.integers(2, 5))
        n_nodes = int(rng.integers(3, 6))
        params = sage.init_sage_params(rng, in_dim=n_feat, widths=(width, width), dropout=0.0)
        params.layer1.b = rng.normal(size=2 * width) * 0.1
        params.layer2.b = rng.normal(size=2 * width) * 0.1
        nodes = rng.normal(size=(n_nodes, n_feat))
        edges = set((a, a + 1) for a in range(n_nodes - 1))
        edges.update(
            (a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes) if rng.random() < 0.3
        )
        g = _PlainGraph(nodes, tuple(sorted(edges)), int(rng.integers(0, 2)))
        adj = sage.neighbor_lists(g)
        h1, c1 = sage._layer_forward(g.nodes, adj, params.layer1, None, False, None)
        _, c2 = sage._layer_forward(h1, adj, params.layer2, None, False, None)
        if min(np.abs(c1[3]).min(), np.abs(c2[3]).min()) > 1e-3:
            break
    _, grads = sage.sage_backward(g, params, g.label, train_mode=False)
    vec, layout = flatten_params(params.to_dict())

    def loss_of(v):
        p = params.replace_arrays(unflatten_params(v, layout))
        return sage.bce_loss(sage.sage_forward(g, p), g.label)

    return flatten_params(grads)[0], fd_grad(loss_of, vec)


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = make_rng(202)
    worst_shift = 0.0
    for _ in range(50):
        q = int(rng.integers(1, 5))
        spec = qsim.CircuitSpec.chain(q, int(rng.integers(1, 3)))
        x = rng.uniform(-2, 2, q)
        w = rng.uniform(0, 2 * np.pi, spec.n_params)
        up = rng.normal(size=q)
        grad_w, grad_x = qsim.param_shift_grad_batch(x[None], spec, w, up[None])
        grad_x = grad_x[0]
        fw = fd_grad(lambda wv: float(qsim.run_vqc_batch(x, spec, wv)[0] @ up), w)
        fx = fd_grad(lambda xv: float(qsim.run_vqc_batch(xv, spec, w)[0] @ up), x)
        denom = max(1.0, float(np.abs(fw).max()), float(np.abs(fx).max()))
        worst_shift = max(
            worst_shift,
            float(np.abs(grad_w - fw).max()) / denom,
            float(np.abs(grad_x - fx).max()) / denom,
        )

    worst_qgnn = 0.0
    for seed in range(50):
        got, want = _qgnn_fd_instance(seed)
        worst_qgnn = max(worst_qgnn, float(np.abs(got - want).max() / max(1.0, np.abs(want).max())))

    worst_sage = 0.0
    for seed in range(50):
        got, want = _sage_fd_instance(seed)
        worst_sage = max(worst_sage, float(np.abs(got - want).max() / max(1.0, np.abs(want).max())))

    elapsed = time.perf_counter() - t0
    ok = worst_shift < 1e-4 and worst_qgnn < 1e-4 and worst_sage < 1e-4 and elapsed < 60.0
    report_line(
        2, ok,
        f"50 instances each: param-shift rel err {worst_shift:.2e}, "
        f"qgnn backward {worst_qgnn:.2e}, sage backward {worst_sage:.2e} "
        f"(tol 1e-4), {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: TDA oracles

def test_criterion_3_tda_oracle_equivalence():
    rng = make_rng(303)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        values = np.round(rng.uniform(0, 2, size=n), 2)
        eps = float(rng.uniform(0.05, 0.9))
        min_pts = int(rng.integers(1, 5))
        got = list(tda.dbscan(values, tda.DbscanSpec(eps=eps, min_pts=min_pts)))
        if got != brute_dbscan(values, eps, min_pts):
            mismatches += 1

    edge_mismatches = 0
    t = dataset.Transaction(0.1, tuple(float(x) for x in rng.normal(size=28)), 0.2, 0)
    for _ in range(200):
        clusters = []
        for _ in range(int(rng.integers(1, 10))):
            size = int(rng.integers(1, 8))
            clusters.append(tuple(sorted(set(int(i) for i in rng.integers(0, 28, size=size)))))
        g = tda.build_graph(clusters, t)
        canon = sorted(tuple(sorted(set(c))) for c in clusters)
        if set(g.edges) != intersection_edges(canon):
            edge_mismatches += 1

    ok = mismatches == 0 and edge_mismatches == 0
    report_line(
        3, ok,
        f"dbscan vs density-reachability oracle: {500 - mismatches}/500 trials agree; "
        f"build_graph vs intersection oracle: {200 - edge_mismatches}/200 agree",
    )


# ---------------------------------------------------------------------------
# criterion 4: metrics oracles

def test_criterion_4_metrics_oracle_equivalence():
    rng = make_rng(404)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if trial % 3 == 0:
            scores = rng.integers(0, 6, size=n) / 5.0  # tie-heavy
        else:
            scores = rng.uniform(0, 1, size=n)
        s = metrics.ScoredSet(scores.astype(float), labels)
        _, auc = metrics.roc_curve(s)
        worst = max(worst, abs(auc - pair_auc(scores, labels)))

    _, auc_pr = metrics.pr_curve(metrics.ScoredSet(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1])))
    pr_exact = abs(auc_pr - 5.0 / 6.0)
    ok = worst < 1e-9 and pr_exact < 1e-12
    report_line(
        4, ok,
        f"AUC-ROC vs pair counting on 200 sets: max |diff| {worst:.2e} (tol 1e-9); "
        f"worked PR example |auc_pr - 5/6| = {pr_exact:.2e}",
    )


# ---------------------------------------------------------------------------
# criteria 5-7 share CLI-built artifacts

def _dataset_path(tmp_root: Path):
    env = os.environ.get("QGFRAUD_DATASET")
    if env and Path(env).exists():
        return Path(env), "real"
    default = Path("data/creditcard.csv")
    if default.exists():
        return default, "real"
    path = tmp_root / "surrogate.csv"
    if not path.exists():
        write_synthetic_csv(path, n_clean=20000, n_fraud=492, seed=11)
    return path, "surrogate"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Default-config corpus + trained/evaluated qgnn and sage, via the CLI."""
    tmp = tmp_path_factory.mktemp("desk")
    data_path, source = _dataset_path(tmp)
    out = tmp / "run"
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps({"dataset": str(data_path), "output_dir": str(out)}))
    t0 = time.perf_counter()
    assert cli.main(["build-graphs", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--model", "qgnn"]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--model", "sage"]) == 0
    assert cli.main(["evaluate", "--config", str(cfg_path), "--model", "qgnn"]) == 0
    assert cli.main(["evaluate", "--config", str(cfg_path), "--model", "sage"]) == 0
    elapsed = time.perf_counter() - t0
    return {"out": out, "source": source, "elapsed": elapsed, "config": cfg_path}


def _eval_metrics(out: Path, model: str) -> dict:
    manifest = json.loads((out / f"eval_{model}_test" / "manifest.json").read_text())
    return manifest["metrics"]


def test_criterion_5_desk_scale_end_to_end(desk_run):
    out, source = desk_run["out"], desk_run["source"]
    corpus = json.loads((out / "graphs" / "manifest.json").read_text())
    total = sum(corpus["counts"][p]["graphs"] for p in ("train", "val", "test"))
    node_cap_ok = all(corpus["counts"][p]["max_nodes"] <= 28 for p in corpus["counts"])
    qg = _eval_metrics(out, "qgnn")
    sg = _eval_metrics(out, "sage")
    ok = (
        total == 984
        and node_cap_ok
        and qg["accuracy_pct"] >= 85.0
        and qg["auc_pr"] >= 0.75
        and sg["accuracy_pct"] >= 80.0
        and sg["auc_roc"] >= 0.70
        and desk_run["elapsed"] < 1800.0
    )
    report_line(
        5, ok,
        f"{source} dataset, {total} graphs: qgnn acc {qg['accuracy_pct']:.1f}% "
        f"(>=85), auc_pr {qg['auc_pr']:.3f} (>=0.75); sage acc {sg['accuracy_pct']:.1f}% "
        f"(>=80), auc_roc {sg['auc_roc']:.3f} (>=0.70); {desk_run['elapsed']:.0f}s (< 1800s). "
        f"reference targets: qgnn acc {REFERENCE['qgnn']['accuracy_pct']}%, "
        f"auc_pr {REFERENCE['qgnn']['auc_pr']}; sage acc {REFERENCE['sage']['accuracy_pct']}%, "
        f"auc_roc {REFERENCE['sage']['auc_roc']}",
    )


# ---------------------------------------------------------------------------
# criterion 6: the qubit/layer grid emits its 4-row summary

@pytest.fixture(scope="module")
def grid_corpus(tmp_path_factory):
    """A deliberately tiny corpus (single-node graphs) so 16-qubit runs stay fast."""
    tmp = tmp_path_factory.mktemp("grid")
    data_path = tmp / "tiny.csv"
    write_synthetic_csv(data_path, n_clean=60, n_fraud=6, seed=21)
    out = tmp / "run"
    cfg_path = tmp / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "dataset": str(data_path),
                "output_dir": str(out),
                "seed": 5,
                "tda": {"n_intervals": 1, "eps": 50.0},
                "training": {"epochs": 1, "batch_size": 5, "learning_rate": 0.01},
            }
        )
    )
    assert cli.main(["build-graphs", "--config", str(cfg_path)]) == 0
    return cfg_path, out


def test_criterion_6_grid_summary(grid_corpus):
    cfg_path, out = grid_corpus
    t0 = time.perf_counter()
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    elapsed = time.perf_counter() - t0
    lines = (out / "grid" / "summary.csv").read_text().splitlines()
    header_ok = lines[0] == "qubits,layers,accuracy_pct,precision_pct,recall_pct,f1,auc_pr"
    rows = [line.split(",") for line in lines[1:]]
    configs = [(int(r[0]), int(r[1])) for r in rows]
    ok = header_ok and configs == [(6, 1), (16, 1), (6, 2), (16, 2)]
    report_line(
        6, ok,
        f"grid emitted {len(rows)} rows {configs} in {elapsed:.0f}s; trend vs the "
        "reference (fewer qubits scored best there) is compared in the summary, not asserted",
    )


def test_criterion_6_grid_on_multi_node_corpus(tmp_path):
    # the same grid on graphs built with the default TDA settings: 20 graphs
    # of several nodes each, so the q16/l2 row runs its matrix product state
    # path on multi-node graphs
    data_path = tmp_path / "surrogate.csv"
    write_synthetic_csv(data_path, n_clean=200, n_fraud=10, seed=23)
    out = tmp_path / "run"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "dataset": str(data_path),
                "output_dir": str(out),
                "seed": 5,
                "training": {"epochs": 1, "batch_size": 5, "learning_rate": 0.01},
            }
        )
    )
    assert cli.main(["build-graphs", "--config", str(cfg_path)]) == 0
    counts = json.loads((out / "graphs" / "manifest.json").read_text())["counts"]
    assert counts["train"]["mean_nodes"] > 2.0
    t0 = time.perf_counter()
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    elapsed = time.perf_counter() - t0
    lines = (out / "grid" / "summary.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    configs = [(int(r[0]), int(r[1])) for r in rows]
    values = np.array([[float(v) for v in r[2:]] for r in rows])
    ok = configs == [(6, 1), (16, 1), (6, 2), (16, 2)] and bool(np.isfinite(values).all())
    report_line(
        6, ok,
        f"grid on {sum(c['graphs'] for c in counts.values())} multi-node graphs "
        f"(train mean {counts['train']['mean_nodes']:.1f} nodes) emitted {len(rows)} rows "
        f"{configs} with finite metrics in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: byte-identical reruns

def test_criterion_7_reproducibility(tmp_path):
    data_path = tmp_path / "tiny.csv"
    write_synthetic_csv(data_path, n_clean=150, n_fraud=20, seed=9)
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg_path = tmp_path / f"cfg_{sub}.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "dataset": str(data_path),
                    "output_dir": str(out),
                    "seed": 13,
                    "model": {"qgnn": {"qubits": 4, "layers": 1}},
                    "training": {"epochs": 2, "batch_size": 4, "learning_rate": 0.05},
                }
            )
        )
        assert cli.main(["build-graphs", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path), "--model", "qgnn"]) == 0
        assert cli.main(["evaluate", "--config", str(cfg_path), "--model", "qgnn"]) == 0
        digests.append(
            tuple(
                (out / rel).read_bytes()
                for rel in (
                    "graphs/graphs_train.jsonl",
                    "graphs/graphs_val.jsonl",
                    "graphs/graphs_test.jsonl",
                    "graphs/split_manifest.txt",
                    "train_qgnn/history.csv",
                    "train_qgnn/checkpoint.txt",
                    "eval_qgnn_test/report.txt",
                    "eval_qgnn_test/roc.csv",
                    "eval_qgnn_test/pr.csv",
                )
            )
        )
    ok = digests[0] == digests[1]
    report_line(
        7, ok,
        "rerun with identical config + seed: corpus, split manifest, history, "
        "checkpoint, report, and curve files are byte-identical",
    )


# ---------------------------------------------------------------------------
# criterion 8: tiny-fixture learnability

def test_criterion_8_tiny_fixture_learnability():
    graphs = separable_four_graphs()
    spec = qsim.CircuitSpec.chain(6, 1)
    cfg = TrainConfig(epochs=50, batch_size=2, learning_rate=0.05, seed=0)
    _, q_hist = qgnn.train(graphs, [], spec, cfg)
    q_losses = [e.train_loss for e in q_hist.epochs]
    _, s_hist = sage.sage_train(graphs, [], cfg, widths=(8, 8), dropout=0.0)
    s_losses = [e.train_loss for e in s_hist.epochs]
    q_drop = 1.0 - q_losses[-1] / q_losses[0]
    s_drop = 1.0 - s_losses[-1] / s_losses[0]
    ok = q_drop >= 0.5 and s_drop >= 0.5
    report_line(
        8, ok,
        f"separable 4-graph fixture, 50 epochs: qgnn loss drop {100 * q_drop:.0f}%, "
        f"sage loss drop {100 * s_drop:.0f}% (both >= 50%)",
    )
