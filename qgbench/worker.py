"""One benchmark run of one workload, measured in this process.

``run.py`` starts this file with BLAS threads capped in its environment and
the repository root as working directory. It generates (or reuses) the
seeded synthetic CSV, sets up, runs passes of the workload until
``--seconds`` is used up, checks every output, and prints readable lines
followed by one JSON result line. With ``--trace 1`` it alternates untraced
and traced passes and reports per-layer numbers instead.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qgfraud import cli, dataset, metrics, persist, qgnn, qsim, rng, sage, tda
from qgfraud.config import load_config
from tests import oracles
from tests.synth import write_synthetic_csv

from spans import Tracer, totals

WORK_DIR = Path(".qgbench_work")
SETUP_MIN_REPEATS = 3
ORACLE_NODES = 12
ORACLE_TOL = 1e-10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10  # samples a reported percentile needs above it
Q16_SPEC = (16, 2)


@dataclass(frozen=True)
class Size:
    n_clean: int
    n_fraud: int
    q16_sample: int  # transactions per score_q16 pass
    setup_s: float  # set-up repeats until this much time is spent


SIZES = {
    "desk": Size(n_clean=20000, n_fraud=492, q16_sample=8, setup_s=6.0),
    "smoke": Size(n_clean=300, n_fraud=40, q16_sample=2, setup_s=0.0),
}


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Ledger:
    """Operations attempted and failed, plus the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, n: int, ok: bool, problem: str = "") -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(problem)

    def fail(self, problem: str) -> None:
        """A check on outputs that are not themselves operations."""
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class PassResult:
    wall_s: float
    stage_s: dict  # stage -> seconds
    work: dict  # stage -> graphs handled by the stage
    latencies_ms: list
    scores: list


@dataclass
class Desk:
    """The balanced transactions and split the CLI derives from the CSV."""

    cfg: object
    cfg_path: Path
    rows: list
    idx: tuple  # (train, val, test) indices into rows
    scaler: object

    def split_sizes(self) -> dict:
        return {name: len(i) for name, i in zip(("train", "val", "test"), self.idx)}


def load_desk(cfg_path: Path) -> Desk:
    cfg = load_config(cfg_path)
    balanced = dataset.undersample(dataset.load_transactions(cfg.dataset), cfg.seed)
    idx = dataset.split_indices(balanced.labels(), cfg.split, cfg.seed)
    train_rows = dataset.TransactionSet([balanced.rows[i] for i in idx[0]])
    return Desk(cfg, cfg_path, balanced.rows, idx, dataset.TimeAmountScaler.fit(train_rows))


def run_cli(argv) -> tuple[int, float, str]:
    """``cli.main`` in-process with its output captured; (code, seconds, output)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    return code, time.perf_counter() - t0, buf.getvalue()


def corpus_sha256(graphs_dir: Path) -> str:
    digest = hashlib.sha256()
    for name in sorted(cli.CORPUS_FILES.values()):
        digest.update((graphs_dir / name).read_bytes())
    return digest.hexdigest()


def read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def valid_score(p) -> bool:
    return isinstance(p, float) and math.isfinite(p) and 0.0 <= p <= 1.0


# ---------------------------------------------------------------------------
# stages shared by the workloads


def build_stage(desk: Desk, out: Path, want_sha: str, ledger: Ledger) -> float:
    code, seconds, log = run_cli(["build-graphs", "--config", desk.cfg_path, "--output-dir", out])
    expected = desk.split_sizes()
    ok = code == 0
    problem = f"build-graphs exited {code}: {log.strip()[-200:]}"
    if ok:
        counts = json.loads((out / "graphs" / "manifest.json").read_text())["counts"]
        found = {name: c["graphs"] for name, c in counts.items()}
        sha = corpus_sha256(out / "graphs")
        ok = found == expected and sha == want_sha
        problem = f"corpus counts {found} (want {expected}) or sha256 {sha} (want {want_sha})"
    ledger.record(len(desk.rows), ok, problem)
    return seconds


def train_stage(desk: Desk, argv: list, out: Path, ledger: Ledger) -> float:
    code, seconds, log = run_cli(["train", "--config", desk.cfg_path, "--output-dir", out, *argv])
    cfg = desk.cfg.training
    batches = math.ceil(desk.split_sizes()["train"] / cfg.batch_size) * cfg.epochs
    ok = code == 0
    problem = f"train {argv} exited {code}: {log.strip()[-200:]}"
    if ok:
        model = argv[argv.index("--model") + 1]
        lines = (out / f"train_{model}" / "history.csv").read_text().splitlines()[1:]
        losses = [float(x) for line in lines for x in line.split(",")[1:]]
        ok = len(lines) == cfg.epochs and all(math.isfinite(x) for x in losses)
        problem = f"train {argv}: non-finite or missing losses {losses}"
    ledger.record(batches, ok, problem)
    return seconds


def evaluate_stage(desk: Desk, argv: list, out: Path, ledger: Ledger) -> float:
    code, seconds, log = run_cli(["evaluate", "--config", desk.cfg_path, "--output-dir", out, *argv])
    sizes = desk.split_sizes()
    ok = code == 0
    problem = f"evaluate {argv} exited {code}: {log.strip()[-200:]}"
    if ok:
        model = argv[argv.index("--model") + 1]
        report = read_report(out / f"eval_{model}_test" / "report.txt")
        auc_pr = float(report["auc_pr"])
        ok = int(report["n"]) == sizes["test"] and 0.0 < auc_pr <= 1.0
        problem = f"evaluate {argv}: report n={report['n']} auc_pr={auc_pr}"
    ledger.record(sizes["val"] + sizes["test"], ok, problem)
    return seconds


def score_stage(desk: Desk, rows, score_graph, ledger: Ledger):
    """Score transactions one at a time: raw row -> scaled -> graph -> model."""
    cfg = desk.cfg
    latencies, scores = [], []
    for row in rows:
        t0 = time.perf_counter()
        try:
            g = tda.transaction_graph(desk.scaler.transform(row), cfg.cover, cfg.dbscan, cfg.projection)
            p = float(score_graph(g))
        except Exception as exc:  # one failed transaction must not end the run
            ledger.record(1, False, f"scoring raised {type(exc).__name__}: {exc}")
            scores.append(float("nan"))
            continue
        latencies.append((time.perf_counter() - t0) * 1e3)
        scores.append(p)
        ledger.record(1, valid_score(p), f"score {p!r} is not a finite probability")
    return latencies, scores


def sage_scorer(checkpoint: Path):
    arrays, meta = persist.load_arrays(checkpoint)
    dropout = float(meta["dropout"])

    def layer(prefix):
        return sage.SageLayerParams(
            arrays[f"{prefix}_w_self"], arrays[f"{prefix}_w_neigh"], arrays[f"{prefix}_b"], dropout
        )

    params = sage.SageModelParams(layer("l1"), layer("l2"), arrays["head_w"], float(arrays["head_b"]))
    return lambda g: sage.sage_forward(g, params), lambda gs: sage.sage_predict(gs, params)


def qgnn_scorer(checkpoint: Path):
    arrays, meta = persist.load_arrays(checkpoint)
    params = qgnn.QgnnParams.from_dict(arrays)
    spec = qsim.CircuitSpec.chain(int(meta["qubits"]), int(meta["layers"]))
    act = meta["encode_activation"]
    return lambda g: qgnn.forward(g, params, spec, act), lambda gs: qgnn.predict(gs, params, spec, act)


def check_evaluation(desk: Desk, graphs_dir: Path, eval_dir: Path, predict, txn_scores, ledger: Ledger):
    """Recompute test scores and metrics; compare with the report and the
    per-transaction scores of the same rows."""
    test = tda.read_graph_corpus(graphs_dir / cli.CORPUS_FILES["test"])
    scores = np.asarray(predict(test), dtype=float)
    if not all(valid_score(float(p)) for p in scores):
        ledger.fail(f"{eval_dir.name}: test scores outside [0, 1] or not finite")
        return
    report = read_report(eval_dir / "report.txt")
    threshold = float(report["threshold"])
    recomputed = metrics.evaluate(metrics.ScoredSet(scores, [g.label for g in test]), threshold)
    if abs(recomputed.auc_pr - float(report["auc_pr"])) > 1e-12:
        ledger.fail(f"{eval_dir.name}: report auc_pr {report['auc_pr']} != {recomputed.auc_pr!r}")
    if txn_scores is not None:
        mine = np.array([txn_scores[i] for i in desk.idx[2]])
        if not np.allclose(mine, scores, rtol=0.0, atol=1e-12):
            ledger.fail(f"{eval_dir.name}: per-transaction scores differ from the test corpus scores")


def check_oracle(checkpoint: Path, graphs_dir: Path, seed: int, ledger: Ledger) -> None:
    """A seeded sample of node readouts against the dense-matrix oracle."""
    arrays, meta = persist.load_arrays(checkpoint)
    params = qgnn.QgnnParams.from_dict(arrays)
    spec = qsim.CircuitSpec.chain(int(meta["qubits"]), int(meta["layers"]))
    nodes = np.vstack([g.nodes for g in tda.read_graph_corpus(graphs_dir / cli.CORPUS_FILES["test"])])
    pick = rng.make_rng(seed).choice(len(nodes), size=min(ORACLE_NODES, len(nodes)), replace=False)
    enc = nodes[pick] @ params.w_c.T + params.b_c
    got = qsim.run_vqc_batch(enc, spec, params.w_vqc)
    want = np.array([oracles.dense_run_vqc(x, spec, params.w_vqc) for x in enc])
    err = float(np.max(np.abs(got - want)))
    if not err <= ORACLE_TOL:
        ledger.fail(f"q{spec.q}/l{spec.layers} readouts differ from the dense oracle by {err:.3g}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, then passes of a closed loop with one client."""

    REPORT = None  # evaluate report whose auc_pr the run prints, under run_dir

    def __init__(self, run_dir: Path, cfg_path: Path, seed: int, size: Size) -> None:
        self.run_dir = run_dir
        self.cfg_path = cfg_path
        self.seed = seed
        self.size = size
        self.ledger = Ledger()
        self.first_scores = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self) -> None:
        """Checks too slow for every pass; run once, outside the timing."""

    def record_scores(self, scores) -> None:
        if self.first_scores is None:
            self.first_scores = scores
        elif not np.array_equal(np.asarray(scores), np.asarray(self.first_scores)):
            self.ledger.fail("per-transaction scores changed between passes")


class DeskCorpusWorkload(Workload):
    """Set-up shared by the two workloads that use the desk corpus."""

    def setup(self) -> None:
        self.desk = load_desk(self.cfg_path)
        out = self.run_dir / "setup"
        code, _, log = run_cli(["build-graphs", "--config", self.cfg_path, "--output-dir", out])
        if code != 0:
            raise RuntimeError(f"set-up build-graphs exited {code}: {log.strip()[-300:]}")
        self.graphs_dir = out / "graphs"
        self.corpus_sha = corpus_sha256(self.graphs_dir)
        record = WORK_DIR / "corpus_sha256" / Path(self.desk.cfg.dataset).stem
        if record.exists():
            if record.read_text() != self.corpus_sha:
                self.ledger.fail(f"corpus sha256 {self.corpus_sha} differs from an earlier run ({record})")
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(self.corpus_sha)


class DeskSage(DeskCorpusWorkload):
    REPORT = "pass/eval_sage_test/report.txt"

    def run_pass(self) -> PassResult:
        out = self.run_dir / "pass"
        t0 = time.perf_counter()
        build = build_stage(self.desk, out, self.corpus_sha, self.ledger)
        train = train_stage(self.desk, ["--model", "sage"], out, self.ledger)
        evaluate = evaluate_stage(self.desk, ["--model", "sage"], out, self.ledger)
        t1 = time.perf_counter()
        score_graph, self.predict = sage_scorer(out / "train_sage" / "checkpoint.txt")
        lat, scores = score_stage(self.desk, self.desk.rows, score_graph, self.ledger)
        t2 = time.perf_counter()
        self.record_scores(scores)
        sizes = self.desk.split_sizes()
        return PassResult(
            wall_s=t2 - t0,
            stage_s={"build": build, "train": train, "evaluate": evaluate, "score": t2 - t1},
            work={"build": len(self.desk.rows), "train": sizes["train"], "score": len(scores)},
            latencies_ms=lat,
            scores=scores,
        )

    def check(self) -> None:
        out = self.run_dir / "pass"
        check_evaluation(self.desk, out / "graphs", out / "eval_sage_test", self.predict,
                         self.first_scores, self.ledger)


class QgnnQ6(DeskCorpusWorkload):
    LAYERS = (1, 2)
    REPORT = "q6_l1/eval_qgnn_test/report.txt"

    def run_pass(self) -> PassResult:
        """Train and evaluate q6/l1 and q6/l2; score with the l1 model.

        All 984 transactions are scored after each of the four CLI stages, so
        the latency samples span the pass rather than one short window of it.
        """
        stage_s = {"train": 0.0, "evaluate": 0.0, "score": 0.0}
        lat, scores = [], []

        def score_all():
            t = time.perf_counter()
            round_lat, round_scores = score_stage(self.desk, self.desk.rows, score_graph, self.ledger)
            stage_s["score"] += time.perf_counter() - t
            lat.extend(round_lat)
            if scores and round_scores != scores:
                self.ledger.fail("per-transaction scores changed within a pass")
            scores[:] = round_scores

        t0 = time.perf_counter()
        for layers in self.LAYERS:
            argv = ["--model", "qgnn", "--qubits", "6", "--layers", str(layers), "--graphs", self.graphs_dir]
            out = self.run_dir / f"q6_l{layers}"
            stage_s["train"] += train_stage(self.desk, argv, out, self.ledger)
            if layers == 1:
                t = time.perf_counter()
                score_graph, self.predict = qgnn_scorer(out / "train_qgnn" / "checkpoint.txt")
                stage_s["score"] += time.perf_counter() - t
            score_all()
            stage_s["evaluate"] += evaluate_stage(self.desk, argv, out, self.ledger)
            score_all()
        wall = time.perf_counter() - t0
        self.record_scores(scores)
        return PassResult(
            wall_s=wall,
            stage_s=stage_s,
            work={"train": self.desk.split_sizes()["train"] * len(self.LAYERS), "score": len(lat)},
            latencies_ms=lat,
            scores=scores,
        )

    def check(self) -> None:
        for layers in self.LAYERS:
            out = self.run_dir / f"q6_l{layers}"
            check_oracle(out / "train_qgnn" / "checkpoint.txt", self.graphs_dir, self.seed, self.ledger)
        l1 = self.run_dir / "q6_l1"
        check_evaluation(self.desk, self.graphs_dir, l1 / "eval_qgnn_test", self.predict,
                         self.first_scores, self.ledger)


class ScoreQ16(Workload):
    def setup(self) -> None:
        self.desk = load_desk(self.cfg_path)
        self.sample = self.pick_sample()
        q, layers = Q16_SPEC
        self.spec = qsim.CircuitSpec.chain(q, layers)
        self.params = qgnn.init_params(self.spec, rng.make_rng(self.desk.cfg.seed))

    def pick_sample(self) -> list:
        """Test-split rows at evenly spaced ranks of graph size.

        Forward cost grows with node count, so the sample follows the test
        split's node-count quantiles; the seed picks among rows of equal size.
        """
        cfg = self.desk.cfg
        test = [self.desk.rows[i] for i in self.desk.idx[2]]
        sizes = [
            tda.transaction_graph(self.desk.scaler.transform(t), cfg.cover, cfg.dbscan, cfg.projection).n_nodes
            for t in test
        ]
        tiebreak = rng.make_rng(self.seed).permutation(len(test))
        ranked = sorted(range(len(test)), key=lambda i: (sizes[i], tiebreak[i]))
        k = self.size.q16_sample
        return [test[ranked[(2 * j + 1) * len(test) // (2 * k)]] for j in range(k)]

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        lat, scores = score_stage(
            self.desk, self.sample, lambda g: qgnn.forward(g, self.params, self.spec), self.ledger
        )
        t1 = time.perf_counter()
        self.record_scores(scores)
        return PassResult(t1 - t0, {"score": t1 - t0}, {"score": len(scores)}, lat, scores)


WORKLOAD_CLASSES = {"desk_sage": DeskSage, "qgnn_q6": QgnnQ6, "score_q16": ScoreQ16}


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(percentile, value) of the highest percentile with enough samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p, float(np.percentile(values, p))
    return None


def describe(values) -> str:
    text = f"median {statistics.median(values):.6g}"
    t = tail(values)
    if t is not None:
        text += f", p{t[0]:g} {t[1]:.6g}"
    return text + f" (n={len(values)})"


def end_to_end(setups, passes, peak_rss_mb) -> tuple[dict, list]:
    """Gated metrics and the readable lines that describe them."""
    lat = [x for p in passes for x in p.latencies_ms]
    walls = [p.wall_s for p in passes]
    score_rates = [p.work["score"] / p.stage_s["score"] for p in passes]
    values = {
        "setup_s": (statistics.median(setups), "s", describe(setups)),
        "run_s": (statistics.median(walls), "s", describe(walls)),
        "score_graphs_per_s": (statistics.median(score_rates), "1/s", describe(score_rates)),
        "txn_latency_p50_ms": (statistics.median(lat), "ms", describe(lat)),
        "peak_rss_mb": (peak_rss_mb, "MiB", "this process"),
    }
    lines = [f"{name}: {v:.6g} {unit}  [{how}]" for name, (v, unit, how) in values.items()]
    return {name: {"value": v, "unit": unit} for name, (v, unit, _) in values.items()}, lines


def stage_details(passes, auc_pr) -> list:
    """Stage throughputs and quality that only some workloads have; not gated."""
    lines = []
    for stage, label in (("build", "build_graphs_per_s"), ("train", "train_graphs_per_s")):
        rates = [p.work[stage] / p.stage_s[stage] for p in passes if stage in p.work]
        if rates:
            lines.append(f"{label}: {statistics.median(rates):.6g} 1/s  [{describe(rates)}]")
    lat = [x for p in passes for x in p.latencies_ms]
    if len(lat) * 0.05 >= TAIL_MIN_BEYOND:
        lines.append(f"txn_latency_p95_ms: {float(np.percentile(lat, 95.0)):.6g} ms  [n={len(lat)}]")
    if auc_pr is not None:
        lines.append(f"auc_pr: {auc_pr:.6g} ratio  [test split]")
    return lines


def layer_metrics(spans, run_ids, overhead_s: float) -> dict:
    t = totals(spans, run_ids)
    s, own, calls, n, peak = t.seconds, t.self_seconds, t.calls, t.counts, t.peaks
    grad, fwd = "qsim.param_shift_grad_batch", "qsim.run_vqc_batch"
    values = {
        "qsim.grad_s": (s[grad], "s"),
        "qsim.grad_calls": (calls[grad], "count"),
        "qsim.grad_rows": (n[grad]["rows"], "count"),
        "qsim.forward_s": (s[fwd], "s"),
        "qsim.forward_calls": (calls[fwd], "count"),
        "qsim.forward_rows": (n[fwd]["rows"], "count"),
        "qsim.state_bytes": (max(peak[fwd]["state_bytes"], peak[grad]["state_bytes"]), "B_computed"),
        "tda.graph_s": (s["tda.transaction_graph"], "s"),
        "tda.graphs": (n["tda.transaction_graph"]["graphs"], "count"),
        "tda.nodes": (n["tda.transaction_graph"]["nodes"], "count"),
        "tda.edges": (n["tda.transaction_graph"]["edges"], "count"),
        "dataset.load_s": (s["dataset.load_transactions"], "s"),
        "dataset.split_s": (s["dataset.undersample"] + s["dataset.split_indices"], "s"),
        "dataset.rows": (n["dataset.load_transactions"]["rows"], "count"),
        "tda.corpus_write_s": (s["tda.write_graph_corpus"], "s"),
        "tda.corpus_read_s": (s["tda.read_graph_corpus"], "s"),
        "tda.corpus_bytes": (n["tda.write_graph_corpus"]["bytes"], "B"),
        "persist.save_s": (s["persist.save_arrays"], "s"),
        "persist.load_s": (s["persist.load_arrays"], "s"),
        "sage.backward_s": (s["sage.sage_backward"], "s"),
        "sage.forward_s": (s["sage.sage_forward"], "s"),
        "sage.graphs": (calls["sage.sage_backward"] + calls["sage.sage_forward"], "count"),
        "qgnn.backward_s": (s["qgnn.backward_batch"], "s"),
        "qgnn.backward_self_s": (own["qgnn.backward_batch"], "s"),
        "qgnn.forward_s": (s["qgnn.forward"], "s"),
        "qgnn.forward_self_s": (own["qgnn.forward"], "s"),
        "qgnn.batches": (calls["qgnn.backward_batch"], "count"),
        "optim.adam_s": (s["optim.adam_step"], "s"),
        "optim.steps": (calls["optim.adam_step"], "count"),
        "metrics.threshold_s": (s["metrics.optimal_threshold"], "s"),
        "metrics.evaluate_s": (s["metrics.evaluate"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def median_metrics(per_pass: list) -> dict:
    """Median of each time over passes; counts are taken from the first pass
    (the caller checks that every pass has the same counts)."""
    out = {}
    for name, first in per_pass[0].items():
        value = statistics.median(m[name]["value"] for m in per_pass) if first["unit"] == "s" else first["value"]
        out[name] = {"value": value, "unit": first["unit"]}
    return out


# ---------------------------------------------------------------------------
# context


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 as the kernel lists them (read-only)."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip().lower()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "instruction":
            out[f"l{level}" + ("d" if kind == "data" else "")] = size
    return out


def run_context(args, cfg) -> dict:
    cfg_dict = cfg.to_dict()
    cfg_dict.pop("dataset")
    cfg_dict.pop("output_dir")
    cfg_hash = hashlib.sha256(json.dumps(cfg_dict, sort_keys=True).encode()).hexdigest()
    return {
        "git_sha": git_sha(Path.cwd()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_hash": cfg_hash,
    }


# ---------------------------------------------------------------------------


def ensure_csv(size_name: str, size: Size, seed: int) -> Path:
    """The seeded synthetic CSV, generated once per seed and size."""
    path = WORK_DIR / "csv" / f"{size_name}-seed{seed}.csv"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        write_synthetic_csv(tmp, n_clean=size.n_clean, n_fraud=size.n_fraud, seed=seed)
        os.replace(tmp, path)
    return path.resolve()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES), required=True)
    p.add_argument("--seed", type=int, default=11, help="seed of the synthetic CSV (default 11)")
    p.add_argument("--seconds", type=float, default=10.0, help="time budget of the measured passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer numbers")
    p.add_argument("--size", choices=sorted(SIZES), default="desk", help="smoke: a tiny CSV for tests")
    return p.parse_args(argv)


def run_passes(workload: Workload, seconds: float, tracer: Tracer | None):
    """Passes until the budget is used; with a tracer, untraced and traced alternate."""
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        if trace_this:
            with tracer.installed(f"pass{len(traced) + 1}"):
                traced.append(workload.run_pass())
        else:
            untraced.append(workload.run_pass())
        if len(untraced) == 1 and not traced:
            workload.check()
        last = (traced or untraced)[-1].wall_s
        enough = tracer is None or len(traced) >= 1
        if enough and time.perf_counter() - t_start + last > seconds:
            return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    size = SIZES[args.size]
    csv_path = ensure_csv(args.size, size, args.seed)

    run_dir = WORK_DIR / f"{args.workload}-{args.size}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = (run_dir / "config.json").resolve()
    cfg_path.write_text(json.dumps({"dataset": str(csv_path), "training": {"epochs": 1}}))
    workload = WORKLOAD_CLASSES[args.workload](run_dir.resolve(), cfg_path, args.seed, size)

    tracer = Tracer() if args.trace else None
    setups = []
    while not setups or not tracer and (len(setups) < SETUP_MIN_REPEATS or sum(setups) < size.setup_s):
        t0 = time.perf_counter()
        if tracer:
            with tracer.installed("setup"):
                workload.setup()
        else:
            workload.setup()
        setups.append(time.perf_counter() - t0)

    untraced, traced = run_passes(workload, args.seconds, tracer)
    ledger = workload.ledger
    context = run_context(args, workload.desk.cfg)
    print("context: " + json.dumps(context, sort_keys=True))

    if tracer:
        overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
        per_pass = [layer_metrics(tracer.spans, {"setup", f"pass{k + 1}"}, overhead) for k in range(len(traced))]
        counts = [{k: v["value"] for k, v in m.items() if v["unit"] != "s"} for m in per_pass]
        if any(c != counts[0] for c in counts):
            ledger.fail("per-layer counts differ between traced passes")
        result_metrics = median_metrics(per_pass)
        trace_path = WORK_DIR / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        lines = [f"{k}: {v['value']:.6g} {v['unit']}" for k, v in result_metrics.items()]
        lines.append(f"spans written to {trace_path}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result_metrics, lines = end_to_end(setups, untraced, peak_rss_mb)
        auc_pr = float(read_report(run_dir / workload.REPORT)["auc_pr"]) if workload.REPORT else None
        lines += stage_details(untraced, auc_pr)

    for line in lines:
        print(line)
    for problem in ledger.problems:
        print(f"FAILED CHECK: {problem}")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result_metrics,
    }
    results_path = WORK_DIR / "results" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    passes = [{"traced": k >= len(untraced), "wall_s": p.wall_s, "stage_s": p.stage_s}
              for k, p in enumerate(untraced + traced)]
    record = {"context": context, "lines": lines, "setup_s": setups, "passes": passes, **result}
    results_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
