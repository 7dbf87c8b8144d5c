"""Command-line pipeline: build-graphs, train, evaluate, grid, plot.

Every run writes its artifacts into a staged directory that is renamed into
place only on success, plus a manifest.json: the resolved config, so the run
can be reproduced exactly, or for evaluate the checkpoint and corpus it scored.
evaluate and every grid point score a checkpoint through ``_load_model``, which
builds the model from its meta lines and arrays: no config key changes a score.
Exit codes: 0 success, 1 validation error (a missing or malformed config,
dataset, corpus, corpus manifest or checkpoint, a checkpoint of the other
model or another corpus, corpus files that do not match their manifest),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dataset, metrics, qgnn, qsim, sage, tda
from .config import ENTANGLERS, ConfigError, RunConfig, load_config
from .persist import PersistError, load_arrays, save_arrays, sha256_files, staged_output, write_manifest
from .rng import make_rng
from .svg import line_chart
from .training import write_history

OUTPUT_ROOT_ENV = "QGFRAUD_OUTPUT_ROOT"
GRID_CONFIGS = ((6, 1), (16, 1), (6, 2), (16, 2))
CORPUS_FILES = {name: f"graphs_{name}.jsonl" for name in ("train", "val", "test")}


def _output_root(cfg: RunConfig) -> Path:
    base = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    out = Path(cfg.output_dir)
    return out if out.is_absolute() else base / out


def _graphs_dir(cfg: RunConfig, args) -> Path:
    return Path(args.graphs) if getattr(args, "graphs", None) else _output_root(cfg) / "graphs"


def _read_corpus(graphs_dir: Path, splits=tuple(CORPUS_FILES)):
    """(the graphs of each split in ``splits``, the manifest's corpus_config_hash).

    All three files and the manifest must exist. The splits are parsed before
    the three files are checked against the manifest's ``corpus_hash``, so a
    malformed line is reported by its number.
    """
    paths = {name: graphs_dir / fname for name, fname in CORPUS_FILES.items()}
    for path in paths.values():
        if not path.exists():
            raise ConfigError(f"graph corpus not found: {path} (run build-graphs first)")
    corpus = {name: tda.read_graph_corpus(paths[name]) for name in dict.fromkeys(splits)}
    manifest = graphs_dir / "manifest.json"
    if not manifest.exists():
        raise ConfigError(f"corpus manifest not found: {manifest}")
    try:
        recorded = json.loads(manifest.read_text())
        config_hash, corpus_hash = recorded["corpus_config_hash"], recorded["corpus_hash"]
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, or a key missing
        raise ConfigError(f"{manifest}: not a manifest with corpus_config_hash and corpus_hash ({exc!r})") from None
    if sha256_files(paths.values()) != corpus_hash:
        raise ConfigError(f"{graphs_dir}: the corpus files do not match the corpus_hash in {manifest}")
    return corpus, config_hash


def _circuit_spec(qubits: int, layers: int, entangler: str) -> qsim.CircuitSpec:
    factory = qsim.CircuitSpec.ring if entangler == "ring" else qsim.CircuitSpec.chain
    return factory(qubits, layers)


# ---------------------------------------------------------------------------
# build-graphs

def cmd_build_graphs(args) -> int:
    cfg = load_config(args.config, args.overrides)
    t0 = time.perf_counter()
    stage_seconds = {}
    ts = dataset.load_transactions(cfg.dataset)
    n_clean, n_fraud = ts.class_counts()
    print(f"loaded {len(ts)} transactions ({n_fraud} fraud, {n_clean} non-fraud)")
    stage_seconds["load"] = time.perf_counter() - t0

    started = time.perf_counter()
    balanced = dataset.undersample(ts, cfg.seed)
    idx_train, idx_val, idx_test = dataset.split_indices(balanced.labels(), cfg.split, cfg.seed)
    if not len(idx_test):
        # train takes the remainder; an empty val split makes scoring use 0.5
        raise dataset.DatasetError(
            f"the test split is empty: {len(balanced)} undersampled rows at test_frac "
            f"{cfg.split.test_frac} give no test row"
        )
    stage_seconds["undersample_split"] = time.perf_counter() - started

    started = time.perf_counter()
    rows = balanced.rows
    graphs = {
        name: [tda.transaction_graph(rows[i], cfg.cover, cfg.dbscan, cfg.projection) for i in idx]
        for name, idx in (("train", idx_train), ("val", idx_val), ("test", idx_test))
    }
    stage_seconds["graphs"] = time.perf_counter() - started

    counts = {}
    for name, part_graphs in graphs.items():
        nodes = [g.n_nodes for g in part_graphs]
        edges = [len(g.edges) for g in part_graphs]
        counts[name] = {
            "graphs": len(part_graphs),
            "fraud": sum(g.label for g in part_graphs),
            "max_nodes": max(nodes, default=0),
            "mean_nodes": sum(nodes) / len(part_graphs) if part_graphs else 0.0,
            "mean_edges": sum(edges) / len(part_graphs) if part_graphs else 0.0,
            "total_nodes": sum(nodes),
        }
    out_dir = _output_root(cfg) / "graphs"
    with staged_output(out_dir) as tmp:
        started = time.perf_counter()
        for name, part_graphs in graphs.items():
            tda.write_graph_corpus(tmp / CORPUS_FILES[name], part_graphs)
        dataset.write_split_manifest(
            tmp / "split_manifest.txt", cfg.seed, cfg.split, idx_train, idx_val, idx_test
        )
        corpus_hash = sha256_files([tmp / f for f in CORPUS_FILES.values()])
        stage_seconds["write"] = time.perf_counter() - started
        write_manifest(
            tmp,
            {
                "command": "build-graphs",
                "config": cfg.to_dict(),
                "corpus_config_hash": cfg.corpus_config_hash(),
                "corpus_hash": corpus_hash,
                "counts": counts,
                "stage_seconds": stage_seconds,
                "wall_clock_s": time.perf_counter() - t0,
                "artifacts": sorted(p.name for p in tmp.iterdir()),
            },
        )
    for name, c in counts.items():
        print(f"{name}: {c['graphs']} graphs ({c['fraud']} fraud, max {c['max_nodes']} nodes)")
    print(f"corpus written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train

def _train(cfg: RunConfig, corpus: dict, corpus_hash: str, out_dir: Path, model: str, qubits=None, layers=None):
    """Train one model and write its checkpoint, history and manifest."""
    t0 = time.perf_counter()
    extra = {}
    if model == "qgnn":
        meta = {
            "qubits": cfg.qgnn.qubits if qubits is None else qubits,
            "layers": cfg.qgnn.layers if layers is None else layers,
            "entangler": cfg.qgnn.entangler,
            "encode_activation": cfg.qgnn.encode_activation,
        }
        spec = _circuit_spec(meta["qubits"], meta["layers"], meta["entangler"])
        params, history = qgnn.train(corpus["train"], corpus["val"], spec, cfg.training, meta["encode_activation"])
        extra["circuit"] = {**meta, "path": qsim.circuit_path(spec)}
    else:
        params, history = sage.sage_train(corpus["train"], corpus["val"], cfg.training, widths=cfg.sage.widths,
                                          fan_outs=cfg.sage.fan_outs, dropout=cfg.sage.dropout)
        meta = {
            "widths": ",".join(str(w) for w in cfg.sage.widths),
            "fan_outs": ",".join("all" if f is None else str(f) for f in cfg.sage.fan_outs),
            "dropout": cfg.sage.dropout,
        }
    elapsed = time.perf_counter() - t0
    meta.update(kind=model, corpus_config_hash=corpus_hash, seed=cfg.seed)
    with staged_output(out_dir) as tmp:
        save_arrays(tmp / "checkpoint.txt", params.to_dict(), meta)
        write_history(tmp / "history.csv", history)
        write_manifest(
            tmp,
            {
                "command": "train",
                "model": model,
                "config": cfg.to_dict(),
                **extra,
                "corpus_config_hash": corpus_hash,
                "parameter_count": params.n_parameters,
                "epochs_run": len(history),
                "final_train_loss": history.epochs[-1].train_loss if len(history) else None,
                "final_val_loss": history.epochs[-1].val_loss if len(history) else None,
                "epoch_seconds": [e.seconds for e in history.epochs],
                "grad_norms": [{"mean": e.grad_norm_mean, "max": e.grad_norm_max} for e in history.epochs],
                "wall_clock_s": elapsed,
                "artifacts": sorted(p.name for p in tmp.iterdir()),
            },
        )
    return params, history


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.overrides)
    graphs_dir = _graphs_dir(cfg, args)
    corpus, corpus_hash = _read_corpus(graphs_dir, ("train", "val"))
    out_dir = _output_root(cfg) / f"train_{args.model}"
    params, history = _train(cfg, corpus, corpus_hash, out_dir, args.model)
    if len(history):
        last = history.epochs[-1]
        print(f"{args.model}: {len(history)} epochs, train loss {last.train_loss:.4f}, "
              f"val loss {last.val_loss:.4f}")
    print(f"{params.n_parameters} trainable parameters; checkpoint in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# evaluate

def _load_model(checkpoint: Path, model: str):
    """(score, meta): ``score(graphs)`` gives each graph's fraud probability
    under the model in ``checkpoint``, built from its arrays and meta lines
    alone, and ``meta`` is those lines.

    A checkpoint of another kind is a ConfigError. A missing or malformed
    meta value, or an array missing or of a shape the model does not have,
    is a PersistError. Each names the file.
    """
    arrays, meta = load_arrays(checkpoint)
    if meta.get("kind") != model:
        found = f"a {meta['kind']} checkpoint" if "kind" in meta else "a checkpoint with no 'meta kind' line"
        raise ConfigError(f"{checkpoint}: --model {model} was given {found}")

    def read(key, parse=str, options=None):
        if key not in meta:
            raise ValueError(f"no 'meta {key}' line")
        try:
            value = parse(meta[key])
        except ValueError as exc:
            raise ValueError(f"meta {key}: {exc}") from None
        if options is not None and value not in options:
            raise ValueError(f"meta {key}: {value!r} is not one of {options}")
        return value

    try:  # the model's own initialisation gives every array's name and shape
        if model == "qgnn":
            qubits, layers = read("qubits", int), read("layers", int)
            if not 1 <= qubits <= qsim.MAX_QUBITS:
                raise ValueError(f"meta qubits: must be in [1, {qsim.MAX_QUBITS}], got {qubits}")
            if layers < 1:  # train never writes one: the config takes at least one layer
                raise ValueError(f"meta layers: must be >= 1, got {layers}")
            spec = _circuit_spec(qubits, layers, read("entangler", options=ENTANGLERS))
            activation = read("encode_activation", options=qgnn.ENCODE_ACTIVATIONS)
            template = qgnn.init_params(spec, make_rng(0))
        else:
            widths = read("widths", lambda v: sage.check_widths(tuple(int(w) for w in v.split(","))))
            template = sage.init_sage_params(make_rng(0), widths=widths, dropout=read("dropout", float))
        for name, value in template.to_dict().items():
            if name not in arrays:
                raise ValueError(f"no '{name}' array")
            if arrays[name].shape != np.shape(value):
                raise ValueError(f"array {name}: shape {arrays[name].shape}, the model's is {np.shape(value)}")
        params = template.replace_arrays(arrays)
    except ValueError as exc:  # also a meta value the model rejects
        raise PersistError(f"{checkpoint}: {exc}") from None
    if model == "qgnn":
        return (lambda graphs: qgnn.predict(graphs, params, spec, activation)), meta
    return (lambda graphs: sage.sage_predict(graphs, params)), meta


def _score_at_val_threshold(score, corpus: dict, split: str):
    """Metrics of ``score`` on ``split`` at the validation split's best-F1
    threshold, or at 0.5 when validation lacks a class and so cannot rank
    thresholds, and where that threshold came from."""
    val, scored = (metrics.ScoredSet(score(corpus[name]), [g.label for g in corpus[name]]) for name in ("val", split))
    if set(val.labels.tolist()) == {0, 1}:
        return metrics.evaluate(scored, metrics.optimal_threshold(val)), "validation best F1"
    return metrics.evaluate(scored, 0.5), "0.5 fallback, validation lacks a class"


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, args.overrides)
    model, split = args.model, args.split
    checkpoint = Path(args.checkpoint or _output_root(cfg) / f"train_{model}" / "checkpoint.txt")
    out_dir = _output_root(cfg) / f"eval_{model}_{split}"
    score, meta = _load_model(checkpoint, model)
    graphs_dir = _graphs_dir(cfg, args)
    corpus, corpus_hash = _read_corpus(graphs_dir, ("val", split))
    if meta.get("corpus_config_hash") != corpus_hash:
        raise ConfigError("checkpoint was trained on a different corpus "
                          f"(checkpoint hash {meta.get('corpus_config_hash')!r}, corpus hash {corpus_hash!r})")
    report, threshold_source = _score_at_val_threshold(score, corpus, split)

    with staged_output(out_dir) as tmp:
        metrics.write_report(report, tmp / "report.txt")
        metrics.write_curve_csv(tmp / "roc.csv", report.roc_points, "fpr", "tpr")
        metrics.write_curve_csv(tmp / "pr.csv", report.pr_points, "recall", "precision")
        write_manifest(
            tmp,
            {
                "command": "evaluate",
                "model": model,
                # what was scored: the checkpoint's model on the corpus split, and nothing from the config
                "checkpoint": str(checkpoint),
                "checkpoint_meta": meta,
                "graphs": str(graphs_dir),
                "corpus_config_hash": corpus_hash,
                "split": split,
                "threshold": report.threshold,
                "threshold_source": threshold_source,
                "metrics": {
                    "accuracy_pct": report.accuracy,
                    "precision_pct": report.precision,
                    "recall_pct": report.recall,
                    "f1": report.f1,
                    "auc_roc": report.auc_roc,
                    "auc_pr": report.auc_pr,
                },
                "wall_clock_s": time.perf_counter() - t0,
                "artifacts": sorted(p.name for p in tmp.iterdir()),
            },
        )
    print(f"{model} on {split}: accuracy {report.accuracy:.1f}%, precision {report.precision:.1f}%, "
          f"recall {report.recall:.1f}%, f1 {report.f1:.3f}, auc_roc {report.auc_roc:.3f}, "
          f"auc_pr {report.auc_pr:.3f}, threshold {report.threshold:.4g} ({threshold_source})")
    print(f"report written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# grid

def cmd_grid(args) -> int:
    cfg = load_config(args.config, args.overrides)
    graphs_dir = _graphs_dir(cfg, args)
    corpus, corpus_hash = _read_corpus(graphs_dir)
    out_dir = _output_root(cfg) / "grid"
    t0 = time.perf_counter()
    rows, sources, points = [], [], []
    with staged_output(out_dir) as tmp:
        for qubits, layers in GRID_CONFIGS:
            name = f"q{qubits}_l{layers}"
            print(f"grid {name}: training...")
            started = time.perf_counter()
            sub = tmp / name
            _, history = _train(cfg, corpus, corpus_hash, sub / "train", "qgnn", qubits=qubits, layers=layers)
            score, _ = _load_model(sub / "train" / "checkpoint.txt", "qgnn")
            report, threshold_source = _score_at_val_threshold(score, corpus, "test")
            metrics.write_report(report, sub / "report.txt")
            sources.append(threshold_source)
            rows.append((qubits, layers, report.accuracy, report.precision, report.recall, report.f1, report.auc_pr))
            points.append({
                "name": name,
                "path": qsim.circuit_path(_circuit_spec(qubits, layers, cfg.qgnn.entangler)),
                "seconds": time.perf_counter() - started,
                "epoch_seconds": [e.seconds for e in history.epochs],
            })
        with open(tmp / "summary.csv", "w") as fh:
            fh.write("qubits,layers,accuracy_pct,precision_pct,recall_pct,f1,auc_pr\n")
            for row in rows:
                fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")
        with open(tmp / "summary.txt", "w") as fh:
            fh.write("qubits layers accuracy% precision% recall% f1 auc_pr\n")
            for q, l, acc, prec, rec, f1, auc_pr in rows:
                fh.write(f"{q:>6} {l:>6} {acc:9.2f} {prec:10.2f} {rec:7.2f} {f1:.3f} {auc_pr:.3f}\n")
            fh.write(
                "\ncircuit paths: " + ", ".join(f"{p['name']} {p['path']}" for p in points) + ". Each is "
                "exact: the closed form costs O(q^2) per node, the statevector 2^q amplitudes per node, "
                "and the matrix product state (mps) O(q^2 chi^4) per node at bond chi.\n"
            )
            fh.write(
                "reference targets (published results for this architecture): "
                "6 qubits / 1 layer: accuracy 94.5, precision 96.1, recall 79.5, f1 0.86; "
                "the compact 6-qubit encoding is reported to beat the 16-qubit one.\n"
            )
        write_manifest(
            tmp,
            {
                "command": "grid",
                "config": cfg.to_dict(),
                # each row: the summary.csv columns, then the threshold's source
                "rows": [[*r, source] for r, source in zip(rows, sources)],
                # per grid point: its circuit path, and the seconds to train and score it
                "points": points,
                "wall_clock_s": time.perf_counter() - t0,
                "artifacts": sorted(p.name for p in tmp.iterdir()),
            },
        )
    print((out_dir / "summary.txt").read_text())
    return 0


# ---------------------------------------------------------------------------
# plot

def _read_numeric_csv(path) -> list:
    """The rows of a CSV that train or evaluate wrote; anything else is a ConfigError."""
    if not Path(path).is_file():
        raise ConfigError(f"plot input not found: {path}")
    with open(path) as fh:
        width = len(fh.readline().split(","))
        rows = [line.split(",") for line in fh if line.strip()]
    if not rows or any(len(row) != width for row in rows):
        raise ConfigError(f"{path}: expected a header and data rows of {width} cells")
    try:
        return [tuple(map(float, row)) for row in rows]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_plot(args) -> int:
    charts = {}  # every chart is rendered before any file is written
    if args.history:
        rows = _read_numeric_csv(args.history)
        series = [
            ("train", [(r[0], r[1]) for r in rows]),
            ("validation", [(r[0], r[2]) for r in rows if len(r) > 2 and not np.isnan(r[2])]),
        ]
        series = [(name, pts) for name, pts in series if pts]
        charts["loss.svg"] = line_chart(series, "Training and validation loss", "epoch", "loss")
    if args.roc:
        rows = _read_numeric_csv(args.roc)
        charts["roc.svg"] = line_chart([("ROC", rows)], "ROC curve", "FPR", "TPR")
    if args.pr:
        rows = _read_numeric_csv(args.pr)
        charts["pr.svg"] = line_chart([("PR", rows)], "PR curve", "recall", "precision")
    if not charts:
        raise ConfigError("plot needs at least one of --history/--roc/--pr")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, svg in charts.items():
        (out / name).write_text(svg)
    print(f"wrote {', '.join(charts)} to {out}")
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors: exit 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _Override(argparse.Action):
    """Collects a flag's value into ``args.overrides`` under its ``dest``, a config key."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.overrides = {**namespace.overrides, self.dest: values}


def _add_common(p) -> None:
    p.add_argument(
        "--config", help="JSON config file; defaults apply when omitted, and each flag below "
        "overrides the config key it names"
    )
    p.set_defaults(overrides={})
    override = functools.partial(p.add_argument, action=_Override, default=argparse.SUPPRESS)
    override("--dataset", dest="dataset")
    override("--seed", dest="seed", type=int)
    override("--output-dir", dest="output_dir")
    override("--epochs", dest="training.epochs", type=int)
    override("--batch-size", dest="training.batch_size", type=int)
    override("--learning-rate", dest="training.learning_rate", type=float)
    override("--qubits", dest="model.qgnn.qubits", type=int)
    override("--layers", dest="model.qgnn.layers", type=int)
    override("--entangler", dest="model.qgnn.entangler", choices=ENTANGLERS)
    override("--dropout", dest="model.sage.dropout", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qgfraud", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graphs", help="undersample, split, and build the graph corpus")
    _add_common(p)
    p.set_defaults(func=cmd_build_graphs)

    p = sub.add_parser("train", help="train a model on an existing corpus")
    _add_common(p)
    p.add_argument("--model", choices=("qgnn", "sage"), required=True)
    p.add_argument("--graphs", help="corpus directory (default: <output>/graphs)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint and write report + curves")
    _add_common(p)
    p.add_argument("--model", choices=("qgnn", "sage"), required=True)
    p.add_argument("--checkpoint", help="default: <output>/train_<model>/checkpoint.txt")
    p.add_argument("--graphs", help="corpus directory (default: <output>/graphs)")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid", help="train/evaluate the qubit-layer grid with a shared seed")
    _add_common(p)
    p.add_argument("--graphs", help="corpus directory (default: <output>/graphs)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("plot", help="render SVG charts from emitted CSV data")
    p.add_argument("--history", help="history.csv from train")
    p.add_argument("--roc", help="roc.csv from evaluate")
    p.add_argument("--pr", help="pr.csv from evaluate")
    p.add_argument("--out", default=".", help="output directory for SVG files")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PersistError, dataset.DatasetError, tda.TdaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
