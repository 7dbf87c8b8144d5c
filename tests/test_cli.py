import gzip
import hashlib
import json
import re

import numpy as np
import pytest

from qgfraud import cli, qgnn, qsim, sage, tda
from qgfraud.config import load_config
from qgfraud.persist import load_arrays
from qgfraud.rng import make_rng
from tests import oracles
from tests.synth import write_synthetic_csv


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.csv"
    write_synthetic_csv(path, n_clean=200, n_fraud=24, seed=3)
    return path


def write_cfg(tmp_path, csv_path, out_dir, **extra):
    cfg = {
        "dataset": str(csv_path),
        "seed": 11,
        "output_dir": str(out_dir),
        "model": {"qgnn": {"qubits": 3, "layers": 1}},
        "training": {"epochs": 2, "batch_size": 4, "learning_rate": 0.05},
    }
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(argv):
    return cli.main(argv)


def edited(change):
    """A corpus line edit: ``change`` maps the parsed record to the fields it replaces."""

    def edit(line):
        rec = json.loads(line)
        rec.update(change(rec))
        return json.dumps(rec)

    return edit


def corpus_digests(files) -> tuple[str, str]:
    """sha256 of the corpus files' bytes, and of the graphs they hold in the
    dense encoding the pins before the V-row record were taken over."""
    written = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
    dense = hashlib.sha256(b"".join(oracles.dense_corpus_bytes(tda.read_graph_corpus(p)) for p in files))
    return written, dense.hexdigest()


class TestBuildGraphs:
    def test_writes_corpus_and_manifest(self, tiny_csv, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, tiny_csv, out)
        assert run(["build-graphs", "--config", str(cfg)]) == 0
        graphs = out / "graphs"
        for name in ("graphs_train.jsonl", "graphs_val.jsonl", "graphs_test.jsonl",
                     "split_manifest.txt", "manifest.json"):
            assert (graphs / name).exists()
        manifest = json.loads((graphs / "manifest.json").read_text())
        total = sum(manifest["counts"][p]["graphs"] for p in ("train", "val", "test"))
        assert total == 48  # 2 * fraud count
        assert all(manifest["counts"][p]["max_nodes"] <= 28 for p in manifest["counts"])

    def test_manifest_records_graph_sizes(self, tiny_csv, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, tiny_csv, out)
        assert run(["build-graphs", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "graphs" / "manifest.json").read_text())
        for part, name in (("train", "graphs_train.jsonl"), ("val", "graphs_val.jsonl"),
                           ("test", "graphs_test.jsonl")):
            graphs = [json.loads(line) for line in (out / "graphs" / name).read_text().splitlines()]
            nodes = [g["n_nodes"] for g in graphs]
            c = manifest["counts"][part]
            assert c["total_nodes"] == sum(nodes)
            assert c["mean_nodes"] == pytest.approx(sum(nodes) / len(graphs))
            assert c["mean_edges"] == pytest.approx(sum(len(g["edges"]) for g in graphs) / len(graphs))
            assert c["max_nodes"] == max(nodes)

    def test_manifest_records_stage_seconds(self, tiny_csv, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, tiny_csv, out)
        assert run(["build-graphs", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "graphs" / "manifest.json").read_text())
        stages = manifest["stage_seconds"]
        assert sorted(stages) == ["graphs", "load", "undersample_split", "write"]
        assert all(isinstance(s, float) and s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= manifest["wall_clock_s"]

    def test_overlapping_cover_allows_more_than_28_nodes(self, tiny_csv, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, tiny_csv, out, tda={"overlap": 0.75})
        assert run(["build-graphs", "--config", str(cfg)]) == 0
        corpus = out / "graphs" / "graphs_train.jsonl"
        graphs = tda.read_graph_corpus(corpus)
        big = [g for g in graphs if g.n_nodes > 28]
        assert big
        again = tmp_path / "again.jsonl"
        tda.write_graph_corpus(again, graphs)
        assert again.read_bytes() == corpus.read_bytes()
        spec = qsim.CircuitSpec.chain(3, 1)
        q_params = qgnn.init_params(spec, make_rng(0))
        s_params = sage.init_sage_params(make_rng(0), widths=(8, 8), dropout=0.0)
        for g in big:
            assert 0.0 < qgnn.forward(g, q_params, spec) < 1.0
            assert 0.0 < sage.sage_forward(g, s_params) < 1.0

    def test_rerun_is_byte_identical(self, tiny_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_cfg(tmp_path, tiny_csv, out_a)
        run(["build-graphs", "--config", str(cfg_a)])
        cfg_b = write_cfg(tmp_path, tiny_csv, out_b)
        run(["build-graphs", "--config", str(cfg_b)])
        for name in ("graphs_train.jsonl", "graphs_val.jsonl", "graphs_test.jsonl",
                     "split_manifest.txt"):
            assert (out_a / "graphs" / name).read_bytes() == (out_b / "graphs" / name).read_bytes()

    def test_bad_eps_is_validation_error(self, tiny_csv, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, tiny_csv, out, tda={"projection": [1, 1, 1], "n_intervals": 4,
                                                      "overlap": 0.5, "eps": -1.0, "min_pts": 2})
        assert run(["build-graphs", "--config", str(cfg)]) == 1
        assert not out.exists()

    def test_zero_v_weight_is_validation_error(self, tiny_csv, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, tiny_csv, out, tda={"projection": [1, 0, 1]})
        assert run(["build-graphs", "--config", str(cfg)]) == 1
        assert not (out / "graphs").exists()
        assert "tda.projection" in capsys.readouterr().err

    def test_desk_corpus_is_pinned(self, tmp_path):
        # the default config on the 20 492-row desk CSV; any change to graph
        # construction that moves a byte of the corpus shows here
        csv = tmp_path / "desk.csv"
        write_synthetic_csv(csv, n_clean=20000, n_fraud=492, seed=11)
        out = tmp_path / "run"
        assert run(["build-graphs", "--dataset", str(csv), "--output-dir", str(out)]) == 0
        files = sorted((out / "graphs").glob("graphs_*.jsonl"))
        assert [p.name for p in files] == ["graphs_test.jsonl", "graphs_train.jsonl", "graphs_val.jsonl"]
        assert corpus_digests(files) == (
            "00b6341d005c1c2df353ab85217837313d48877c046a45183e2a24220c5acf6e",
            "05bb1d9e9bdf64deaaa40333555c46b9e42ec14b9552bd5daf3e6de19b24956f",
        )

    def test_tuned_cover_corpus_is_pinned(self, tmp_path):
        # six narrow intervals and a sparse DBSCAN: many noise singletons and
        # clusters cut at interval edges, pinned beyond the default config
        csv = tmp_path / "small.csv"
        write_synthetic_csv(csv, n_clean=1500, n_fraud=80, seed=23)
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, csv, out, tda={"n_intervals": 6, "overlap": 0.3, "eps": 0.05, "min_pts": 3})
        assert run(["build-graphs", "--config", str(cfg)]) == 0
        files = sorted((out / "graphs").glob("graphs_*.jsonl"))
        assert corpus_digests(files) == (
            "4a7a09d01e4e6051159b96725c467aef5557ab308e0e7810855ebc76c05a735e",
            "c3461b0413e40695dcf80eb026f96a90d1e1497b2bef69b6f01d1c3632e1dd2a",
        )

    @pytest.mark.parametrize("extra, key", [
        ({"model": {"sage": {"widths": 3}}}, "model.sage.widths"),
        ({"output_dir": None}, "output_dir"),
    ])
    def test_malformed_value_is_validation_error(self, tiny_csv, tmp_path, monkeypatch, capsys, extra, key):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, tiny_csv, tmp_path / "run", **extra)
        assert run(["build-graphs", "--config", str(cfg)]) == 1
        assert f"error: {key} must be a" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unknown_key_rejected(self, tiny_csv, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"dataset": str(tiny_csv), "typo_key": 1}))
        assert run(["build-graphs", "--config", str(cfg_path)]) == 1

    def test_missing_dataset_reported_as_validation(self, tmp_path):
        cfg = write_cfg(tmp_path, tmp_path / "absent.csv", tmp_path / "run")
        assert run(["build-graphs", "--config", str(cfg)]) == 1

    def test_directory_dataset_is_validation_error(self, tmp_path, capsys):
        folder = tmp_path / "creditcard.csv"
        folder.mkdir()
        out = tmp_path / "run"
        assert run(["build-graphs", "--config", str(write_cfg(tmp_path, folder, out))]) == 1
        assert f"{folder}: is a directory" in capsys.readouterr().err
        assert not out.exists()

    def test_compressed_dataset_is_validation_error(self, tiny_csv, tmp_path, capsys):
        packed = tmp_path / "creditcard.csv.gz"
        packed.write_bytes(gzip.compress(tiny_csv.read_bytes()))
        out = tmp_path / "run"
        assert run(["build-graphs", "--config", str(write_cfg(tmp_path, packed, out))]) == 1
        assert f"{packed}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_cell_is_validation_error(self, tiny_csv, tmp_path, capsys):
        lines = tiny_csv.read_text().splitlines()
        fraud = [i for i, line in enumerate(lines[1:], start=1) if line.endswith(",1")]
        for i, cell in zip(fraud[:2], ("nan", "inf")):
            cells = lines[i].split(",")
            cells[3] = cell  # V3
            lines[i] = ",".join(cells)
        csv = tmp_path / "non_finite.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert run(["build-graphs", "--config", str(write_cfg(tmp_path, csv, out))]) == 1
        assert f"row {fraud[0] + 1}: column V3 is not finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def built_run(tiny_csv, tmp_path_factory):
    """Corpus plus trained qgnn and sage checkpoints, shared across tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    out = tmp / "run"
    cfg = write_cfg(tmp, tiny_csv, out)
    assert run(["build-graphs", "--config", str(cfg)]) == 0
    assert run(["train", "--config", str(cfg), "--model", "qgnn"]) == 0
    assert run(["train", "--config", str(cfg), "--model", "sage"]) == 0
    return cfg, out


class TestTrain:
    def test_artifacts(self, built_run):
        _, out = built_run
        for model in ("qgnn", "sage"):
            d = out / f"train_{model}"
            assert (d / "checkpoint.txt").exists()
            assert (d / "history.csv").exists()
            manifest = json.loads((d / "manifest.json").read_text())
            assert manifest["parameter_count"] > 0
            assert manifest["epochs_run"] == 2
        history = (out / "train_qgnn" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) == 3

    def test_manifest_records_epoch_seconds(self, built_run):
        _, out = built_run
        for model in ("qgnn", "sage"):
            manifest = json.loads((out / f"train_{model}" / "manifest.json").read_text())
            seconds = manifest["epoch_seconds"]
            assert len(seconds) == manifest["epochs_run"] == 2
            assert all(isinstance(s, float) and s > 0 for s in seconds)

    def test_manifest_records_grad_norms(self, built_run):
        _, out = built_run
        for model in ("qgnn", "sage"):
            manifest = json.loads((out / f"train_{model}" / "manifest.json").read_text())
            norms = manifest["grad_norms"]
            assert len(norms) == manifest["epochs_run"] == 2
            for epoch in norms:
                assert sorted(epoch) == ["max", "mean"]
                assert 0.0 < epoch["mean"] <= epoch["max"] < float("inf")

    def test_manifest_records_circuit_path(self, built_run, tmp_path):
        cfg, out = built_run
        for qubits, layers, path in ((3, 1, qsim.CLOSED_FORM), (3, 2, qsim.STATEVECTOR), (16, 2, qsim.MPS)):
            dest = tmp_path / f"q{qubits}_l{layers}"
            argv = ["train", "--config", str(cfg), "--model", "qgnn", "--graphs", str(out / "graphs"),
                    "--output-dir", str(dest), "--qubits", str(qubits), "--layers", str(layers), "--epochs", "1"]
            assert run(argv) == 0
            circuit = json.loads((dest / "train_qgnn" / "manifest.json").read_text())["circuit"]
            assert (circuit["qubits"], circuit["layers"], circuit["path"]) == (qubits, layers, path)

    def test_zero_epochs_checkpoint_equals_init(self, tiny_csv, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, tiny_csv, out, training={"epochs": 0})
        run(["build-graphs", "--config", str(cfg)])
        assert run(["train", "--config", str(cfg), "--model", "qgnn"]) == 0
        arrays, meta = load_arrays(out / "train_qgnn" / "checkpoint.txt")
        expected = qgnn.init_params(qsim.CircuitSpec.chain(3, 1), make_rng(11))
        np.testing.assert_array_equal(arrays["w_c"], expected.w_c)
        np.testing.assert_array_equal(arrays["w_vqc"], expected.w_vqc)
        assert meta["kind"] == "qgnn"

    def test_rerun_history_byte_identical(self, tiny_csv, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = write_cfg(tmp_path, tiny_csv, out)
            run(["build-graphs", "--config", str(cfg)])
            run(["train", "--config", str(cfg), "--model", "qgnn"])
            outs.append(out)
        a, b = outs
        assert (a / "train_qgnn" / "history.csv").read_bytes() == (b / "train_qgnn" / "history.csv").read_bytes()
        assert (a / "train_qgnn" / "checkpoint.txt").read_bytes() == (b / "train_qgnn" / "checkpoint.txt").read_bytes()

    def test_missing_corpus_is_validation_error(self, tiny_csv, tmp_path, capsys):
        cfg = write_cfg(tmp_path, tiny_csv, tmp_path / "none")
        assert run(["train", "--config", str(cfg), "--model", "qgnn"]) == 1
        assert f"graph corpus not found: {tmp_path / 'none' / 'graphs'}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def empty_val_run(tmp_path_factory):
    """A corpus whose 8 undersampled rows split 6/0/2, and a trained qgnn."""
    tmp = tmp_path_factory.mktemp("empty_val")
    csv = tmp / "few_fraud.csv"
    write_synthetic_csv(csv, n_clean=40, n_fraud=4, seed=3)
    out = tmp / "run"
    cfg = write_cfg(tmp, csv, out)
    assert run(["build-graphs", "--config", str(cfg)]) == 0
    assert run(["train", "--config", str(cfg), "--model", "qgnn"]) == 0
    return cfg, out


class TestEvaluate:
    def test_report_schema(self, built_run):
        cfg, out = built_run
        assert run(["evaluate", "--config", str(cfg), "--model", "qgnn"]) == 0
        d = out / "eval_qgnn_test"
        report = (d / "report.txt").read_text()
        for key in ("threshold", "accuracy_pct", "precision_pct", "recall_pct", "f1",
                    "auc_roc", "auc_pr"):
            assert f"{key}:" in report
        assert (d / "roc.csv").exists() and (d / "pr.csv").exists()

    def test_sage_checkpoint_evaluates(self, built_run):
        cfg, out = built_run
        assert run(["evaluate", "--config", str(cfg), "--model", "sage"]) == 0
        assert (out / "eval_sage_test" / "report.txt").exists()

    def test_rerun_report_byte_identical(self, built_run):
        cfg, out = built_run
        run(["evaluate", "--config", str(cfg), "--model", "qgnn"])
        first = (out / "eval_qgnn_test" / "report.txt").read_bytes()
        roc_first = (out / "eval_qgnn_test" / "roc.csv").read_bytes()
        run(["evaluate", "--config", str(cfg), "--model", "qgnn"])
        assert (out / "eval_qgnn_test" / "report.txt").read_bytes() == first
        assert (out / "eval_qgnn_test" / "roc.csv").read_bytes() == roc_first

    def test_commands_parse_only_the_splits_they_use(self, built_run, tmp_path, monkeypatch):
        cfg, out = built_run
        real, read = tda.read_graph_corpus, []

        def recording(path):
            read.append(path.name)
            return real(path)

        monkeypatch.setattr(tda, "read_graph_corpus", recording)
        common = ["--config", str(cfg), "--model", "sage", "--graphs", str(out / "graphs"),
                  "--output-dir", str(tmp_path)]
        checkpoint = ["--checkpoint", str(out / "train_sage" / "checkpoint.txt")]
        for argv, want in (
            (["train", *common, "--epochs", "1"], ["graphs_train.jsonl", "graphs_val.jsonl"]),
            (["evaluate", *common, *checkpoint], ["graphs_val.jsonl", "graphs_test.jsonl"]),
            (["evaluate", *common, *checkpoint, "--split", "val"], ["graphs_val.jsonl"]),
            (["evaluate", *common, *checkpoint, "--split", "train"], ["graphs_val.jsonl", "graphs_train.jsonl"]),
        ):
            read.clear()
            assert run(argv) == 0
            assert read == want, argv

    def test_train_still_requires_every_split_file(self, built_run, tmp_path):
        cfg, out = built_run
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        for f in (out / "graphs").iterdir():
            if f.name != "graphs_test.jsonl":
                (graphs / f.name).write_bytes(f.read_bytes())
        argv = ["train", "--config", str(cfg), "--model", "sage", "--graphs", str(graphs),
                "--output-dir", str(tmp_path / "run")]
        assert run(argv) == 1
        assert not (tmp_path / "run").exists()

    def test_missing_checkpoint_is_validation_error(self, built_run, tmp_path, capsys):
        cfg, out = built_run
        missing = tmp_path / "absent" / "checkpoint.txt"
        argv = ["evaluate", "--config", str(cfg), "--model", "qgnn", "--checkpoint", str(missing),
                "--output-dir", str(tmp_path / "run")]
        assert run(argv) == 1
        assert f"checkpoint not found: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("pattern, replacement, message", [
        (r"^meta seed .*\n", "meta seed\n", "meta line needs a name and a value"),
        (r"^(array \S+) \S+\n", r"\1\n", "array line needs a name and a value"),
        (r"^(array \S+) \S+\n", r"\1 2,x\n", "invalid literal for int()"),
        (r"^[-\d][^ \n]*", "abc", "could not convert string to float: 'abc'"),
        (r"^meta kind qgnn\n", "", "--model qgnn was given a checkpoint with no 'meta kind' line"),
        (r"^meta layers .*\n", "", "no 'meta layers' line"),
        (r"^meta entangler .*\n", "", "no 'meta entangler' line"),
        (r"^meta encode_activation .*\n", "", "no 'meta encode_activation' line"),
        (r"^meta qubits .*\n", "meta qubits three\n", "meta qubits: invalid literal for int()"),
        (r"^meta qubits .*\n", "meta qubits 25\n", "meta qubits: must be in [1, 20], got 25"),
        (r"^array w_vqc .*\n.*\n", "", "no 'w_vqc' array"),
        (r"^array w_vqc .*\n.*\n", "array w_vqc 1\n0.5\n", "array w_vqc: shape (1,), the model's is (6,)"),
        (r"\Z", "\udcff\udcfe", "not UTF-8 text"),
        (r"^meta dropout .*\n", "", "no 'meta dropout' line"),
        (r"^meta layers .*\n((?:.*\n)*?)array w_vqc .*\n.*\n", r"meta layers 0\n\1array w_vqc 0\n\n",
         "meta layers: must be >= 1, got 0"),
        (r"(?<=^array w_o 3\n)\S+", "nan", "array w_o has a non-finite value"),
        (r"(?<=^array w_vqc 6\n)\S+", "inf", "array w_vqc has a non-finite value"),
        (r"(?<=^array b_c 3\n)\S+", "1e999", "array b_c has a non-finite value"),
        (r"^meta widths .*\n", "meta widths 0,128\n",
         "meta widths: the model uses exactly two layers of positive width, got widths (0, 128)"),
    ])
    def test_malformed_checkpoint_is_validation_error(self, built_run, tmp_path, capsys, pattern, replacement,
                                                      message):
        cfg, out = built_run
        # the edit applies to the first checkpoint, qgnn then sage, that holds the pattern
        for model in ("qgnn", "sage"):
            text = (out / f"train_{model}" / "checkpoint.txt").read_text()
            found = re.search(pattern, text, flags=re.M)
            if found:
                break
        checkpoint = tmp_path / "checkpoint.txt"
        # a surrogate escape writes its byte as is, so "\udcff" is a byte 0xff
        checkpoint.write_text(text[:found.start()] + found.expand(replacement) + text[found.end():],
                              errors="surrogateescape")
        argv = ["evaluate", "--config", str(cfg), "--model", model, "--checkpoint", str(checkpoint),
                "--graphs", str(out / "graphs"), "--output-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"{checkpoint}: " in err and message in err
        # an edited line is named by its number; a parsed value the model cannot
        # use is named by its meta key or array name instead
        if replacement and not re.match(r"(meta|array) \w+: ", message):
            assert f"line {text.count(chr(10), 0, found.start()) + 1}: " in err
        assert not (tmp_path / "run").exists()

    def test_checkpoint_of_the_other_model_is_validation_error(self, built_run, tmp_path, capsys):
        cfg, out = built_run
        checkpoint = out / "train_sage" / "checkpoint.txt"
        argv = ["evaluate", "--config", str(cfg), "--model", "qgnn", "--checkpoint", str(checkpoint),
                "--graphs", str(out / "graphs"), "--output-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert run(argv) == 1
        assert f"{checkpoint}: --model qgnn was given a sage checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line[:-1], "line 2: Expecting ',' delimiter"),
        (lambda line: "not json", "line 2: Expecting value"),
        *[(lambda line, key=key: json.dumps({k: v for k, v in json.loads(line).items() if k != key}),
           f"line 2: record has no '{key}' field") for key in ("n_nodes", "v", "cells", "edges", "label")],
        (lambda line: line + "\udcff\udcfe", "line 2: 'utf-8' codec can't decode byte 0xff"),
        (lambda line: re.sub(r'(?<="v":\[)[^,\]]+', "1e999", line, count=1), "line 2: non-finite node value"),
        *[(lambda line, token=token: re.sub(r'(?<="v":\[)[^,\]]+', token, line, count=1),
           f"line 2: non-finite value {token}") for token in ("NaN", "Infinity")],
        (edited(lambda r: {"v": r["v"][:27]}), "line 2: v must be a list of 28 numbers"),
        (edited(lambda r: {"v": ["0.5"] + r["v"][1:]}), "line 2: v must be a list of 28 numbers"),
        (edited(lambda r: {"n_nodes": 0}), "line 2: n_nodes must be an integer >= 1, got 0"),
        (edited(lambda r: {"n_nodes": 1.5}), "line 2: n_nodes must be an integer >= 1, got 1.5"),
        *[(edited(change), "line 2: cells must ascend strictly inside [0, ") for change in (
            lambda r: {"cells": r["cells"][:1] + r["cells"]},
            lambda r: {"cells": r["cells"][::-1]},
            lambda r: {"cells": [-1] + r["cells"]},
            lambda r: {"cells": r["cells"] + [28 * r["n_nodes"]]},
        )],
        (edited(lambda r: {"edges": [[0, -1]]}), "line 2: edge (0, -1) out of range for "),
        (edited(lambda r: {"edges": [[0, 0]]}), "line 2: self-loop on node 0"),
        (edited(lambda r: {"edges": [[0, 1], [1, 0]]}), "line 2: duplicate edge (0, 1)"),
        (edited(lambda r: {"edges": [[0]]}), "line 2: not enough values to unpack (expected 2, got 1)"),
    ], ids=["truncated", "not-json", "no-n_nodes", "no-v", "no-cells", "no-edges", "no-label", "not-utf8",
            "overflow", "nan", "infinity", "short-v", "text-in-v", "zero-nodes", "fractional-nodes",
            "repeated-cell", "descending-cells", "negative-cell", "cell-past-end",
            "edge-out-of-range", "self-loop", "duplicate-edge", "one-element-edge"])
    def test_malformed_corpus_line_is_validation_error(self, built_run, tmp_path, capsys, edit, message):
        cfg, out = built_run
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        for f in (out / "graphs").iterdir():
            (graphs / f.name).write_bytes(f.read_bytes())
        lines = (graphs / "graphs_test.jsonl").read_text().splitlines()
        lines[1] = edit(lines[1])
        # a surrogate escape writes its byte as is, so "\udcff" is a byte 0xff
        (graphs / "graphs_test.jsonl").write_text("\n".join(lines) + "\n", errors="surrogateescape")
        argv = ["evaluate", "--config", str(cfg), "--model", "qgnn", "--graphs", str(graphs),
                "--checkpoint", str(out / "train_qgnn" / "checkpoint.txt"), "--output-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert run(argv) == 1
        assert f"{graphs / 'graphs_test.jsonl'}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_dense_corpus_asks_for_a_rebuild(self, built_run, tmp_path, capsys):
        # the whole-node-matrix records every build-graphs wrote before the V-row record
        cfg, out = built_run
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        for f in (out / "graphs").iterdir():
            data = oracles.dense_corpus_bytes(tda.read_graph_corpus(f)) if f.suffix == ".jsonl" else f.read_bytes()
            (graphs / f.name).write_bytes(data)
        argv = ["evaluate", "--config", str(cfg), "--model", "qgnn", "--graphs", str(graphs),
                "--checkpoint", str(out / "train_qgnn" / "checkpoint.txt"), "--output-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert run(argv) == 1
        assert (f"{graphs / 'graphs_val.jsonl'}: line 1: a dense record from an earlier build-graphs; "
                "run build-graphs again") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("manifest.json", lambda text: "{not json",
         "manifest.json: not a manifest with corpus_config_hash and corpus_hash (JSONDecodeError("),
        ("manifest.json", lambda text: re.sub(r'"corpus_config_hash": "\w+",\n', "", text),
         "manifest.json: not a manifest with corpus_config_hash and corpus_hash (KeyError('corpus_config_hash'))"),
        ("graphs_test.jsonl", lambda text: "".join(text.splitlines(keepends=True)[3:]),
         "the corpus files do not match the corpus_hash in"),
    ], ids=["not-json", "no-config-hash", "altered-corpus"])
    def test_malformed_corpus_manifest_is_validation_error(self, built_run, tmp_path, capsys, name, edit, message):
        cfg, out = built_run
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        for f in (out / "graphs").iterdir():
            (graphs / f.name).write_bytes(f.read_bytes())
        (graphs / name).write_text(edit((graphs / name).read_text()))
        argv = ["evaluate", "--config", str(cfg), "--model", "qgnn", "--graphs", str(graphs),
                "--checkpoint", str(out / "train_qgnn" / "checkpoint.txt"), "--output-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert str(graphs) in err and message in err
        assert not (tmp_path / "run").exists()

    def test_model_comes_from_the_checkpoint(self, built_run, tmp_path):
        # a config of other qubits and another entangler changes neither the
        # model nor its scores, and the manifest says what was scored, not the config
        cfg, out = built_run
        checkpoint = out / "train_qgnn" / "checkpoint.txt"
        common = ["--config", str(cfg), "--model", "qgnn", "--graphs", str(out / "graphs"),
                  "--checkpoint", str(checkpoint)]
        assert run(["evaluate", *common, "--output-dir", str(tmp_path / "a")]) == 0
        assert run(["evaluate", *common, "--output-dir", str(tmp_path / "b"), "--qubits", "5",
                    "--entangler", "ring"]) == 0
        a, b = (tmp_path / sub / "eval_qgnn_test" for sub in ("a", "b"))
        assert (b / "report.txt").read_bytes() == (a / "report.txt").read_bytes()
        manifest = json.loads((b / "manifest.json").read_text())
        meta = manifest["checkpoint_meta"]
        assert (meta["qubits"], meta["layers"], meta["entangler"]) == ("3", "1", "chain")
        assert "config" not in manifest
        assert (manifest["checkpoint"], manifest["split"]) == (str(checkpoint), "test")
        assert manifest["graphs"] == str(out / "graphs")
        corpus = json.loads((out / "graphs" / "manifest.json").read_text())
        assert manifest["corpus_config_hash"] == corpus["corpus_config_hash"] == meta["corpus_config_hash"]

    def test_foreign_corpus_rejected(self, built_run, tiny_csv, tmp_path):
        cfg, out = built_run
        other_out = tmp_path / "other"
        other_cfg = write_cfg(tmp_path, tiny_csv, other_out, seed=99)
        run(["build-graphs", "--config", str(other_cfg)])
        rc = run([
            "evaluate", "--config", str(cfg), "--model", "qgnn",
            "--graphs", str(other_out / "graphs"),
        ])
        assert rc == 1

    def test_untrained_model_scores_near_chance(self, small_csv, tmp_path):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, small_csv, out, training={"epochs": 0}, seed=17)
        run(["build-graphs", "--config", str(cfg)])
        run(["train", "--config", str(cfg), "--model", "qgnn"])
        assert run(["evaluate", "--config", str(cfg), "--model", "qgnn"]) == 0
        report = (out / "eval_qgnn_test" / "report.txt").read_text()
        auc = float([l for l in report.splitlines() if l.startswith("auc_roc:")][0].split()[1])
        assert 0.3 <= auc <= 0.7

    def test_empty_split_is_runtime_error(self, tmp_path, capsys):
        # one fraud row undersamples to 2 rows, and both land in train; an
        # empty test split is rejected where the split is made
        csv = tmp_path / "one_fraud.csv"
        write_synthetic_csv(csv, n_clean=20, n_fraud=1, seed=3)
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, csv, out)
        assert run(["build-graphs", "--config", str(cfg)]) == 1
        assert "test split is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluating_an_empty_val_split_is_runtime_error(self, empty_val_run, capsys):
        cfg, out = empty_val_run
        assert json.loads((out / "graphs" / "manifest.json").read_text())["counts"]["val"]["graphs"] == 0
        capsys.readouterr()
        assert run(["evaluate", "--config", str(cfg), "--model", "qgnn", "--split", "val"]) == 2
        assert "empty set" in capsys.readouterr().err

    def test_threshold_source_is_recorded(self, built_run, empty_val_run, capsys):
        for (cfg, out), source in ((built_run, "validation best F1"),
                                   (empty_val_run, "0.5 fallback, validation lacks a class")):
            capsys.readouterr()
            assert run(["evaluate", "--config", str(cfg), "--model", "qgnn"]) == 0
            assert f"({source})" in capsys.readouterr().out
            manifest = json.loads((out / "eval_qgnn_test" / "manifest.json").read_text())
            assert manifest["threshold_source"] == source
            if source.startswith("0.5"):
                assert manifest["threshold"] == 0.5


class TestGrid:
    def test_small_grid_mechanics(self, built_run, monkeypatch):
        cfg, out = built_run
        monkeypatch.setattr(cli, "GRID_CONFIGS", ((2, 1), (3, 1)))
        assert run(["grid", "--config", str(cfg)]) == 0
        summary = (out / "grid" / "summary.csv").read_text().splitlines()
        assert summary[0] == "qubits,layers,accuracy_pct,precision_pct,recall_pct,f1,auc_pr"
        assert len(summary) == 3
        assert (out / "grid" / "summary.txt").exists()
        assert (out / "grid" / "q2_l1" / "report.txt").exists()
        rows = json.loads((out / "grid" / "manifest.json").read_text())["rows"]
        assert [row[-1] for row in rows] == ["validation best F1"] * 2

    def test_manifest_records_point_timings(self, built_run, monkeypatch):
        cfg, out = built_run
        monkeypatch.setattr(cli, "GRID_CONFIGS", ((2, 1), (3, 2)))
        assert run(["grid", "--config", str(cfg)]) == 0
        points = json.loads((out / "grid" / "manifest.json").read_text())["points"]
        assert [p["name"] for p in points] == ["q2_l1", "q3_l2"]
        assert [p["path"] for p in points] == [qsim.CLOSED_FORM, qsim.STATEVECTOR]
        for p in points:
            assert len(p["epoch_seconds"]) == 2
            assert 0 < sum(p["epoch_seconds"]) < p["seconds"]
        summary = (out / "grid" / "summary.txt").read_text()
        assert "circuit paths: q2_l1 closed form, q3_l2 statevector." in summary

    def test_grid_rerun_identical(self, built_run, monkeypatch, tmp_path):
        cfg, out = built_run
        monkeypatch.setattr(cli, "GRID_CONFIGS", ((2, 1),))
        run(["grid", "--config", str(cfg)])
        first = (out / "grid" / "summary.csv").read_bytes()
        run(["grid", "--config", str(cfg)])
        assert (out / "grid" / "summary.csv").read_bytes() == first

    def test_grid_report_equals_evaluate_report(self, tiny_csv, tmp_path, monkeypatch):
        # grid and evaluate score a checkpoint through the same code path
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, tiny_csv, out)
        monkeypatch.setattr(cli, "GRID_CONFIGS", ((6, 1),))
        q6 = ["--config", str(cfg), "--epochs", "1", "--qubits", "6", "--layers", "1"]
        assert run(["build-graphs", "--config", str(cfg)]) == 0
        assert run(["grid", *q6]) == 0
        assert run(["train", "--model", "qgnn", *q6]) == 0
        assert run(["evaluate", "--model", "qgnn", *q6]) == 0
        grid_report = (out / "grid" / "q6_l1" / "report.txt").read_bytes()
        assert grid_report == (out / "eval_qgnn_test" / "report.txt").read_bytes()


class TestPlot:
    def test_history_and_curves(self, built_run, tmp_path):
        _, out = built_run
        run(["plot",
             "--history", str(out / "train_qgnn" / "history.csv"),
             "--roc", str(out / "eval_qgnn_test" / "roc.csv"),
             "--pr", str(out / "eval_qgnn_test" / "pr.csv"),
             "--out", str(tmp_path / "plots")])
        for name in ("loss.svg", "roc.svg", "pr.svg"):
            svg = (tmp_path / "plots" / name).read_text()
            assert svg.startswith("<svg") and "polyline" in svg

    def test_plot_without_inputs_fails_validation(self, tmp_path):
        assert run(["plot", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("flag, name, text, message", [
        ("--roc", "roc.csv", "fpr,tpr\n", "expected a header and data rows of 2 cells"),
        ("--history", "history.csv", "epoch,train_loss,val_loss\n", "expected a header and data rows of 3 cells"),
        ("--pr", "pr.csv", "recall,precision\n0.5,x\n", "could not convert string to float: 'x"),
        ("--roc", "roc.csv", "fpr,tpr\n0.0,0.0\n0.5\n", "expected a header and data rows of 2 cells"),
        ("--roc", "absent.csv", None, "plot input not found"),
    ])
    def test_invalid_input_writes_nothing(self, built_run, tmp_path, capsys, flag, name, text, message):
        _, out = built_run
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        plots = tmp_path / "plots"
        argv = ["plot", "--history", str(out / "train_qgnn" / "history.csv"), flag, str(path),
                "--out", str(plots)]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not plots.exists()


class TestUsageErrors:
    def test_unknown_flag_is_validation_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["train", "--nope"])
        assert exc.value.code == 1

    def test_evaluate_has_no_svg_flag(self):
        # plot renders the charts from the roc.csv and pr.csv evaluate writes
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["evaluate", "--model", "qgnn", "--svg"])
        assert exc.value.code == 1

    def test_override_flags_set_their_config_keys(self):
        parser = cli.build_parser()
        args = parser.parse_args([
            "train", "--model", "sage", "--dataset", "d.csv", "--seed", "3", "--output-dir", "o",
            "--epochs", "2", "--batch-size", "4", "--learning-rate", "0.5", "--qubits", "5",
            "--layers", "2", "--entangler", "ring", "--dropout", "0.25",
        ])
        assert args.overrides == {
            "dataset": "d.csv", "seed": 3, "output_dir": "o", "training.epochs": 2,
            "training.batch_size": 4, "training.learning_rate": 0.5, "model.qgnn.qubits": 5,
            "model.qgnn.layers": 2, "model.qgnn.entangler": "ring", "model.sage.dropout": 0.25,
        }
        assert args.model == "sage"
        cfg = load_config(None, args.overrides)
        assert (cfg.training.epochs, cfg.qgnn.layers, cfg.sage.dropout) == (2, 2, 0.25)
        # a later parse starts from no overrides
        assert parser.parse_args(["grid"]).overrides == {}
        assert parser.parse_args(["grid", "--seed", "4"]).overrides == {"seed": 4}

    def test_missing_model_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["train"])
        assert exc.value.code == 1
