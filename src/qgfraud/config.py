"""Run configuration: a single JSON file, strictly validated, fully echoed.

Unknown keys are rejected everywhere so a typo cannot silently fall back to a
default. CLI flags override file values; the resolved configuration is
written into every run manifest, and the corpus-affecting subset (dataset,
seed, split, tda) is hashed so checkpoints and corpora can be cross-checked.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import DatasetError, SplitSpec
from .qgnn import ENCODE_ACTIVATIONS
from .qsim import MAX_QUBITS
from .tda import CoverSpec, DbscanSpec, TdaError
from .training import TrainConfig, TrainingError


class ConfigError(ValueError):
    pass


DEFAULTS: dict = {
    "dataset": "data/creditcard.csv",
    "seed": 7,
    "output_dir": "runs/default",
    "split": {"train": 0.65, "val": 0.05, "test": 0.30},
    "tda": {
        "projection": [1.0, 1.0, 1.0],
        "n_intervals": 4,
        "overlap": 0.5,
        "eps": 0.1,
        "min_pts": 2,
    },
    "model": {
        "qgnn": {"qubits": 6, "layers": 1, "entangler": "chain", "encode_activation": "none"},
        "sage": {"widths": [128, 128], "fan_outs": [2, 32], "dropout": 0.1},
    },
    "training": {
        "epochs": 10,
        "batch_size": 5,
        "learning_rate": 0.01,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
    },
}

ENTANGLERS = ("chain", "ring")


@dataclass(frozen=True)
class QgnnModelConfig:
    qubits: int = 6
    layers: int = 1
    entangler: str = "chain"
    encode_activation: str = "none"

    def __post_init__(self) -> None:
        if not 1 <= self.qubits <= MAX_QUBITS:
            raise ConfigError(f"model.qgnn.qubits must lie in [1, {MAX_QUBITS}], got {self.qubits}")
        if self.layers < 1:
            raise ConfigError(f"model.qgnn.layers must be >= 1, got {self.layers}")
        if self.entangler not in ENTANGLERS:
            raise ConfigError(f"model.qgnn.entangler must be one of {ENTANGLERS}")
        if self.encode_activation not in ENCODE_ACTIVATIONS:
            raise ConfigError(f"model.qgnn.encode_activation must be one of {ENCODE_ACTIVATIONS}")


@dataclass(frozen=True)
class SageModelConfig:
    widths: tuple = (128, 128)
    fan_outs: tuple = (2, 32)
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if len(self.widths) != 2 or any(int(w) < 1 for w in self.widths):
            raise ConfigError(f"model.sage.widths must be two positive ints, got {self.widths}")
        if len(self.fan_outs) != 2:
            raise ConfigError(f"model.sage.fan_outs must have two entries, got {self.fan_outs}")
        for f in self.fan_outs:
            if f is not None and int(f) < 1:
                raise ConfigError(f"model.sage.fan_outs entries must be null or >= 1, got {f}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"model.sage.dropout must lie in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    seed: int
    output_dir: str
    split: SplitSpec
    projection: tuple  # unit-normalised 3-vector
    cover: CoverSpec
    dbscan: DbscanSpec
    qgnn: QgnnModelConfig
    sage: SageModelConfig
    training: TrainConfig  # carries the run seed

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "split": {
                "train": self.split.train_frac,
                "val": self.split.val_frac,
                "test": self.split.test_frac,
            },
            "tda": {
                "projection": list(self.projection),
                "n_intervals": self.cover.n_intervals,
                "overlap": self.cover.overlap_frac,
                "eps": self.dbscan.eps,
                "min_pts": self.dbscan.min_pts,
            },
            "model": {
                "qgnn": {
                    "qubits": self.qgnn.qubits,
                    "layers": self.qgnn.layers,
                    "entangler": self.qgnn.entangler,
                    "encode_activation": self.qgnn.encode_activation,
                },
                "sage": {
                    "widths": list(self.sage.widths),
                    "fan_outs": list(self.sage.fan_outs),
                    "dropout": self.sage.dropout,
                },
            },
            "training": {
                "epochs": self.training.epochs,
                "batch_size": self.training.batch_size,
                "learning_rate": self.training.learning_rate,
                "beta1": self.training.beta1,
                "beta2": self.training.beta2,
                "eps": self.training.eps,
            },
        }

    def corpus_config_hash(self) -> str:
        """Hash of the fields that determine corpus content."""
        d = self.to_dict()
        sub = {"dataset": d["dataset"], "seed": d["seed"], "split": d["split"], "tda": d["tda"]}
        return hashlib.sha256(json.dumps(sub, sort_keys=True).encode()).hexdigest()


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _merge(base: dict, override: dict, where: str = "config") -> dict:
    _check_keys(override, base.keys(), where)
    out = dict(base)
    for key, value in override.items():
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}.{key} must be an object")
            out[key] = _merge(base[key], value, f"{where}.{key}")
        else:
            out[key] = value
    return out


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def build_config(data: dict) -> RunConfig:
    """Validate a merged config dict and freeze it into a RunConfig."""
    raw_proj = data["tda"]["projection"]
    if not isinstance(raw_proj, (list, tuple)) or len(raw_proj) != 3:
        raise ConfigError(f"tda.projection must be a 3-vector, got {raw_proj!r}")
    proj = np.array([_as_number(x, "tda.projection") for x in raw_proj])
    norm = float(np.linalg.norm(proj))
    if norm == 0.0:
        raise ConfigError("tda.projection must be non-zero")
    proj = proj / norm
    if proj[1] == 0.0:  # time and amount alone put every point in one place
        raise ConfigError(f"tda.projection must give V a non-zero weight, got {raw_proj!r}")

    try:
        split = SplitSpec(
            _as_number(data["split"]["train"], "split.train"),
            _as_number(data["split"]["val"], "split.val"),
            _as_number(data["split"]["test"], "split.test"),
        )
        cover = CoverSpec(
            _as_int(data["tda"]["n_intervals"], "tda.n_intervals"),
            _as_number(data["tda"]["overlap"], "tda.overlap"),
        )
        db = DbscanSpec(
            _as_number(data["tda"]["eps"], "tda.eps"),
            _as_int(data["tda"]["min_pts"], "tda.min_pts"),
        )
        qgnn_cfg = QgnnModelConfig(
            _as_int(data["model"]["qgnn"]["qubits"], "model.qgnn.qubits"),
            _as_int(data["model"]["qgnn"]["layers"], "model.qgnn.layers"),
            str(data["model"]["qgnn"]["entangler"]),
            str(data["model"]["qgnn"]["encode_activation"]),
        )
        sage_cfg = SageModelConfig(
            tuple(_as_int(w, "model.sage.widths") for w in data["model"]["sage"]["widths"]),
            tuple(
                None if f is None else _as_int(f, "model.sage.fan_outs")
                for f in data["model"]["sage"]["fan_outs"]
            ),
            _as_number(data["model"]["sage"]["dropout"], "model.sage.dropout"),
        )
        training = TrainConfig(
            epochs=_as_int(data["training"]["epochs"], "training.epochs"),
            batch_size=_as_int(data["training"]["batch_size"], "training.batch_size"),
            learning_rate=_as_number(data["training"]["learning_rate"], "training.learning_rate"),
            beta1=_as_number(data["training"]["beta1"], "training.beta1"),
            beta2=_as_number(data["training"]["beta2"], "training.beta2"),
            eps=_as_number(data["training"]["eps"], "training.eps"),
            seed=_as_int(data["seed"], "seed"),
        )
    except (DatasetError, TdaError, TrainingError) as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        dataset=str(data["dataset"]),
        seed=_as_int(data["seed"], "seed"),
        output_dir=str(data["output_dir"]),
        split=split,
        projection=tuple(float(x) for x in proj),
        cover=cover,
        dbscan=db,
        qgnn=qgnn_cfg,
        sage=sage_cfg,
        training=training,
    )


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults <- JSON file <- dotted CLI overrides, then validate."""
    data = copy.deepcopy(DEFAULTS)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            loaded = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{p}: top level must be a JSON object")
        data = _merge(data, loaded)
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        node = data
        parts = dotted.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown override {dotted!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown override {dotted!r}")
        node[parts[-1]] = value
    return build_config(data)
