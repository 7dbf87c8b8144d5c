"""Run configuration: a single JSON file, strictly validated, fully echoed.

``DEFAULTS`` is the schema. It names every key, and each value must have the
type of its default: an int (not a bool), a finite number (stored as a
float), a string, or a list of those. The one null allowed is an entry of
``model.sage.fan_outs``, meaning "all neighbours". Unknown keys are rejected
everywhere so a typo cannot silently fall back to a default. CLI flags
override file values. The checked dict is the run's record: it is written
into every run manifest, and its corpus-affecting subset (dataset, seed,
split, tda) is hashed so checkpoints and corpora can be cross-checked.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
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

NULLABLE_LISTS = ("model.sage.fan_outs",)  # a null fan-out aggregates every neighbour
ENTANGLERS = ("chain", "ring")


@dataclass(frozen=True)
class QgnnModelConfig:
    qubits: int
    layers: int
    entangler: str
    encode_activation: str

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
    widths: tuple
    fan_outs: tuple
    dropout: float

    def __post_init__(self) -> None:
        if len(self.widths) != 2 or any(w < 1 for w in self.widths):
            raise ConfigError(f"model.sage.widths must be two positive ints, got {self.widths}")
        if len(self.fan_outs) != 2:
            raise ConfigError(f"model.sage.fan_outs must have two entries, got {self.fan_outs}")
        for f in self.fan_outs:
            if f is not None and f < 1:
                raise ConfigError(f"model.sage.fan_outs entries must be null or >= 1, got {f}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"model.sage.dropout must lie in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class RunConfig:
    record: dict  # the checked config, projection normalised; read it through to_dict
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
        return copy.deepcopy(self.record)

    def corpus_config_hash(self) -> str:
        """Hash of the fields that determine corpus content."""
        sub = {key: self.record[key] for key in ("dataset", "seed", "split", "tda")}
        return hashlib.sha256(json.dumps(sub, sort_keys=True).encode()).hexdigest()


def _merge(base: dict, override: dict, where: str = "config") -> dict:
    unknown = set(override) - set(base)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    out = dict(base)
    for key, value in override.items():
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}.{key} must be an object")
            out[key] = _merge(base[key], value, f"{where}.{key}")
        else:
            out[key] = value
    return out


def _checked(value, default, where: str = ""):
    """``value`` checked against, and coerced to, the type of ``default``."""
    if isinstance(default, dict):
        return {
            key: _checked(value[key], sub, f"{where}.{key}" if where else key) for key, sub in default.items()
        }
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [
            None if v is None and where in NULLABLE_LISTS else _checked(v, default[0], where) for v in value
        ]
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def build_config(data: dict) -> RunConfig:
    """Validate a merged config dict and freeze it into a RunConfig."""
    record = _checked(data, DEFAULTS)
    split, tda, model = record["split"], record["tda"], record["model"]
    if len(tda["projection"]) != 3:
        raise ConfigError(f"tda.projection must be a 3-vector, got {data['tda']['projection']!r}")
    proj = np.array(tda["projection"])
    norm = float(np.linalg.norm(proj))
    if norm == 0.0:
        raise ConfigError("tda.projection must be non-zero")
    proj = proj / norm
    if proj[1] == 0.0:  # time and amount alone put every point in one place
        raise ConfigError(
            f"tda.projection must give V a non-zero weight, got {data['tda']['projection']!r}"
        )
    tda["projection"] = proj.tolist()

    try:
        return RunConfig(
            record=record,
            dataset=record["dataset"],
            seed=record["seed"],
            output_dir=record["output_dir"],
            split=SplitSpec(split["train"], split["val"], split["test"]),
            projection=tuple(tda["projection"]),
            cover=CoverSpec(tda["n_intervals"], tda["overlap"]),
            dbscan=DbscanSpec(tda["eps"], tda["min_pts"]),
            qgnn=QgnnModelConfig(**model["qgnn"]),
            sage=SageModelConfig(
                tuple(model["sage"]["widths"]), tuple(model["sage"]["fan_outs"]), model["sage"]["dropout"]
            ),
            training=TrainConfig(**record["training"], seed=record["seed"]),
        )
    except (DatasetError, TdaError, TrainingError) as exc:
        raise ConfigError(str(exc)) from None


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
        nested = value
        for part in reversed(dotted.split(".")):
            nested = {part: nested}
        try:
            data = _merge(data, nested)
        except ConfigError:
            raise ConfigError(f"unknown override {dotted!r}") from None
    return build_config(data)
