import json

import numpy as np
import pytest

from qgfraud import qsim
from qgfraud.config import ConfigError, DEFAULTS, build_config, load_config


class TestDefaults:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg.qgnn.qubits == 6
        assert cfg.sage.widths == (128, 128)
        assert cfg.training.epochs == 10
        assert cfg.split.train_frac == 0.65

    def test_projection_is_normalised(self):
        cfg = load_config()
        assert np.linalg.norm(cfg.projection) == pytest.approx(1.0, abs=1e-12)


class TestFileAndOverrides:
    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 42, "model": {"qgnn": {"qubits": 4}}}))
        cfg = load_config(p)
        assert cfg.seed == 42
        assert cfg.qgnn.qubits == 4
        assert cfg.qgnn.layers == DEFAULTS["model"]["qgnn"]["layers"]

    def test_cli_overrides_beat_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 42}))
        cfg = load_config(p, {"seed": 7, "training.epochs": 3})
        assert cfg.seed == 7
        assert cfg.training.epochs == 3
        assert cfg.training.seed == 7  # run seed feeds training

    def test_none_overrides_ignored(self):
        cfg = load_config(None, {"seed": None})
        assert cfg.seed == DEFAULTS["seed"]

    def test_unknown_file_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"tda": {"epsilon": 0.1}}))
        with pytest.raises(ConfigError, match="epsilon"):
            load_config(p)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override"):
            load_config(None, {"training.warmup": 5})

    def test_invalid_json_reported(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")


class TestValidation:
    def base(self, **patch):
        import copy

        data = copy.deepcopy(DEFAULTS)
        for dotted, value in patch.items():
            node = data
            parts = dotted.split(".")
            for part in parts[:-1]:
                node = node[part]
            node[parts[-1]] = value
        return data

    def test_zero_projection_rejected(self):
        with pytest.raises(ConfigError, match="non-zero"):
            build_config(self.base(**{"tda.projection": [0, 0, 0]}))

    def test_zero_v_weight_rejected(self):
        # time and amount alone would put all 28 points in one place
        with pytest.raises(ConfigError, match="tda.projection"):
            build_config(self.base(**{"tda.projection": [1, 0, 1]}))

    def test_negative_eps_rejected(self):
        with pytest.raises(ConfigError):
            build_config(self.base(**{"tda.eps": -0.5}))

    def test_qubit_bound_is_the_simulator_bound(self):
        assert build_config(self.base(**{"model.qgnn.qubits": qsim.MAX_QUBITS})).qgnn.qubits == qsim.MAX_QUBITS
        for bad in (0, qsim.MAX_QUBITS + 1):
            with pytest.raises(ConfigError) as err:
                build_config(self.base(**{"model.qgnn.qubits": bad}))
            assert str(err.value) == f"model.qgnn.qubits must lie in [1, {qsim.MAX_QUBITS}], got {bad}"

    def test_bad_entangler_rejected(self):
        with pytest.raises(ConfigError):
            build_config(self.base(**{"model.qgnn.entangler": "star"}))

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            build_config(self.base(**{"seed": True}))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            build_config(self.base(**{"split.val": 0.2}))

    def test_null_fan_out_means_all(self):
        cfg = build_config(self.base(**{"model.sage.fan_outs": [None, 32]}))
        assert cfg.sage.fan_outs == (None, 32)


class TestCorpusHash:
    def test_stable_under_model_changes(self, tmp_path):
        a = load_config(None, {"model.qgnn.qubits": 6})
        b = load_config(None, {"model.qgnn.qubits": 16})
        assert a.corpus_config_hash() == b.corpus_config_hash()

    def test_changes_with_seed(self):
        a = load_config(None, {"seed": 1})
        b = load_config(None, {"seed": 2})
        assert a.corpus_config_hash() != b.corpus_config_hash()

    def test_changes_with_tda_params(self):
        a = load_config(None, {"tda.eps": 0.1})
        b = load_config(None, {"tda.eps": 0.2})
        assert a.corpus_config_hash() != b.corpus_config_hash()
