import numpy as np
import pytest

from qgfraud.persist import PersistError, load_arrays, save_arrays, sha256_files, staged_output


class TestNamedArrays:
    def test_round_trip(self, tmp_path):
        arrays = {
            "w": np.arange(6.0).reshape(2, 3),
            "b": np.array([0.5, -1.25]),
            "scalar": np.asarray(3.75),
        }
        meta = {"kind": "qgnn", "qubits": "6"}
        path = tmp_path / "ckpt.txt"
        save_arrays(path, arrays, meta)
        back, back_meta = load_arrays(path)
        assert back_meta == meta
        for key, arr in arrays.items():
            assert back[key].shape == arr.shape
            np.testing.assert_array_equal(back[key], arr)

    def test_round_trip_preserves_exact_floats(self, tmp_path):
        arrays = {"w": np.array([0.1, 1e-17, -2.5e300, np.pi])}
        path = tmp_path / "ckpt.txt"
        save_arrays(path, arrays, {})
        back, _ = load_arrays(path)
        np.testing.assert_array_equal(back["w"], arrays["w"])

    def test_save_is_deterministic(self, tmp_path):
        arrays = {"b": np.array([1.0, 2.0]), "a": np.eye(2)}
        save_arrays(tmp_path / "x.txt", arrays, {"k": "v"})
        save_arrays(tmp_path / "y.txt", arrays, {"k": "v"})
        assert (tmp_path / "x.txt").read_bytes() == (tmp_path / "y.txt").read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistError, match="not found"):
            load_arrays(tmp_path / "none.txt")

    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("hello\n")
        with pytest.raises(PersistError):
            load_arrays(p)

    def test_multiline_meta_rejected(self, tmp_path):
        with pytest.raises(PersistError):
            save_arrays(tmp_path / "x.txt", {}, {"k": "a\nb"})


class TestStagedOutput:
    def test_success_renames_into_place(self, tmp_path):
        final = tmp_path / "out"
        with staged_output(final) as tmp:
            (tmp / "file.txt").write_text("done")
        assert (final / "file.txt").read_text() == "done"
        assert not list(tmp_path.glob("out.staging*"))

    def test_failure_leaves_target_absent(self, tmp_path):
        final = tmp_path / "out"
        with pytest.raises(RuntimeError):
            with staged_output(final) as tmp:
                (tmp / "partial.txt").write_text("half")
                raise RuntimeError("boom")
        assert not final.exists()
        assert not list(tmp_path.glob("out.staging*"))

    def test_failure_keeps_previous_version(self, tmp_path):
        final = tmp_path / "out"
        with staged_output(final) as tmp:
            (tmp / "v.txt").write_text("v1")
        with pytest.raises(RuntimeError):
            with staged_output(final) as tmp:
                raise RuntimeError("boom")
        assert (final / "v.txt").read_text() == "v1"

    def test_rerun_replaces_previous_version(self, tmp_path):
        final = tmp_path / "out"
        for content in ("v1", "v2"):
            with staged_output(final) as tmp:
                (tmp / "v.txt").write_text(content)
        assert (final / "v.txt").read_text() == "v2"


    def test_interleaved_runs_keep_their_own_staging(self, tmp_path):
        final = tmp_path / "out"
        with staged_output(final) as first:
            (first / "who.txt").write_text("first")
            with staged_output(final) as second:
                assert second != first
                (second / "who.txt").write_text("second")
            assert (final / "who.txt").read_text() == "second"
            assert (first / "who.txt").read_text() == "first"
        assert (final / "who.txt").read_text() == "first"
        assert not list(tmp_path.glob("out.staging*"))


class TestHashing:
    def test_order_independent(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("one")
        b.write_text("two")
        assert sha256_files([a, b]) == sha256_files([b, a])

    def test_content_sensitive(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("one")
        h1 = sha256_files([a])
        a.write_text("two")
        assert sha256_files([a]) != h1
