"""On-disk formats: named-array checkpoints, manifests, atomic output dirs.

Checkpoints are a line-oriented text format so that reruns with the same seed
produce byte-identical files (binary containers tend to embed timestamps):

    #named-arrays v1
    meta <key> <value>
    array <name> <dim,dim,...>
    <space-joined floats, flattened>
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = "#named-arrays v1"


class PersistError(ValueError):
    pass


def save_arrays(path, arrays: dict, meta: dict) -> None:
    with open(path, "w") as fh:
        fh.write(MAGIC + "\n")
        for key in sorted(meta):
            value = str(meta[key])
            if "\n" in value:
                raise PersistError(f"meta value for {key!r} must be single-line")
            fh.write(f"meta {key} {value}\n")
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype=float)
            shape = ",".join(str(d) for d in arr.shape) or "-"
            fh.write(f"array {name} {shape}\n")
            fh.write(" ".join(repr(float(x)) for x in arr.reshape(-1)) + "\n")


def load_arrays(path):
    """Returns (arrays, meta) as written by ``save_arrays``."""
    p = Path(path)
    if not p.exists():
        raise PersistError(f"checkpoint not found: {p}")
    arrays: dict = {}
    meta: dict = {}
    with open(p) as fh:
        first = fh.readline().rstrip("\n")
        if first != MAGIC:
            raise PersistError(f"{p}: not a named-array file (header {first!r})")
        line = fh.readline()
        while line:
            line = line.rstrip("\n")
            if line.startswith("meta "):
                _, key, value = line.split(" ", 2)
                meta[key] = value
            elif line.startswith("array "):
                _, name, shape_s = line.split(" ", 2)
                shape = () if shape_s == "-" else tuple(int(d) for d in shape_s.split(","))
                values = fh.readline().split()
                arr = np.array([float(v) for v in values], dtype=float)
                expected = int(np.prod(shape)) if shape else 1
                if arr.size != expected:
                    raise PersistError(f"{p}: array {name} has {arr.size} values, expected {expected}")
                arrays[name] = arr.reshape(shape)
            elif line:
                raise PersistError(f"{p}: unrecognised line {line!r}")
            line = fh.readline()
    return arrays, meta


@contextmanager
def staged_output(final_dir):
    """Build outputs in a sibling temp dir, then rename into place.

    An interrupted run leaves the final directory untouched (absent or the
    previous complete version); only a finished run is renamed in. Each run
    stages in its own uniquely named directory, so two runs aimed at one
    target never delete each other's work; the last to finish wins.
    """
    final = Path(final_dir)
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=final.name + ".staging-", dir=final.parent))
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)


def sha256_files(paths) -> str:
    """Digest over file names and contents, order-independent of the caller."""
    digest = hashlib.sha256()
    for p in sorted(Path(x) for x in paths):
        digest.update(p.name.encode())
        digest.update(b"\0")
        digest.update(p.read_bytes())
    return digest.hexdigest()


def write_manifest(dir_path, payload: dict) -> None:
    with open(Path(dir_path) / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
