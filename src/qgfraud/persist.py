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
    """Returns (arrays, meta) as written by ``save_arrays``; anything else is a
    ``PersistError`` that names the file and line."""
    p = Path(path)
    if not p.exists():
        raise PersistError(f"checkpoint not found: {p}")
    arrays: dict = {}
    meta: dict = {}
    data = p.read_bytes()
    try:
        first, *rest = data.decode().splitlines() or [""]
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise PersistError(f"{p}: line {lineno}: not UTF-8 text") from None
    if first != MAGIC:
        raise PersistError(f"{p}: not a named-array file (header {first!r})")
    lines = enumerate(rest, start=2)
    for lineno, line in lines:
        try:
            head, *fields = line.split(" ", 2)
            if head in ("meta", "array") and len(fields) < 2:
                raise ValueError(f"{head} line needs a name and a value")
            if head == "meta":
                meta[fields[0]] = fields[1]
            elif head == "array":
                name, shape_s = fields
                shape = () if shape_s == "-" else tuple(int(d) for d in shape_s.split(","))
                lineno, values = next(lines, (lineno + 1, ""))
                arr = np.array([float(v) for v in values.split()], dtype=float)
                expected = int(np.prod(shape)) if shape else 1
                if arr.size != expected:
                    raise ValueError(f"array {name} has {arr.size} values, expected {expected}")
                arrays[name] = arr.reshape(shape)
            elif line:
                raise ValueError(f"unrecognised line {line!r}")
        except ValueError as exc:
            raise PersistError(f"{p}: line {lineno}: {exc}") from None
    return arrays, meta


@contextmanager
def staged_output(final_dir):
    """Build outputs in a sibling temp dir, then rename into place.

    An interrupted run leaves the final directory untouched (absent or the
    previous complete version); only a finished run is renamed in. Each run
    stages in its own uniquely named directory, so two runs aimed at one
    target never delete each other's work; the last to finish wins. The swap
    renames the previous version aside before renaming the new one in, and
    deletes it only once the new one is in place, so the only tree a run ever
    deletes is one it moved out of the final path itself, and a failed swap
    puts the previous version back.
    """
    final = Path(final_dir)
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=final.name + ".staging-", dir=final.parent))
    aside = tmp.with_name(tmp.name + ".replaced")
    try:
        yield tmp
        try:
            final.rename(aside)
        except FileNotFoundError:
            pass  # no previous version
        tmp.rename(final)
    except BaseException:
        # also when the swap itself fails, e.g. a concurrent run finishing
        # first: the staging directory never outlives the call
        shutil.rmtree(tmp, ignore_errors=True)
        if aside.exists() and not final.exists():
            aside.rename(final)
        raise
    finally:
        shutil.rmtree(aside, ignore_errors=True)


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
