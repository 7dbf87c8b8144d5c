"""Full-scale gate: ``build-graphs`` on a 284 807-row surrogate of the real CSV.

Run from the repository root:

    python tests/full_scale_check.py

It writes the surrogate (284 315 clean rows, 492 fraud, seed 11) into a
temporary directory, runs ``build-graphs`` on it in a child process with the
default run seed, and fails unless the child exits 0, peaks under
``MAX_RSS_MIB`` of resident memory, and writes the corpus whose sha256 is
pinned below. The graphs read back from it, re-encoded in the dense record
this gate was first pinned on, must give the older digest too. The wall
time and the manifest's ``stage_seconds`` (load, undersample_split, graphs,
write) are printed, not checked: they depend on the host.
The file name keeps it out of the pytest suite; writing the surrogate alone
takes about 10 s.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from qgfraud.tda import read_graph_corpus  # noqa: E402
from tests.oracles import dense_corpus_bytes  # noqa: E402
from tests.synth import write_synthetic_csv  # noqa: E402

N_CLEAN, N_FRAUD, CSV_SEED = 284_315, 492, 11
RUN_SEED = 7  # the default config seed
MAX_RSS_MIB = 150
STAGES = ("load", "undersample_split", "graphs", "write")  # build-graphs' manifest stage_seconds
# sha256 of the concatenated graphs_{test,train,val}.jsonl as written, and of
# the same graphs in the dense record; the dense digest was recorded with the
# row-by-row loader this gate was added beside, so the graphs must not change
CORPUS_SHA256 = "2530dc9e698595e6744d17847dfeaec944f5477e9c67e05900d1dac80a15746d"
DENSE_CORPUS_SHA256 = "bfbfe0d59a59c782c0f50cbb350a6c0fcc2ae0170ed63575a9e48a61e8a0b467"


def corpus_sha256s(graphs_dir: Path) -> tuple[str, str]:
    """sha256 of the corpus files' bytes, and of their graphs densely re-encoded."""
    written, dense = hashlib.sha256(), hashlib.sha256()
    for path in sorted(graphs_dir.glob("graphs_*.jsonl")):
        written.update(path.read_bytes())
        dense.update(dense_corpus_bytes(read_graph_corpus(path)))
    return written.hexdigest(), dense.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "creditcard_surrogate.csv"
        write_synthetic_csv(csv_path, n_clean=N_CLEAN, n_fraud=N_FRAUD, seed=CSV_SEED)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        argv = [sys.executable, "-m", "qgfraud.cli", "build-graphs", "--dataset", str(csv_path),
                "--seed", str(RUN_SEED), "--output-dir", str(Path(tmp) / "run")]
        started = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - started
        rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
        print(f"build-graphs on {N_CLEAN + N_FRAUD} rows: exit {done.returncode}, "
              f"{wall:.2f} s wall, peak RSS {rss_mib:.1f} MiB")
        failures = []
        if done.returncode != 0:
            failures.append(f"exit {done.returncode}: {done.stderr.strip()[-500:]}")
        if rss_mib >= MAX_RSS_MIB:
            failures.append(f"peak RSS {rss_mib:.1f} MiB is not under {MAX_RSS_MIB} MiB")
        if done.returncode == 0:
            stages = json.loads((Path(tmp) / "run" / "graphs" / "manifest.json").read_text())["stage_seconds"]
            print("stage seconds: " + ", ".join(f"{name} {stages[name]:.2f}" for name in STAGES))
            shas = corpus_sha256s(Path(tmp) / "run" / "graphs")
            print(f"corpus sha256 {shas[0]}, dense re-encoding {shas[1]}")
            for what, sha, want in zip(("corpus", "dense re-encoding"), shas, (CORPUS_SHA256, DENSE_CORPUS_SHA256)):
                if sha != want:
                    failures.append(f"{what} sha256 {sha}, expected {want}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
