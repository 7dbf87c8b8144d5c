"""qgfraud benchmark: one workload, one seed, one measured process.

Usage, from the repository root:

    python3 qgbench/run.py --workload desk_sage --seed 11 --seconds 25 --trace 0

Workloads: desk_sage, qgnn_q6, score_q16 (see qgbench/METRICS.md). The
measuring process is a child started with BLAS threads capped in its
environment, so a run keeps to one core of load; this parent only checks
that the sources are present, starts it, waits for it and passes on its
exit code. The last line the child prints is the JSON result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170
REQUIRED = ("src/qgfraud/cli.py", "tests/synth.py", "tests/oracles.py")


def main() -> int:
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root), str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    worker = Path(__file__).resolve().with_name("worker.py")
    try:
        return subprocess.run([sys.executable, str(worker), *sys.argv[1:]], env=env, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: the measured run took longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
