"""fedspectra benchmark: one workload per call, in a fresh worker process.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The worker runs with the client
pool and BLAS pinned to one thread. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, holding
the end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. Exits 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TRACE_DIR = ROOT / ".perfbench_trace"
# The driver allows 180 s per call; leave room for clean-up.
DEADLINE_S = 170.0
PINNED = {"FEDSPECTRA_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "test_macro_f1": "1"}


def _worker(args, out, extra, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--data", str(out / "data")] + extra
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/fedspectra/__init__.py", "configs/desk.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a fedspectra checkout ({', '.join(missing)} missing under {ROOT})",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    env = dict(os.environ, **PINNED)
    out = OUT_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        if WORKLOADS[args.workload].from_disk:
            _worker(args, out, ["--prepare"], env, DEADLINE_S)
        spawned = time.monotonic()
        stdout = _worker(args, out, ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                     "--trace-dir", str(TRACE_DIR)],
                         env, DEADLINE_S - (spawned - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    res = json.loads(stdout.strip().splitlines()[-1])
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if "f1" not in res:
        return 1
    if args.trace:
        metrics = res["per_layer"]
    else:
        values = {"setup_s": res["setup_done"] - spawned,
                  "run_s": statistics.median(res["run_s"]),
                  "peak_rss_mb": res["rss_kb"] / 1024.0,
                  "test_macro_f1": res["f1"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    correct = not res["errors"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
