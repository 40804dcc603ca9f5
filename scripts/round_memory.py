"""Measure what a CFA run costs as the client count N grows: wall time,
the tracemalloc peak and the process's peak RSS.

For each N in 4, 32 and 128, a fresh Python process runs
`configs/desk.cfg` with N clients, CTO off, CFA after every local epoch,
3 epochs and checkpoints on, with one training thread and one BLAS
thread. It generates the data, then runs the experiment twice:

- untraced, for the wall time (`run_s`) and `ru_maxrss` after the run
  (data set-up included, as perfbench's `peak_rss_mb`);
- under tracemalloc, for the peak above what was allocated before the run
  (`peak_MB`, the data excluded). `sets/client` divides that peak by N
  parameter sets of the run's network.

    python3 scripts/round_memory.py                    # the working tree
    python3 scripts/round_memory.py --against HEAD~1   # and HEAD~1

With `--against <rev>`, the committed tree of <rev> is extracted with
`git archive` (as `same_bytes.py` does) and every N runs on both sides,
the working tree first. Numbers depend on the machine and the numpy build:
compare two revisions in one call.

Exits 1, after printing every row, when the working tree holds more than
`MAX_SETS_PER_CLIENT` parameter sets per client at N = 128. At aggregation
a client holds two sets, its model and the new aggregate, so a third set
per client means a copy came back.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import same_bytes

ROOT = Path(__file__).resolve().parent.parent
OVERRIDES = {"cto_enabled": "false", "comm_interval": "1", "total_epochs": "3",
             "save_checkpoints": "true"}
CLIENTS = (4, 32, 128)
MAX_SETS_PER_CLIENT = 3.0  # at N = 128; the bound TestRoundMemory holds at N = 32
PINNED = {"FEDSPECTRA_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def _measure(n: int, tree: Path) -> dict:
    """One N in this process, from whatever `fedspectra` is importable."""
    from fedspectra import config, datasynth, federation, nn

    cfg = config.load_config(tree / "configs" / "desk.cfg")
    for key, value in {"num_clients": str(n), **OVERRIDES}.items():
        config.apply_setting(cfg, key, value)
    cfg.validate()
    partitions = datasynth.generate(cfg.synth_spec())
    fcfg = cfg.federation_config()
    shape = partitions[0].train.images.shape[1:]
    start = nn.build_network(fcfg.arch, *shape, cfg.classes, np.random.default_rng(0))
    set_bytes = sum(e.tensor.nbytes for e in start.parameters())

    def run():
        with tempfile.TemporaryDirectory(prefix="round_memory_") as out:
            federation.run_experiment(fcfg, partitions, out_dir=out, classes=cfg.classes)

    t0 = time.perf_counter()
    run()
    run_s = time.perf_counter() - t0
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"run_s": run_s, "peak_mb": peak / 1e6, "sets_per_client": peak / (n * set_bytes),
            "maxrss_mb": maxrss_mb}


def _spawn(n: int, tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **PINNED)
    cmd = [sys.executable, __file__, "--one", str(n), "--tree", str(tree)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"round_memory: N={n} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also run this git revision")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--tree", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one is not None:  # a child: one N, one JSON line
        print(json.dumps(_measure(args.one, args.tree)))
        return 0

    with tempfile.TemporaryDirectory(prefix="round_memory_src_") as tmp:
        sides = {"tree": ROOT}
        if args.against:
            commit = same_bytes.extract(args.against, Path(tmp) / "against_src")
            print(f"against {args.against} = {commit}")
            sides["against"] = Path(tmp) / "against_src"
        print(f"{'N':>5} {'side':<8} {'run_s':>7} {'peak_MB':>8} {'sets/client':>11} "
              f"{'maxrss_MB':>9}")
        failed = False
        for n in CLIENTS:
            for side, tree in sides.items():
                r = _spawn(n, tree)
                print(f"{n:>5} {side:<8} {r['run_s']:>7.2f} {r['peak_mb']:>8.1f} "
                      f"{r['sets_per_client']:>11.2f} {r['maxrss_mb']:>9.1f}", flush=True)
                if n == 128 and side == "tree" and r["sets_per_client"] > MAX_SETS_PER_CLIENT:
                    failed = True
    if failed:
        print(f"round_memory: more than {MAX_SETS_PER_CLIENT} sets per client at N = 128",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
