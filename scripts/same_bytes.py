"""Show that a change keeps a run's bytes: hash seed-0 runs, optionally
against another revision.

Runs each configuration below from a checkout's `src/`, two at a time,
and prints the sha256 of `metrics.csv` and `events.jsonl` and one digest
per checkpoint tree (sha256 over each file's relative path and sha256).

    python3 scripts/same_bytes.py                    # the working tree
    python3 scripts/same_bytes.py --against HEAD~1   # and HEAD~1

With `--against <rev>`, the committed tree of <rev> is extracted with
`git archive` into a temporary directory (nothing is registered in the
repository, so an interrupted comparison leaves no state behind), the
same runs are repeated there, and each configuration prints "same" or
"DIFFERS" for each artifact: metrics.csv, events.jsonl and the
checkpoint tree (with the count of checkpoint files that differ). The
exit status is 1 if any run fails or any file differs.

The hashes depend on the numpy and BLAS build: compare two revisions on
one machine, and do not commit the hashes as a test.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (--set overrides of configs/desk.cfg, FEDSPECTRA_THREADS). desk.cfg
# runs CFA + CTO on smallcnn with checkpoints on, and every configuration
# keeps them: metrics.csv prints 12 digits, so a change in the last bits
# of the weights can leave it and events.jsonl unchanged.
CONFIGS = {
    "as_shipped": ([], "1"),
    "cto_off": (["cto_enabled=false"], "1"),
    "fedprox": (["fedprox_mu=0.01"], "1"),
    "fedavg_fedprox_fedbn": (
        ["aggregator=fedavg", "cto_enabled=false", "fedprox_mu=0.01",
         "fedbn_exclude_bn=true", "arch=smallcnn_bn"], "1"),
    "frozen_refine": (["refine_trains_deputy=false"], "1"),
    "cto_smallcnn_bn": (["arch=smallcnn_bn"], "1"),
    # N > 4 through CFA: aggregation after every epoch, saturated from round 6
    "cfa_32_clients": (
        ["num_clients=32", "cto_enabled=false", "comm_interval=1", "total_epochs=7"], "1"),
    # the stacked CFA path (complex mode filters client by client)
    "amplitude_phase": (["domain_mode=amplitude_phase", "cto_enabled=false"], "1"),
    # the thread rule: any FEDSPECTRA_THREADS gives the same bytes
    "as_shipped_threads2": ([], "2"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _file_hashes(run_dir: Path) -> dict:
    """Relative path -> sha256 of every file the determinism contract covers."""
    files = [run_dir / "metrics.csv", run_dir / "events.jsonl"]
    files += sorted(p for p in (run_dir / "checkpoints").rglob("*") if p.is_file())
    return {p.relative_to(run_dir).as_posix(): _sha256(p) for p in files}


def _tree_digest(hashes: dict) -> str:
    lines = "".join(f"{k}\0{v}\n" for k, v in hashes.items() if k.startswith("checkpoints/"))
    return hashlib.sha256(lines.encode()).hexdigest() if lines else "-"


def _run(tree: Path, work: Path, name: str) -> dict:
    """Run one configuration from `tree`'s sources in `work/name` and hash it.

    The run directory is the relative path `run`, so `resolved_config.txt`
    is the same on both sides."""
    overrides, threads = CONFIGS[name]
    cwd = work / name
    cwd.mkdir(parents=True)
    cmd = [sys.executable, "-m", "fedspectra.cli", "run",
           "--config", str(tree / "configs" / "desk.cfg"), "--seed", "0", "--out", "run"]
    for item in overrides:
        cmd += ["--set", item]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), FEDSPECTRA_THREADS=threads)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return _file_hashes(cwd / "run")


def extract(rev: str, dest: Path) -> str:
    """Write the committed tree of `rev` into the new directory `dest`;
    return the full commit id."""
    parsed = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if parsed.returncode != 0:
        raise SystemExit(f"same_bytes: {rev!r} is not a commit of {ROOT}")
    commit = parsed.stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _verdicts(ours: dict, theirs: dict) -> str:
    """One "same"/"DIFFERS" per artifact of two runs' file hashes."""
    words = [
        f"{name} {'same' if ours[name] == theirs[name] else 'DIFFERS'}"
        for name in ("metrics.csv", "events.jsonl")
    ]
    ckpts = sorted(p for p in set(ours) | set(theirs) if p.startswith("checkpoints/"))
    n_diff = sum(ours.get(p) != theirs.get(p) for p in ckpts)
    words.append("checkpoints same" if n_diff == 0
                 else f"checkpoints DIFFERS ({n_diff} of {len(ckpts)} files)")
    return ", ".join(words)


def _print_hashes(label: str, name: str, hashes: dict) -> None:
    n_ckpt = sum(k.startswith("checkpoints/") for k in hashes)
    print(f"{label:<8} {name:<22} metrics.csv {hashes['metrics.csv']}")
    print(f"{'':<31} events.jsonl {hashes['events.jsonl']}")
    print(f"{'':<31} checkpoints {_tree_digest(hashes)} ({n_ckpt} files)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also run this git revision and compare")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = Path(tmp)
        sides = {"tree": ROOT}
        if args.against:
            commit = extract(args.against, tmp / "against_src")
            print(f"against {args.against} = {commit}")
            sides["against"] = tmp / "against_src"
        jobs = [(side, name) for name in CONFIGS for side in sides]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {
                job: pool.submit(_run, sides[job[0]], tmp / f"runs_{job[0]}", job[1])
                for job in jobs
            }
            results = {}
            failed = False
            for job, future in futures.items():
                try:
                    results[job] = future.result()
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    failed = True
    if failed:
        return 1

    differs = False
    for name in CONFIGS:
        for side in sides:
            _print_hashes(side, name, results[side, name])
        if args.against:
            ours, theirs = results["tree", name], results["against", name]
            differs |= ours != theirs
            print(f"{name}: {_verdicts(ours, theirs)}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
