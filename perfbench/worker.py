"""One workload in one fresh process: set-up, timed federated runs, checks.

Started by `run.py`, which pins every thread pool to one thread and times
set-up from this process's start. Prints one JSON line for `run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import oracles
from spans import Tracer, per_layer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import fedspectra
    from fedspectra import config, cto, datasynth, federation, fmmt, metrics, nn, spectral

    if Path(fedspectra.__file__).resolve().parent != ROOT / "src" / "fedspectra":
        raise SystemExit(f"fedspectra imported from {fedspectra.__file__}, not {ROOT / 'src'}")
    return {"config": config, "cto": cto, "datasynth": datasynth, "federation": federation,
            "fmmt": fmmt, "metrics": metrics, "nn": nn, "spectral": spectral}


def _run_config(mods, workload, data_seed):
    cfg = mods["config"].load_config(ROOT / "configs" / "desk.cfg")
    for key, value in workload.overrides.items():
        mods["config"].apply_setting(cfg, key, value)
    cfg.validate()
    spec = cfg.synth_spec()
    spec.seed = data_seed
    return cfg, spec


def _labels(partitions):
    return [
        {s: p.split(s).labels for s in ("val", "test") if len(p.split(s))}
        for p in partitions
    ]


def _models(cfg) -> tuple:
    return ("deputy", "personalized") if cfg.cto_enabled else ("model",)


def _check_run(mods, workload, cfg, spec, partitions, run_dir, data_dir) -> list:
    rounds = cfg.total_epochs // cfg.comm_interval
    rows = oracles.read_metrics(run_dir)
    events = oracles.read_events(run_dir)
    errors = oracles.check_metrics(rows, rounds, cfg.comm_interval, _models(cfg),
                                   _labels(partitions))
    errors += oracles.check_events(
        events, cfg.num_clients, cfg.total_epochs, cfg.comm_interval,
        (cfg.lambda1, cfg.lambda2) if cfg.cto_enabled else None,
        (cfg.s0, cfg.s1) if cfg.aggregator == "cfa" else None)

    def checkpoints(rnd):
        return [
            oracles.read_checkpoint(run_dir / "checkpoints" / f"round_{rnd:03d}"
                                    / f"client_{k}" / "model")
            for k in range(cfg.num_clients)
        ]

    if "shared_low_band" in workload.extra_checks:
        s_of = {ev["round"]: ev["s"] for ev in events if ev["type"] == "aggregation"}
        for rnd in range(1, rounds + 1):
            clients = [{n: t for n, (t, _) in c.items()} for c in checkpoints(rnd)]
            errors += [f"round {rnd}: {e}" for e in oracles.check_shared_low_band(clients, s_of[rnd])]
    if "fedbn_shared" in workload.extra_checks:
        for rnd in range(1, rounds + 1):
            clients = checkpoints(rnd)
            bn_differs = False
            for name, (t0, is_bn) in clients[0].items():
                same = all(np.array_equal(c[name][0], t0) for c in clients[1:])
                bn_differs |= is_bn and not same
                if not is_bn and not same:
                    errors.append(f"round {rnd}: shared entry {name} differs across clients")
            if not bn_differs:
                errors.append(f"round {rnd}: every batch-norm entry is identical across clients")
    if "accuracy" in workload.extra_checks:
        reported = {int(r["client_id"]): float(r["accuracy"]) for r in rows
                    if int(r["round"]) == rounds and r["split"] == "test"}
        for k, ckpt in enumerate(checkpoints(rounds)):
            test = partitions[k].test
            if len(test):
                params = {n: t for n, (t, _) in ckpt.items()}
                errors += [f"client {k}: {e}" for e in
                           oracles.check_accuracy(params, test.images, test.labels, reported[k])]
    if "data_roundtrip" in workload.extra_checks:
        errors += _check_roundtrip(mods, spec, partitions, data_dir)
    return errors


def _check_roundtrip(mods, spec, loaded, data_dir) -> list:
    """Data read back through load_dataset, and each exported file parsed
    with the struct reader, equal freshly generated data bit for bit."""
    errors = []
    generated = mods["datasynth"].generate(spec)
    for gen, got in zip(generated, loaded):
        for split in ("train", "val", "test"):
            g, l = gen.split(split), got.split(split)
            if not (np.array_equal(g.images, l.images) and np.array_equal(g.labels, l.labels)):
                errors.append(f"client {gen.client_id} {split}: loaded data != generated data")
            for i, image in enumerate(g.images):
                path = data_dir / f"client_{gen.client_id}" / "images" / f"{split}_{i:05d}.fmmt"
                if not np.array_equal(oracles.read_fmmt(path), image):
                    errors.append(f"{path}: differs from the generated image")
                    break
    if len(generated) != len(loaded):
        errors.append(f"{len(loaded)} clients loaded, {len(generated)} generated")
    return errors


def _final_f1(rows, model) -> float:
    rounds = max(int(r["round"]) for r in rows)
    f1 = [float(r["macro_f1"]) for r in rows
          if int(r["round"]) == rounds and r["split"] == "test" and r["model"] == model]
    return sum(f1) / len(f1)


def _artifacts(run_dir) -> bytes:
    return (run_dir / "metrics.csv").read_bytes() + (run_dir / "events.jsonl").read_bytes()


def prepare(args) -> None:
    """Export the workload's dataset to FMMT files (not timed)."""
    mods = _import_program()
    _, spec = _run_config(mods, WORKLOADS[args.workload], args.seed)
    mods["datasynth"].export_dataset(mods["datasynth"].generate(spec), args.data)


def measure(args) -> dict:
    mods = _import_program()
    workload = WORKLOADS[args.workload]
    federation, datasynth = mods["federation"], mods["datasynth"]
    tracer = Tracer(mods) if args.trace else None
    traced = tracer.installed if tracer else contextlib.nullcontext

    with traced():
        cfg, spec = _run_config(mods, workload, args.seed)
        if workload.from_disk:
            partitions = datasynth.load_dataset(args.data)
        else:
            partitions = datasynth.generate(spec)
    setup_done = time.monotonic()

    fcfg = cfg.federation_config()
    run_dir = args.out / "run"
    run_s, errors, failed, first = [], [], 0, None
    # A traced run times one untraced federated run and then one traced
    # run, in the same process, so that the tracing overhead can be read.
    plan = [False, True] if args.trace else [False]
    window_start, passes = time.monotonic(), 0
    while True:
        for with_trace in plan:
            shutil.rmtree(run_dir, ignore_errors=True)
            with (traced() if with_trace else contextlib.nullcontext()):
                t0 = time.perf_counter()
                try:
                    federation.run_experiment(fcfg, partitions, out_dir=run_dir,
                                              classes=cfg.classes)
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    errors.append(f"run_experiment: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    elapsed = time.perf_counter() - t0
            run_s.append((with_trace, elapsed))
            artifacts = _artifacts(run_dir)
            first = first or artifacts
            if artifacts != first:
                errors.append("metrics.csv/events.jsonl differ between runs of one seed")
        passes += 1
        # Start another pass only if it is expected to end within the window.
        spent = time.monotonic() - window_start
        if args.trace or spent * (passes + 1) / passes > args.seconds:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_done": setup_done, "attempted": len(run_s) + failed, "failed": failed,
              "rss_kb": rss_kb,
              "run_s": [t for tr, t in run_s if not tr],
              "errors": errors}
    if not run_s:
        return result
    errors += _check_run(mods, workload, cfg, spec, partitions, run_dir, args.data)
    result["f1"] = _final_f1(oracles.read_metrics(run_dir), _models(cfg)[-1])
    if tracer:
        summary = tracer.summary()
        errors += tracer.errors
        errors += [f"traced run recorded no call to {n}" for n in workload.expect
                   if not summary.get(n, {}).get("calls")]
        errors += [f"traced run called {n}, which this workload bypasses" for n in workload.absent
                   if summary.get(n, {}).get("calls")]
        layers = per_layer(summary, tracer, cfg.total_epochs // cfg.comm_interval, cfg.num_clients)
        traced_s = [t for tr, t in run_s if tr]
        overhead = traced_s[0] - tracer.check_s - result["run_s"][0]
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        result["per_layer"] = layers
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(args.trace_dir / f"{args.workload}-s{args.seed}.jsonl")
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--data", type=Path)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args()
    if args.prepare:
        prepare(args)
        return
    print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
