"""Experiment runner CLI.

Subcommands:
  run       execute one experiment from a config file
  sweep     repeat the experiment over a list of client counts
  report    summarize a finished run directory
  gen-data  materialize the synthetic dataset to disk

Exit codes: 0 success, 1 runtime failure, 2 configuration/parse error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .config import RunConfig, apply_setting, load_config, serialize_config
from .datasynth import export_dataset, generate, load_dataset
from .errors import ConfigError, FedSpectraError
from .federation import run_experiment

PREFERRED_MODELS = ("personalized", "model", "deputy")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedspectra", description="Federated learning simulation engine"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to key = value config")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="K=V",
            help="override a config key (repeatable)",
        )
        p.add_argument("--out", help="output directory (overrides out_dir)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_run = sub.add_parser("run", help="run one experiment")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="run the experiment per client count")
    common(p_sweep)
    p_sweep.add_argument(
        "--clients", required=True, help="comma-separated client counts, e.g. 4,8,16"
    )

    p_report = sub.add_parser("report", help="summarize a run directory")
    p_report.add_argument("run_dir", help="directory containing metrics.csv")

    p_gen = sub.add_parser("gen-data", help="materialize the synthetic dataset")
    common(p_gen)
    return parser


def _resolve(args) -> RunConfig:
    cfg = load_config(args.config)
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects K=V, got {item!r}")
        key, raw = item.split("=", 1)
        apply_setting(cfg, key.strip(), raw, where="--set")
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    return cfg


def _partitions_for(cfg: RunConfig):
    if cfg.dataset_dir:
        return load_dataset(cfg.dataset_dir)
    return generate(cfg.synth_spec())


def _execute_run(cfg: RunConfig) -> None:
    out_dir = Path(cfg.out_dir)
    run_experiment(
        cfg.federation_config(), _partitions_for(cfg), out_dir=out_dir, classes=cfg.classes
    )
    (out_dir / "resolved_config.txt").write_text(serialize_config(cfg))


def cmd_run(args) -> int:
    _execute_run(_resolve(args))
    return 0


def _defined(value: float) -> Optional[float]:
    """None for a metric that is undefined (NaN), such as the AUC of a
    split holding a single class. No metric can be infinite."""
    if math.isinf(value):
        raise ValueError(f"infinite metric {value}")
    return None if math.isnan(value) else value


def _final_summary(run_dir: Path) -> dict:
    """Final-round test metrics of the preferred model, per client and mean."""
    path = run_dir / "metrics.csv"
    if not path.exists():
        raise FedSpectraError(f"{path} not found")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise FedSpectraError(f"no evaluation rows in {path}")
    keys = ("accuracy", "macro_f1", "macro_auc")
    try:
        final_round = max(int(r["round"]) for r in rows)
        model = next((m for m in PREFERRED_MODELS if any(r["model"] == m for r in rows)), None)
        selected = [
            r
            for r in rows
            if int(r["round"]) == final_round and r["model"] == model and r["split"] == "test"
        ]
        if not selected:
            raise FedSpectraError(f"no final-round test rows in {path}")
        clients = {
            r["client_id"]: {k: _defined(float(r[k])) for k in keys}
            for r in sorted(selected, key=lambda r: int(r["client_id"]))
        }
        if len(clients) != len(selected):
            raise ValueError("a client has more than one final-round test row")
    except (KeyError, TypeError, ValueError) as exc:  # no column, short row, bad number
        raise FedSpectraError(f"malformed {path}: {type(exc).__name__}: {exc}") from None
    avg = {}
    for k in keys:  # over the clients where the metric is defined
        vals = [v[k] for v in clients.values() if v[k] is not None]
        avg[k] = sum(vals) / len(vals) if vals else None
    return {
        "round": final_round,
        "model": model,
        "split": "test",
        "clients": clients,
        "avg": avg,
    }


def cmd_sweep(args) -> int:
    base = _resolve(args)
    try:
        client_counts = [int(tok) for tok in args.clients.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--clients expects integers, got {args.clients!r}")
    if not client_counts or any(n < 1 for n in client_counts):
        raise ConfigError("--clients needs positive integers")
    repeated = [n for n in client_counts if client_counts.count(n) > 1]
    if repeated:
        raise ConfigError(f"--clients lists {repeated[0]} twice")

    sweep_dir = Path(base.out_dir)  # created by the first run, as n<K>/'s parent
    rows = []
    for n in client_counts:
        cfg = dataclasses.replace(base, num_clients=n, out_dir=str(sweep_dir / f"n{n}"))
        _execute_run(cfg)
        avg = _final_summary(Path(cfg.out_dir))["avg"]
        rows.append(
            [
                str(n),
                cfg.aggregator,
                "true" if cfg.cto_enabled else "false",
            ]
            + ["nan" if avg[k] is None else f"{avg[k]:.12g}" for k in avg]
        )
    with open(sweep_dir / "sweep.csv", "w", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["n_clients", "aggregator", "cto_enabled", "accuracy", "macro_f1", "macro_auc"]
        )
        writer.writerows(rows)
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    summary = _final_summary(run_dir)
    avg = summary["avg"]
    print(f"final round {summary['round']}, model={summary['model']}, split=test")
    print(f"{'client':>8} {'accuracy':>10} {'macro_f1':>10} {'macro_auc':>10}")
    for cid, vals in list(summary["clients"].items()) + [("Avg", avg)]:
        cells = ("n/a" if vals[k] is None else f"{vals[k]:.4f}" for k in vals)
        print(f"{cid:>8} " + " ".join(f"{c:>10}" for c in cells))
    text = json.dumps(summary, indent=2, allow_nan=False)
    (run_dir / "summary.json").write_text(text + "\n")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    partitions = generate(cfg.synth_spec())
    export_dataset(partitions, Path(cfg.out_dir))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "report": cmd_report,
        "gen-data": cmd_gen_data,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FedSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be created or written
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
