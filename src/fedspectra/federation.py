"""Round orchestration: local training, aggregation barrier, redistribution.

Clients train for `comm_interval` local epochs between aggregation events;
the server merges uploads with either plain weighted averaging or the
frequency-domain rule, optionally excluding batch-norm entries. Clients
may train on a thread pool; per-client RNG streams and a fixed aggregation
order keep results independent of scheduling.

Every client, the baseline `_Client` here and the deputy machine
`cto.ClientState`, offers one protocol to the round loop:

  client_id, data, rng          identity, local splits, private RNG stream
  step(images, labels, lr, mu)  one local SGD update on a batch at learning
                                rate `lr`; `mu` is the FedProx weight toward
                                the last received set
  end_epoch(epoch)              per-epoch hook; returns an event dict or None
  upload()                      the parameter set sent to the server
  receive(ps)                   install a server aggregate
  models()                      {name: Network} evaluated each round
  checkpoint_sets()             {name: ParameterSet} saved each round

Copy rule: every client model starts as a deep copy of one network built
from the seed. After that, parameter arrays are copied only into and out
of a Network (`import_parameters`, `parameters()`). An upload shares its
model's arrays until `receive` installs fresh copies. Uploads, aggregates
and FedProx anchors are only read; clients may share one anchor. A model
the server overwrites equals its received aggregate until the next round
trains it (round evaluation does not train), so that aggregate is also its
checkpoint payload; only a model the server never replaces is copied for
saving. The previous aggregate is released once written, so at
aggregation a client holds two parameter sets per trained model: the model
(the baseline model or the CTO deputy, which its upload shares) and the new
aggregate. A CTO client also holds its personalized network, a third.

`run_experiment` checks its inputs, builds the clients, then calls
`_run_round` once per round: train `comm_interval` local epochs, wait for
the previous round's checkpoint writes, aggregate the uploads,
redistribute, evaluate. The returned `RoundReport` holds the round's metric
records and events (guard events in epoch order, then the aggregation
event); `events.jsonl` is their concatenation.

Round r's checkpoints are written on one background thread while round
r+1 trains. The loop waits for them before the next aggregation and
before writing `metrics.csv`, so a write error stops the run there.
"""

from __future__ import annotations

import copy
import csv
import json
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import cto, fmmt, metrics
from .datasynth import SPLITS, ClientPartition, augment
from .errors import ConfigError, DomainError, ShapeError
from .nn import LrSchedule, Network, backward, build_network, cross_entropy, sgd_step
from .spectral import DOMAIN_MODES, CfaSchedule, cfa_aggregate, schedule_threshold
from .tensors import ParameterSet, require_all_congruent, require_finite

AGGREGATORS = ("fedavg", "cfa")
WRITER_THREAD_PREFIX = "fedspectra-checkpoint"


@dataclass
class FederationConfig:
    num_clients: int = 4
    comm_interval: int = 10
    total_epochs: int = 300
    aggregator: str = "cfa"
    s0: float = 0.26
    s1: float = 0.55
    lambda1: float = 0.6
    lambda2: float = 0.8
    batch_size: int = 20
    lr_initial: float = 3e-3
    lr_halve_every: int = 30
    fedprox_mu: float = 0.0
    fedbn_exclude_bn: bool = False
    cto_enabled: bool = True
    refine_trains_deputy: bool = True
    seed: int = 0
    domain_mode: str = "complex"
    arch: str = "smallcnn"
    augment: bool = True
    save_checkpoints: bool = True

    @property
    def cfa(self) -> CfaSchedule:
        return CfaSchedule(self.s0, self.s1, self.total_epochs)

    @property
    def lr(self) -> LrSchedule:
        return LrSchedule(self.lr_initial, self.lr_halve_every)

    def validate(self) -> None:
        for f in fields(self):  # NaN would pass every range check below
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        try:  # the schedules check their own ranges
            self.cfa, self.lr
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        if self.num_clients < 1:
            raise ConfigError("num_clients must be >= 1")
        if self.comm_interval < 1 or self.total_epochs < self.comm_interval:
            raise ConfigError("need total_epochs >= comm_interval >= 1")
        if self.total_epochs % self.comm_interval != 0:
            raise ConfigError("comm_interval must divide total_epochs")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"aggregator must be one of {AGGREGATORS}")
        if self.domain_mode not in DOMAIN_MODES:
            raise ConfigError(f"domain_mode must be one of {DOMAIN_MODES}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if not (0.0 <= self.lambda1 <= self.lambda2 <= 1.0):
            raise ConfigError("need 0 <= lambda1 <= lambda2 <= 1")
        if self.fedprox_mu < 0:
            raise ConfigError("fedprox_mu must be nonnegative")


@dataclass
class MetricsRecord:
    round: int
    epoch: int
    client_id: int
    model: str
    split: str
    accuracy: float
    macro_f1: float
    macro_auc: float
    loss: float

    def row(self) -> List[str]:
        return [f"{v:.12g}" if isinstance(v, float) else str(v) for v in astuple(self)]


METRICS_HEADER = [f.name for f in fields(MetricsRecord)]


@dataclass
class RoundReport:
    round: int
    epoch: int
    records: List[MetricsRecord]
    events: List[dict]


# ---------------------------------------------------------------------------
# Aggregation primitives


def fedavg_aggregate(
    sets: Sequence[ParameterSet], weights: Sequence[float]
) -> ParameterSet:
    """Weighted element-wise mean; weights normalized to sum 1. A non-finite
    upload raises NonFiniteError."""
    require_all_congruent(sets)
    if len(weights) != len(sets):
        raise DomainError("one weight per parameter set required")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w <= 0):
        raise DomainError("weights must be positive")
    w = w / w.sum()
    out = []
    for entries in zip(*(s.entries for s in sets)):
        require_finite(entries[0].name, [e.tensor for e in entries])
        acc = np.zeros_like(entries[0].tensor)
        for wk, e in zip(w, entries):
            acc += wk * e.tensor
        out.append(replace(entries[0], tensor=acc))
    return ParameterSet(out)


def fedbn_filter(ps: ParameterSet) -> Tuple[ParameterSet, ParameterSet]:
    """Partition into (shared, retained): batch-norm entries stay local."""
    shared = [e for e in ps.entries if not e.is_batchnorm]
    retained = [e for e in ps.entries if e.is_batchnorm]
    return ParameterSet(shared), ParameterSet(retained)


# ---------------------------------------------------------------------------
# Clients


@dataclass
class _Client:
    """Baseline client (FedAvg/FedProx/FedBN): one model the server overwrites."""

    client_id: int
    model: Network
    data: ClientPartition
    rng: np.random.Generator
    last_received: Optional[ParameterSet] = None

    def step(self, images, labels, lr: float, mu: float) -> None:
        backward(self.model, images, labels)
        sgd_step(self.model, lr, prox=(mu, self.last_received))

    def end_epoch(self, epoch: int) -> Optional[dict]:
        return None

    def upload(self) -> ParameterSet:
        return self.model.view()

    def receive(self, ps: ParameterSet) -> None:
        self.model.import_parameters(ps)
        self.last_received = ps

    def models(self) -> Dict[str, Network]:
        return {"model": self.model}

    def checkpoint_sets(self) -> Dict[str, ParameterSet]:
        return {"model": self.last_received}


Client = Union[_Client, cto.ClientState]


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def client_local_epoch(
    client: Client, epoch: int, cfg: FederationConfig
) -> Optional[dict]:
    """Train one local epoch; returns the client's end-of-epoch event."""
    train = client.data.train
    lr = cfg.lr.at(epoch)
    for idx in _batches(len(train), cfg.batch_size, client.rng):
        images = train.images[idx]
        labels = train.labels[idx]
        if cfg.augment:
            images = np.stack([augment(im, client.rng) for im in images])
        client.step(images, labels, lr, cfg.fedprox_mu)
    return client.end_epoch(epoch)


# ---------------------------------------------------------------------------
# Experiment loop


def _init_clients(
    cfg: FederationConfig, partitions: Sequence[ClientPartition], classes: int
) -> List[Client]:
    sample = partitions[0].train.images
    channels, height, width = sample.shape[1:]
    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    try:
        start = build_network(cfg.arch, channels, height, width, classes, init_rng)
    except ShapeError as exc:  # an unknown arch, or images too small for it
        raise ConfigError(str(exc)) from None
    clients: List[Client] = []
    for part in partitions:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2, part.client_id]))
        if cfg.cto_enabled:
            clients.append(
                cto.ClientState(
                    client_id=part.client_id,
                    personalized=copy.deepcopy(start),
                    deputy=copy.deepcopy(start),
                    data=part,
                    rng=rng,
                    lambda1=cfg.lambda1,
                    lambda2=cfg.lambda2,
                    refine_trains_deputy=cfg.refine_trains_deputy,
                )
            )
        else:
            clients.append(_Client(part.client_id, copy.deepcopy(start), part, rng))
    return clients


def _aggregate(
    cfg: FederationConfig, uploads: List[ParameterSet], weights: List[int], s: Optional[float]
) -> List[ParameterSet]:
    """Produce one new parameter set per client (identical under fedavg).
    A non-finite upload, retained FedBN entries included, raises
    NonFiniteError."""
    if cfg.fedbn_exclude_bn:
        shared_sets, retained_sets = zip(*(fedbn_filter(u) for u in uploads))
        for entries in zip(*(r.entries for r in retained_sets)):
            require_finite(entries[0].name, [e.tensor for e in entries])
    else:
        shared_sets = uploads

    if cfg.aggregator == "fedavg":
        shared_out = [fedavg_aggregate(shared_sets, weights)] * len(uploads)
    else:
        shared_out = cfa_aggregate(shared_sets, s, cfg.domain_mode)

    if not cfg.fedbn_exclude_bn:
        return shared_out
    return [  # the upload's own order; batch-norm entries stay as uploaded
        ParameterSet([e if e.is_batchnorm else out.get(e.name) for e in u.entries])
        for u, out in zip(uploads, shared_out)
    ]


def _evaluate_round(
    client: Client, round_idx: int, epoch: int, classes: int
) -> List[MetricsRecord]:
    records = []
    for model_name, net in client.models().items():
        for split in ("val", "test"):
            data = client.data.split(split)
            if len(data) == 0:
                continue
            probs = net.forward(data.images)
            preds = probs.argmax(axis=1)
            cm = metrics.confusion_matrix(data.labels, preds, classes)
            try:
                auc = metrics.macro_auc(probs, data.labels)
            except DomainError:
                auc = float("nan")
            records.append(
                MetricsRecord(
                    round=round_idx,
                    epoch=epoch,
                    client_id=client.client_id,
                    model=model_name,
                    split=split,
                    accuracy=metrics.accuracy(cm),
                    macro_f1=metrics.macro_f1(cm),
                    macro_auc=auc,
                    loss=cross_entropy(probs, data.labels),
                )
            )
    return records


def _max_workers(n_clients: int) -> int:
    raw = os.environ.get("FEDSPECTRA_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"FEDSPECTRA_THREADS must be an integer, got {raw!r}")
    if cap < 0:
        raise ConfigError("FEDSPECTRA_THREADS must be >= 0")
    if cap == 0:
        cap = min(n_clients, os.cpu_count() or 1)
    return max(1, min(cap, n_clients))


def _write_checkpoint(
    out_dir: Path, round_idx: int, client_id: int, sets: Dict[str, ParameterSet]
) -> None:
    """Write one client's {model name: set}; each manifest.csv comes last."""
    for model_name, ps in sets.items():
        cdir = (
            out_dir
            / "checkpoints"
            / f"round_{round_idx:03d}"
            / f"client_{client_id}"
            / model_name
        )
        cdir.mkdir(parents=True, exist_ok=True)
        rows = []
        for entry in ps.entries:
            fname = f"{entry.name}.fmmt"
            fmmt.write_tensor(cdir / fname, entry.tensor)
            rows.append(
                (entry.name, entry.kind, str(entry.is_batchnorm).lower(), fname)
            )
        with open(cdir / "manifest.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["name", "kind", "is_batchnorm", "filename"])
            writer.writerows(rows)


def _run_round(
    cfg: FederationConfig, clients: List[Client], classes: int, round_idx: int, run,
    pending: Sequence[Future],
) -> RoundReport:
    """Train, aggregate, redistribute and evaluate one communication round."""
    epoch = round_idx * cfg.comm_interval  # the epoch count at the aggregation
    events = []
    for e in range(epoch - cfg.comm_interval, epoch):
        events.extend(filter(None, run(lambda c: client_local_epoch(c, e, cfg), clients)))
    s = schedule_threshold(cfg.cfa, epoch) if cfg.aggregator == "cfa" else None
    for write in pending:
        write.result()  # re-raises a write's error
    for c in clients:  # written, and the epochs that read it as anchor are done
        c.last_received = None
    weights = [len(c.data.train) for c in clients]
    new_sets = _aggregate(cfg, [c.upload() for c in clients], weights, s)
    for c, ps in zip(clients, new_sets):
        c.receive(ps)
    events.append(
        {
            "type": "aggregation",
            "round": round_idx,
            "epoch": epoch,
            "s": None if s is None else round(s, 12),
        }
    )
    records = [r for c in clients for r in _evaluate_round(c, round_idx, epoch, classes)]
    return RoundReport(round_idx, epoch, records, events)


def run_experiment(
    cfg: FederationConfig,
    partitions: Sequence[ClientPartition],
    out_dir=None,
    classes: Optional[int] = None,
) -> List[RoundReport]:
    """Run the full federated training loop; write artifacts if out_dir set."""
    cfg.validate()
    metrics._warned.clear()  # each run warns once per kind
    if len(partitions) != cfg.num_clients:
        raise ConfigError(
            f"{len(partitions)} partitions for num_clients={cfg.num_clients}"
        )
    for p in partitions:
        if len(p.train) == 0:
            raise ConfigError(f"client {p.client_id} has no training data")
        if cfg.cto_enabled and len(p.val) == 0:
            raise ConfigError(f"CTO needs val data; client {p.client_id} has none")
    if classes is None:
        classes = 1 + max(
            int(p.split(s).labels.max()) for p in partitions for s in SPLITS if len(p.split(s))
        )
    for p in partitions:
        for split in SPLITS:
            labels = p.split(split).labels
            bad = labels[(labels < 0) | (labels >= classes)]
            if len(bad):
                raise ConfigError(
                    f"client {p.client_id} {split} split holds label {int(bad[0])}; "
                    f"labels must lie in [0, {classes})"
                )
    if cfg.augment:
        sample = partitions[0].train.images
        if sample.shape[-1] != sample.shape[-2]:
            raise ConfigError("augmentation requires square images")
    clients = _init_clients(cfg, partitions, classes)
    workers = _max_workers(cfg.num_clients)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    reports: List[RoundReport] = []
    with ThreadPoolExecutor(workers) as pool, ThreadPoolExecutor(1, WRITER_THREAD_PREFIX) as saver:
        # One worker trains on the main thread: on a pool thread its temporaries take a
        # second malloc arena (many_clients peak RSS 75.6-76.0 -> 78.1-78.3 MB).
        run = pool.map if workers > 1 else map
        pending = []  # the previous round's checkpoint writes
        for round_idx in range(1, cfg.total_epochs // cfg.comm_interval + 1):
            reports.append(_run_round(cfg, clients, classes, round_idx, run, pending))
            if out_dir is not None and cfg.save_checkpoints:
                pending = [
                    saver.submit(
                        _write_checkpoint, out_dir, round_idx, c.client_id,
                        c.checkpoint_sets(),
                    )
                    for c in clients
                ]
        for write in pending:
            write.result()

    if out_dir is not None:
        with open(out_dir / "metrics.csv", "w", newline="\n") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(METRICS_HEADER)
            for report in reports:
                for rec in report.records:
                    writer.writerow(rec.row())
        with open(out_dir / "events.jsonl", "w", newline="\n") as f:
            for report in reports:
                for ev in report.events:
                    f.write(json.dumps(ev, separators=(",", ":")) + "\n")
    return reports
