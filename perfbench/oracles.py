"""Checks that are computed apart from the program under test.

Nothing here imports `fedspectra`: the FFT is `numpy.fft`, the FMMT files
are parsed with `struct`, and the eval-mode forward pass is written with
`einsum` and pooling over array views. Each checker returns a list of
error strings; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

# Relative tolerance for results that went through a different FFT.
FFT_RTOL = 1e-9
# Batch-norm epsilon, as documented for the program's BatchNorm layer.
BN_EPS = 1e-5


# ---------------------------------------------------------------------------
# FMMT files


def read_fmmt(path) -> np.ndarray:
    """Parse one FMMT file: b"FMMT", u32 version 1, u8 dtype code
    (1 = f4, 2 = f8), u32 ndim, ndim u32 dims, row-major payload."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"FMMT":
        raise ValueError(f"{path}: bad magic")
    version, code, ndim = struct.unpack_from("<IBI", raw, 4)
    if version != 1 or code not in (1, 2):
        raise ValueError(f"{path}: version {version}, dtype code {code}")
    dims = struct.unpack_from(f"<{ndim}I", raw, 13)
    offset = 13 + 4 * ndim
    dtype = np.dtype("<f4") if code == 1 else np.dtype("<f8")
    count = math.prod(dims)
    if len(raw) - offset != count * dtype.itemsize:
        raise ValueError(f"{path}: payload of {len(raw) - offset} bytes for dims {dims}")
    return np.frombuffer(raw, dtype=dtype, offset=offset).reshape(dims).astype(np.float64)


def fmmt_size(tensor: np.ndarray) -> int:
    """Bytes of the FMMT file the program writes for `tensor`."""
    itemsize = 4 if tensor.dtype == np.float32 else 8
    return 13 + 4 * tensor.ndim + itemsize * tensor.size


def read_checkpoint(model_dir) -> dict:
    """{entry name: (tensor, is_batchnorm)} from one checkpoint directory."""
    model_dir = Path(model_dir)
    with open(model_dir / "manifest.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return {
        r["name"]: (read_fmmt(model_dir / r["filename"]), r["is_batchnorm"] == "true")
        for r in rows
    }


# ---------------------------------------------------------------------------
# Frequency-domain aggregation


def conv_to_matrix(w: np.ndarray) -> np.ndarray:
    """[A, B, c1, c2] -> [A*c1, B*c2], element (a, b, i, j) at (a*c1+i, b*c2+j)."""
    a, b, c1, c2 = w.shape
    out = np.empty((a * c1, b * c2))
    for i in range(c1):
        for j in range(c2):
            out[i::c1, j::c2] = w[:, :, i, j]
    return out


def low_mask(rows: int, cols: int, s: float) -> np.ndarray:
    """Wrapped low-frequency mask: |k| <= floor(s*dim) on each axis."""
    def axis(n):
        h = math.floor(s * n)
        k = np.arange(n)
        return (k <= h) | (k >= n - h)

    return np.outer(axis(rows), axis(cols))


def _as_matrix(t: np.ndarray) -> np.ndarray:
    return conv_to_matrix(t) if t.ndim == 4 else t


def cfa_oracle(uploads, s: float):
    """Complex-mode CFA on lists of {name: tensor}, via numpy.fft."""
    out = [dict() for _ in uploads]
    for name, proto in uploads[0].items():
        tensors = [u[name] for u in uploads]
        if proto.ndim == 1:
            mean = np.mean(tensors, axis=0)
            for o in out:
                o[name] = mean
            continue
        spectra = np.fft.fft2(np.stack([_as_matrix(t) for t in tensors]))
        mask = low_mask(*spectra.shape[1:], s)
        shared = spectra.mean(axis=0)
        for o, spec in zip(out, spectra):
            o[name] = np.fft.ifft2(np.where(mask, shared, spec)).real
    return out


def _close(a, b, scale) -> bool:
    return float(np.max(np.abs(a - b))) <= FFT_RTOL * max(1.0, scale)


def check_cfa(uploads, outputs, s: float) -> list:
    """Program outputs against the numpy.fft oracle, plus conservation:
    the client mean of the outputs equals the client mean of the uploads."""
    errors = []
    expected = cfa_oracle(uploads, s)
    for name in uploads[0]:
        got = [_as_matrix(o[name]) for o in outputs]
        scale = max(float(np.max(np.abs(_as_matrix(u[name])))) for u in uploads)
        for k, (g, e) in enumerate(zip(got, expected)):
            if not _close(g, e[name], scale):
                errors.append(f"cfa {name} client {k}: differs from the numpy.fft oracle")
        upload_mean = np.mean([_as_matrix(u[name]) for u in uploads], axis=0)
        if not _close(np.mean(got, axis=0), upload_mean, scale):
            errors.append(f"cfa {name}: client mean of outputs != client mean of uploads")
    return errors


def check_weighted_mean(uploads, weights, output) -> list:
    """FedAvg: the output is the weighted mean of the uploads."""
    w = np.asarray(weights, dtype=np.float64) / np.sum(weights)
    return [
        f"fedavg {name}: not the weighted mean of the uploads"
        for name, got in output.items()
        if not np.allclose(got, sum(wk * u[name] for wk, u in zip(w, uploads)),
                           rtol=1e-12, atol=1e-12)
    ]


def check_shared_low_band(client_entries, s: float) -> list:
    """After a CFA round every client holds the same numpy.fft coefficients
    inside the mask, and identical 1-D entries."""
    errors = []
    first = client_entries[0]
    for name, t0 in first.items():
        if t0.ndim == 1:
            for k, entries in enumerate(client_entries[1:], start=1):
                if not np.array_equal(entries[name], t0):
                    errors.append(f"1-D entry {name}: client {k} differs from client 0")
            continue
        spectra = np.fft.fft2(np.stack([_as_matrix(e[name]) for e in client_entries]))
        mask = low_mask(*spectra.shape[1:], s)
        scale = float(np.max(np.abs(spectra)))
        spread = np.max(np.abs(spectra[:, mask] - spectra[0, mask]))
        if not spread <= FFT_RTOL * max(1.0, scale):
            errors.append(f"{name}: masked coefficients differ across clients by {spread:.3e}")
    return errors


# ---------------------------------------------------------------------------
# Eval-mode forward pass


def _conv_valid(x, w, b):
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[2:], axis=(2, 3))
    return np.einsum("nchwij,ocij->nohw", windows, w) + b[None, :, None, None]


def _pool2(x):
    n, c, h, w = x.shape
    v = x[:, :, : h // 2 * 2, : w // 2 * 2].reshape(n, c, h // 2, 2, w // 2, 2)
    return v.max(axis=(3, 5))


def _batchnorm_eval(x, p, name):
    mean, var = p[f"{name}.running_mean"], p[f"{name}.running_var"]
    gamma, beta = p[f"{name}.gamma"], p[f"{name}.beta"]
    scale = (gamma / np.sqrt(var + BN_EPS))[None, :, None, None]
    return (x - mean[None, :, None, None]) * scale + beta[None, :, None, None]


def smallcnn_probs(params: dict, images: np.ndarray) -> np.ndarray:
    """Softmax output of smallcnn / smallcnn_bn (chosen by the presence of
    bn entries) in eval mode, from {entry name: tensor}."""
    x = np.asarray(images, dtype=np.float64)
    for conv, bn in (("conv1", "bn1"), ("conv2", "bn2")):
        x = _conv_valid(x, params[f"{conv}.weight"], params[f"{conv}.bias"])
        if f"{bn}.gamma" in params:
            x = _batchnorm_eval(x, params, bn)
        x = _pool2(np.maximum(x, 0.0))
    x = x.reshape(len(x), -1)
    x = np.maximum(x @ params["fc1.weight"].T + params["fc1.bias"], 0.0)
    logits = x @ params["fc2.weight"].T + params["fc2.bias"]
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def check_accuracy(params: dict, images, labels, reported: float) -> list:
    """Accuracy from the oracle forward pass against the reported one.
    Samples whose top two probabilities tie within 1e-9 may go either way."""
    probs = smallcnn_probs(params, images)
    top2 = np.sort(probs, axis=1)[:, -2:]
    ties = int(np.sum(top2[:, 1] - top2[:, 0] < 1e-9))
    acc = float(np.mean(probs.argmax(axis=1) == np.asarray(labels)))
    if abs(acc - reported) > ties / len(labels) + 1e-9:
        return [f"accuracy {reported} in metrics.csv, {acc} from the oracle forward pass"]
    return []


# ---------------------------------------------------------------------------
# Run artifacts


def read_metrics(run_dir) -> list:
    with open(Path(run_dir) / "metrics.csv", newline="") as f:
        return list(csv.DictReader(f))


def read_events(run_dir) -> list:
    with open(Path(run_dir) / "events.jsonl") as f:
        return [json.loads(line) for line in f]


def check_metrics(rows, rounds, comm_interval, models, splits_labels) -> list:
    """`splits_labels[client][split]` holds the labels of each non-empty
    val/test split. Checks the row count and every value's range; macro_auc
    is NaN exactly when a split has fewer than two classes."""
    errors = []
    expected = rounds * len(models) * sum(len(s) for s in splits_labels)
    if len(rows) != expected:
        errors.append(f"metrics.csv has {len(rows)} rows, expected {expected}")
    seen = set()
    for r in rows:
        key = (int(r["round"]), int(r["client_id"]), r["model"], r["split"])
        seen.add(key)
        rnd, cid, model, split = key
        if not (1 <= rnd <= rounds and int(r["epoch"]) == rnd * comm_interval):
            errors.append(f"bad round/epoch {r['round']}/{r['epoch']}")
            continue
        if model not in models or cid >= len(splits_labels) or split not in splits_labels[cid]:
            errors.append(f"unexpected row {key}")
            continue
        for col in ("accuracy", "macro_f1"):
            if not 0.0 <= float(r[col]) <= 1.0:
                errors.append(f"{col} {r[col]} out of [0, 1] at {key}")
        loss = float(r["loss"])
        if not (math.isfinite(loss) and loss >= 0.0):
            errors.append(f"loss {r['loss']} at {key}")
        auc = float(r["macro_auc"])
        single_class = len(np.unique(splits_labels[cid][split])) < 2
        if single_class != math.isnan(auc) or not (math.isnan(auc) or 0.0 <= auc <= 1.0):
            errors.append(f"macro_auc {r['macro_auc']} at {key} (single class: {single_class})")
    if len(seen) != len(rows):
        errors.append("metrics.csv repeats a (round, client, model, split) row")
    return errors


_NEXT = {"retrieve": "reciprocate", "reciprocate": "refine"}


def schedule_s(s0, s1, total_epochs, epoch) -> float:
    return min(max(s0 + (s1 - s0) / total_epochs * epoch, s0), s1)


def check_events(events, n_clients, total_epochs, comm_interval, lambdas, cfa_schedule) -> list:
    """Guards move at most one phase, iff phi_c >= lambda * phi_q; every
    aggregation resets the phase to retrieve. `lambdas` is None when the
    run has no CTO clients; `cfa_schedule` is (s0, s1) or None (FedAvg)."""
    errors = []
    phase = {k: "retrieve" for k in range(n_clients)}
    guards = aggs = 0
    for ev in events:
        if ev["type"] == "aggregation":
            aggs += 1
            if ev["epoch"] != aggs * comm_interval or ev["round"] != aggs:
                errors.append(f"aggregation {aggs} at epoch {ev['epoch']}")
            want = None if cfa_schedule is None else schedule_s(*cfa_schedule, total_epochs, ev["epoch"])
            if (want is None) != (ev["s"] is None) or (
                want is not None and abs(ev["s"] - want) > 1e-11
            ):
                errors.append(f"aggregation {aggs}: s={ev['s']}, schedule gives {want}")
            phase = dict.fromkeys(phase, "retrieve")
            continue
        guards += 1
        if lambdas is None:
            errors.append("guard event in a run without CTO")
            break
        cid, src, dst = ev["client_id"], ev["phase_from"], ev["phase_to"]
        if src != phase[cid]:
            errors.append(f"guard epoch {ev['epoch']} client {cid}: starts in {src}, was {phase[cid]}")
        if src in _NEXT:
            lam = lambdas[0] if src == "retrieve" else lambdas[1]
            margin = ev["phi_c"] - lam * ev["phi_q"]
            moved = dst == _NEXT[src]
            if dst not in (src, _NEXT[src]) or (abs(margin) > 1e-11 and moved != (margin >= 0)):
                errors.append(
                    f"guard epoch {ev['epoch']} client {cid}: {src}->{dst} with "
                    f"phi_c={ev['phi_c']} phi_q={ev['phi_q']} lambda={lam}"
                )
        elif dst != src:
            errors.append(f"guard epoch {ev['epoch']} client {cid}: left {src}")
        phase[cid] = dst
    want_guards = total_epochs * n_clients if lambdas is not None else 0
    if guards != want_guards or aggs != total_epochs // comm_interval:
        errors.append(f"{guards} guards and {aggs} aggregations in events.jsonl")
    return errors
