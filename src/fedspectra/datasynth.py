"""Synthetic non-IID image classification data.

Each class is a distinct sinusoidal texture plus a class-positioned blob;
each client applies its own brightness/contrast transform (feature shift)
and the per-client class counts follow a label-skew template. Generation
is a pure function of the spec, including its seed.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DomainError, IngestionError
from . import fmmt

logger = logging.getLogger(__name__)

# Label-skew template: per-client sample counts for the three classes.
SKEW_TEMPLATE = (
    (1832, 475, 680),
    (3720, 124, 24),
    (803, 490, 342),
    (1372, 254, 374),
)

SPLITS = ("train", "val", "test")


@dataclass
class SplitData:
    images: np.ndarray  # [m, channels, h, w] float64
    labels: np.ndarray  # [m] int64

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class ClientPartition:
    client_id: int
    train: SplitData
    val: SplitData
    test: SplitData

    def split(self, name: str) -> SplitData:
        if name not in SPLITS:
            raise DomainError(f"unknown split {name!r}; expected one of {SPLITS}")
        return getattr(self, name)


@dataclass(kw_only=True)
class SynthSpec:
    classes: int = 3
    channels: int = 1
    height: int = 32
    width: int = 32
    # per-client per-class sample counts (rows = clients)
    client_class_counts: List[List[int]]
    brightness: List[float]  # per-client offset
    contrast: List[float]  # per-client gain
    noise_level: float = 0.05
    jitter: bool = True
    seed: int = 0


def default_class_counts(num_clients: int, scale: float) -> List[List[int]]:
    """Label-skew template rows cycled over clients, scaled to desk size.

    The per-row scale shrinks with the client count so the total corpus
    stays roughly constant as N grows.
    """
    if num_clients < 1:
        raise ConfigError("need at least one client")
    eff = scale * min(1.0, 4.0 / num_clients)
    counts = []
    for k in range(num_clients):
        row = SKEW_TEMPLATE[k % len(SKEW_TEMPLATE)]
        scaled = [int(np.floor(c * eff)) for c in row]
        if sum(scaled) == 0:
            scaled[0] = max(scaled[0], 3)
        counts.append(scaled)
    return counts


def default_style(num_clients: int) -> Tuple[List[float], List[float]]:
    """Per-client brightness offsets and contrast gains, spread around identity."""
    brightness, contrast = [], []
    for k in range(num_clients):
        t = 0.0 if num_clients == 1 else (k - (num_clients - 1) / 2) / (num_clients - 1)
        brightness.append(0.3 * t)
        contrast.append(1.0 + 0.5 * t)
    return brightness, contrast


def _class_image(
    label: int,
    classes: int,
    channels: int,
    h: int,
    w: int,
    rng: np.random.Generator,
    jitter: bool,
) -> np.ndarray:
    yy, xx = np.arange(h)[:, None], np.arange(w)[None, :]  # broadcast to [h, w]
    freq = label + 1
    if jitter:
        p1, p2, ang = rng.uniform(0.0, 2 * np.pi, size=3)
        radius_jitter = rng.uniform(-0.02, 0.02)
    else:
        p1 = p2 = ang = 0.0
        radius_jitter = 0.0
    # class signals survive flips and 90-degree rotations: texture frequency
    # and blob distance from the image center are dihedral-invariant
    base = 0.5 + 0.25 * np.sin(2 * np.pi * freq * yy / h + p1) * np.cos(
        2 * np.pi * freq * xx / w + p2
    )
    radius = (0.10 + 0.25 * label / max(classes - 1, 1) + radius_jitter) * min(h, w)
    cy = h / 2 + radius * np.sin(ang)
    cx = w / 2 + radius * np.cos(ang)
    sigma = min(h, w) / 10.0
    blob = 0.6 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    img = base + blob
    return np.repeat(img[None, :, :], channels, axis=0)


def _stratified_split(
    labels: np.ndarray, rng: np.random.Generator
) -> Tuple[Dict[str, np.ndarray], bool]:
    """70/15/15 split, stratified by class where every nonzero class count
    allows it; otherwise unstratified. Returns the split and whether it is
    stratified."""
    present = np.unique(labels)
    counts = [(labels == k).sum() for k in present]
    stratify = all(c >= 3 for c in counts)
    groups = [np.flatnonzero(labels == k) for k in present] if stratify else [
        np.arange(len(labels))
    ]
    picks: Dict[str, List[np.ndarray]] = {s: [] for s in SPLITS}
    for idx in groups:
        idx = idx.copy()
        rng.shuffle(idx)
        m = len(idx)
        n_val = max(1, int(round(0.15 * m))) if m >= 3 else (1 if m >= 2 else 0)
        n_test = max(1, int(round(0.15 * m))) if m >= 3 else 0
        picks["val"].append(idx[:n_val])
        picks["test"].append(idx[n_val : n_val + n_test])
        picks["train"].append(idx[n_val + n_test :])
    return {s: np.sort(np.concatenate(p)) for s, p in picks.items()}, stratify


def generate(spec: SynthSpec) -> List[ClientPartition]:
    """Materialize the synthetic corpus; deterministic in the spec."""
    counts = spec.client_class_counts
    n_clients = len(counts)
    for row in counts:
        if len(row) != spec.classes:
            raise ConfigError(
                f"count row {row} does not match classes={spec.classes}"
            )
        if any(c < 0 for c in row):
            raise ConfigError("negative class count")
        if sum(row) == 0:
            raise ConfigError("client with zero samples")
    if len(spec.brightness) != n_clients or len(spec.contrast) != n_clients:
        raise ConfigError("style parameter lists must have one entry per client")

    partitions, unstratified = [], []
    for cid in range(n_clients):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 7 + cid]))
        labels = np.repeat(np.arange(spec.classes, dtype=np.int64), counts[cid])
        images = np.empty((len(labels), spec.channels, spec.height, spec.width))
        for i, label in enumerate(labels.tolist()):
            img = _class_image(
                label, spec.classes, spec.channels, spec.height, spec.width, rng, spec.jitter
            )
            images[i] = spec.contrast[cid] * img + spec.brightness[cid]
            if spec.noise_level > 0:
                images[i] += rng.normal(0.0, spec.noise_level, img.shape)
        split_idx, stratified = _stratified_split(labels, rng)
        if not stratified:
            unstratified.append(cid)
        parts = {s: SplitData(images[ix], labels[ix]) for s, ix in split_idx.items()}
        partitions.append(
            ClientPartition(cid, parts["train"], parts["val"], parts["test"])
        )
    if unstratified:
        logger.warning(
            "%d of %d clients have a class with fewer than 3 samples; "
            "their splits are unstratified (first: client %d)",
            len(unstratified), n_clients, unstratified[0],
        )
    return partitions


# ---------------------------------------------------------------------------
# Augmentation


def augment(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random horizontal/vertical flips (50% each) and a 90-degree-multiple
    rotation. Exact pixel permutations: no interpolation, label unchanged."""
    if image.shape[-1] != image.shape[-2]:
        raise ConfigError(
            f"rotation requires square spatial dims, got {image.shape[-2:]}"
        )
    out = image
    if rng.random() < 0.5:
        out = out[..., :, ::-1]
    if rng.random() < 0.5:
        out = out[..., ::-1, :]
    k = int(rng.integers(0, 4))
    if k:
        out = np.rot90(out, k, axes=(-2, -1))
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# Dataset directory I/O
#
# Layout: <root>/client_<k>/images/*.fmmt plus <root>/client_<k>/labels.csv
# with header filename,label,split. The decimal k is the client id; the ids
# of a dataset run 0..N-1.


def export_dataset(partitions: Sequence[ClientPartition], root) -> None:
    root = Path(root)
    for part in partitions:
        cdir = root / f"client_{part.client_id}"
        (cdir / "images").mkdir(parents=True, exist_ok=True)
        rows = []
        for split in SPLITS:
            data = part.split(split)
            for i in range(len(data)):
                fname = f"{split}_{i:05d}.fmmt"
                fmmt.write_tensor(cdir / "images" / fname, data.images[i])
                rows.append((fname, int(data.labels[i]), split))
        with open(cdir / "labels.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["filename", "label", "split"])
            writer.writerows(rows)


def load_dataset(root) -> List[ClientPartition]:
    root = Path(root)
    if not root.is_dir():
        raise IngestionError(f"{root}: not a directory")
    client_dirs: Dict[int, Path] = {}
    for d in root.iterdir():
        if not (d.is_dir() and d.name.startswith("client_")):
            continue
        suffix = d.name[len("client_") :]
        if not (suffix.isascii() and suffix.isdigit()):
            raise IngestionError(f"{d}: client id {suffix!r} is not an integer")
        cid = int(suffix)
        if cid in client_dirs:
            raise IngestionError(f"{d}: duplicate client id {cid} ({client_dirs[cid].name})")
        client_dirs[cid] = d
    if not client_dirs:
        raise IngestionError(f"{root}: no clients found")
    missing = sorted(set(range(len(client_dirs))) - set(client_dirs))
    if missing:
        raise IngestionError(
            f"{root}: client ids must run 0..{len(client_dirs) - 1}; missing {missing}"
        )
    partitions = []
    shape = None
    for cid in range(len(client_dirs)):
        cdir = client_dirs[cid]
        manifest = cdir / "labels.csv"
        if not manifest.exists():
            raise IngestionError(f"{cdir}: missing labels.csv manifest")
        buckets: Dict[str, Tuple[List[np.ndarray], List[int]]] = {s: ([], []) for s in SPLITS}
        with open(manifest, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames != ["filename", "label", "split"]:
                raise IngestionError(
                    f"{manifest}: expected header filename,label,split"
                )
            for row in reader:
                split = row["split"]
                if split not in SPLITS:
                    raise IngestionError(
                        f"{manifest}: unknown split {split!r}; allowed tokens "
                        f"{{train,val,test}}"
                    )
                try:
                    label = int(row["label"])
                except (TypeError, ValueError):
                    raise IngestionError(
                        f"{manifest}: unknown label {row['label']!r}"
                    ) from None
                if label < 0:
                    raise IngestionError(f"{manifest}: unknown label {label}")
                path = cdir / "images" / row["filename"]
                img = fmmt.read_tensor(path)
                if not np.isfinite(img).all():
                    raise IngestionError(f"{path}: non-finite pixel value")
                if shape is None:
                    shape = img.shape
                elif img.shape != shape:
                    raise IngestionError(f"{path}: shape {img.shape} differs from {shape}")
                buckets[split][0].append(img)
                buckets[split][1].append(label)
        parts = {}
        for s in SPLITS:
            imgs, labs = buckets[s]
            if imgs:
                parts[s] = SplitData(np.stack(imgs), np.asarray(labs, dtype=np.int64))
            else:
                parts[s] = SplitData(
                    np.zeros((0,) + (shape or (1, 1, 1))), np.zeros(0, dtype=np.int64)
                )
        partitions.append(
            ClientPartition(cid, parts["train"], parts["val"], parts["test"])
        )
    return partitions
