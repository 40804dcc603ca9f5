"""Line-based `key = value` run configuration.

Strict parsing: unknown keys and a key set twice are hard errors (silent
hyperparameter typos ruin experiments). `#` starts a comment. The
resolved configuration is serialized back in the same format and must
re-parse to an identical config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .datasynth import SynthSpec, default_class_counts, default_style
from .errors import ConfigError
from .federation import FederationConfig


@dataclass
class RunConfig(FederationConfig):
    profile: str = "full"
    # synthetic data
    classes: int = 3
    image_channels: int = 1
    image_height: int = 32
    image_width: int = 32
    count_scale: float = 0.1
    noise_level: float = 0.05
    jitter: bool = True
    # io
    dataset_dir: str = ""
    out_dir: str = "run_out"

    def federation_config(self) -> FederationConfig:
        self.validate()
        return self

    def synth_spec(self) -> SynthSpec:
        brightness, contrast = default_style(self.num_clients)
        return SynthSpec(
            classes=self.classes,
            channels=self.image_channels,
            height=self.image_height,
            width=self.image_width,
            client_class_counts=default_class_counts(
                self.num_clients, self.count_scale
            ),
            brightness=brightness,
            contrast=contrast,
            noise_level=self.noise_level,
            jitter=self.jitter,
            seed=self.seed,
        )

    def validate(self) -> None:
        super().validate()
        for f in dataclasses.fields(self):  # serialize_config's text must parse back
            value = getattr(self, f.name)
            if isinstance(value, str) and ("#" in value or value != value.strip()
                                           or len(value.splitlines()) > 1):
                raise ConfigError(f"{f.name} {value!r} cannot hold '#', line breaks or edge spaces")
        if self.classes < 2:
            raise ConfigError("classes must be >= 2")
        if self.count_scale <= 0:
            raise ConfigError("count_scale must be positive")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be nonnegative")
        if min(self.image_channels, self.image_height, self.image_width) < 1:
            raise ConfigError("image dimensions must be positive")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _convert(key: str, raw: str, where: str):
    ftype = _FIELDS[key].type  # a string under `from __future__ import annotations`
    raw = raw.strip()
    try:
        if ftype == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError(f"expected true/false, got {raw!r}")
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {raw!r}")
            return value
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def apply_setting(cfg: RunConfig, key: str, raw: str, where: str = "override") -> None:
    if key not in _FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    setattr(cfg, key, _convert(key, raw, where))


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    seen = {}  # key -> line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        apply_setting(cfg, key, raw, where=f"{source}:{lineno}")
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        rendered = str(value).lower() if isinstance(value, bool) else value
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
