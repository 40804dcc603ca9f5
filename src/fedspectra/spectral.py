"""2-D DFT machinery, the low-frequency mask, and the cumulative
frequency-domain aggregation rule.

The forward transform uses the unnormalized negative-exponent convention;
the inverse divides by rows*cols. Power-of-two axis lengths take an
iterative radix-2 path; every other length goes through Bluestein's
chirp-z algorithm (so arbitrary layer shapes are supported). A naive
direct-summation DFT lives in the test suite as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ShapeError
from .tensors import (
    ParameterSet,
    matrix_to_conv,
    require_all_congruent,
    reshape_conv_to_matrix,
    tensor_mean,
)

# ---------------------------------------------------------------------------
# 1-D transforms along the last axis


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _fft_pow2(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 Cooley-Tukey over the last axis (length power of 2)."""
    n = x.shape[-1]
    y = np.ascontiguousarray(x[..., _bit_reverse_indices(n)], dtype=np.complex128)
    size = 2
    while size <= n:
        half = size // 2
        tw = np.exp(-2j * np.pi * np.arange(half) / size)
        blocks = y.reshape(y.shape[:-1] + (n // size, size))
        even = blocks[..., :half]
        odd = blocks[..., half:] * tw
        y = np.concatenate([even + odd, even - odd], axis=-1).reshape(y.shape)
        size *= 2
    return y


def _ifft_pow2(x: np.ndarray) -> np.ndarray:
    return np.conj(_fft_pow2(np.conj(x))) / x.shape[-1]


def _fft_bluestein(x: np.ndarray) -> np.ndarray:
    """Chirp-z DFT over the last axis, any length, via a padded radix-2 convolution."""
    n = x.shape[-1]
    m = 1 << (2 * n - 1).bit_length() if 2 * n - 1 > 1 else 1
    k = np.arange(n)
    chirp = np.exp(-1j * np.pi * (k * k % (2 * n)) / n)
    a = np.zeros(x.shape[:-1] + (m,), dtype=np.complex128)
    a[..., :n] = x * chirp
    b = np.zeros(m, dtype=np.complex128)
    b[:n] = np.conj(chirp)
    b[m - n + 1:] = np.conj(chirp[1:][::-1])
    conv = _ifft_pow2(_fft_pow2(a) * _fft_pow2(b))
    return chirp * conv[..., :n]


def _fft_last_axis(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    if n == 1:
        return x.astype(np.complex128)
    if n & (n - 1) == 0:
        return _fft_pow2(x)
    return _fft_bluestein(x)


def _fft2_complex(m: np.ndarray) -> np.ndarray:
    rows = _fft_last_axis(np.ascontiguousarray(m, dtype=np.complex128))
    return np.ascontiguousarray(
        _fft_last_axis(np.ascontiguousarray(rows.T)).T
    )


def fft2d(m: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D DFT (negative exponent) of a real matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ShapeError(f"fft2d expects a non-empty 2-D matrix, got shape {m.shape}")
    return _fft2_complex(m)


def ifft2d_complex(f: np.ndarray) -> np.ndarray:
    """Full complex inverse 2-D DFT (divides by rows*cols)."""
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 2 or f.size == 0:
        raise ShapeError(f"ifft2d expects a non-empty 2-D matrix, got shape {f.shape}")
    return np.conj(_fft2_complex(np.conj(f))) / f.size


def ifft2d(f: np.ndarray) -> np.ndarray:
    """Inverse 2-D DFT returning the real part (imaginary residue discarded)."""
    return ifft2d_complex(f).real


def to_amplitude_phase(f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a complex spectrum into magnitude and angle (zero bins get phase 0)."""
    f = np.asarray(f, dtype=np.complex128)
    return np.abs(f), np.angle(f)


def from_amplitude_phase(amplitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    return amplitude * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Low-frequency mask and cumulative schedule


def _mask_saturating(rows: int, cols: int, s: float) -> np.ndarray:
    """Wrapped-interval mask; for s >= 0.5 the interval covers the whole axis."""
    if rows < 1 or cols < 1:
        raise ShapeError("mask dimensions must be positive")
    hr = int(np.floor(s * rows))
    hc = int(np.floor(s * cols))
    r = np.arange(rows)
    c = np.arange(cols)
    row_sel = (r <= hr) | (r >= rows - hr)
    col_sel = (c <= hc) | (c >= cols - hc)
    return row_sel[:, None] & col_sel[None, :]


def build_mask(rows: int, cols: int, s: float) -> np.ndarray:
    """Boolean mask selecting wrapped frequency indices within +-floor(s*dim)
    of the DC bin on each axis (no fftshift; negative indices wrap high)."""
    if not (0.0 < s < 0.5):
        raise DomainError(f"mask threshold s={s} outside (0, 0.5)")
    return _mask_saturating(rows, cols, s)


@dataclass(frozen=True)
class CfaSchedule:
    """Linear low-frequency threshold ramp from s0 to s1 over total_epochs."""

    s0: float = 0.26
    s1: float = 0.55
    total_epochs: int = 300

    def __post_init__(self):
        # s1 may exceed 0.5 (the reference hyperparameters use 0.55); the
        # aggregation mask saturates to the full spectrum there.
        if not (0.0 < self.s0 <= self.s1 < 1.0):
            raise DomainError(
                f"schedule requires 0 < s0 <= s1 < 1, got ({self.s0}, {self.s1})"
            )
        if self.s0 >= 0.5:
            raise DomainError("initial threshold s0 must be below 0.5")
        if self.total_epochs < 1:
            raise DomainError("schedule total_epochs must be positive")


def schedule_threshold(sch: CfaSchedule, t: int) -> float:
    """s(t) = s0 + (s1 - s0)/T * t, clamped to [s0, s1]."""
    if t < 0:
        raise DomainError(f"schedule epoch t={t} must be nonnegative")
    s = sch.s0 + (sch.s1 - sch.s0) / sch.total_epochs * t
    return min(max(s, sch.s0), sch.s1)


# ---------------------------------------------------------------------------
# Aggregation

_IMAG_TOL = 1e-9


def _circular_mean(phases: np.ndarray) -> np.ndarray:
    """Angle of the mean unit phasor over axis 0 of [clients, rows, cols].

    At the self-conjugate bins (index 0 and, for even lengths, n/2 on each
    axis) every client's coefficient is real, so the mean phase is 0 or pi
    by the sign of the mean phasor's real part: where the clients' phasors
    cancel, the angle of the rounding residue would be +-pi/2.
    """
    z = np.exp(1j * phases).mean(axis=0)
    angle = np.angle(z)
    rows, cols = z.shape
    self_conj = np.ix_(
        [0, rows // 2] if rows % 2 == 0 else [0],
        [0, cols // 2] if cols % 2 == 0 else [0],
    )
    angle[self_conj] = np.where(z[self_conj].real < 0.0, np.pi, 0.0)
    return angle


def _combine_spectra(
    spectra: List[np.ndarray], mask: np.ndarray, domain_mode: str
) -> List[np.ndarray]:
    stack = np.stack(spectra)
    if domain_mode == "complex":
        shared = stack.mean(axis=0)
    elif domain_mode == "amplitude_phase":
        amp = np.abs(stack).mean(axis=0)
        shared = from_amplitude_phase(amp, _circular_mean(np.angle(stack)))
    else:
        raise DomainError(f"unknown domain_mode {domain_mode!r}")
    return [np.where(mask, shared, spec) for spec in spectra]


def cfa_aggregate(
    client_sets: Sequence[ParameterSet],
    s: float,
    domain_mode: str = "complex",
    mask_override: Optional[np.ndarray] = None,
) -> List[ParameterSet]:
    """Per-client frequency-domain aggregation.

    Conv weights are reshaped to matrices, 2-D transformed, and the
    coefficients inside the low-frequency mask are replaced by the
    cross-client mean; each client keeps its own coefficients outside the
    mask. Dense matrices are transformed as-is; 1-D parameters are merged
    by plain mean. `mask_override` is a test hook (s < 0.5 can never
    produce a full mask).
    """
    require_all_congruent(client_sets)
    if mask_override is None and not (0.0 < s < 1.0):
        raise DomainError(f"threshold s={s} outside (0, 1)")
    n_clients = len(client_sets)
    outputs = [cs.copy() for cs in client_sets]

    for idx, proto in enumerate(client_sets[0].entries):
        tensors = [cs.entries[idx].tensor for cs in client_sets]
        if proto.kind == "vector1d":
            merged = tensor_mean(tensors)
            for out in outputs:
                out.entries[idx].tensor = merged.copy()
            continue

        if proto.kind == "conv4d":
            a, b, c1, c2 = proto.tensor.shape
            mats = [reshape_conv_to_matrix(t) for t in tensors]
        else:
            mats = [np.asarray(t, dtype=np.float64) for t in tensors]

        rows, cols = mats[0].shape
        mask = (
            mask_override
            if mask_override is not None
            else _mask_saturating(rows, cols, s)
        )
        if mask.shape != (rows, cols):
            raise ShapeError(
                f"mask shape {mask.shape} does not match spectrum {(rows, cols)}"
            )
        spectra = [fft2d(m) for m in mats]
        combined = _combine_spectra(spectra, mask, domain_mode)
        for out, spec in zip(outputs, combined):
            back = ifft2d_complex(spec)
            scale = max(np.abs(back.real).max(), 1.0)
            if np.abs(back.imag).max() > _IMAG_TOL * scale:
                raise ShapeError(
                    "aggregated spectrum lost conjugate symmetry "
                    f"(imag residue {np.abs(back.imag).max():.3e})"
                )
            real = back.real
            if proto.kind == "conv4d":
                real = matrix_to_conv(real, a, b, c1, c2)
            out.entries[idx].tensor = real
    return outputs
