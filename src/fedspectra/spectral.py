"""2-D DFT machinery, the low-frequency mask, and the cumulative
frequency-domain aggregation rule.

The transforms are numpy.fft's over the last two axes, so a
[clients, rows, cols] stack goes through one call: the forward transform
uses the unnormalized negative-exponent convention and the inverse
divides by rows*cols. A naive direct-summation DFT lives in the test
suite as the independent oracle.

Complex-mode aggregation is linear, so it runs client by client:
out_k = X_k - irfft2(half * rfft2(X_k)) + L, with half the mask's rfft2
half (enough, as the mask is symmetric under k -> -k) and L the masked
low band of the client mean; transient memory is one client's
temporaries. A whole-spectrum mask gives every client L, with no
per-client transform. amplitude_phase mode (nonlinear) and a mask
override (not always symmetric) transform the stacked uploads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ShapeError
from .tensors import (
    ParamEntry,
    ParameterSet,
    matrix_to_conv,
    require_all_congruent,
    require_finite,
    reshape_conv_to_matrix,
    tensor_mean,
)

DOMAIN_MODES = ("complex", "amplitude_phase")

# ---------------------------------------------------------------------------
# 2-D transforms over the last two axes


def fft2d(m: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D DFT (negative exponent) of a real [..., rows, cols] array."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.size == 0:
        raise ShapeError(f"fft2d expects a non-empty [..., rows, cols] array, got {m.shape}")
    return np.fft.fft2(m)


def ifft2d_complex(f: np.ndarray) -> np.ndarray:
    """Full complex inverse 2-D DFT over the last two axes (divides by rows*cols)."""
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim < 2 or f.size == 0:
        raise ShapeError(f"ifft2d expects a non-empty [..., rows, cols] array, got {f.shape}")
    return np.fft.ifft2(f)


def to_amplitude_phase(f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a complex spectrum into magnitude and angle (zero bins get phase 0)."""
    f = np.asarray(f, dtype=np.complex128)
    return np.abs(f), np.angle(f)


def from_amplitude_phase(amplitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    return amplitude * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Low-frequency mask and cumulative schedule


def _axis_selection(n: int, s: float) -> np.ndarray:
    """Wrapped frequency indices within +-floor(s*n) of DC on one axis.

    The selection is symmetric under k -> -k (mod n); for s >= 0.5 it
    covers the whole axis.
    """
    h = int(np.floor(s * n))
    k = np.arange(n)
    return (k <= h) | (k >= n - h)


def _mask_saturating(rows: int, cols: int, s: float) -> np.ndarray:
    """Wrapped-interval mask: the outer product of the two axis selections."""
    if rows < 1 or cols < 1:
        raise ShapeError("mask dimensions must be positive")
    return _axis_selection(rows, s)[:, None] & _axis_selection(cols, s)[None, :]


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


def _real_part(back: np.ndarray) -> np.ndarray:
    """Real part of an inverse transform whose spectrum should be
    conjugate-symmetric; a larger imaginary residue than rounding raises."""
    scale = max(np.abs(back.real).max(), 1.0)
    if np.abs(back.imag).max() > _IMAG_TOL * scale:
        raise ShapeError(
            "aggregated spectrum lost conjugate symmetry "
            f"(imag residue {np.abs(back.imag).max():.3e})"
        )
    return back.real


def _filter_complex(tensors: Sequence[np.ndarray], mask: np.ndarray) -> Iterator[np.ndarray]:
    """Complex-mode CFA, client by client: X_k - lowpass(X_k) + L, with L the
    low band of the client mean, copied contiguous. A whole-spectrum mask gives every client L."""
    low = _real_part(ifft2d_complex(np.where(mask, fft2d(tensor_mean(tensors)), 0))).copy()
    if mask.all():
        yield from (low + 0.0 for _ in tensors)
        return
    half = mask[:, : mask.shape[1] // 2 + 1]
    for x in tensors:
        own = np.fft.rfft2(x)
        own *= half
        out = np.fft.irfft2(own, s=mask.shape)
        np.subtract(x, out, out=out)
        out += low
        yield out


def _per_client_fft(
    stack: np.ndarray, mask: np.ndarray, domain_mode: str
) -> List[np.ndarray]:
    """Replace each client's masked coefficients by the shared spectrum,
    with one batched 2-D transform pair over the [clients, rows, cols] stack."""
    spectra = fft2d(stack)
    if domain_mode == "complex":
        shared = spectra.mean(axis=0)
    else:
        amp = np.abs(spectra).mean(axis=0)
        shared = from_amplitude_phase(amp, _circular_mean(np.angle(spectra)))
    return [_real_part(back) for back in ifft2d_complex(np.where(mask, shared, spectra))]


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
    by plain mean. Complex mode filters client by client; amplitude_phase
    mode and `mask_override` (a test hook: s < 0.5 can never produce a full
    mask) transform the stacked uploads. A non-finite upload raises NonFiniteError.
    """
    require_all_congruent(client_sets)
    if mask_override is None and not (0.0 < s < 1.0):
        raise DomainError(f"threshold s={s} outside (0, 1)")
    if domain_mode not in DOMAIN_MODES:
        raise DomainError(f"unknown domain_mode {domain_mode!r}")
    outputs: List[List[ParamEntry]] = [[] for _ in client_sets]

    for idx, proto in enumerate(client_sets[0].entries):
        tensors = [cs.entries[idx].tensor for cs in client_sets]
        require_finite(proto.name, tensors)
        if proto.kind == "vector1d":
            merged = tensor_mean(tensors)
            for out in outputs:
                out.append(replace(proto, tensor=merged))
            continue

        if proto.kind == "conv4d":
            a, b, c1, c2 = proto.tensor.shape
            tensors = [reshape_conv_to_matrix(t) for t in tensors]
        shape = tensors[0].shape
        mask = _mask_saturating(*shape, s) if mask_override is None else mask_override
        if mask.shape != shape:
            raise ShapeError(f"mask shape {mask.shape} does not match spectrum {shape}")
        if domain_mode == "complex" and mask_override is None:
            results = _filter_complex(tensors, mask)
        else:
            results = _per_client_fft(np.stack(tensors), mask, domain_mode)
        for out, real in zip(outputs, results):
            if proto.kind == "conv4d":
                real = matrix_to_conv(real, a, b, c1, c2)
            out.append(replace(proto, tensor=real))
    return [ParameterSet(out) for out in outputs]
