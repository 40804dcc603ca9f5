"""Dense tensors, named parameter collections, and the conv <-> matrix reshape.

Tensors are plain float64 numpy arrays; this module adds the structure the
federation layer needs on top of them: named, kinded parameter sets and the
exact index permutation that turns a 4-D convolution weight into the 2-D
matrix consumed by the frequency-domain aggregator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from .errors import CongruenceError, DomainError, ShapeError

KINDS = ("conv4d", "matrix2d", "vector1d")


def as_tensor(data, shape=None) -> np.ndarray:
    """Coerce to a contiguous float64 array, optionally reshaping."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
    return arr


def kind_of(arr: np.ndarray) -> str:
    """Infer the parameter kind from dimensionality."""
    if arr.ndim == 4:
        return "conv4d"
    if arr.ndim == 2:
        return "matrix2d"
    if arr.ndim == 1:
        return "vector1d"
    raise ShapeError(f"no parameter kind for ndim={arr.ndim}")


def reshape_conv_to_matrix(w: np.ndarray) -> np.ndarray:
    """Reshape a conv weight [A, B, c1, c2] to a [c1*A, c2*B] matrix.

    Element (a, b, i, j) lands at row a*c1 + i, column b*c2 + j, so each
    output-channel block is contiguous in rows. The map is a pure index
    permutation (bit-exact, invertible by matrix_to_conv).
    """
    if w.ndim != 4:
        raise ShapeError(f"expected 4-D conv weight, got ndim={w.ndim}")
    a, b, c1, c2 = w.shape
    return np.ascontiguousarray(w.transpose(0, 2, 1, 3).reshape(a * c1, b * c2))


def matrix_to_conv(m: np.ndarray, a: int, b: int, c1: int, c2: int) -> np.ndarray:
    """Invert reshape_conv_to_matrix. Bit-exact."""
    if m.ndim != 2:
        raise ShapeError(f"expected 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] != a * c1 or m.shape[1] != b * c2:
        raise ShapeError(
            f"matrix shape {m.shape} not divisible as ({a}*{c1}, {b}*{c2})"
        )
    return np.ascontiguousarray(m.reshape(a, c1, b, c2).transpose(0, 2, 1, 3))


def tensor_mean(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean of congruent tensors (fixed summation order)."""
    if len(tensors) == 0:
        raise DomainError("mean of empty tensor list")
    first = tensors[0]
    for t in tensors[1:]:
        if t.shape != first.shape:
            raise ShapeError(f"mean shape mismatch: {t.shape} vs {first.shape}")
    acc = np.zeros_like(first)
    for t in tensors:
        acc += t
    return acc / len(tensors)


@dataclass
class ParamEntry:
    """One named parameter tensor with its aggregation kind."""

    name: str
    tensor: np.ndarray
    kind: str
    is_batchnorm: bool = False
    trainable: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown parameter kind {self.kind!r}")
        self.tensor = as_tensor(self.tensor)
        expected = kind_of(self.tensor)
        if expected != self.kind:
            raise ShapeError(
                f"entry {self.name!r}: kind {self.kind} does not match ndim "
                f"{self.tensor.ndim}"
            )

    def copy(self) -> "ParamEntry":
        return ParamEntry(
            self.name, self.tensor.copy(), self.kind, self.is_batchnorm, self.trainable
        )


class ParameterSet:
    """Ordered, uniquely named collection of parameter tensors."""

    def __init__(self, entries: Sequence[ParamEntry]):
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise CongruenceError("duplicate parameter names in set")
        self.entries: List[ParamEntry] = list(entries)
        self._index = {e.name: e for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ParamEntry]:
        return iter(self.entries)

    def names(self) -> List[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> ParamEntry:
        return self._index[name]

    def congruent_with(self, other: "ParameterSet") -> bool:
        if len(self) != len(other):
            return False
        for a, b in zip(self.entries, other.entries):
            if a.name != b.name or a.kind != b.kind or a.tensor.shape != b.tensor.shape:
                return False
        return True

    def require_congruent(self, other: "ParameterSet") -> None:
        if not self.congruent_with(other):
            raise CongruenceError("parameter sets are not congruent")

    def copy(self) -> "ParameterSet":
        return ParameterSet([e.copy() for e in self.entries])

    def allclose(self, other: "ParameterSet", atol: float = 0.0) -> bool:
        if not self.congruent_with(other):
            return False
        return all(
            np.allclose(a.tensor, b.tensor, rtol=0.0, atol=atol)
            for a, b in zip(self.entries, other.entries)
        )

    def identical(self, other: "ParameterSet") -> bool:
        """Bitwise equality of every tensor."""
        if not self.congruent_with(other):
            return False
        return all(
            np.array_equal(a.tensor, b.tensor)
            for a, b in zip(self.entries, other.entries)
        )


def require_all_congruent(sets: Sequence[ParameterSet]) -> None:
    if len(sets) == 0:
        raise DomainError("empty list of parameter sets")
    first = sets[0]
    for s in sets[1:]:
        first.require_congruent(s)
