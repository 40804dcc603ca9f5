"""Shared independent oracles for the test suite."""

import fedspectra  # noqa: F401  (pins BLAS threads before numpy loads)
import numpy as np
import pytest


def naive_dft2(m: np.ndarray) -> np.ndarray:
    """Direct-summation 2-D DFT (O(n^2) per axis), the FFT oracle."""
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    out = np.zeros((rows, cols), dtype=np.complex128)
    for a in range(rows):
        for b in range(cols):
            acc = 0.0 + 0.0j
            for i in range(rows):
                for j in range(cols):
                    acc += m[i, j] * np.exp(-2j * np.pi * (a * i / rows + b * j / cols))
            out[a, b] = acc
    return out


def allpairs_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Brute-force AUC: concordant pairs get 1, ties 0.5."""
    pos = scores[positives]
    neg = scores[~positives]
    credit = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                credit += 1.0
            elif p == n:
                credit += 0.5
    return credit / (len(pos) * len(neg))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
