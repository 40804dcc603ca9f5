import numpy as np
import pytest

from conftest import allpairs_auc
from fedspectra import metrics
from fedspectra.errors import DomainError


class TestMacroF1:
    def test_diagonal_perfect(self):
        cm = np.diag([5, 3, 7])
        assert metrics.macro_f1(cm) == pytest.approx(1.0)
        assert metrics.accuracy(cm) == pytest.approx(1.0)

    def test_all_wrong_binary(self):
        cm = np.array([[0, 4], [4, 0]])
        assert metrics.macro_f1(cm) == pytest.approx(0.0)

    def test_three_class_hand_case(self):
        cm = np.array([[5, 1, 0], [1, 3, 1], [0, 2, 4]])
        # independent per-class arithmetic
        expected_f1 = []
        for k in range(3):
            tp = cm[k, k]
            p = tp / cm[:, k].sum()
            r = tp / cm[k, :].sum()
            expected_f1.append(2 * p * r / (p + r))
        assert metrics.macro_f1(cm) == pytest.approx(np.mean(expected_f1), abs=1e-12)
        prec, rec, f1 = metrics.per_class_prf(cm)
        assert prec[0] == pytest.approx(5 / 6)
        assert rec[2] == pytest.approx(4 / 6)
        assert metrics.accuracy(cm) == pytest.approx(12 / 17)

    def test_empty_class_zero_convention(self):
        cm = np.array([[3, 0, 0], [0, 2, 0], [0, 0, 0]])
        _, _, f1 = metrics.per_class_prf(cm)
        assert f1[2] == 0.0
        assert metrics.macro_f1(cm) == pytest.approx(2 / 3)

    def test_class_permutation_invariance(self, rng):
        cm = rng.integers(0, 9, size=(4, 4))
        perm = rng.permutation(4)
        permuted = cm[np.ix_(perm, perm)]
        assert metrics.macro_f1(permuted) == pytest.approx(metrics.macro_f1(cm), abs=1e-12)

    def test_random_against_oracle(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            cm = rng.integers(0, 10, size=(k, k))
            per_class = []
            for j in range(k):
                tp = cm[j, j]
                pp, tt = cm[:, j].sum(), cm[j, :].sum()
                p = tp / pp if pp else 0.0
                r = tp / tt if tt else 0.0
                per_class.append(2 * p * r / (p + r) if p + r else 0.0)
            assert metrics.macro_f1(cm) == pytest.approx(np.mean(per_class), abs=1e-12)


class TestMacroAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        assert metrics.macro_auc(scores, [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_all_tied_scores(self):
        scores = np.full((6, 2), 0.5)
        assert metrics.macro_auc(scores, [0, 0, 0, 1, 1, 1]) == pytest.approx(0.5)

    def test_six_sample_hand_case(self):
        scores = np.array(
            [[0.7, 0.3], [0.4, 0.6], [0.6, 0.4], [0.4, 0.6], [0.2, 0.8], [0.5, 0.5]]
        )
        labels = np.array([0, 1, 0, 0, 1, 1])
        expected = 0.5 * (
            allpairs_auc(scores[:, 0], labels == 0)
            + allpairs_auc(scores[:, 1], labels == 1)
        )
        assert metrics.macro_auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_random_against_allpairs_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 51))
            k = int(rng.integers(2, 5))
            labels = rng.integers(0, k, size=n)
            # quantized scores force ties
            scores = np.round(rng.random((n, k)), 1)
            per_class = []
            for j in range(k):
                pos = labels == j
                if pos.sum() in (0, n):
                    continue
                per_class.append(allpairs_auc(scores[:, j], pos))
            if not per_class:
                continue
            assert metrics.macro_auc(scores, labels) == pytest.approx(
                np.mean(per_class), abs=1e-12
            )

    def test_monotone_transform_invariance(self, rng):
        n = 30
        labels = rng.integers(0, 3, size=n)
        scores = rng.random((n, 3))
        a = metrics.macro_auc(scores, labels)
        b = metrics.macro_auc(np.exp(5 * scores), labels)
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_skipped(self):
        scores = np.array([[0.9, 0.1, 0.3], [0.2, 0.8, 0.3], [0.3, 0.3, 0.3]])
        # class 2 absent: skipped, remaining classes scored
        val = metrics.macro_auc(scores, [0, 1, 0])
        assert 0.0 <= val <= 1.0

    def test_no_scorable_class(self):
        scores = np.array([[1.0, 0.0], [0.9, 0.1]])
        with pytest.raises(DomainError):
            metrics.macro_auc(scores, [0, 0])


def _loop_confusion_matrix(y_true, y_pred, n_classes):
    """One count per sample, the plain-loop definition."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        cm[t, p] += 1
    return cm


def _loop_midranks(x):
    """Walk the stably sorted values; each run of equal values gets the mean
    of its 1-based positions."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=np.float64)
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestExactOracles:
    def test_confusion_matrix_matches_loop(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(0, 40))
            y_true, y_pred = rng.integers(0, k, size=n), rng.integers(0, k, size=n)
            got = metrics.confusion_matrix(y_true, y_pred, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, _loop_confusion_matrix(y_true, y_pred, k))

    def test_confusion_matrix_empty_class(self):
        y_true, y_pred = [0, 0, 2, 2, 2], [0, 2, 2, 0, 2]  # class 1 never seen
        got = metrics.confusion_matrix(y_true, y_pred, 3)
        assert np.array_equal(got, _loop_confusion_matrix(y_true, y_pred, 3))
        assert np.array_equal(got, [[1, 0, 1], [0, 0, 0], [1, 0, 2]])

    def test_midranks_match_loop_with_heavy_ties_and_signed_zeros(self, rng):
        pool = np.array([0.0, -0.0, 0.25, -0.25, 0.5, 1.0, 1e-300, -1e-300])
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            x = pool[rng.integers(0, int(rng.integers(1, len(pool) + 1)), size=n)]
            got = metrics._midranks(x)
            assert np.array_equal(got, _loop_midranks(x))

    def test_midranks_single_sample(self):
        for v in (0.0, -0.0, 3.5):
            assert np.array_equal(metrics._midranks(np.array([v])), [1.0])

    def test_midranks_nan_each_its_own_rank(self):
        x = np.array([np.nan, 0.5, np.nan, -0.0, 0.0, 0.5])
        assert np.array_equal(metrics._midranks(x), _loop_midranks(x))
        assert np.array_equal(metrics._midranks(x), [5.0, 3.5, 6.0, 1.5, 1.5, 3.5])
