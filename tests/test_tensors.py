import numpy as np
import pytest

from fedspectra.errors import CongruenceError, DomainError, ShapeError
from fedspectra.tensors import (
    ParamEntry,
    ParameterSet,
    matrix_to_conv,
    reshape_conv_to_matrix,
    tensor_mean,
)


class TestConvReshape:
    def test_single_channel_identity_layout(self):
        w = np.arange(1, 5, dtype=float).reshape(1, 1, 2, 2)
        m = reshape_conv_to_matrix(w)
        assert np.array_equal(m, [[1, 2], [3, 4]])

    def test_spatial_dims_one_stack_channels(self):
        w = np.array([5.0, 7.0]).reshape(2, 1, 1, 1)
        m = reshape_conv_to_matrix(w)
        assert np.array_equal(m, [[5.0], [7.0]])

    def test_index_map_2222(self):
        # oracle: enumerate the documented index map by brute force
        w = np.arange(16, dtype=float).reshape(2, 2, 2, 2)
        m = reshape_conv_to_matrix(w)
        for row in range(4):
            for col in range(4):
                assert m[row, col] == w[row // 2, col // 2, row % 2, col % 2]

    def test_index_map_is_bijection(self, rng):
        a, b, c1, c2 = 3, 2, 5, 4
        w = np.arange(a * b * c1 * c2, dtype=float).reshape(a, b, c1, c2)
        m = reshape_conv_to_matrix(w)
        assert sorted(m.ravel().tolist()) == list(range(a * b * c1 * c2))

    def test_roundtrip_trivial(self):
        w = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
        back = matrix_to_conv(reshape_conv_to_matrix(w), 1, 1, 2, 2)
        assert np.array_equal(back, w)

    def test_roundtrip_random_bit_exact(self, rng):
        w = rng.normal(size=(3, 2, 5, 4))
        back = matrix_to_conv(reshape_conv_to_matrix(w), 3, 2, 5, 4)
        assert np.array_equal(back, w)

    def test_non_divisible_shape_error(self):
        with pytest.raises(ShapeError):
            matrix_to_conv(np.zeros((3, 3)), 1, 1, 2, 3)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ShapeError):
            reshape_conv_to_matrix(np.zeros((2, 2)))


class TestElementwise:
    def test_mean_trivial(self):
        out = tensor_mean([np.array([1.0, 3.0]), np.array([5.0, 7.0])])
        assert np.array_equal(out, [3.0, 5.0])

    def test_mean_of_copies_is_identity(self, rng):
        t = rng.normal(size=(4, 3))
        out = tensor_mean([t.copy() for _ in range(5)])
        assert np.allclose(out, t, atol=1e-15)

    def test_mean_permutation_invariant(self, rng):
        ts = [rng.normal(size=(3, 3)) for _ in range(4)]
        a = tensor_mean(ts)
        b = tensor_mean(ts[::-1])
        assert np.allclose(a, b, atol=1e-12)

    def test_mean_empty_list(self):
        with pytest.raises(DomainError):
            tensor_mean([])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tensor_mean([np.zeros(2), np.zeros(3)])


class TestParameterSet:
    def _make(self, value=0.0):
        return ParameterSet(
            [
                ParamEntry("conv.weight", np.full((2, 1, 3, 3), value), "conv4d"),
                ParamEntry("fc.weight", np.full((4, 2), value), "matrix2d"),
                ParamEntry("fc.bias", np.full(4, value), "vector1d"),
            ]
        )

    def test_congruence(self):
        a, b = self._make(0.0), self._make(1.0)
        assert a.congruent_with(b)
        a.require_congruent(b)

    def test_not_congruent_on_shape(self):
        a = self._make()
        b = ParameterSet(
            [
                ParamEntry("conv.weight", np.zeros((2, 1, 3, 3)), "conv4d"),
                ParamEntry("fc.weight", np.zeros((3, 2)), "matrix2d"),
                ParamEntry("fc.bias", np.zeros(4), "vector1d"),
            ]
        )
        with pytest.raises(CongruenceError):
            a.require_congruent(b)

    def test_duplicate_names_rejected(self):
        with pytest.raises(CongruenceError):
            ParameterSet(
                [
                    ParamEntry("x", np.zeros(2), "vector1d"),
                    ParamEntry("x", np.zeros(2), "vector1d"),
                ]
            )

    def test_copy_is_deep(self):
        a = self._make(1.0)
        b = a.copy()
        b.entries[0].tensor[0, 0, 0, 0] = 99.0
        assert a.entries[0].tensor[0, 0, 0, 0] == 1.0

    def test_kind_must_match_ndim(self):
        with pytest.raises(ShapeError):
            ParamEntry("x", np.zeros((2, 2)), "vector1d")
