import tracemalloc

import numpy as np
import pytest

from conftest import naive_dft2
from fedspectra.errors import CongruenceError, DomainError, NonFiniteError, ShapeError
from fedspectra.nn import build_network
from fedspectra.spectral import (
    CfaSchedule,
    build_mask,
    cfa_aggregate,
    fft2d,
    from_amplitude_phase,
    ifft2d_complex,
    schedule_threshold,
    to_amplitude_phase,
)
from fedspectra.tensors import ParamEntry, ParameterSet, matrix_to_conv, reshape_conv_to_matrix


class TestFft:
    def test_two_point_dft_by_hand(self):
        spec = fft2d(np.array([[1.0, 3.0]]))
        assert np.allclose(spec, [[4.0 + 0j, -2.0 + 0j]], atol=1e-12)

    def test_constant_matrix_dc_only(self):
        m = np.full((3, 5), 2.5)
        spec = fft2d(m)
        assert abs(spec[0, 0] - 2.5 * 15) < 1e-12
        spec[0, 0] = 0.0
        assert np.abs(spec).max() < 1e-12

    def test_matches_naive_oracle_5x7(self, rng):
        m = rng.normal(size=(5, 7))
        assert np.abs(fft2d(m) - naive_dft2(m)).max() < 1e-9

    @pytest.mark.parametrize("rows", range(1, 9))
    @pytest.mark.parametrize("cols", range(1, 9))
    def test_matches_naive_oracle_all_small_shapes(self, rows, cols, rng):
        m = rng.normal(size=(rows, cols))
        err = np.abs(fft2d(m) - naive_dft2(m)).max()
        assert err < 1e-9 * max(1.0, np.abs(m).max())

    def test_roundtrip(self, rng):
        m = rng.normal(size=(6, 10))
        back = ifft2d_complex(fft2d(m))
        scale = np.abs(m).max()
        assert np.abs(back.real - m).max() <= 1e-9 * scale
        assert np.abs(back.imag).max() <= 1e-9 * scale

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            fft2d(np.zeros((0, 3)))
        with pytest.raises(ShapeError):
            ifft2d_complex(np.zeros((0, 3), dtype=complex))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ShapeError):
            fft2d(np.ones(4))
        with pytest.raises(ShapeError):
            ifft2d_complex(np.ones(4, dtype=complex))


def _dft_matrix(n, sign=-1):
    """Dense DFT matrix exp(sign * 2j*pi*j*k/n), exponent reduced mod n."""
    k = np.arange(n)
    return np.exp(sign * 2j * np.pi * (np.outer(k, k) % n) / n)


class TestStackedFft:
    """A [N, rows, cols] stack goes through one call; each slice must equal
    its own 2-D DFT."""

    def test_stack_matches_naive_oracle_5x7(self, rng):
        stack = rng.normal(size=(3, 5, 7))
        spec = fft2d(stack)
        assert spec.shape == stack.shape
        for m, f in zip(stack, spec):
            assert np.abs(f - naive_dft2(m)).max() < 1e-9
        back = ifft2d_complex(spec)
        for f, b in zip(spec, back):
            naive_inverse = np.conj(naive_dft2(np.conj(f))) / f.size
            assert np.abs(b - naive_inverse).max() < 1e-9

    def test_stack_matches_matrix_form_fc1_shape(self, rng):
        stack = rng.normal(size=(3, 64, 576))
        f_r, f_c = _dft_matrix(64), _dft_matrix(576)
        spec = fft2d(stack)
        back = ifft2d_complex(spec)
        for m, f, b in zip(stack, spec, back):
            scale = np.abs(m).sum()
            assert np.abs(f - f_r @ m @ f_c).max() <= 1e-12 * scale
            inverse = np.conj(f_r) @ f @ np.conj(f_c) / m.size
            assert np.abs(b - inverse).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape", [(4, 5, 7), (2, 64, 576), (2, 3, 1, 9)])
    def test_stack_roundtrip(self, shape, rng):
        stack = rng.normal(size=shape)
        back = ifft2d_complex(fft2d(stack))
        scale = np.abs(stack).max()
        assert np.abs(back.real - stack).max() <= 1e-12 * scale
        assert np.abs(back.imag).max() <= 1e-12 * scale


class TestAmplitudePhase:
    def test_pure_imaginary(self):
        amp, ph = to_amplitude_phase(np.array([[1j]]))
        assert amp[0, 0] == pytest.approx(1.0)
        assert ph[0, 0] == pytest.approx(np.pi / 2)

    def test_negative_real(self):
        amp, ph = to_amplitude_phase(np.array([[-2.0 + 0j]]))
        assert amp[0, 0] == pytest.approx(2.0)
        assert ph[0, 0] == pytest.approx(np.pi)

    def test_zero_coefficient_phase_zero(self):
        _, ph = to_amplitude_phase(np.array([[0j]]))
        assert ph[0, 0] == 0.0

    def test_roundtrip_random(self, rng):
        f = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        back = from_amplitude_phase(*to_amplitude_phase(f))
        assert np.abs(back - f).max() < 1e-9


class TestMask:
    def test_quarter_mask_8x8(self):
        mask = build_mask(8, 8, 0.25)
        assert mask.sum() == 25
        wrapped = {0, 1, 2, 6, 7}  # {0, +-1, +-2} mod 8
        for a in range(8):
            for b in range(8):
                assert mask[a, b] == (a in wrapped and b in wrapped)

    def test_dc_only(self):
        mask = build_mask(4, 4, 0.1)
        assert mask.sum() == 1
        assert mask[0, 0]

    def test_never_full_below_half(self):
        mask = build_mask(8, 8, 0.49)
        assert mask.sum() == 49

    def test_population_law_random(self, rng):
        for _ in range(50):
            rows = int(rng.integers(1, 20))
            cols = int(rng.integers(1, 20))
            s = float(rng.uniform(0.01, 0.499))
            mask = build_mask(rows, cols, s)
            hr, hc = int(np.floor(s * rows)), int(np.floor(s * cols))
            assert mask.sum() == (2 * hr + 1) * (2 * hc + 1)

    def test_symmetry_and_dc(self, rng):
        for _ in range(20):
            rows = int(rng.integers(1, 16))
            cols = int(rng.integers(1, 16))
            mask = build_mask(rows, cols, float(rng.uniform(0.05, 0.45)))
            assert mask[0, 0]
            for a in range(rows):
                for b in range(cols):
                    assert mask[a, b] == mask[(-a) % rows, (-b) % cols]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            build_mask(4, 4, 0.0)
        with pytest.raises(DomainError):
            build_mask(4, 4, 0.5)


class TestSchedule:
    def test_default_endpoints(self):
        sch = CfaSchedule(0.26, 0.55, 300)
        assert schedule_threshold(sch, 0) == 0.26
        assert schedule_threshold(sch, 300) == 0.55

    def test_midpoint(self):
        sch = CfaSchedule(0.26, 0.55, 300)
        assert schedule_threshold(sch, 150) == pytest.approx(0.405)

    def test_negative_epoch(self):
        with pytest.raises(DomainError):
            schedule_threshold(CfaSchedule(0.2, 0.3, 10), -1)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            CfaSchedule(0.3, 0.2, 10)
        with pytest.raises(DomainError):
            CfaSchedule(0.6, 0.7, 10)


def _set_of(arrays):
    entries = []
    for i, arr in enumerate(arrays):
        arr = np.asarray(arr, dtype=float)
        kind = {4: "conv4d", 2: "matrix2d", 1: "vector1d"}[arr.ndim]
        entries.append(ParamEntry(f"p{i}", arr, kind))
    return ParameterSet(entries)


class TestCfaAggregate:
    def test_identical_clients_identity(self, rng):
        base = _set_of([rng.normal(size=(2, 1, 3, 3)), rng.normal(size=(4, 6)), rng.normal(size=3)])
        outs = cfa_aggregate([base.copy() for _ in range(3)], 0.3)
        for out in outs:
            assert out.allclose(base, atol=1e-9)

    def test_single_client_identity(self, rng):
        base = _set_of([rng.normal(size=(5, 8))])
        out = cfa_aggregate([base], 0.2)[0]
        assert out.allclose(base, atol=1e-9)

    def test_full_mask_equals_fedavg(self, rng):
        sets = [_set_of([rng.normal(size=(6, 8))]) for _ in range(4)]
        full = np.ones((6, 8), dtype=bool)
        outs = cfa_aggregate(sets, 0.3, mask_override=full)
        mean = np.mean([s.entries[0].tensor for s in sets], axis=0)
        for out in outs:
            assert np.abs(out.entries[0].tensor - mean).max() < 1e-9

    def test_dc_only_two_client_example(self):
        a = _set_of([np.array([[1.0, 3.0]])])
        b = _set_of([np.array([[5.0, 9.0]])])
        dc = np.array([[True, False]])
        outs = cfa_aggregate([a, b], 0.3, mask_override=dc)
        assert np.allclose(outs[0].entries[0].tensor, [[3.5, 5.5]], atol=1e-9)
        assert np.allclose(outs[1].entries[0].tensor, [[2.5, 6.5]], atol=1e-9)

    def test_dc_only_mean_preservation(self, rng):
        sets = [_set_of([rng.normal(size=(4, 4))]) for _ in range(3)]
        dc = np.zeros((4, 4), dtype=bool)
        dc[0, 0] = True
        outs = cfa_aggregate(sets, 0.1, mask_override=dc)
        grand = np.mean([s.entries[0].tensor.mean() for s in sets])
        for s_in, s_out in zip(sets, outs):
            t_in, t_out = s_in.entries[0].tensor, s_out.entries[0].tensor
            assert t_out.mean() == pytest.approx(grand, abs=1e-9)
            assert np.abs((t_out - t_out.mean()) - (t_in - t_in.mean())).max() < 1e-9

    def test_permutation_equivariance(self, rng):
        sets = [_set_of([rng.normal(size=(3, 5))]) for _ in range(3)]
        outs = cfa_aggregate(sets, 0.3)
        perm_outs = cfa_aggregate(sets[::-1], 0.3)
        for a, b in zip(outs[::-1], perm_outs):
            assert a.allclose(b, atol=1e-12)

    def test_conv_entries_roundtrip_through_reshape(self, rng):
        sets = [_set_of([rng.normal(size=(2, 2, 3, 3))]) for _ in range(2)]
        outs = cfa_aggregate(sets, 0.3)
        for out in outs:
            assert out.entries[0].tensor.shape == (2, 2, 3, 3)
            assert np.all(np.isfinite(out.entries[0].tensor))

    def test_vector_entries_plain_mean(self):
        a = _set_of([np.array([1.0, 2.0])])
        b = _set_of([np.array([3.0, 6.0])])
        outs = cfa_aggregate([a, b], 0.3)
        for out in outs:
            assert np.allclose(out.entries[0].tensor, [2.0, 4.0], atol=1e-12)

    def test_real_output_after_aggregation(self, rng):
        sets = [_set_of([rng.normal(size=(5, 7))]) for _ in range(3)]
        for mode in ("complex", "amplitude_phase"):
            outs = cfa_aggregate(sets, 0.3, domain_mode=mode)
            for out in outs:
                assert np.all(np.isfinite(out.entries[0].tensor))

    def test_amplitude_phase_identity_on_equals(self, rng):
        base = _set_of([rng.normal(size=(4, 6))])
        outs = cfa_aggregate([base.copy(), base.copy()], 0.3, domain_mode="amplitude_phase")
        for out in outs:
            assert out.allclose(base, atol=1e-9)

    def test_amplitude_phase_opposite_signs_stay_real(self):
        # one nonzero bin (DC): coefficients 16 and -32 cancel as phasors,
        # so the shared DC takes the mean amplitude 24 with phase 0 or pi
        outs = cfa_aggregate(
            [_set_of([np.full((4, 4), 1.0)]), _set_of([np.full((4, 4), -2.0)])],
            0.3,
            domain_mode="amplitude_phase",
        )
        for out in outs:
            t = out.entries[0].tensor
            assert np.isrealobj(t)
            assert np.allclose(np.abs(t), 1.5, rtol=0.0, atol=1e-12)
            assert np.all(t == t[0, 0])

    def test_amplitude_phase_dc_sign_follows_majority(self):
        # phasors +1, +1, -1: mean phase 0, mean amplitude (16+16+32)/3
        sets = [_set_of([np.full((4, 4), v)]) for v in (1.0, 1.0, -2.0)]
        for out in cfa_aggregate(sets, 0.3, domain_mode="amplitude_phase"):
            assert np.allclose(out.entries[0].tensor, 4.0 / 3.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(100, 105))
    def test_amplitude_phase_fresh_smallcnn_uploads(self, seed):
        init = np.random.default_rng(seed)
        sets = [build_network("smallcnn", 1, 32, 32, 3, init).parameters() for _ in range(4)]
        for out in cfa_aggregate(sets, 0.3, domain_mode="amplitude_phase"):
            for e in out.entries:
                assert np.isrealobj(e.tensor) and np.all(np.isfinite(e.tensor))

    def test_saturated_threshold_equals_fedavg(self, rng):
        # s >= 0.5 saturates the wrapped interval: whole spectrum shared
        sets = [_set_of([rng.normal(size=(4, 4))]) for _ in range(3)]
        outs = cfa_aggregate(sets, 0.55)
        mean = np.mean([s.entries[0].tensor for s in sets], axis=0)
        for out in outs:
            assert np.abs(out.entries[0].tensor - mean).max() < 1e-9

    def test_incongruent_rejected(self, rng):
        a = _set_of([rng.normal(size=(2, 2))])
        b = _set_of([rng.normal(size=(3, 2))])
        with pytest.raises(CongruenceError):
            cfa_aggregate([a, b], 0.3)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            cfa_aggregate([], 0.3)

    def test_bad_threshold_rejected(self, rng):
        a = _set_of([rng.normal(size=(2, 2))])
        with pytest.raises(DomainError):
            cfa_aggregate([a], 0.0)


def _wrapped_mask(rows, cols, s):
    """Independent wrapped low-frequency mask: |k| <= floor(s*n) per axis."""
    def axis(n):
        h = int(np.floor(s * n))
        return np.array([min(k, n - k) <= h for k in range(n)])

    return np.outer(axis(rows), axis(cols))


class TestCfaFilterForm:
    """Complex-mode CFA runs as a separable real filter; the per-client FFT
    form (reached through mask_override with the same mask) is its oracle."""

    @staticmethod
    def _check_against_fft_form(sets, s):
        outs = cfa_aggregate(sets, s)
        for idx, proto in enumerate(sets[0].entries):
            shape = proto.tensor.shape
            rows, cols = (shape[0] * shape[2], shape[1] * shape[3]) if proto.kind == "conv4d" else shape
            fft_outs = cfa_aggregate(sets, s, mask_override=_wrapped_mask(rows, cols, s))
            scale = max(1.0, max(np.abs(cs.entries[idx].tensor).max() for cs in sets))
            for out, ref in zip(outs, fft_outs):
                got = out.entries[idx].tensor
                assert got.dtype == np.float64 and got.shape == shape
                assert np.abs(got - ref.entries[idx].tensor).max() <= 1e-12 * scale
            mean_in = np.mean([cs.entries[idx].tensor for cs in sets], axis=0)
            mean_out = np.mean([out.entries[idx].tensor for out in outs], axis=0)
            assert np.abs(mean_out - mean_in).max() <= 1e-12 * scale
        return outs

    @pytest.mark.parametrize(
        "shape", [(1, 9), (9, 1), (5, 7), (12, 10), (3, 3, 3, 5), (16, 8, 3, 3)]
    )
    @pytest.mark.parametrize("n_clients", [1, 2, 5])
    @pytest.mark.parametrize("s", [0.1, 0.3, 0.45])
    def test_matches_fft_form(self, shape, n_clients, s, rng):
        sets = [_set_of([rng.normal(size=shape)]) for _ in range(n_clients)]
        self._check_against_fft_form(sets, s)

    def test_matches_fft_form_fc1_shape(self, rng):
        # fc1's [64, 576] weight: 576 = 9 * 64 is not a power of two
        sets = [_set_of([rng.normal(size=(64, 576))]) for _ in range(5)]
        self._check_against_fft_form(sets, 0.3)

    @pytest.mark.parametrize("s", [0.5, 0.55, 0.9])
    @pytest.mark.parametrize("shape", [(1, 9), (6, 7), (2, 3, 3, 3)])
    def test_saturated_threshold_is_plain_mean(self, shape, s, rng):
        sets = [_set_of([rng.normal(size=shape)]) for _ in range(3)]
        outs = self._check_against_fft_form(sets, s)
        mean = np.mean([cs.entries[0].tensor for cs in sets], axis=0)
        for out in outs:
            assert np.abs(out.entries[0].tensor - mean).max() <= 1e-12 * max(1.0, np.abs(mean).max())


def _stacked_cfa(sets, s):
    """Complex-mode CFA as one whole-stack formula per entry: L from
    stack.mean(axis=0), then stack - irfft2(rfft2(stack) * half) + L with
    half the rfft2 half of the mask, or L + 0.0 for every client where the
    mask covers the whole spectrum."""
    outs = [[] for _ in sets]
    for idx, proto in enumerate(sets[0].entries):
        tensors = [cs.entries[idx].tensor for cs in sets]
        if proto.kind == "conv4d":
            tensors = [reshape_conv_to_matrix(t) for t in tensors]
        stack = np.stack(tensors)
        if proto.kind == "vector1d":
            results = [stack.mean(axis=0)] * len(sets)
        else:
            rows, cols = stack.shape[1:]
            mask = _wrapped_mask(rows, cols, s)
            spec = np.fft.fft2(stack.mean(axis=0))
            low = np.fft.ifft2(np.where(mask, spec, 0)).real
            if mask.all():
                results = [low + 0.0] * len(sets)
            else:
                half = mask[:, : cols // 2 + 1]
                results = stack - np.fft.irfft2(np.fft.rfft2(stack) * half, s=(rows, cols)) + low
        for out, real in zip(outs, results):
            if proto.kind == "conv4d":
                real = matrix_to_conv(real, *proto.tensor.shape)
            out.append(real)
    return outs


class TestCfaPerClientFilter:
    """Complex-mode CFA low-passes one client at a time with a real
    transform pair; the bits equal the whole-stack formula's."""

    _ODD_SHAPES = [(1, 9), (9, 1), (5, 7), (12, 10), (3, 3, 3, 5), (16, 8, 3, 3)]

    @staticmethod
    def _uploads(kind, n, seed=5):
        rng = np.random.default_rng(seed)
        if kind == "smallcnn":
            return [build_network("smallcnn", 1, 32, 32, 3, rng).parameters() for _ in range(n)]
        return [_set_of([rng.normal(size=shape) for shape in TestCfaPerClientFilter._ODD_SHAPES])
                for _ in range(n)]

    @pytest.mark.parametrize("s", [0.26, 0.30, 0.34, 0.45, 0.5, 0.55])
    @pytest.mark.parametrize("n_clients", [1, 2, 5, 32])
    @pytest.mark.parametrize("kind", ["smallcnn", "odd_shapes"])
    def test_bitwise_equal_to_stacked_formula(self, kind, n_clients, s):
        sets = self._uploads(kind, n_clients)
        for out, ref in zip(cfa_aggregate(sets, s), _stacked_cfa(sets, s)):
            for entry, want in zip(out.entries, ref):
                got = entry.tensor
                assert got.shape == want.shape, entry.name
                assert np.array_equal(got, want), entry.name
                assert np.array_equal(np.signbit(got), np.signbit(want)), entry.name

    def test_transient_memory_is_one_client_plus_outputs(self):
        # a whole-stack filter holds several [32, 64, 576] arrays at once
        # and peaks near four times the outputs
        sets = self._uploads("smallcnn", 32)
        tracemalloc.start()
        try:
            outs = cfa_aggregate(sets, 0.30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_bytes = sum(e.tensor.nbytes for out in outs for e in out.entries)
        assert peak < 1.25 * out_bytes


class TestCfaNonFinite:
    @staticmethod
    def _smallcnn_sets(n):
        init = np.random.default_rng(7)
        return [build_network("smallcnn", 1, 32, 32, 3, init).parameters() for _ in range(n)]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "kwargs", [{}, {"domain_mode": "amplitude_phase"}], ids=["filter", "fft"]
    )
    def test_non_finite_upload_names_entry_and_client(self, kwargs, value):
        sets = self._smallcnn_sets(4)
        sets[2].get("fc1.weight").tensor[3, 5] = value
        sets[3].get("fc1.weight").tensor[0, 0] = value
        with pytest.raises(NonFiniteError, match=r"'fc1\.weight'.*client 2"):
            cfa_aggregate(sets, 0.3, **kwargs)

    def test_non_finite_vector_entry(self):
        sets = self._smallcnn_sets(2)
        sets[0].get("fc1.bias").tensor[0] = np.nan
        with pytest.raises(NonFiniteError, match=r"'fc1\.bias'.*client 0"):
            cfa_aggregate(sets, 0.3)

    def test_mask_override_path_checked(self, rng):
        sets = [_set_of([rng.normal(size=(4, 4))]) for _ in range(2)]
        sets[1].entries[0].tensor[2, 2] = np.nan
        with pytest.raises(NonFiniteError, match="client 1"):
            cfa_aggregate(sets, 0.3, mask_override=np.ones((4, 4), dtype=bool))
