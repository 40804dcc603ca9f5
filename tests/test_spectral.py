import numpy as np
import pytest

from conftest import naive_dft2
from fedspectra.errors import CongruenceError, DomainError, ShapeError
from fedspectra.nn import build_network
from fedspectra.spectral import (
    CfaSchedule,
    build_mask,
    cfa_aggregate,
    fft2d,
    from_amplitude_phase,
    ifft2d,
    ifft2d_complex,
    schedule_threshold,
    to_amplitude_phase,
)
from fedspectra.tensors import ParamEntry, ParameterSet


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
            ifft2d(np.zeros((0, 3), dtype=complex))


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
