import logging

import numpy as np
import pytest

from fedspectra.datasynth import (
    ClientPartition,
    SynthSpec,
    augment,
    default_class_counts,
    default_style,
    export_dataset,
    generate,
    load_dataset,
)
from fedspectra.errors import ConfigError, IngestionError


def small_spec(**kw):
    defaults = dict(
        classes=3,
        height=8,
        width=8,
        client_class_counts=[[12, 8, 6], [10, 4, 4]],
        brightness=[0.0, 0.1],
        contrast=[1.0, 1.1],
        noise_level=0.02,
        seed=3,
    )
    defaults.update(kw)
    return SynthSpec(**defaults)


class TestGenerate:
    def test_desk_scale_counts_match_skew_template(self):
        counts = default_class_counts(4, 0.1)
        assert counts[1] == [372, 12, 2]
        assert counts[0] == [183, 47, 68]

    def test_class_histograms_exact(self):
        spec = small_spec()
        parts = generate(spec)
        for part, expected in zip(parts, spec.client_class_counts):
            total = np.concatenate(
                [part.train.labels, part.val.labels, part.test.labels]
            )
            hist = [int((total == k).sum()) for k in range(3)]
            assert hist == expected

    def test_splits_disjoint_and_exhaustive(self):
        spec = small_spec()
        for part, counts in zip(generate(spec), spec.client_class_counts):
            sizes = len(part.train) + len(part.val) + len(part.test)
            assert sizes == sum(counts)
            assert len(part.val) > 0 and len(part.test) > 0

    def test_deterministic_in_seed(self):
        a = generate(small_spec())
        b = generate(small_spec())
        for pa, pb in zip(a, b):
            for split in ("train", "val", "test"):
                assert np.array_equal(pa.split(split).images, pb.split(split).images)
                assert np.array_equal(pa.split(split).labels, pb.split(split).labels)

    def test_different_seeds_differ(self):
        a = generate(small_spec(seed=1))
        b = generate(small_spec(seed=2))
        assert not np.array_equal(a[0].train.images, b[0].train.images)

    def test_zero_noise_no_jitter_identical_samples(self):
        spec = small_spec(noise_level=0.0, jitter=False, brightness=[0.0, 0.0], contrast=[1.0, 1.0])
        parts = generate(spec)
        part = parts[0]
        imgs = part.train.images[part.train.labels == 0]
        assert len(imgs) >= 2
        assert np.array_equal(imgs[0], imgs[1])

    def test_client_style_shift_applied(self):
        base = small_spec(noise_level=0.0, jitter=False, brightness=[0.0, 0.5], contrast=[1.0, 1.0])
        parts = generate(base)
        img0 = parts[0].train.images[parts[0].train.labels == 0][0]
        img1 = parts[1].train.images[parts[1].train.labels == 0][0]
        assert np.allclose(img1 - img0, 0.5, atol=1e-12)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            generate(small_spec(client_class_counts=[[1, 2]]))
        with pytest.raises(ConfigError):
            generate(small_spec(client_class_counts=[[0, 0, 0]]))

    def test_default_counts_shrink_with_client_count(self):
        c4 = default_class_counts(4, 0.1)
        c8 = default_class_counts(8, 0.1)
        assert sum(sum(r) for r in c8) <= sum(sum(r) for r in c4) + 50

    @pytest.mark.parametrize("n,fell_back,first", [(256, 192, 0), (4, 1, 1)])
    def test_one_split_warning_per_call(self, caplog, n, fell_back, first):
        # the desk counts at n clients; image size moves no split
        brightness, contrast = default_style(n)
        counts = default_class_counts(n, 0.1)
        spec = small_spec(client_class_counts=counts, brightness=brightness, contrast=contrast)
        caplog.set_level(logging.WARNING, logger="fedspectra.datasynth")
        generate(spec)
        assert [r.getMessage() for r in caplog.records if r.name == "fedspectra.datasynth"] == [
            f"{fell_back} of {n} clients have a class with fewer than 3 samples; "
            f"their splits are unstratified (first: client {first})"
        ]

    def test_default_style_centered(self):
        b, c = default_style(1)
        assert b == [0.0] and c == [1.0]
        b4, c4 = default_style(4)
        assert len(b4) == len(c4) == 4
        assert b4[0] < 0 < b4[-1]


class TestAugment:
    def test_identity_when_rng_gives_zero_ops(self):
        class FakeRng:
            def random(self):
                return 0.9  # no flips

            def integers(self, lo, hi):
                return 0  # no rotation

        img = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = augment(img, FakeRng())
        assert np.array_equal(out, img)

    def test_rot180_twice_is_identity(self):
        img = np.arange(16, dtype=float).reshape(1, 4, 4)
        r180 = np.rot90(img, 2, axes=(-2, -1))
        assert np.array_equal(np.rot90(r180, 2, axes=(-2, -1)), img)

    def test_group_closure_on_marker_image(self):
        # the flip/rotation group acting on a 4x4 marker closes (dihedral
        # group: at most 8 distinct images); two successive augmentations
        # always land inside the single-augmentation orbit
        marker = np.zeros((1, 4, 4))
        marker[0, 0, 1] = 1.0
        marker[0, 2, 3] = 2.0

        def orbit(img):
            seen = set()
            for hf in (False, True):
                for vf in (False, True):
                    for k in range(4):
                        out = img
                        if hf:
                            out = out[..., :, ::-1]
                        if vf:
                            out = out[..., ::-1, :]
                        out = np.rot90(out, k, axes=(-2, -1))
                        seen.add(out.tobytes())
            return seen

        single = orbit(marker)
        assert len(single) == 8
        for img_bytes in list(single):
            img = np.frombuffer(img_bytes).reshape(1, 4, 4)
            assert orbit(img) == single

    def test_shape_and_values_preserved(self, rng):
        img = rng.normal(size=(2, 6, 6))
        out = augment(img, rng)
        assert out.shape == img.shape
        assert sorted(out.ravel()) == sorted(img.ravel())

    def test_non_square_rejected(self, rng):
        with pytest.raises(ConfigError):
            augment(np.zeros((1, 4, 6)), rng)


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        parts = generate(small_spec())
        export_dataset(parts, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        assert len(loaded) == len(parts)
        for pa, pb in zip(parts, loaded):
            for split in ("train", "val", "test"):
                assert np.array_equal(pa.split(split).images, pb.split(split).images)
                assert np.array_equal(pa.split(split).labels, pb.split(split).labels)

    def test_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(IngestionError, match="no clients found"):
            load_dataset(tmp_path / "empty")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "data" / "client_0" / "images").mkdir(parents=True)
        with pytest.raises(IngestionError, match="manifest"):
            load_dataset(tmp_path / "data")

    def test_unknown_split_token(self, tmp_path):
        parts = generate(small_spec())
        export_dataset(parts, tmp_path / "data")
        manifest = tmp_path / "data" / "client_0" / "labels.csv"
        text = manifest.read_text().replace("val", "validation")
        manifest.write_text(text)
        with pytest.raises(IngestionError, match=r"train,val,test"):
            load_dataset(tmp_path / "data")

    def test_shape_mismatch_detected(self, tmp_path):
        from fedspectra import fmmt

        parts = generate(small_spec())
        export_dataset(parts, tmp_path / "data")
        victim = next((tmp_path / "data" / "client_0" / "images").glob("*.fmmt"))
        fmmt.write_tensor(victim, np.zeros((1, 3, 3)))
        with pytest.raises(IngestionError, match="shape"):
            load_dataset(tmp_path / "data")

    def test_bad_label_rejected(self, tmp_path):
        parts = generate(small_spec())
        export_dataset(parts, tmp_path / "data")
        manifest = tmp_path / "data" / "client_0" / "labels.csv"
        lines = manifest.read_text().splitlines()
        parts_of = lines[1].split(",")
        lines[1] = f"{parts_of[0]},banana,{parts_of[2]}"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="label"):
            load_dataset(tmp_path / "data")

    def test_roundtrip_twelve_clients_keeps_ids(self, tmp_path):
        # as text, client_10 and client_11 sort before client_2
        n = 12
        brightness, contrast = default_style(n)
        spec = small_spec(
            client_class_counts=[[4, 3, 3]] * n, brightness=brightness, contrast=contrast
        )
        parts = generate(spec)
        export_dataset(parts, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        assert [p.client_id for p in loaded] == list(range(n))
        for pa, pb in zip(parts, loaded):
            for split in ("train", "val", "test"):
                assert np.array_equal(pa.split(split).images, pb.split(split).images)
                assert np.array_equal(pa.split(split).labels, pb.split(split).labels)

    @pytest.mark.parametrize(
        "rename,match",
        [
            ("client_5", "missing \\[1\\]"),
            ("client_00", "duplicate client id 0"),
            ("client_x", "not an integer"),
        ],
    )
    def test_bad_client_numbering_rejected(self, tmp_path, rename, match):
        export_dataset(generate(small_spec()), tmp_path / "data")
        (tmp_path / "data" / "client_1").rename(tmp_path / "data" / rename)
        with pytest.raises(IngestionError, match=match):
            load_dataset(tmp_path / "data")
