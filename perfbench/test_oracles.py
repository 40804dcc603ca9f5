"""Each oracle accepts the program's answer and rejects a wrong one.

    python3 -m pytest perfbench/test_oracles.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from fedspectra import fmmt, nn, spectral  # noqa: E402
from fedspectra.federation import fedavg_aggregate  # noqa: E402
from fedspectra.tensors import ParamEntry, ParameterSet  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _uploads(rng, n=3):
    return [
        ParameterSet([
            ParamEntry("conv.weight", rng.normal(size=(4, 2, 3, 3)), "conv4d"),
            ParamEntry("fc.weight", rng.normal(size=(5, 7)), "matrix2d"),
            ParamEntry("fc.bias", rng.normal(size=6), "vector1d"),
        ])
        for _ in range(n)
    ]


def _dicts(sets):
    return [{e.name: e.tensor for e in ps.entries} for ps in sets]


def _bump_coefficient(matrix, row, col, eps=1e-3):
    delta = np.zeros(matrix.shape, dtype=complex)
    delta[row, col] = eps * matrix.size
    return matrix + np.fft.ifft2(delta).real


# -- CFA --------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.3, 0.55])
def test_cfa_oracle_accepts_program_output(rng, s):
    sets = _uploads(rng)
    out = spectral.cfa_aggregate(sets, s)
    assert oracles.check_cfa(_dicts(sets), _dicts(out), s) == []
    assert oracles.check_shared_low_band(_dicts(out), s) == []


def test_cfa_oracle_rejects_one_perturbed_coefficient(rng):
    sets = _uploads(rng)
    out = _dicts(spectral.cfa_aggregate(sets, 0.3))
    out[1]["fc.weight"] = _bump_coefficient(out[1]["fc.weight"], 0, 1)
    errors = oracles.check_cfa(_dicts(sets), out, 0.3)
    assert any("client 1" in e for e in errors)
    assert any("client mean" in e for e in errors)
    assert oracles.check_shared_low_band(out, 0.3)


def test_cfa_oracle_rejects_wrong_mask(rng):
    sets = _uploads(rng)
    out = spectral.cfa_aggregate(sets, 0.3)
    assert oracles.check_cfa(_dicts(sets), _dicts(out), 0.45)


def test_shared_low_band_rejects_unshared_vector(rng):
    out = _dicts(spectral.cfa_aggregate(_uploads(rng), 0.3))
    out[2]["fc.bias"] = out[2]["fc.bias"] + 1e-15
    assert oracles.check_shared_low_band(out, 0.3)


def test_weighted_mean_check(rng):
    sets = _uploads(rng)
    out = _dicts([fedavg_aggregate(sets, [3, 1, 2])])[0]
    assert oracles.check_weighted_mean(_dicts(sets), [3, 1, 2], out) == []
    assert oracles.check_weighted_mean(_dicts(sets), [1, 1, 1], out)


def test_conv_to_matrix_matches_documented_layout(rng):
    w = rng.normal(size=(3, 2, 4, 5))
    m = oracles.conv_to_matrix(w)
    assert m[1 * 4 + 2, 1 * 5 + 3] == w[1, 1, 2, 3]


# -- FMMT -------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fmmt_reader_parses_program_files(tmp_path, rng, dtype):
    arr = rng.normal(size=(2, 3, 4)).astype(dtype)
    fmmt.write_tensor(tmp_path / "t.fmmt", arr)
    assert np.array_equal(oracles.read_fmmt(tmp_path / "t.fmmt"), arr.astype(np.float64))
    assert oracles.fmmt_size(arr) == (tmp_path / "t.fmmt").stat().st_size


def test_fmmt_reader_sees_a_changed_byte_and_rejects_bad_files(tmp_path, rng):
    arr = rng.normal(size=(3, 3))
    path = tmp_path / "t.fmmt"
    fmmt.write_tensor(path, arr)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    assert not np.array_equal(oracles.read_fmmt(path), arr)
    path.write_bytes(bytes(raw[:-1]))
    with pytest.raises(ValueError):
        oracles.read_fmmt(path)
    path.write_bytes(b"FMMX" + bytes(raw[4:]))
    with pytest.raises(ValueError):
        oracles.read_fmmt(path)


# -- forward pass -----------------------------------------------------------


def _trained_like(arch, rng):
    net = nn.build_network(arch, 1, 32, 32, 3, rng)
    ps = net.parameters()
    for e in ps.entries:
        if e.name.endswith("running_var"):
            e.tensor = rng.uniform(0.5, 2.0, e.tensor.shape)
        elif e.name.endswith(("running_mean", "beta", "bias")):
            e.tensor = rng.normal(0.0, 0.3, e.tensor.shape)
    net.import_parameters(ps)
    return net


@pytest.mark.parametrize("arch", ["smallcnn", "smallcnn_bn"])
def test_forward_oracle_matches_program(rng, arch):
    net = _trained_like(arch, rng)
    images = rng.normal(0.5, 0.3, size=(12, 1, 32, 32))
    params = {e.name: e.tensor for e in net.parameters().entries}
    np.testing.assert_allclose(oracles.smallcnn_probs(params, images), net.forward(images),
                               rtol=0, atol=1e-12)
    labels = net.forward(images).argmax(axis=1)
    assert oracles.check_accuracy(params, images, labels, 1.0) == []


def test_forward_oracle_rejects_flipped_bn_statistic(rng):
    net = _trained_like("smallcnn_bn", rng)
    images = rng.normal(0.5, 0.3, size=(12, 1, 32, 32))
    params = {e.name: e.tensor.copy() for e in net.parameters().entries}
    params["bn1.running_mean"][0] = -params["bn1.running_mean"][0]
    assert not np.allclose(oracles.smallcnn_probs(params, images), net.forward(images),
                           rtol=0, atol=1e-9)


def test_accuracy_check_rejects_swapped_weight(rng):
    net = _trained_like("smallcnn", rng)
    images = rng.normal(0.5, 0.3, size=(30, 1, 32, 32))
    labels = net.forward(images).argmax(axis=1)
    params = {e.name: e.tensor.copy() for e in net.parameters().entries}
    top = int(np.bincount(labels).argmax())  # swap the most predicted class's row
    perm = np.arange(3)
    perm[[top, (top + 1) % 3]] = perm[[(top + 1) % 3, top]]
    params["fc2.weight"] = params["fc2.weight"][perm]
    params["fc2.bias"] = params["fc2.bias"][perm]
    assert oracles.check_accuracy(params, images, labels, 1.0)


# -- metrics.csv and events.jsonl ---------------------------------------------


def _row(rnd, cid, split, acc="0.5", auc="0.7"):
    return {"round": str(rnd), "epoch": str(2 * rnd), "client_id": str(cid), "model": "model",
            "split": split, "accuracy": acc, "macro_f1": "0.4", "macro_auc": auc, "loss": "0.9"}


LABELS = [{"val": np.array([0, 1]), "test": np.array([0, 0])}]


def test_metrics_check():
    rows = [_row(1, 0, "val"), _row(1, 0, "test", auc="nan")]
    assert oracles.check_metrics(rows, 1, 2, ("model",), LABELS) == []
    assert oracles.check_metrics(rows[:1], 1, 2, ("model",), LABELS)
    assert oracles.check_metrics([_row(1, 0, "val", acc="1.2"), rows[1]], 1, 2, ("model",), LABELS)
    assert oracles.check_metrics([_row(1, 0, "val", auc="nan"), rows[1]], 1, 2, ("model",), LABELS)
    assert oracles.check_metrics([rows[0], _row(1, 0, "test")], 1, 2, ("model",), LABELS)


def _guard(epoch, src, dst, phi_c, phi_q=1.0):
    return {"type": "guard", "epoch": epoch, "client_id": 0, "phase_from": src,
            "phase_to": dst, "phi_c": phi_c, "phi_q": phi_q}


def _events():
    s = oracles.schedule_s(0.26, 0.55, 4, 2)
    return [
        _guard(1, "retrieve", "reciprocate", 0.7),
        _guard(2, "reciprocate", "reciprocate", 0.7),
        {"type": "aggregation", "round": 1, "epoch": 2, "s": round(s, 12)},
        _guard(3, "retrieve", "retrieve", 0.5),
        _guard(4, "retrieve", "reciprocate", 0.65),
        {"type": "aggregation", "round": 2, "epoch": 4, "s": 0.55},
    ]


def test_events_check_accepts_guard_law():
    assert oracles.check_events(_events(), 1, 4, 2, (0.6, 0.8), (0.26, 0.55)) == []


@pytest.mark.parametrize("index, change", [
    (0, {"phi_c": 0.59}),                                  # moved below lambda1
    (1, {"phi_c": 0.85}),                                  # stayed above lambda2
    (3, {"phase_from": "reciprocate", "phase_to": "reciprocate"}),  # no reset
    (2, {"s": 0.3}),                                        # off the schedule
])
def test_events_check_rejects_broken_law(index, change):
    events = _events()
    events[index] = {**events[index], **change}
    assert oracles.check_events(events, 1, 4, 2, (0.6, 0.8), (0.26, 0.55))


def test_schedule_is_clamped():
    assert math.isclose(oracles.schedule_s(0.26, 0.55, 10, 20), 0.55)
