import json

import numpy as np
import pytest

from fedspectra import cto
from fedspectra.datasynth import SynthSpec, generate
from fedspectra.errors import ConfigError, DomainError
from fedspectra.federation import (
    FederationConfig,
    _Client,
    fedavg_aggregate,
    fedbn_filter,
    run_experiment,
    _batches,
)
from fedspectra.nn import LrSchedule, backward, build_network
from fedspectra.spectral import CfaSchedule, schedule_threshold
from fedspectra.tensors import ParamEntry, ParameterSet


def tiny_partitions(n_clients=2, seed=5, size=8):
    spec = SynthSpec(
        classes=3,
        height=size,
        width=size,
        client_class_counts=[[10, 8, 6]] * n_clients,
        brightness=[0.0] * n_clients,
        contrast=[1.0] * n_clients,
        noise_level=0.05,
        seed=seed,
    )
    return generate(spec)


def tiny_config(**kw):
    defaults = dict(
        num_clients=2,
        comm_interval=2,
        total_epochs=4,
        aggregator="fedavg",
        cto_enabled=False,
        arch="tiny_mlp",
        batch_size=8,
        seed=0,
        save_checkpoints=False,
    )
    defaults.update(kw)
    return FederationConfig(**defaults)


def _sets(*arrays_per_client):
    out = []
    for arrays in arrays_per_client:
        entries = [
            ParamEntry(f"p{i}", np.asarray(a, dtype=float), "vector1d")
            for i, a in enumerate(arrays)
        ]
        out.append(ParameterSet(entries))
    return out


class TestFedavg:
    def test_weighted_hand_example(self):
        a, b = _sets([np.array([1.0, 2.0])], [np.array([5.0, 10.0])])
        out = fedavg_aggregate([a, b], [3, 1])
        assert np.allclose(out.entries[0].tensor, [2.0, 4.0], atol=1e-12)

    def test_equal_weights_plain_mean(self, rng):
        sets = _sets(*[[rng.normal(size=6)] for _ in range(4)])
        out = fedavg_aggregate(sets, [1, 1, 1, 1])
        mean = np.mean([s.entries[0].tensor for s in sets], axis=0)
        assert np.allclose(out.entries[0].tensor, mean, atol=1e-12)

    def test_weight_scale_invariance(self, rng):
        sets = _sets(*[[rng.normal(size=5)] for _ in range(3)])
        a = fedavg_aggregate(sets, [1, 2, 3])
        b = fedavg_aggregate(sets, [10, 20, 30])
        assert a.allclose(b, atol=1e-12)

    def test_nonpositive_weight_rejected(self, rng):
        sets = _sets([rng.normal(size=3)], [rng.normal(size=3)])
        with pytest.raises(DomainError):
            fedavg_aggregate(sets, [1, 0])

    def test_weight_count_mismatch(self, rng):
        sets = _sets([rng.normal(size=3)], [rng.normal(size=3)])
        with pytest.raises(DomainError):
            fedavg_aggregate(sets, [1, 1, 1])


class TestFedbnFilter:
    def test_partition_laws(self, rng):
        net = build_network("smallcnn_bn", 1, 12, 12, 3, rng)
        full = net.parameters()
        shared, retained = fedbn_filter(full)
        assert len(shared) + len(retained) == len(full)
        assert not any(e.is_batchnorm for e in shared)
        assert all(e.is_batchnorm for e in retained)
        assert set(shared.names()) | set(retained.names()) == set(full.names())

    def test_no_bn_all_shared(self, rng):
        net = build_network("smallcnn", 1, 12, 12, 3, rng)
        shared, retained = fedbn_filter(net.parameters())
        assert len(retained) == 0
        assert len(shared) == len(net.parameters())


class TestBatches:
    def test_partition_45_into_20_20_5(self):
        rng = np.random.default_rng(0)
        sizes = [len(b) for b in _batches(45, 20, rng)]
        assert sizes == [20, 20, 5]

    def test_every_index_exactly_once(self):
        rng = np.random.default_rng(1)
        seen = np.concatenate(list(_batches(33, 10, rng)))
        assert sorted(seen.tolist()) == list(range(33))


class TestRunExperiment:
    def test_round_count_and_single_aggregation(self, tmp_path):
        parts = tiny_partitions()
        cfg = tiny_config(comm_interval=4, total_epochs=4)
        reports = run_experiment(cfg, parts, out_dir=tmp_path)
        assert len(reports) == 1
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        aggs = [e for e in events if e["type"] == "aggregation"]
        assert len(aggs) == 1
        assert aggs[0]["round"] == 1 and aggs[0]["epoch"] == 4

    def test_aggregation_count_matches_schedule(self, tmp_path):
        parts = tiny_partitions()
        cfg = tiny_config(comm_interval=2, total_epochs=6)
        reports = run_experiment(cfg, parts, out_dir=tmp_path)
        assert [r.round for r in reports] == [1, 2, 3]
        assert [r.epoch for r in reports] == [2, 4, 6]

    def test_cfa_threshold_logged_per_round(self, tmp_path):
        parts = tiny_partitions()
        sch = CfaSchedule(0.2, 0.4, 6)
        cfg = tiny_config(aggregator="cfa", cfa=sch, comm_interval=2, total_epochs=6)
        run_experiment(cfg, parts, out_dir=tmp_path)
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        aggs = [e for e in events if e["type"] == "aggregation"]
        for e in aggs:
            assert e["s"] == pytest.approx(
                schedule_threshold(sch, e["epoch"]), abs=1e-12
            )

    def test_fedavg_all_clients_identical_after_round(self, tmp_path):
        from fedspectra import fmmt

        parts = tiny_partitions()
        cfg = tiny_config(comm_interval=4, total_epochs=4, save_checkpoints=True)
        run_experiment(cfg, parts, out_dir=tmp_path)
        base = tmp_path / "checkpoints" / "round_001"
        files0 = sorted((base / "client_0" / "model").glob("*.fmmt"))
        assert files0
        for f0 in files0:
            f1 = base / "client_1" / "model" / f0.name
            assert np.array_equal(fmmt.read_tensor(f0), fmmt.read_tensor(f1))

    def test_cfa_all_clients_differ_outside_mask(self, tmp_path):
        from fedspectra import fmmt

        parts = tiny_partitions()
        cfg = tiny_config(
            aggregator="cfa",
            cfa=CfaSchedule(0.1, 0.1, 4),
            comm_interval=4,
            total_epochs=4,
            save_checkpoints=True,
        )
        run_experiment(cfg, parts, out_dir=tmp_path)
        base = tmp_path / "checkpoints" / "round_001"
        diffs = []
        for f0 in sorted((base / "client_0" / "model").glob("*.fmmt")):
            f1 = base / "client_1" / "model" / f0.name
            diffs.append(
                not np.array_equal(fmmt.read_tensor(f0), fmmt.read_tensor(f1))
            )
        assert any(diffs)

    def test_deterministic_across_calls(self, tmp_path):
        parts = tiny_partitions()
        cfg = tiny_config(cto_enabled=True, comm_interval=2, total_epochs=2)
        run_experiment(cfg, tiny_partitions(), out_dir=tmp_path / "a")
        run_experiment(cfg, parts, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "events.jsonl").read_bytes() == (
            tmp_path / "b" / "events.jsonl"
        ).read_bytes()

    def test_deterministic_across_thread_counts(self, tmp_path, monkeypatch):
        parts_a = tiny_partitions(n_clients=3)
        parts_b = tiny_partitions(n_clients=3)
        cfg = tiny_config(
            num_clients=3, cto_enabled=True, comm_interval=2, total_epochs=2
        )
        monkeypatch.setenv("FEDSPECTRA_THREADS", "1")
        run_experiment(cfg, parts_a, out_dir=tmp_path / "t1")
        monkeypatch.setenv("FEDSPECTRA_THREADS", "3")
        run_experiment(cfg, parts_b, out_dir=tmp_path / "t3")
        assert (tmp_path / "t1" / "metrics.csv").read_bytes() == (
            tmp_path / "t3" / "metrics.csv"
        ).read_bytes()
        assert (tmp_path / "t1" / "events.jsonl").read_bytes() == (
            tmp_path / "t3" / "events.jsonl"
        ).read_bytes()

    def test_cto_guard_events_written(self, tmp_path):
        parts = tiny_partitions()
        cfg = tiny_config(cto_enabled=True, comm_interval=2, total_epochs=2)
        run_experiment(cfg, parts, out_dir=tmp_path)
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        guards = [e for e in events if e["type"] == "guard"]
        # one guard evaluation per client per epoch
        assert len(guards) == 2 * 2
        for g in guards:
            assert set(g) == {
                "type",
                "epoch",
                "client_id",
                "phase_from",
                "phase_to",
                "phi_c",
                "phi_q",
            }
            assert g["phase_from"] in ("retrieve", "reciprocate", "refine")
            assert g["phase_to"] in ("retrieve", "reciprocate", "refine")

    def test_metrics_csv_schema(self, tmp_path):
        parts = tiny_partitions()
        cfg = tiny_config(cto_enabled=True, comm_interval=2, total_epochs=4)
        run_experiment(cfg, parts, out_dir=tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == (
            "round,epoch,client_id,model,split,accuracy,macro_f1,macro_auc,loss"
        )
        # 2 rounds x 2 clients x 2 models x 2 splits
        assert len(lines) - 1 == 2 * 2 * 2 * 2
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] in ("deputy", "personalized")
            assert fields[4] in ("val", "test")
            for v in fields[5:]:
                float(v)  # parses

    def test_single_client_runs(self):
        parts = tiny_partitions(n_clients=1)
        cfg = tiny_config(num_clients=1, aggregator="cfa", comm_interval=2, total_epochs=2)
        reports = run_experiment(cfg, parts)
        assert len(reports) == 1

    def test_epoch_interval_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(comm_interval=3, total_epochs=4).validate()

    def test_partition_count_mismatch_rejected(self):
        parts = tiny_partitions(n_clients=2)
        cfg = tiny_config(num_clients=3)
        with pytest.raises(ConfigError):
            run_experiment(cfg, parts)

    def test_fedbn_keeps_bn_local(self, tmp_path):
        from fedspectra import fmmt

        parts = tiny_partitions(size=12)
        cfg = tiny_config(
            arch="smallcnn_bn",
            fedbn_exclude_bn=True,
            comm_interval=2,
            total_epochs=2,
            save_checkpoints=True,
        )
        run_experiment(cfg, parts, out_dir=tmp_path)
        base = tmp_path / "checkpoints" / "round_001"
        import csv as _csv

        with open(base / "client_0" / "model" / "manifest.csv") as f:
            rows = list(_csv.DictReader(f))
        bn_files = [r["filename"] for r in rows if r["is_batchnorm"] == "true"]
        other_files = [r["filename"] for r in rows if r["is_batchnorm"] == "false"]
        assert bn_files and other_files
        for fname in other_files:
            a = fmmt.read_tensor(base / "client_0" / "model" / fname)
            b = fmmt.read_tensor(base / "client_1" / "model" / fname)
            assert np.array_equal(a, b)
        any_bn_differs = any(
            not np.array_equal(
                fmmt.read_tensor(base / "client_0" / "model" / fname),
                fmmt.read_tensor(base / "client_1" / "model" / fname),
            )
            for fname in bn_files
        )
        assert any_bn_differs


def _twin(net):
    twin = build_network("tiny_mlp", 1, 8, 8, 3, np.random.default_rng(0))
    twin.import_parameters(net.parameters())
    return twin


def _sgd_oracle(start, grads, lr, mu=0.0, anchor=None):
    """w - lr * (g + mu * (w - anchor)); plain SGD without mu or anchor."""
    out = {}
    for g in grads.entries:
        w = start.get(g.name).tensor
        if mu != 0.0 and anchor is not None:
            out[g.name] = w - lr * (g.tensor + mu * (w - anchor.get(g.name).tensor))
        else:
            out[g.name] = w - lr * g.tensor
    return out


def _assert_params(net, expected):
    for name, tensor in expected.items():
        assert np.array_equal(net.parameters().get(name).tensor, tensor), name


class TestFedProx:
    LR = LrSchedule(0.1)

    def _setup(self, seed=3):
        part = tiny_partitions(n_clients=1)[0]
        init = np.random.default_rng(seed)
        nets = [build_network("tiny_mlp", 1, 8, 8, 3, init) for _ in range(2)]
        anchor = nets[1].parameters()
        for e in anchor.entries:
            e.tensor = e.tensor + 0.25
        return part, nets, anchor

    @pytest.mark.parametrize("mu,anchored", [(0.5, True), (0.0, True), (0.5, False)])
    def test_client_step_oracle(self, mu, anchored):
        part, (net, _), anchor = self._setup()
        anchor = anchor if anchored else None
        images, labels = part.train.images[:8], part.train.labels[:8]
        start = net.parameters()
        grads, _ = backward(_twin(net), images, labels)
        client = _Client(0, net, part, np.random.default_rng(0), last_received=anchor)
        client.step(images, labels, 0, self.LR, mu)
        _assert_params(net, _sgd_oracle(start, grads, self.LR.at(0), mu, anchor))

    @pytest.mark.parametrize("phase", list(cto.CtoPhase))
    def test_cto_step_oracle(self, phase):
        part, (q, c), anchor = self._setup()
        mu = 0.5
        images, labels = part.train.images[:8], part.train.labels[:8]
        q_start, c_start = q.parameters(), c.parameters()
        q_teacher = _twin(q).forward(images, train=False)
        c_teacher = _twin(c).forward(images, train=False)
        refine = phase is cto.CtoPhase.REFINE
        retrieve = phase is cto.CtoPhase.RETRIEVE
        grads_c, _ = backward(_twin(c), images, labels, None if refine else q_teacher)
        grads_q, _ = backward(_twin(q), images, labels, None if retrieve else c_teacher)
        state = cto.ClientState(0, q, c, part, phase=phase, last_received=anchor)
        state.step(images, labels, 0, self.LR, mu)
        # the deputy is pulled toward the anchor; the personalized model never is
        _assert_params(c, _sgd_oracle(c_start, grads_c, self.LR.at(0), mu, anchor))
        _assert_params(q, _sgd_oracle(q_start, grads_q, self.LR.at(0)))

    @pytest.mark.parametrize("cto_enabled", [False, True])
    def test_no_anchor_before_first_receive(self, tmp_path, cto_enabled):
        rounds = {}
        for mu in (0.0, 1.0):
            cfg = tiny_config(
                cto_enabled=cto_enabled, fedprox_mu=mu, comm_interval=2, total_epochs=4
            )
            run_experiment(cfg, tiny_partitions(), out_dir=tmp_path / f"mu{mu}")
            lines = (tmp_path / f"mu{mu}" / "metrics.csv").read_text().splitlines()[1:]
            rounds[mu] = [[l for l in lines if l.startswith(f"{r},")] for r in (1, 2)]
        assert rounds[0.0][0] and rounds[0.0][0] == rounds[1.0][0]
        assert rounds[0.0][1] != rounds[1.0][1]
