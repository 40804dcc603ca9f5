import csv
import json
import logging
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from fedspectra import cto, federation, fmmt
from fedspectra.datasynth import SPLITS, SplitData, SynthSpec, default_style, generate
from fedspectra.errors import ConfigError, DomainError, NonFiniteError
from fedspectra.federation import (
    FederationConfig,
    _Client,
    _aggregate,
    client_local_epoch,
    fedavg_aggregate,
    fedbn_filter,
    run_experiment,
    _batches,
)
from fedspectra.nn import backward, build_network, sgd_step
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


def count_local_epochs(monkeypatch):
    """A list that gains one item per `client_local_epoch` call."""
    calls = []
    local_epoch = federation.client_local_epoch

    def counting(*args):
        calls.append(1)
        return local_epoch(*args)

    monkeypatch.setattr(federation, "client_local_epoch", counting)
    return calls


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_upload_rejected(self, bad):
        sets = _sets([[1.0, 2.0], [3.0]], [[1.0, bad], [3.0]])
        with pytest.raises(NonFiniteError, match=r"'p0'.*client 1"):
            fedavg_aggregate(sets, [1, 1])


def _smallcnn_bn_nets(n=3):
    rng = np.random.default_rng(11)
    return [build_network("smallcnn_bn", 1, 12, 12, 3, rng) for _ in range(n)]


def _smallcnn_bn_uploads(n=3):
    return [net.view() for net in _smallcnn_bn_nets(n)]


class TestAggregateOwnership:
    @pytest.mark.parametrize(
        "aggregator,fedbn,bn_only",
        [
            ("cfa", False, False),
            ("cfa", True, False),
            ("fedavg", False, False),
            ("fedavg", True, False),
            ("cfa", True, True),
            ("fedavg", True, True),
        ],
        ids=[
            "cfa-False", "cfa-True", "fedavg-False", "fedavg-True",
            "cfa-all_retained", "fedavg-all_retained",
        ],
    )
    def test_uploads_unchanged(self, aggregator, fedbn, bn_only):
        # uploads share the live networks' arrays, as `upload()` does; each
        # network then installs its output and trains on
        nets = _smallcnn_bn_nets()
        uploads = [net.view() for net in nets]
        if bn_only:  # a batch-norm-only network: FedBN retains every entry
            uploads = [fedbn_filter(u)[1] for u in uploads]
        before = [u.copy() for u in uploads]
        cfg = tiny_config(aggregator=aggregator, fedbn_exclude_bn=fedbn, num_clients=3)
        out = _aggregate(cfg, uploads, [3, 1, 2], 0.3)
        out_before = [o.copy() for o in out]
        if bn_only:  # each client gets its own entries back
            for o, b in zip(out, before):
                assert o.identical(b)
        else:
            assert not out[0].identical(before[0])  # aggregation did change the model
            rng = np.random.default_rng(2)
            for net, o in zip(nets, out):
                net.import_parameters(o)
                backward(net, rng.normal(size=(4, 1, 12, 12)), rng.integers(0, 3, size=4))
                sgd_step(net, 0.1)
        for u, b in zip(uploads, before):
            assert u.identical(b)
        for o, b in zip(out, out_before):
            assert o.identical(b)

    @pytest.mark.parametrize("fedbn", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fedavg_path_rejects_non_finite(self, fedbn, bad):
        uploads = _smallcnn_bn_uploads()
        uploads[2].get("fc1.weight").tensor[3, 4] = bad
        cfg = tiny_config(aggregator="fedavg", fedbn_exclude_bn=fedbn, num_clients=3)
        with pytest.raises(NonFiniteError, match=r"'fc1\.weight'.*client 2"):
            _aggregate(cfg, uploads, [1, 1, 1], 0.0)

    @pytest.mark.parametrize("aggregator", ["fedavg", "cfa"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_retained_batchnorm_entries_checked(self, aggregator, bad):
        uploads = _smallcnn_bn_uploads()
        uploads[1].get("bn1.running_mean").tensor[0] = bad
        cfg = tiny_config(aggregator=aggregator, fedbn_exclude_bn=True, num_clients=3)
        with pytest.raises(NonFiniteError, match=r"'bn1\.running_mean'.*client 1"):
            _aggregate(cfg, uploads, [1, 1, 1], 0.3)


def _live_model(client):
    return client.deputy if isinstance(client, cto.ClientState) else client.model


class TestUploadSharesModel:
    """An upload is a view of the model; `receive` installs fresh copies, so
    neither the upload nor the received set changes as training goes on."""

    @pytest.mark.parametrize("cto_enabled", [False, True])
    def test_upload_shares_every_array(self, cto_enabled):
        cfg = tiny_config(cto_enabled=cto_enabled, arch="smallcnn_bn")
        for client in federation._init_clients(cfg, tiny_partitions(size=12), 3):
            layers = dict(_live_model(client).layers)
            upload = client.upload()
            assert len(upload) == len(_live_model(client).parameters())
            for e in upload:
                lname, name = e.name.rsplit(".", 1)
                arrays = {**layers[lname].params, **layers[lname].buffers}
                assert np.shares_memory(e.tensor, arrays[name]), e.name

    @pytest.mark.parametrize("cto_enabled", [False, True], ids=["baseline", "cto"])
    @pytest.mark.parametrize("fedbn", [False, True], ids=["shared_bn", "fedbn"])
    @pytest.mark.parametrize("aggregator", ["cfa", "fedavg"])
    def test_uploads_and_received_sets_survive_training(self, aggregator, fedbn, cto_enabled):
        cfg = tiny_config(aggregator=aggregator, fedbn_exclude_bn=fedbn, cto_enabled=cto_enabled,
                          arch="smallcnn_bn", fedprox_mu=0.5)
        parts = tiny_partitions(size=12)
        clients = federation._init_clients(cfg, parts, 3)
        for c in clients:
            client_local_epoch(c, 0, cfg)
        uploads = [c.upload() for c in clients]
        uploads_bits = [u.copy() for u in uploads]
        received = _aggregate(cfg, uploads, [len(p.train) for p in parts], 0.3)
        received_bits = [r.copy() for r in received]
        if fedbn:  # retained entries pass from the upload into the aggregate
            for u, r in zip(uploads, received):
                assert r.get("bn1.running_mean").tensor is u.get("bn1.running_mean").tensor
        for c, r in zip(clients, received):
            c.receive(r)
        for c in clients:
            client_local_epoch(c, 1, cfg)
        for u, bits in zip(uploads, uploads_bits):
            assert u.identical(bits)
        for c, r, bits in zip(clients, received, received_bits):
            assert c.last_received is r and r.identical(bits)
            assert not _live_model(c).parameters().identical(bits)  # the model did train


class TestRoundMemory:
    @pytest.mark.parametrize("aggregator", ["cfa", "fedavg"])
    def test_previous_aggregate_released_before_aggregation(self, monkeypatch, aggregator):
        aggregate, alive = federation._aggregate, []

        def spy(*args):
            assert not [r for r in alive if r() is not None]  # nothing holds last round's
            out = aggregate(*args)
            alive[:] = [weakref.ref(ps) for ps in out]
            return out

        monkeypatch.setattr(federation, "_aggregate", spy)
        cfg = tiny_config(aggregator=aggregator, fedprox_mu=0.5, comm_interval=1, total_epochs=3)
        run_experiment(cfg, tiny_partitions())
        assert alive and all(r() is None for r in alive)  # the run returned, its clients too

    def test_two_parameter_sets_per_client_at_aggregation(self, monkeypatch, tmp_path):
        # 32 clients on smallcnn, CFA after every epoch, checkpoints on. A
        # client holds its model and, from its first receive, the aggregate
        # (checkpoint payload and anchor); the round's new aggregate joins
        # them only once the old one is written and released. An upload
        # copy, a kept gradient set or a kept anchor each add a set.
        monkeypatch.setenv("FEDSPECTRA_THREADS", "1")
        n = 32
        brightness, contrast = default_style(n)
        parts = generate(SynthSpec(classes=3, client_class_counts=[[4, 4, 4]] * n,
                                   brightness=brightness, contrast=contrast, seed=1))
        cfg = FederationConfig(num_clients=n, comm_interval=1, total_epochs=2, aggregator="cfa",
                               cto_enabled=False, seed=1)
        start = build_network("smallcnn", 1, 32, 32, 3, np.random.default_rng(0))
        set_bytes = sum(e.tensor.nbytes for e in start.parameters())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_experiment(cfg, parts, out_dir=tmp_path, classes=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (tmp_path / "checkpoints" / "round_002" / "client_31" / "model").is_dir()
        assert peak < 3 * n * set_bytes, f"{peak / (n * set_bytes):.2f} sets per client"


class TestFedbnFilter:
    def test_partition_laws(self, rng):
        net = build_network("smallcnn_bn", 1, 12, 12, 3, rng)
        full = net.parameters()
        shared, retained = fedbn_filter(full)
        assert len(shared) + len(retained) == len(full)
        assert not any(e.is_batchnorm for e in shared)
        assert all(e.is_batchnorm for e in retained)
        assert {e.name for e in shared} | {e.name for e in retained} == {e.name for e in full}

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


class _LrRecorder:
    """A client stub that records the learning rate each `step` receives."""

    def __init__(self, part):
        self.client_id, self.data, self.rng = 0, part, np.random.default_rng(0)
        self.lrs = []

    def step(self, images, labels, lr, mu):
        self.lrs.append(lr)

    def end_epoch(self, epoch):
        return None


class TestLocalEpoch:
    def test_lr_evaluated_once_per_epoch(self):
        client = _LrRecorder(tiny_partitions(n_clients=1)[0])
        cfg = tiny_config(lr_initial=0.4, lr_halve_every=2)
        per_epoch = []
        for epoch in range(5):
            client.lrs = []
            client_local_epoch(client, epoch, cfg)
            assert len(client.lrs) > 1 and len(set(client.lrs)) == 1
            per_epoch.append(client.lrs[0])
        assert per_epoch == [0.4, 0.4, 0.2, 0.2, 0.1]


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
        assert [ev for r in reports for ev in r.events] == events

    def test_aggregation_count_matches_schedule(self, tmp_path):
        parts = tiny_partitions()
        cfg = tiny_config(comm_interval=2, total_epochs=6)
        reports = run_experiment(cfg, parts, out_dir=tmp_path)
        assert [r.round for r in reports] == [1, 2, 3]
        assert [r.epoch for r in reports] == [2, 4, 6]

    def test_cfa_threshold_logged_per_round(self, tmp_path):
        parts = tiny_partitions()
        sch = CfaSchedule(0.2, 0.4, 6)
        cfg = tiny_config(aggregator="cfa", s0=0.2, s1=0.4, comm_interval=2, total_epochs=6)
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
        parts = tiny_partitions()
        cfg = tiny_config(
            aggregator="cfa",
            s0=0.1,
            s1=0.1,
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

    def test_one_thread_trains_on_the_main_thread(self, monkeypatch):
        # one worker trains on the main thread; a pool thread would put its
        # training temporaries in a second malloc arena
        monkeypatch.setenv("FEDSPECTRA_THREADS", "1")
        threads = []
        local_epoch = federation.client_local_epoch

        def recording(*args):
            threads.append(threading.current_thread())
            return local_epoch(*args)

        monkeypatch.setattr(federation, "client_local_epoch", recording)
        run_experiment(tiny_config(num_clients=3), tiny_partitions(n_clients=3))
        assert len(threads) == 3 * 4  # clients x epochs
        assert all(t is threading.main_thread() for t in threads)

    def test_amplitude_phase_run_finite_and_thread_independent(self, tmp_path, monkeypatch):
        cfg = tiny_config(
            num_clients=3, aggregator="cfa", domain_mode="amplitude_phase",
            arch="smallcnn", comm_interval=1, total_epochs=2,
        )
        for threads in ("1", "2"):
            monkeypatch.setenv("FEDSPECTRA_THREADS", threads)
            run_experiment(cfg, tiny_partitions(n_clients=3, size=32), out_dir=tmp_path / threads)
        for name in ("metrics.csv", "events.jsonl"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        rows = (tmp_path / "1" / "metrics.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"1", "2"}
        scores = np.array([row.split(",")[5:] for row in rows], dtype=float)
        assert np.isfinite(scores).all()

    def test_cto_guard_events_written(self, tmp_path):
        parts = tiny_partitions()
        cfg = tiny_config(cto_enabled=True, comm_interval=2, total_epochs=2)
        reports = run_experiment(cfg, parts, out_dir=tmp_path)
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert [ev for r in reports for ev in r.events] == events
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

    def test_cto_needs_val_data_before_training(self, tmp_path, monkeypatch):
        calls = count_local_epochs(monkeypatch)
        parts = tiny_partitions()
        val = parts[1].val
        parts[1].val = SplitData(val.images[:0], val.labels[:0])
        with pytest.raises(ConfigError, match="client 1 "):
            run_experiment(tiny_config(cto_enabled=True), parts, out_dir=tmp_path / "cto")
        assert calls == []
        assert not (tmp_path / "cto").exists()
        reports = run_experiment(tiny_config(cto_enabled=False), parts, out_dir=tmp_path / "base")
        assert len(calls) == 2 * 4  # clients x epochs
        splits = {(rec.client_id, rec.split) for r in reports for rec in r.records}
        assert splits == {(0, "val"), (0, "test"), (1, "test")}

    @pytest.mark.parametrize(
        "cto_enabled, n_clients, emptied",
        [(True, 2, ("train",)), (False, 2, ("train",)), (False, 1, SPLITS)],
        ids=["cto", "base", "no_labelled_sample"],
    )
    def test_empty_train_split_rejected_before_training(
        self, tmp_path, monkeypatch, cto_enabled, n_clients, emptied
    ):
        # with no `classes`, the run must not infer them from empty splits first
        calls = count_local_epochs(monkeypatch)
        parts = tiny_partitions(n_clients)
        last = parts[-1]
        for split in emptied:
            data = last.split(split)
            setattr(last, split, SplitData(data.images[:0], data.labels[:0]))
        cfg = tiny_config(cto_enabled=cto_enabled, num_clients=n_clients)
        with pytest.raises(ConfigError, match=f"client {last.client_id} has no training data"):
            run_experiment(cfg, parts, out_dir=tmp_path / "r")
        assert calls == []
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("cto_enabled", [True, False], ids=["cto", "base"])
    def test_clients_start_from_one_unshared_network(self, monkeypatch, cto_enabled):
        cfg = tiny_config(cto_enabled=cto_enabled, num_clients=3)
        parts = tiny_partitions(n_clients=3)
        init = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        oracle = build_network(cfg.arch, 1, 8, 8, 3, init).parameters()
        built = []
        init_clients = federation._init_clients

        def keep(*args):
            built.extend(init_clients(*args))
            return built

        monkeypatch.setattr(federation, "_init_clients", keep)
        monkeypatch.setattr(federation, "_run_round", lambda *args: None)
        run_experiment(cfg, parts, classes=3)
        models = [net for c in built for net in c.models().values()]
        assert len(models) == 3 * (2 if cto_enabled else 1)
        for net in models:
            assert net.parameters().identical(oracle)
        batch = parts[0].train
        backward(models[0], batch.images, batch.labels)
        sgd_step(models[0], 0.1)
        assert not models[0].parameters().identical(oracle)
        for net in models[1:]:
            assert net.parameters().identical(oracle)

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

    @pytest.mark.parametrize(
        "bad",
        [dict(s0=0.6), dict(s0=0.3, s1=0.2), dict(lr_halve_every=0), dict(lr_initial=0.0)],
    )
    def test_schedule_error_rejected_before_training(self, bad):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(aggregator="cfa", **bad), tiny_partitions())

    @pytest.mark.parametrize("key", ["lr_initial", "fedprox_mu", "s0", "lambda1"])
    def test_non_finite_key_rejected_before_training(self, key, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before validating the config")

        monkeypatch.setattr("fedspectra.federation.client_local_epoch", no_training)
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            run_experiment(tiny_config(**{key: float("nan")}), tiny_partitions())

    def test_schedules_built_from_flat_keys(self):
        cfg = tiny_config(s0=0.2, s1=0.4, total_epochs=6, lr_initial=0.5, lr_halve_every=3)
        assert cfg.cfa == CfaSchedule(0.2, 0.4, 6)

    def test_partition_count_mismatch_rejected(self):
        parts = tiny_partitions(n_clients=2)
        cfg = tiny_config(num_clients=3)
        with pytest.raises(ConfigError):
            run_experiment(cfg, parts)

    def test_each_run_warns_once(self, caplog):
        # class 2 never occurs, so every evaluation meets an empty class
        spec = SynthSpec(
            classes=3,
            height=8,
            width=8,
            client_class_counts=[[10, 8, 0]] * 2,
            brightness=[0.0] * 2,
            contrast=[1.0] * 2,
            noise_level=0.05,
            seed=5,
        )
        caplog.set_level(logging.WARNING, logger="fedspectra.metrics")
        counts = []
        for _ in range(2):
            run_experiment(tiny_config(comm_interval=2, total_epochs=4), generate(spec), classes=3)
            counts.append(
                [
                    sum(text in r.getMessage() for r in caplog.records)
                    for text in ("empty class", "class 2 has no positives")
                ]
            )
        assert counts == [[1, 1], [2, 2]]

    def test_fedbn_keeps_bn_local(self, tmp_path):
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
        with open(base / "client_0" / "model" / "manifest.csv") as f:
            rows = list(csv.DictReader(f))
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


def _reference_write_checkpoint(out_dir, round_idx, client):
    """The synchronous checkpoint writer that ran at the end of each round
    before checkpoints moved to a background thread: every model's live
    parameters, read from the network."""
    for model_name, net in client.models().items():
        cdir = (
            out_dir
            / "checkpoints"
            / f"round_{round_idx:03d}"
            / f"client_{client.client_id}"
            / model_name
        )
        cdir.mkdir(parents=True, exist_ok=True)
        rows = []
        for entry in net.parameters():
            fname = f"{entry.name}.fmmt"
            fmmt.write_tensor(cdir / fname, entry.tensor)
            rows.append(
                (entry.name, entry.kind, str(entry.is_batchnorm).lower(), fname)
            )
        with open(cdir / "manifest.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["name", "kind", "is_batchnorm", "filename"])
            writer.writerows(rows)


def _tree(root):
    """{relative path: bytes} for every file under root."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _writer_threads():
    return [
        t for t in threading.enumerate()
        if t.name.startswith(federation.WRITER_THREAD_PREFIX)
    ]


class TestCheckpointWriter:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(aggregator="cfa", cto_enabled=True, arch="smallcnn"),
            dict(
                aggregator="fedavg", arch="smallcnn_bn", fedprox_mu=0.01,
                fedbn_exclude_bn=True,
            ),
        ],
        ids=["cfa_cto", "fedavg_fedprox_fedbn"],
    )
    def test_bytes_match_synchronous_reference(self, tmp_path, monkeypatch, overrides):
        # The reference saves each client right after its round evaluation,
        # where the synchronous loop saved it; no later step of the round
        # touches that client's models.
        ref = tmp_path / "ref"
        evaluate_round = federation._evaluate_round

        def evaluate_then_save(client, round_idx, epoch, classes):
            records = evaluate_round(client, round_idx, epoch, classes)
            _reference_write_checkpoint(ref, round_idx, client)
            return records

        monkeypatch.setattr(federation, "_evaluate_round", evaluate_then_save)
        cfg = tiny_config(
            num_clients=3, comm_interval=1, total_epochs=3, save_checkpoints=True,
            **overrides,
        )
        run_experiment(cfg, tiny_partitions(n_clients=3, size=12), out_dir=tmp_path / "run")
        got = _tree(tmp_path / "run" / "checkpoints")
        want = _tree(ref / "checkpoints")
        models = {"deputy", "personalized"} if cfg.cto_enabled else {"model"}
        assert {path.split("/")[2] for path in want} == models
        assert {path.split("/")[0] for path in want} == {
            "round_001", "round_002", "round_003"
        }
        assert got == want

    def test_same_bytes_at_any_thread_count(self, tmp_path, monkeypatch):
        cfg = tiny_config(
            num_clients=3, aggregator="cfa", cto_enabled=True, arch="smallcnn",
            comm_interval=1, total_epochs=2, save_checkpoints=True,
        )
        for threads in ("1", "2"):
            monkeypatch.setenv("FEDSPECTRA_THREADS", threads)
            run_experiment(cfg, tiny_partitions(n_clients=3, size=12), out_dir=tmp_path / threads)
        one, two = _tree(tmp_path / "1"), _tree(tmp_path / "2")
        assert {"metrics.csv", "events.jsonl"} <= set(one)
        assert any(path.startswith("checkpoints/round_002/") for path in one)
        assert one == two

    def test_writes_on_the_writer_thread(self, tmp_path, monkeypatch):
        names = []
        write = federation._write_checkpoint

        def recording(*args):
            names.append(threading.current_thread().name)
            return write(*args)

        monkeypatch.setattr(federation, "_write_checkpoint", recording)
        run_experiment(tiny_config(save_checkpoints=True), tiny_partitions(), out_dir=tmp_path)
        assert len(names) == 2 * 2  # rounds x clients
        assert all(n.startswith(federation.WRITER_THREAD_PREFIX) for n in names)
        assert not _writer_threads()

    def test_no_writer_without_checkpoints(self, tmp_path, monkeypatch):
        def no_write(*args):
            raise AssertionError("wrote a checkpoint")

        monkeypatch.setattr(federation, "_write_checkpoint", no_write)
        run_experiment(tiny_config(save_checkpoints=False), tiny_partitions(), out_dir=tmp_path)
        run_experiment(tiny_config(save_checkpoints=True), tiny_partitions())
        assert not (tmp_path / "checkpoints").exists()

    def test_write_error_stops_run_at_next_aggregation(self, tmp_path, monkeypatch):
        (tmp_path / "checkpoints").write_text("")
        calls = []
        aggregate = federation._aggregate

        def counting(*args):
            calls.append(1)
            return aggregate(*args)

        monkeypatch.setattr(federation, "_aggregate", counting)
        with pytest.raises(NotADirectoryError):
            run_experiment(tiny_config(save_checkpoints=True), tiny_partitions(), out_dir=tmp_path)
        assert len(calls) == 1  # round 2 never aggregated
        assert not (tmp_path / "metrics.csv").exists()
        assert not (tmp_path / "events.jsonl").exists()
        assert not _writer_threads()

    def test_error_on_last_round_raises_before_artifacts(self, tmp_path):
        (tmp_path / "checkpoints").write_text("")
        cfg = tiny_config(comm_interval=4, total_epochs=4, save_checkpoints=True)
        with pytest.raises(NotADirectoryError):
            run_experiment(cfg, tiny_partitions(), out_dir=tmp_path)
        assert not (tmp_path / "metrics.csv").exists()
        assert not _writer_threads()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_non_finite_mid_run_leaves_no_writer(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("FEDSPECTRA_THREADS", threads)
        before = set(threading.enumerate())
        calls = []
        aggregate = federation._aggregate

        def poisoned(cfg, uploads, weights, s):
            calls.append(1)
            if len(calls) == 2:
                uploads[0].entries[0].tensor[...] = np.nan
            return aggregate(cfg, uploads, weights, s)

        monkeypatch.setattr(federation, "_aggregate", poisoned)
        with pytest.raises(NonFiniteError):
            run_experiment(tiny_config(save_checkpoints=True), tiny_partitions(), out_dir=tmp_path)
        assert not _writer_threads()
        assert set(threading.enumerate()) <= before  # the client pool shut down too
        # round 1's write finished before the writer shut down
        assert (tmp_path / "checkpoints" / "round_001" / "client_1" / "model" / "manifest.csv").exists()
        assert not (tmp_path / "metrics.csv").exists()


def _twin(net):
    twin = build_network("tiny_mlp", 1, 8, 8, 3, np.random.default_rng(0))
    twin.import_parameters(net.parameters())
    return twin


def _grads(net, images, labels, teacher=None):
    """The gradients `backward` computes for `net`, taken on a twin."""
    twin = _twin(net)
    backward(twin, images, labels, teacher)
    return twin.gradients()


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
    LR = 0.1

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
        grads = _grads(net, images, labels)
        client = _Client(0, net, part, np.random.default_rng(0), last_received=anchor)
        client.step(images, labels, self.LR, mu)
        _assert_params(net, _sgd_oracle(start, grads, self.LR, mu, anchor))

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
        grads_c = _grads(c, images, labels, None if refine else q_teacher)
        grads_q = _grads(q, images, labels, None if retrieve else c_teacher)
        state = cto.ClientState(0, q, c, part, phase=phase, last_received=anchor)
        state.step(images, labels, self.LR, mu)
        # the deputy is pulled toward the anchor; the personalized model never is
        _assert_params(c, _sgd_oracle(c_start, grads_c, self.LR, mu, anchor))
        _assert_params(q, _sgd_oracle(q_start, grads_q, self.LR))

    @pytest.mark.parametrize("cto_enabled", [False, True])
    def test_anchor_unchanged_by_local_epochs(self, cto_enabled):
        part, (q, c), anchor = self._setup()
        snapshot = anchor.copy()
        cfg = tiny_config(fedprox_mu=0.5, batch_size=8)
        if cto_enabled:
            client = cto.ClientState(0, q, c, part, rng=np.random.default_rng(0))
        else:
            client = _Client(0, c, part, np.random.default_rng(0))
        upload = client.upload()  # shares c's arrays until `receive`
        upload_bits = upload.copy()
        client.receive(anchor)
        for epoch in range(3):
            client_local_epoch(client, epoch, cfg)
        assert client.last_received is anchor
        assert anchor.identical(snapshot)
        assert upload.identical(upload_bits)
        assert not c.parameters().identical(snapshot)  # the model did train

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
