import csv
import dataclasses
import errno
import json
import os

import pytest

from fedspectra.cli import main
from fedspectra.config import RunConfig, load_config, parse_config_text, serialize_config
from fedspectra.errors import ConfigError

METRICS_HEADER = "round,epoch,client_id,model,split,accuracy,macro_f1,macro_auc,loss\n"

# Every RunConfig key with its default. Adding, dropping or re-defaulting a key
# changes what existing config files mean.
RUN_CONFIG_DEFAULTS = {
    "profile": "full",
    "num_clients": 4,
    "comm_interval": 10,
    "total_epochs": 300,
    "aggregator": "cfa",
    "s0": 0.26,
    "s1": 0.55,
    "lambda1": 0.6,
    "lambda2": 0.8,
    "batch_size": 20,
    "lr_initial": 3e-3,
    "lr_halve_every": 30,
    "fedprox_mu": 0.0,
    "fedbn_exclude_bn": False,
    "cto_enabled": True,
    "refine_trains_deputy": True,
    "seed": 0,
    "domain_mode": "complex",
    "arch": "smallcnn",
    "augment": True,
    "save_checkpoints": True,
    "classes": 3,
    "image_channels": 1,
    "image_height": 32,
    "image_width": 32,
    "count_scale": 0.1,
    "noise_level": 0.05,
    "jitter": True,
    "dataset_dir": "",
    "out_dir": "run_out",
}
FLOAT_KEYS = [k for k, v in RUN_CONFIG_DEFAULTS.items() if isinstance(v, float)]

TINY_CONFIG = """\
# fast test profile
profile = test
num_clients = 2
comm_interval = 2
total_epochs = 2
aggregator = fedavg
cto_enabled = true
arch = tiny_mlp
batch_size = 8
image_height = 8
image_width = 8
count_scale = 0.02
seed = 0
save_checkpoints = false
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        cfg = parse_config_text("num_clients = 8\nlambda1 = 0.3")
        assert cfg.num_clients == 8
        assert cfg.lambda1 == 0.3
        assert cfg.aggregator == "cfa"  # default untouched

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# heading\n\nseed = 7  # trailing\n")
        assert cfg.seed == 7

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match=r"<config>:3.*lamda1"):
            parse_config_text("seed = 1\n\nlamda1 = 0.5\n")

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ConfigError, match=r"<config>:1"):
            parse_config_text("num_clients = four\n")

    def test_key_set_twice_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"<config>:3: key 'num_clients' already set on line 1"):
            parse_config_text("num_clients = 4\nseed = 1\nnum_clients = 8\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r"<config>:2.*key = value"):
            parse_config_text("seed = 1\nnum_clients 4\n")

    def test_bool_values_strict(self):
        assert parse_config_text("jitter = false\n").jitter is False
        with pytest.raises(ConfigError, match="true/false"):
            parse_config_text("jitter = 1\n")

    def test_serialize_round_trips(self):
        cfg = parse_config_text("s0 = 0.31\nnum_clients = 6\njitter = false\n")
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg

    @pytest.mark.parametrize("key", ["profile", "dataset_dir", "out_dir"])
    @pytest.mark.parametrize(
        "value", ["runs/exp#3", " data ", "data ", "\tdata", "a\nb", "a\rb", "a\u2028b", "data\n"]
    )
    def test_unserializable_string_rejected_naming_key(self, key, value):
        # parse_config_text cuts each line at '#', splits at line breaks and
        # strips values, so these would not read back as written
        cfg = RunConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"^{key} "):
            cfg.validate()

    @pytest.mark.parametrize("value", ["", "runs/my exp", "a=b", "dir with\ttab"])
    def test_inner_spaces_and_equals_round_trip(self, value):
        cfg = RunConfig(out_dir=value, dataset_dir=value)
        cfg.validate()
        assert parse_config_text(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "args", [["--out", "runs/exp#3"], ["--out", " data "], ["--set", "dataset_dir=d#1"]]
    )
    def test_unserializable_value_exits_2_before_any_directory(
        self, tiny_cfg, tmp_path, monkeypatch, capsys, args
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--config", str(tiny_cfg), *args])
        assert rc == 2
        key = "dataset_dir" if "--set" in args else "out_dir"
        assert f"config error: {key} " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]

    def test_serialize_round_trips_every_key(self):
        changed = dict(
            profile="p", num_clients=3, comm_interval=5, total_epochs=20,
            aggregator="fedavg", s0=0.1, s1=0.3, lambda1=0.25, lambda2=0.5,
            batch_size=7, lr_initial=0.1, lr_halve_every=4, fedprox_mu=0.01,
            fedbn_exclude_bn=True, cto_enabled=False, refine_trains_deputy=False,
            seed=11, domain_mode="amplitude_phase", arch="smallcnn_bn", augment=False,
            save_checkpoints=False, classes=4, image_channels=2, image_height=16,
            image_width=16, count_scale=0.3, noise_level=0.125, jitter=False,
            dataset_dir="data/x", out_dir="Out/Y",
        )
        assert set(changed) == set(RUN_CONFIG_DEFAULTS)
        cfg = RunConfig(**changed)
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg
        assert all(getattr(again, k) != v for k, v in RUN_CONFIG_DEFAULTS.items())

    def test_keys_and_defaults_unchanged(self):
        fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        assert fields == RUN_CONFIG_DEFAULTS
        assert dataclasses.asdict(RunConfig()) == RUN_CONFIG_DEFAULTS
        # federation keys first, then profile, data and io keys
        assert list(fields)[20:] == [
            "profile", "classes", "image_channels", "image_height", "image_width",
            "count_scale", "noise_level", "jitter", "dataset_dir", "out_dir",
        ]

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "+Infinity"])
    def test_non_finite_float_rejected_with_line(self, key, raw):
        with pytest.raises(ConfigError, match=rf"<config>:2: bad value for '{key}'.*finite"):
            parse_config_text(f"seed = 1\n{key} = {raw}\n")

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected_by_validate(self, key, value):
        cfg = RunConfig(**{key: value})
        with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
            cfg.validate()

    def test_schedule_error_is_config_error(self):
        for text in ("s0 = 0.6\n", "s1 = 0.2\n", "lr_halve_every = 0\n", "lr_initial = 0\n"):
            with pytest.raises(ConfigError):
                parse_config_text(text).validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")

    def test_validate_catches_interval_mismatch(self):
        cfg = parse_config_text("comm_interval = 7\ntotal_epochs = 10\n")
        with pytest.raises(ConfigError):
            cfg.validate()


class TestRunCommand:
    def test_success_writes_artifacts(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run1"
        rc = main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.csv").exists()
        assert (out / "events.jsonl").exists()
        resolved = load_config(out / "resolved_config.txt")
        assert resolved.out_dir == str(out)
        assert resolved.num_clients == 2

    def test_metrics_schema(self, tiny_cfg, tmp_path):
        out = tmp_path / "run2"
        main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        # 1 round x 2 clients x 2 models x 2 splits
        assert len(rows) == 8
        assert set(rows[0]) == {
            "round",
            "epoch",
            "client_id",
            "model",
            "split",
            "accuracy",
            "macro_f1",
            "macro_auc",
            "loss",
        }

    def test_set_override_applied(self, tiny_cfg, tmp_path):
        out = tmp_path / "run3"
        rc = main(
            [
                "run",
                "--config",
                str(tiny_cfg),
                "--set",
                "total_epochs=4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        resolved = load_config(out / "resolved_config.txt")
        assert resolved.total_epochs == 4
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert {r["round"] for r in rows} == {"1", "2"}

    def test_seed_flag_overrides_config(self, tiny_cfg, tmp_path):
        out = tmp_path / "run4"
        main(["run", "--config", str(tiny_cfg), "--seed", "9", "--out", str(out)])
        assert load_config(out / "resolved_config.txt").seed == 9

    def test_unknown_set_key_exits_2(self, tiny_cfg, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--config",
                str(tiny_cfg),
                "--set",
                "lamda1=0.5",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "lamda1" in capsys.readouterr().err

    def test_parse_error_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 1\nnum_clients = banana\n")
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "y")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:2" in err

    def test_invalid_combination_exits_2(self, tiny_cfg, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--config",
                str(tiny_cfg),
                "--set",
                "comm_interval=3",
                "--out",
                str(tmp_path / "z"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "arch, problem",
        [("foo", "unknown architecture 'foo'"), ("smallcnn", "input 8x8 too small for smallcnn")],
    )
    def test_unbuildable_network_exits_2(self, tiny_cfg, tmp_path, capsys, arch, problem):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(tiny_cfg), "--set", f"arch={arch}", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    @pytest.mark.parametrize("setting", ["fedprox_mu=nan", "count_scale=nan", "lr_initial=inf"])
    def test_non_finite_set_exits_2(self, tiny_cfg, tmp_path, capsys, command, setting):
        out = tmp_path / "nf"
        rc = main([command, "--config", str(tiny_cfg), "--set", setting, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        key = setting.split("=")[0]
        assert f"config error: --set: bad value for '{key}'" in err
        assert not out.exists()

    def test_out_is_a_file_exits_1(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {os.strerror(errno.EEXIST)}: {out}\n"

    def test_blocked_checkpoint_dir_exits_1(self, tiny_cfg, tmp_path, capsys):
        # the write fails on the checkpoint writer's thread; the run loop re-raises it
        out = tmp_path / "run"
        out.mkdir()
        (out / "checkpoints").write_text("")
        argv = ["run", "--config", str(tiny_cfg), "--out", str(out)]
        rc = main(argv + ["--set", "save_checkpoints=true", "--set", "total_epochs=4"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"error: {os.strerror(errno.ENOTDIR)}: {out / 'checkpoints'}")
        assert not (out / "metrics.csv").exists()

    def test_determinism_across_invocations(self, tiny_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(tiny_cfg), "--out", str(out_a)])
        main(["run", "--config", str(tiny_cfg), "--out", str(out_b)])
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "events.jsonl").read_bytes() == (out_b / "events.jsonl").read_bytes()


class TestSweepCommand:
    def test_sweep_writes_per_count_runs_and_summary(self, tiny_cfg, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            ["sweep", "--config", str(tiny_cfg), "--clients", "1,2", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "n1" / "metrics.csv").exists()
        assert (out / "n2" / "metrics.csv").exists()
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["n_clients"] for r in rows] == ["1", "2"]
        for r in rows:
            assert r["aggregator"] == "fedavg"
            assert r["cto_enabled"] == "true"
            assert 0.0 <= float(r["macro_f1"]) <= 1.0

    def test_sweep_row_matches_run_metrics(self, tiny_cfg, tmp_path):
        out = tmp_path / "sweep2"
        main(["sweep", "--config", str(tiny_cfg), "--clients", "2", "--out", str(out)])
        with open(out / "sweep.csv", newline="") as f:
            sweep_row = list(csv.DictReader(f))[0]
        with open(out / "n2" / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        final = max(int(r["round"]) for r in rows)
        sel = [
            r
            for r in rows
            if int(r["round"]) == final
            and r["model"] == "personalized"
            and r["split"] == "test"
        ]
        mean_f1 = sum(float(r["macro_f1"]) for r in sel) / len(sel)
        assert float(sweep_row["macro_f1"]) == pytest.approx(mean_f1, abs=1e-12)

    @pytest.mark.parametrize("clients", ["2,zebra", "2,2"])
    def test_bad_clients_list_exits_2(self, tiny_cfg, tmp_path, capsys, clients):
        rc = main(
            [
                "sweep",
                "--config",
                str(tiny_cfg),
                "--clients",
                clients,
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert rc == 2
        assert not (tmp_path / "s" / "n2").exists()


class TestReportCommand:
    def test_report_prints_avg_and_writes_summary(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        rc = main(["report", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "model=personalized" in printed
        assert "Avg" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["model"] == "personalized"
        assert set(summary["clients"]) == {"0", "1"}
        for key in ("accuracy", "macro_f1", "macro_auc"):
            expected = sum(v[key] for v in summary["clients"].values()) / 2
            assert summary["avg"][key] == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _strict_json(text):
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        return json.loads(text, parse_constant=reject)

    def test_undefined_auc_is_null_and_left_out_of_avg(self, tmp_path, capsys):
        run_dir = tmp_path / "one_class"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            "round,epoch,client_id,model,split,accuracy,macro_f1,macro_auc,loss\n"
            "1,2,0,model,test,0.5,0.4,0.75,0.9\n"
            "1,2,1,model,test,1,1,nan,0.1\n"
            "1,2,2,model,test,0.25,0.2,0.5,1.2\n"
            "1,2,1,model,val,1,1,0.6,0.1\n"
        )
        assert main(["report", str(run_dir)]) == 0
        summary = self._strict_json((run_dir / "summary.json").read_text())
        assert summary["clients"]["1"]["macro_auc"] is None
        assert summary["avg"]["macro_auc"] == pytest.approx(0.625, abs=1e-15)
        assert summary["avg"]["accuracy"] == pytest.approx(1.75 / 3, abs=1e-15)
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].split() == ["1", "1.0000", "1.0000", "n/a"]
        assert lines[-1].split() == ["Avg", "0.5833", "0.5333", "0.6250"]

    def test_no_defined_auc_gives_null_avg(self, tmp_path):
        run_dir = tmp_path / "all_one_class"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(
            "round,epoch,client_id,model,split,accuracy,macro_f1,macro_auc,loss\n"
            "1,2,0,model,test,1,1,nan,0.1\n"
        )
        assert main(["report", str(run_dir)]) == 0
        summary = self._strict_json((run_dir / "summary.json").read_text())
        assert summary["avg"]["macro_auc"] is None

    def test_report_missing_dir_exits_1(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,problem",
        [
            (METRICS_HEADER, "no evaluation rows"),
            (METRICS_HEADER + "1,10,0,server,test,0.5,0.5,0.5,1.0\n", "no final-round test rows"),
            (METRICS_HEADER + "x,10,0,model,test,0.5,0.5,0.5,1.0\n", "ValueError: invalid literal"),
            (
                "epoch,client_id,model,split,accuracy,macro_f1,macro_auc,loss\n"
                "10,0,model,test,0.5,0.5,0.5,1.0\n",
                "KeyError: 'round'",
            ),
            (METRICS_HEADER + "1,10,0,model,test,inf,0.5,0.5,1.0\n", "infinite metric inf"),
            (
                METRICS_HEADER
                + "1,10,0,model,test,0.5,0.5,0.5,1.0\n1,10,0,model,test,0.7,0.7,0.7,0.9\n",
                "more than one final-round test row",
            ),
        ],
        ids=[
            "header_only", "unknown_model", "round_not_int", "no_round_column",
            "infinite_metric", "repeated_client",
        ],
    )
    def test_report_empty_csv_exits_1(self, tmp_path, capsys, text, problem):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(text)
        rc = main(["report", str(run_dir)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and err.count("\n") == 1
        assert "metrics.csv" in err and problem in err
        assert out == "" and not (run_dir / "summary.json").exists()


class TestGenDataCommand:
    def test_gen_data_then_ingest(self, tiny_cfg, tmp_path):
        data_dir = tmp_path / "data"
        rc = main(["gen-data", "--config", str(tiny_cfg), "--out", str(data_dir)])
        assert rc == 0
        assert (data_dir / "client_0" / "labels.csv").exists()

        run_out = tmp_path / "run"
        rc = main(
            [
                "run",
                "--config",
                str(tiny_cfg),
                "--set",
                f"dataset_dir={data_dir}",
                "--out",
                str(run_out),
            ]
        )
        assert rc == 0
        assert (run_out / "metrics.csv").exists()

    def test_label_outside_classes_exits_2(self, tiny_cfg, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(tiny_cfg), "--out", str(data_dir)]) == 0
        argv = ["run", "--config", str(tiny_cfg), "--set", f"dataset_dir={data_dir}"]
        rc = main(argv + ["--set", "classes=2", "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: client 0 train split holds label 2" in err
        assert "[0, 2)" in err
        assert not (tmp_path / "run").exists()

    def test_rejected_sweep_leaves_no_directory(self, tiny_cfg, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(tiny_cfg), "--out", str(data_dir)]) == 0
        argv = ["sweep", "--config", str(tiny_cfg), "--set", f"dataset_dir={data_dir}"]
        rc = main(argv + ["--clients", "2", "--set", "classes=2", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "config error: client 0 train split holds label 2" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_missing_image_exits_1_with_path(self, tiny_cfg, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(tiny_cfg), "--out", str(data_dir)]) == 0
        victim = sorted((data_dir / "client_1" / "images").glob("*.fmmt"))[0]
        victim.unlink()
        argv = ["run", "--config", str(tiny_cfg), "--set", f"dataset_dir={data_dir}"]
        rc = main(argv + ["--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{victim}: cannot read" in err

    def test_gen_data_matches_in_memory_generation(self, tiny_cfg, tmp_path):
        import numpy as np

        from fedspectra.config import load_config as _load
        from fedspectra.datasynth import generate, load_dataset

        data_dir = tmp_path / "data"
        main(["gen-data", "--config", str(tiny_cfg), "--out", str(data_dir)])
        cfg = _load(tiny_cfg)
        expected = generate(cfg.synth_spec())
        loaded = load_dataset(data_dir)
        for pa, pb in zip(expected, loaded):
            for split in ("train", "val", "test"):
                assert np.array_equal(pa.split(split).images, pb.split(split).images)
                assert np.array_equal(pa.split(split).labels, pb.split(split).labels)
