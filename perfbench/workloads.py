"""The benchmark's workloads: `configs/desk.cfg` plus per-workload overrides.

Every workload keeps desk.cfg's training seed (0); `--seed` seeds the
clients' data only, because the final macro-F1 varies less across data
seeds than across data-and-initialisation seeds. Epoch counts are cut so
that one federated run fills about 20 s on one thread, and the learning
rate is ten times desk.cfg's so that the models leave the majority-class
solution within those epochs (at 0.003 a 20-epoch desk run reads a test
macro-F1 near 0.27 on some seeds).
"""

from dataclasses import dataclass

# Layers that a workload must reach (a traced run that records zero calls
# to one of them fails) and layers it must bypass.
TRAINING = ["federation.local_epoch", "nn.sgd_step", "datasynth.augment",
            "federation.round_eval", "metrics.confusion_matrix", "metrics.macro_auc"]
CFA = ["spectral.cfa_aggregate", "spectral.fft2d", "spectral.ifft2d"]
CTO = ["cto.train_batch", "cto.evaluate", "cto.on_receive", "cto.teacher_forward"]
CHECKPOINTS = ["federation.checkpoint", "fmmt.write_tensor"]


@dataclass(frozen=True)
class Workload:
    overrides: dict
    expect: list
    absent: list
    from_disk: bool = False
    extra_checks: tuple = ()


COMMON = {"lr_initial": "0.03"}

WORKLOADS = {
    # The paper's full method (CFA + CTO) at the desk shape: 4 clients,
    # smallcnn. Local training dominates run_s.
    "desk": Workload(
        overrides={**COMMON, "comm_interval": "5", "total_epochs": "20",
                   "save_checkpoints": "false"},
        expect=TRAINING + CFA + CTO + ["nn.backward", "nn.forward_eval",
                                       "datasynth.generate", "federation.aggregate"],
        absent=CHECKPOINTS + ["federation.fedavg_aggregate", "datasynth.load_dataset"],
    ),
    # Server-side scaling: 32 clients share about desk's corpus, CFA runs
    # after every local epoch, and each round is checkpointed. The spectral
    # module dominates run_s.
    "many_clients": Workload(
        overrides={**COMMON, "num_clients": "32", "cto_enabled": "false",
                   "comm_interval": "1", "total_epochs": "7",
                   "save_checkpoints": "true"},
        expect=TRAINING + CFA + CHECKPOINTS + ["datasynth.generate", "federation.aggregate"],
        absent=CTO + ["federation.fedavg_aggregate", "datasynth.load_dataset"],
        extra_checks=("shared_low_band", "accuracy"),
    ),
    # The baseline arm of every ablation: FedAvg with FedProx and FedBN on
    # smallcnn_bn, trained from a dataset exported to FMMT files and read
    # back. CFA and CTO are bypassed.
    "fedavg_disk": Workload(
        overrides={**COMMON, "aggregator": "fedavg", "cto_enabled": "false",
                   "arch": "smallcnn_bn", "fedprox_mu": "0.01",
                   "fedbn_exclude_bn": "true", "total_epochs": "30",
                   "save_checkpoints": "true"},
        expect=TRAINING + CHECKPOINTS + ["nn.backward", "federation.fedavg_aggregate",
                                         "federation.fedbn_filter", "federation.aggregate",
                                         "datasynth.load_dataset", "fmmt.read_tensor"],
        absent=CTO + CFA,
        from_disk=True,
        extra_checks=("fedbn_shared", "accuracy", "data_roundtrip"),
    ),
}
