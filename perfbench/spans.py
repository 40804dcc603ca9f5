"""Spans around calls into the program's modules, recorded from outside.

`Tracer.installed()` replaces module attributes with timing wrappers and
restores them on exit. A wrapper must replace a name in the module that
makes the call: `federation` imports `cfa_aggregate`, `backward`,
`sgd_step` and `augment` by name, and `cto` imports `backward` and
`sgd_step` by name, so those are wrapped where they are looked up.
Spans hold (name, start, end, parent index) and stay in memory until the
run ends. The program runs clients on one thread here, so a stack gives
each span its parent.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import numpy as np

import oracles

# (module name, attribute, span name). Several sites may share a span name.
SITES = [
    ("federation", "client_local_epoch", "federation.local_epoch"),
    ("federation", "_aggregate", "federation.aggregate"),
    ("federation", "_evaluate_round", "federation.round_eval"),
    ("federation", "_write_checkpoint", "federation.checkpoint"),
    ("federation", "fedavg_aggregate", "federation.fedavg_aggregate"),
    ("federation", "fedbn_filter", "federation.fedbn_filter"),
    ("federation", "cfa_aggregate", "spectral.cfa_aggregate"),
    ("federation", "backward", "nn.backward"),
    ("federation", "sgd_step", "nn.sgd_step"),
    ("federation", "augment", "datasynth.augment"),
    ("cto", "train_batch", "cto.train_batch"),
    ("cto", "evaluate", "cto.evaluate"),
    ("cto", "on_receive", "cto.on_receive"),
    ("cto", "backward", "nn.backward"),
    ("cto", "sgd_step", "nn.sgd_step"),
    ("spectral", "fft2d", "spectral.fft2d"),
    ("spectral", "ifft2d_complex", "spectral.ifft2d"),
    ("metrics", "confusion_matrix", "metrics.confusion_matrix"),
    ("metrics", "macro_auc", "metrics.macro_auc"),
    ("fmmt", "read_tensor", "fmmt.read_tensor"),
    ("fmmt", "write_tensor", "fmmt.write_tensor"),
    ("datasynth", "generate", "datasynth.generate"),
    ("datasynth", "load_dataset", "datasynth.load_dataset"),
]

# Batch size of every workload; `nn.backward_ms` times full batches only.
FULL_BATCH = 20

# Teacher outputs each CTO phase reads (q's, c's or both).
_TEACHERS_READ = {"retrieve": 1, "reciprocate": 2, "refine": 1}


def _entries(ps) -> dict:
    return {e.name: e.tensor for e in ps.entries}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.param_copies = 0
        self.teacher_reads = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.errors = []
        self.check_s = 0.0  # time spent in checks inside traced calls

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _in(self, *names) -> bool:
        return any(self.spans[i][0] in names for i in self.stack)

    def _checked(self, check):
        t0 = time.perf_counter()
        self.errors.extend(check())
        self.check_s += time.perf_counter() - t0

    def _wrap(self, name, fn):
        tracer = self

        if name == "spectral.cfa_aggregate":
            def wrapper(client_sets, s, domain_mode="complex", mask_override=None):
                out = tracer._span(name, fn, (client_sets, s, domain_mode, mask_override), {})
                if domain_mode == "complex" and mask_override is None:
                    tracer._checked(lambda: oracles.check_cfa(
                        [_entries(c) for c in client_sets], [_entries(o) for o in out], s))
                return out
        elif name == "federation.fedavg_aggregate":
            def wrapper(sets, weights):
                out = tracer._span(name, fn, (sets, weights), {})
                tracer._checked(lambda: oracles.check_weighted_mean(
                    [_entries(u) for u in sets], weights, _entries(out)))
                return out
        elif name == "cto.on_receive":
            def wrapper(state, aggregated):
                before = state.personalized.parameters()
                out = tracer._span(name, fn, (state, aggregated), {})
                if not before.identical(state.personalized.parameters()):
                    tracer.errors.append(f"on_receive changed client {state.client_id}'s personalized model")
                return out
        elif name == "nn.backward":
            def wrapper(net, batch, *args, **kwargs):
                full = "nn.backward" if len(batch) == FULL_BATCH else "nn.backward_partial"
                return tracer._span(full, fn, (net, batch) + args, kwargs)
        elif name == "cto.train_batch":
            def wrapper(state, *args, **kwargs):
                tracer.teacher_reads += _TEACHERS_READ[state.phase.value]
                return tracer._span(name, fn, (state,) + args, kwargs)
        elif name == "fmmt.write_tensor":
            def wrapper(path, arr):
                tracer.bytes_written += oracles.fmmt_size(np.asarray(arr))
                return tracer._span(name, fn, (path, arr), {})
        elif name == "fmmt.read_tensor":
            def wrapper(path):
                out = tracer._span(name, fn, (path,), {})
                tracer.bytes_read += os.path.getsize(path)
                return out
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        return wrapper

    def _wrap_network(self, network_cls):
        tracer = self
        forward, parameters, gradients = (
            network_cls.forward, network_cls.parameters, network_cls.gradients)

        def traced_forward(net, batch, train=False):
            if train:
                return forward(net, batch, train)
            return tracer._span("nn.forward_eval", forward, (net, batch, train), {})

        def counted(fn):
            def wrapper(net):
                ps = fn(net)
                if tracer._in("cto.train_batch", "nn.backward", "nn.backward_partial",
                              "nn.sgd_step"):
                    tracer.param_copies += len(ps)
                return ps
            return wrapper

        return {"forward": traced_forward, "parameters": counted(parameters),
                "gradients": counted(gradients)}

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, span in SITES:
                mod = self.modules[mod_name]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(span, getattr(mod, attr)))
            net_cls = self.modules["nn"].Network
            for attr, fn in self._wrap_network(net_cls).items():
                saved.append((net_cls, attr, getattr(net_cls, attr)))
                setattr(net_cls, attr, fn)
            yield self
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}}, plus the count of
        eval-mode forward passes made directly under `cto.train_batch`."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for (name, start, end, parent), kids in zip(self.spans, child_s):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - kids
        teacher = sum(
            1 for name, _, _, parent in self.spans
            if name == "nn.forward_eval" and parent >= 0
            and self.spans[parent][0] == "cto.train_batch"
        )
        out["cto.teacher_forward"] = {"calls": teacher, "total_s": 0.0, "self_s": 0.0}
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")


def per_layer(summary: dict, tracer: Tracer, rounds: int, n_clients: int) -> dict:
    """The per-layer metrics of one traced federated run. A layer the
    workload never calls reads 0."""
    def s(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(name, key="total_s", scale=1e3):
        rec = s(name)
        return rec[key] / rec["calls"] * scale if rec["calls"] else 0.0

    def per_round(name):
        return s(name)["total_s"] / rounds * 1e3 if rounds else 0.0

    def rate(nbytes, name):
        t = s(name)["total_s"]
        return nbytes / 1e6 / t if t else 0.0

    batches = s("cto.train_batch")["calls"] or (
        s("nn.backward")["calls"] + s("nn.backward_partial")["calls"])
    cfa_calls = s("spectral.cfa_aggregate")["calls"]
    teacher = s("cto.teacher_forward")["calls"]
    train_batches = s("cto.train_batch")["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    rows = [
        ("nn.backward_ms", "ms", per_call("nn.backward")),
        ("nn.sgd_step_ms", "ms", per_call("nn.sgd_step")),
        ("nn.forward_eval_ms", "ms", per_call("nn.forward_eval")),
        ("nn.param_copies_per_batch", "count", ratio(tracer.param_copies, batches)),
        ("cto.train_batch_self_ms", "ms", per_call("cto.train_batch", "self_s")),
        ("cto.evaluate_ms", "ms", per_call("cto.evaluate")),
        ("cto.teacher_forwards_per_batch", "count", ratio(teacher, train_batches)),
        ("cto.teacher_use_ratio", "ratio", ratio(tracer.teacher_reads, teacher)),
        ("datasynth.augment_us_per_image", "us", per_call("datasynth.augment", scale=1e6)),
        ("datasynth.generate_s", "s", s("datasynth.generate")["total_s"]),
        ("datasynth.load_dataset_s", "s", s("datasynth.load_dataset")["total_s"]),
        ("fmmt.read_MB_per_s", "MB/s", rate(tracer.bytes_read, "fmmt.read_tensor")),
        ("spectral.cfa_aggregate_ms", "ms", per_call("spectral.cfa_aggregate")),
        ("spectral.cfa_aggregate_ms_per_client", "ms",
         per_call("spectral.cfa_aggregate") / n_clients),
        ("spectral.fft2d_ms", "ms", per_call("spectral.fft2d")),
        ("spectral.fft2d_calls", "count", ratio(s("spectral.fft2d")["calls"], cfa_calls)),
        ("spectral.ifft2d_ms", "ms", per_call("spectral.ifft2d")),
        ("federation.local_epoch_ms", "ms", per_call("federation.local_epoch")),
        ("federation.aggregate_ms", "ms", per_round("federation.aggregate")),
        ("federation.round_eval_ms", "ms", per_round("federation.round_eval")),
        ("metrics.confusion_matrix_ms", "ms", per_call("metrics.confusion_matrix")),
        ("metrics.macro_auc_ms", "ms", per_call("metrics.macro_auc")),
        ("federation.checkpoint_ms", "ms", per_round("federation.checkpoint")),
        ("fmmt.write_MB_per_s", "MB/s", rate(tracer.bytes_written, "fmmt.write_tensor")),
        ("fmmt.bytes_written", "bytes", float(tracer.bytes_written)),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in rows}
