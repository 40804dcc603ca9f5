import numpy as np
import pytest

from fedspectra.errors import ShapeError
from fedspectra.nn import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    LrSchedule,
    MaxPool2x2,
    Network,
    ReLU,
    backward,
    build_network,
    cross_entropy,
    kl_divergence,
    sgd_step,
)


def fd_check(net, x, y, teacher, step=1e-5, rel_tol=1e-4, abs_floor=1e-7):
    """Central finite differences against the analytic gradients."""

    def loss_of():
        probs = net.forward(x, train=True)
        loss = cross_entropy(probs, y)
        if teacher is not None:
            loss += kl_divergence(teacher, probs)
        return loss

    backward(net, x, y, teacher_probs=teacher)
    layers = dict(net.layers)
    for entry in net.gradients():
        lname, pname = entry.name.rsplit(".", 1)
        param = layers[lname].params[pname]
        it = np.nditer(entry.tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            lp = loss_of()
            param[idx] = orig - step
            lm = loss_of()
            param[idx] = orig
            fd = (lp - lm) / (2 * step)
            g = entry.tensor[idx]
            err = abs(fd - g)
            assert err <= max(rel_tol * max(abs(fd), abs(g)), abs_floor), (
                entry.name,
                idx,
                fd,
                g,
            )


class TestForward:
    def test_rows_are_distributions(self, rng):
        net = build_network("smallcnn", 1, 16, 16, 3, rng)
        probs = net.forward(rng.normal(size=(5, 1, 16, 16)))
        assert np.all(probs > 0) and np.all(probs < 1)
        assert np.abs(probs.sum(axis=1) - 1).max() < 1e-9

    def test_zero_weight_network_uniform(self, rng):
        net = Network([("flatten", Flatten()), ("fc", Dense(4, 3, rng))])
        dict(net.layers)["fc"].params["weight"][:] = 0.0
        probs = net.forward(rng.normal(size=(6, 1, 2, 2)))
        assert np.abs(probs - 1 / 3).max() < 1e-12

    def test_hand_computed_dense_forward(self, rng):
        # 2-2-2 dense net, weights chosen for hand computation
        net = Network([("fc1", Dense(2, 2, rng)), ("relu", ReLU()), ("fc2", Dense(2, 2, rng))])
        layers = dict(net.layers)
        layers["fc1"].params["weight"] = np.array([[1.0, 0.0], [0.0, -1.0]])
        layers["fc1"].params["bias"] = np.array([0.0, 1.0])
        layers["fc2"].params["weight"] = np.array([[1.0, 1.0], [0.0, 2.0]])
        layers["fc2"].params["bias"] = np.array([0.5, 0.0])
        x = np.array([[2.0, 3.0]])
        # h = relu([2, -2]) = [2, 0]; logits = [2 + 0 + 0.5, 0] = [2.5, 0]
        expected = np.exp([2.5, 0.0]) / np.exp([2.5, 0.0]).sum()
        probs = net.forward(x)
        assert np.abs(probs[0] - expected).max() < 1e-12

    def test_shape_mismatch(self, rng):
        net = build_network("smallcnn", 1, 16, 16, 3, rng)
        with pytest.raises(ShapeError):
            net.forward(rng.normal(size=(2, 3, 16, 16)))


class TestLosses:
    def test_ce_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, [0, 1]) == pytest.approx(0.0, abs=1e-9)

    def test_ce_uniform(self):
        probs = np.full((2, 3), 1 / 3)
        assert cross_entropy(probs, [0, 2]) == pytest.approx(np.log(3), abs=1e-12)

    def test_ce_direct_value(self):
        probs = np.array([[0.25, 0.75]])
        assert cross_entropy(probs, [1]) == pytest.approx(-np.log(0.75), abs=1e-12)

    def test_kl_zero_on_equal(self, rng):
        p = rng.dirichlet(np.ones(4), size=5)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_kl_direct_value(self):
        t = np.array([[0.5, 0.5]])
        s = np.array([[0.25, 0.75]])
        expected = 0.5 * np.log(2) + 0.5 * np.log(0.5 / 0.75)
        assert kl_divergence(t, s) == pytest.approx(expected, abs=1e-12)
        assert kl_divergence(t, s) == pytest.approx(0.5 * np.log(4 / 3), abs=1e-12)

    def test_kl_nonnegative_random(self, rng):
        for _ in range(50):
            t = rng.dirichlet(np.ones(5), size=3)
            s = rng.dirichlet(np.ones(5), size=3)
            assert kl_divergence(t, s) >= -1e-12


class TestGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_net(self, seed):
        rng = np.random.default_rng(seed)
        net = Network(
            [("fc1", Dense(5, 4, rng)), ("relu", ReLU()), ("fc2", Dense(4, 3, rng))]
        )
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        fd_check(net, x, y, None)
        fd_check(net, x, y, rng.dirichlet(np.ones(3), size=4))

    @pytest.mark.parametrize("seed", range(3))
    def test_conv_pool_net(self, seed):
        rng = np.random.default_rng(100 + seed)
        net = Network(
            [
                ("conv", Conv2d(3, 2, 3, 3, rng)),
                ("relu", ReLU()),
                ("pool", MaxPool2x2()),
                ("flatten", Flatten()),
                ("fc", Dense(3 * 2 * 2, 3, rng)),
            ]
        )
        x = rng.normal(size=(3, 2, 6, 6))
        y = rng.integers(0, 3, size=3)
        fd_check(net, x, y, None)
        fd_check(net, x, y, rng.dirichlet(np.ones(3), size=3))

    @pytest.mark.parametrize("seed", range(3))
    def test_batchnorm_net(self, seed):
        rng = np.random.default_rng(200 + seed)
        net = Network(
            [
                ("conv", Conv2d(3, 1, 3, 3, rng)),
                ("bn", BatchNorm(3)),
                ("relu", ReLU()),
                ("flatten", Flatten()),
                ("fc", Dense(3 * 16, 3, rng)),
            ]
        )
        x = rng.normal(size=(4, 1, 6, 6))
        y = rng.integers(0, 3, size=4)
        fd_check(net, x, y, None)
        fd_check(net, x, y, rng.dirichlet(np.ones(3), size=4))

    def test_closed_form_zero_point(self):
        # zero input, zero weights: p = uniform; bias grad = uniform - onehot
        rng = np.random.default_rng(0)
        net = Network([("fc", Dense(3, 2, rng))])
        layer = dict(net.layers)["fc"]
        layer.params["weight"][:] = 0.0
        x = np.zeros((4, 3))
        y = np.array([0, 0, 1, 1])
        backward(net, x, y)
        grads = net.gradients()
        assert np.abs(grads.get("fc.weight").tensor).max() < 1e-15
        onehot_mean = np.array([0.5, 0.5])
        expected_bias = 0.5 - onehot_mean
        assert np.abs(grads.get("fc.bias").tensor - expected_bias).max() < 1e-12

    def test_kl_loss_value_zero_when_teacher_equals_student(self, rng):
        net = Network([("fc", Dense(4, 3, rng))])
        x = rng.normal(size=(3, 4))
        probs = net.forward(x)
        assert kl_divergence(probs, probs) == pytest.approx(0.0, abs=1e-12)


def argmax_pool_forward(x):
    """Independent oracle: pooling by `argmax` over transposed windows."""
    n, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    v = x[:, :, : 2 * oh, : 2 * ow].reshape(n, c, oh, 2, ow, 2)
    windows = v.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, 4)
    idx = windows.argmax(axis=-1)
    return np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0], idx


def argmax_pool_backward(x_shape, idx, dy):
    n, c, h, w = x_shape
    oh, ow = h // 2, w // 2
    dwin = np.zeros((n, c, oh, ow, 4))
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
    dx = np.zeros(x_shape)
    dx[:, :, : 2 * oh, : 2 * ow] = (
        dwin.reshape(n, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    ).reshape(n, c, 2 * oh, 2 * ow)
    return dx


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMaxPool:
    def _check(self, x, rng):
        pool = MaxPool2x2()
        y = pool.forward(x, train=True)
        y_ref, idx = argmax_pool_forward(x)
        assert _same_bits(y, y_ref)
        assert _same_bits(pool.forward(x, train=False), y_ref)
        dy = rng.normal(size=y.shape)
        dx = pool.backward(dy)
        assert _same_bits(dx, argmax_pool_backward(x.shape, idx, dy))
        return dx

    @pytest.mark.parametrize("shape", [(3, 2, 8, 8), (20, 8, 30, 30), (2, 3, 6, 10)])
    def test_random_inputs(self, rng, shape):
        self._check(rng.normal(size=shape), rng)

    def test_relu_ties_go_to_first_slot(self, rng):
        x = np.maximum(rng.normal(-0.8, 1.0, size=(4, 3, 12, 12)), 0.0)
        x[0, 0, 0:2, 0:2] = [[0.0, 2.0], [2.0, 2.0]]  # three-way tie above zero
        pooled = argmax_pool_forward(x)[0]
        assert (pooled == 0.0).sum() > 50  # many all-zero windows
        dx = self._check(x, rng)
        assert dx[0, 0, 0, 0] == 0.0 and dx[0, 0, 0, 1] != 0.0
        assert dx[0, 0, 1, 0] == 0.0 and dx[0, 0, 1, 1] == 0.0

    @pytest.mark.parametrize("size", [13, 15])
    def test_odd_sizes_drop_trailing_row_and_column(self, rng, size):
        x = np.maximum(rng.normal(size=(3, 2, size, size)), 0.0)
        dx = self._check(x, rng)
        assert not dx[:, :, -1, :].any() and not dx[:, :, :, -1].any()

    def test_batch_of_one(self, rng):
        self._check(rng.normal(size=(1, 4, 10, 10)), rng)


class ReferenceBatchNorm:
    """Independent oracle: batch norm through `mean`/`var` and fresh
    arrays for every intermediate, reading its inputs only."""

    def __init__(self, gamma, beta, running_mean, running_var, momentum=0.1, eps=1e-5):
        self.gamma, self.beta = gamma.copy(), beta.copy()
        self.running_mean, self.running_var = running_mean.copy(), running_var.copy()
        self.momentum, self.eps = momentum, eps

    def forward(self, x, train):
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        shape = (1, -1) + (1,) * (x.ndim - 2)
        if train:
            mean, var = x.mean(axis=axes), x.var(axis=axes)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        self.cache = (x, xhat, inv_std, axes, shape)
        return self.gamma.reshape(shape) * xhat + self.beta.reshape(shape)

    def backward(self, dy):
        x, xhat, inv_std, axes, shape = self.cache
        m = np.prod([x.shape[a] for a in axes])
        grads = {"gamma": (dy * xhat).sum(axis=axes), "beta": dy.sum(axis=axes)}
        istd = inv_std.reshape(shape)
        dxhat = dy * self.gamma.reshape(shape)
        sum_dxhat = dxhat.sum(axis=axes).reshape(shape)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes).reshape(shape)
        dx = (istd / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
        return grads, dx


class TestBatchNorm:
    def _pair(self, rng, channels):
        bn = BatchNorm(channels)
        bn.params["gamma"] = rng.normal(1.0, 0.3, channels)
        bn.params["beta"] = rng.normal(0.0, 0.3, channels)
        bn.buffers["running_mean"] = rng.normal(0.0, 0.5, channels)
        bn.buffers["running_var"] = rng.uniform(0.5, 2.0, channels)
        ref = ReferenceBatchNorm(
            bn.params["gamma"],
            bn.params["beta"],
            bn.buffers["running_mean"],
            bn.buffers["running_var"],
        )
        return bn, ref

    def _check(self, rng, shape, need_dx=True):
        bn, ref = self._pair(rng, shape[1])
        x = rng.normal(0.7, 2.0, size=shape)
        x_before = x.copy()
        for _ in range(2):  # the second step starts from updated running stats
            y = bn.forward(x, train=True)
            assert _same_bits(y, ref.forward(x, train=True))
            assert _same_bits(bn.buffers["running_mean"], ref.running_mean)
            assert _same_bits(bn.buffers["running_var"], ref.running_var)
            dy = rng.normal(size=shape)
            grads, dx_ref = ref.backward(dy)
            dx = bn.backward(dy.copy(), need_dx=need_dx)
            for name in ("gamma", "beta"):
                assert _same_bits(bn.grads[name], grads[name]), name
            if need_dx:
                assert _same_bits(dx, dx_ref)
            else:
                assert dx is None
        assert _same_bits(bn.forward(x, train=False), ref.forward(x, train=False))
        assert _same_bits(x, x_before)

    @pytest.mark.parametrize("shape", [(20, 8, 30, 30), (3, 5, 7, 9)])
    def test_matches_reference(self, rng, shape):
        self._check(rng, shape)

    @pytest.mark.parametrize("shape", [(1, 4, 6, 6)])
    def test_batch_of_one(self, rng, shape):
        self._check(rng, shape)

    @pytest.mark.parametrize("shape", [(4, 3, 5, 5)])
    def test_parameter_grads_without_input_gradient(self, rng, shape):
        self._check(rng, shape, need_dx=False)

    def test_dense_activations_rejected(self, rng):
        for train in (True, False):
            with pytest.raises(ShapeError, match="batchnorm expects"):
                BatchNorm(4).forward(rng.normal(size=(6, 4)), train=train)

    def test_cache_does_not_hold_the_input(self, rng):
        bn = BatchNorm(3)
        x = rng.normal(size=(4, 3, 5, 5))
        bn.forward(x, train=True)
        arrays = [a for a in bn._cache if isinstance(a, np.ndarray)]
        assert not any(np.shares_memory(a, x) for a in arrays)
        assert [a.shape for a in arrays if a.ndim == x.ndim] == [x.shape]  # xhat alone


class TestForwardLeavesInput:
    @pytest.mark.parametrize("arch", ["tiny_mlp", "smallcnn", "smallcnn_bn"])
    def test_batch_unchanged(self, rng, arch):
        net = build_network(arch, 1, 12, 12, 3, rng)
        batch = rng.normal(size=(4, 1, 12, 12))
        before = batch.copy()
        for train in (True, False):
            net.forward(batch, train=train)
            assert _same_bits(batch, before)
        backward(net, batch, rng.integers(0, 3, size=4))
        assert _same_bits(batch, before)


class TestBackwardPass:
    def _layerwise(self, net, x, y):
        """Reference backward: every layer, the first included, returns dx."""
        probs = net.forward(x, train=True)
        dlogits = probs.copy()
        dlogits[np.arange(len(y)), y] -= 1.0
        dy = dlogits / len(y)
        for _, layer in reversed(net.layers):
            dy = layer.backward(dy)
        assert dy.shape == x.shape
        return {f"{l}.{p}": g.copy() for l, layer in net.layers for p, g in layer.grads.items()}

    @pytest.mark.parametrize("arch", ["smallcnn", "smallcnn_bn"])
    def test_first_conv_grads_match_layerwise_reference(self, rng, arch):
        x = rng.normal(size=(5, 1, 14, 14))
        y = rng.integers(0, 3, size=5)
        ref_net = build_network(arch, 1, 14, 14, 3, np.random.default_rng(3))
        expected = self._layerwise(ref_net, x, y)
        net = build_network(arch, 1, 14, 14, 3, np.random.default_rng(3))
        backward(net, x, y)
        assert isinstance(net.layers[0][1], Conv2d)
        for g in net.gradients():
            assert _same_bits(g.tensor, expected[g.name]), g.name

    def test_first_layer_skips_input_gradient(self, rng):
        conv = Conv2d(2, 1, 3, 3, rng)
        x = rng.normal(size=(2, 1, 6, 6))
        conv.forward(x, train=True)
        assert conv.backward(rng.normal(size=(2, 2, 4, 4)), need_dx=False) is None
        assert set(conv.grads) == {"weight", "bias"}

    @pytest.mark.parametrize("arch", ["tiny_mlp", "smallcnn", "smallcnn_bn"])
    def test_backward_releases_forward_caches(self, rng, arch):
        net = build_network(arch, 1, 12, 12, 3, rng)
        backward(net, rng.normal(size=(4, 1, 12, 12)), rng.integers(0, 3, size=4))
        for _, layer in net.layers:
            assert layer._cache is None
            with pytest.raises(RuntimeError, match="without a training forward"):
                layer.backward(np.zeros((4, 3)))


class TestSgd:
    def test_lr_schedule_default_values(self):
        sch = LrSchedule(3e-3, 30)
        assert sch.at(0) == pytest.approx(3e-3)
        assert sch.at(30) == pytest.approx(1.5e-3)
        assert sch.at(65) == pytest.approx(7.5e-4)

    def test_zero_gradient_no_change(self, rng):
        net = build_network("tiny_mlp", 1, 4, 4, 3, rng)
        before = net.parameters()
        backward(net, rng.normal(size=(4, 1, 4, 4)), rng.integers(0, 3, size=4))
        for _, layer in net.layers:
            for g in layer.grads.values():
                g[...] = 0.0
        sgd_step(net, LrSchedule().at(0))
        assert net.parameters().identical(before)

    def test_prox_at_anchor_is_noop(self, rng):
        net = build_network("tiny_mlp", 1, 4, 4, 3, rng)
        anchor = net.parameters()
        x = rng.normal(size=(4, 1, 4, 4))
        y = rng.integers(0, 3, size=4)

        net_a = build_network("tiny_mlp", 1, 4, 4, 3, rng)
        net_a.import_parameters(anchor)
        backward(net_a, x, y)
        sgd_step(net_a, LrSchedule().at(0), prox=(1.0, anchor))

        net_b = build_network("tiny_mlp", 1, 4, 4, 3, rng)
        net_b.import_parameters(anchor)
        backward(net_b, x, y)
        sgd_step(net_b, LrSchedule().at(0))

        assert net_a.parameters().identical(net_b.parameters())

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_step_in_place_matches_oracle(self, rng, mu):
        net = build_network("smallcnn_bn", 1, 12, 12, 3, rng)
        anchor = net.parameters()
        for e in anchor.entries:
            e.tensor = e.tensor + 0.25
        snapshot = anchor.copy()
        backward(net, rng.normal(size=(4, 1, 12, 12)), rng.integers(0, 3, size=4))
        start, grads = net.parameters(), net.gradients()
        arrays = {(l, p): w for l, layer in net.layers for p, w in layer.params.items()}
        lr = 0.1
        sgd_step(net, lr, prox=(mu, anchor))
        for g in grads:
            w, a = start.get(g.name).tensor, anchor.get(g.name).tensor
            expected = w - lr * (g.tensor + mu * (w - a)) if mu else w - lr * g.tensor
            lname, pname = g.name.rsplit(".", 1)
            assert dict(net.layers)[lname].params[pname] is arrays[(lname, pname)]
            assert np.array_equal(net.parameters().get(g.name).tensor, expected), g.name
        for name in ("bn1.running_mean", "bn1.running_var"):  # buffers untouched
            assert np.array_equal(net.parameters().get(name).tensor, start.get(name).tensor)
        assert anchor.identical(snapshot)

    def test_gradients_cover_trainable_parameters_only(self, rng):
        net = build_network("smallcnn_bn", 1, 12, 12, 3, rng)
        backward(net, rng.normal(size=(4, 1, 12, 12)), rng.integers(0, 3, size=4))
        names = net.gradients().names()
        assert names == [f"{l}.{p}" for l, layer in net.layers for p in layer.params]
        assert "bn1.gamma" in names and "bn1.running_mean" not in names

    def test_deterministic_training(self, rng):
        x = rng.normal(size=(8, 1, 12, 12))
        y = rng.integers(0, 3, size=8)
        params = []
        for _ in range(2):
            net = build_network("smallcnn", 1, 12, 12, 3, np.random.default_rng(7))
            for epoch in range(3):
                backward(net, x, y)
                sgd_step(net, LrSchedule().at(epoch))
            params.append(net.parameters())
        assert params[0].identical(params[1])


class TestParameterExport:
    def test_roundtrip_exact(self, rng):
        net = build_network("smallcnn_bn", 1, 12, 12, 3, rng)
        ps = net.parameters()
        other = build_network("smallcnn_bn", 1, 12, 12, 3, rng)
        other.import_parameters(ps)
        assert other.parameters().identical(ps)

    def test_batchnorm_entries_flagged(self, rng):
        net = build_network("smallcnn_bn", 1, 12, 12, 3, rng)
        bn_names = [e.name for e in net.parameters() if e.is_batchnorm]
        assert any("gamma" in n for n in bn_names)
        assert any("running_mean" in n for n in bn_names)
        plain = build_network("smallcnn", 1, 12, 12, 3, rng)
        assert not any(e.is_batchnorm for e in plain.parameters())
