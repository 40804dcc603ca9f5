"""Minimal feed-forward network with hand-derived gradients.

Layers: valid 2-D convolution, dense, relu, 2x2 max pooling, batch norm
(conv feature maps only, with running stats), flatten; a softmax over the
last dense layer's logits ends the network. No autodiff tape: each layer
implements its own backward pass, checked against finite differences.

Copy rule: a Network owns its arrays. `import_parameters` copies in,
`parameters()` and `gradients()` copy out. `backward` leaves gradients in
each layer's `grads`, `sgd_step` updates `params` in place and only reads
its anchor.

Kernel rules:
- 2x2 max pooling routes each window's gradient to one slot: the first
  slot holding the maximum in window order (0,0), (0,1), (1,0), (1,1), the
  slot `argmax` would pick for finite inputs. Ties are common, since every
  all-zero window after a ReLU is one.
- Nothing reads the gradient of the network input, so the first layer
  computes only its parameter gradients (`backward(dy, need_dx=False)`).
- A layer's training forward caches what its backward needs, and that
  backward releases it: no cache outlives the step.
- A `backward` may overwrite the `dy` it receives (every caller passes a
  fresh array it does not read again), and no `forward` writes its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CongruenceError, ShapeError
from .tensors import ParamEntry, ParameterSet, kind_of

_LOG_CLAMP = 1e-12


# ---------------------------------------------------------------------------
# Layers


class Layer:
    """Base layer. Parameters live in `params`; gradients in `grads`."""

    def __init__(self):
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.buffers: Dict[str, np.ndarray] = {}  # non-trainable state
        self._cache = None  # set by a training forward, released by backward

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> Optional[np.ndarray]:
        """Fill `grads` from `dy` and return the input gradient. With
        `need_dx` false nothing reads it: layers with parameters then skip
        it and return None."""
        raise NotImplementedError

    def _release(self):
        """The training forward's cache, which no longer outlives the step."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward without a training forward")
        return cache


class Conv2d(Layer):
    """Valid cross-correlation, stride 1. Weight shape [out_ch, in_ch, kh, kw]."""

    def __init__(self, out_ch: int, in_ch: int, kh: int, kw: int, rng: np.random.Generator):
        super().__init__()
        fan_in = in_ch * kh * kw
        scale = np.sqrt(2.0 / fan_in)
        self.params["weight"] = rng.normal(0.0, scale, (out_ch, in_ch, kh, kw))
        self.params["bias"] = np.zeros(out_ch)
        self.kh, self.kw = kh, kw

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        kh, kw = self.kh, self.kw
        oh, ow = h - kh + 1, w - kw + 1
        s0, s1, s2, s3 = x.strides
        cols = np.lib.stride_tricks.as_strided(
            x, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2, s3)
        )
        return np.ascontiguousarray(cols).reshape(n, c * kh * kw, oh * ow)

    def forward(self, x, train):
        w = self.params["weight"]
        if x.ndim != 4 or x.shape[1] != w.shape[1]:
            raise ShapeError(f"conv input shape {x.shape} incompatible with {w.shape}")
        if x.shape[2] < self.kh or x.shape[3] < self.kw:
            raise ShapeError("conv input smaller than kernel")
        n, _, h, w_in = x.shape
        oh, ow = h - self.kh + 1, w_in - self.kw + 1
        cols = self._im2col(x)
        wf = w.reshape(w.shape[0], -1)
        y = np.matmul(wf, cols)
        y += self.params["bias"][None, :, None]
        if train:
            self._cache = (x.shape, cols)
        return y.reshape(n, w.shape[0], oh, ow)

    def backward(self, dy, need_dx=True):
        x_shape, cols = self._release()
        n, c, h, w_in = x_shape
        w = self.params["weight"]
        out_ch = w.shape[0]
        oh, ow = h - self.kh + 1, w_in - self.kw + 1
        dyf = dy.reshape(n, out_ch, oh * ow)
        self.grads["weight"] = (
            np.matmul(dyf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        )
        self.grads["bias"] = dyf.sum(axis=(0, 2))
        if not need_dx:
            return None
        wf = w.reshape(out_ch, -1)
        dcols = np.matmul(wf.T, dyf).reshape(n, c, self.kh, self.kw, oh, ow)
        dx = np.zeros(x_shape)
        for i in range(self.kh):
            for j in range(self.kw):
                dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, i, j]
        return dx


class Dense(Layer):
    """Affine map. Weight shape [out, in]."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        scale = np.sqrt(2.0 / in_dim)
        self.params["weight"] = rng.normal(0.0, scale, (out_dim, in_dim))
        self.params["bias"] = np.zeros(out_dim)

    def forward(self, x, train):
        w = self.params["weight"]
        if x.ndim != 2 or x.shape[1] != w.shape[1]:
            raise ShapeError(f"dense input shape {x.shape} incompatible with {w.shape}")
        if train:
            self._cache = x
        y = x @ w.T
        y += self.params["bias"]
        return y

    def backward(self, dy, need_dx=True):
        x = self._release()
        self.grads["weight"] = dy.T @ x
        self.grads["bias"] = dy.sum(axis=0)
        return dy @ self.params["weight"] if need_dx else None


class ReLU(Layer):
    def forward(self, x, train):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy, need_dx=True):
        dy *= self._release()
        return dy


def _window_slots(a: np.ndarray, oh: int, ow: int) -> List[np.ndarray]:
    """The four slots of `a`'s [n, c, oh, 2, ow, 2] window view, each
    [n, c, oh, ow], in order (0,0), (0,1), (1,0), (1,1). Stride-2 slices,
    so an odd-sized `a` is not copied."""
    return [a[:, :, i : 2 * oh : 2, j : 2 * ow : 2] for i in (0, 1) for j in (0, 1)]


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2; trailing odd row/column is dropped.
    Training caches only the int8 slot of each window's maximum (tie rule in
    the module docstring)."""

    def forward(self, x, train):
        n, c, h, w = x.shape
        oh, ow = h // 2, w // 2
        if oh == 0 or ow == 0:
            raise ShapeError(f"input {x.shape} too small for 2x2 pooling")
        s = _window_slots(x, oh, ow)
        y = np.maximum(np.maximum(s[0], s[1]), np.maximum(s[2], s[3]))
        if train:
            # first slot equal to the max, with ne_i = (slot i != max):
            # k = ne0 * (1 + ne1 * (1 + ne2))
            k = (s[2] != y).astype(np.int8)
            for i in (1, 0):
                k += 1
                k *= s[i] != y
            self._cache = (x.shape, k)
        return y

    def backward(self, dy, need_dx=True):
        x_shape, k = self._release()
        oh, ow = dy.shape[2], dy.shape[3]
        dx = np.empty(x_shape)
        dx[:, :, 2 * oh :] = 0.0  # the trailing row and column pooling dropped
        dx[:, :, :, 2 * ow :] = 0.0
        for i, slot in enumerate(_window_slots(dx, oh, ow)):
            slot[...] = np.where(k == i, dy, 0.0)
        return dx


class Flatten(Layer):
    def forward(self, x, train):
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy, need_dx=True):
        return dy.reshape(self._release())


class BatchNorm(Layer):
    """Per-channel batch normalization with running statistics, for conv
    feature maps [n, c, h, w] only.

    Training uses batch statistics; eval uses the running estimates. The
    running stats are exported as non-trainable batchnorm-flagged entries.
    A training forward caches only the normalized input `xhat` and the
    per-channel `inv_std`, not the input; backward builds `dx` in the
    storage of its `dy`.
    """

    momentum = 0.1
    eps = 1e-5
    axes = (0, 2, 3)  # every axis but the channel's

    def __init__(self, channels: int):
        super().__init__()
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.buffers["running_mean"] = np.zeros(channels)
        self.buffers["running_var"] = np.ones(channels)

    def forward(self, x, train):
        if x.ndim != 4:
            raise ShapeError(f"batchnorm expects [n, c, h, w] input, got {x.ndim}-D")
        if train:
            m = x.size // x.shape[1]
            mean = x.sum(axis=self.axes) / m
            xhat = x - mean[:, None, None]
            y = np.multiply(xhat, xhat)  # scratch until it becomes the output
            var = y.sum(axis=self.axes) / m
            self.buffers["running_mean"] = (
                (1 - self.momentum) * self.buffers["running_mean"]
                + self.momentum * mean
            )
            self.buffers["running_var"] = (
                (1 - self.momentum) * self.buffers["running_var"]
                + self.momentum * var
            )
        else:
            mean = self.buffers["running_mean"]
            var = self.buffers["running_var"]
            xhat = y = x - mean[:, None, None]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std[:, None, None]
        np.multiply(xhat, self.params["gamma"][:, None, None], out=y)
        y += self.params["beta"][:, None, None]
        if train:
            self._cache = (xhat, inv_std)
        return y

    def backward(self, dy, need_dx=True):
        xhat, inv_std = self._release()
        scratch = np.multiply(dy, xhat)
        self.grads["gamma"] = scratch.sum(axis=self.axes)
        self.grads["beta"] = dy.sum(axis=self.axes)
        if not need_dx:
            return None
        # dx = (inv_std/m) * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)),
        # built in dy's storage, which first becomes dxhat = dy*gamma
        m = xhat.size // xhat.shape[1]
        dy *= self.params["gamma"][:, None, None]
        sum_dxhat = dy.sum(axis=self.axes)[:, None, None]
        np.multiply(dy, xhat, out=scratch)
        sum_dxhat_xhat = scratch.sum(axis=self.axes)[:, None, None]
        np.multiply(xhat, sum_dxhat_xhat, out=scratch)
        dy *= m
        dy -= sum_dxhat
        dy -= scratch
        dy *= inv_std[:, None, None] / m
        return dy


# ---------------------------------------------------------------------------
# Network


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _state(layer: Layer) -> Dict[str, np.ndarray]:
    return {**layer.params, **layer.buffers}


class Network:
    """Ordered layer stack ending in softmax over the last layer's logits."""

    def __init__(self, layers: Sequence[Tuple[str, Layer]]):
        names = [n for n, _ in layers]
        if len(set(names)) != len(names):
            raise CongruenceError("duplicate layer names")
        self.layers: List[Tuple[str, Layer]] = list(layers)

    def forward(self, batch: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(batch, dtype=np.float64)
        for _, layer in self.layers:
            x = layer.forward(x, train)
        if x.ndim != 2:
            raise ShapeError("network must end in a 2-D logit matrix")
        return _softmax(x)

    # -- parameter plumbing ------------------------------------------------

    def _view(self, arrays: Callable[[Layer], Dict[str, np.ndarray]]) -> ParameterSet:
        """A set sharing `arrays(layer)` of each layer, in layer order."""
        return ParameterSet(
            [
                ParamEntry(f"{lname}.{name}", value, kind_of(value), isinstance(layer, BatchNorm))
                for lname, layer in self.layers
                for name, value in arrays(layer).items()
            ]
        )

    def parameters(self) -> ParameterSet:
        """A copy of every parameter, then every buffer, of each layer."""
        return self._view(_state).copy()

    def gradients(self) -> ParameterSet:
        """A copy of each parameter's gradient from the last `backward`."""
        return self._view(lambda layer: {n: layer.grads[n] for n in layer.params}).copy()

    def import_parameters(self, ps: ParameterSet) -> None:
        """Copy every tensor of a congruent set into the network."""
        self._view(_state).require_congruent(ps)
        for lname, layer in self.layers:
            for store in (layer.params, layer.buffers):
                for name in store:
                    store[name] = ps.get(f"{lname}.{name}").tensor.copy()


# ---------------------------------------------------------------------------
# Losses and training step


def cross_entropy(probs: np.ndarray, labels: Sequence[int]) -> float:
    """Mean negative log-likelihood; probabilities clamped at 1e-12."""
    labels = np.asarray(labels, dtype=np.int64)
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, _LOG_CLAMP)).mean())


def kl_divergence(teacher: np.ndarray, student: np.ndarray) -> float:
    """Mean over the batch of sum_k teacher * log(teacher/student).

    The teacher distribution is a constant with respect to differentiation.
    """
    t = np.maximum(teacher, _LOG_CLAMP)
    s = np.maximum(student, _LOG_CLAMP)
    per_sample = (teacher * (np.log(t) - np.log(s))).sum(axis=1)
    return float(per_sample.mean())


def backward(
    net: Network,
    batch: np.ndarray,
    labels: Sequence[int],
    teacher_probs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradients of CE (plus KL(teacher || net) when a teacher is given).

    Leaves the gradients in each layer's `grads` and returns the forward
    probabilities. The softmax/CE/KL logit gradient is (p - onehot)/n plus
    (p - teacher)/n for the KL term. Nothing reads the network input's
    gradient, so the first layer does not compute it.
    """
    labels = np.asarray(labels, dtype=np.int64)
    probs = net.forward(batch, train=True)
    n = probs.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    if teacher_probs is not None:
        dlogits += probs - teacher_probs
    dlogits /= n
    dy = dlogits
    for i, (_, layer) in reversed(list(enumerate(net.layers))):
        dy = layer.backward(dy, need_dx=i > 0)
    return probs


@dataclass(frozen=True)
class LrSchedule:
    """Step decay: lr(epoch) = initial * 0.5 ** (epoch // halve_every)."""

    initial: float = 3e-3
    halve_every: int = 30

    def __post_init__(self):
        if self.initial <= 0 or self.halve_every < 1:
            raise ShapeError("learning-rate schedule requires initial>0, halve_every>=1")

    def at(self, epoch: int) -> float:
        return self.initial * 0.5 ** (epoch // self.halve_every)


def sgd_step(
    net: Network, lr: float, prox: Optional[Tuple[float, Optional[ParameterSet]]] = None
) -> None:
    """w <- w - lr * (g + mu * (w - anchor)) in place, with g from the last
    `backward`; buffers are untouched. The anchor is only read."""
    mu, anchor = (0.0, None) if prox is None else prox
    for lname, layer in net.layers:
        for pname, w in layer.params.items():
            g = layer.grads[pname]
            if mu != 0.0 and anchor is not None:
                g = g + mu * (w - anchor.get(f"{lname}.{pname}").tensor)
            w -= lr * g


# ---------------------------------------------------------------------------
# Architectures


def build_network(
    arch: str,
    in_channels: int,
    height: int,
    width: int,
    classes: int,
    rng,
) -> Network:
    """Construct a named architecture with seeded initialization."""
    if arch == "tiny_mlp":
        return Network(
            [
                ("flatten", Flatten()),
                ("fc1", Dense(in_channels * height * width, 16, rng)),
                ("relu1", ReLU()),
                ("fc2", Dense(16, classes, rng)),
            ]
        )
    if arch in ("smallcnn", "smallcnn_bn"):
        with_bn = arch == "smallcnn_bn"
        layers: List[Tuple[str, Layer]] = []
        layers.append(("conv1", Conv2d(8, in_channels, 3, 3, rng)))
        if with_bn:
            layers.append(("bn1", BatchNorm(8)))
        layers.append(("relu1", ReLU()))
        layers.append(("pool1", MaxPool2x2()))
        layers.append(("conv2", Conv2d(16, 8, 3, 3, rng)))
        if with_bn:
            layers.append(("bn2", BatchNorm(16)))
        layers.append(("relu2", ReLU()))
        layers.append(("pool2", MaxPool2x2()))
        layers.append(("flatten", Flatten()))
        h = ((height - 2) // 2 - 2) // 2
        w = ((width - 2) // 2 - 2) // 2
        if h < 1 or w < 1:
            raise ShapeError(f"input {height}x{width} too small for smallcnn")
        layers.append(("fc1", Dense(16 * h * w, 64, rng)))
        layers.append(("relu3", ReLU()))
        layers.append(("fc2", Dense(64, classes, rng)))
        return Network(layers)
    raise ShapeError(f"unknown architecture {arch!r}")
