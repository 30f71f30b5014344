"""Minimal dense network with hand-written backprop, numpy only."""

from __future__ import annotations

import numpy as np


def param_count(sizes) -> int:
    """Weights plus biases of a dense stack with layer widths ``sizes``."""
    return sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))


def _layer_views(flat: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into ``flat``: row-major W, then b."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


class MLP:
    """Fully connected stack. ReLU on hidden layers; the output layer is
    linear unless ``out_relu`` is set (used for embedding sub-networks).

    All weights and biases live in one flat vector ``theta`` (layer by layer,
    row-major W then b) and are views into it; ``backward`` writes into the
    flat ``grad`` of the same layout. Pass ``theta``/``grad`` to place them in
    a caller's larger vectors."""

    def __init__(self, sizes, rng: np.random.Generator, out_relu: bool = False,
                 theta: np.ndarray | None = None, grad: np.ndarray | None = None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(int(s) < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        self.sizes = tuple(int(s) for s in sizes)
        self.out_relu = out_relu
        size = param_count(self.sizes)
        self.theta = np.empty(size) if theta is None else theta
        self.grad = np.zeros(size) if grad is None else grad
        if self.theta.shape != (size,) or self.grad.shape != (size,):
            raise ValueError(f"parameter vectors must hold {size} values")
        self.weights, self.biases = _layer_views(self.theta, self.sizes)
        self.grad_weights, self.grad_biases = _layer_views(self.grad, self.sizes)
        for w, b in zip(self.weights, self.biases):
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), w.shape)
            b[...] = 0.0

    def _apply_relu(self, layer: int) -> bool:
        return layer < len(self.weights) - 1 or self.out_relu

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T + b
            if self._apply_relu(layer):
                h = np.maximum(h, 0.0)
        return h

    def forward_cache(self, x: np.ndarray):
        """Forward pass keeping the per-layer inputs and pre-activations."""
        inputs = []
        pre = []
        h = x
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            z = h @ w.T + b
            pre.append(z)
            h = np.maximum(z, 0.0) if self._apply_relu(layer) else z
        return h, (inputs, pre)

    def backward(self, cache, grad_out: np.ndarray):
        """Gradients for every weight/bias plus the gradient w.r.t. the input.

        ``grad_out`` is dLoss/dOutput for the batch passed to forward_cache.
        The parameter gradients are written into ``grad``; returns
        (grad_weights, grad_biases, grad_input), the first two being views.
        """
        inputs, pre = cache
        g = grad_out
        for layer in range(len(self.weights) - 1, -1, -1):
            if self._apply_relu(layer):
                g = g * (pre[layer] > 0.0)
            np.matmul(g.T, inputs[layer], out=self.grad_weights[layer])
            np.sum(g, axis=0, out=self.grad_biases[layer])
            g = g @ self.weights[layer]
        return self.grad_weights, self.grad_biases, g

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_from(self, other: "MLP") -> None:
        if self.sizes != other.sizes or self.out_relu != other.out_relu:
            raise ValueError("architecture mismatch")
        self.theta[...] = other.theta


class Adam:
    """Adam updates over a fixed parameter list. State is positional, so the
    same optimizer instance must always see the same list. Moments and two
    scratch arrays per parameter are allocated on the first step; later
    steps allocate nothing."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # (m, v, scratch, scratch) per parameter
        self._state: list[tuple[np.ndarray, ...]] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self._state is None:
            self._state = [tuple(np.zeros_like(p) for _ in range(4)) for p in params]
        if len(params) != len(self._state):
            raise ValueError("parameter list changed size")
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for p, g, (m, v, s, u) in zip(params, grads, self._state):
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, g, out=s)
            np.multiply(1.0 - self.beta2, s, out=s)
            v += s
            # p -= lr*(m/c1) / (sqrt(v/c2) + eps), operation for operation
            np.divide(m, correct1, out=s)
            np.multiply(self.lr, s, out=s)
            np.divide(v, correct2, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            s /= u
            p -= s


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
    for p, g in zip(params, grads):
        p -= lr * g


def numerical_gradients(loss_fn, params: list[np.ndarray], eps: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of ``loss_fn()`` w.r.t. every entry of params."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            hi = loss_fn()
            flat[idx] = keep - eps
            lo = loss_fn()
            flat[idx] = keep
            gflat[idx] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads
