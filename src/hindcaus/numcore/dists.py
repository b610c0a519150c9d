"""Categorical-distribution primitives: Gumbel-softmax, KL, cross-entropy.

Category axis is always the last axis. `categorical_kl` and
`cross_entropy` are one tape node each, with a hand-written backward that
gives the values and gradients of the chain of log_softmax and elementwise
nodes they replaced bit for bit; `gumbel_softmax_sample` is built from
tensor ops.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _finish,
    _log_softmax,
    _sum_to_shape,
    constant,
    scale,
    softmax,
)

__all__ = [
    "gumbel_noise",
    "gumbel_softmax_sample",
    "categorical_kl",
    "cross_entropy",
    "one_hot",
]


def one_hot(values: np.ndarray, num_categories: int) -> np.ndarray:
    """Integer array -> float64 one-hot with a trailing category axis."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() >= num_categories):
        raise ValueError(
            f"values out of range for {num_categories} categories: "
            f"[{values.min()}, {values.max()}]"
        )
    out = np.zeros(values.shape + (num_categories,), dtype=np.float64)
    np.put_along_axis(out, values[..., None].astype(np.intp), 1.0, axis=-1)
    return out


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(shape)
    # Clamp away from 0 so the double log stays finite.
    return -np.log(-np.log(np.maximum(u, 1e-300)))


def gumbel_softmax_sample(
    logits: Tensor, temperature: float, hard: bool, noise: np.ndarray
) -> Tensor:
    """Relaxed categorical sample under the given Gumbel `noise` (see
    `gumbel_noise`), one draw per logit: `noise` has the logits' shape.
    `hard` gives straight-through one-hot.

    The forward value under `hard` is exactly one-hot at the perturbed argmax
    while the gradient is that of the relaxed sample.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    noise = np.asarray(noise)
    if noise.shape != logits.shape:
        raise ShapeError(f"gumbel_softmax_sample: noise {noise.shape} != logits {logits.shape}")
    perturbed = scale(logits + constant(noise), 1.0 / temperature)
    soft = softmax(perturbed)
    if not hard:
        return soft
    idx = np.argmax(perturbed.data, axis=-1)
    hard_arr = one_hot(idx, logits.shape[-1])
    # hard + (soft - soft.detach()): exact one-hot forward, relaxed gradient.
    return constant(hard_arr) + (soft - soft.detach())


def categorical_kl(p_logits: Tensor, q_logits: Tensor) -> Tensor:
    """KL(p || q) over the last axis, computed in log-space, as one node.
    The two logit arrays broadcast; the output drops the last axis.

    The forward is lp - lq times exp(lp), summed, from the log-softmaxes lp
    and lq, and the backward reaches both logit arrays; both run the
    operations of the old chain of log_softmax, exp, subtract, multiply and
    sum nodes in their order, so values and gradients are bit for bit
    theirs.
    """
    try:
        np.broadcast_shapes(p_logits.shape, q_logits.shape)
        fits = p_logits.shape[-1:] == q_logits.shape[-1:] != ()
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(
            f"categorical_kl: p logits {p_logits.shape} and q logits {q_logits.shape} do not "
            "broadcast over one category axis"
        )
    lp, lq = _log_softmax(p_logits.data), _log_softmax(q_logits.data)
    p = np.exp(lp)
    d = lp - lq
    data = np.asarray((p * d).sum(axis=-1), order="C")

    def backward_fn(out=None):
        g = out.grad[..., None]
        gd = g * p  # the gradient of d = lp - lq
        if p_logits.requires_grad:
            glp = _sum_to_shape(gd, lp.shape) + _sum_to_shape(g * d, p.shape) * p
            p_logits._accumulate(glp - p * glp.sum(axis=-1, keepdims=True))
        if q_logits.requires_grad:
            glq = _sum_to_shape(-gd, lq.shape)
            q_logits._accumulate(glq - np.exp(lq) * glq.sum(axis=-1, keepdims=True))

    return _finish(data, (p_logits, q_logits), backward_fn)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """-log softmax(logits)[label] over the last axis, as one node. `labels`
    holds integer categories and broadcasts to logits.shape[:-1], the
    output's shape.

    The old chain, -(one_hot(labels) * log_softmax(logits)).sum(-1), summed
    one nonzero term per row, so picking that term gives its values bit for
    bit; the backward, exp(log_softmax) * g with g subtracted at the label,
    gives its gradients bit for bit.
    """
    labels = np.asarray(labels)
    k = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} categories")
    try:
        picked = np.broadcast_to(labels, logits.shape[:-1]).astype(np.intp)
    except ValueError:
        raise ShapeError(
            f"cross_entropy: labels {labels.shape} do not broadcast to logits {logits.shape} "
            "without their category axis"
        ) from None
    # Flat positions of the labels' entries in the C-contiguous log-softmax.
    picked = picked.ravel() + np.arange(0, picked.size * k, k)
    ls = np.ascontiguousarray(_log_softmax(logits.data))
    data = np.take(ls, picked).reshape(logits.shape[:-1])
    np.negative(data, out=data)

    def backward_fn(out=None):
        if logits.requires_grad:
            g = out.grad
            d = np.exp(ls)
            d *= g[..., None]
            d.reshape(-1)[picked] -= g.ravel()
            logits._accumulate(d)

    return _finish(data, (logits,), backward_fn)
