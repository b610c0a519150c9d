"""Categorical-distribution primitives: Gumbel-softmax, KL, cross-entropy.

Category axis is always the last axis. `categorical_kl` and
`cross_entropy` are one tape node each, with a hand-written backward that
gives the values and gradients of the chain of log_softmax and elementwise
nodes they replaced bit for bit; `gumbel_softmax_sample` is built from
tensor ops.

Both losses work on category-major (l, ...) copies of their logits, as
every reduction over the category axis in `numcore.tensor` does: a max or
a sum over the l categories is l-1 elementwise `maximum` or `+=` calls over
contiguous slabs, left to right, not numpy's element-by-element reduction
of a short last axis. For l < 8 that left-to-right sum is the order numpy
takes, so the losses equal the numpy formulas bit for bit; for l >= 8 numpy
sums pairwise, and values may differ from its sums in the last bits. No
workload uses l >= 8. Values and input gradients come back C-contiguous in
the (..., l) layout.

`gumbel_block` draws the Gumbel noise of many named streams at once, one
stream per time step of an unroll, through `stream_uniforms`.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import _is_positive
from .random import stream_uniforms
from .tensor import (
    ShapeError,
    Tensor,
    _category_last,
    _category_major,
    _finish,
    _fold,
    _log_softmax_major,
    _sum_to_shape,
    constant,
    scale,
    softmax,
)

__all__ = [
    "gumbel_block",
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
    hot = values.astype(np.intp, copy=False)[..., None] == np.arange(num_categories)
    return hot.astype(np.float64)


def _gumbel(u: np.ndarray) -> np.ndarray:
    """-log(-log(u)) in place, with u clamped away from 0 so the double log
    stays finite."""
    np.maximum(u, 1e-300, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Gumbel(0, 1) draws of the given shape from `rng`'s uniforms."""
    return _gumbel(rng.random(shape))


def gumbel_block(prefix: tuple, step_ids, shape) -> np.ndarray:
    """(len(step_ids), *shape) Gumbel draws, slice r being
    `gumbel_noise(shape, stream(*prefix, step_ids[r]))` bit for bit, from
    one `stream_uniforms` call and one transform of the whole block."""
    u = stream_uniforms(prefix, step_ids, math.prod(shape))
    return _gumbel(u).reshape(len(u), *shape)


def gumbel_softmax_sample(
    logits: Tensor, temperature: float, hard: bool, noise: np.ndarray
) -> Tensor:
    """Relaxed categorical sample under the given Gumbel `noise` (see
    `gumbel_noise`), one draw per logit: `noise` has the logits' shape.
    `hard` gives straight-through one-hot.

    The forward value under `hard` is exactly one-hot at the perturbed argmax
    while the gradient is that of the relaxed sample.
    """
    if not _is_positive(temperature):
        raise ValueError(f"temperature must be a finite positive real number, got {temperature!r}")
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
    sum nodes in their order, on category-major copies (see the module
    docstring), so values and gradients are bit for bit theirs for l < 8.
    """
    try:
        shape = np.broadcast_shapes(p_logits.shape, q_logits.shape)
        fits = p_logits.shape[-1:] == q_logits.shape[-1:] != ()
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(
            f"categorical_kl: p logits {p_logits.shape} and q logits {q_logits.shape} do not "
            "broadcast over one category axis"
        )
    lp = _log_softmax_major(_category_major(p_logits.data, len(shape)))
    lq = _log_softmax_major(_category_major(q_logits.data, len(shape)))
    p = np.exp(lp)
    d = lp - lq
    data = _fold(p * d, np.add)

    def backward_fn(out=None):
        g = out.grad
        gd = g * p  # the gradient of d = lp - lq
        if p_logits.requires_grad:
            glp = _sum_to_shape(gd, lp.shape) + _sum_to_shape(g * d, p.shape) * p
            glp -= p * _fold(glp, np.add)
            p_logits._accumulate(_category_last(glp).reshape(p_logits.shape))
        if q_logits.requires_grad:
            glq = _sum_to_shape(-gd, lq.shape)
            glq = glq - np.exp(lq) * _fold(glq, np.add)
            q_logits._accumulate(_category_last(glq).reshape(q_logits.shape))

    return _finish(data, (p_logits, q_logits), backward_fn)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """-log softmax(logits)[label] over the last axis, as one node. `labels`
    holds integer categories and broadcasts to logits.shape[:-1], the
    output's shape.

    The old chain, -(one_hot(labels) * log_softmax(logits)).sum(-1), summed
    one nonzero term per row, so picking that term gives its values bit for
    bit; the backward, exp(log_softmax) * g with g subtracted at the label,
    gives its gradients bit for bit. Both run on a category-major copy of
    the logits.
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
    ls = _log_softmax_major(_category_major(logits.data))
    # Flat positions of the labels' entries in the category-major log-softmax.
    n = picked.size
    picked = picked.ravel() * n + np.arange(n)
    data = np.take(ls, picked).reshape(logits.shape[:-1])
    np.negative(data, out=data)

    def backward_fn(out=None):
        if logits.requires_grad:
            g = out.grad
            d = np.exp(ls)
            d *= g
            d.reshape(-1)[picked] -= g.ravel()
            logits._accumulate(_category_last(d))

    return _finish(data, (logits,), backward_fn)
