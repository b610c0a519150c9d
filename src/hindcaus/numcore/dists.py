"""Categorical-distribution primitives: Gumbel-softmax, KL, cross-entropy.

Category axis is always the last axis.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, constant, log_softmax, multiply, scale, softmax

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
    """KL(p || q) over the last axis, computed in log-space. Shape drops it."""
    lp = log_softmax(p_logits)
    lq = log_softmax(q_logits)
    p = lp.exp()
    return multiply(p, lp - lq).sum(axis=-1)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """-log softmax(logits)[label] per row; labels are integer categories."""
    labels = np.asarray(labels)
    k = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} categories")
    target = constant(one_hot(labels, k))
    return scale(multiply(target, log_softmax(logits)).sum(axis=-1), -1.0)
