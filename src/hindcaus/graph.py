"""Model-based CMI estimation, EMA tracking, and graph binarization.

For a candidate parent i (state factor or the action node) and next-step
factor j, the CMI is estimated from the trained transition model by
comparing full and leave-one-out conditionals over a batch of transitions:
observed targets use the mean log-likelihood ratio at the realized next
values, hidden targets use the mean KL divergence between the two predicted
distributions. Estimates are clamped at zero, folded into an exponential
moving average, and thresholded into the working graph.

A CMI model answers `log_probs(j, s, a, masks)`: for K keep-masks of shape
(K, d_s+1) over the inputs (d_s factors, then the action node) and n
transitions, it returns the (K, n, l) log-probabilities of target j's next
value. `estimate_cmi` passes the `cmi_masks` stack, full mask first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env.config import EnvConfig
from .env.dataset import TrainBatch
from .env.modulo import cmi_masks
from .env.oracle import TabularTransitionModel
from .models import BatchEncoding, ModelBundle, input_stack
from .numcore.dists import gumbel_noise
from .numcore.random import stream
from .numcore.tensor import constant, no_grad

__all__ = [
    "CmiMatrix",
    "NeuralCmiModel",
    "TabularCmiModel",
    "estimate_cmi",
    "cmi_from_batch",
    "graph_accuracy",
]


@dataclass
class CmiMatrix:
    """EMA'd CMI values plus the thresholded graph. Starts fully connected:
    every entry equals the threshold, so every edge is initially present."""

    values: np.ndarray
    threshold: float
    ema_coeff: float
    updates: int = 0

    @classmethod
    def initial(cls, d_s: int, threshold: float, ema_coeff: float) -> "CmiMatrix":
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if not 0.0 <= ema_coeff < 1.0:
            raise ValueError(f"ema_coeff must be in [0, 1), got {ema_coeff}")
        return cls(
            values=np.full((d_s + 1, d_s), float(threshold)),
            threshold=float(threshold),
            ema_coeff=float(ema_coeff),
        )

    @property
    def binarized(self) -> np.ndarray:
        return (self.values >= self.threshold).astype(np.int64)

    def update_ema(self, fresh: np.ndarray) -> None:
        fresh = np.asarray(fresh, dtype=np.float64)
        if fresh.shape != self.values.shape:
            raise ValueError(f"CMI shape {fresh.shape} != {self.values.shape}")
        fresh = np.maximum(fresh, 0.0)  # finite-sample artifacts
        c = self.ema_coeff
        self.values = c * self.values + (1.0 - c) * fresh
        self.updates += 1


class NeuralCmiModel:
    """Trained masked-transition model evaluated on integer-valued inputs."""

    def __init__(self, bundle: ModelBundle):
        self.bundle = bundle
        self.env = bundle.env

    def log_probs(self, j: int, s: np.ndarray, a: np.ndarray, masks: np.ndarray) -> np.ndarray:
        transition = self.bundle.transition
        with no_grad():
            feats = transition.features(j, constant(input_stack(self.env, s, a)))
            return transition.logits_from_features(j, feats, masks[:, None]).log_softmax().data


class TabularCmiModel:
    """Exact environment conditionals behind the same estimator interface."""

    def __init__(self, model: TabularTransitionModel):
        self.model = model
        self.env = model.cfg

    def log_probs(self, j: int, s: np.ndarray, a: np.ndarray, masks: np.ndarray) -> np.ndarray:
        return np.stack([self.model.log_probs(j, s, a, mask) for mask in masks])


def estimate_cmi(
    model,
    env: EnvConfig,
    s: np.ndarray,
    a: np.ndarray,
    next_values: np.ndarray,
) -> np.ndarray:
    """(d_s+1, d_s) CMI estimates from a batch of transitions.

    `s`, `a`: (n, d_s) integer current factors (hidden entries are encoder
    samples) and actions. `next_values`: (n, d_s) realized next factors;
    hidden columns are ignored (hidden targets use the KL form, which needs
    no realized value).
    """
    masks = cmi_masks(env)
    hidden = set(env.hidden_indices)
    out = np.zeros((env.d_s + 1, env.d_s))
    for j in range(env.d_s):
        logps = model.log_probs(j, s, a, masks)  # (d_s+2, n, l), full mask first
        if j in hidden:
            full = logps[0]
            out[:, j] = (np.exp(full) * (full - logps[1:])).sum(axis=2).mean(axis=1)
        else:
            picked = np.take_along_axis(logps, next_values[None, :, j, None], axis=2)[:, :, 0]
            out[:, j] = (picked[0] - picked[1:]).mean(axis=1)
    return np.maximum(out, 0.0)


def cmi_from_batch(
    bundle: ModelBundle,
    batch: TrainBatch,
    seed: int,
    step: int,
    temperature: float,
) -> np.ndarray:
    """CMI estimate on one batch with hidden inputs sampled under phi_bar."""
    env = bundle.env
    B, T = batch.size, batch.horizon

    def noise_for(t: int) -> np.ndarray:
        return gumbel_noise((B, env.d_h, env.l), stream(seed, "cmi-gumbel", step, t))

    with no_grad():
        enc = BatchEncoding(batch, env)
        _, samples = bundle.encoder_target.unroll(
            enc, temperature=temperature, noise_for=noise_for, hard=True
        )
    h_vals = np.stack([s.data.argmax(axis=-1) for s in samples], axis=1)  # (B, T+1, d_h)

    s_full = np.empty((B, T, env.d_s), dtype=np.int64)
    nxt = np.empty((B, T, env.d_s), dtype=np.int64)
    for p, f in enumerate(env.observed_indices):
        s_full[:, :, f] = batch.o[:, :T, p]
        nxt[:, :, f] = batch.o[:, 1 : T + 1, p]
    for q, f in enumerate(env.hidden_indices):
        s_full[:, :, f] = h_vals[:, :T, q]
        nxt[:, :, f] = h_vals[:, 1 : T + 1, q]

    flat = lambda arr: arr.reshape(B * T, env.d_s)
    return estimate_cmi(NeuralCmiModel(bundle), env, flat(s_full), flat(batch.a), flat(nxt))


def graph_accuracy(binarized: np.ndarray, gt: np.ndarray) -> float:
    """Fraction of matching cells over the whole (d_s+1) x d_s matrix."""
    binarized = np.asarray(binarized)
    gt = np.asarray(gt)
    if binarized.shape != gt.shape:
        raise ValueError(f"graph shapes differ: {binarized.shape} vs {gt.shape}")
    return float((binarized == gt).mean())
