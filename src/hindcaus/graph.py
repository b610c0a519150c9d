"""Model-based CMI estimation, EMA tracking, and graph binarization.

For a candidate parent i (state factor or the action node) and next-step
factor j, the CMI is estimated from the trained transition model by
comparing full and leave-one-out conditionals over a batch of transitions:
observed targets use the mean log-likelihood ratio at the realized next
values, hidden targets use the mean KL divergence between the two predicted
distributions. Estimates are clamped at zero, folded into an exponential
moving average, and thresholded into the working graph.

A CMI model has an `env` and answers `log_probs(s, a, masks)` for every
target at once: for n transitions and K keep-masks of shape (K, d_s+1)
over the inputs (d_s factors, then the action node), it returns the
(d_s, K, n, l) log-probabilities of each target's next value, block [j, k]
conditioned on mask k. Both models answer it themselves, the exact
`TabularTransitionModel` and the learned `MaskedTransition`, so
`estimate_cmi` reads the env from the model and asks it once, for every
row of the batch, under the `cmi_masks` stack, full mask first.

`estimate_cmi` does not deduplicate rows: every row is scored as given, so
it assumes nothing about how a model treats repeated rows. It checks
`next_values` only; the model's `log_probs` checks `s` and `a` once
(`check_rows`). Two memos serve the estimate: `MaskedTransition.log_probs`
memoizes its answers per row (see `models.transition`), and phi_bar's GRU,
which `cmi_from_batch` runs under `no_grad`, memoizes whole calls (see
`GRUCell.scan`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env.config import EnvConfig
from .env.dataset import TrainBatch
from .env.modulo import cmi_masks
from .models import BatchEncoding, ModelBundle
from .numcore.checks import _is_int, _is_positive, _is_real
from .numcore.dists import gumbel_block
from .numcore.tensor import _category_sum, no_grad

__all__ = [
    "CmiMatrix",
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
        if not (_is_int(d_s) and d_s >= 1):
            raise ValueError(f"d_s must be an integer >= 1, got {d_s!r}")
        # A NaN threshold would drop every edge, an infinite one keep every edge.
        if not _is_positive(threshold):
            raise ValueError(f"threshold must be finite and positive, got {threshold!r}")
        if not (_is_real(ema_coeff) and 0.0 <= ema_coeff < 1.0):
            raise ValueError(f"ema_coeff must be a real number in [0, 1), got {ema_coeff!r}")
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
        # A NaN would stay in the EMA and drop its edge for good (NaN >= threshold
        # is false); an infinity would keep its edge for good.
        bad = np.argwhere(~np.isfinite(fresh))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"non-finite CMI estimate {fresh[i, j]} at (input {i}, target {j})")
        fresh = np.maximum(fresh, 0.0)  # finite-sample artifacts
        c = self.ema_coeff
        self.values = c * self.values + (1.0 - c) * fresh
        self.updates += 1


def _checked_next_values(env: EnvConfig, next_values, n: int) -> np.ndarray:
    """`next_values` as an array, or a `ValueError` that names it: n >= 1
    rows of d_s integers, n being the rows of `s` and `a`, and the observed
    columns in [0, l)."""
    values = np.asarray(next_values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"next_values must hold integers, got dtype {values.dtype}")
    if values.shape != (n, env.d_s) or not n:
        raise ValueError(
            f"next_values must have shape (n, {env.d_s}) with n >= 1 rows, the n of s and a "
            f"({n}); got {values.shape}"
        )
    observed = values[:, env.observed_indices]
    if observed.min() < 0 or observed.max() >= env.l:
        raise ValueError(
            f"next_values must be in [0, {env.l}), got values in [{observed.min()}, {observed.max()}]"
        )
    return values


def estimate_cmi(model, s: np.ndarray, a: np.ndarray, next_values: np.ndarray) -> np.ndarray:
    """(d_s+1, d_s) CMI estimates from a batch of transitions under
    `model.env`.

    `s`, `a`: (n, d_s) integer current factors (hidden entries are encoder
    samples) and actions. `next_values`: (n, d_s) realized next factors;
    hidden columns are ignored (hidden targets use the KL form, which needs
    no realized value); `s` and the observed columns must be in [0, l).
    """
    env = model.env
    logps_all = model.log_probs(s, a, cmi_masks(env))  # (d_s, d_s+2, n, l)
    next_values = _checked_next_values(env, next_values, logps_all.shape[2])
    hidden = set(env.hidden_indices)
    out = np.zeros((env.d_s + 1, env.d_s))
    for j in range(env.d_s):
        logps = logps_all[j]  # (d_s+2, n, l), full mask first
        if j in hidden:
            full = logps[0]
            out[:, j] = _category_sum(np.exp(full) * (full - logps[1:])).mean(axis=1)
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
    # Time step t's noise is stream (seed, "cmi-gumbel", step, t).
    noise = gumbel_block((seed, "cmi-gumbel", step), range(T + 1), (B, env.d_h, env.l))
    with no_grad():
        enc = BatchEncoding(batch, env)
        _, samples = bundle.encoder_target.unroll(
            enc, temperature=temperature, noise_for=noise.__getitem__, hard=True
        )
    h_vals = np.swapaxes(samples.data.argmax(axis=-1), 0, 1)  # (B, T+1, d_h)

    s_full = np.empty((B, T, env.d_s), dtype=np.int64)
    nxt = np.empty((B, T, env.d_s), dtype=np.int64)
    s_full[:, :, env.observed_indices] = batch.o[:, :T]
    nxt[:, :, env.observed_indices] = batch.o[:, 1:]
    s_full[:, :, env.hidden_indices] = h_vals[:, :T]
    nxt[:, :, env.hidden_indices] = h_vals[:, 1:]

    flat = lambda arr: arr.reshape(B * T, env.d_s)
    return estimate_cmi(bundle.transition, flat(s_full), flat(batch.a), flat(nxt))


def graph_accuracy(binarized: np.ndarray, gt: np.ndarray) -> float:
    """Fraction of matching cells over the whole (d_s+1) x d_s matrix."""
    binarized = np.asarray(binarized)
    gt = np.asarray(gt)
    if binarized.shape != gt.shape:
        raise ValueError(f"graph shapes differ: {binarized.shape} vs {gt.shape}")
    return float((binarized == gt).mean())
