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
it assumes nothing about how a model treats repeated rows. A batch repeats
many (s, a) rows (chain3 at l = 4 has only 192), and
`MaskedTransition.log_probs` is the one place that deduplicates them: it
memoizes its answer per row and runs the network once on the first
occurrence of each row it has not seen under its current weights. It reads
every input, hidden ones included, from each target's feature table; the
dense hidden path is left to the training path's soft samples. Evaluating
a fixed checkpoint thus runs the network only on new rows; training
changes the weights before every graph update, so there each distinct row
of the batch runs once.

The encoder side is memoized the same way. `cmi_from_batch` samples the
hidden values from phi_bar under `no_grad`, and phi_bar's GRU (the backward
recurrence of `dvae_full` and `current_full`, the forward one of `history`)
memoizes its states per episode while its weights stay unchanged; see
`models.nets`. On a fixed checkpoint an episode seen before, by an
evaluation or an earlier estimate, skips `affine` and `gru_scan`. In
training every graph update follows a `sync_target`, so there it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env.config import EnvConfig
from .env.dataset import TrainBatch
from .env.modulo import action_allowed, cmi_masks
from .models import BatchEncoding, ModelBundle
from .numcore.checks import _is_int, _is_real
from .numcore.dists import gumbel_noise
from .numcore.random import stream
from .numcore.tensor import no_grad

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
        if not (_is_real(threshold) and math.isfinite(threshold) and threshold > 0):
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


def _checked_transitions(env: EnvConfig, s, a, next_values) -> list[np.ndarray]:
    """`s`, `a` and `next_values` as arrays, or a `ValueError` that names
    the argument `estimate_cmi` cannot score. Every row of `a` must be one
    of `action_options`, as in a dataset."""
    arrays = [np.asarray(x) for x in (s, a, next_values)]
    n = len(arrays[0]) if arrays[0].ndim else 0
    for name, arr in zip(("s", "a", "next_values"), arrays):
        if arr.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
        if arr.shape != (n, env.d_s) or not n:
            raise ValueError(
                f"{name} must have shape (n, {env.d_s}) with n >= 1 rows, the same n for "
                f"s, a and next_values; got {arr.shape}"
            )
    for name, values in (("s", arrays[0]), ("next_values", arrays[2][:, env.observed_indices])):
        if values.size and (values.min() < 0 or values.max() >= env.l):
            raise ValueError(
                f"{name} must be in [0, {env.l}), got values in [{values.min()}, {values.max()}]"
            )
    allowed = action_allowed(env, arrays[1])
    if not allowed.all():
        i = int(np.argmin(allowed))
        raise ValueError(
            f"a must hold rows that are a no-op or a single intervention on an observed "
            f"factor {env.observed_indices}; row {i} is {arrays[1][i].tolist()}"
        )
    return arrays


def estimate_cmi(model, s: np.ndarray, a: np.ndarray, next_values: np.ndarray) -> np.ndarray:
    """(d_s+1, d_s) CMI estimates from a batch of transitions under
    `model.env`.

    `s`, `a`: (n, d_s) integer current factors (hidden entries are encoder
    samples) and actions. `next_values`: (n, d_s) realized next factors;
    hidden columns are ignored (hidden targets use the KL form, which needs
    no realized value); `s` and the observed columns must be in [0, l).
    """
    env = model.env
    s, a, next_values = _checked_transitions(env, s, a, next_values)
    logps_all = model.log_probs(s, a, cmi_masks(env))  # (d_s, d_s+2, n, l)
    hidden = set(env.hidden_indices)
    out = np.zeros((env.d_s + 1, env.d_s))
    for j in range(env.d_s):
        logps = logps_all[j]  # (d_s+2, n, l), full mask first
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
