"""Six-term factorized training objective plus the reward loss.

Per transition t = 0..T-1 and target factor j, observed targets contribute
negative log-likelihood and hidden targets contribute KL(target-encoder ||
predictor), each under three input conditionings: full, leave-one-out (a
uniformly drawn input per episode/transition/target), and causal (the
current binarized graph column). Hidden inputs to the predictors are the
recursive straight-through samples of the live encoder; the KL targets come
from the stop-gradient encoder copy evaluated on those samples detached.
Both encoder outputs are time-major (T+1, B, d_h, l) tensors, so the rows
of any t-range of them, flattened, are already in transition-major order.

The transition reads all T*B (episode, transition) rows at once, in
transition-major order: `_transition_inputs` gives the table indices of
the observed factors and the actions, and the (d_h, rows, width) stack of
the live samples, which stay on the taped dense path. Per target, one
`features` call gives the feature table and the dense features of the
samples, and one `logits_from_features` call on a (3, rows, d_s+1) mask
stack (full, leave-one-out, causal) pools from both and gives the
(3, rows, l) logits that one loss reads all three terms from. When the
graph column keeps every input of the target, or none (the fallback to
full), the causal mask is the full mask again: the stack then holds only
the full and leave-one-out masks, and one index node reuses the full term
as the causal term, so the terms keep their values and the duplicate block
is neither pooled, run through the head nor backpropagated. Everything is
a mean over (episode, transition) rows; component values are sums over
target factors of those means, in target order. The minimized total sums
the six in `COMPONENTS` order, plus reward_weight times the reward
cross-entropy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .env.config import EnvConfig
from .env.dataset import TrainBatch
from .models import BatchEncoding, ModelBundle, hidden_stack, input_indices
from .numcore.checks import _is_positive, _is_real
from .numcore.dists import categorical_kl, cross_entropy, gumbel_block, one_hot
from .numcore.random import stream
from .numcore.tensor import Tensor, concat, constant, stack

__all__ = [
    "COMPONENTS",
    "LossBreakdown",
    "ObjectiveConfig",
    "StepRandomness",
    "reward_loss",
    "total_objective",
    "vlb_losses",
]

log = logging.getLogger("hindcaus.objective")

# (full, leave-one-out) terms -> (full, leave-one-out, causal) terms, for a
# target whose causal mask copies the full one.
_FULL_AS_CAUSAL = [0, 1, 0]

COMPONENTS = (
    "full_nll",
    "masked_nll",
    "causal_nll",
    "full_kl",
    "masked_kl",
    "causal_kl",
    "reward_ce",
    "total",
)


@dataclass
class ObjectiveConfig:
    reward_weight: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        w, t = self.reward_weight, self.temperature
        if not (_is_real(w) and math.isfinite(w) and w >= 0):
            raise ValueError(f"reward_weight must be a finite real number >= 0, got {w!r}")
        if not _is_positive(t):
            raise ValueError(f"temperature must be a finite positive real number, got {t!r}")


@dataclass
class StepRandomness:
    """Named randomness for one training step, replayable by construction:
    each draw comes from a named stream (`numcore.random`) under
    (seed, tag, kind, step), so it does not depend on any other draw.

    The live encoder's Gumbel noise at time step t is stream
    (seed, tag, "gumbel", step, t). `encoder_noise` draws the whole
    (T+1, B, d_h, l) block of an unroll with one `gumbel_block` call, one
    re-keyed Philox per time step rather than a generator each, and hands
    it to the unroll as `noise_for(t)`. The leave-one-out inputs come from
    stream (seed, tag, "mask", step).
    """

    seed: int
    step: int
    tag: str = "train"

    def encoder_noise(self, batch_size: int, env: EnvConfig, horizon: int):
        """`noise_for(t)` for an unroll over t = 0..horizon: the (B, d_h, l)
        slice t of the step's Gumbel block."""
        prefix = (self.seed, self.tag, "gumbel", self.step)
        return gumbel_block(prefix, range(horizon + 1), (batch_size, env.d_h, env.l)).__getitem__

    def mask_indices(self, batch_size: int, horizon: int, env: EnvConfig) -> np.ndarray:
        """Left-out input index per (episode, transition, target factor)."""
        rng = stream(self.seed, self.tag, "mask", self.step)
        return rng.integers(0, env.d_s + 1, size=(batch_size, horizon, env.d_s))


@dataclass
class LossBreakdown:
    full_nll: float
    masked_nll: float
    causal_nll: float
    full_kl: float
    masked_kl: float
    causal_kl: float
    reward_ce: float
    total: float
    per_factor: dict[str, dict[int, float]] = field(default_factory=dict)
    causal_fallback_factors: tuple[int, ...] = ()

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COMPONENTS}


def _flatten_tm(arr: np.ndarray) -> np.ndarray:
    """(B, T, ...) -> (T*B, ...), transition-major row order."""
    return np.swapaxes(arr, 0, 1).reshape(arr.shape[1] * arr.shape[0], *arr.shape[2:])


def _transition_inputs(
    batch: TrainBatch, env: EnvConfig, samples: Tensor
) -> tuple[np.ndarray, Tensor]:
    """Transition inputs of all T transitions, rows transition-major: the
    (d_s+1, T*B) `input_indices` of the observed factors and the actions,
    and the (d_h, T*B, width) `hidden_stack` of samples[:T]."""
    T, B = batch.horizon, batch.size
    s = np.zeros((T * B, env.d_s), dtype=np.int64)  # hidden columns are not read
    s[:, env.observed_indices] = _flatten_tm(batch.o[:, :T])
    idx = input_indices(env, s, _flatten_tm(batch.a))
    return idx, hidden_stack(env, samples[:T].reshape(T * B, env.d_h, env.l))


def vlb_losses(
    batch: TrainBatch,
    bundle: ModelBundle,
    graph_binary: np.ndarray,
    rand: StepRandomness,
    cfg: ObjectiveConfig,
    samples: Tensor | None = None,
    target_logits: Tensor | None = None,
    mask_draw: np.ndarray | None = None,
):
    """Six VLB terms. Returns (loss tensor, LossBreakdown with reward_ce 0,
    the live encoder's samples). The live samples are hard straight-through
    ones; `samples` / `target_logits` override the (T+1, B, d_h, l) encoder
    unrolls (oracle tests pass true hidden values, gradient checks relaxed
    samples); `mask_draw` overrides the leave-one-out index draw.

    A target whose `graph_binary` column keeps every input or none has the
    full mask as its causal mask, so its logits hold only the full and
    leave-one-out blocks and its causal term is its full term. A column that
    keeps none is listed in `causal_fallback_factors`. Any `graph_binary`
    other than a (d_s+1, d_s) matrix of 0s and 1s raises `ValueError`.
    """
    env = bundle.env
    graph_binary = np.asarray(graph_binary)
    shape = (env.d_s + 1, env.d_s)
    if graph_binary.shape != shape or not np.isin(graph_binary, (0, 1)).all():
        raise ValueError(
            f"graph_binary must be a {shape} matrix of 0s and 1s, got shape "
            f"{graph_binary.shape} with values {np.unique(graph_binary)[:4].tolist()}"
        )
    B, T = batch.size, batch.horizon
    enc = BatchEncoding(batch, env)

    if samples is None:
        _, samples = bundle.encoder.unroll(
            enc,
            temperature=cfg.temperature,
            noise_for=rand.encoder_noise(B, env, T),
            hard=True,
        )
    if target_logits is None:
        target_logits, _ = bundle.encoder_target.unroll(enc, prev_samples=samples.detach())

    idx, hidden = _transition_inputs(batch, env, samples)

    if mask_draw is None:
        mask_draw = rand.mask_indices(B, T, env)
    if mask_draw.shape != (B, T, env.d_s):
        raise ValueError(f"mask_draw must have shape {(B, T, env.d_s)}, got {mask_draw.shape}")
    if mask_draw.dtype.kind not in "iu" or ((mask_draw < 0) | (mask_draw > env.d_s)).any():
        raise ValueError(f"mask_draw must hold integer input indices in [0, {env.d_s}]")

    obs_pos = {f: p for p, f in enumerate(env.observed_indices)}
    hid_pos = {f: p for p, f in enumerate(env.hidden_indices)}

    nll_terms: list[Tensor] = []  # (3,) per observed target, in target order
    kl_terms: list[Tensor] = []  # (3,) per hidden target
    per_factor: dict[str, dict[int, float]] = {c: {} for c in COMPONENTS[:6]}
    fallbacks: list[int] = []
    transition = bundle.transition

    for j in range(env.d_s):
        column = graph_binary[:, j]
        if not column.any():
            log.debug("causal mask for factor %d has no parents; falling back to full", j)
            fallbacks.append(j)
        # A column keeping every input or none gives the full mask again: its
        # block is left out and the full term stands in for the causal one.
        copies_full = column.all() or not column.any()
        masks = np.ones((2 if copies_full else 3, T * B, env.d_s + 1))
        masks[1, np.arange(T * B), _flatten_tm(mask_draw[:, :, j])] = 0.0
        if not copies_full:
            masks[2] = column
        logits = transition.logits_from_features(j, transition.features(j, idx, hidden), masks)

        if j in obs_pos:
            labels = _flatten_tm(batch.o[:, 1 : T + 1, obs_pos[j]])
            names, terms = COMPONENTS[:3], cross_entropy(logits, labels).mean(axis=1)
        else:
            # Stop-gradient encoder logits of this factor at t = 1..T.
            q = target_logits[1:, :, hid_pos[j]].reshape(T * B, env.l)
            names, terms = COMPONENTS[3:6], categorical_kl(q, logits).mean(axis=1)
        if copies_full:
            terms = terms[_FULL_AS_CAUSAL]
        (nll_terms if j in obs_pos else kl_terms).append(terms)
        for k, c in enumerate(names):
            per_factor[c][j] = float(terms.data[k])

    # The six components in `COMPONENTS` order, each summed over its targets.
    components = concat([stack(nll_terms).sum(axis=0), stack(kl_terms).sum(axis=0)])
    loss = components.sum()
    values = dict(zip(COMPONENTS[:6], components.data.tolist()))

    breakdown = LossBreakdown(
        **values,
        reward_ce=0.0,
        total=float(loss.data),
        per_factor=per_factor,
        causal_fallback_factors=tuple(fallbacks),
    )
    return loss, breakdown, samples


def reward_loss(batch: TrainBatch, bundle: ModelBundle, samples: Tensor) -> Tensor:
    """Mean cross-entropy of reward prediction from (h_t = samples[t], tau)
    against r_t over t = 1..T. Gradients reach phi (through samples) and psi."""
    env = bundle.env
    B, T = batch.size, batch.horizon
    h_rows = samples[1:].reshape(T * B, env.d_h * env.l)
    tau_rows = constant(np.tile(one_hot(batch.tau, env.l), (T, 1)))
    labels = _flatten_tm(batch.r)  # column t-1 holds r_t
    logits = bundle.reward(h_rows, tau_rows)
    return cross_entropy(logits, labels).mean()


def total_objective(
    batch: TrainBatch,
    bundle: ModelBundle,
    graph_binary: np.ndarray,
    rand: StepRandomness,
    cfg: ObjectiveConfig,
):
    """Full minimized objective. Returns (total tensor, LossBreakdown)."""
    loss, breakdown, samples = vlb_losses(batch, bundle, graph_binary, rand, cfg)
    r_ce = reward_loss(batch, bundle, samples)
    total = loss + r_ce * cfg.reward_weight
    breakdown.reward_ce = float(r_ce.data)
    breakdown.total = float(total.data)
    return total, breakdown
