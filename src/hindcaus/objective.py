"""Six-term factorized training objective plus the reward loss.

Per transition t = 0..T-1 and target factor j, observed targets contribute
negative log-likelihood and hidden targets contribute KL(target-encoder ||
predictor), each under three input conditionings: full, leave-one-out (a
uniformly drawn input per episode/transition/target), and causal (the
current binarized graph column). Hidden inputs to the predictors are the
recursive straight-through samples of the live encoder; the KL targets come
from the stop-gradient encoder copy evaluated on those samples detached.

Each target makes one `logits_from_features` call on a (3, rows, d_s+1)
mask stack (full, leave-one-out, causal) and reads its three terms from one
loss over the (3, rows, l) logits. Everything is a mean over (episode,
transition) rows; component values are sums over target factors of those
means. The minimized total is the sum of the six terms plus reward_weight
times the reward cross-entropy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .env.config import EnvConfig
from .env.dataset import TrainBatch
from .models import BatchEncoding, ModelBundle, input_stack
from .numcore.dists import categorical_kl, cross_entropy, gumbel_noise, one_hot
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
    hard_samples: bool = True

    def __post_init__(self):
        if self.reward_weight < 0:
            raise ValueError(f"reward_weight must be >= 0, got {self.reward_weight}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


@dataclass
class StepRandomness:
    """Named randomness for one training step: replayable by construction."""

    seed: int
    step: int
    tag: str = "train"

    def encoder_noise(self, batch_size: int, env: EnvConfig):
        def noise_for(t: int) -> np.ndarray:
            rng = stream(self.seed, self.tag, "gumbel", self.step, t)
            return gumbel_noise((batch_size, env.d_h, env.l), rng)

        return noise_for

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


def _transition_inputs(batch: TrainBatch, env: EnvConfig, samples: list[Tensor]) -> Tensor:
    """(d_s+1, T*B, width) input stack of all T transitions, rows
    transition-major: observed factors are data one-hots, hidden factors the
    encoder samples, the last slice the action."""
    T, B = batch.horizon, batch.size
    s = np.zeros((T * B, env.d_s), dtype=np.int64)  # hidden columns are replaced below
    s[:, env.observed_indices] = _flatten_tm(batch.o[:, :T])
    base = input_stack(env, s, _flatten_tm(batch.a))
    hidden = concat(samples[:T], axis=0)  # (T*B, d_h, l)
    pad = base.shape[2] - env.l
    if pad:
        hidden = concat([hidden, constant(np.zeros((T * B, env.d_h, pad)))], axis=2)
    hid_pos = {f: q for q, f in enumerate(env.hidden_indices)}
    return stack(
        [hidden[:, hid_pos[f]] if f in hid_pos else constant(base[f]) for f in range(env.d_s + 1)]
    )


def vlb_losses(
    batch: TrainBatch,
    bundle: ModelBundle,
    graph_binary: np.ndarray,
    rand: StepRandomness,
    cfg: ObjectiveConfig,
    samples: list[Tensor] | None = None,
    target_logits: list[Tensor] | None = None,
    mask_draw: np.ndarray | None = None,
):
    """Six VLB terms. Returns (loss_tensor, LossBreakdown-without-reward).

    `samples` / `target_logits` override the encoder unrolls (used by oracle
    tests); `mask_draw` overrides the leave-one-out index draw.
    """
    env = bundle.env
    B, T = batch.size, batch.horizon
    enc = BatchEncoding(batch, env)

    if samples is None:
        _, samples = bundle.encoder.unroll(
            enc,
            temperature=cfg.temperature,
            noise_for=rand.encoder_noise(B, env),
            hard=cfg.hard_samples,
        )
    if target_logits is None:
        detached = [s.detach() for s in samples]
        target_logits, _ = bundle.encoder_target.unroll(enc, prev_samples=detached)

    inputs = _transition_inputs(batch, env, samples)

    if mask_draw is None:
        mask_draw = rand.mask_indices(B, T, env)
    if mask_draw.shape != (B, T, env.d_s):
        raise ValueError(f"mask draw must have shape {(B, T, env.d_s)}, got {mask_draw.shape}")

    obs_pos = {f: p for p, f in enumerate(env.observed_indices)}
    hid_pos = {f: p for p, f in enumerate(env.hidden_indices)}

    zero = constant(np.zeros(()))
    sums = dict.fromkeys(COMPONENTS[:6], zero)
    per_factor: dict[str, dict[int, float]] = {c: {} for c in COMPONENTS[:6]}
    fallbacks: list[int] = []

    for j in range(env.d_s):
        feats = bundle.transition.features(j, inputs)

        masks = np.ones((3, T * B, env.d_s + 1))  # full, leave-one-out, causal
        masks[1, np.arange(T * B), _flatten_tm(mask_draw[:, :, j])] = 0.0
        if graph_binary[:, j].any():
            masks[2] = graph_binary[:, j]
        else:
            log.debug("causal mask for factor %d has no parents; falling back to full", j)
            fallbacks.append(j)
        logits = bundle.transition.logits_from_features(j, feats, masks)

        if j in obs_pos:
            labels = _flatten_tm(batch.o[:, 1 : T + 1, obs_pos[j]])
            names, terms = COMPONENTS[:3], cross_entropy(logits, labels).mean(axis=1)
        else:
            # Stop-gradient encoder logits of this factor at t = 1..T.
            q = concat([target_logits[t + 1][:, hid_pos[j], :] for t in range(T)], axis=0)
            names, terms = COMPONENTS[3:6], categorical_kl(q, logits).mean(axis=1)
        for k, c in enumerate(names):
            sums[c] = sums[c] + terms[k]
            per_factor[c][j] = float(terms.data[k])

    loss = zero
    for c in COMPONENTS[:6]:
        loss = loss + sums[c]
    values = {c: float(sums[c].data) for c in COMPONENTS[:6]}

    breakdown = LossBreakdown(
        **values,
        reward_ce=0.0,
        total=float(loss.data),
        per_factor=per_factor,
        causal_fallback_factors=tuple(fallbacks),
    )
    return loss, breakdown, samples


def reward_loss(batch: TrainBatch, bundle: ModelBundle, samples: list[Tensor]) -> Tensor:
    """Mean cross-entropy of reward prediction from (h_t sample, tau) against
    r_t over t = 1..T. Gradients reach phi (through samples) and psi."""
    env = bundle.env
    B, T = batch.size, batch.horizon
    h_rows = concat(
        [samples[t].reshape(B, env.d_h * env.l) for t in range(1, T + 1)], axis=0
    )
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
