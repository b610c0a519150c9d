"""Hidden-state encoders.

Five conditioning variants over a batch of episodes. All emit, for each time
index t = 0..T, per-factor categorical logits of shape (B, d_h, l):

- history:        forward recurrence over (o_0..o_t, a_0..a_t)
- current_1step:  feed-forward window (o_t, a_t, o_{t+1}, a_{t+1})
- current_full:   backward recurrence over (o_t..o_T, a_t..a_T)
- dvae_1step:     past branch (h_{t-1}, o_{t-1}, a_{t-1}) + window branch
                  (o_t, a_t, o_{t+1}, a_{t+1}), combined
- dvae_full:      past branch + backward recurrence branch, combined

The batch enters as one constant (T+1, B, d_o·l + d_s) stack of [o_t, a_t]
steps (`BatchEncoding.steps`). Out-of-range slots (a_T, and step T+1 of a
window) are zero rows, which keeps each variant's conditioning set exact:
inputs outside the declared window cannot influence the output.

Every layer whose input does not depend on a sample runs once over all T+1
steps: a recurrence is one `GRUCell.scan`, a head or window net one call on
(T+1)·B rows. The dvae variants consume the previous hidden sample
recursively; a learned context vector stands in at t = 0. Given teacher
samples, the past branch runs once over T·B rows and the combiner once over
(T+1)·B rows, so only the sampling pass of a dvae variant loops over t.
"""

from __future__ import annotations

import numpy as np

from ..env.config import EnvConfig
from ..env.dataset import TrainBatch
from ..numcore.dists import gumbel_softmax_sample, one_hot
from ..numcore.tensor import Tensor, concat, constant
from .nets import MLP, GRUCell, Linear
from .store import ParamFactory

__all__ = ["ENCODER_VARIANTS", "BatchEncoding", "HiddenEncoder"]

ENCODER_VARIANTS = ("history", "current_1step", "current_full", "dvae_1step", "dvae_full")


class BatchEncoding:
    """Constant one-hot view of a batch: `steps` is the (T+1, B, d_o·l + d_s)
    stack of [o_t, a_t] rows, with a_T = 0."""

    def __init__(self, batch: TrainBatch, env: EnvConfig):
        self.env = env
        self.B = batch.size
        self.T = batch.horizon
        d_ol = env.d_o * env.l
        steps = np.zeros((self.T + 1, self.B, d_ol + env.d_s))
        o_hot = one_hot(batch.o, env.l).reshape(self.B, self.T + 1, d_ol)
        steps[:, :, :d_ol] = np.swapaxes(o_hot, 0, 1)
        steps[: self.T, :, d_ol:] = np.swapaxes(batch.a, 0, 1)
        self.steps = constant(steps)

    def windows(self) -> Tensor:
        """(T+1, B, 2·width) stack of step t next to step t+1, with a zero
        row for step T+1."""
        s = self.steps.data
        after = np.concatenate([s[1:], np.zeros_like(s[:1])])
        return constant(np.concatenate([s, after], axis=2))


class HiddenEncoder:
    """One inference network of the configured variant (see module docstring)."""

    def __init__(
        self,
        variant: str,
        env: EnvConfig,
        params: ParamFactory,
        hidden_dim: int = 64,
    ):
        if variant not in ENCODER_VARIANTS:
            raise ValueError(f"unknown encoder variant {variant!r}; choose from {ENCODER_VARIANTS}")
        self.variant = variant
        self.env = env
        self.H = hidden_dim
        d_oa = env.d_o * env.l + env.d_s
        d_out = env.d_h * env.l
        H = hidden_dim

        if variant == "history":
            self.cell = GRUCell(params, "fwd", d_oa, H)
            self.head = Linear(params, "head", H, d_out)
        elif variant == "current_full":
            self.cell = GRUCell(params, "bwd", d_oa, H)
            self.head = Linear(params, "head", H, d_out)
        elif variant == "current_1step":
            self.window_net = MLP(params, "window", 2 * d_oa, [H, H], d_out)
        else:  # dvae_1step / dvae_full
            self.past_net = MLP(params, "past", env.d_h * env.l + d_oa, [H], H)
            self.context0 = params.zeros("context0", H)
            if variant == "dvae_full":
                self.cell = GRUCell(params, "bwd", d_oa, H)
            else:
                self.window_net = MLP(params, "window", 2 * d_oa, [H], H)
            self.combiner = MLP(params, "combiner", 2 * H, [H], d_out)

    # -- helpers ----------------------------------------------------------------

    def _rows(self, net, x: Tensor) -> Tensor:
        """`net` run once on every row of an (S, B, d) stack -> (S, B, d_out)."""
        S, B, d = x.shape
        return net(x.reshape(S * B, d)).reshape(S, B, -1)

    def _logits(self, flat: Tensor) -> Tensor:
        return flat.reshape(*flat.shape[:-1], self.env.d_h, self.env.l)

    # -- unrolls ----------------------------------------------------------------

    def unroll(
        self,
        enc: BatchEncoding,
        temperature: float | None = None,
        noise_for=None,
        hard: bool = True,
        prev_samples: list[Tensor] | None = None,
    ):
        """Emit logits for t = 0..T; sample when no teacher samples are given.

        With `prev_samples` (detached samples from another unroll) the dvae
        past branch consumes those instead of its own draws and no sampling
        happens; returns (logits, None). Otherwise draws straight-through
        Gumbel-softmax samples with noise from `noise_for(t)` and returns
        (logits, samples). Both are lists over t of (B, d_h, l) tensors.
        """
        sampling = prev_samples is None
        if sampling and (temperature is None or noise_for is None):
            raise ValueError("sampling unroll needs temperature and noise_for")
        T, B = enc.T, enc.B
        split = lambda x: [x[t] for t in range(T + 1)]  # noqa: E731

        if self.variant in ("history", "current_full", "current_1step"):
            if self.variant == "current_1step":
                logits = self._logits(self._rows(self.window_net, enc.windows()))
            else:
                states = self.cell.scan(enc.steps, reverse=self.variant == "current_full")
                logits = self._logits(self._rows(self.head, states))
            if not sampling:
                return split(logits), None
            noise = np.stack([noise_for(t) for t in range(T + 1)])
            samples = gumbel_softmax_sample(logits, temperature, hard, noise=noise)
            return split(logits), split(samples)

        # dvae variants: window/backward branch over all steps, then the past branch.
        if self.variant == "dvae_full":
            g = self.cell.scan(enc.steps, reverse=True)
        else:
            g = self._rows(self.window_net, enc.windows()).tanh()
        e0 = (constant(np.zeros((B, self.H))) + self.context0).tanh()
        d_hl = self.env.d_h * self.env.l

        if not sampling:
            prev = concat([s.reshape(B, d_hl) for s in prev_samples[:T]], axis=0)
            x = concat([prev, enc.steps[:T].reshape(T * B, -1)], axis=1)
            e = concat([e0, self.past_net(x).tanh()], axis=0)
            flat = self.combiner(concat([e, g.reshape((T + 1) * B, self.H)], axis=1))
            return split(self._logits(flat.reshape(T + 1, B, -1))), None

        logits_seq: list[Tensor] = []
        samples_seq: list[Tensor] = []
        e = e0
        for t in range(T + 1):
            if t > 0:
                x = concat([samples_seq[-1].reshape(B, d_hl), enc.steps[t - 1]], axis=1)
                e = self.past_net(x).tanh()
            logits = self._logits(self.combiner(concat([e, g[t]], axis=1)))
            logits_seq.append(logits)
            samples_seq.append(gumbel_softmax_sample(logits, temperature, hard, noise=noise_for(t)))
        return logits_seq, samples_seq
