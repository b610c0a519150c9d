"""Hidden-state encoders.

Five conditioning variants over a batch of episodes. All emit, for each time
index t = 0..T, per-factor categorical logits of shape (B, d_h, l):

- history:        forward recurrence over (o_0..o_t, a_0..a_t)
- current_1step:  feed-forward window (o_t, a_t, o_{t+1}, a_{t+1})
- current_full:   backward recurrence over (o_t..o_T, a_t..a_T)
- dvae_1step:     past branch (h_{t-1}, o_{t-1}, a_{t-1}) + window branch
                  (o_t, a_t, o_{t+1}, a_{t+1}), combined
- dvae_full:      past branch + backward recurrence branch, combined

Out-of-range window slots (a_T and beyond, o_{T+1}) are zero vectors, which
keeps each variant's conditioning set exact: inputs outside the declared
window cannot influence the output. The dvae variants consume the previous
hidden sample recursively; a learned context vector stands in at t = 0.
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
    """Constant one-hot views of a batch with zero pads past the horizon."""

    def __init__(self, batch: TrainBatch, env: EnvConfig):
        self.env = env
        self.B = batch.size
        self.T = batch.horizon
        o_hot = one_hot(batch.o, env.l)  # (B, T+1, d_o, l)
        self._o = [constant(o_hot[:, t].reshape(self.B, env.d_o * env.l)) for t in range(self.T + 1)]
        self._a = [constant(batch.a[:, t].astype(np.float64)) for t in range(self.T)]
        self._zero_o = constant(np.zeros((self.B, env.d_o * env.l)))
        self._zero_a = constant(np.zeros((self.B, env.d_s)))

    def o(self, t: int) -> Tensor:
        if 0 <= t <= self.T:
            return self._o[t]
        if t == self.T + 1:
            return self._zero_o
        raise IndexError(f"observation index {t} outside episode of horizon {self.T}")

    def a(self, t: int) -> Tensor:
        if 0 <= t < self.T:
            return self._a[t]
        if t in (self.T, self.T + 1):
            return self._zero_a
        raise IndexError(f"action index {t} outside episode of horizon {self.T}")


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

    # -- shared sub-sequences ------------------------------------------------

    def _step_input(self, enc: BatchEncoding, t: int) -> Tensor:
        return concat([enc.o(t), enc.a(t)], axis=1)

    def _window_input(self, enc: BatchEncoding, t: int) -> Tensor:
        return concat([enc.o(t), enc.a(t), enc.o(t + 1), enc.a(t + 1)], axis=1)

    def _forward_states(self, enc: BatchEncoding) -> list[Tensor]:
        h = constant(np.zeros((enc.B, self.H)))
        states = []
        for t in range(enc.T + 1):
            h = self.cell(self._step_input(enc, t), h)
            states.append(h)
        return states

    def _backward_states(self, enc: BatchEncoding) -> list[Tensor]:
        g = constant(np.zeros((enc.B, self.H)))
        states: list[Tensor] = [None] * (enc.T + 1)
        for t in range(enc.T, -1, -1):
            g = self.cell(self._step_input(enc, t), g)
            states[t] = g
        return states

    def _shape_logits(self, flat: Tensor, B: int) -> Tensor:
        return flat.reshape(B, self.env.d_h, self.env.l)

    def _past_feature(self, enc: BatchEncoding, t: int, prev_sample: Tensor | None) -> Tensor:
        if t == 0:
            zeros = constant(np.zeros((enc.B, self.H)))
            return (zeros + self.context0).tanh()
        flat_h = prev_sample.reshape(enc.B, self.env.d_h * self.env.l)
        x = concat([flat_h, enc.o(t - 1), enc.a(t - 1)], axis=1)
        return self.past_net(x).tanh()

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
        (logits, samples).
        """
        sampling = prev_samples is None
        if sampling and (temperature is None or noise_for is None):
            raise ValueError("sampling unroll needs temperature and noise_for")

        logits_seq: list[Tensor] = []
        samples_seq: list[Tensor] | None = [] if sampling else None

        if self.variant in ("history", "current_full", "current_1step"):
            if self.variant == "history":
                states = self._forward_states(enc)
                logits_seq = [self._shape_logits(self.head(s), enc.B) for s in states]
            elif self.variant == "current_full":
                states = self._backward_states(enc)
                logits_seq = [self._shape_logits(self.head(s), enc.B) for s in states]
            else:
                logits_seq = [
                    self._shape_logits(self.window_net(self._window_input(enc, t)), enc.B)
                    for t in range(enc.T + 1)
                ]
            if sampling:
                for t, logits in enumerate(logits_seq):
                    samples_seq.append(
                        gumbel_softmax_sample(logits, temperature, hard, noise=noise_for(t))
                    )
            return logits_seq, samples_seq

        # dvae variants: window/backward branch first, then the recursive pass.
        if self.variant == "dvae_full":
            g_seq = self._backward_states(enc)
        else:
            g_seq = [self.window_net(self._window_input(enc, t)).tanh() for t in range(enc.T + 1)]

        prev = None
        for t in range(enc.T + 1):
            if not sampling and t > 0:
                prev = prev_samples[t - 1]
            e_t = self._past_feature(enc, t, prev)
            logits = self._shape_logits(self.combiner(concat([e_t, g_seq[t]], axis=1)), enc.B)
            logits_seq.append(logits)
            if sampling:
                sample = gumbel_softmax_sample(logits, temperature, hard, noise=noise_for(t))
                samples_seq.append(sample)
                prev = sample
        return logits_seq, samples_seq
