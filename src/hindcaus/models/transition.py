"""Factor-wise masked transition model and the reward head.

Each next-step factor j has its own feature extractor per input (one per
current factor plus one for the action node); the features are pooled by an
elementwise max over the unmasked inputs. Masking an input removes it from
the pool entirely, so one set of weights serves the full, leave-one-out and
causal-parents conditioning variants, and the extractor features are shared
by every mask of a call.

The inputs enter as one (d_s+1, rows, width) stack, width = max(l, d_s):
slice i < d_s is factor i's one-hot (or hidden sample), slice d_s the action
vector, each zero-padded on the right (`input_stack`). Target j's d_s+1
extractors are stacked too: `target{j}.embed.W` is (d_s+1, width, embed)
and `target{j}.proj.W` is (d_s+1, embed, feat), so `features` is two `bmm`
nodes (batched matmul plus bias), each followed by a tanh. An input narrower
than width has zero weight rows under its padding columns, and those rows
stay zero.

Masks are keep-masks (1 keeps an input, 0 drops it) over the d_s factors
followed by the action node. `logits_from_features` takes a stack of K of
them, shape (K, 1 or rows, d_s+1): a middle axis of 1 applies one mask to
every row, a middle axis of rows gives each row its own mask. It pools with
one `masked_max` into a (K, rows, feat) block, runs the head once on that
block, and returns (K, rows, l) logits, block k conditioned on mask k. When
taped, the pool keeps each output's winning input, so its backward routes
the gradient in one pass; under `no_grad` (the CMI estimate) it keeps none.
"""

from __future__ import annotations

import numpy as np

from ..env.config import EnvConfig
from ..numcore.dists import one_hot
from ..numcore.tensor import Tensor, concat, masked_max
from .nets import MLP, StackedLinear
from .store import ParamFactory

__all__ = ["MaskedTransition", "RewardHead", "input_stack"]

_MASK_OFF = -1e30


def input_stack(env: EnvConfig, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(d_s+1, n, max(l, d_s)) input stack from (n, d_s) integer factors `s`
    and (n, d_s) actions `a`."""
    n = s.shape[0]
    x = np.zeros((env.d_s + 1, n, max(env.l, env.d_s)))
    x[: env.d_s, :, : env.l] = one_hot(s.T, env.l)
    x[env.d_s, :, : env.d_s] = a
    return x


class MaskedTransition:
    """Per-target masked predictors; observed targets live in theta_o,
    hidden targets in theta_h."""

    def __init__(
        self,
        env: EnvConfig,
        params_o: ParamFactory,
        params_h: ParamFactory,
        feat_dim: int = 64,
        embed_dim: int = 16,
    ):
        self.env = env
        self.feat_dim = feat_dim
        in_dims = [env.l] * env.d_s + [env.d_s]
        self.in_width = max(in_dims)
        hidden = set(env.hidden_indices)
        self._embed: list[StackedLinear] = []
        self._proj: list[StackedLinear] = []
        self._heads: list[MLP] = []
        for j in range(env.d_s):
            params = params_h if j in hidden else params_o

            def stacked(kind: str, d_ins: list[int], d_out: int) -> StackedLinear:
                # Slice i keeps the init draw of the per-input layer it replaces.
                draws = [f"target{j}.in{i}.{kind}.W" for i in range(len(d_ins))]
                return StackedLinear(params, f"target{j}.{kind}", draws, d_ins, d_out)

            self._embed.append(stacked("embed", in_dims, embed_dim))
            self._proj.append(stacked("proj", [embed_dim] * len(in_dims), feat_dim))
            self._heads.append(MLP(params, f"target{j}.head", feat_dim, [feat_dim], env.l))

    def features(self, j: int, x: Tensor) -> Tensor:
        """(d_s+1, rows, feat) per-input features of target j from the
        (d_s+1, rows, width) input stack."""
        expected = (self.env.d_s + 1, self.in_width)
        if x.data.ndim != 3 or (x.shape[0], x.shape[2]) != expected:
            raise ValueError(
                f"input stack must have shape ({expected[0]}, rows, {expected[1]}), got {x.shape}"
            )
        return self._proj[j](self._embed[j](x).tanh()).tanh()

    def logits_from_features(self, j: int, feats: Tensor, masks: np.ndarray) -> Tensor:
        """(K, rows, l) logits of target j under a (K, 1 or rows, d_s+1) mask stack."""
        masks = np.asarray(masks, dtype=np.float64)
        if masks.ndim != 3 or masks.shape[-1] != self.env.d_s + 1:
            raise ValueError(
                f"masks must have shape (K, 1 or rows, {self.env.d_s + 1}), got {masks.shape}"
            )
        if np.any(masks.sum(axis=-1) == 0):
            raise ValueError("all-zero input mask: no information source for prediction")
        offsets = (masks - 1.0) * -_MASK_OFF  # 0 where kept, -1e30 where masked
        pooled = masked_max(feats, offsets)
        K, rows, F = pooled.shape
        return self._heads[j](pooled.reshape(K * rows, F)).reshape(K, rows, self.env.l)

    def forward(self, j: int, x: Tensor, mask: np.ndarray) -> Tensor:
        """(rows, l) logits under one (d_s+1,) or (rows, d_s+1) mask."""
        mask = np.reshape(mask, (1, -1, self.env.d_s + 1))
        return self.logits_from_features(j, self.features(j, x), mask)[0]


class RewardHead:
    """Binary reward logits from (hidden sample, episode target)."""

    def __init__(self, env: EnvConfig, params: ParamFactory, hidden_dim: int = 64):
        self.env = env
        self.net = MLP(params, "reward", env.d_h * env.l + env.l, [hidden_dim, hidden_dim], 2)

    def __call__(self, hidden_flat: Tensor, tau_hot: Tensor) -> Tensor:
        return self.net(concat([hidden_flat, tau_hot], axis=1))
