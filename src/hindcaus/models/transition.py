"""Factor-wise masked transition model and the reward head.

Each next-step factor j has its own per-input feature extractors (one per
current factor plus one for the action node) whose outputs are pooled by an
elementwise max over the unmasked inputs. Masking an input removes it from
the pool entirely, so one set of weights serves the full, leave-one-out and
causal-parents conditioning variants, and the extractor features are shared
by every mask of a call.

Masks are keep-masks (1 keeps an input, 0 drops it) over the d_s factors
followed by the action node. `logits_from_features` takes a stack of K of
them, shape (K, 1 or rows, d_s+1): a middle axis of 1 applies one mask to
every row, a middle axis of rows gives each row its own mask. It returns
(K, rows, l) logits, block k conditioned on mask k.
"""

from __future__ import annotations

import numpy as np

from ..env.config import EnvConfig
from ..numcore.tensor import Tensor, concat, constant, stack
from .nets import MLP, Linear
from .store import ParamFactory

__all__ = ["MaskedTransition", "RewardHead"]

_MASK_OFF = -1e30


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
        hidden = set(env.hidden_indices)
        self._extractors: list[list[tuple[Linear, Linear]]] = []
        self._heads: list[MLP] = []
        for j in range(env.d_s):
            params = params_h if j in hidden else params_o
            row = []
            for i, d_in in enumerate(in_dims):
                emb = Linear(params, f"target{j}.in{i}.embed", d_in, embed_dim)
                proj = Linear(params, f"target{j}.in{i}.proj", embed_dim, feat_dim)
                row.append((emb, proj))
            self._extractors.append(row)
            self._heads.append(MLP(params, f"target{j}.head", feat_dim, [feat_dim], env.l))

    def features(self, j: int, inputs: list[Tensor]) -> Tensor:
        """(rows, d_s+1, feat) per-input features for target j."""
        if len(inputs) != self.env.d_s + 1:
            raise ValueError(
                f"expected {self.env.d_s + 1} inputs (factors + action), got {len(inputs)}"
            )
        feats = []
        for (emb, proj), x in zip(self._extractors[j], inputs):
            feats.append(proj(emb(x).tanh()).tanh())
        return stack(feats, axis=1)

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
        # One pool and head call per mask: a single broadcast pool over the
        # whole stack would hold K copies of the features at once.
        head = self._heads[j]
        return stack([head((feats + constant(off[:, :, None])).max(axis=1)) for off in offsets])

    def forward(self, j: int, inputs: list[Tensor], mask: np.ndarray) -> Tensor:
        """(rows, l) logits under one (d_s+1,) or (rows, d_s+1) mask."""
        mask = np.reshape(mask, (1, -1, self.env.d_s + 1))
        return self.logits_from_features(j, self.features(j, inputs), mask)[0]


class RewardHead:
    """Binary reward logits from (hidden sample, episode target)."""

    def __init__(self, env: EnvConfig, params: ParamFactory, hidden_dim: int = 64):
        self.env = env
        self.net = MLP(params, "reward", env.d_h * env.l + env.l, [hidden_dim, hidden_dim], 2)

    def __call__(self, hidden_flat: Tensor, tau_hot: Tensor) -> Tensor:
        return self.net(concat([hidden_flat, tau_hot], axis=1))
