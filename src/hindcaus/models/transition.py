"""Factor-wise masked transition model and the reward head.

Each next-step factor j has its own feature extractor per input (one per
current factor plus one for the action node); the features are pooled by an
elementwise max over the unmasked inputs. Masking an input removes it from
the pool entirely, so one set of weights serves the full, leave-one-out and
causal-parents conditioning variants, and the extractor features are shared
by every mask of a call.

Target j's d_s+1 extractors are stacked: `target{j}.embed.W` is
(d_s+1, width, embed) and `target{j}.proj.W` is (d_s+1, embed, feat), with
width = max(l, d_s), and an extractor is embed, tanh, proj, tanh. Input i
reads a width-wide vector: factor i's one-hot (or hidden sample) or the
action vector, zero-padded on the right. An input narrower than width has
zero weight rows under its padding columns, and those rows stay zero.

An input takes one of two paths to the same features:

- Integer values (observed factors, the action, and hidden factors given
  as values, as in the CMI estimate) are one-hots over at most width + 1
  values: a unit vector, or the action's zero vector for a no-op.
  `input_indices` turns them into one (d_s+1, rows) index array.
  `features` runs the extractors once on the constant (d_s+1, width+1,
  width) basis of those vectors, giving a (d_s+1, width+1, feat) table,
  and gathers each row's features from it. A one-hot times a matrix is
  exactly one of its rows, so these are the dense path's values bit for
  bit.
- Hidden samples from the encoder, one-hot or relaxed, run the
  extractors densely: `hidden_stack` gives their (d_h, rows, width)
  stack and `features` maps it with the d_h hidden extractors only; the
  index rows of the hidden inputs are then not read.

One `lookup` node places both in input order as the (d_s+1, rows, feat)
feature stack.

Masks are keep-masks (1 keeps an input, 0 drops it) over the d_s factors
followed by the action node. `logits_from_features` takes a stack of K of
them, shape (K, 1 or rows, d_s+1): a middle axis of 1 applies one mask to
every row, a middle axis of rows gives each row its own mask. It hands the
stack to one `masked_max`, which pools each block over the inputs its mask
keeps: an input kept on every row is read as it is, one dropped on every row
is not read, and only an input kept on some rows is offset on the others. A
mask that keeps no input is refused there. The head runs once on the
(K, rows, feat) block and gives (K, rows, l) logits, block k conditioned on
mask k. Training passes K = 3 (full, leave-one-out and causal masks), or
K = 2 for a target whose causal mask would copy the full one; the CMI
estimate passes its d_s+2 `cmi_masks`. When taped, the pool keeps each
output's winning input, so its backward routes the gradient in one pass;
under `no_grad` (the CMI estimate) it keeps none.

`log_probs` answers the CMI estimate's question for every target at once
on integer rows, untaped. It memoizes each row's answer, keyed by the
row's `input_indices` bytes, and its miss batch holds only the first
occurrence of each row not yet memoized. The memo starts empty again at
the first call that finds the weights or the mask stack changed; see its
docstring.
"""

from __future__ import annotations

import numpy as np

from ..env.config import EnvConfig
from ..env.modulo import action_allowed
from ..numcore.tensor import Tensor, concat, constant, lookup, masked_max, no_grad, transpose
from .nets import MLP, StackedLinear
from .store import ParamFactory

__all__ = ["MaskedTransition", "RewardHead", "hidden_stack", "input_indices"]


def _width(env: EnvConfig) -> int:
    return max(env.l, env.d_s)


def input_indices(env: EnvConfig, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(d_s+1, n) intp lookup indices from (n, d_s) integer factors `s` and
    (n, d_s) actions `a`: row i < d_s holds factor i's values, row d_s the
    position of the action's single 1, or width = max(l, d_s) for a no-op.

    Every action row must be a no-op or one intervention on an observed
    factor (a row of `action_options`); any other row raises `ValueError`.
    `features` reads the hidden columns of `s` only when it is given no
    dense stack of hidden samples.
    """
    s = np.asarray(s)
    a = np.asarray(a)
    n = s.shape[0] if s.ndim == 2 else -1
    if s.shape != (n, env.d_s) or a.shape != (n, env.d_s):
        raise ValueError(
            f"s and a must both have shape (n, {env.d_s}), got {s.shape} and {a.shape}"
        )
    width = _width(env)
    idx = np.empty((env.d_s + 1, n), dtype=np.intp)
    if not n:
        return idx
    if s.min() < 0 or s.max() >= env.l:
        raise ValueError(f"factor values must be in [0, {env.l}), got [{s.min()}, {s.max()}]")
    idx[: env.d_s] = s.T
    allowed = action_allowed(env, a)
    if not allowed.all():
        r = int(np.argmin(allowed))
        raise ValueError(
            f"action row {r} is {a[r].tolist()}: expected a no-op or a single "
            f"intervention on an observed factor {env.observed_indices}"
        )
    idx[env.d_s] = np.where(a.any(axis=1), a.argmax(axis=1), width)
    return idx


def hidden_stack(env: EnvConfig, hidden: Tensor) -> Tensor:
    """(d_h, rows, width) stack of the hidden inputs from (rows, d_h, l)
    samples or one-hots, zero-padded on the right to width = max(l, d_s)."""
    x = transpose(hidden, (1, 0, 2))
    pad = _width(env) - env.l
    if pad:
        x = concat([x, constant(np.zeros((env.d_h, hidden.shape[0], pad)))], axis=2)
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
        self.in_width = _width(env)
        # Row v of slice i is the width-wide vector of value v: the unit
        # vectors, then the zero vector (the action's no-op).
        basis = np.eye(self.in_width + 1, self.in_width)
        self._basis = constant(np.repeat(basis[None], env.d_s + 1, axis=0))
        self._hidden = np.asarray(env.hidden_indices, dtype=np.intp)
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
        layers = [*self._embed, *self._proj, *(layer for h in self._heads for layer in h.layers)]
        self._params = [t for layer in layers for t in (layer.W, layer.b)]
        # The memo of `log_probs`: its mask stack, the flat weights it was
        # filled under, each row key's slot, and the (d_s, K, slots, l) answers.
        self._memo_masks: np.ndarray | None = None
        self._snapshot = np.empty(0)
        self._slots: dict[bytes, int] = {}
        self._memo = np.empty(0)

    def features(self, j: int, idx: np.ndarray, hidden: Tensor | None = None) -> Tensor:
        """(d_s+1, rows, feat) per-input features of target j from the
        (d_s+1, rows) `input_indices` of the inputs and the (d_h, rows,
        width) `hidden_stack` of hidden samples. Without `hidden`, the
        hidden inputs are integer values, read from the table like the
        others."""
        idx = np.asarray(idx)
        expected = (len(self._hidden), idx.shape[-1], self.in_width)
        if (
            idx.ndim != 2
            or idx.shape[0] != self.env.d_s + 1
            or (hidden is not None and hidden.shape != expected)
        ):
            raise ValueError(
                f"indices must have shape ({self.env.d_s + 1}, rows) and the hidden stack "
                f"shape {expected}, got {idx.shape} and {None if hidden is None else hidden.shape}"
            )
        embed, proj = self._embed[j], self._proj[j]
        table = proj(embed(self._basis).tanh()).tanh()
        if hidden is None:
            return lookup(table, idx)
        dense = proj(embed(hidden, self._hidden).tanh(), self._hidden).tanh()
        return lookup(table, idx, dense, self._hidden)

    def logits_from_features(self, j: int, feats: Tensor, masks: np.ndarray) -> Tensor:
        """(K, rows, l) logits of target j under a (K, 1 or rows, d_s+1) mask stack."""
        masks = np.asarray(masks)
        if masks.ndim != 3 or masks.shape[-1] != self.env.d_s + 1:
            raise ValueError(
                f"masks must have shape (K, 1 or rows, {self.env.d_s + 1}), got {masks.shape}"
            )
        pooled = masked_max(feats, masks)
        # Untaped, a caller that passes the stack straight in frees it here,
        # before the head allocates its blocks; taped, the pool node keeps it.
        del feats
        K, rows, F = pooled.shape
        return self._heads[j](pooled.reshape(K * rows, F)).reshape(K, rows, self.env.l)

    def forward(self, j: int, idx: np.ndarray, hidden: Tensor, mask: np.ndarray) -> Tensor:
        """(rows, l) logits under one (d_s+1,) or (rows, d_s+1) mask."""
        mask = np.reshape(mask, (1, -1, self.env.d_s + 1))
        return self.logits_from_features(j, self.features(j, idx, hidden), mask)[0]

    def log_probs(self, s: np.ndarray, a: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(d_s, K, n, l) log-probabilities of every target's next value for
        n rows of integer factors `s` and actions `a`, block [j, k]
        conditioned on keep-mask k of the (K, d_s+1) stack `masks`. Runs
        untaped.

        The answers are memoized per row, keyed by the bytes of the row's
        `input_indices`; this is the CMI estimate's only row dedup. Features,
        pool and head run once, as one batch, on the first occurrence of each
        row not yet memoized, and the memo takes the new rows only once that
        batch is computed, so a call that raises leaves it as it was.
        `input_indices` checks every row, memoized or not. The memo holds
        only while the mask stack and this transition's weights are equal
        (`np.array_equal`) to the copies it keeps of those it was filled
        under; a call that finds either changed starts from an empty memo.
        A memoized row equals that row as computed in the batch where it
        first missed.
        """
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[1] != self.env.d_s + 1:
            raise ValueError(f"masks must have shape (K, {self.env.d_s + 1}), got {masks.shape}")
        idx = input_indices(self.env, s, a)
        weights = np.concatenate([t.data.ravel() for t in self._params])
        if (
            self._memo_masks is not None
            and np.array_equal(masks, self._memo_masks)
            and np.array_equal(weights, self._snapshot)
        ):
            slots, memo = self._slots, self._memo
        else:
            slots, memo = {}, np.empty((self.env.d_s, len(masks), 0, self.env.l))
        row = np.dtype((np.void, idx.itemsize * idx.shape[0]))
        keys = np.ascontiguousarray(idx.T).view(row).ravel().tolist()
        first: dict[bytes, int] = {}  # each new key's first row, in order of occurrence
        for r, key in enumerate(keys):
            if key not in slots:
                first.setdefault(key, r)
        if first:
            idx = idx[:, list(first.values())]
            fresh = np.empty((self.env.d_s, len(masks), len(first), self.env.l))
            with no_grad():
                for j in range(self.env.d_s):
                    logits = self.logits_from_features(j, self.features(j, idx), masks[:, None])
                    fresh[j] = logits.log_softmax().data
            slots.update(zip(first, range(len(slots), len(slots) + len(first))))
            memo = np.concatenate([memo, fresh], axis=2)
        self._memo_masks, self._snapshot = masks.copy(), weights
        self._slots, self._memo = slots, memo
        return memo.take([slots[key] for key in keys], axis=2)


class RewardHead:
    """Binary reward logits from (hidden sample, episode target)."""

    def __init__(self, env: EnvConfig, params: ParamFactory, hidden_dim: int = 64):
        self.env = env
        self.net = MLP(params, "reward", env.d_h * env.l + env.l, [hidden_dim, hidden_dim], 2)

    def __call__(self, hidden_flat: Tensor, tau_hot: Tensor) -> Tensor:
        return self.net(concat([hidden_flat, tau_hot], axis=1))
