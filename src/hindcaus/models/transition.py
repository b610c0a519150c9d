"""Factor-wise masked transition model and the reward head.

Each next-step factor j has its own feature extractor per input (one per
current factor plus one for the action node); the features are pooled by an
elementwise max over the unmasked inputs. Masking an input removes it from
the pool entirely, so one set of weights serves the full, leave-one-out and
causal-parents conditioning variants, and the extractor features are shared
by every mask of a call.

Target j's d_s+1 extractors are stacked: `target{j}.embed.W` is
(d_s+1, width, embed) and `target{j}.proj.W` is (d_s+1, embed, feat), with
width = max(l, d_s), and an extractor is embed, tanh, proj, tanh: one
stacked two-layer `mlp` node, which runs all the extractors (or, with
`select`, the hidden inputs' ones), then one `tanh` node. Input i reads a
width-wide vector: factor i's one-hot (or hidden sample) or the action
vector, zero-padded on the right. An input narrower than width has zero
weight rows under its padding columns, and those rows stay zero.

An input takes one of two paths to the same features:

- Integer values (observed factors, the action, and hidden factors given
  as values, as in the CMI estimate) are one-hots over at most width + 1
  values: a unit vector, or the action's zero vector for a no-op.
  `input_indices` turns them into one (d_s+1, rows) index array.
  `features` runs the extractors once on the constant (d_s+1, width+1,
  width) basis of those vectors, giving a (d_s+1, width+1, feat) table;
  row v of slice i is input i's features at value v. A one-hot times a
  matrix is exactly one of its rows, so these are the dense path's values
  bit for bit.
- Hidden samples from the encoder, one-hot or relaxed, run the
  extractors densely: `hidden_stack` gives their (d_h, rows, width)
  stack and `features` maps it with the d_h hidden extractors only, into
  (d_h, rows, feat) dense slices; the index rows of the hidden inputs are
  then not read.

`features` returns the table, the index array and the dense slices with
the inputs they fill (`Features`); no per-row stack of every input's
features is formed.

Masks are keep-masks (1 keeps an input, 0 drops it) over the d_s factors
followed by the action node. `logits_from_features` takes a stack of K of
them, shape (K, 1 or rows, d_s+1): a middle axis of 1 applies one mask to
every row, a middle axis of rows gives each row its own mask. It hands the
features and the masks to one `masked_max`, which gathers each input's rows
from the table once and pools each block over the inputs its mask keeps: an
input kept on every row is read as it is, one dropped on every row is not
read, and only an input kept on some rows is offset on the others. A mask
that keeps no input is refused there. The head runs once on the (K, rows,
feat) block and gives (K, rows, l) logits, block k conditioned on mask k.
Training passes K = 3 (full, leave-one-out and causal masks), or K = 2 for
a target whose causal mask would copy the full one; the CMI estimate passes
its d_s+2 `cmi_masks`. When taped, the pool keeps each output's source row
in the table or the dense slices, so its backward routes the gradient there
in one pass; under `no_grad` (the CMI estimate) it keeps none.

`log_probs` answers the CMI estimate's question for every target at once
on integer rows, untaped, through a `RowMemo`, the CMI path's only row
dedup. A row's key is one int64 code, its `input_indices` column read as a
number in base width+1 (`np.ravel_multi_index`), so the
(width+1)^(d_s+1) possible rows must fit in int64: `MaskedTransition`
refuses a config, naming d_s and l, where they do not (every d_s >= 15,
whatever l; chain3 has 5^4 codes, full5 6^6). The memo holds under one
state: the mask stack and every weight array, compared entry by entry by
their bytes (the masks are float64 and the weights keep their shapes, so
equal bytes are equal arrays). Its answers lie along axis 2 of one
C-contiguous (d_s, K, rows, l) array, `codes` holds the code of each of
those rows in the same order, and `order` is the stable argsort of
`codes`. A call finds its rows with one `searchsorted` through `order` and
one equality test; when every row is memoized, no Python runs per row.
Otherwise `np.unique` finds the first occurrence of each code not yet
memoized, features, pool and head run once, as one batch, on those rows in
order of occurrence, and their answers and codes are appended; a memoized
answer equals that row as computed in the batch where it first missed. The
memo starts again when the state changed or when a call's new rows would
take it past `RowMemo.CAP` rows; on a fixed checkpoint it holds at most
l^d_s × (d_o+1) rows, 192 for chain3. A call that raises leaves the memo as
it was, and `input_indices` checks every row, memoized or not. In training
each graph update follows a weight change, so there every distinct row
runs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..env.config import EnvConfig
from ..env.modulo import check_rows
from ..numcore.tensor import Tensor, concat, constant, masked_max, mlp, no_grad, transpose
from .nets import MLP, stacked_linear
from .store import ParamFactory

__all__ = ["MaskedTransition", "RewardHead", "hidden_stack", "input_indices"]


class Features(NamedTuple):
    """Target j's per-input features as `masked_max` reads them: the
    (d_s+1, width+1, feat) table, the (d_s+1, rows) `input_indices`, and
    the (d_h, rows, feat) features of the hidden samples with the inputs
    they fill, or no dense slices."""

    table: Tensor
    index: np.ndarray
    dense: Tensor | None = None
    dense_pos: np.ndarray | tuple = ()


def _width(env: EnvConfig) -> int:
    return max(env.l, env.d_s)


def input_indices(env: EnvConfig, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(d_s+1, n) intp table indices from (n, d_s) integer factors `s` and
    (n, d_s) actions `a`: row i < d_s holds factor i's values, row d_s the
    position of the action's single 1, or width = max(l, d_s) for a no-op.

    `check_rows` refuses any row a dataset cannot hold. `features` reads the
    hidden columns of `s` only when it is given no dense stack of hidden
    samples.
    """
    s, a = check_rows(env, s, a)
    idx = np.empty((env.d_s + 1, len(s)), dtype=np.intp)
    idx[: env.d_s] = s.T
    # A checked row has at most one 1, so a @ (1, ..., d_s) is 0 for a no-op
    # and the 1's position plus one otherwise.
    lookup = np.arange(-1, env.d_s)
    lookup[0] = _width(env)
    idx[env.d_s] = lookup[a.astype(np.intp, copy=False) @ np.arange(1, env.d_s + 1)]
    return idx


def hidden_stack(env: EnvConfig, hidden: Tensor) -> Tensor:
    """(d_h, rows, width) stack of the hidden inputs from (rows, d_h, l)
    samples or one-hots, zero-padded on the right to width = max(l, d_s)."""
    x = transpose(hidden, (1, 0, 2))
    pad = _width(env) - env.l
    if pad:
        x = concat([x, constant(np.zeros((env.d_h, hidden.shape[0], pad)))], axis=2)
    return x


class RowMemo:
    """The answers of `MaskedTransition.log_probs` per row, under one state
    (see the module docstring). `codes[i]` is the code of the row whose
    answers lie at index i along axis 2 of `values`, and `order` is the
    stable argsort of `codes`."""

    CAP = 1024  # rows

    def __init__(self):
        self.state: list[bytes] | None = None
        self.codes = np.empty(0, dtype=np.int64)
        self.order = np.empty(0, dtype=np.intp)
        self.values = np.empty((0, 0, 0, 0))

    def __call__(self, state: tuple, codes: np.ndarray, compute) -> np.ndarray:
        """The answers of the rows with the 1-D int64 `codes` under the
        arrays `state`. `compute(first)` answers the rows numbered `first`,
        as a (d_s, K, len(first), l) array; it is asked for the first row of
        every code not memoized, in order of occurrence."""
        state = [entry.tobytes() for entry in state]
        known = len(self.codes) if state == self.state else 0
        if known:
            at = self.order.take(self.codes.searchsorted(codes, sorter=self.order), mode="clip")
            hit = self.codes.take(at) == codes
            if hit.all():
                return self.values.take(at, axis=2)
            miss = np.flatnonzero(~hit)
        else:
            miss = np.arange(len(codes))
        _, first = np.unique(codes[miss], return_index=True)
        if known + len(first) > self.CAP:
            known, miss = 0, np.arange(len(codes))
            _, first = np.unique(codes, return_index=True)
        # Every sort here is the stable one np.unique runs: each other numpy
        # sort kernel maps about 0.25 MB more of numpy's code into the process.
        first = miss[np.sort(first, kind="stable")]
        fresh = compute(first)  # nothing is written before this
        values = np.concatenate([self.values, fresh], axis=2) if known else fresh
        merged = np.concatenate([self.codes[:known], codes[first]])
        order = merged.argsort(kind="stable")
        self.state, self.codes, self.order, self.values = state, merged, order, values
        return values.take(order.take(merged.searchsorted(codes, sorter=order)), axis=2)


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
        self.in_width = _width(env)
        # A row's memo code is its input_indices column read as a number in
        # base width+1.
        self._code_dims = (self.in_width + 1,) * (env.d_s + 1)
        rows = (self.in_width + 1) ** (env.d_s + 1)
        if rows > np.iinfo(np.int64).max:
            raise ValueError(
                f"d_s = {env.d_s} and l = {env.l} give (max(l, d_s)+1)^(d_s+1) = {rows} "
                "input rows, more than an int64 row code can number"
            )
        self.env = env
        self.feat_dim = feat_dim
        in_dims = [env.l] * env.d_s + [env.d_s]
        # Row v of slice i is the width-wide vector of value v: the unit
        # vectors, then the zero vector (the action's no-op).
        basis = np.eye(self.in_width + 1, self.in_width)
        self._basis = constant(np.repeat(basis[None], env.d_s + 1, axis=0))
        self._hidden = np.asarray(env.hidden_indices, dtype=np.intp)
        hidden = set(env.hidden_indices)
        self._extractors: list[tuple[Tensor, ...]] = []  # (embed W, b, proj W, b) per target
        self._heads: list[MLP] = []
        for j in range(env.d_s):
            params = params_h if j in hidden else params_o

            def stacked(kind: str, d_ins: list[int], d_out: int) -> tuple[Tensor, Tensor]:
                # Slice i keeps the init draw of the per-input layer it replaces.
                draws = [f"target{j}.in{i}.{kind}.W" for i in range(len(d_ins))]
                return stacked_linear(params, f"target{j}.{kind}", draws, d_ins, d_out)

            embed = stacked("embed", in_dims, embed_dim)
            proj = stacked("proj", [embed_dim] * len(in_dims), feat_dim)
            self._extractors.append((*embed, *proj))
            self._heads.append(MLP(params, f"target{j}.head", feat_dim, [feat_dim], env.l))
        nets = (*self._extractors, *(head.weights for head in self._heads))
        self._params = [t for weights in nets for t in weights]
        self._memo = RowMemo()

    def features(self, j: int, idx: np.ndarray, hidden: Tensor | None = None) -> Features:
        """Per-input features of target j from the (d_s+1, rows)
        `input_indices` of the inputs and the (d_h, rows, width)
        `hidden_stack` of hidden samples. Without `hidden`, the hidden
        inputs are integer values, read from the table like the others."""
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
        table = mlp(self._basis, self._extractors[j]).tanh()
        if hidden is None:
            return Features(table, idx)
        dense = mlp(hidden, self._extractors[j], self._hidden).tanh()
        return Features(table, idx, dense, self._hidden)

    def logits_from_features(self, j: int, feats: Features, masks: np.ndarray) -> Tensor:
        """(K, rows, l) logits of target j under a (K, 1 or rows, d_s+1) mask stack."""
        masks = np.asarray(masks)
        if masks.ndim != 3 or masks.shape[-1] != self.env.d_s + 1:
            raise ValueError(
                f"masks must have shape (K, 1 or rows, {self.env.d_s + 1}), got {masks.shape}"
            )
        pooled = masked_max(feats.table, feats.index, masks, feats.dense, feats.dense_pos)
        return self._heads[j](pooled)

    def log_probs(self, s: np.ndarray, a: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(d_s, K, n, l) log-probabilities of every target's next value for
        n rows of integer factors `s` and actions `a`, block [j, k]
        conditioned on keep-mask k of the (K, d_s+1) stack `masks`. Runs
        untaped, memoized per row (see the module docstring)."""
        masks = np.asarray(masks, dtype=np.float64)
        if masks.ndim != 2 or masks.shape[1] != self.env.d_s + 1:
            raise ValueError(f"masks must have shape (K, {self.env.d_s + 1}), got {masks.shape}")
        idx = input_indices(self.env, s, a)

        def compute(first: np.ndarray) -> np.ndarray:
            fresh = np.empty((self.env.d_s, len(masks), len(first), self.env.l))
            if len(first):
                rows, keep = idx[:, first], masks[:, None]
                with no_grad():
                    for j in range(self.env.d_s):
                        logits = self.logits_from_features(j, self.features(j, rows), keep)
                        fresh[j] = logits.log_softmax().data
            return fresh

        codes = np.ravel_multi_index(idx, self._code_dims)
        return self._memo((masks, *(t.data for t in self._params)), codes, compute)


class RewardHead:
    """Binary reward logits from (hidden sample, episode target)."""

    def __init__(self, env: EnvConfig, params: ParamFactory, hidden_dim: int = 64):
        self.env = env
        self.net = MLP(params, "reward", env.d_h * env.l + env.l, [hidden_dim, hidden_dim], 2)

    def __call__(self, hidden_flat: Tensor, tau_hot: Tensor) -> Tensor:
        return self.net(concat([hidden_flat, tau_hot], axis=1))
