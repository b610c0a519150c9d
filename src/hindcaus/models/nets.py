"""Network building blocks on top of the autodiff core.

`Linear` is one `affine` node. `MLP` stacks them with tanh between.
`StackedLinear` runs n independent maps, or a selection of them, on a
stack as one `bmm` node, bias included. `GRUCell` has no per-step call:
`scan` projects all S steps of an (S, B, d) input with one `affine` over the
S·B rows and runs the whole recurrence as one `gru_scan` node.

`RowMemo` memoizes answers per input row under a state; `GRUCell.scan` and
`MaskedTransition.log_probs` each hold one. A frozen cell (under `no_grad`,
none of `Wx`, `bx`, `Uzr`, `Un` requiring grad: in a bundle, phi_bar's
cell, which only `sync_target` and `load_arrays` change) keys each of the B
sequences by its (S·d_in) input column, under S, `reverse` and the four
weights. A call whose every sequence is memoized returns their (S, H)
states without running `affine` or `gru_scan`. A call with any new
sequence runs the whole batch, as an unmemoized call does, and memoizes the
new ones; the missed sequences never run alone, since a one-row batch may
round differently.

Traffic: the CMI estimate on a fixed checkpoint reruns phi_bar on the same
held-out episodes, so once an evaluation has run on them every estimate
hits. Training takes its gradient steps outside `no_grad`, where no memo
is used, and each graph update follows a `sync_target`, so it misses and
then holds that one batch (64 chain3 episodes, about 0.2 MB). On a stream
of episodes it has not seen, a miss costs its own batch, not a copy of the
memo, and the memo starts again once it would pass `RowMemo.CAP`
sequences (1024, about 3 MB of chain3 states).
"""

from __future__ import annotations

import numpy as np

from ..numcore.tensor import ShapeError, Tensor, affine, bmm, constant, grad_enabled, gru_scan
from .store import ParamFactory

__all__ = ["Linear", "StackedLinear", "MLP", "GRUCell", "RowMemo"]


class Linear:
    def __init__(self, params: ParamFactory, name: str, d_in: int, d_out: int):
        self.W = params.glorot(f"{name}.W", d_in, d_out)
        self.b = params.zeros(f"{name}.b", d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.W, self.b)


class StackedLinear:
    """n independent linear maps applied to an (n, rows, max(d_ins)) stack
    as one `bmm` node: a batched matmul plus the (n, 1, d_out) bias.

    Map i reads only the first d_ins[i] columns of its slice: its weight is
    the glorot draw `draw_names[i]` above zero rows, and those rows get zero
    gradient, so they stay zero under training.
    """

    def __init__(
        self, params: ParamFactory, name: str, draw_names: list[str], d_ins: list[int], d_out: int
    ):
        W = np.zeros((len(d_ins), max(d_ins), d_out))
        for i, (draw, d_in) in enumerate(zip(draw_names, d_ins)):
            W[i, :d_in] = params.glorot_draw(draw, d_in, d_out)
        self.W = params.add(f"{name}.W", W)
        self.b = params.zeros(f"{name}.b", (len(d_ins), 1, d_out))

    def __call__(self, x: Tensor, select=None) -> Tensor:
        """All n maps on an (n, rows, d) stack, or with `select` the maps
        it names on a (len(select), rows, d) stack."""
        return bmm(x, self.W, self.b, select)


class MLP:
    """Stack of tanh hidden layers followed by a linear output."""

    def __init__(self, params: ParamFactory, name: str, d_in: int, hidden: list[int], d_out: int):
        dims = [d_in, *hidden, d_out]
        self.layers = [
            Linear(params, f"{name}.l{k}", dims[k], dims[k + 1]) for k in range(len(dims) - 1)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x).tanh()
        return self.layers[-1](x)


class RowMemo:
    """Answers memoized per row of a 2-D key array, under one state.

    A row's key is its bytes. `missing` gives each row's key and the first
    row of every key not yet memoized; the caller computes those rows'
    answers, commits them with `add` and reads any memoized row's answer
    with `take`. The answers lie along `axis` of `values`, one C-contiguous
    array, in order of first occurrence; the slots after the last answer
    are spare capacity, zeros. `add` writes new answers into spare slots
    and, when there are too few, doubles the capacity, so a miss copies
    only its own answers, not the memo. The memo holds only while `state`,
    a tuple of arrays and scalars, equals (`np.array_equal`, entry by
    entry) the copy committed with it; a call that finds it changed starts
    from an empty memo, and so does a call whose new keys would take the
    memo past `CAP` keys, which bounds its memory on an endless stream of
    new rows. Only `add` writes, so a call that raises before it leaves the
    memo as it was. A memoized answer equals that row as computed in the
    batch where it first missed.
    """

    CAP = 1024  # keys; the 512 held-out episodes of identify-chain3-obs fit

    def __init__(self, axis: int):
        self.axis = axis
        self.state: tuple | None = None
        self.slots: dict[bytes, int] = {}  # each key's index along `axis`
        self.values = np.empty(0)
        self._stale = True  # whether the last `missing` found `state` changed or the memo full

    def missing(self, state: tuple, rows: np.ndarray) -> tuple[list[bytes], dict[bytes, int]]:
        """Each row's key, and each new key's first row in order of
        occurrence. Every key is new when the state changed or when the new
        keys would take the memo past `CAP`."""
        rows = np.ascontiguousarray(rows)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        self._stale = self.state is None or not all(map(np.array_equal, state, self.state))
        first = _first_rows(keys, {} if self._stale else self.slots)
        if not self._stale and len(self.slots) + len(first) > self.CAP:
            self._stale = True
            first = _first_rows(keys, {})
        return keys, first

    def add(self, state: tuple, keys, values: np.ndarray) -> None:
        """Commit `values`, the answers of the new `keys` in order, with the
        `state` of the last `missing` call. Even with no new key this sets
        the memo's shape after a state change, so a 0-row `take` fits it."""
        if self._stale:
            self.state = tuple(np.copy(entry) for entry in state)
            self.slots, self.values = {}, np.ascontiguousarray(values)
        elif keys:
            used, need = len(self.slots), len(self.slots) + len(keys)
            along = lambda arr: np.moveaxis(arr, self.axis, 0)  # noqa: E731
            if need > self.values.shape[self.axis]:
                shape = list(values.shape)
                shape[self.axis] = min(max(need, 2 * self.values.shape[self.axis]), self.CAP)
                grown = np.zeros(shape, dtype=self.values.dtype)
                along(grown)[:used] = along(self.values)[:used]
                self.values = grown
            along(self.values)[used:need] = along(values)
        self.slots.update(zip(keys, range(len(self.slots), len(self.slots) + len(keys))))
        self._stale = False

    def take(self, keys: list[bytes]) -> np.ndarray:
        return self.values.take([self.slots[key] for key in keys], axis=self.axis)


def _first_rows(keys: list[bytes], slots: dict[bytes, int]) -> dict[bytes, int]:
    """Each key not in `slots` and its first row, in order of occurrence."""
    first: dict[bytes, int] = {}
    for r, key in enumerate(keys):
        if key not in slots:
            first.setdefault(key, r)
    return first


class GRUCell:
    """Gated recurrent cell, h' = (1 - z) * n + z * h, run as a scan from h = 0."""

    def __init__(self, params: ParamFactory, name: str, d_in: int, d_hidden: int):
        self.d_hidden = d_hidden
        self.Wx = params.glorot(f"{name}.Wx", d_in, 3 * d_hidden)
        self.bx = params.zeros(f"{name}.bx", 3 * d_hidden)
        self.Uzr = params.glorot(f"{name}.Uzr", d_hidden, 2 * d_hidden)
        self.Un = params.glorot(f"{name}.Un", d_hidden, d_hidden)
        self._weights = (self.Wx, self.bx, self.Uzr, self.Un)
        self._memo = RowMemo(axis=1)  # the (S, sequences, H) states of `scan`

    def scan(self, xs: Tensor, reverse: bool = False) -> Tensor:
        """(S, B, H) states over an (S, B, d_in) input sequence; `reverse`
        runs it from the last step, so out[s] has seen steps s..S-1.
        Memoized when frozen, as the module docstring says."""
        d_in = self.Wx.shape[0]
        if xs.data.ndim != 3 or xs.shape[2] != d_in:
            raise ShapeError(f"GRUCell.scan: input {xs.shape} is not (S, B, {d_in})")
        if grad_enabled() or any(w.requires_grad for w in self._weights):
            return self._states(xs, reverse)
        S, B, _ = xs.shape
        state = (S, bool(reverse), *(w.data for w in self._weights))
        keys, first = self._memo.missing(state, np.swapaxes(xs.data, 0, 1).reshape(B, S * d_in))
        if not first:
            self._memo.add(state, first, np.empty((S, 0, self.d_hidden)))
            return constant(self._memo.take(keys))
        states = self._states(xs, reverse)
        self._memo.add(state, first, states.data[:, list(first.values())])
        return states

    def _states(self, xs: Tensor, reverse: bool) -> Tensor:
        S, B, d_in = xs.shape
        xw = affine(xs.reshape(S * B, d_in), self.Wx, self.bx)
        return gru_scan(xw.reshape(S, B, 3 * self.d_hidden), self.Uzr, self.Un, reverse)
