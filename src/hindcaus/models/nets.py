"""Network building blocks on top of the autodiff core.

`Linear` is one `affine` node. `MLP` stacks them with tanh between.
`StackedLinear` runs n independent maps, or a selection of them, on a
stack as one `bmm` node, bias included. `GRUCell` has no per-step call:
`scan` projects all S steps of an (S, B, d) input with one `affine` over the
S·B rows and runs the whole recurrence as one `gru_scan` node.

A frozen cell memoizes its states. When `scan` runs under `no_grad` and
none of `Wx`, `bx`, `Uzr`, `Un` requires grad (in a bundle, phi_bar's cell,
which only `sync_target` and `load_arrays` change), it keys each of the B
sequences by the bytes of its (S, d_in) input column and keeps its (S, H)
states. A call whose every sequence is memoized returns their states
without running `affine` or `gru_scan`. A call with any new sequence runs
the whole batch, as an unmemoized call does, and memoizes the new ones once
the scan has returned, so a call that raises leaves the memo as it was.
The missed sequences never run alone, since a one-row batch may round
differently; a memoized sequence equals that sequence as computed in the
batch where it first missed. The memo holds only while S, `reverse` and
the weights equal (`np.array_equal`) those it was filled under; a call
that finds any of them changed starts from an empty memo.

Traffic: the CMI estimate on a fixed checkpoint reruns phi_bar on the same
held-out episodes, so once an evaluation has run on them every estimate
hits. Training takes its gradient steps outside `no_grad`, where no memo
is used, and each graph update follows a `sync_target`, so it misses and
then holds that one batch (64 chain3 episodes, about 0.2 MB).
"""

from __future__ import annotations

import numpy as np

from ..numcore.tensor import ShapeError, Tensor, affine, bmm, constant, grad_enabled, gru_scan
from .store import ParamFactory

__all__ = ["Linear", "StackedLinear", "MLP", "GRUCell"]


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


class GRUCell:
    """Gated recurrent cell, h' = (1 - z) * n + z * h, run as a scan from h = 0."""

    def __init__(self, params: ParamFactory, name: str, d_in: int, d_hidden: int):
        self.d_hidden = d_hidden
        self.Wx = params.glorot(f"{name}.Wx", d_in, 3 * d_hidden)
        self.bx = params.zeros(f"{name}.bx", 3 * d_hidden)
        self.Uzr = params.glorot(f"{name}.Uzr", d_hidden, 2 * d_hidden)
        self.Un = params.glorot(f"{name}.Un", d_hidden, d_hidden)
        self._weights = (self.Wx, self.bx, self.Uzr, self.Un)
        # The memo of `scan` (see the module docstring): `reverse` and the
        # weight copies it was filled under, each sequence key's slot, and
        # the (S, slots, H) states.
        self._snapshot: tuple | None = None
        self._slots: dict[bytes, int] = {}
        self._memo = np.empty(0)

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
        valid = (
            self._snapshot is not None
            and self._snapshot[0] == bool(reverse)
            and self._memo.shape[0] == S
            and all(map(np.array_equal, self._snapshot[1:], (w.data for w in self._weights)))
        )
        slots, memo = (self._slots, self._memo) if valid else ({}, np.empty((S, 0, self.d_hidden)))
        cols = np.ascontiguousarray(np.swapaxes(xs.data, 0, 1)).reshape(B, S * d_in)
        keys = cols.view(np.dtype((np.void, cols.itemsize * S * d_in))).ravel().tolist()
        new: dict[bytes, int] = {}  # each new key's first column, in order of occurrence
        for b, key in enumerate(keys):
            if key not in slots:
                new.setdefault(key, b)
        if not new:
            return constant(memo.take([slots[key] for key in keys], axis=1))
        states = self._states(xs, reverse)
        self._memo = np.concatenate([memo, states.data[:, list(new.values())]], axis=1)
        slots.update(zip(new, range(len(slots), len(slots) + len(new))))
        self._slots = slots
        if not valid:
            self._snapshot = (bool(reverse), *(w.data.copy() for w in self._weights))
        return states

    def _states(self, xs: Tensor, reverse: bool) -> Tensor:
        S, B, d_in = xs.shape
        xw = affine(xs.reshape(S * B, d_in), self.Wx, self.bx)
        return gru_scan(xw.reshape(S, B, 3 * self.d_hidden), self.Uzr, self.Un, reverse)
