"""Network building blocks on top of the autodiff core.

Every dense layer but a GRU's input projection runs through `numcore.mlp`.
`Linear` is one one-layer `mlp` node, and `MLP` one `mlp` node over all its
layers, tanh between them. `stacked_linear` makes the weights of n
independent maps for a stacked `mlp` call, which runs them, or a selection
of them, on a stack.
`GRUCell` has no per-step call: `scan` runs a whole (S, B, d) input
sequence as one `gru_scan` node, the input projection of all S·B rows and
the recurrence together, so a taped scan records one node and keeps no
projection for its backward.
"""

from __future__ import annotations

import numpy as np

from ..numcore.tensor import ShapeError, Tensor, constant, grad_enabled, gru_scan, mlp
from .store import ParamFactory

__all__ = ["Linear", "MLP", "GRUCell", "stacked_linear"]


class Linear:
    def __init__(self, params: ParamFactory, name: str, d_in: int, d_out: int):
        self.W = params.glorot(f"{name}.W", d_in, d_out)
        self.b = params.zeros(f"{name}.b", d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, (self.W, self.b))


def stacked_linear(
    params: ParamFactory, name: str, draw_names: list[str], d_ins: list[int], d_out: int
) -> tuple[Tensor, Tensor]:
    """The weights of n independent linear maps for a stacked `mlp` call:
    an (n, max(d_ins), d_out) weight `{name}.W` and an (n, 1, d_out) bias
    `{name}.b`.

    Map i reads only the first d_ins[i] columns of its slice: its weight is
    the glorot draw `draw_names[i]` above zero rows, and those rows get zero
    gradient, so they stay zero under training.
    """
    W = np.zeros((len(d_ins), max(d_ins), d_out))
    for i, (draw, d_in) in enumerate(zip(draw_names, d_ins)):
        W[i, :d_in] = params.glorot_draw(draw, d_in, d_out)
    return params.add(f"{name}.W", W), params.zeros(f"{name}.b", (len(d_ins), 1, d_out))


class MLP:
    """Stack of tanh hidden layers followed by a linear output, run as one
    `mlp` node; `weights` is (W0, b0, W1, ...) in layer order."""

    def __init__(self, params: ParamFactory, name: str, d_in: int, hidden: list[int], d_out: int):
        dims = [d_in, *hidden, d_out]
        self.layers = [
            Linear(params, f"{name}.l{k}", dims[k], dims[k + 1]) for k in range(len(dims) - 1)
        ]
        self.weights = tuple(t for layer in self.layers for t in (layer.W, layer.b))

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, self.weights)


class GRUCell:
    """Gated recurrent cell, h' = (1 - z) * n + z * h, run as a scan from h = 0."""

    MEMO_SEQUENCES = 512  # identify's 512 held-out episodes, or eight of its batches

    def __init__(self, params: ParamFactory, name: str, d_in: int, d_hidden: int):
        self.d_hidden = d_hidden
        self.Wx = params.glorot(f"{name}.Wx", d_in, 3 * d_hidden)
        self.bx = params.zeros(f"{name}.bx", 3 * d_hidden)
        self.Uzr = params.glorot(f"{name}.Uzr", d_hidden, 2 * d_hidden)
        self.Un = params.glorot(f"{name}.Un", d_hidden, d_hidden)
        self._weights = (self.Wx, self.bx, self.Uzr, self.Un)
        self._memo: list[tuple[tuple, np.ndarray]] = []  # (call key, states), oldest first
        self._memo_weights: list[bytes] | None = None

    def scan(self, xs: Tensor, reverse: bool = False) -> Tensor:
        """(S, B, H) states over an (S, B, d_in) input sequence; `reverse`
        runs it from the last step, so out[s] has seen steps s..S-1.

        A frozen cell (under `no_grad`, none of `Wx`, `bx`, `Uzr`, `Un`
        requiring grad: in a bundle, phi_bar's cell, which only
        `sync_target` and `load_arrays` change) memoizes whole calls. A
        call's key is `reverse` and the input's shape and bytes; the memo
        holds while the four weights keep their bytes. A hit returns the
        very array the first such call computed, read-only, so a result
        never depends on which other call ran first. The memo holds at most
        `MEMO_SEQUENCES` sequences (B per call) and drops the oldest calls
        first; a call that raises leaves it as it was. A call of
        `MEMO_SEQUENCES` or more sequences is answered but neither looked
        up nor stored: storing it would drop every other entry.

        Traffic: the CMI estimate on a fixed checkpoint (identify) reruns
        phi_bar on the same held-out batches, so every pass after the first
        hits; its 512-episode warm-up evaluation is not stored, so it
        neither holds its states through the rest of the evaluation nor
        drops the batches'. Training never hits: its gradient steps run
        outside `no_grad`, and each graph update follows a `sync_target`;
        its 256-episode evaluation is stored and held until the next
        `sync_target`. On a stream of unseen episodes every call misses
        and costs one byte copy of its input and its weights.
        """
        d_in = self.Wx.shape[0]
        if xs.data.ndim != 3 or xs.shape[2] != d_in:
            raise ShapeError(f"GRUCell.scan: input {xs.shape} is not (S, B, {d_in})")
        if (
            grad_enabled()
            or any(w.requires_grad for w in self._weights)
            or xs.shape[1] >= self.MEMO_SEQUENCES
        ):
            return self._states(xs, reverse)
        weights = [w.data.tobytes() for w in self._weights]
        memo = self._memo if weights == self._memo_weights else []
        key = (bool(reverse), xs.shape, xs.data.tobytes())
        states = next((states for k, states in memo if k == key), None)
        if states is None:
            states = self._states(xs, reverse).data
            states.flags.writeable = False
            memo = [*memo, (key, states)]
            while sum(held.shape[1] for _, held in memo) > self.MEMO_SEQUENCES:
                memo.pop(0)
            self._memo, self._memo_weights = memo, weights
        return constant(states)

    def _states(self, xs: Tensor, reverse: bool) -> Tensor:
        return gru_scan(xs, *self._weights, reverse)
