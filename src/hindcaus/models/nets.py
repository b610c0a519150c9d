"""Network building blocks on top of the autodiff core.

`Linear` is one `affine` node. `MLP` stacks them with tanh between.
`StackedLinear` runs n independent maps on an (n, rows, d) stack with one
batched matmul. `GRUCell` has no per-step call: `scan` projects all S steps
of an (S, B, d) input with one `affine` over the S·B rows and runs the whole
recurrence as one `gru_scan` node.
"""

from __future__ import annotations

import numpy as np

from ..numcore.tensor import Tensor, affine, bmm, gru_scan
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
    by one batched matmul.

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

    def __call__(self, x: Tensor) -> Tensor:
        return bmm(x, self.W) + self.b


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

    def scan(self, xs: Tensor, reverse: bool = False) -> Tensor:
        """(S, B, H) states over an (S, B, d_in) input sequence; `reverse`
        runs it from the last step, so out[s] has seen steps s..S-1."""
        S, B, d_in = xs.shape
        xw = affine(xs.reshape(S * B, d_in), self.Wx, self.bx)
        return gru_scan(xw.reshape(S, B, 3 * self.d_hidden), self.Uzr, self.Un, reverse)
