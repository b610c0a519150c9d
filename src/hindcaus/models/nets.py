"""Network building blocks on top of the autodiff core."""

from __future__ import annotations

from ..numcore.tensor import Tensor, matmul
from .store import ParamFactory

__all__ = ["Linear", "MLP", "GRUCell"]


class Linear:
    def __init__(self, params: ParamFactory, name: str, d_in: int, d_out: int):
        self.W = params.glorot(f"{name}.W", d_in, d_out)
        self.b = params.zeros(f"{name}.b", d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.W) + self.b


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
    """Gated recurrent cell: h' = (1 - z) * n + z * h."""

    def __init__(self, params: ParamFactory, name: str, d_in: int, d_hidden: int):
        self.d_hidden = d_hidden
        self.Wx = params.glorot(f"{name}.Wx", d_in, 3 * d_hidden)
        self.bx = params.zeros(f"{name}.bx", 3 * d_hidden)
        self.Uzr = params.glorot(f"{name}.Uzr", d_hidden, 2 * d_hidden)
        self.Un = params.glorot(f"{name}.Un", d_hidden, d_hidden)

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        H = self.d_hidden
        xw = matmul(x, self.Wx) + self.bx
        hzr = matmul(h, self.Uzr)
        z = (xw[:, :H] + hzr[:, :H]).sigmoid()
        r = (xw[:, H : 2 * H] + hzr[:, H:]).sigmoid()
        n = (xw[:, 2 * H :] + matmul(r * h, self.Un)).tanh()
        return (1.0 - z) * n + z * h
