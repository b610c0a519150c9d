"""Tape-based reverse-mode autodiff over dense float64 arrays."""

from .dists import (
    categorical_kl,
    cross_entropy,
    gumbel_noise,
    gumbel_softmax_sample,
    one_hot,
)
from .gradcheck import check_gradients, finite_difference_grad, max_relative_error
from .optim import Adam
from .random import stream, stream_key
from .tensor import (
    NonFiniteError,
    no_grad,
    ShapeError,
    Tensor,
    affine,
    backward,
    bmm,
    concat,
    constant,
    gru_scan,
    log_softmax,
    masked_max,
    matmul,
    parameter,
    set_debug_checks,
    softmax,
    stack,
)

__all__ = [
    "Adam",
    "NonFiniteError",
    "ShapeError",
    "Tensor",
    "affine",
    "backward",
    "bmm",
    "categorical_kl",
    "check_gradients",
    "concat",
    "constant",
    "cross_entropy",
    "finite_difference_grad",
    "gru_scan",
    "gumbel_noise",
    "gumbel_softmax_sample",
    "log_softmax",
    "masked_max",
    "matmul",
    "max_relative_error",
    "no_grad",
    "one_hot",
    "parameter",
    "set_debug_checks",
    "softmax",
    "stack",
    "stream",
    "stream_key",
]
