"""Adam with bias correction over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, Tensor

__all__ = ["Adam"]


class Adam:
    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None) -> None:
        """One update. A parameter without a grad this step is left alone:
        its data and both moments keep their values."""
        lr = self.lr if lr is None else lr
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        # Validate every gradient before touching any parameter, so a NaN
        # aborts the whole step rather than half-applying it.
        for name, p in self.params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:  # no gradient: the moments would still move it
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Moment buffers under reserved names, for checkpointing."""
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"adam.m/{name}"] = self.m[name]
            out[f"adam.v/{name}"] = self.v[name]
        return out

    def load_state(self, tensors: dict[str, np.ndarray], step_count: int) -> None:
        """Restore the moments from `state_tensors` output. Every entry is
        checked before any is copied, so a refused load changes nothing."""
        for name, p in self.params.items():
            for key in (f"adam.m/{name}", f"adam.v/{name}"):
                if key not in tensors:
                    raise ValueError(f"Adam state {key!r} for parameter {name!r} is missing")
                shape = np.shape(tensors[key])
                if shape != p.data.shape:
                    raise ValueError(
                        f"Adam state {key!r} has shape {shape}, "
                        f"but parameter {name!r} has shape {p.data.shape}"
                    )
        for name in self.params:
            np.copyto(self.m[name], tensors[f"adam.m/{name}"])
            np.copyto(self.v[name], tensors[f"adam.v/{name}"])
        self.step_count = step_count
