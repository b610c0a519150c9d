"""Adam with bias correction over named parameter tensors.

The decay rates are fixed at 0.9 and 0.999 and epsilon at 1e-8, the values
of Kingma & Ba (2015); only the learning rate is set, when Adam is made.

The moments of all parameters live in two flat float64 arrays, one slot of
consecutive entries per parameter in the order of `params`; `m[name]` and
`v[name]` are views of a parameter's slot in its shape, so writes through
them (as `load_state` makes) land in the flat arrays. A step gathers every
gradient into one flat array and runs the update once over all slots, with
the same operations in the same order as a loop over the parameters would,
so each entry gets the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import _is_int, _is_real
from .tensor import NonFiniteError, Tensor

__all__ = ["Adam"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        if not (_is_real(lr) and math.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be finite and positive, got {lr!r}")
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        ends = np.cumsum([p.data.size for p in self.params.values()]).tolist()
        starts = [0, *ends[:-1]]
        # Each parameter's slot of a flat array: its range and its shape.
        self._slots = [(a, b, p.data.shape) for a, b, p in zip(starts, ends, self.params.values())]
        n = ends[-1] if ends else 0
        self._m, self._v = np.zeros(n), np.zeros(n)
        self.m = dict(zip(self.params, self._split(self._m)))
        self.v = dict(zip(self.params, self._split(self._v)))

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of each parameter's slot of `flat`, in its shape."""
        return [flat[a:b].reshape(shape) for a, b, shape in self._slots]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update. A parameter without a grad this step is left alone:
        its data and both moments keep their values."""
        params = list(self.params.values())
        # The gradients, one flat array, and one scratch array of its size.
        # Both are freed after the step: held between steps they would add
        # to the peak memory of the forward and backward passes.
        grads = [np.zeros(p.data.size) if p.grad is None else np.ravel(p.grad) for p in params]
        g = np.concatenate(grads) if grads else np.zeros(0)
        tmp = np.empty_like(g)
        # Validate every gradient before touching any parameter, so a NaN
        # aborts the whole step rather than half-applying it.
        if not np.isfinite(g).all():
            for name, p in self.params.items():
                if p.grad is not None and not np.all(np.isfinite(p.grad)):
                    raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
        # A parameter without a gradient keeps its data and moments. The flat
        # update decays its moments too (its gradient slot is zero), so they
        # are put back, and its update, nonzero while they are, is skipped.
        moments = zip(params, self.m.values(), self.v.values())
        missing = [(m, v, m.copy(), v.copy()) for p, m, v in moments if p.grad is None]
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        m, v = self._m, self._v
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=tmp)
        v *= BETA2
        np.multiply(g, g, out=tmp)
        v += np.multiply(1.0 - BETA2, tmp, out=tmp)
        # update = lr * (m / bc1) / (sqrt(v / bc2) + eps), into g.
        np.multiply(self.lr, np.divide(m, bc1, out=g), out=g)
        np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        g /= np.add(tmp, EPS, out=tmp)
        for m_i, v_i, m_before, v_before in missing:
            np.copyto(m_i, m_before)
            np.copyto(v_i, v_before)
        for p, update in zip(params, self._split(g)):
            if p.grad is not None:
                p.data -= update

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Moment buffers under reserved names, for checkpointing."""
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"adam.m/{name}"] = self.m[name]
            out[f"adam.v/{name}"] = self.v[name]
        return out

    def load_state(self, tensors: dict[str, np.ndarray], step_count: int) -> None:
        """Restore the moments from `state_tensors` output and the step count
        they were taken at, an integer >= 0. Every moment must be finite, and
        every second moment >= 0. Every argument is checked before any entry
        is copied, so a refused load changes nothing."""
        if not (_is_int(step_count) and step_count >= 0):
            raise ValueError(f"Adam step_count must be an integer >= 0, got {step_count!r}")
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
                if not np.isfinite(tensors[key]).all():
                    raise ValueError(f"Adam state {key!r} holds a non-finite value")
            if (np.asarray(tensors[f"adam.v/{name}"]) < 0).any():
                raise ValueError(f"Adam state 'adam.v/{name}' holds a negative second moment")
        for name in self.params:
            np.copyto(self.m[name], tensors[f"adam.m/{name}"])
            np.copyto(self.v[name], tensors[f"adam.v/{name}"])
        self.step_count = int(step_count)
