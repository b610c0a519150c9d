"""Dense float64 tensors with taped reverse-mode differentiation.

Every op records a backward closure onto the implicit tape (the parent links
of the produced tensor) only when at least one input requires gradients, so
evaluation-only code pays no tape cost. All storage is float64; there is no
dtype promotion to manage.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "set_debug_checks",
    "no_grad",
    "constant",
    "parameter",
    "concat",
    "stack",
    "affine",
    "bmm",
    "gru_scan",
    "masked_max",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteError(FloatingPointError):
    """NaN or infinity appeared where finite values are required."""


# When enabled, every op output is scanned for non-finite values. Leaves are
# always scanned (they enter from outside the engine).
_DEBUG_CHECKS = False

# While > 0, ops never record tape nodes (forward-only evaluation).
_NO_GRAD_DEPTH = 0


def set_debug_checks(enabled: bool) -> None:
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


class no_grad:
    """Context manager: ops inside run forward-only, recording no tape."""

    def __enter__(self):
        global _NO_GRAD_DEPTH
        _NO_GRAD_DEPTH += 1
        return self

    def __exit__(self, *exc):
        global _NO_GRAD_DEPTH
        _NO_GRAD_DEPTH -= 1
        return False


def _require_finite(arr: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {context}")


class Tensor:
    """A float64 array plus optional gradient buffer and tape links."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        _require_finite(arr, name or "tensor leaf")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basics ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Stop-gradient view: same values, no tape links, no grad flow."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out.name = None
        out._parents = ()
        out._backward = None
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # Out of place: a backward function may hand one array to several
        # parents, so no gradient buffer is ever written into.
        self.grad = g if self.grad is None else self.grad + g

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return subtract(self, _lift(other))

    def __rsub__(self, other):
        return subtract(_lift(other), self)

    def __mul__(self, other):
        return multiply(self, _lift(other))

    def __rmul__(self, other):
        return multiply(_lift(other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __getitem__(self, key):
        return slice_(self, key)

    # -- reductions / shape ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    # -- nonlinearities ---------------------------------------------------

    def tanh(self):
        return tanh(self)

    def sigmoid(self):
        return sigmoid(self)

    def exp(self):
        return exp(self)

    def log_softmax(self):
        return log_softmax(self)

    def softmax(self):
        return softmax(self)

    def argmax(self, axis: int = -1) -> np.ndarray:
        """Plain numpy argmax of the values (not differentiable)."""
        return np.argmax(self.data, axis=axis)

    def backward(self) -> None:
        backward(self)


def constant(data, name: str | None = None) -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def parameter(data, name: str | None = None) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _finish(data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Build an op output, recording the tape node only when needed."""
    data = np.asarray(data)
    if _DEBUG_CHECKS:
        _require_finite(data, "op output")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = None
    if _NO_GRAD_DEPTH == 0 and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise binary ops -----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(out=None, a=a, b=b):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_sum_to_shape(g, a.shape))
        if b.requires_grad:
            b._accumulate(_sum_to_shape(g, b.shape))

    return _finish(data, (a, b), backward_fn)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"subtract: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(out=None, a=a, b=b):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_sum_to_shape(g, a.shape))
        if b.requires_grad:
            b._accumulate(_sum_to_shape(-g, b.shape))

    return _finish(data, (a, b), backward_fn)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"multiply: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(out=None, a=a, b=b):
        g = out.grad
        if a.requires_grad:
            a._accumulate(_sum_to_shape(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_sum_to_shape(g * a.data, b.shape))

    return _finish(data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def backward_fn(out=None, a=a, c=c):
        if a.requires_grad:
            a._accumulate(out.grad * c)

    return _finish(data, (a,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    data = a.data @ b.data

    def backward_fn(out=None, a=a, b=b):
        g = out.grad
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _finish(data, (a, b), backward_fn)


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b as one node: (rows, k) @ (k, m) plus an (m,) bias."""
    if x.data.ndim != 2 or W.data.ndim != 2 or b.shape != (W.shape[1],) or x.shape[1] != W.shape[0]:
        raise ShapeError(f"affine: shapes {x.shape} @ {W.shape} + {b.shape} are incompatible")
    data = x.data @ W.data
    data += b.data

    def backward_fn(out=None, x=x, W=W, b=b):
        g = out.grad
        if x.requires_grad:
            x._accumulate(g @ W.data.T)
        if W.requires_grad:
            W._accumulate(x.data.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _finish(data, (x, W, b), backward_fn)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: (n, r, k) @ (n, k, m) -> (n, r, m)."""
    if a.data.ndim != 3 or b.data.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm: shapes {a.shape} and {b.shape} are incompatible")
    data = np.matmul(a.data, b.data)

    def backward_fn(out=None, a=a, b=b):
        g = out.grad
        if a.requires_grad:
            a._accumulate(np.matmul(g, b.data.transpose(0, 2, 1)))
        if b.requires_grad:
            b._accumulate(np.matmul(a.data.transpose(0, 2, 1), g))

    return _finish(data, (a, b), backward_fn)


def gru_scan(xw: Tensor, Uzr: Tensor, Un: Tensor, reverse: bool = False) -> Tensor:
    """GRU recurrence from h = 0 over an (S, B, 3H) stack of input
    projections; returns the (S, B, H) states as one node.

    Step s reads xw[s] = [x_z, x_r, x_n] and the previous state h:
    [z, r] = sigmoid([x_z, x_r] + h @ Uzr), n = tanh(x_n + (r * h) @ Un),
    h' = (1 - z) * n + z * h. Steps run s = 0..S-1, or S-1..0 with
    `reverse`; out[s] is the state after step s either way. The backward is
    backpropagation through time over the saved z, r and n.
    """
    H = Un.shape[0]
    if (
        xw.data.ndim != 3
        or xw.shape[2] != 3 * H
        or Uzr.shape != (H, 2 * H)
        or Un.shape != (H, H)
    ):
        raise ShapeError(
            f"gru_scan: inputs {xw.shape}, Uzr {Uzr.shape} and Un {Un.shape} are incompatible "
            f"(need (S, B, 3H), (H, 2H), (H, H))"
        )
    S, B = xw.shape[:2]
    order = range(S - 1, -1, -1) if reverse else range(S)
    zr = np.empty((S, B, 2 * H))
    n = np.empty((S, B, H))
    data = np.empty((S, B, H))
    h = np.zeros((B, H))
    for s in order:
        zr[s] = _sigmoid(xw.data[s, :, : 2 * H] + h @ Uzr.data)
        z, r = zr[s, :, :H], zr[s, :, H:]
        n[s] = np.tanh(xw.data[s, :, 2 * H :] + (r * h) @ Un.data)
        h = data[s] = (1.0 - z) * n[s] + z * h

    def backward_fn(out=None, xw=xw, Uzr=Uzr, Un=Un):
        # prev[s] is the state step s read.
        prev = np.zeros_like(out.data)
        if reverse:
            prev[:-1] = out.data[1:]
        else:
            prev[1:] = out.data[:-1]
        gx = np.empty_like(xw.data)
        dh = np.zeros((B, H))
        for s in reversed(order):
            z, r = zr[s, :, :H], zr[s, :, H:]
            dh = dh + out.grad[s]
            dn = dh * (1.0 - z) * (1.0 - n[s] * n[s])
            gx[s, :, 2 * H :] = dn
            drh = dn @ Un.data.T
            gx[s, :, :H] = dh * (prev[s] - n[s])
            gx[s, :, H : 2 * H] = drh * prev[s]
            gx[s, :, : 2 * H] *= zr[s] * (1.0 - zr[s])
            dh = dh * z + drh * r + gx[s, :, : 2 * H] @ Uzr.data.T
        if xw.requires_grad:
            xw._accumulate(gx)
        rows = (S * B, -1)
        if Uzr.requires_grad:
            Uzr._accumulate(prev.reshape(rows).T @ gx[:, :, : 2 * H].reshape(rows))
        if Un.requires_grad:
            rh = zr[:, :, H:] * prev
            Un._accumulate(rh.reshape(rows).T @ gx[:, :, 2 * H :].reshape(rows))

    return _finish(data, (xw, Uzr, Un), backward_fn)


# -- shape ops --------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"concat along axis {axis}: incompatible shapes {shapes}") from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(out=None, tensors=tuple(tensors), splits=splits, axis=axis):
        pieces = np.split(out.grad, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return _finish(data, tuple(tensors), backward_fn)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise ShapeError(f"stack: all shapes must match, got {sorted(shapes)}")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(out=None, tensors=tuple(tensors), axis=axis):
        pieces = np.moveaxis(out.grad, axis, 0)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return _finish(data, tuple(tensors), backward_fn)


def slice_(a: Tensor, key) -> Tensor:
    data = a.data[key]

    def backward_fn(out=None, a=a, key=key):
        if a.requires_grad:
            # Basic (slice/int) indexing only: regions never alias.
            g = np.zeros_like(a.data)
            g[key] += out.grad
            a._accumulate(g)

    return _finish(data, (a,), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            a._accumulate(out.grad.reshape(a.shape))

    return _finish(data, (a,), backward_fn)


# -- reductions --------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(out=None, a=a, axis=axis, keepdims=keepdims):
        if not a.requires_grad:
            return
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _finish(data, (a,), backward_fn)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]

    def backward_fn(out=None, a=a, axis=axis, keepdims=keepdims, count=count):
        if not a.requires_grad:
            return
        g = out.grad / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _finish(data, (a,), backward_fn)


def masked_max(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Max over the n inputs of an (n, rows, F) stack under K offset rows.

    `offsets` has shape (K, 1 or rows, n): block k of the (K, rows, F)
    output is max_i (x[i] + offsets[k, :, i]). An offset of 0 keeps an input
    and a large negative one drops it. The inputs are folded in one at a
    time, so no (K, n, rows, F) array is formed. The gradient of each output
    goes to the first input that attains its maximum.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    n = x.shape[0]
    if x.data.ndim != 3 or offsets.ndim != 3 or offsets.shape[-1] != n:
        raise ShapeError(
            f"masked_max: stack {x.shape} and offsets {offsets.shape} are incompatible"
        )
    if offsets.shape[1] not in (1, x.shape[1]):
        raise ShapeError(f"masked_max: offsets {offsets.shape} do not match {x.shape[1]} rows")
    cols = offsets[:, :, :, None]  # (K, 1 or rows, n, 1): column i broadcasts over F
    data = x.data[0] + cols[:, :, 0]
    term = np.empty_like(data)
    for i in range(1, n):
        np.maximum(data, np.add(x.data[i], cols[:, :, i], out=term), out=data)

    def backward_fn(out=None, x=x, cols=cols):
        if not x.requires_grad:
            return
        left = out.grad.copy()  # gradient not yet routed to an earlier input
        g = np.empty_like(x.data)
        for i in range(n):
            hit = (x.data[i] + cols[:, :, i]) == out.data
            routed = left * hit
            left -= routed
            g[i] = routed.sum(axis=0)
        x._accumulate(g)

    return _finish(data, (x,), backward_fn)


# -- nonlinearities ----------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            a._accumulate(out.grad * (1.0 - out.data * out.data))

    return _finish(data, (a,), backward_fn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            a._accumulate(out.grad * out.data * (1.0 - out.data))

    return _finish(data, (a,), backward_fn)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            a._accumulate(out.grad * out.data)

    return _finish(data, (a,), backward_fn)


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis (the category axis)."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            g = out.grad
            soft = np.exp(out.data)
            a._accumulate(g - soft * g.sum(axis=-1, keepdims=True))

    return _finish(data, (a,), backward_fn)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed as exp(log_softmax)."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    log_sm = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = np.exp(log_sm)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            g = out.grad
            s = out.data
            a._accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return _finish(data, (a,), backward_fn)


# -- tape walk ---------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss."""
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack_: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack_.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(out=node)
