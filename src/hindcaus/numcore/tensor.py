"""Dense float64 tensors with taped reverse-mode differentiation.

Every op records a backward closure onto the implicit tape (the parent links
of the produced tensor) only when at least one input requires gradients, so
evaluation-only code pays no tape cost. All storage is float64; there is no
dtype promotion to manage.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "grad_enabled",
    "constant",
    "parameter",
    "concat",
    "stack",
    "affine",
    "bmm",
    "gru_scan",
    "lookup",
    "sample_scan",
    "masked_max",
    "transpose",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteError(FloatingPointError):
    """NaN or infinity appeared where finite values are required."""


# While > 0, ops never record tape nodes (forward-only evaluation).
_NO_GRAD_DEPTH = 0


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


def grad_enabled() -> bool:
    """Whether ops may record tape nodes: False inside `no_grad`."""
    return _NO_GRAD_DEPTH == 0


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


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on these inputs records a tape node."""
    return grad_enabled() and any(p.requires_grad for p in parents)


def _finish(data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Build an op output, recording the tape node only when needed."""
    data = np.asarray(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = None
    if _records(parents):
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


def bmm(x: Tensor, W: Tensor, b: Tensor, select=None) -> Tensor:
    """Batched affine map as one node: (n, r, k) @ (n, k, m) plus an
    (n, 1, m) bias -> (n, r, m).

    With `select`, a sequence of n distinct indices into W's first axis, the
    node maps x with W[select] and b[select] instead, and the gradient of
    every other map of W and b is zero; no slice of the weights is taped.
    """
    Wd, bd = W.data, b.data
    if select is not None:
        select = np.asarray(select, dtype=np.intp)
        if select.ndim != 1 or len(set(select.tolist())) != len(select):
            raise ValueError(f"bmm: select must be distinct indices, got {select.tolist()}")
        Wd, bd = Wd[select], bd[select]
    if (
        x.data.ndim != 3
        or W.data.ndim != 3
        or x.shape[0] != Wd.shape[0]
        or x.shape[2] != W.shape[1]
        or b.shape != (W.shape[0], 1, W.shape[2])
    ):
        picked = "" if select is None else f" (select {select.tolist()})"
        raise ShapeError(f"bmm: shapes {x.shape} @ {W.shape} + {b.shape}{picked} are incompatible")
    data = np.matmul(x.data, Wd)
    data += bd

    def picked_grad(g: np.ndarray, full_shape) -> np.ndarray:
        if select is None:
            return g
        full = np.zeros(full_shape)
        full[select] = g
        return full

    def backward_fn(out=None, x=x, W=W, b=b):
        g = out.grad
        if x.requires_grad:
            x._accumulate(np.matmul(g, Wd.transpose(0, 2, 1)))
        if W.requires_grad:
            W._accumulate(picked_grad(np.matmul(x.data.transpose(0, 2, 1), g), W.shape))
        if b.requires_grad:
            b._accumulate(picked_grad(g.sum(axis=1, keepdims=True), b.shape))

    return _finish(data, (x, W, b), backward_fn)


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
    # Every step reuses two scratch buffers and writes into the saved arrays.
    # It runs the docstring's formula in its order; the operands of a sum may
    # swap, since floating-point addition commutes.
    pre = np.empty((B, 2 * H))
    tmp = np.empty((B, H))
    h = np.zeros((B, H))
    for s in order:
        np.matmul(h, Uzr.data, out=pre)
        pre += xw.data[s, :, : 2 * H]
        _sigmoid(pre, out=zr[s])
        z, r = zr[s, :, :H], zr[s, :, H:]
        np.multiply(r, h, out=tmp)
        np.matmul(tmp, Un.data, out=n[s])
        n[s] += xw.data[s, :, 2 * H :]
        np.tanh(n[s], out=n[s])
        np.subtract(1.0, z, out=tmp)
        tmp *= n[s]
        np.multiply(z, h, out=data[s])
        data[s] += tmp
        h = data[s]

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


def sample_scan(
    g: Tensor,
    steps: Tensor,
    context0: Tensor,
    past: tuple[Tensor, Tensor, Tensor, Tensor],
    combiner: tuple[Tensor, Tensor, Tensor, Tensor],
    noise: np.ndarray,
    temperature: float,
    hard: bool,
) -> Tensor:
    """Straight-through Gumbel-softmax sampling recursion of a dvae encoder
    over S steps, as one node; returns the (2, S, B, d_h, l) stack of the
    logits and the samples.

    `g` is the (S, B, H) branch output, `steps` the (S, B, d) step inputs and
    `noise` the (S, B, d_h, l) Gumbel draws; its last two axes fix d_h and l.
    `past` and `combiner` are the (W0, b0, W1, b1) weights of two
    one-hidden-layer tanh MLPs. Step t: e_0 = tanh(0 + context0),
    e_t = tanh(past([s_{t-1}, steps[t-1]])) for t > 0,
    logits_t = combiner([e_t, g[t]]), and s_t is the softmax over l of
    (logits_t + noise[t]) * (1/temperature), or with `hard` the one-hot of
    its argmax while the gradient stays the relaxed one. Each step runs the
    ops of the per-step formulas in their order, so the values are theirs
    bit for bit.

    The backward is backpropagation through time over the saved
    activations; each weight and bias gradient is one matmul or one sum
    over all rows. When the node is not recorded, no sequence-long
    activation is kept and hard samples skip the softmax.
    """
    if temperature <= 0:
        raise ValueError(f"sample_scan: temperature must be positive, got {temperature}")
    noise = np.asarray(noise, dtype=np.float64)
    W0, b0, W1, b1 = past
    V0, c0, V1, c1 = combiner

    def incompatible() -> ShapeError:
        return ShapeError(
            f"sample_scan: g {g.shape}, steps {steps.shape}, noise {noise.shape}, "
            f"context0 {context0.shape}, past {[t.shape for t in past]} and combiner "
            f"{[t.shape for t in combiner]} are incompatible (need g (S, B, H), steps (S, B, d), "
            "noise (S, B, d_h, l), context0 (H,), past (d_h*l + d, P), (P,), (P, H), (H,) "
            "and combiner (2H, C), (C,), (C, d_h*l), (d_h*l,))"
        )

    if g.data.ndim != 3 or steps.data.ndim != 3 or noise.ndim != 4 or W0.data.ndim != 2:
        raise incompatible()
    S, B, H = g.shape
    d_h, l = noise.shape[2:]
    d_hl, P = d_h * l, W0.shape[1]
    C = V0.shape[1] if V0.data.ndim == 2 else -1
    need = (
        ((S, B), steps.shape[:2], noise.shape[:2]),
        ((H,), context0.shape),
        ((d_hl + steps.shape[2], P), W0.shape),
        ((P,), b0.shape),
        ((P, H), W1.shape),
        ((H,), b1.shape),
        ((2 * H, C), V0.shape),
        ((C,), c0.shape),
        ((C, d_hl), V1.shape),
        ((d_hl,), c1.shape),
    )
    if any(len(set(group)) != 1 for group in need):
        raise incompatible()
    _require_finite(noise, "sample_scan noise")

    parents = (g, steps, context0, *past, *combiner)
    taped = _records(parents)
    inv = 1.0 / temperature
    data = np.empty((2, S, B, d_h, l))
    logits, samples = data[0], data[1]

    def kept(*shape):
        """Per-step buffers the backward reads; unrecorded, each step's
        `out=None` makes a fresh array, so no sequence-long one is kept."""
        return np.empty(shape) if taped else [None] * shape[0]

    # The past net's input x = [s_{t-1}, steps[t-1]] and hidden layer a
    # (index t-1), the combiner's input c = [e_t, g[t]] and hidden layer u.
    x_in, a_hid = kept(S - 1, B, d_hl + steps.shape[2]), kept(S - 1, B, P)
    c_in, u_hid = kept(S, B, 2 * H), kept(S, B, C)
    soft = kept(S, B, d_h, l)
    e = np.tanh(np.zeros((B, H)) + context0.data)
    for t in range(S):
        if t > 0:
            x = [samples[t - 1].reshape(B, d_hl), steps.data[t - 1]]
            h = np.concatenate(x, axis=1, out=x_in[t - 1]) @ W0.data
            h += b0.data
            h = np.tanh(h, out=a_hid[t - 1]) @ W1.data
            h += b1.data
            e = np.tanh(h)
        h = np.concatenate([e, g.data[t]], axis=1, out=c_in[t]) @ V0.data
        h += c0.data
        h = np.tanh(h, out=u_hid[t]) @ V1.data
        h += c1.data
        logits[t] = h.reshape(B, d_h, l)
        perturbed = (logits[t] + noise[t]) * inv
        if taped or not hard:
            sm = np.exp(_log_softmax(perturbed), out=soft[t])
        # One-hot of the first maximum: soft - soft adds exactly zero.
        samples[t] = np.arange(l) == perturbed.argmax(axis=-1)[..., None] if hard else sm

    def backward_fn(out=None):
        G = out.grad
        dl = np.empty((S, B, d_hl))  # gradient at the logits
        du = np.empty((S, B, C))  # at the combiner's hidden pre-activation
        de = np.empty((S, B, H))  # at the past net's output pre-activation (e_0: context0)
        da = np.empty((S - 1, B, P))  # at the past net's hidden pre-activation, index t-1
        du_f = 1.0 - u_hid * u_hid
        e = c_in[:, :, :H]
        de_f = 1.0 - e * e
        da_f = 1.0 - a_hid * a_hid
        Ve = V0.data[:H].T
        Ws = W0.data[:d_hl].T
        carry = np.zeros((B, d_h, l))  # reaches s_t through the past net of step t+1
        for t in range(S - 1, -1, -1):
            ds = G[1, t] + carry
            sm = soft[t]
            dp = sm * (ds - (ds * sm).sum(axis=-1, keepdims=True))
            dl[t] = (G[0, t] + dp * inv).reshape(B, d_hl)
            np.multiply(dl[t] @ V1.data.T, du_f[t], out=du[t])
            np.multiply(du[t] @ Ve, de_f[t], out=de[t])
            if t > 0:
                np.multiply(de[t] @ W1.data.T, da_f[t - 1], out=da[t - 1])
                carry = (da[t - 1] @ Ws).reshape(B, d_h, l)
        rows = lambda arr: arr.reshape(-1, arr.shape[-1])  # noqa: E731
        grads = (
            (W0, lambda: rows(x_in).T @ rows(da)),
            (b0, lambda: rows(da).sum(axis=0)),
            (W1, lambda: rows(a_hid).T @ rows(de[1:])),
            (b1, lambda: rows(de[1:]).sum(axis=0)),
            (V0, lambda: rows(c_in).T @ rows(du)),
            (c0, lambda: rows(du).sum(axis=0)),
            (V1, lambda: rows(u_hid).T @ rows(dl)),
            (c1, lambda: rows(dl).sum(axis=0)),
            (context0, lambda: de[0].sum(axis=0)),
            (g, lambda: (rows(du) @ V0.data[H:].T).reshape(S, B, H)),
        )
        for p, grad in grads:
            if p.requires_grad:
                p._accumulate(grad())
        if steps.requires_grad:
            gs = np.zeros_like(steps.data)
            gs[:-1] = (rows(da) @ W0.data[d_hl:].T).reshape(S - 1, B, -1)
            steps._accumulate(gs)

    return _finish(data, parents, backward_fn)


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


def _advanced(key) -> bool:
    """Whether an index key holds an array (advanced indexing)."""
    parts = key if isinstance(key, tuple) else (key,)
    return any(isinstance(k, (list, np.ndarray)) for k in parts)


def slice_(a: Tensor, key) -> Tensor:
    data = a.data[key]

    def backward_fn(out=None, a=a, key=key):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            if _advanced(key):
                # An array key may repeat an index; `+=` would keep one of
                # the repeated gradients, add.at sums them all.
                np.add.at(g, key, out.grad)
            else:
                # Basic (slice/int) keys never alias.
                g[key] += out.grad
            a._accumulate(g)

    return _finish(data, (a,), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            a._accumulate(out.grad.reshape(a.shape))

    return _finish(data, (a,), backward_fn)


def transpose(a: Tensor, axes) -> Tensor:
    """The axes of `a` permuted as `np.transpose` does, as a view."""
    axes = tuple(axes)
    data = a.data.transpose(axes)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            a._accumulate(out.grad.transpose(np.argsort(axes)))

    return _finish(data, (a,), backward_fn)


def lookup(table: Tensor, index: np.ndarray, dense: Tensor | None = None, dense_pos=()) -> Tensor:
    """Stack of table rows and dense slices in input order, as one node.

    `table` is (n, V, F) and `index` an (n, rows) integer array with every
    entry in [0, V). `dense` is (m, rows, F) and `dense_pos` names the m
    distinct slices it fills. Slice i of the (n, rows, F) output is
    table[i, index[i]], or dense[q] where i == dense_pos[q]; the index row
    of a dense slice is not read. Without `dense`, every slice is read from
    the table.

    The backward gives each table row the sum of the gradients of the rows
    that read it, as one batched (n, V, rows) one-hot matmul, and `dense`
    the gradient of its slices.
    """
    index = np.asarray(index)
    dense_pos = np.asarray(dense_pos, dtype=np.intp)
    m = 0 if dense is None else dense.shape[0]
    if (
        table.data.ndim != 3
        or index.ndim != 2
        or index.shape[0] != table.shape[0]
        or (dense is not None and dense.shape != (m, index.shape[1], table.shape[2]))
        or dense_pos.shape != (m,)
    ):
        raise ShapeError(
            f"lookup: table {table.shape}, index {index.shape}, dense "
            f"{None if dense is None else dense.shape} and dense_pos {dense_pos.shape} are "
            "incompatible (need (n, V, F), (n, rows), (m, rows, F) and (m,))"
        )
    n, V, F = table.shape
    if index.size and (index.min() < 0 or index.max() >= V):
        raise ValueError(
            f"lookup: index values must be in [0, {V}), got [{index.min()}, {index.max()}]"
        )
    flat = index + np.arange(0, n * V, V)[:, None]  # row of the (n*V, F) table
    data = np.take(table.data.reshape(n * V, F), flat, axis=0)
    parents = (table,)
    if dense is not None:
        data[dense_pos] = dense.data
        parents = (table, dense)

    def backward_fn(out=None, table=table, dense=dense):
        g = out.grad
        if table.requires_grad:
            hot = (np.arange(V)[:, None] == index[:, None, :]).astype(np.float64)
            hot[dense_pos] = 0.0
            table._accumulate(np.matmul(hot, g))
        if dense is not None and dense.requires_grad:
            dense._accumulate(g[dense_pos])

    return _finish(data, parents, backward_fn)


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
    axes = range(a.data.ndim) if axis is None else np.atleast_1d(axis)
    count = math.prod(a.shape[i] for i in axes)

    def backward_fn(out=None, a=a, axis=axis, keepdims=keepdims, count=count):
        if not a.requires_grad:
            return
        g = out.grad / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _finish(data, (a,), backward_fn)


_DROP = -1e30  # offset that drops an input on the rows of a mixed column


def masked_max(x: Tensor, keep: np.ndarray) -> Tensor:
    """Max over the kept inputs of an (n, rows, F) stack under K keep masks.

    `keep` is a 0/1 (or bool) stack of shape (K, 1 or rows, n): block k of
    the (K, rows, F) output is, on each row, the elementwise max over the
    inputs i with keep[k, row, i] = 1. Every (block, row) must keep at least
    one input, or `ValueError` is raised.

    Each block is folded on its own, its inputs in ascending order, so no
    (K, n, rows, F) array is formed. Within a block an input kept on every
    row is folded as it is, an input dropped on every row is skipped, and
    only an input kept on some rows gets an offset of -1e30 on the rows that
    drop it. The fold replaces the running max only where a term is strictly
    larger, so the gradient of each output goes to the first kept input that
    attains its maximum.

    Only when the node is recorded does the fold also keep that winning
    input's index, as a (K, rows, F) uint8 array (so n is at most 255); the
    backward then routes the gradient with one scatter. Under `no_grad`, or
    when `x` needs no gradient, the forward keeps no index.
    """
    keep = np.asarray(keep)
    n = x.shape[0]
    if x.data.ndim != 3 or keep.ndim != 3 or keep.shape[-1] != n:
        raise ShapeError(
            f"masked_max: stack {x.shape} and keep stack {keep.shape} are incompatible"
        )
    K, rows, F = len(keep), x.shape[1], x.shape[2]
    if keep.shape[1] not in (1, rows):
        raise ShapeError(f"masked_max: keep stack {keep.shape} does not match {rows} rows")
    if n > 255:
        raise ShapeError(f"masked_max: {n} inputs do not fit the uint8 winner index (max 255)")
    kept = keep == 1
    if not (kept | (keep == 0)).all():
        raise ValueError("masked_max: the keep stack must hold only 0 and 1")
    empty = ~kept.any(axis=2)
    if empty.any():
        k, r = np.argwhere(empty)[0]
        raise ValueError(f"masked_max: block {k}, row {r} of the keep mask keeps no input")
    every = kept.all(axis=1)  # (K, n): kept on every row of the block (all, on zero rows)
    read = kept.any(axis=1) | every  # (K, n): the inputs each block folds in
    data = np.empty((K, rows, F))
    term = np.empty((rows, F))
    taped = _records((x,))
    if taped:
        win = np.empty(data.shape, dtype=np.uint8)
        beats = np.empty((rows, F), dtype=bool)
        step = np.empty((rows, F), dtype=np.uint8)

    def term_of(k, i, out):
        if every[k, i]:
            return x.data[i]
        return np.add(x.data[i], np.where(kept[k, :, i], 0.0, _DROP)[:, None], out=out)

    for k in range(K):
        first, *rest = np.flatnonzero(read[k])
        acc = data[k]
        np.copyto(acc, term_of(k, first, acc))
        if taped:
            won = win[k]
            won.fill(first)
        for i in rest:
            t = term_of(k, i, term)
            if taped:
                # won = max(won, i * (t > acc)): only a strictly larger term
                # moves the winner, and i only grows, so a tie stays with the
                # first input that reached the maximum. (Masked writes such as
                # copyto(where=) cost over ten times as much.)
                np.greater(t, acc, out=beats)
                np.multiply(beats, np.uint8(i), out=step)
                np.maximum(won, step, out=won)
            np.maximum(acc, t, out=acc)

    def backward_fn(out=None, x=x):
        block = out.data[0].size  # rows * F positions per input
        bins = win * np.intp(block)
        bins += np.arange(block).reshape(out.data.shape[1:])
        g = np.bincount(bins.ravel(), weights=out.grad.ravel(), minlength=n * block)
        x._accumulate(g.reshape(x.shape))

    return _finish(data, (x,), backward_fn)


# -- nonlinearities ----------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            g = out.data * out.data
            np.subtract(1.0, g, out=g)
            g *= out.grad
            a._accumulate(g)

    return _finish(data, (a,), backward_fn)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|, and the
    result is 1 / (1 + e) for x >= 0 and e / (1 + e) below, e = exp(-|x|).
    As 0 <= e <= 1, `maximum(e, x >= 0)` is exactly that numerator (1 or
    e), so only one quotient is computed. Writes into `out`, which must not
    overlap `x`, when given."""
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(num, e, out=e)


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


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis. Shifting by the maximum first keeps
    exp from overflowing and leaves the result as it is."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis (the category axis)."""
    data = _log_softmax(a.data)

    def backward_fn(out=None, a=a):
        if a.requires_grad:
            g = out.grad
            soft = np.exp(out.data)
            a._accumulate(g - soft * g.sum(axis=-1, keepdims=True))

    return _finish(data, (a,), backward_fn)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed as exp(log_softmax)."""
    data = np.exp(_log_softmax(a.data))

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
