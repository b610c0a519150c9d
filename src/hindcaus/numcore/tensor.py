"""Dense float64 tensors with taped reverse-mode differentiation.

Every op records a backward closure onto the implicit tape (the parent links
of the produced tensor) only when at least one input requires gradients, so
evaluation-only code pays no tape cost. All storage is float64; there is no
dtype promotion to manage.

A tape is used once. As soon as `backward` has run an op output's backward
closure, it drops that output's gradient, the closure (with the activations
it saved) and its parent links, so the tape and the used gradients are
freed while the walk goes on, not when the step ends. Leaves (parameters
and other tensors made with `requires_grad`) keep their gradients, summed
over every `backward` that reaches them. A later `backward` that reaches a
used op output raises `RuntimeError`; run the forward again instead.

Freeing the tape mid-walk hands large blocks back to the allocator on every
step. With glibc's default dynamic thresholds, the heap top is then trimmed
and faulted in again each step, and arrays above the moving mmap threshold
are mapped and unmapped each time. In 10 s benchmark training runs
(`perfbench/run.py`, 2 vCPUs, numpy 2.4) that took a full5 run from 107-145k
minor page faults, with the tape kept to the end of the step, to 465-519k,
and chain3 from 74-114k to 517-536k. So importing this module sets
glibc's mmap threshold to 1 MiB and its trim threshold to 64 MiB, once,
for the process: freed pages stay in the heap for the next step, 34-40k
faults a run remain, from import and set-up, and a step's median time is
10-20% shorter than with the freed tape under the default thresholds.
A 1 MiB mmap threshold, rather than a larger one, leaves the peak RSS of
forward-only evaluation as it was. Where the C library has no `mallopt`
(macOS, Windows) nothing is set.
"""

from __future__ import annotations

import ctypes
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
    "sample_scan",
    "masked_max",
    "transpose",
    "backward",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteError(FloatingPointError):
    """NaN or infinity appeared where finite values are required."""


# glibc's mallopt parameters (malloc.h), and the values the module docstring
# gives for them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 1 << 20


def _keep_freed_pages() -> None:
    """Set the allocator thresholds of the module docstring, where the C
    library has `mallopt`; do nothing where it has not."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_pages()

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


def masked_max(
    table: Tensor, index: np.ndarray, keep: np.ndarray, dense: Tensor | None = None, dense_pos=()
) -> Tensor:
    """Max over the kept inputs under K keep masks, read straight from a
    feature table and dense slices.

    There are n inputs. On row r, input i is the table row
    table[i, index[i, r]] of the (n, V, F) `table`, or dense[q, r] where
    i == dense_pos[q]. `index` is (n, rows) with every entry in [0, V);
    `dense` is (m, rows, F) and `dense_pos` names the m distinct inputs it
    fills, whose index rows are not read. `keep` is a 0/1 (or bool) stack of
    shape (K, 1 or rows, n): block k of the (K, rows, F) output is, on each
    row, the elementwise max over the inputs i with keep[k, row, i] = 1.
    Every (block, row) must keep at least one input, or `ValueError` is
    raised.

    No (n, rows, F) stack of the inputs is formed. Each input is gathered
    once from the table into one (rows, F) buffer, or read from `dense` as
    it is, and folded into every block that reads it, so each block folds
    its inputs in ascending order. Within a block an input kept on every row
    is folded as it is, an input dropped on every row is skipped, and only
    an input kept on some rows gets an offset of -1e30 on the rows that drop
    it. The fold replaces the running max only where a term is strictly
    larger, so each output comes from the first kept input that attains its
    maximum.

    Only when the node is recorded does the fold also keep each output's
    source row, in an (n*V + m*rows, F) buffer that holds, input by input,
    the input's V table rows and, for a dense input, its rows dense rows
    after them. Sources grow with the input, so the fold keeps them with one
    `maximum`, as it keeps the running max. The backward sums the output
    gradient into that buffer with one `bincount` and reads the table and
    dense gradients out of it. Under `no_grad`, or when neither `table` nor
    `dense` needs a gradient, the forward keeps no source.
    """
    index = np.asarray(index)
    keep = np.asarray(keep)
    dense_pos = np.asarray(dense_pos)
    m = 0 if dense is None else dense.shape[0]
    if (
        table.data.ndim != 3
        or index.ndim != 2
        or index.shape[0] != table.shape[0]
        or (dense is not None and dense.shape != (m, index.shape[1], table.shape[2]))
        or dense_pos.shape != (m,)
    ):
        raise ShapeError(
            f"masked_max: table {table.shape}, index {index.shape}, dense "
            f"{None if dense is None else dense.shape} and dense_pos {dense_pos.shape} are "
            "incompatible (need (n, V, F), (n, rows), (m, rows, F) and (m,))"
        )
    (n, V, F), rows, K = table.shape, index.shape[1], len(keep)
    if keep.ndim != 3 or keep.shape[-1] != n:
        raise ShapeError(f"masked_max: keep stack {keep.shape} does not fit {n} inputs")
    if keep.shape[1] not in (1, rows):
        raise ShapeError(f"masked_max: keep stack {keep.shape} does not match {rows} rows")
    if dense_pos.size and dense_pos.dtype.kind not in "iu":
        raise ValueError(f"masked_max: dense positions must be integers, got {dense_pos.tolist()}")
    dense_pos = dense_pos.astype(np.intp)
    for q, p in enumerate(dense_pos):
        if not 0 <= p < n:
            raise ValueError(f"masked_max: dense position {p} is outside [0, {n})")
        if p in dense_pos[:q]:
            raise ValueError(f"masked_max: dense position {p} is given twice")
    if index.size and (index.min() < 0 or index.max() >= V):
        raise ValueError(
            f"masked_max: index values must be in [0, {V}), got [{index.min()}, {index.max()}]"
        )
    kept = keep == 1
    if not (kept | (keep == 0)).all():
        raise ValueError("masked_max: the keep stack must hold only 0 and 1")
    empty = ~kept.any(axis=2)
    if empty.any():
        k, r = np.argwhere(empty)[0]
        raise ValueError(f"masked_max: block {k}, row {r} of the keep mask keeps no input")
    every = kept.all(axis=1)  # (K, n): kept on every row of the block (all, on zero rows)
    read = kept.any(axis=1) | every  # (K, n): the inputs each block folds in
    slot = np.full(n, -1)  # the dense slice of each input, -1 for a table input
    slot[dense_pos] = np.arange(m)
    parents = (table,) if dense is None else (table, dense)
    data = np.empty((K, rows, F))
    started = np.zeros(K, dtype=bool)
    row = np.empty((rows, F))
    term = np.empty((rows, F))
    taped = _records(parents)
    if taped:
        extra = np.where(slot >= 0, rows, 0)
        start = np.arange(n) * V + np.cumsum(extra) - extra  # first buffer row of each input
        code = np.min_scalar_type(n * V + m * rows - 1)  # smallest type that holds every source
        src = np.empty(data.shape, dtype=code)
        beats = np.empty((rows, F), dtype=bool)
        step = np.empty((rows, F), dtype=code)

    for i in range(n):
        blocks = np.flatnonzero(read[:, i])
        if not blocks.size:
            continue
        if slot[i] >= 0:
            x, own = dense.data[slot[i]], V + np.arange(rows)
        else:
            # The index is checked above; mode="raise" would buffer `out`.
            x, own = np.take(table.data[i], index[i], axis=0, out=row, mode="clip"), index[i]
        if taped:
            own = (start[i] + own).astype(code)[:, None]  # (rows, 1) source rows of input i
        for k in blocks:
            t = x
            if not every[k, i]:
                t = np.add(x, np.where(kept[k, :, i], 0.0, _DROP)[:, None], out=term)
            acc = data[k]
            if not started[k]:
                started[k] = True
                np.copyto(acc, t)
                if taped:
                    np.copyto(src[k], own)
                continue
            if taped:
                # src = max(src, own * (t > acc)): only a strictly larger term
                # moves the source, and sources grow with i, so a tie stays
                # with the first input that reached the maximum. (Masked
                # writes such as copyto(where=) cost over ten times as much.)
                np.greater(t, acc, out=beats)
                np.multiply(beats, own, out=step)
                np.maximum(src[k], step, out=src[k])
            np.maximum(acc, t, out=acc)

    def backward_fn(out=None, table=table, dense=dense):
        bins = src.astype(np.intp)
        bins *= F
        bins += np.arange(F)
        g = np.bincount(bins.ravel(), weights=out.grad.ravel(), minlength=(n * V + m * rows) * F)
        g = g.reshape(-1, F)
        if table.requires_grad:
            table._accumulate(g[(start[:, None] + np.arange(V)).ravel()].reshape(n, V, F))
        if dense is not None and dense.requires_grad:
            dense_rows = start[dense_pos, None] + V + np.arange(rows)
            dense._accumulate(g[dense_rows.ravel()].reshape(m, rows, F))

    return _finish(data, parents, backward_fn)


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


def _used(out=None) -> None:
    """The backward function of an op output whose tape `backward` has used
    and freed; the walk refuses such a node before it runs anything."""


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    The tape is used once: each op output's gradient, backward closure and
    parent links are dropped as soon as its backward has run, so the
    activations the closures saved are freed during the walk. Leaves keep
    their gradients and sum them over calls. The module docstring says why
    the allocator thresholds are set for this. A loss whose tape reaches an
    op output that an earlier `backward` used raises `RuntimeError` before
    any gradient is written.
    """
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
        if node._backward is _used:
            raise RuntimeError(
                f"backward reached {node!r}, whose tape an earlier backward already used "
                "and freed; run the forward again to take another gradient"
            )
        seen.add(id(node))
        stack_.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack_.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward(out=node)
            node.grad, node._backward, node._parents = None, _used, ()
