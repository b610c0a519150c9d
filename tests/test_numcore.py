import gc
import inspect
import math
import operator
import re

import numpy as np
import pytest

from hindcaus import numcore as nc
from hindcaus.numcore import dists as dists_module
from hindcaus.numcore import tensor as tensor_module
from hindcaus.numcore import Tensor, backward, constant, matmul, parameter
from hindcaus.numcore.gradcheck import check_gradients, max_relative_error
from hindcaus.numcore.random import _stream_keys
from hindcaus.numcore.tensor import NonFiniteError, ShapeError, _finish, _sigmoid, _sum_to_shape


def test_multiply_forward_and_grad():
    x = parameter([2.0])
    y = parameter([3.0])
    z = (x * y).sum()
    assert z.item() == 6.0
    backward(z)
    assert x.grad == pytest.approx([3.0])
    assert y.grad == pytest.approx([2.0])


def test_log_softmax_uniform():
    out = constant([0.0, 0.0, 0.0, 0.0]).log_softmax()
    assert np.allclose(out.data, -math.log(4.0))


def test_stop_gradient_blocks_flow():
    x = parameter([2.0])
    y = parameter([3.0])
    z = (x.detach() * y).sum()
    backward(z)
    assert x.grad is None
    assert y.grad == pytest.approx([2.0])


def test_backward_rejects_non_scalar():
    x = parameter([1.0, 2.0])
    with pytest.raises(ShapeError):
        backward(x * x)


def test_shape_mismatch_names_both_shapes():
    a = constant(np.zeros((2, 3)))
    b = constant(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as exc:
        nc.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_non_finite_leaf_rejected():
    with pytest.raises(NonFiniteError):
        constant([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        parameter([np.nan])


# -- finite-difference oracle over the op catalogue -------------------------


def _scalarize(t: Tensor, rng: np.random.Generator) -> Tensor:
    w = constant(rng.normal(size=t.shape))
    return (t * w).sum()


# masked_max keep stacks for 4 inputs on 2 rows: one mask per block (K=3, 1,
# n=4), and one mask per row (K=2, rows=2, n=4). 0 drops an input. INDEX
# names the table row each input reads on each row.
SHARED_KEEP = np.array([[[1, 1, 1, 1]], [[1, 0, 1, 1]], [[0, 0, 1, 0]]])
ROW_KEEP = np.array([[[1, 0, 1, 1], [0, 1, 1, 1]], [[1, 1, 0, 0], [1, 1, 1, 1]]])
INDEX = np.array([[1, 0], [0, 0], [1, 1], [0, 1]])


def _gru_scan_case(reverse):
    """gru_scan over S=3 steps of B=2 rows with H=2: xw, Uzr and Un all
    come from a and b, so the gradient reaches each of the three."""

    def op(a, b):
        xw = nc.concat([a, b, a * b], axis=1).reshape(-1)[:36].reshape(3, 2, 6)
        return nc.gru_scan(xw, b[:2], a[2:, 2:], reverse=reverse)

    return op


def _dense_pool_case(a, b):
    """masked_max over a (2, 4, 2) table with repeated indices and input 0
    filled densely: table row 3 of input 1 is read twice, row 1 never, and
    row 2 of block 0 drops input 1."""
    index = np.array([[3, 3, 3], [0, 3, 3]])  # row 0 is a dense input's, not read
    keep = np.array([[[1, 1], [1, 1], [1, 0]], [[0, 1], [0, 1], [0, 1]]])
    return nc.masked_max(a.reshape(2, 4, 2), index, keep, (a * b)[:3, :2].reshape(1, 3, 2), [0])


def _stacked_three_layers(a, b):
    """mlp over maps 3 and 1 of 4 on a (2, 2, 2) stack, three layers deep;
    every weight and bias is made from a and b."""
    maps = lambda t: t.reshape(4, 2, 2)  # noqa: E731
    bias = lambda t: t.reshape(4, 1, 2)  # noqa: E731
    weights = (maps(b), bias(a[2:]), maps(a * b), bias(b[:2]), maps(a + b), bias((a - b)[1:3]))
    return nc.mlp(a[:2].reshape(2, 2, 2), weights, [3, 1])


OP_CASES = {
    "add": lambda a, b: a + b,
    "add_broadcast": lambda a, b: a + b[0:1, :],
    "subtract": lambda a, b: a - b,
    "multiply": lambda a, b: a * b,
    "matmul": lambda a, b: nc.matmul(a, b),
    # One-layer mlp: an affine map on 2-D rows, a batched one on a stack.
    "affine": lambda a, b: nc.mlp(a, (b, b[1])),
    "bmm": lambda a, b: nc.mlp(a.reshape(2, 2, 4), (b.reshape(2, 4, 2), a[3].reshape(2, 1, 2))),
    "bmm_select": lambda a, b: nc.mlp(  # maps 3 and 1 of 4, in that order
        a[:2].reshape(2, 2, 2), (b.reshape(4, 2, 2), a[2:].reshape(4, 1, 2)), [3, 1]
    ),
    "mlp_three_layers": lambda a, b: nc.mlp(a, (b, b[1], a * b, a[2], (a + b)[:, :3], b[0, :3])),
    "mlp_leading_axes": lambda a, b: nc.mlp(a.reshape(2, 2, 4), (b, b[1], (a * b)[:, :3], a[0, :3])),
    "mlp_stacked_select_three_layers": _stacked_three_layers,
    "cross_entropy": lambda a, b: nc.cross_entropy(a * b, np.array([3, 0, 1, 3])),
    "cross_entropy_strided_logits": lambda a, b: nc.cross_entropy(
        nc.transpose(a * b, (1, 0)), np.array([2, 2, 0, 1])
    ),
    "cross_entropy_broadcast_labels": lambda a, b: nc.cross_entropy(
        (a + b).reshape(2, 2, 4), np.array([1, 3])
    ),
    "categorical_kl": lambda a, b: nc.categorical_kl(a * b, a - b),
    "categorical_kl_p_logits": lambda a, b: nc.categorical_kl(  # q is fixed
        a + b, constant(np.linspace(-1.0, 1.0, 16).reshape(4, 4))
    ),
    "categorical_kl_broadcast": lambda a, b: nc.categorical_kl(a[:2], (a * b).reshape(2, 2, 4)),
    "categorical_kl_strided": lambda a, b: nc.categorical_kl(nc.transpose(a * b, (1, 0)), a - b),
    "gumbel_softmax_sample": lambda a, b: nc.gumbel_softmax_sample(
        a * b, 0.7, hard=False, noise=nc.gumbel_noise((4, 4), nc.stream(0, "op-cases"))
    ),
    "concat": lambda a, b: nc.concat([a, b], axis=1),
    "stack": lambda a, b: nc.stack([a, b], axis=1),
    "slice": lambda a, b: a[1:3, ::2] + b[1:3, ::2],
    "slice_repeated_index": lambda a, b: a[np.array([0, 2, 0])] * b[1:],
    "reshape": lambda a, b: (a * b).reshape(-1),
    "tanh": lambda a, b: (a + b).tanh(),
    "sigmoid": lambda a, b: (a * b).sigmoid(),
    "exp": lambda a, b: (a - b).exp(),
    "gru_scan": _gru_scan_case(reverse=False),
    "gru_scan_reverse": _gru_scan_case(reverse=True),
    "log_softmax": lambda a, b: (a * b).log_softmax(),
    "softmax": lambda a, b: (a + b).softmax(),
    "sum_axis": lambda a, b: (a * b).sum(axis=0),
    "mean_axis": lambda a, b: (a + b).mean(axis=1),
    "mean_axes": lambda a, b: (a * b).reshape(2, 2, 4).mean(axis=(0, 2)),
    "masked_max_dense": _dense_pool_case,
    "masked_max_shared": lambda a, b: nc.masked_max((a * b).reshape(4, 2, 2), INDEX, SHARED_KEEP),
    "masked_max_per_row": lambda a, b: nc.masked_max((a + b).reshape(4, 2, 2), INDEX, ROW_KEEP),
    "scale": lambda a, b: (a + b) * 1.7,
    "transpose": lambda a, b: nc.transpose((a * b).reshape(2, 2, 4), (2, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(7)
    a = parameter(rng.normal(size=(4, 4)) * 0.7)
    b = parameter(rng.normal(size=(4, 4)) * 0.7 + 0.1)
    op = OP_CASES[name]

    def f():
        return _scalarize(op(a, b), np.random.default_rng(99))

    errs = check_gradients(f, {"a": a, "b": b})
    assert max(errs.values()) < 1e-4, errs


# numcore exports that are not differentiable ops, and the ops whose
# finite-difference gradcheck is a test of its own rather than an OP_CASES
# entry.
NOT_OPS = {
    "Adam",
    "NonFiniteError",
    "ShapeError",
    "Tensor",
    "backward",
    "check_gradients",
    "constant",
    "finite_difference_grad",
    "grad_enabled",
    "gumbel_block",
    "gumbel_noise",
    "max_relative_error",
    "no_grad",
    "one_hot",
    "parameter",
    "stream",
    "stream_key",
    "stream_uniforms",
}
GRADCHECK_TESTS = {"sample_scan": "test_sample_scan_gradients_match_finite_differences"}


def test_every_differentiable_op_has_a_finite_difference_gradcheck():
    # Every op numcore exports, and every function of its tensor and dists
    # modules that records a tape node (the Tensor methods call these), by
    # name without a trailing underscore (`slice_` is "slice").
    assert NOT_OPS <= set(nc.__all__)
    ops = {name for name in nc.__all__ if name not in NOT_OPS}
    for module in (tensor_module, dists_module):
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and "_finish(" in inspect.getsource(fn)
            ):
                ops.add(name.rstrip("_"))
    assert {"mlp", "cross_entropy", "categorical_kl", "masked_max", "slice"} <= ops

    def checked(op: str) -> bool:
        if any(key == op or key.startswith(op + "_") for key in OP_CASES):
            return True
        return callable(globals().get(GRADCHECK_TESTS.get(op, "")))

    assert sorted(op for op in ops if not checked(op)) == []


_OFF = -1e30  # the offset the reference folds add to drop an input


def _offsets(keep):
    """The float offsets masked_max took before it took a keep stack."""
    return np.where(np.asarray(keep, dtype=bool), 0.0, _OFF)


# -- the pool as numcore computed it before it read the table itself ---------


def _stack_lookup(table, index, dense=None, dense_pos=()):
    """numcore's `lookup`, which the table pool replaced: one node placing
    the (n, rows, F) stack of table rows and dense slices in input order,
    whose backward reduces the stack's gradient to the table with a one-hot
    matmul."""
    n, V, F = table.shape
    dense_pos = np.asarray(dense_pos, dtype=np.intp)
    data = np.take(table.data.reshape(n * V, F), index + np.arange(0, n * V, V)[:, None], axis=0)
    parents = (table,)
    if dense is not None:
        data[dense_pos] = dense.data
        parents = (table, dense)

    def backward_fn(out=None):
        if table.requires_grad:
            hot = (np.arange(V)[:, None] == index[:, None, :]).astype(np.float64)
            hot[dense_pos] = 0.0
            table._accumulate(np.matmul(hot, out.grad))
        if dense is not None and dense.requires_grad:
            dense._accumulate(out.grad[dense_pos])

    return _finish(data, parents, backward_fn)


def _stack_masked_max(x, keep):
    """numcore's stack-input `masked_max`, which the table pool replaced:
    each block folded over the (n, rows, F) stack with a uint8 winner index,
    whose backward scatters the gradient into a stack-sized buffer."""
    kept = np.asarray(keep) == 1
    every = kept.all(axis=1)
    read = kept.any(axis=1) | every
    n, rows, F = x.shape
    data = np.empty((len(kept), rows, F))
    win = np.empty(data.shape, dtype=np.uint8)
    for k in range(len(kept)):
        first, *rest = np.flatnonzero(read[k])
        terms = x.data + np.where(every[k][:, None], 0.0, _offsets(kept[k]).T)[..., None]
        data[k], win[k] = terms[first], first
        for i in rest:
            win[k] = np.maximum(win[k], np.uint8(i) * (terms[i] > data[k]))
            data[k] = np.maximum(data[k], terms[i])

    def backward_fn(out=None):
        bins = win * np.intp(rows * F) + np.arange(rows * F).reshape(rows, F)
        g = np.bincount(bins.ravel(), weights=out.grad.ravel(), minlength=n * rows * F)
        x._accumulate(g.reshape(x.shape))

    return _finish(data, (x,), backward_fn)


def _stack_pool(table, index, keep, dense=None, dense_pos=()):
    return _stack_masked_max(_stack_lookup(table, index, dense, dense_pos), keep)


def _pool_and_grads(pool, table, index, keep, dense, dense_pos, weights):
    """The pool's output and the gradients of (output * weights).sum() to
    the table and the dense slices."""
    table.grad = None
    if dense is not None:
        dense.grad = None
    out = pool(table, index, keep, dense, dense_pos)
    backward((out * constant(weights)).sum())
    return out.data, table.grad, None if dense is None else dense.grad


def _assert_within(got, want, rel=1e-13):
    """Equal to `rel` of `want`'s largest entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)


def _stack_grads_to_inputs(stack_grad, index, V, dense_pos):
    """A gradient of the (n, rows, F) input stack as the table and dense
    gradients: each table row sums the rows that read it."""
    n, _, F = stack_grad.shape
    table_grad = np.zeros((n, V, F))
    for i in sorted(set(range(n)) - set(dense_pos)):
        np.add.at(table_grad[i], index[i], stack_grad[i])
    return table_grad, stack_grad[list(dense_pos)]


def _tied_inputs(rng, n, rows, F, dense_pos, V=3):
    """A (n, V, F) table, an (n, rows) index and dense slices at `dense_pos`
    with forced ties: input 1 reads input 0's rows of a copy of its table
    slice, the last input copies input 1 on half the rows, and about half
    the values are drawn from {-1, 0, 0.5, 1}, as in a saturated tanh."""

    def draw(*shape):
        tied = rng.choice([-1.0, 0.0, 0.5, 1.0], size=shape)
        return np.where(rng.random(shape) < 0.5, tied, rng.normal(size=shape))

    table = draw(n, V, F)
    index = rng.integers(0, V, size=(n, rows))
    table[1], index[1] = table[0], index[0]
    table[-1], index[-1, : rows // 2] = table[1], index[1, : rows // 2]
    dense = draw(len(dense_pos), rows, F)
    return parameter(table), index, parameter(dense) if len(dense_pos) else None


@pytest.mark.parametrize("keep", [SHARED_KEEP, ROW_KEEP], ids=["shared", "per_row"])
def test_masked_max_equals_dense_max(keep):
    rng = np.random.default_rng(5)
    table = rng.normal(size=(4, 3, 3))
    index = rng.integers(0, 3, size=(4, 2))
    x = table[np.arange(4)[:, None], index]  # (n, rows, F) inputs
    dense = x[None] + np.swapaxes(_offsets(keep), 1, 2)[..., None]  # (K, n, rows, F)
    out = nc.masked_max(constant(table), index, keep)
    assert out.shape == (len(keep), 2, 3)
    assert np.array_equal(out.data, dense.max(axis=1))


def test_masked_max_tie_sends_whole_gradient_to_first_kept_maximum():
    # Inputs 0 and 1 tie in both columns, and all three tie in column 0.
    table = parameter([[[0.5, 2.0]], [[0.5, 2.0]], [[0.5, 1.0]]])  # (n=3, V=1, F=2)
    index = np.zeros((3, 1), dtype=np.intp)
    keep = np.array([[[1, 1, 1]], [[0, 1, 1]]])  # all kept; input 0 dropped
    weights = constant([[[1.0, 10.0]], [[100.0, 1000.0]]])
    out = nc.masked_max(table, index, keep)
    assert np.array_equal(out.data, [[[0.5, 2.0]], [[0.5, 2.0]]])
    backward((out * weights).sum())
    assert np.array_equal(table.grad, [[[1.0, 10.0]], [[100.0, 1000.0]], [[0.0, 0.0]]])
    # The same ties with input 1 read from a dense slice.
    table.grad, dense = None, parameter([[[0.5, 2.0]]])
    out = nc.masked_max(table, index, keep, dense, [1])
    backward((out * weights).sum())
    assert np.array_equal(table.grad, [[[1.0, 10.0]], [[0.0, 0.0]], [[0.0, 0.0]]])
    assert np.array_equal(dense.grad, [[[100.0, 1000.0]]])


def _routing_reference_grad(x, offsets, out_data, out_grad):
    """The per-input routing loop masked_max's backward used before it kept
    the winner index: each input takes the gradient still unrouted where its
    term equals the output."""
    cols = offsets[:, :, :, None]
    left = out_grad.copy()  # gradient not yet routed to an earlier input
    g = np.empty_like(x)
    for i in range(len(x)):
        hit = (x[i] + cols[:, :, i]) == out_data
        routed = left * hit
        left -= routed
        g[i] = routed.sum(axis=0)
    return g


def _offset_fold_reference(x, keep, out_grad):
    """masked_max as it was before it took a keep stack: every input of
    every block folded in with its offset added, the winner kept as the
    largest index whose term strictly beat the running max. Returns the
    output and the gradient that winner routes."""
    cols = _offsets(keep)[:, :, :, None]  # (K, 1 or rows, n, 1)
    data = x[0] + cols[:, :, 0]
    win = np.zeros(data.shape, dtype=np.uint8)
    for i in range(1, len(x)):
        term = x[i] + cols[:, :, i]
        win = np.maximum(win, np.uint8(i) * (term > data))
        data = np.maximum(data, term)
    g = np.zeros_like(x)
    for k in range(len(data)):
        for i in range(len(x)):
            g[i] += np.where(win[k] == i, out_grad[k], 0.0)
    return data, g


def _keep_every_row(keep):
    """Keep the last input on each (block, row) that keeps none."""
    keep[..., -1] |= ~keep.any(axis=-1)
    return keep


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per_row"])
def test_masked_max_backward_matches_routing_reference(n, per_row):
    rng = np.random.default_rng(40 + n)
    K, rows, F = 3, 5, 7
    dense_pos = [n // 2]
    table, index, dense = _tied_inputs(rng, n, rows, F, dense_pos)
    keep = rng.random((K, rows if per_row else 1, n)) < 0.6
    keep[0] = True  # block 0 is the full mask
    keep[1, :, 0] = False  # block 1 drops input 0, so its ties go to input 1
    keep = _keep_every_row(keep)
    out = nc.masked_max(table, index, keep, dense, dense_pos)
    with nc.no_grad():
        assert np.array_equal(nc.masked_max(table, index, keep, dense, dense_pos).data, out.data)
    weights = rng.normal(size=out.shape)
    backward((out * constant(weights)).sum())
    x = _stack_lookup(table, index, dense, dense_pos).data
    stack_grad = _routing_reference_grad(x, _offsets(keep), out.data, weights)
    table_grad, dense_grad = _stack_grads_to_inputs(stack_grad, index, 3, dense_pos)
    _assert_within(table.grad, table_grad)
    _assert_within(dense.grad, dense_grad)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per_row"])
def test_masked_max_matches_offset_fold(n, per_row):
    rng = np.random.default_rng(60 + n)
    K, rows, F = 5, 8, 6
    dense_pos = [n - 1, 1]  # out of input order
    table, index, dense = _tied_inputs(rng, n, rows, F, dense_pos)
    keep = rng.random((K, rows if per_row else 1, n)) < 0.5  # mixed columns on per-row stacks
    keep[0] = True  # every input kept everywhere
    keep[1] = True
    keep[1, :, 0] = False  # input 0 dropped everywhere, so its ties go to input 1
    keep[2, :, 1] = True  # input 1 kept everywhere, the last input dropped
    keep[2, :, -1] = False  # everywhere, the others drawn
    keep[3, :, :] = False  # only the last input: every term before it is skipped
    keep[3, :, -1] = True
    keep = _keep_every_row(keep)
    weights = rng.normal(size=(K, rows, F))
    x = _stack_lookup(table, index, dense, dense_pos).data
    ref_out, stack_grad = _offset_fold_reference(x, keep, weights)
    table_grad, dense_grad = _stack_grads_to_inputs(stack_grad, index, 3, dense_pos)
    out = nc.masked_max(table, index, keep.astype(np.float64), dense, dense_pos)
    backward((out * constant(weights)).sum())
    assert np.array_equal(out.data, ref_out)
    _assert_within(table.grad, table_grad)
    _assert_within(dense.grad, dense_grad)
    with nc.no_grad():
        assert np.array_equal(nc.masked_max(table, index, keep, dense, dense_pos).data, ref_out)


def _offset_drop_reference(table, index, keep, dense, dense_pos, out_grad):
    """masked_max as it dropped an input before it wrote -1e30 into the
    dropped rows: a block that keeps input i on some rows only folds in
    x_i + where(kept, 0, -1e30), one that keeps it on every row folds in
    x_i, one that drops it on every row skips it, and a term moves the
    winner only where it is strictly larger. Returns the output and the
    table and dense gradients of (output * out_grad).sum(), each summed in
    (block, row, feature) order, as masked_max's bincount sums them."""
    x = _stack_lookup(table, index, dense, dense_pos).data
    n, rows, F = x.shape
    kept = np.broadcast_to(np.asarray(keep) == 1, (len(keep), rows, n))
    data = np.empty((len(keep), rows, F))
    win = np.empty(data.shape, dtype=np.intp)
    for k in range(len(keep)):
        read = [i for i in range(n) if kept[k, :, i].any()]
        for i in read:
            term = x[i] if kept[k, :, i].all() else x[i] + _offsets(kept[k, :, i])[:, None]
            if i == read[0]:
                data[k], win[k] = term, i
            else:
                win[k] = np.where(term > data[k], i, win[k])
                data[k] = np.maximum(data[k], term)
    table_grad, dense_grad = np.zeros(table.shape), np.zeros((len(dense_pos), rows, F))
    slot = {p: q for q, p in enumerate(dense_pos)}
    for (k, r, f), i in np.ndenumerate(win):
        if i in slot:
            dense_grad[slot[i], r, f] += out_grad[k, r, f]
        else:
            table_grad[i, index[i, r], f] += out_grad[k, r, f]
    return data, table_grad, dense_grad


def test_masked_max_writing_dropped_rows_equals_the_offset_formula():
    # Tied and saturated (+-1.0) features, as tanh gives them, on a mixed
    # per-row keep stack: every block drops some input on some rows only.
    rng = np.random.default_rng(70)
    n, K, rows, F = 6, 4, 12, 5
    dense_pos = [3, 0]
    table, index, dense = _tied_inputs(rng, n, rows, F, dense_pos)
    table.data[:, 0] = 1.0
    dense.data[:, ::3] = -1.0
    keep = _keep_every_row(rng.random((K, rows, n)) < 0.5)
    keep[:, 0, :] = True  # no block drops an input on every row: every drop is on a mixed column
    weights = rng.normal(size=(K, rows, F))
    ref_out, table_grad, dense_grad = _offset_drop_reference(
        table, index, keep, dense, dense_pos, weights
    )
    out = nc.masked_max(table, index, keep, dense, dense_pos)
    backward((out * constant(weights)).sum())
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(table.grad, table_grad)
    assert np.array_equal(dense.grad, dense_grad)


@pytest.mark.parametrize("dense_pos", [[], [2], [4, 0]], ids=["table", "one_dense", "two_dense"])
@pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per_row"])
def test_masked_max_matches_lookup_then_stack_max(dense_pos, per_row):
    rng = np.random.default_rng(80 + len(dense_pos) + 3 * per_row)
    n, K, rows, F = 5, 4, 9, 6
    table, index, dense = _tied_inputs(rng, n, rows, F, dense_pos, V=4)
    keep = _keep_every_row(rng.random((K, rows if per_row else 1, n)) < 0.5)
    keep[0] = True
    weights = rng.normal(size=(K, rows, F))
    args = (table, index, keep, dense, dense_pos, weights)
    out, table_grad, dense_grad = _pool_and_grads(nc.masked_max, *args)
    ref_out, ref_table_grad, ref_dense_grad = _pool_and_grads(_stack_pool, *args)
    assert np.array_equal(out, ref_out)
    with nc.no_grad():
        assert np.array_equal(nc.masked_max(table, index, keep, dense, dense_pos).data, ref_out)
    _assert_within(table_grad, ref_table_grad)
    if dense_pos:
        _assert_within(dense_grad, ref_dense_grad)


def test_slice_gradient_sums_repeated_indices():
    x = parameter([1.0, 2.0, 3.0])
    backward(x[np.array([0, 0])].sum())
    assert np.array_equal(x.grad, [2.0, 0.0, 0.0])
    y = parameter(np.ones((2, 3)))
    backward((y[[1, 1, 0], 1:] * constant(np.arange(6.0).reshape(3, 2))).sum())
    assert np.array_equal(y.grad, [[0.0, 4.0, 5.0], [0.0, 2.0, 4.0]])


def test_masked_max_reads_table_rows_and_dense_slices_in_input_order():
    table = parameter(np.arange(24.0).reshape(3, 4, 2))  # (n=3, V=4, F=2)
    dense = parameter(-np.ones((1, 5, 2)))
    index = np.array([[0, 1, 2, 3, 3], [0, 0, 0, 0, 0], [2, 2, 1, 0, 3]])
    keep = np.eye(3)[:, None]  # block k keeps input k alone
    out = nc.masked_max(table, index, keep, dense, [1])
    assert np.array_equal(out.data[0], table.data[0, index[0]])
    assert np.array_equal(out.data[1], dense.data[0])
    assert np.array_equal(out.data[2], table.data[2, index[2]])
    with nc.no_grad():
        assert np.array_equal(nc.masked_max(table, index, keep, dense, [1]).data, out.data)
    g = np.random.default_rng(3).normal(size=out.shape)
    backward((out * constant(g)).sum())
    expected = np.zeros_like(table.data)
    for i in (0, 2):
        np.add.at(expected[i], index[i], g[i])
    assert np.allclose(table.grad, expected, rtol=0, atol=1e-15)
    assert np.array_equal(dense.grad, g[1:2])


def _names_every_shape(exc, *tensors):
    """`exc` names the shape of every tensor it was raised on."""
    return all(str(t.shape) in str(exc.value) for t in tensors)


def test_masked_max_and_mlp_select_reject_bad_input():
    table, dense = constant(np.zeros((3, 4, 2))), constant(np.zeros((1, 5, 2)))
    index = np.zeros((3, 5), dtype=np.intp)
    keep = np.ones((1, 1, 3))
    with pytest.raises(ShapeError, match="masked_max"):
        nc.masked_max(table, index[:, :4], keep, dense, [1])  # 4 index rows for 5 dense rows
    with pytest.raises(ShapeError, match="dense_pos"):
        nc.masked_max(table, index, keep, dense, [0, 1])
    index[2, 3] = 4
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        nc.masked_max(table, index, keep, dense, [1])
    x, W, b = constant(np.zeros((2, 3, 4))), constant(np.zeros((3, 4, 2))), constant(np.zeros((3, 1, 2)))
    assert nc.mlp(x, (W, b), [2, 0]).shape == (2, 3, 2)
    with pytest.raises(ValueError, match="distinct"):
        nc.mlp(x, (W, b), [1, 1])
    with pytest.raises(ShapeError, match=r"select \[1\]") as exc:
        nc.mlp(x, (W, b), [1])
    assert _names_every_shape(exc, x, W, b)
    with pytest.raises(ShapeError, match="select"):  # select needs a stack
        nc.mlp(constant(np.zeros((3, 4))), (constant(np.zeros((4, 2))), constant(np.zeros(2))), [0])
    with pytest.raises(ValueError, match=r"\(W, b\) pairs, got 3"):
        nc.mlp(x, (W, b, W), [2, 0])
    with pytest.raises(ValueError, match=r"\(W, b\) pairs, got 0"):
        nc.mlp(x, ())


@pytest.mark.parametrize(
    "dense_pos, message",
    [
        ([1, 1], "dense position 1 is given twice"),
        ([1, -1], r"dense position -1 is outside \[0, 3\)"),
        ([1, 5], r"dense position 5 is outside \[0, 3\)"),
        ([1, 1.5], r"dense positions must be integers, got \[1.0, 1.5\]"),
        ([True, False], r"dense positions must be integers, got \[True, False\]"),
    ],
    ids=["duplicate", "negative", "out_of_range", "float", "bool"],
)
def test_masked_max_refuses_bad_dense_position_by_name(dense_pos, message):
    table, dense = parameter(np.zeros((3, 4, 2))), parameter(np.zeros((2, 5, 2)))
    index = np.zeros((3, 5), dtype=np.intp)
    with pytest.raises(ValueError, match=message):
        nc.masked_max(table, index, np.ones((1, 1, 3)), dense, dense_pos)


def test_masked_max_routes_sources_past_8_and_16_bits():
    # 300 inputs, the last one largest: its source row needs more than a byte.
    n = 300
    table = parameter(np.arange(n, dtype=np.float64).reshape(n, 1, 1))
    out = nc.masked_max(table, np.zeros((n, 1), dtype=np.intp), np.ones((1, 1, n)))
    backward(out.sum())
    assert np.array_equal(table.grad.ravel(), np.eye(n)[-1])
    # Inputs of 40000 table rows: input 1's row 39999 is buffer row 79999.
    table = parameter(np.zeros((3, 40000, 1)))
    table.data[1, -1] = 1.0
    dense = parameter(np.full((1, 1, 1), -1.0))
    out = nc.masked_max(table, np.array([[0], [39999], [0]]), np.ones((1, 1, 3)), dense, [2])
    backward(out.sum())
    assert table.grad[1, -1, 0] == 1.0 and table.grad.sum() == 1.0
    assert np.array_equal(dense.grad, [[[0.0]]])


@pytest.mark.parametrize("keep_rows", [0, 1])
def test_masked_max_pools_zero_rows(keep_rows):
    table, dense = parameter(np.zeros((3, 2, 4))), parameter(np.zeros((1, 0, 4)))
    index = np.zeros((3, 0), dtype=np.intp)
    out = nc.masked_max(table, index, np.ones((2, keep_rows, 3)), dense, [2])
    assert out.shape == (2, 0, 4)
    backward(out.sum())
    assert table.grad.shape == (3, 2, 4) and not table.grad.any()
    assert dense.grad.shape == (1, 0, 4)


@pytest.mark.parametrize(
    "keep, message",
    [
        ([[[1, 1, 1]], [[0, 0, 0]]], "block 1, row 0 .* keeps no input"),
        ([[[1, 1, 1], [1, 0, 1]], [[0, 1, 0], [0, 0, 0]]], "block 1, row 1 .* keeps no input"),
        # Empty in block 1, row 0 and block 0, row 2: the first (block, row) is named.
        (
            [[[1, 1, 1], [1, 1, 1], [0, 0, 0]], [[0, 0, 0], [1, 1, 1], [0, 0, 0]]],
            "block 0, row 2 .* keeps no input",
        ),
        ([[[1, 0.5, 1]]], "only 0 and 1"),
        ([[[1, 2, 0]]], "only 0 and 1"),
        ([[[1, -1, 1]]], "only 0 and 1"),
        ([[[1, np.nan, 1]]], "only 0 and 1"),
    ],
    ids=["shared_row", "per_row", "first_of_several", "half", "two", "minus_one", "nan"],
)
def test_masked_max_refuses_bad_keep_values(keep, message):
    keep = np.array(keep)
    table = parameter(np.zeros((3, 2, 4)))
    rows = keep.shape[1]
    with pytest.raises(ValueError, match=message):
        nc.masked_max(table, np.zeros((3, rows), dtype=np.intp), keep)


def test_masked_max_and_mlp_reject_bad_shapes():
    x = constant(np.zeros((3, 2, 4)))  # also the table of 3 inputs on 2 rows
    index = np.zeros((3, 2), dtype=np.intp)
    with pytest.raises(ShapeError, match="keep stack"):
        nc.masked_max(x, index, np.ones((2, 1, 4)))  # 4 keep columns for 3 inputs
    with pytest.raises(ShapeError, match="rows"):
        nc.masked_max(x, index, np.ones((2, 5, 3)))  # 5 keep rows for 2 rows
    with pytest.raises(ShapeError, match="masked_max"):
        nc.masked_max(x, index[:2], np.ones((2, 1, 3)))  # 2 index rows for 3 inputs
    W2, b2 = constant(np.zeros((2, 4, 1))), constant(np.zeros((2, 1, 1)))
    with pytest.raises(ShapeError, match="mlp") as exc:
        nc.mlp(x, (W2, b2))  # 2 maps for 3
    assert _names_every_shape(exc, x, W2, b2)
    W = constant(np.zeros((3, 4, 5)))
    for bias in [(3, 5), (3, 2, 5), (1, 1, 5), (3, 1, 4)]:  # the bias must be (3, 1, 5)
        b = constant(np.zeros(bias))
        with pytest.raises(ShapeError, match="mlp") as exc:
            nc.mlp(x, (W, b))
        assert _names_every_shape(exc, x, W, b)
    b = constant(np.zeros((3, 1, 5)))
    assert nc.mlp(x, (W, b)).shape == (3, 2, 5)
    # A second layer must take 5 columns, with the same 3 maps.
    for W1 in [constant(np.zeros((3, 4, 2))), constant(np.zeros((2, 5, 2))), constant(np.zeros((5, 2)))]:
        b1 = constant(np.zeros((W1.shape[0], 1, 2)))
        with pytest.raises(ShapeError, match="mlp") as exc:
            nc.mlp(x, (W, b, W1, b1))
        assert _names_every_shape(exc, x, W, b, W1, b1)
    assert nc.mlp(x, (W, b, constant(np.zeros((3, 5, 2))), constant(np.zeros((3, 1, 2))))).shape == (3, 2, 2)


def test_mlp_and_gru_scan_reject_bad_shapes():
    x = constant(np.zeros((3, 4)))
    z = lambda *shape: constant(np.zeros(shape))  # noqa: E731
    for weights in [
        (z(4, 2), z(3)),  # the bias is not (2,)
        (z(3, 2), z(2)),  # 3 weight rows for 4 columns
        (z(4, 2), z(2), z(3, 5), z(5)),  # the second layer takes 3 columns, not 2
        (z(4, 2), z(2), z(2, 5), z(1, 5)),  # a stacked bias on 2-D rows
        (z(1, 4, 2), z(1, 1, 2)),  # a stacked map on 2-D rows
    ]:
        with pytest.raises(ShapeError, match="mlp") as exc:
            nc.mlp(x, weights)
        assert _names_every_shape(exc, x, *weights)
    assert nc.mlp(x, (z(4, 2), z(2), z(2, 5), z(5))).shape == (3, 5)
    Uzr, Un = constant(np.zeros((2, 4))), constant(np.zeros((2, 2)))  # H = 2
    with pytest.raises(ShapeError, match="gru_scan"):
        nc.gru_scan(constant(np.zeros((4, 3, 5))), Uzr, Un)  # last axis 5, not 3H = 6
    with pytest.raises(ShapeError, match="gru_scan"):
        nc.gru_scan(constant(np.zeros((3, 6))), Uzr, Un)  # no step axis
    nc.gru_scan(constant(np.zeros((4, 3, 6))), Uzr, Un)


# -- fused dense layers and losses against the node chains they replaced --------


def _affine(x, W, b):
    """numcore's `affine`, which `mlp` replaced: x @ W + b as one node."""
    data = x.data @ W.data
    data += b.data

    def backward_fn(out=None):
        g = out.grad
        if x.requires_grad:
            x._accumulate(g @ W.data.T)
        if W.requires_grad:
            W._accumulate(x.data.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _finish(data, (x, W, b), backward_fn)


def _bmm(x, W, b, select=None):
    """numcore's `bmm`, which `mlp` replaced: (n, r, k) @ (n, k, m) plus an
    (n, 1, m) bias as one node, with W[select] and b[select] when given."""
    Wd, bd = W.data, b.data
    if select is not None:
        Wd, bd = Wd[select], bd[select]
    data = np.matmul(x.data, Wd)
    data += bd

    def picked(g, shape):
        if select is None:
            return g
        full = np.zeros(shape)
        full[select] = g
        return full

    def backward_fn(out=None):
        g = out.grad
        if x.requires_grad:
            x._accumulate(np.matmul(g, Wd.transpose(0, 2, 1)))
        if W.requires_grad:
            W._accumulate(picked(np.matmul(x.data.transpose(0, 2, 1), g), W.shape))
        if b.requires_grad:
            b._accumulate(picked(g.sum(axis=1, keepdims=True), b.shape))

    return _finish(data, (x, W, b), backward_fn)


def _layer_chain(x, weights, select=None):
    """The dense layers as they ran before `mlp`: an `affine` or `bmm` node
    per layer and a `tanh` node between them."""
    for i in range(0, len(weights), 2):
        if i:
            x = x.tanh()
        if x.data.ndim == 2:
            x = _affine(x, weights[i], weights[i + 1])
        else:
            x = _bmm(x, weights[i], weights[i + 1], select)
    return x


def _cross_entropy_chain(logits, labels):
    """`cross_entropy` as five nodes: -(one_hot * log_softmax).sum(-1)."""
    target = constant(nc.one_hot(labels, logits.shape[-1]))
    return -(target * logits.log_softmax()).sum(axis=-1)


def _categorical_kl_chain(p_logits, q_logits):
    """`categorical_kl` as six nodes: (exp(lp) * (lp - lq)).sum(-1)."""
    lp, lq = p_logits.log_softmax(), q_logits.log_softmax()
    return (lp.exp() * (lp - lq)).sum(axis=-1)


def _value_and_grads(fn, leaves, weights):
    """fn()'s values and the gradients of (fn() * weights).sum() to `leaves`."""
    for t in leaves:
        t.grad = None
    out = fn()
    backward((out * constant(weights)).sum())
    return out.data, [t.grad for t in leaves]


def _assert_same_bits(fused, chain, leaves, rng):
    out = fused()
    assert out.data.flags.c_contiguous  # a later reduction sums in C order
    weights = rng.normal(size=out.shape)
    (got, got_grads), (want, want_grads) = (
        _value_and_grads(fn, leaves, weights) for fn in (fused, chain)
    )
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert w is not None and np.array_equal(g, w)


# The dense layers of the benchmark's training configs (chain3 and full5,
# l=4, B=64, T=5, hidden 64, embed 16), as (input shape, layer widths, maps
# of a stack, select): the transition heads on K=3 blocks of 320 rows, the
# reward head, the GRU input projection over 6 steps, the window net, and
# the stacked extractors on the table basis and, with `select`, on the
# hidden slices.
DENSE_CASES = {
    "transition_head": ((960, 64), [64, 4], None, None),
    "reward_head": ((320, 8), [64, 64, 2], None, None),
    "gru_projection": ((384, 11), [192], None, None),
    "window_net": ((384, 22), [64, 64, 4], None, None),
    "chain3_table": ((4, 5, 4), [16, 64], 4, None),
    "chain3_hidden": ((1, 320, 4), [16, 64], 4, [1]),
    "full5_table": ((6, 6, 5), [16, 64], 6, None),
    "full5_hidden": ((1, 320, 5), [16, 64], 6, [4]),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_mlp_equals_layer_chain_bit_for_bit(case):
    shape, widths, maps, select = DENSE_CASES[case]
    rng = np.random.default_rng(31)
    x = parameter(rng.normal(size=shape))
    stack = () if maps is None else (maps,)
    dims = [shape[-1], *widths]
    weights = []
    for d_in, d_out in zip(dims, dims[1:]):
        weights.append(parameter(rng.normal(size=(*stack, d_in, d_out)) / np.sqrt(d_in)))
        weights.append(parameter(0.1 * rng.normal(size=(*stack, 1, d_out) if stack else d_out)))
    leaves = [x, *weights]
    fused = lambda: nc.mlp(x, weights, select)  # noqa: E731
    _assert_same_bits(fused, lambda: _layer_chain(x, weights, select), leaves, rng)
    x.requires_grad = False  # the table basis is a constant
    _assert_same_bits(fused, lambda: _layer_chain(x, weights, select), weights, rng)


@pytest.mark.parametrize("shape", [(3, 320, 4), (2, 320, 4), (320, 2)], ids=["K3", "K2", "reward"])
def test_cross_entropy_equals_node_chain_bit_for_bit(shape):
    rng = np.random.default_rng(32)
    logits = parameter(3.0 * rng.normal(size=shape))
    labels = rng.integers(0, shape[-1], size=320)
    for reduce in (lambda t: t, lambda t: t.mean(axis=-1)):
        _assert_same_bits(
            lambda: reduce(nc.cross_entropy(logits, labels)),
            lambda: reduce(_cross_entropy_chain(logits, labels)),
            [logits],
            rng,
        )


@pytest.mark.parametrize("K", [3, 2])
def test_categorical_kl_equals_node_chain_bit_for_bit(K):
    rng = np.random.default_rng(33)
    p = parameter(3.0 * rng.normal(size=(320, 4)))
    q = parameter(3.0 * rng.normal(size=(K, 320, 4)))
    for fused, chain in [
        (lambda: nc.categorical_kl(p, q), lambda: _categorical_kl_chain(p, q)),
        (lambda: nc.categorical_kl(q, p), lambda: _categorical_kl_chain(q, p)),
    ]:
        _assert_same_bits(fused, chain, [p, q], rng)
        _assert_same_bits(
            lambda: fused().mean(axis=-1), lambda: chain().mean(axis=-1), [p, q], rng
        )


def test_fused_losses_refuse_shapes_by_name():
    with pytest.raises(ShapeError, match=r"labels \(3,\) .* logits \(2, 4\)"):
        nc.cross_entropy(constant(np.zeros((2, 4))), np.array([0, 1, 2]))
    for p, q in [((2, 4), (3, 4)), ((2, 4), (2, 3)), ((), ())]:
        with pytest.raises(ShapeError, match=re.escape(f"p logits {p} and q logits {q}")):
            nc.categorical_kl(constant(np.zeros(p)), constant(np.zeros(q)))


# -- category-axis kernels and the losses as numpy computed them ---------------


def _loop_fold(x, op):
    """op over the last axis of x, one Python float at a time, left to right."""
    out = np.empty(x.shape[:-1])
    for idx in np.ndindex(out.shape):
        acc = float(x[idx + (0,)])
        for c in range(1, x.shape[-1]):
            acc = op(acc, float(x[idx + (c,)]))
        out[idx] = acc
    return out


def _category_inputs(rng, l):
    """Arrays with l categories on the last axis: 1-D (its slabs and sum
    are 0-d), contiguous, and strided along the category axis or the rows.
    Magnitudes span six decades, so that the order of a sum shows."""

    def draw(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)

    strided = [draw(l, 7).T, draw(4, 2 * l)[:, ::2], draw(6, 5, l)[::2]]
    return [draw(l), draw(1, l), draw(5, 3, l), *strided]


@pytest.mark.parametrize("l", range(2, 10))
def test_category_kernels_fold_left_to_right(l):
    # Against Python loops, not np.sum, whose order is numpy's own choice.
    rng = np.random.default_rng(100 + l)
    for x in _category_inputs(rng, l):
        major = tensor_module._category_major(x)
        assert major.flags.c_contiguous and np.array_equal(tensor_module._category_last(major), x)
        total = tensor_module._category_sum(x)
        assert total.shape == x.shape[:-1] and total.flags.c_contiguous
        assert np.array_equal(total, _loop_fold(x, operator.add))
        assert np.array_equal(tensor_module._fold(major, np.maximum), _loop_fold(x, max))
        shifted = x - _loop_fold(x, max)[..., None]
        want = shifted - np.log(_loop_fold(np.exp(shifted), operator.add))[..., None]
        got = tensor_module._log_softmax(x)
        assert got.flags.c_contiguous and np.array_equal(got, want)


def _numpy_log_softmax(x):
    """`_log_softmax` as it was before it ran category-major: numpy's
    reductions over the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _numpy_cross_entropy(logits, labels):
    """`cross_entropy` as it was before it ran category-major."""
    k = logits.shape[-1]
    picked = np.broadcast_to(labels, logits.shape[:-1]).astype(np.intp)
    picked = picked.ravel() + np.arange(0, picked.size * k, k)
    ls = np.ascontiguousarray(_numpy_log_softmax(logits.data))
    data = np.take(ls, picked).reshape(logits.shape[:-1])
    np.negative(data, out=data)

    def backward_fn(out=None):
        g = out.grad
        d = np.exp(ls)
        d *= g[..., None]
        d.reshape(-1)[picked] -= g.ravel()
        logits._accumulate(d)

    return _finish(data, (logits,), backward_fn)


def _numpy_categorical_kl(p_logits, q_logits):
    """`categorical_kl` as it was before it ran category-major."""
    lp, lq = _numpy_log_softmax(p_logits.data), _numpy_log_softmax(q_logits.data)
    p = np.exp(lp)
    d = lp - lq
    data = np.asarray((p * d).sum(axis=-1), order="C")

    def backward_fn(out=None):
        g = out.grad[..., None]
        gd = g * p
        if p_logits.requires_grad:
            glp = _sum_to_shape(gd, lp.shape) + _sum_to_shape(g * d, p.shape) * p
            p_logits._accumulate(glp - p * glp.sum(axis=-1, keepdims=True))
        if q_logits.requires_grad:
            glq = _sum_to_shape(-gd, lq.shape)
            q_logits._accumulate(glq - np.exp(lq) * glq.sum(axis=-1, keepdims=True))

    return _finish(data, (p_logits, q_logits), backward_fn)


@pytest.mark.parametrize("shape", [(3, 320, 4), (320, 2)], ids=["transition", "reward"])
def test_losses_equal_their_numpy_formulas_bit_for_bit(shape):
    # The training shapes: three mask blocks of 320 rows at l = 4 (against
    # one (320, 4) array of encoder logits for the KL), and the reward's 2.
    rng = np.random.default_rng(34)
    logits = parameter(3.0 * rng.normal(size=shape))
    other = parameter(3.0 * rng.normal(size=shape[-2:]))
    labels = rng.integers(0, shape[-1], size=320)
    _assert_same_bits(
        lambda: nc.cross_entropy(logits, labels),
        lambda: _numpy_cross_entropy(logits, labels),
        [logits],
        rng,
    )
    for p, q in [(other, logits), (logits, other)]:
        _assert_same_bits(
            lambda: nc.categorical_kl(p, q), lambda: _numpy_categorical_kl(p, q), [p, q], rng
        )


def test_mlp_leading_axes_equal_flattened_rows_bit_for_bit():
    # The transition head on K = 3 blocks of 320 rows, the GRU's input
    # projection and the window net over 6 steps of 64 episodes.
    rng = np.random.default_rng(35)
    cases = [((3, 320, 64), [64, 4]), ((6, 64, 11), [192]), ((6, 64, 22), [64, 64, 4])]
    for shape, widths in cases:
        x = parameter(rng.normal(size=shape))
        dims = [shape[-1], *widths]
        weights = []
        for d_in, d_out in zip(dims, dims[1:]):
            weights.append(parameter(rng.normal(size=(d_in, d_out)) / np.sqrt(d_in)))
            weights.append(parameter(0.1 * rng.normal(size=d_out)))
        rows = lambda: nc.mlp(x.reshape(-1, shape[-1]), weights).reshape(*shape[:-1], -1)  # noqa: E731
        _assert_same_bits(lambda: nc.mlp(x, weights), rows, [x, *weights], rng)


def _where_sigmoid(x):
    """The two-branch formula `_sigmoid` used before it picked the numerator
    with `maximum`."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _gru_scan_reference(xw, Uzr, Un, reverse):
    """gru_scan's forward as it was before it ran in scratch buffers: a
    fresh array per operation of each step."""
    S, B, H3 = xw.shape
    H = H3 // 3
    out = np.empty((S, B, H))
    h = np.zeros((B, H))
    for s in range(S - 1, -1, -1) if reverse else range(S):
        zr = _where_sigmoid(xw[s, :, : 2 * H] + h @ Uzr)
        z, r = zr[:, :H], zr[:, H:]
        n = np.tanh(xw[s, :, 2 * H :] + (r * h) @ Un)
        h = out[s] = (1.0 - z) * n + z * h
    return out


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("taped", [True, False])
def test_gru_scan_forward_matches_per_step_formula(reverse, taped):
    rng = np.random.default_rng(21)
    S, B, H = 5, 16, 8
    # Half the pre-activations sit near +-40, where the gates saturate.
    xw = rng.normal(size=(S, B, 3 * H))
    far = rng.random(size=xw.shape) < 0.5
    xw[far] += 40.0 * rng.choice([-1.0, 1.0], size=far.sum())
    Uzr, Un = rng.normal(size=(H, 2 * H)), rng.normal(size=(H, H))
    args = [parameter(x) for x in (xw, Uzr, Un)]
    if taped:
        out = nc.gru_scan(*args, reverse=reverse)
        assert out.requires_grad
    else:
        with nc.no_grad():
            out = nc.gru_scan(*args, reverse=reverse)
        assert not out.requires_grad
    assert np.array_equal(out.data, _gru_scan_reference(xw, Uzr, Un, reverse))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("S", [1, 5])
def test_unrecorded_gru_scan_equals_the_recorded_forward(reverse, S):
    # Unrecorded, the gates of each step live in one scratch slot instead
    # of their own; the states must not move by a bit.
    rng = np.random.default_rng(23)
    B, H = 16, 8
    xw = rng.normal(size=(S, B, 3 * H))
    Uzr, Un = rng.normal(size=(H, 2 * H)), rng.normal(size=(H, H))
    recorded = nc.gru_scan(*(parameter(x) for x in (xw, Uzr, Un)), reverse=reverse)
    assert recorded.requires_grad
    with nc.no_grad():
        under_no_grad = nc.gru_scan(*(parameter(x) for x in (xw, Uzr, Un)), reverse=reverse)
    on_constants = nc.gru_scan(*(constant(x) for x in (xw, Uzr, Un)), reverse=reverse)
    for out in (under_no_grad, on_constants):
        assert not out.requires_grad and out.data.flags.c_contiguous
        assert out.data.tobytes() == recorded.data.tobytes()


def test_unrecorded_gru_scan_peak_is_its_output_and_step_scratch(traced_peak):
    # identify's held-out evaluation shape. A recorded scan keeps (S, B, 3H)
    # gates beside its (S, B, H) output; an unrecorded one keeps one step's.
    S, B, H = 6, 512, 64
    rng = np.random.default_rng(24)
    xw = constant(rng.normal(size=(S, B, 3 * H)))
    Uzr, Un = constant(0.2 * rng.normal(size=(H, 2 * H))), constant(0.2 * rng.normal(size=(H, H)))
    traced = traced_peak(lambda: nc.gru_scan(xw, Uzr, Un))
    step_block = B * 3 * H * 8
    assert traced.result.data.nbytes == S * B * H * 8
    assert traced.peak < traced.result.data.nbytes + 5 * step_block, traced.peak


# -- sample_scan ------------------------------------------------------------------

def _sample_scan_args(S=3, B=2, H=3, d_h=2, l=3, d=2, P=4, C=5):
    """sample_scan inputs with every tensor a parameter, as keyword arguments."""
    rng = np.random.default_rng(11)
    p = lambda *shape: parameter(0.6 * rng.normal(size=shape))  # noqa: E731
    return {
        "g": p(S, B, H),
        "steps": p(S, B, d),
        "context0": p(H),
        "past": (p(d_h * l + d, P), p(P), p(P, H), p(H)),
        "combiner": (p(2 * H, C), p(C), p(C, d_h * l), p(d_h * l)),
        "noise": nc.gumbel_noise((S, B, d_h, l), nc.stream(0, "sample-scan")),
    }


def test_sample_scan_gradients_match_finite_differences():
    args = _sample_scan_args()
    params = {name: args[name] for name in ("g", "steps", "context0")}
    for net in ("past", "combiner"):
        params.update({f"{net}.{n}": t for n, t in zip(("W0", "b0", "W1", "b1"), args[net])})

    def f():
        out = nc.sample_scan(**args, temperature=0.7, hard=False)
        return _scalarize(out, np.random.default_rng(99))

    errs = check_gradients(f, params)
    assert len(errs) == 11
    assert max(errs.values()) < 1e-4, errs


@pytest.mark.parametrize("hard", [True, False])
def test_sample_scan_untaped_forward_equals_taped_forward(hard):
    args = _sample_scan_args(S=5, B=8)
    taped = nc.sample_scan(**args, temperature=0.7, hard=hard)
    assert taped.requires_grad
    with nc.no_grad():
        plain = nc.sample_scan(**args, temperature=0.7, hard=hard)
    assert not plain.requires_grad
    assert np.array_equal(plain.data, taped.data)
    if hard:
        assert np.all(taped.data[1].sum(axis=-1) == 1.0)


def test_sample_scan_rejects_bad_temperature_noise_and_weights():
    args = _sample_scan_args()  # S=3, B=2, H=3, d_h=2, l=3, d=2, P=4, C=5
    for temperature in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature"):
            nc.sample_scan(**args, temperature=temperature, hard=True)
    for shape in [(3, 2, 6), (4, 2, 2, 3), (3, 1, 2, 3), (3, 2, 2, 4)]:
        with pytest.raises(ShapeError, match=rf"noise \({shape[0]}, {shape[1]}"):
            nc.sample_scan(**{**args, "noise": np.zeros(shape)}, temperature=1.0, hard=True)
    for bad in (np.nan, np.inf):
        noise = args["noise"].copy()
        noise[2, 1, 0, 2] = bad
        with pytest.raises(NonFiniteError, match="noise"):
            nc.sample_scan(**{**args, "noise": noise}, temperature=1.0, hard=True)
    W0, b0, W1, b1 = args["past"]
    V0, c0, V1, c1 = args["combiner"]
    z = lambda *shape: constant(np.zeros(shape))  # noqa: E731
    for field, value in [
        ("g", z(3, 2)),
        ("steps", z(2, 2, 2)),
        ("context0", z(4)),
        ("past", (z(7, 4), b0, W1, b1)),  # needs d_h*l + d = 8 rows
        ("past", (W0, b0, z(4, 2), b1)),
        ("combiner", (z(5, 5), c0, V1, c1)),  # needs 2H = 6 rows
        ("combiner", (V0, c0, V1, z(5))),
    ]:
        with pytest.raises(ShapeError, match="sample_scan"):
            nc.sample_scan(**{**args, field: value}, temperature=1.0, hard=True)


def _masked_sigmoid(x):
    """The boolean-mask formula the sigmoid op used before `_sigmoid`."""
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_helper_matches_masked_formula_bit_for_bit():
    edges = [800.0, -800.0, 745.0, -745.0, 709.0, -709.0, 36.8, -36.8, 0.0, -0.0, 1e-300, -1e-300]
    x = np.concatenate([np.random.default_rng(12).normal(size=2000) * 8, edges])
    assert np.array_equal(_sigmoid(x), _masked_sigmoid(x))
    block = x[:2000].reshape(40, 50)  # a (B, 2H) block, as gru_scan passes it
    assert np.array_equal(_sigmoid(block), _masked_sigmoid(block.ravel()).reshape(40, 50))
    assert np.array_equal(_sigmoid(np.array([800.0, -800.0])), [1.0, 0.0])
    assert np.array_equal(constant(x).sigmoid().data, _masked_sigmoid(x))
    assert np.array_equal(_sigmoid(x), _where_sigmoid(x))
    buf = np.full_like(block, np.nan)  # the out= form gru_scan uses
    assert _sigmoid(block, out=buf) is buf
    assert np.array_equal(buf, _masked_sigmoid(block.ravel()).reshape(40, 50))
    assert np.array_equal(block, x[:2000].reshape(40, 50))  # the input is not written


def test_accumulated_gradient_is_not_aliased_between_parents():
    x = parameter(np.ones(3))
    y = parameter(np.ones(3))
    backward((x + y).sum())  # add hands one gradient array to both parents
    y_before = y.grad.copy()
    backward((x * 2.0).sum())  # a second accumulation, into x only
    assert np.array_equal(x.grad, [3.0, 3.0, 3.0])
    assert np.array_equal(y.grad, y_before)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    params = {
        "W1": parameter(rng.normal(size=(5, 8)) * 0.4),
        "b1": parameter(np.zeros(8)),
        "W2": parameter(rng.normal(size=(8, 8)) * 0.4),
        "b2": parameter(np.zeros(8)),
        "W3": parameter(rng.normal(size=(8, 3)) * 0.4),
        "b3": parameter(np.zeros(3)),
    }
    x = constant(rng.normal(size=(6, 5)))
    labels = rng.integers(0, 3, size=6)

    def f():
        h1 = (nc.matmul(x, params["W1"]) + params["b1"]).tanh()
        h2 = (nc.matmul(h1, params["W2"]) + params["b2"]).tanh()
        logits = nc.matmul(h2, params["W3"]) + params["b3"]
        return nc.cross_entropy(logits, labels).mean()

    errs = check_gradients(f, params)
    assert max(errs.values()) < 1e-4, errs


def test_gradient_chain_through_sampling_path():
    # Gradient flows through an op chain mixing slicing, concat and softmax.
    rng = np.random.default_rng(11)
    w = parameter(rng.normal(size=(6, 4)))
    x = constant(rng.normal(size=(3, 6)))

    def f():
        z = nc.matmul(x, w)
        parts = nc.concat([z[:, :2].tanh(), z[:, 2:].sigmoid()], axis=1)
        return parts.log_softmax().mean()

    errs = check_gradients(f, {"w": w})
    assert max(errs.values()) < 1e-4, errs


# -- Adam --------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    p = parameter([1.0, -2.0])
    opt = nc.Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_skips_parameter_without_gradient():
    p, q = parameter([0.8]), parameter([0.5, -0.5])
    opt = nc.Adam({"p": p, "q": q}, lr=0.1)
    p.grad, q.grad = np.ones(1), np.ones(2)
    opt.step()  # p and its moments are now nonzero
    before = {k: v.copy() for k, v in opt.state_tensors().items()}
    p_before, q_before = p.data.copy(), q.data.copy()
    p.grad, q.grad = None, np.ones(2)
    opt.step()
    assert np.array_equal(p.data, p_before)
    assert np.array_equal(opt.m["p"], before["adam.m/p"])
    assert np.array_equal(opt.v["p"], before["adam.v/p"])
    assert not np.array_equal(q.data, q_before)
    assert not np.array_equal(opt.m["q"], before["adam.m/q"])


def test_adam_first_step_closed_form():
    # Fresh state, g=1: m_hat = v_hat = 1, update = -lr / (1 + eps).
    p = parameter([0.5])
    opt = nc.Adam({"p": p}, lr=1e-3)
    p.grad = np.ones(1)
    opt.step()
    expected = 0.5 - 1e-3 / (1.0 + 1e-8)
    assert p.data[0] == pytest.approx(expected, abs=1e-12)


def test_adam_optimizes_quadratic():
    p = parameter([1.0])
    opt = nc.Adam({"p": p}, lr=0.01)
    for _ in range(200):
        opt.zero_grad()
        loss = (p * p).sum()
        backward(loss)
        opt.step()
    assert abs(p.data[0]) < 0.1


@pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf])
def test_adam_rejects_bad_learning_rate(lr):
    with pytest.raises(ValueError, match="lr must be finite and positive"):
        nc.Adam({"p": parameter([1.0])}, lr=lr)


@pytest.mark.parametrize("lr", [True, "1", None], ids=["bool", "string", "none"])
def test_adam_refuses_a_learning_rate_that_is_not_a_real_number(lr):
    with pytest.raises(ValueError, match=re.escape(f"lr must be finite and positive, got {lr!r}")):
        nc.Adam({"p": parameter([1.0])}, lr=lr)


def test_adam_rejects_nan_gradient_naming_parameter():
    p = parameter([1.0])
    q = parameter([1.0])
    opt = nc.Adam({"p": p, "q": q}, lr=0.01)
    p.grad = np.zeros(1)
    q.grad = np.array([np.nan])
    with pytest.raises(NonFiniteError, match="q"):
        opt.step()
    # Aborted step must not have touched any parameter.
    assert p.data[0] == 1.0 and q.data[0] == 1.0


def test_adam_load_state_resumes_bit_identical():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(3, 2))

    def quadratic_step(opt, p):
        opt.zero_grad()
        diff = p - constant(target)
        backward((diff * diff).sum())
        opt.step()

    p = parameter(rng.normal(size=(3, 2)))
    opt = nc.Adam({"p": p}, lr=0.05)
    for _ in range(4):
        quadratic_step(opt, p)

    q = parameter(p.data.copy())
    resumed = nc.Adam({"p": q}, lr=0.05)
    resumed.load_state({k: v.copy() for k, v in opt.state_tensors().items()}, opt.step_count)
    quadratic_step(opt, p)
    quadratic_step(resumed, q)
    assert np.array_equal(p.data, q.data)
    for name, arr in opt.state_tensors().items():
        assert np.array_equal(arr, resumed.state_tensors()[name]), name


@pytest.mark.parametrize(
    "fault, message",
    [("missing", "adam.v/q.*missing"), ("shape", "adam.m/q.*shape \\(4,\\).*\\(3,\\)")],
)
def test_adam_refused_load_state_leaves_state_unchanged(fault, message):
    p, q = parameter(np.ones(2)), parameter(np.ones(3))
    opt = nc.Adam({"p": p, "q": q}, lr=0.1)
    p.grad, q.grad = np.full(2, 0.5), np.full(3, -0.5)
    opt.step()
    before = {k: v.copy() for k, v in opt.state_tensors().items()}
    state = {k: np.full_like(v, 7.0) for k, v in before.items()}  # "p" is loaded before "q"
    if fault == "missing":
        del state["adam.v/q"]
    else:
        state["adam.m/q"] = np.zeros(4)
    with pytest.raises(ValueError, match=message):
        opt.load_state(state, 5)
    assert opt.step_count == 1
    for k, v in opt.state_tensors().items():
        assert np.array_equal(v, before[k]), k


@pytest.mark.parametrize("step_count", ["5", None, -1, True, 2.5], ids=repr)
def test_adam_load_state_refuses_step_count_that_is_not_a_count(step_count):
    p = parameter(np.ones(2))
    opt = nc.Adam({"p": p}, lr=0.1)
    p.grad = np.full(2, 0.5)
    opt.step()
    before = {k: v.copy() for k, v in opt.state_tensors().items()}
    state = {k: np.full_like(v, 7.0) for k, v in before.items()}
    expected = f"Adam step_count must be an integer >= 0, got {step_count!r}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        opt.load_state(state, step_count)
    assert opt.step_count == 1
    for k, v in opt.state_tensors().items():
        assert np.array_equal(v, before[k]), k
    opt.load_state(state, np.int64(0))  # a numpy integer, and 0, are counts
    assert type(opt.step_count) is int and opt.step_count == 0


class LoopAdam:
    """Adam as one update per parameter, each moment its own array."""

    def __init__(self, params, lr):
        self.params, self.lr = params, lr
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def step(self):
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        bc1 = 1.0 - beta1**self.t
        bc2 = 1.0 - beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_flat_adam_matches_per_parameter_loop():
    rng = np.random.default_rng(3)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 3, 2), "d": (1,)}
    init = {n: rng.normal(size=s) for n, s in shapes.items()}
    flat = {n: parameter(x.copy()) for n, x in init.items()}
    loop = {n: parameter(x.copy()) for n, x in init.items()}
    opt, ref = nc.Adam(flat, lr=0.02), LoopAdam(loop, lr=0.02)
    for step in range(7):
        for n, s in shapes.items():
            # "b" has no gradient on steps 2 and 5; "c" gets a transposed view.
            g = None if n == "b" and step in (2, 5) else rng.normal(size=s) * 10.0**step
            if n == "c" and g is not None:
                g = np.ascontiguousarray(g.transpose(2, 1, 0)).transpose(2, 1, 0)
            flat[n].grad = loop[n].grad = g
        opt.step()
        ref.step()
        for n in shapes:
            assert np.array_equal(flat[n].data, loop[n].data), (step, n)
            assert np.array_equal(opt.m[n], ref.m[n]), (step, n)
            assert np.array_equal(opt.v[n], ref.v[n]), (step, n)
    assert opt.step_count == ref.t == 7


def test_flat_adam_nan_gradient_is_named_and_moves_nothing():
    rng = np.random.default_rng(4)
    shapes = {"p": (2, 2), "q": (3,), "r": (2,)}
    params = {n: parameter(rng.normal(size=s)) for n, s in shapes.items()}
    opt = nc.Adam(params, lr=0.1)
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    opt.step()
    data = {n: p.data.copy() for n, p in params.items()}
    state = {k: v.copy() for k, v in opt.state_tensors().items()}
    params["r"].grad = None
    params["q"].grad = np.array([0.5, np.inf, 1.0])
    with pytest.raises(NonFiniteError, match="'q'"):
        opt.step()
    assert opt.step_count == 1
    for n, p in params.items():
        assert np.array_equal(p.data, data[n]), n
    for k, v in opt.state_tensors().items():
        assert np.array_equal(v, state[k]), k


def test_flat_adam_state_round_trip_is_views_of_the_moments():
    rng = np.random.default_rng(5)
    params = {n: parameter(rng.normal(size=s)) for n, s in [("p", (2, 3)), ("q", (4,))]}
    opt = nc.Adam(params, lr=0.1)
    for _ in range(3):
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        opt.step()
    saved = {k: v.copy() for k, v in opt.state_tensors().items()}
    copies = {n: parameter(p.data.copy()) for n, p in params.items()}
    resumed = nc.Adam(copies, lr=0.1)
    resumed.load_state(saved, opt.step_count)
    for k, v in resumed.state_tensors().items():
        assert v.shape == saved[k].shape and np.array_equal(v, saved[k]), k
    for n in params:
        params[n].grad = copies[n].grad = rng.normal(size=params[n].shape)
    opt.step()
    resumed.step()
    for n in params:
        assert np.array_equal(params[n].data, copies[n].data), n
    # The returned tensors are the live moments, not copies.
    for k, v in opt.state_tensors().items():
        assert np.array_equal(v, resumed.state_tensors()[k]) and not np.array_equal(v, saved[k]), k


def test_backward_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        w = parameter(np.ones((3, 2)))
        x = constant(np.arange(12.0).reshape(4, 3))
        loss = (matmul(x, w).tanh() * 2.0).sum()
        backward(loss)
        del loss, w, x
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_second_backward_through_a_used_subgraph_is_refused():
    # Before the tape was freed, this pair left x.grad at 0.8478 per entry:
    # the second walk reused h's stale gradient from the first.
    x = parameter(np.ones(3))
    h = (x * 2.0).tanh()
    backward(h.sum())
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="already used"):
        backward((h * 3.0).sum())
    assert np.array_equal(x.grad, first)  # refused before any gradient was written
    # A fresh forward reaches only the leaf, which is never used up and sums.
    backward(((x * 2.0).tanh() * 3.0).sum())
    # (1 + 3) * 2 * tanh'(2) = 0.1413 + 0.4239 = 0.5652 per entry.
    np.testing.assert_allclose(x.grad, 4.0 * 2.0 * (1.0 - np.tanh(2.0) ** 2), rtol=1e-15)


def test_backward_frees_each_op_output_and_keeps_leaf_gradients():
    w = parameter(np.ones((3, 2)))
    x = constant(np.arange(12.0).reshape(4, 3))
    hidden = matmul(x, w).tanh()
    loss = (hidden * 2.0).sum()
    backward(loss)
    for node in (hidden, loss):
        assert node.grad is None and node._parents == () and node.requires_grad
    assert w.grad is not None and w._parents == ()
    with pytest.raises(RuntimeError, match="already used"):
        backward(loss)


def test_allocator_thresholds_are_skipped_without_mallopt(monkeypatch):
    # macOS and Windows C libraries have no mallopt; setting the thresholds
    # must then neither raise nor warn (warnings are errors in this suite).
    from hindcaus.numcore import tensor as tensor_mod

    class NoMallopt:
        pass

    monkeypatch.setattr(tensor_mod.ctypes, "CDLL", lambda name: NoMallopt())
    tensor_mod._keep_freed_pages()

    def refused(name):
        raise OSError("no C library")

    monkeypatch.setattr(tensor_mod.ctypes, "CDLL", refused)
    tensor_mod._keep_freed_pages()


# -- Gumbel-softmax ----------------------------------------------------------


def test_gumbel_zero_noise_low_temperature_is_argmax():
    logits = constant([0.2, 1.5, -0.3])
    out = nc.gumbel_softmax_sample(logits, temperature=1e-4, hard=False, noise=np.zeros(3))
    assert np.allclose(out.data, [0.0, 1.0, 0.0], atol=1e-12)


def put_along_axis_one_hot(values, num_categories):
    """`one_hot` as it was before it compared values with the categories."""
    out = np.zeros(values.shape + (num_categories,), dtype=np.float64)
    np.put_along_axis(out, values[..., None].astype(np.intp), 1.0, axis=-1)
    return out


@pytest.mark.parametrize(
    "shape, n, dtype",
    [
        ((64, 6), 2, np.int64),
        ((64, 6, 2), 4, np.int64),
        ((320,), 4, np.int8),
        ((5, 1, 3), 7, np.uint16),
        ((), 3, np.int64),
        ((0,), 4, np.int64),
        ((5, 0, 2), 3, np.int32),
        ((0, 4), 1, np.int64),
    ],
)
def test_one_hot_equals_put_along_axis_construction(shape, n, dtype):
    values = np.random.default_rng(0).integers(0, n, size=shape).astype(dtype)
    got, want = nc.one_hot(values, n), put_along_axis_one_hot(values, n)
    assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    if values.size:
        bad = values.astype(np.int64)
        bad.flat[-1] = n
        with pytest.raises(ValueError, match=rf"^values out of range for {n} categories: \[\d+, {n}\]$"):
            nc.one_hot(bad, n)


def test_gumbel_hard_is_exact_one_hot():
    rng = nc.stream(0, "gumbel-test")
    logits = parameter(np.log([0.7, 0.2, 0.1]))
    noise = nc.gumbel_noise(logits.shape, rng)
    out = nc.gumbel_softmax_sample(logits, temperature=1.0, hard=True, noise=noise)
    assert sorted(out.data.tolist()) == [0.0, 0.0, 1.0]
    assert out.data.sum() == 1.0


def test_gumbel_hard_gradient_equals_relaxed_gradient():
    logits = parameter(np.log([0.7, 0.2, 0.1]))
    noise = nc.gumbel_noise((3,), nc.stream(1, "gumbel-grad"))
    out_h = nc.gumbel_softmax_sample(logits, 1.0, hard=True, noise=noise)
    w = constant([0.3, -1.2, 0.4])
    backward((out_h * w).sum())
    grad_hard = logits.grad.copy()
    logits.grad = None
    out_s = nc.gumbel_softmax_sample(logits, 1.0, hard=False, noise=noise)
    backward((out_s * w).sum())
    assert np.allclose(grad_hard, logits.grad, atol=1e-15)


def test_gumbel_hard_sample_frequencies_match_monte_carlo_oracle():
    probs = np.array([0.7, 0.2, 0.1])
    logits_arr = np.log(probs)
    # Independent oracle: empirical law of argmax(logits + Gumbel) at 1e6 draws.
    oracle_rng = np.random.default_rng(123456)
    g = oracle_rng.gumbel(size=(1_000_000, 3))
    oracle_freq = np.bincount(np.argmax(logits_arr + g, axis=1), minlength=3) / 1e6

    rng = nc.stream(0, "gumbel-freq")
    logits = constant(np.tile(logits_arr, (10_000, 1)))
    noise = nc.gumbel_noise(logits.shape, rng)
    out = nc.gumbel_softmax_sample(logits, temperature=1.0, hard=True, noise=noise)
    freq = out.data.mean(axis=0)
    assert np.all(np.abs(freq - oracle_freq) < 0.03)


def test_gumbel_rejects_non_positive_temperature():
    with pytest.raises(ValueError):
        nc.gumbel_softmax_sample(constant([0.0, 0.0]), temperature=0.0, hard=False, noise=np.zeros(2))


@pytest.mark.parametrize(
    "logits_shape, noise_shape",
    [((1, 1, 4), (4, 1, 4)), ((4, 1, 4), (4, 1, 1)), ((4, 1, 4), ())],
    ids=["more_rows", "broadcast_last_axis", "scalar"],
)
def test_gumbel_rejects_noise_not_shaped_like_logits(logits_shape, noise_shape):
    logits = constant(np.zeros(logits_shape))
    with pytest.raises(ShapeError) as exc:
        nc.gumbel_softmax_sample(logits, 1.0, hard=True, noise=np.zeros(noise_shape))
    assert str(logits_shape) in str(exc.value) and str(noise_shape) in str(exc.value)


# -- KL / cross-entropy -------------------------------------------------------


def test_kl_identical_logits_is_zero():
    logits = constant([[0.3, -1.0, 2.0]])
    assert nc.categorical_kl(logits, logits).data == pytest.approx(0.0, abs=1e-12)


def test_kl_closed_form_value():
    p = constant(np.log([0.9, 0.1]))
    q = constant(np.log([0.5, 0.5]))
    expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
    got = float(nc.categorical_kl(p, q).data)
    assert got == pytest.approx(expected, abs=1e-12)
    assert abs(got - 0.368) < 5e-4


def test_kl_non_negative_on_random_pairs():
    rng = np.random.default_rng(5)
    p = constant(rng.normal(size=(1000, 6)) * 3)
    q = constant(rng.normal(size=(1000, 6)) * 3)
    kl = nc.categorical_kl(p, q).data
    assert np.all(kl >= -1e-12)


def test_kl_zero_iff_equal():
    rng = np.random.default_rng(6)
    base = rng.normal(size=8)
    # Logits differing by a constant give identical distributions.
    p = constant(base)
    q = constant(base + 3.7)
    assert abs(float(nc.categorical_kl(p, q).data)) < 1e-12
    q2 = constant(base + rng.normal(size=8) * 0.5)
    assert float(nc.categorical_kl(p, q2).data) > 1e-6


def test_kl_gradient_wrt_q_logits():
    rng = np.random.default_rng(8)
    p = constant(rng.normal(size=(3, 4)))
    q = parameter(rng.normal(size=(3, 4)))

    def f():
        return nc.categorical_kl(p, q).mean()

    errs = check_gradients(f, {"q": q})
    assert max(errs.values()) < 1e-4


def test_cross_entropy_uniform_four_classes():
    logits = constant([[0.0, 0.0, 0.0, 0.0]])
    ce = nc.cross_entropy(logits, np.array([2]))
    assert ce.data[0] == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_peaked_is_small():
    logits = constant([[20.0, 0.0, 0.0]])
    ce = nc.cross_entropy(logits, np.array([0]))
    assert ce.data[0] < 0.01


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(16, 5)) * 2
    labels = rng.integers(0, 5, size=16)
    got = nc.cross_entropy(constant(raw), labels).data
    # Independent evaluation with plain numpy.
    shifted = raw - raw.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(16), labels]
    assert np.allclose(got, expected, atol=1e-12)


def test_cross_entropy_rejects_out_of_range_label():
    with pytest.raises(ValueError):
        nc.cross_entropy(constant([[0.0, 0.0]]), np.array([2]))


# -- invariants ---------------------------------------------------------------


def test_softmax_rows_sum_to_one_and_match_exp_log_softmax():
    rng = np.random.default_rng(10)
    x = constant(rng.normal(size=(50, 7)) * 5)
    s = x.softmax().data
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.exp(x.log_softmax().data), s, atol=1e-12)


def test_deterministic_replay_same_stream_same_bits():
    def run():
        rng = nc.stream(42, "replay", 3)
        logits = parameter(np.linspace(-1, 1, 12).reshape(3, 4))
        out = nc.gumbel_softmax_sample(logits, 0.7, hard=True, noise=nc.gumbel_noise((3, 4), rng))
        loss = (out * constant(np.arange(12.0).reshape(3, 4))).sum()
        backward(loss)
        return loss.data.copy(), logits.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_stream_independence_and_stability():
    a = nc.stream(0, "x").random(4)
    b = nc.stream(0, "y").random(4)
    a2 = nc.stream(0, "x").random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_stream_uniforms_match_one_generator_per_stream():
    k = 7
    cases = [
        ((11, "episode"), list(range(40))),
        ((2**120 + 5, "episode"), [-(2**126), 0, 2**127 - 1]),
        (("ünïcode", 0), ["", "x"]),
        ((), [-1, np.int64(3)]),
    ]
    for prefix, last in cases:
        got = nc.stream_uniforms(prefix, last, k)
        assert got.shape == (len(last), k)
        assert np.array_equal(got, [nc.stream(*prefix, x).random(k) for x in last])
        # Rows do not depend on the streams drawn before them.
        assert np.array_equal(nc.stream_uniforms(prefix, last[::-1], k), got[::-1])
    assert nc.stream_uniforms((11, "episode"), [], k).shape == (0, k)
    assert nc.stream_uniforms((11, "episode"), iter(range(3)), k).shape == (3, k)


def test_prefixed_stream_keys_equal_stream_key():
    last = [-(2**127), -(2**64), -1, 0, 1, 2**64, 2**127 - 1, np.int64(-5), "episode", ""]
    for prefix in [(11, "episode"), (-3,), ("a", 0, "b"), ()]:
        assert _stream_keys(prefix, last) == [nc.stream_key(*prefix, x) for x in last]
    for bad in ([True], [1.5], [2**127]):
        with pytest.raises((TypeError, OverflowError)):
            _stream_keys((11, "episode"), bad)


def test_max_relative_error_guard():
    assert max_relative_error(np.zeros(3), np.zeros(3)) == 0.0
