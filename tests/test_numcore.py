import gc
import math

import numpy as np
import pytest

from hindcaus import numcore as nc
from hindcaus.numcore import Tensor, backward, constant, matmul, parameter
from hindcaus.numcore.gradcheck import check_gradients, max_relative_error
from hindcaus.numcore.tensor import NonFiniteError, ShapeError, _sigmoid


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


# masked_max offsets for a (4, 2, 2) stack: one mask per block (K=3, 1, n=4),
# and one mask per row (K=2, rows=2, n=4). -1e30 drops an input.
_OFF = -1e30
SHARED_OFFSETS = np.array([[[0, 0, 0, 0]], [[0, _OFF, 0, 0]], [[_OFF, _OFF, 0, _OFF]]])
ROW_OFFSETS = np.array([[[0, _OFF, 0, 0], [_OFF, 0, 0, 0]], [[0, 0, _OFF, _OFF], [0, 0, 0, 0]]])


def _gru_scan_case(reverse):
    """gru_scan over S=3 steps of B=2 rows with H=2: xw, Uzr and Un all
    come from a and b, so the gradient reaches each of the three."""

    def op(a, b):
        xw = nc.concat([a, b, a * b], axis=1).reshape(-1)[:36].reshape(3, 2, 6)
        return nc.gru_scan(xw, b[:2], a[2:, 2:], reverse=reverse)

    return op


OP_CASES = {
    "add": lambda a, b: a + b,
    "affine": lambda a, b: nc.affine(a, b, b[1]),
    "add_broadcast": lambda a, b: a + b[0:1, :],
    "subtract": lambda a, b: a - b,
    "multiply": lambda a, b: a * b,
    "matmul": lambda a, b: nc.matmul(a, b),
    "bmm": lambda a, b: nc.bmm(a.reshape(2, 2, 4), b.reshape(2, 4, 2)),
    "concat": lambda a, b: nc.concat([a, b], axis=1),
    "stack": lambda a, b: nc.stack([a, b], axis=1),
    "slice": lambda a, b: a[1:3, ::2] + b[1:3, ::2],
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
    "masked_max_shared": lambda a, b: nc.masked_max((a * b).reshape(4, 2, 2), SHARED_OFFSETS),
    "masked_max_per_row": lambda a, b: nc.masked_max((a + b).reshape(4, 2, 2), ROW_OFFSETS),
    "scale": lambda a, b: (a + b) * 1.7,
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


@pytest.mark.parametrize("offsets", [SHARED_OFFSETS, ROW_OFFSETS], ids=["shared", "per_row"])
def test_masked_max_equals_dense_max(offsets):
    x = np.random.default_rng(5).normal(size=(4, 2, 3))
    dense = x[None] + np.swapaxes(offsets, 1, 2)[..., None]  # (K, n, rows, F)
    out = nc.masked_max(constant(x), offsets)
    assert out.shape == (len(offsets), 2, 3)
    assert np.array_equal(out.data, dense.max(axis=1))


def test_masked_max_tie_sends_whole_gradient_to_first_kept_maximum():
    # Inputs 0 and 1 tie in both columns, and all three tie in column 0.
    x = parameter([[[0.5, 2.0]], [[0.5, 2.0]], [[0.5, 1.0]]])  # (n=3, rows=1, F=2)
    offsets = np.array([[[0.0, 0.0, 0.0]], [[_OFF, 0.0, 0.0]]])  # all kept; input 0 dropped
    out = nc.masked_max(x, offsets)
    assert np.array_equal(out.data, [[[0.5, 2.0]], [[0.5, 2.0]]])
    backward((out * constant([[[1.0, 10.0]], [[100.0, 1000.0]]])).sum())
    assert np.array_equal(x.grad, [[[1.0, 10.0]], [[100.0, 1000.0]], [[0.0, 0.0]]])


def test_masked_max_and_bmm_reject_bad_shapes():
    x = constant(np.zeros((3, 2, 4)))
    with pytest.raises(ShapeError, match="offsets"):
        nc.masked_max(x, np.zeros((2, 1, 4)))  # 4 offset columns for 3 inputs
    with pytest.raises(ShapeError, match="rows"):
        nc.masked_max(x, np.zeros((2, 5, 3)))  # 5 offset rows for 2 rows
    with pytest.raises(ShapeError, match="bmm"):
        nc.bmm(x, constant(np.zeros((2, 4, 1))))


def test_affine_and_gru_scan_reject_bad_shapes():
    x = constant(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match="affine"):
        nc.affine(x, constant(np.zeros((4, 2))), constant(np.zeros(3)))  # bias is not (2,)
    with pytest.raises(ShapeError, match="affine"):
        nc.affine(x, constant(np.zeros((3, 2))), constant(np.zeros(2)))
    Uzr, Un = constant(np.zeros((2, 4))), constant(np.zeros((2, 2)))  # H = 2
    with pytest.raises(ShapeError, match="gru_scan"):
        nc.gru_scan(constant(np.zeros((4, 3, 5))), Uzr, Un)  # last axis 5, not 3H = 6
    with pytest.raises(ShapeError, match="gru_scan"):
        nc.gru_scan(constant(np.zeros((3, 6))), Uzr, Un)  # no step axis
    nc.gru_scan(constant(np.zeros((4, 3, 6))), Uzr, Un)


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


def test_adam_first_step_closed_form():
    # Fresh state, g=1: m_hat = v_hat = 1, update = -lr / (1 + eps).
    p = parameter([0.5])
    opt = nc.Adam({"p": p}, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
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


# -- Gumbel-softmax ----------------------------------------------------------


def test_gumbel_zero_noise_low_temperature_is_argmax():
    logits = constant([0.2, 1.5, -0.3])
    out = nc.gumbel_softmax_sample(logits, temperature=1e-4, hard=False, noise=np.zeros(3))
    assert np.allclose(out.data, [0.0, 1.0, 0.0], atol=1e-12)


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


def test_debug_checks_reject_non_finite_op_output():
    nc.set_debug_checks(True)
    try:
        x = constant([800.0])
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            x.exp()  # overflows to inf
    finally:
        nc.set_debug_checks(False)


def test_max_relative_error_guard():
    assert max_relative_error(np.zeros(3), np.zeros(3)) == 0.0
