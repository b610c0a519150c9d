import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

from hindcaus import numcore as nc
from hindcaus.env import EnvConfig, action_options, cmi_masks, config_hash, generate_dataset, stack_episodes, step
from hindcaus.models import (
    ENCODER_VARIANTS,
    BatchEncoding,
    build_models,
    hidden_stack,
    input_indices,
    load_checkpoint,
    save_checkpoint,
)
from hindcaus.models import nets, transition
from hindcaus.models.nets import Linear
from hindcaus.numcore import Adam, backward, concat, constant, matmul, one_hot, parameter, stack, stream
from hindcaus.objective import ObjectiveConfig, StepRandomness, total_objective
from test_env import _cut_mid_write, _fail_replace, _read, _write


def chain3(noise_target="hidden", **kw):
    return EnvConfig.chain(d_s=3, noise_target=noise_target, **kw)


def small_batch(cfg, n=4, seed=0):
    ds = generate_dataset(cfg, n, seed=seed)
    return stack_episodes(ds.episodes)


def noise_fn_for(env, B, tag="test"):
    def noise_for(t):
        return nc.gumbel_noise((B, env.d_h, env.l), stream(0, tag, t))

    return noise_for


# -- unroll shapes and determinism -------------------------------------------


@pytest.mark.parametrize("variant", ["history", "current_1step", "current_full", "dvae_1step", "dvae_full"])
def test_unroll_lengths_and_shapes(variant):
    cfg = chain3()
    batch = small_batch(cfg)
    bundle = build_models(cfg, variant, seed=0)
    enc = BatchEncoding(batch, cfg)
    logits, samples = bundle.encoder.unroll(
        enc, temperature=1.0, noise_for=noise_fn_for(cfg, batch.size), hard=True
    )
    # Time-major (T+1, B, d_h, l) stacks.
    assert logits.shape == samples.shape == (6, 4, 1, 4)
    # Straight-through samples are exact one-hots.
    assert np.all(np.isin(samples.data, (0.0, 1.0)))
    assert np.allclose(samples.data.sum(axis=-1), 1.0)
    # Valid categorical logits.
    assert np.all(np.isfinite(logits.data))
    assert np.allclose(np.exp(logits.log_softmax().data).sum(axis=-1), 1.0, atol=1e-12)


def test_unroll_deterministic_replay():
    cfg = chain3()
    batch = small_batch(cfg)
    bundle = build_models(cfg, "dvae_full", seed=3)

    def run():
        enc = BatchEncoding(batch, cfg)
        logits, samples = bundle.encoder.unroll(
            enc, temperature=1.0, noise_for=noise_fn_for(cfg, batch.size), hard=True
        )
        return logits.data.copy(), samples.data.copy()

    l1, s1 = run()
    l2, s2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(s1, s2)


# -- fused unroll against the per-step reference ----------------------------------
#
# The references below are the per-step formulas the fused code replaced, op
# by op: `matmul` + bias instead of `mlp`, one GRU cell call per step, one
# head / past-net / combiner call per t. The fused path must give the same
# logits and samples bit for bit. That holds at batch sizes up to 64: at 512
# rows per step OpenBLAS can round a row-batched matmul differently from
# per-step ones, so the test batches stay at or below 64.


def _linear(layer, x):
    return matmul(x, layer.W) + layer.b


def _mlp(net, x):
    for layer in net.layers[:-1]:
        x = _linear(layer, x).tanh()
    return _linear(net.layers[-1], x)


def _gru_step(cell, x, h):
    """The per-step GRU cell: h' = (1 - z) * n + z * h."""
    H = cell.d_hidden
    xw = matmul(x, cell.Wx) + cell.bx
    hzr = matmul(h, cell.Uzr)
    z = (xw[:, :H] + hzr[:, :H]).sigmoid()
    r = (xw[:, H : 2 * H] + hzr[:, H:]).sigmoid()
    n = (xw[:, 2 * H :] + matmul(r * h, cell.Un)).tanh()
    return (1.0 - z) * n + z * h


def _gru_states(cell, xs, reverse):
    h = constant(np.zeros((xs[0].shape[0], cell.d_hidden)))
    states = [None] * len(xs)
    for t in reversed(range(len(xs))) if reverse else range(len(xs)):
        h = states[t] = _gru_step(cell, xs[t], h)
    return states


def _reference_unroll(net, batch, temperature=None, noise_for=None, hard=True, prev_samples=None):
    """The per-t unroll: step inputs [o_t, a_t] built per t (zero past the
    horizon), every layer called once per t, the per-t outputs stacked at
    the end."""
    env, B, T = net.env, batch.size, batch.horizon
    o_hot = one_hot(batch.o, env.l).reshape(B, T + 1, -1)
    a = np.concatenate([batch.a, np.zeros((B, 2, env.d_s))], axis=1).astype(np.float64)
    zero_o = np.zeros((B, 1, o_hot.shape[2]))
    o = np.concatenate([o_hot, zero_o], axis=1)
    x = [constant(np.concatenate([o[:, t], a[:, t]], axis=1)) for t in range(T + 2)]
    window = [concat([x[t], x[t + 1]], axis=1) for t in range(T + 1)]
    shape = lambda flat: flat.reshape(B, env.d_h, env.l)  # noqa: E731
    sampling = prev_samples is None
    draw = lambda lg, t: nc.gumbel_softmax_sample(lg, temperature, hard, noise_for(t))  # noqa: E731

    if net.variant in ("history", "current_full", "current_1step"):
        if net.variant == "current_1step":
            logits = [shape(_mlp(net.window_net, w)) for w in window]
        else:
            states = _gru_states(net.cell, x[: T + 1], reverse=net.variant == "current_full")
            logits = [shape(_linear(net.head, s)) for s in states]
        samples = [draw(lg, t) for t, lg in enumerate(logits)] if sampling else None
        return stack(logits), stack(samples) if sampling else None

    if net.variant == "dvae_full":
        g = _gru_states(net.cell, x[: T + 1], reverse=True)
    else:
        g = [_mlp(net.window_net, w).tanh() for w in window]
    logits, samples = [], []
    for t in range(T + 1):
        if t == 0:
            e = (constant(np.zeros((B, net.H))) + net.context0).tanh()
        else:
            prev = samples[t - 1] if sampling else prev_samples[t - 1]
            e = _mlp(net.past_net, concat([prev.reshape(B, -1), x[t - 1]], axis=1)).tanh()
        logits.append(shape(_mlp(net.combiner, concat([e, g[t]], axis=1))))
        if sampling:
            samples.append(draw(logits[-1], t))
    return stack(logits), stack(samples) if sampling else None


def _outputs_and_grads(params, run, weights):
    for p in params.values():
        p.grad = None
    logits, samples = run()
    outs = [logits] if samples is None else [logits, samples]
    backward(sum((out * constant(w)).sum() for out, w in zip(outs, weights)))
    return [t.data for t in outs], {n: p.grad for n, p in params.items()}


def _assert_grads_close(got, ref):
    assert got.keys() == ref.keys()
    for n, g in ref.items():
        assert g is not None and got[n] is not None, n
        assert np.abs(got[n] - g).max() <= 1e-12 * np.abs(g).max(), n


@pytest.mark.parametrize("mode", ["sampling", "teacher"])
@pytest.mark.parametrize("variant", ENCODER_VARIANTS)
def test_fused_unroll_matches_per_step_reference(variant, mode):
    cfg = chain3()
    batch = small_batch(cfg, n=64, seed=9)  # at most 64 rows per step (see above)
    bundle = build_models(cfg, variant, seed=5)
    rng = np.random.default_rng(9)
    for t in bundle.store.groups["phi"].values():  # nonzero biases and context too
        t.data += 0.1 * rng.normal(size=t.shape)
    net = bundle.encoder
    params = bundle.store.groups["phi"]
    for hard in (True, False):
        kw = {"temperature": 0.7, "noise_for": noise_fn_for(cfg, 64), "hard": hard}
        if mode == "teacher":
            _, samples = net.unroll(BatchEncoding(batch, cfg), **kw)
            kw = {"prev_samples": samples.detach()}
        weights = rng.normal(size=(2, 6, 64, cfg.d_h, cfg.l))  # logits, samples
        fused = lambda: net.unroll(BatchEncoding(batch, cfg), **kw)  # noqa: E731
        got, got_grads = _outputs_and_grads(params, fused, weights)
        ref, ref_grads = _outputs_and_grads(params, lambda: _reference_unroll(net, batch, **kw), weights)
        assert len(got) == len(ref) == (2 if mode == "sampling" else 1)
        for a, b in zip(got, ref):
            assert a.shape == (6, 64, cfg.d_h, cfg.l)
            assert np.array_equal(a, b), hard
        _assert_grads_close(got_grads, ref_grads)


# -- conditioning-set purity ---------------------------------------------------

# For each variant: time indices whose perturbation must NOT change the
# logits at t=2 (episodes have T=5). The closure accounts for recursive
# sample feeding in the dvae variants.
PURITY_CASES = {
    "history": {"o": [3, 4, 5], "a": [3, 4]},
    "current_1step": {"o": [0, 1, 4, 5], "a": [0, 1, 4]},
    "current_full": {"o": [0, 1], "a": [0, 1]},
    "dvae_1step": {"o": [4, 5], "a": [4]},
    "dvae_full": {"o": [], "a": []},
}


def _logits_at(bundle, cfg, batch, t):
    enc = BatchEncoding(batch, cfg)
    logits, _ = bundle.encoder.unroll(
        enc, temperature=1.0, noise_for=noise_fn_for(cfg, batch.size, "purity"), hard=True
    )
    return logits[t].data.copy()


@pytest.mark.parametrize("variant", sorted(PURITY_CASES))
def test_conditioning_set_purity(variant):
    cfg = chain3()
    batch = small_batch(cfg, n=3, seed=5)
    bundle = build_models(cfg, variant, seed=1)
    base = _logits_at(bundle, cfg, batch, t=2)

    for k in PURITY_CASES[variant]["o"]:
        mutated = stack_episodes(generate_dataset(cfg, 3, seed=5).episodes)
        mutated.o[:, k] = (mutated.o[:, k] + 1) % cfg.l
        got = _logits_at(bundle, cfg, mutated, t=2)
        assert np.array_equal(got, base), f"o_{k} leaked into {variant} logits at t=2"

    for k in PURITY_CASES[variant]["a"]:
        mutated = stack_episodes(generate_dataset(cfg, 3, seed=5).episodes)
        mutated.a[:, k] = 0
        mutated.a[:, k, 0] = 1 - mutated.a[:, k, 0]
        got = _logits_at(bundle, cfg, mutated, t=2)
        assert np.array_equal(got, base), f"a_{k} leaked into {variant} logits at t=2"


def test_dvae_full_window_inclusion_at_t1():
    # Perturbing o_0 must change dvae_full logits at t=1 (past branch input).
    cfg = chain3()
    batch = small_batch(cfg, n=3, seed=6)
    bundle = build_models(cfg, "dvae_full", seed=2)
    base = _logits_at(bundle, cfg, batch, t=1)
    mutated = stack_episodes(generate_dataset(cfg, 3, seed=6).episodes)
    mutated.o[:, 0] = (mutated.o[:, 0] + 1) % cfg.l
    got = _logits_at(bundle, cfg, mutated, t=1)
    assert not np.array_equal(got, base)


# -- gradient flow --------------------------------------------------------------


def test_gradient_flows_through_sample_chain():
    cfg = chain3()
    batch = small_batch(cfg)
    bundle = build_models(cfg, "dvae_full", seed=4)
    enc = BatchEncoding(batch, cfg)
    logits, _ = bundle.encoder.unroll(
        enc, temperature=1.0, noise_for=noise_fn_for(cfg, batch.size), hard=True
    )
    # context0 only enters at t=0; reaching it from a t=2 loss requires the
    # recursive sample chain t=0 -> t=1 -> t=2.
    loss = (logits[2] * constant(np.arange(4.0))).sum()
    backward(loss)
    ctx = bundle.store.groups["phi"]["context0"]
    assert ctx.grad is not None and np.any(ctx.grad != 0)


def test_target_unroll_carries_no_gradient():
    cfg = chain3()
    batch = small_batch(cfg)
    bundle = build_models(cfg, "dvae_full", seed=4)
    enc = BatchEncoding(batch, cfg)
    _, samples = bundle.encoder.unroll(
        enc, temperature=1.0, noise_for=noise_fn_for(cfg, batch.size), hard=True
    )
    logits_bar, none_samples = bundle.encoder_target.unroll(enc, prev_samples=samples.detach())
    assert none_samples is None
    assert not logits_bar.requires_grad
    for t in bundle.store.groups["phi_bar"].values():
        assert not t.requires_grad


def test_phi_bar_synced_after_build_and_sync():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=7)
    phi = bundle.store.groups["phi"]
    bar = bundle.store.groups["phi_bar"]
    assert set(phi) == set(bar)
    for name in phi:
        assert np.array_equal(phi[name].data, bar[name].data)
    phi["context0"].data += 1.0
    assert not np.array_equal(phi["context0"].data, bar["context0"].data)
    bundle.sync_target()
    assert np.array_equal(phi["context0"].data, bar["context0"].data)


def test_trainable_excludes_phi_bar():
    bundle = build_models(chain3(), "dvae_full", seed=0)
    names = bundle.store.trainable()
    assert names and not any(n.startswith("phi_bar/") for n in names)
    assert any(n.startswith("phi/") for n in names)
    assert any(n.startswith("theta_o/") for n in names)
    assert any(n.startswith("theta_h/") for n in names)
    assert any(n.startswith("psi/") for n in names)


# -- the GRU state memo of a frozen cell ------------------------------------------

MEMO_VARIANTS = ["history", "current_full", "dvae_full"]


def _frozen_cell(variant):
    """A chain3 bundle, phi_bar's cell, the direction the variant scans in,
    and the encoding of 8 episodes."""
    cfg = chain3()
    bundle = build_models(cfg, variant, seed=0)
    enc = BatchEncoding(small_batch(cfg, n=8, seed=1), cfg)
    return bundle, bundle.encoder_target.cell, variant != "history", enc


def _gru_scan_spy(monkeypatch, fail=False):
    """The batch size of each `gru_scan` call that `GRUCell.scan` makes, in
    a list that grows as it is called; with `fail`, every call raises."""
    calls = []
    real = nets.gru_scan

    def spy(xw, Uzr, Un, reverse=False):
        calls.append(xw.shape[1])
        if fail:
            raise RuntimeError("scan failed")
        return real(xw, Uzr, Un, reverse)

    monkeypatch.setattr(nets, "gru_scan", spy)
    return calls


def _columns(steps, order):
    return constant(steps.data[:, order])


@pytest.mark.parametrize("variant", MEMO_VARIANTS)
def test_frozen_scan_hits_equal_the_scan_bit_for_bit(variant, monkeypatch):
    bundle, cell, reverse, enc = _frozen_cell(variant)
    steps, order = enc.steps, [5, 0, 5, 3, 3, 7, 1]  # reordered, with repeats

    def unroll():
        return bundle.encoder_target.unroll(enc, 1.0, noise_fn_for(enc.env, enc.B))[1].data

    # Outside no_grad the memo is not used: these run as without it.
    want, want_mixed, samples = (
        cell.scan(steps, reverse).data,
        cell.scan(_columns(steps, order), reverse).data,
        unroll(),
    )
    calls = _gru_scan_spy(monkeypatch)
    with nc.no_grad():
        assert np.array_equal(cell.scan(steps, reverse).data, want)  # fills the memo
        assert np.array_equal(cell.scan(steps, reverse).data, want)
        assert np.array_equal(unroll(), samples)
        # A batch of memoized sequences is a call of its own: it runs.
        assert np.array_equal(cell.scan(_columns(steps, order), reverse).data, want_mixed)
        assert np.array_equal(cell.scan(_columns(steps, order), reverse).data, want_mixed)
    assert calls == [8, 7]


def _sync_from_changed_phi(bundle, cell, steps, reverse):
    rng = np.random.default_rng(3)
    for t in bundle.store.groups["phi"].values():
        t.data += 0.3 * rng.normal(size=t.shape)
    bundle.sync_target()
    return steps, reverse


def _load_other_arrays(bundle, cell, steps, reverse):
    other = build_models(bundle.env, bundle.encoder.variant, seed=1)
    bundle.store.load_arrays({n: t.data for n, t in other.store.tensors().items()})
    return steps, reverse


def _write_one_weight(bundle, cell, steps, reverse):
    cell.Un.data[2, 3] += 0.5
    return steps, reverse


def _flip_direction(bundle, cell, steps, reverse):
    return steps, not reverse


def _drop_last_step(bundle, cell, steps, reverse):
    return constant(steps.data[:-1]), reverse


@pytest.mark.parametrize("variant", MEMO_VARIANTS)
@pytest.mark.parametrize(
    "change",
    [
        _sync_from_changed_phi,
        _load_other_arrays,
        _write_one_weight,
        _flip_direction,
        _drop_last_step,
    ],
    ids=["sync_target", "load_arrays", "weight_write", "reverse_flip", "shorter_sequence"],
)
def test_frozen_scan_memo_resets_when_weights_or_direction_change(variant, change, monkeypatch):
    bundle, cell, reverse, enc = _frozen_cell(variant)
    steps = enc.steps
    with nc.no_grad():
        before = cell.scan(steps, reverse).data
    steps, reverse = change(bundle, cell, steps, reverse)
    want = cell.scan(steps, reverse).data
    assert not np.array_equal(want, before)
    calls = _gru_scan_spy(monkeypatch)
    with nc.no_grad():
        assert np.array_equal(cell.scan(steps, reverse).data, want)
        assert np.array_equal(cell.scan(steps, reverse).data, want)
    assert calls == [8]


@pytest.mark.parametrize("variant", MEMO_VARIANTS)
def test_frozen_scan_memo_is_c_contiguous(variant):
    # A hit hands out the memoized array itself, so it must be read-only.
    _, cell, reverse, enc = _frozen_cell(variant)
    with nc.no_grad():
        for order in [[6, 2, 6, 4], [1, 2, 5]]:
            miss = cell.scan(_columns(enc.steps, order), reverse).data
            hit = cell.scan(_columns(enc.steps, order), reverse).data
            assert hit is miss and hit.flags.c_contiguous and not hit.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                hit[0, 0, 0] = 1.0


@pytest.mark.parametrize("variant", MEMO_VARIANTS)
def test_frozen_scan_of_no_sequences(variant):
    _, cell, reverse, enc = _frozen_cell(variant)
    empty, want = _columns(enc.steps, []), (enc.steps.shape[0], 0, cell.d_hidden)
    with nc.no_grad():
        assert cell.scan(empty, reverse).shape == want  # on a fresh memo
        cell.scan(enc.steps, reverse)
        assert cell.scan(empty, reverse).shape == want


@pytest.mark.parametrize("variant", MEMO_VARIANTS)
def test_scan_memoizes_only_a_frozen_cell_under_no_grad(variant, monkeypatch):
    bundle, cell, reverse, enc = _frozen_cell(variant)
    steps, live = enc.steps, bundle.encoder.cell
    calls = _gru_scan_spy(monkeypatch)
    for _ in range(2):
        assert cell.scan(parameter(steps.data), reverse).requires_grad  # taped
        assert live.scan(steps, reverse).requires_grad  # taped by its weights
        cell.scan(steps, reverse)  # outside no_grad
        with nc.no_grad():
            live.scan(steps, reverse)  # trainable weights
    cell.Un.requires_grad = True
    with nc.no_grad():
        cell.scan(steps, reverse)  # one trainable weight
    assert calls == [8] * 9
    assert cell._memo == [] and live._memo == []


@pytest.mark.parametrize("variant", MEMO_VARIANTS)
def test_scan_that_raises_leaves_memo_as_it_was(variant, monkeypatch):
    _, cell, reverse, enc = _frozen_cell(variant)
    steps = enc.steps
    with nc.no_grad():
        want = cell.scan(_columns(steps, range(5)), reverse).data
    memo, weights = cell._memo, cell._memo_weights
    Un = cell.Un.data.copy()
    _gru_scan_spy(monkeypatch, fail=True)
    with nc.no_grad():
        with pytest.raises(RuntimeError, match="scan failed"):
            cell.scan(steps, reverse)  # a new call
        cell.Un.data[2, 3] += 0.5
        with pytest.raises(RuntimeError, match="scan failed"):
            cell.scan(_columns(steps, range(5)), reverse)  # changed weights: a miss
        with pytest.raises(nc.ShapeError, match="not \\(S, B, "):
            cell.scan(constant(steps.data[:, :, 1:]), reverse)
        np.copyto(cell.Un.data, Un)
        assert cell._memo is memo and cell._memo_weights is weights and len(memo) == 1
        # The weights are back: the memo holds again and the call below hits.
        assert cell.scan(_columns(steps, range(5)), reverse).data is want


@pytest.mark.parametrize("variant", MEMO_VARIANTS)
def test_frozen_scan_on_unseen_batches_runs_each_once_and_holds_512_sequences(variant, monkeypatch):
    # A stream of unseen 64-episode batches, as an identification report
    # scores held-out episodes: every call misses, and the memo keeps only
    # the newest eight calls.
    cfg = chain3()
    bundle = build_models(cfg, variant, seed=0)
    cell, reverse = bundle.encoder_target.cell, variant != "history"
    episodes = generate_dataset(cfg, 20 * 64, seed=2).episodes
    calls = _gru_scan_spy(monkeypatch)
    with nc.no_grad():
        for k in range(20):
            steps = BatchEncoding(stack_episodes(episodes[64 * k : 64 * (k + 1)]), cfg).steps
            cell.scan(steps, reverse)
            held = sum(states.shape[1] for _, states in cell._memo)
            assert held == min(64 * (k + 1), nets.GRUCell.MEMO_SEQUENCES)
    assert calls == [64] * 20


@pytest.mark.parametrize("variant", MEMO_VARIANTS)
def test_frozen_scan_of_memo_sequences_is_answered_not_stored(variant, monkeypatch):
    # Storing a call of MEMO_SEQUENCES sequences would drop every other
    # entry, so it runs each time and the memo keeps what it held.
    bundle, cell, reverse, enc = _frozen_cell(variant)
    many = _columns(enc.steps, np.arange(nets.GRUCell.MEMO_SEQUENCES) % enc.B)
    want = cell.scan(many, reverse).data  # outside no_grad: no memo
    with nc.no_grad():
        small = cell.scan(enc.steps, reverse).data
        memo, weights = cell._memo, cell._memo_weights
        calls = _gru_scan_spy(monkeypatch)
        for _ in range(2):
            assert cell.scan(many, reverse).data.tobytes() == want.tobytes()
        assert cell._memo is memo and cell._memo_weights is weights and len(memo) == 1
        assert cell.scan(enc.steps, reverse).data is small
    assert calls == [nets.GRUCell.MEMO_SEQUENCES] * 2


def test_row_memo_keeps_codes_in_slot_order_and_starts_again_past_its_cap(monkeypatch):
    monkeypatch.setattr(transition.RowMemo, "CAP", 8)
    memo, state = transition.RowMemo(), (np.arange(3.0), np.ones((2, 2)))

    def answers(values):
        """Row value v answers a (2, 1, 3) block of v; rows lie along axis 2."""
        column = np.asarray(values, float)[None, None, :, None]
        return np.broadcast_to(column, (2, 1, len(values), 3))

    def call(rows, compute=None):
        computed = []

        def answer(first):
            computed.extend(first)
            return np.array(answers([rows[r] for r in first]))

        got = memo(state, np.asarray(rows, dtype=np.int64), compute or answer)
        assert np.array_equal(got, answers(rows)) and got.flags.c_contiguous
        # Slot i of `values` answers codes[i], and `order` sorts the codes.
        assert memo.values.shape[2] == len(memo.codes) == len(memo.order)
        assert np.array_equal(memo.values[0, 0, :, 0], memo.codes)
        assert np.array_equal(memo.order, np.argsort(memo.codes, kind="stable"))
        return computed

    assert call([0, 1, 2, 1, 3]) == [0, 1, 2, 4]
    assert call([4, 0]) == [0]
    assert call([6, 5, 6]) == [0, 1]  # appended in order of occurrence
    assert memo.codes.tolist() == [0, 1, 2, 3, 4, 6, 5]
    assert call([7, 3]) == [0]  # the cap, exactly
    assert call([8, 0]) == [0, 1]  # past the cap: every row of the call is new
    assert memo.codes.tolist() == [8, 0]
    assert call([2**62, 9, 2**62]) == [0, 1]  # codes far past any other
    assert call([9, 2**62, 0]) == []

    def fail(first):
        raise RuntimeError("compute failed")

    held = (memo.state, memo.codes, memo.order, memo.values)
    copies = [x.copy() for x in held[1:]]
    # A miss, a call past the cap, and a call under another state.
    for rows, entry in [([1, 8], 1.0), (list(range(10, 20)), 1.0), ([8], 2.0)]:
        state[1][0, 0] = entry
        with pytest.raises(RuntimeError, match="compute failed"):
            memo(state, np.asarray(rows, dtype=np.int64), fail)
        assert all(x is y for x, y in zip((memo.state, memo.codes, memo.order, memo.values), held))
        assert all(np.array_equal(x, y) for x, y in zip(held[1:], copies))
    state[1][0, 0] = 1.0
    assert call([9, 2**62, 0]) == []
    state[1][0, 0] = 2.0  # a state entry changed in place: every row is new again
    assert call([8, 0]) == [0, 1]


# -- masked transition ----------------------------------------------------------


def _transition_inputs(cfg, s_values, a_values):
    """Integer states and actions -> the lookup indices and the dense
    hidden stack of their constant one-hots."""
    hidden = constant(one_hot(s_values[:, cfg.hidden_indices], cfg.l))
    return input_indices(cfg, s_values, a_values), hidden_stack(cfg, hidden)


def _one_mask_logits(transition, j, inputs, mask):
    """(rows, l) logits of target j under one (d_s+1,) or (rows, d_s+1)
    mask: `logits_from_features` on a one-mask stack, as the objective
    calls it on its mask stack."""
    masks = np.reshape(mask, (1, -1, transition.env.d_s + 1))
    return transition.logits_from_features(j, transition.features(j, *inputs), masks)[0]


def test_masked_output_ignores_masked_inputs():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    rng = np.random.default_rng(0)
    s = rng.integers(0, 4, size=(8, 3))
    a = np.zeros((8, 3), dtype=np.int64)
    masks = cmi_masks(cfg)
    tr = bundle.transition
    for j in range(3):
        for i in range(4):  # 3 factors + action node
            base = _one_mask_logits(tr, j, _transition_inputs(cfg, s, a), masks[i + 1]).data
            s2 = s.copy()
            a2 = a.copy()
            if i < 3:
                s2[:, i] = (s2[:, i] + 1) % 4
            else:
                a2[:, 0] = 1
            got = _one_mask_logits(tr, j, _transition_inputs(cfg, s2, a2), masks[i + 1]).data
            assert np.array_equal(got, base), f"masked input {i} leaked into target {j}"


def test_full_vs_leave_one_out_differ_only_through_that_factor():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    rng = np.random.default_rng(1)
    s = rng.integers(0, 4, size=(8, 3))
    a = np.zeros((8, 3), dtype=np.int64)
    s2 = s.copy()
    s2[:, 0] = (s2[:, 0] + 2) % 4
    j = 1
    full, loo = cmi_masks(cfg)[:2]
    inputs, inputs2 = _transition_inputs(cfg, s, a), _transition_inputs(cfg, s2, a)
    full_a = _one_mask_logits(bundle.transition, j, inputs, full).data
    full_b = _one_mask_logits(bundle.transition, j, inputs2, full).data
    assert not np.array_equal(full_a, full_b)
    loo_a = _one_mask_logits(bundle.transition, j, inputs, loo).data
    loo_b = _one_mask_logits(bundle.transition, j, inputs2, loo).data
    assert np.array_equal(loo_a, loo_b)


def test_causal_mask_with_true_parents_ignores_non_parent():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    # True parents of o^2 (factor index 2): h (1), o^2 itself (2), action.
    mask = np.array([0.0, 1.0, 1.0, 1.0])
    rng = np.random.default_rng(2)
    s = rng.integers(0, 4, size=(8, 3))
    a = np.zeros((8, 3), dtype=np.int64)
    s2 = s.copy()
    s2[:, 0] = (s2[:, 0] + 1) % 4
    out_a = _one_mask_logits(bundle.transition, 2, _transition_inputs(cfg, s, a), mask).data
    out_b = _one_mask_logits(bundle.transition, 2, _transition_inputs(cfg, s2, a), mask).data
    assert np.array_equal(out_a, out_b)


@pytest.mark.parametrize("j", [2, 1])  # observed o^2, hidden h
def test_mask_stack_call_matches_single_mask_forward(j):
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    rng = np.random.default_rng(6)
    s = rng.integers(0, 4, size=(8, 3))
    a = np.zeros((8, 3), dtype=np.int64)
    a[rng.random(8) < 0.5, 0] = 1
    inputs = _transition_inputs(cfg, s, a)
    feats = bundle.transition.features(j, *inputs)
    shared = cmi_masks(cfg)
    per_row = np.ones((8, 4))
    per_row[np.arange(8), rng.integers(0, 4, size=8)] = 0.0
    # One mask per block (K, 1, d_s+1), and one per row (K, rows, d_s+1).
    cases = [
        (shared[:, None], list(shared)),
        (np.concatenate([np.broadcast_to(shared[:, None], (5, 8, 4)), per_row[None]]),
         list(shared) + [per_row]),
    ]
    for masks, singles in cases:
        stacked = bundle.transition.logits_from_features(j, feats, masks).data
        assert stacked.shape == (len(singles), 8, 4)
        for k, mask in enumerate(singles):
            single = _one_mask_logits(bundle.transition, j, inputs, mask)
            assert np.array_equal(stacked[k], single.data), k


def _dense_input_stack(cfg, s, a, hidden):
    """The (d_s+1, rows, width) input stack the lookup replaces: each
    factor's one-hot and the action vector, zero-padded on the right, with
    the hidden factors' slices taken from the (rows, d_h, l) tensor
    `hidden`."""
    width = max(cfg.l, cfg.d_s)
    x = np.zeros((cfg.d_s + 1, len(s), width))
    x[: cfg.d_s, :, : cfg.l] = one_hot(s.T, cfg.l)
    x[cfg.d_s, :, : cfg.d_s] = a
    pad = constant(np.zeros((len(s), width - cfg.l)))
    slices = [constant(x[i]) for i in range(cfg.d_s + 1)]
    for q, f in enumerate(cfg.hidden_indices):
        slices[f] = concat([hidden[:, q], pad], axis=1)
    return nc.stack(slices)


def _per_input_reference(transition, j, x, masks):
    """The transition spelled out input by input on a dense input stack: a
    `Linear` embed and proj per input built from slices of the stacked
    weights, the offset added per input, the max taken by selecting the
    first maximal input, and the head run once per mask."""
    env = transition.env
    in_dims = [env.l] * env.d_s + [env.d_s]
    embed_W, embed_b, proj_W, proj_b = transition._extractors[j]
    feats = []
    for i, d in enumerate(in_dims):
        emb, prj = Linear.__new__(Linear), Linear.__new__(Linear)
        emb.W, emb.b = embed_W[i, :d], embed_b[i, 0]
        prj.W, prj.b = proj_W[i], proj_b[i, 0]
        feats.append(prj(emb(x[i, :, :d]).tanh()).tanh())
    blocks = []
    for mask in masks:
        shifted = [f + constant((mask[:, i : i + 1] - 1.0) * 1e30) for i, f in enumerate(feats)]
        first = np.argmax(np.stack([t.data for t in shifted]), axis=0)  # ties: first maximum
        pooled = shifted[0] * constant(first == 0)
        for i in range(1, len(shifted)):
            pooled = pooled + shifted[i] * constant(first == i)
        blocks.append(transition._heads[j](pooled))
    return nc.stack(blocks)


def _assert_lookup_matches_reference(cfg, j):
    """Target j's logits from the lookup path equal the per-input reference
    on the dense input stack, and so do their gradients to 1e-12 relative,
    for hard and soft hidden samples and for shared and per-row masks."""
    bundle = build_models(cfg, "dvae_full", seed=0)
    rng = np.random.default_rng(7)
    for t in bundle.store.trainable().values():  # nonzero biases and padding rows too
        t.data += 0.1 * rng.normal(size=t.shape)
    rows, n_in = 8, cfg.d_s + 1
    s = rng.integers(0, cfg.l, size=(rows, cfg.d_s))
    a = action_options(cfg)[rng.integers(0, cfg.d_o + 1, size=rows)]
    idx = input_indices(cfg, s, a)
    per_row = np.ones((rows, n_in))
    per_row[np.arange(rows), rng.integers(0, n_in, size=rows)] = 0.0
    shared = np.broadcast_to(cmi_masks(cfg)[:, None], (n_in + 1, rows, n_in))
    masks = np.concatenate([shared, per_row[None]])
    weights = constant(rng.normal(size=(len(masks), rows, cfg.l)))
    tr = bundle.transition

    for hard in (True, False):
        logits = rng.normal(size=(rows, cfg.d_h, cfg.l))
        soft = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        h = parameter(one_hot(logits.argmax(axis=-1), cfg.l) if hard else soft)
        theta = {n: p for n, p in bundle.store.trainable().items() if f"/target{j}." in n}
        theta["hidden"] = h

        def logits_and_grads(logits_fn):
            for p in theta.values():
                p.grad = None
            out = logits_fn()
            backward((out * weights).sum())
            return out.data, {n: p.grad for n, p in theta.items()}

        def lookup_fn():
            return tr.logits_from_features(j, tr.features(j, idx, hidden_stack(cfg, h)), masks)

        def dense_fn():
            return _per_input_reference(tr, j, _dense_input_stack(cfg, s, a, h), masks)

        got, got_grads = logits_and_grads(lookup_fn)
        ref, ref_grads = logits_and_grads(dense_fn)
        assert got.shape == (len(masks), rows, cfg.l)
        assert np.array_equal(got, ref), hard
        for n, g in ref_grads.items():
            assert np.abs(got_grads[n] - g).max() <= 1e-12 * np.abs(g).max(), (hard, n)


# chain3 pads the action input (l > d_s).
@pytest.mark.parametrize("j", [2, 1])  # observed o^2, hidden h
def test_fused_transition_matches_per_input_reference(j):
    _assert_lookup_matches_reference(chain3(), j)


# full5 pads the factor inputs (d_s > l); with two hidden factors it selects
# two dense extractors.
@pytest.mark.parametrize("graph", ["full", "full_two_hidden"])
def test_lookup_features_match_dense_extractor(graph):
    configs = {"full": EnvConfig.full(d_s=5), "full_two_hidden": EnvConfig.full(d_s=5, hidden_indices=[3, 1])}
    cfg = configs[graph]
    for j in (cfg.observed_indices[-1], cfg.hidden_indices[0]):
        _assert_lookup_matches_reference(cfg, j)


@pytest.mark.parametrize(
    "row",
    [[1, 0, 1], [0, 1, 0], [-1, 0, 1]],  # the last sums to 0, like a no-op
    ids=["two_interventions", "hidden_factor", "not_binary"],
)
def test_input_indices_reject_actions_a_table_cannot_hold(row):
    cfg = chain3()  # factor 1 is hidden
    s = np.zeros((3, 3), dtype=np.int64)
    a = np.zeros((3, 3), dtype=np.int64)
    a[2] = row
    with pytest.raises(ValueError, match=rf"^a must .*; row 2 is {re.escape(str(row))}$"):
        input_indices(cfg, s, a)
    a[2] = [0, 0, 1]
    assert input_indices(cfg, s, a)[cfg.d_s].tolist() == [4, 4, 2]  # a no-op reads index width


@pytest.mark.parametrize("graph", ["chain", "full"])
def test_input_indices_equal_the_any_argmax_formula_on_every_action(graph):
    cfg = EnvConfig.chain(d_s=3) if graph == "chain" else EnvConfig.full(d_s=5)
    a = action_options(cfg)
    s = np.random.default_rng(0).integers(0, cfg.l, size=a.shape)
    want = np.where(a.any(axis=1), a.argmax(axis=1), max(cfg.l, cfg.d_s))
    idx = input_indices(cfg, s, a)
    assert idx.dtype == np.intp and idx.shape == (cfg.d_s + 1, len(a))
    assert np.array_equal(idx[cfg.d_s], want) and np.array_equal(idx[: cfg.d_s], s.T)
    for dtype in (np.int8, np.uint64):
        assert np.array_equal(input_indices(cfg, s, a.astype(dtype)), idx)


# chain3 pads the action input (l > d_s), full5 the factor inputs (d_s > l).
@pytest.mark.parametrize("graph", ["chain", "full"])
def test_embed_padding_rows_stay_zero_under_training(graph):
    cfg = EnvConfig.chain(d_s=3) if graph == "chain" else EnvConfig.full(d_s=5)
    bundle = build_models(cfg, "dvae_full", seed=0)
    batch = small_batch(cfg)
    in_dims = [cfg.l] * cfg.d_s + [cfg.d_s]
    pads = [(i, d) for i, d in enumerate(in_dims) if d < max(in_dims)]
    assert pads
    opt = Adam(bundle.store.trainable(), lr=1e-2)
    graph_binary = np.ones((cfg.d_s + 1, cfg.d_s), dtype=np.int64)
    for step_i in range(3):
        opt.zero_grad()
        rand = StepRandomness(0, step_i)
        total, _ = total_objective(batch, bundle, graph_binary, rand, ObjectiveConfig())
        backward(total)
        opt.step()
    for j, (embed_W, *_) in enumerate(bundle.transition._extractors):
        assert np.any(embed_W.grad != 0)
        for i, d in pads:
            assert np.all(embed_W.data[i, d:] == 0.0), (j, i)
            assert np.any(embed_W.data[i, :d] != 0.0)


def test_all_zero_mask_rejected():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    s = np.zeros((2, 3), dtype=np.int64)
    a = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="mask"):
        _one_mask_logits(bundle.transition, 0, _transition_inputs(cfg, s, a), np.zeros(4))
    feats = bundle.transition.features(0, *_transition_inputs(cfg, s, a))
    with pytest.raises(ValueError, match="masks must have shape"):
        bundle.transition.logits_from_features(0, feats, cmi_masks(cfg))  # (K, d_s+1): no row axis


@pytest.mark.parametrize("shape", [(4,), (5, 3), (5, 5), (5, 1, 4)])
def test_log_probs_refuses_masks_not_shaped_k_by_inputs(shape):
    cfg = chain3()
    model = build_models(cfg, "dvae_full", seed=0).transition
    s = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match=re.escape(f"masks must have shape (K, 4), got {shape}")):
        model.log_probs(s, s, np.ones(shape))
    assert len(model._memo.codes) == 0


def test_transition_learns_noise_free_chain_by_enumeration():
    # Supervised check that the masked-MLP family can represent the modulo
    # dynamics: train on random transitions, verify argmax on the full
    # enumeration of (state, action-option) inputs.
    cfg = chain3(noise_probs=[0.0, 1.0, 0.0])
    bundle = build_models(cfg, "dvae_full", seed=0)
    opt = Adam(
        {n: t for n, t in bundle.store.trainable().items() if n.startswith("theta")}, lr=3e-3
    )
    rng = np.random.default_rng(3)
    mask = cmi_masks(cfg)[0]
    for step_i in range(400):
        s = rng.integers(0, 4, size=(64, 3))
        a_choice = rng.integers(0, 3, size=64)
        a = np.zeros((64, 3), dtype=np.int64)
        a[a_choice == 1, 0] = 1
        a[a_choice == 2, 2] = 1
        nxt = step(s, a, np.zeros_like(s), cfg)
        inputs = _transition_inputs(cfg, s, a)
        losses = []
        for j in range(3):
            logits = _one_mask_logits(bundle.transition, j, inputs, mask)
            losses.append(nc.cross_entropy(logits, nxt[:, j]).mean())
        total = losses[0] + losses[1] + losses[2]
        opt.zero_grad()
        backward(total)
        opt.step()

    states = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    for a_vec in (np.array([0, 0, 0]), np.array([1, 0, 0]), np.array([0, 0, 1])):
        a = np.broadcast_to(a_vec, states.shape)
        nxt = step(states, a, np.zeros_like(states), cfg)
        inputs = _transition_inputs(cfg, states, a)
        for j in range(3):
            pred = _one_mask_logits(bundle.transition, j, inputs, mask).argmax(axis=-1)
            assert np.array_equal(pred, nxt[:, j]), f"target {j} wrong under a={a_vec}"


# -- reward head ------------------------------------------------------------------


def test_untrained_reward_loss_near_ln2():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    rng = np.random.default_rng(4)
    h = constant(one_hot(rng.integers(0, 4, size=100), 4))
    tau = constant(one_hot(rng.integers(0, 4, size=100), 4))
    logits = bundle.reward(h, tau)
    assert np.all(np.isfinite(logits.data))
    labels = rng.integers(0, 2, size=100)
    ce = nc.cross_entropy(logits, labels).mean()
    assert abs(float(ce.data) - math.log(2.0)) < 0.25


def test_reward_head_trains_to_perfect_accuracy_on_one_hot_hiddens():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    opt = Adam({f"psi/{n}": t for n, t in bundle.store.groups["psi"].items()}, lr=3e-3)
    rng = np.random.default_rng(5)
    for _ in range(400):
        hv = rng.integers(0, 4, size=64)
        tv = rng.integers(0, 4, size=64)
        labels = (hv == tv).astype(np.int64)
        logits = bundle.reward(constant(one_hot(hv, 4)), constant(one_hot(tv, 4)))
        loss = nc.cross_entropy(logits, labels).mean()
        opt.zero_grad()
        backward(loss)
        opt.step()
    hv = np.repeat(np.arange(4), 4)
    tv = np.tile(np.arange(4), 4)
    logits = bundle.reward(constant(one_hot(hv, 4)), constant(one_hot(tv, 4)))
    pred = logits.argmax(axis=-1)
    assert np.array_equal(pred, (hv == tv).astype(np.int64))


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    h = config_hash(cfg)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash=h, step=17)
    before = {n: t.data.copy() for n, t in bundle.store.tensors().items()}
    for t in bundle.store.tensors().values():
        t.data += 1.0
    arrays, step_no, _ = load_checkpoint(tmp_path / "ckpt", expected_config_hash=h)
    bundle.store.load_arrays(arrays)
    assert step_no == 17
    for n, t in bundle.store.tensors().items():
        assert np.array_equal(t.data, before[n]), n


def test_checkpoint_with_optimizer_and_cmi_arrays_loads_bit_exact(tmp_path):
    # The store takes the names under its groups; Adam takes its moments.
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    opt = Adam(bundle.store.trainable(), lr=1e-3)
    rng = np.random.default_rng(0)
    for _ in range(2):
        for p in opt.params.values():
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
    cmi = rng.random((cfg.d_s + 1, cfg.d_s))
    extra = {**opt.state_tensors(), "cmi/values": cmi}
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=2, extra_arrays=extra)
    arrays, step_no, _ = load_checkpoint(tmp_path / "ckpt")
    fresh = build_models(cfg, "dvae_full", seed=1)
    fresh_opt = Adam(fresh.store.trainable(), lr=1e-3)
    fresh.store.load_arrays(arrays)
    fresh_opt.load_state(arrays, step_no)
    loaded = fresh.store.tensors()
    for n, t in bundle.store.tensors().items():
        assert loaded[n].data.tobytes() == t.data.tobytes(), n
    loaded = fresh_opt.state_tensors()
    for n, a in opt.state_tensors().items():
        assert loaded[n].tobytes() == a.tobytes(), n
    assert arrays["cmi/values"].tobytes() == cmi.tobytes()
    assert fresh_opt.step_count == opt.step_count == 2


def _full5_checkpoint_state():
    """A full5 store and, as a training checkpoint carries them, Adam's
    moments after one step and the CMI values."""
    cfg = EnvConfig.full(d_s=5)
    bundle = build_models(cfg, "dvae_full", seed=0)
    opt = Adam(bundle.store.trainable(), lr=1e-3)
    rng = np.random.default_rng(0)
    for p in opt.params.values():
        p.grad = rng.normal(size=p.data.shape)
    opt.step()
    return bundle.store, {**opt.state_tensors(), "cmi/values": rng.random((cfg.d_s + 1, cfg.d_s))}


def test_checkpoint_file_is_its_header_line_then_each_tensor(tmp_path):
    store, extra = _full5_checkpoint_state()
    save_checkpoint(
        store, tmp_path / "ckpt", config_hash="h", step=50, extras={"adam_steps": 1}, extra_arrays=extra
    )
    arrays = {**{n: t.data for n, t in store.tensors().items()}, **extra}
    names = sorted(arrays)
    blob = b"".join(np.asarray(arrays[n], dtype="<f8").tobytes() for n in names)
    header = {
        "version": 4,
        "config_hash": "h",
        "step": 50,
        "extras": {"adam_steps": 1},
        "sha256": hashlib.sha256(blob).hexdigest(),
        "tensors": [[n, list(arrays[n].shape)] for n in names],
    }
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    assert (tmp_path / "ckpt" / "checkpoint.bin").read_bytes() == head + b"\n" + blob


def test_checkpoint_save_and_load_make_no_copy_of_the_payload(tmp_path, traced_peak):
    store, extra = _full5_checkpoint_state()
    payload = sum(t.data.nbytes for t in store.tensors().values())
    payload += sum(a.nbytes for a in extra.values())
    save = traced_peak(
        lambda: save_checkpoint(store, tmp_path / "ckpt", config_hash="h", step=1, extra_arrays=extra)
    )
    assert save.peak < 0.25 * payload
    load = traced_peak(lambda: load_checkpoint(tmp_path / "ckpt"))
    assert len(load.result[0]) == len(store.tensors()) + len(extra)
    assert load.peak <= 1.1 * payload


def test_loaded_checkpoint_arrays_are_writable_native_and_disjoint(tmp_path):
    store, extra = _full5_checkpoint_state()
    save_checkpoint(store, tmp_path / "ckpt", config_hash="h", step=1, extra_arrays=extra)
    arrays = list(load_checkpoint(tmp_path / "ckpt")[0].values())
    for i, x in enumerate(arrays):
        assert x.dtype == np.float64 and x.dtype.isnative
        x[...] = i  # raises if read-only
    assert all(np.all(x == i) for i, x in enumerate(arrays))  # no write reached another


@pytest.mark.parametrize("case", ["missing", "shape", "extra"])
def test_store_refused_load_leaves_tensors_unchanged(case):
    bundle = build_models(chain3(), "dvae_full", seed=0)
    before = {n: t.data.copy() for n, t in bundle.store.tensors().items()}
    arrays = {n: a + 1.0 for n, a in before.items()}
    last = list(arrays)[-1]  # the store's last tensor: every other one is checked first
    if case == "missing":
        del arrays[last]
    elif case == "shape":
        arrays[last] = arrays[last][..., None]
    else:
        arrays["psi/unknown"] = np.zeros(2)
    message = {"missing": "missing", "shape": "has shape", "extra": "unknown"}[case]
    with pytest.raises(ValueError, match=message):
        bundle.store.load_arrays(arrays)
    for n, t in bundle.store.tensors().items():
        assert np.array_equal(t.data, before[n]), n


def _checkpoint_file(tmp_path, step=1):
    """Save a chain3 checkpoint to tmp_path/ckpt and return its one file."""
    bundle = build_models(chain3(), "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=step)
    return tmp_path / "ckpt" / "checkpoint.bin"


@pytest.mark.parametrize("version", [3, 5])
def test_checkpoint_refuses_other_versions(tmp_path, version):
    # Version 3 was a tensors.bin blob beside a manifest.json with offsets.
    file = _checkpoint_file(tmp_path)
    header, blob = _read(file)
    assert header["version"] == 4
    header["version"] = version
    _write(file, header, blob)
    expected = f"{file} line 1: field 'version' is {version},"
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_directory_without_its_file_names_the_file(tmp_path):
    # A version-3 directory holds manifest.json and tensors.bin; no reader of it is kept.
    (tmp_path / "ckpt").mkdir()
    (tmp_path / "ckpt" / "manifest.json").write_text("{}")
    with pytest.raises(FileNotFoundError, match="checkpoint.bin"):
        load_checkpoint(tmp_path / "ckpt")


def _no_interrupt(monkeypatch):
    return ValueError


@pytest.mark.parametrize(
    "interrupt, step",
    [(_cut_mid_write, 2), (_fail_replace, 2), (_no_interrupt, np.float32(2.0))],
    ids=["mid_write", "before_replace", "unencodable_step"],
)
def test_interrupted_checkpoint_save_keeps_previous(tmp_path, monkeypatch, interrupt, step):
    bundle = build_models(chain3(), "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=1)
    before = {n: t.data.copy() for n, t in bundle.store.tensors().items()}
    for t in bundle.store.tensors().values():
        t.data += 1.0
    error = interrupt(monkeypatch)
    with pytest.raises(error):
        save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=step)
    monkeypatch.undo()
    assert os.listdir(tmp_path / "ckpt") == ["checkpoint.bin"]  # no temporary file left
    arrays, step_no, _ = load_checkpoint(tmp_path / "ckpt")
    assert step_no == 1
    for n, a in before.items():
        assert arrays[n].tobytes() == a.tobytes(), n


@pytest.mark.parametrize(
    "field, value",
    [
        ("step", True),
        ("step", -1),
        ("step", "3"),
        ("step", 2.5),
        ("config_hash", 5),
        ("extras", []),
    ],
    ids=[
        "bool_step", "negative_step", "string_step", "float_step", "int_config_hash", "list_extras"
    ],
)
def test_save_checkpoint_refuses_bad_argument_before_writing(tmp_path, field, value):
    bundle = build_models(chain3(), "dvae_full", seed=0)
    kwargs = {"config_hash": "h", "step": 1, field: value}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be")):
        save_checkpoint(bundle.store, tmp_path / "ckpt", **kwargs)
    assert not (tmp_path / "ckpt").exists()


def test_save_checkpoint_stores_numpy_step_as_int(tmp_path):
    file = _checkpoint_file(tmp_path, step=np.int64(2))
    assert _read(file)[0]["step"] == 2
    _, step_no, _ = load_checkpoint(tmp_path / "ckpt")
    assert type(step_no) is int and step_no == 2


def test_checkpoint_refuses_config_mismatch(tmp_path):
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="aaaa", step=1)
    with pytest.raises(ValueError, match="hash"):
        load_checkpoint(tmp_path / "ckpt", expected_config_hash="bbbb")


def test_checkpoint_rejects_truncated_blob(tmp_path):
    file = _checkpoint_file(tmp_path)
    _, blob = _read(file)
    full = file.read_bytes()
    file.write_bytes(full[: len(full) - len(blob) // 2])
    with pytest.raises(ValueError) as exc:
        load_checkpoint(tmp_path / "ckpt")
    msg = str(exc.value)
    assert str(file) in msg and str(len(blob)) in msg and str(len(blob) // 2) in msg


def test_checkpoint_payload_with_one_byte_flipped_names_sha256(tmp_path):
    file = _checkpoint_file(tmp_path)
    data = bytearray(file.read_bytes())
    data[-3] ^= 0x01  # same size, so only the digest can tell
    file.write_bytes(bytes(data))
    expected = f"{file}: the bytes after the header do not match field 'sha256'"
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["store", "extra_arrays"])
def test_save_checkpoint_refuses_non_finite_tensor_before_writing(tmp_path, where, value):
    bundle = build_models(chain3(), "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=1)
    before = (tmp_path / "ckpt" / "checkpoint.bin").read_bytes()
    extra = {"cmi/values": np.zeros((4, 3))}
    name, array = "cmi/values", extra["cmi/values"]
    if where == "store":
        name, tensor = list(bundle.store.tensors().items())[-1]
        array = tensor.data
    array.flat[-1] = value
    expected = f"save_checkpoint: tensor {name!r} holds a non-finite value"
    with pytest.raises(ValueError, match=re.escape(expected)):
        save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=2, extra_arrays=extra)
    assert (tmp_path / "ckpt" / "checkpoint.bin").read_bytes() == before


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_checkpoint_refuses_non_finite_tensor_naming_file_and_tensor(tmp_path, value):
    file = _checkpoint_file(tmp_path)
    header, blob = _read(file)
    values = np.frombuffer(blob, dtype="<f8").copy()
    name = header["tensors"][1][0]
    values[math.prod(header["tensors"][0][1])] = value  # tensor 1's first entry
    header["sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
    _write(file, header, values.tobytes())
    expected = f"{file}: tensor {name!r} holds a non-finite value"
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_checkpoint(tmp_path / "ckpt")


def _truncate_manifest(text):
    return text[: len(text) // 2]


def _drop_step(text):
    doc = json.loads(text)
    del doc["step"]
    return json.dumps(doc)


def _manifest_value(value, field):
    """Set the header's `field`."""

    def edit(text):
        doc = json.loads(text)
        doc[field] = value
        return json.dumps(doc)

    return edit


def _tensor_entry(make):
    """Replace entry 1 of the header's tensors with make(its name)."""

    def edit(text):
        doc = json.loads(text)
        doc["tensors"][1] = make(doc["tensors"][1][0])
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize(
    "edit, field",
    [
        (_truncate_manifest, "not valid JSON"),
        (_drop_step, "field 'step' is missing"),
        (_manifest_value(5, "tensors"), "field 'tensors' is 5, expected a list"),
        (_tensor_entry(lambda name: name), "field 'tensors': entry 1 is 'phi/"),
        (_tensor_entry(lambda name: [5, [2]]), "field 'tensors': entry 1 is [5, [2]]"),
        (_tensor_entry(lambda name: [name, "2"]), "'2'], expected a [name, shape] pair"),
        (_tensor_entry(lambda name: [name, [2.0]]), "[2.0]], expected a [name, shape] pair"),
        (_manifest_value("3", "step"), "field 'step' is '3', expected an integer >= 0"),
        (_manifest_value(-1, "step"), "field 'step' is -1"),
        (_manifest_value(True, "step"), "field 'step' is True"),
        (_manifest_value(2.5, "step"), "field 'step' is 2.5"),
        (_manifest_value([], "extras"), "field 'extras' is [], expected a JSON object"),
        (_manifest_value("x", "extras"), "field 'extras' is 'x'"),
        (_manifest_value(5, "config_hash"), "field 'config_hash' is 5, expected a string"),
    ],
    ids=[
        "truncated",
        "no_step",
        "tensors_not_list",
        "bare_name",
        "int_name",
        "string_shape",
        "float_dim",
        "string_step",
        "negative_step",
        "bool_step",
        "float_step",
        "list_extras",
        "string_extras",
        "int_config_hash",
    ],
)
def test_checkpoint_refuses_bad_manifest(tmp_path, edit, field):
    # The header line is what a separate manifest file held up to version 3.
    file = _checkpoint_file(tmp_path)
    head, _, blob = file.read_bytes().partition(b"\n")
    file.write_bytes(edit(head.decode()).encode() + b"\n" + blob)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(tmp_path / "ckpt")
    msg = str(exc.value)
    assert str(file) in msg and field in msg


def test_checkpoint_refuses_duplicate_tensor_name(tmp_path):
    file = _checkpoint_file(tmp_path)
    header, blob = _read(file)
    name = header["tensors"][0][0]
    header["tensors"][1][0] = name
    _write(file, header, blob)
    expected = f"field 'tensors': entries 0 and 1 both name tensor {name!r}"
    with pytest.raises(ValueError, match=re.escape(f"{file} line 1: {expected}")):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=1)
    big = build_models(EnvConfig.chain(d_s=5, noise_target="observation"), "dvae_full", seed=0)
    arrays, _, _ = load_checkpoint(tmp_path / "ckpt")
    with pytest.raises(ValueError) as exc:
        big.store.load_arrays(arrays)
    assert "theta" in str(exc.value) or "phi" in str(exc.value) or "missing" in str(exc.value)
