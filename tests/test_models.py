import math

import numpy as np
import pytest

from hindcaus import numcore as nc
from hindcaus.env import EnvConfig, cmi_masks, config_hash, generate_dataset, stack_episodes, step
from hindcaus.models import BatchEncoding, build_models, load_checkpoint, save_checkpoint
from hindcaus.numcore import Adam, backward, constant, one_hot, stream


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
    assert len(logits) == 6 and len(samples) == 6
    for lg, sm in zip(logits, samples):
        assert lg.shape == (4, 1, 4)
        assert sm.shape == (4, 1, 4)
        # Straight-through samples are exact one-hots.
        assert np.all(np.isin(sm.data, (0.0, 1.0)))
        assert np.allclose(sm.data.sum(axis=-1), 1.0)
        # Valid categorical logits.
        assert np.all(np.isfinite(lg.data))
        assert np.allclose(np.exp(lg.log_softmax().data).sum(axis=-1), 1.0, atol=1e-12)


def test_unroll_deterministic_replay():
    cfg = chain3()
    batch = small_batch(cfg)
    bundle = build_models(cfg, "dvae_full", seed=3)

    def run():
        enc = BatchEncoding(batch, cfg)
        logits, samples = bundle.encoder.unroll(
            enc, temperature=1.0, noise_for=noise_fn_for(cfg, batch.size), hard=True
        )
        return [lg.data.copy() for lg in logits], [sm.data.copy() for sm in samples]

    l1, s1 = run()
    l2, s2 = run()
    for a, b in zip(l1 + s1, l2 + s2):
        assert np.array_equal(a, b)


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
    detached = [s.detach() for s in samples]
    logits_bar, none_samples = bundle.encoder_target.unroll(enc, prev_samples=detached)
    assert none_samples is None
    for lg in logits_bar:
        assert not lg.requires_grad
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


# -- masked transition ----------------------------------------------------------


def _transition_inputs(cfg, s_values, a_values):
    """Integer states -> list of one-hot/action constant inputs."""
    inputs = []
    for i in range(cfg.d_s):
        inputs.append(constant(one_hot(s_values[:, i], cfg.l)))
    inputs.append(constant(a_values.astype(np.float64)))
    return inputs


def test_masked_output_ignores_masked_inputs():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    rng = np.random.default_rng(0)
    s = rng.integers(0, 4, size=(8, 3))
    a = np.zeros((8, 3), dtype=np.int64)
    masks = cmi_masks(cfg)
    for j in range(3):
        for i in range(4):  # 3 factors + action node
            base = bundle.transition.forward(j, _transition_inputs(cfg, s, a), masks[i + 1]).data
            s2 = s.copy()
            a2 = a.copy()
            if i < 3:
                s2[:, i] = (s2[:, i] + 1) % 4
            else:
                a2[:, 0] = 1
            got = bundle.transition.forward(j, _transition_inputs(cfg, s2, a2), masks[i + 1]).data
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
    full_a = bundle.transition.forward(j, _transition_inputs(cfg, s, a), full).data
    full_b = bundle.transition.forward(j, _transition_inputs(cfg, s2, a), full).data
    assert not np.array_equal(full_a, full_b)
    loo_a = bundle.transition.forward(j, _transition_inputs(cfg, s, a), loo).data
    loo_b = bundle.transition.forward(j, _transition_inputs(cfg, s2, a), loo).data
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
    out_a = bundle.transition.forward(2, _transition_inputs(cfg, s, a), mask).data
    out_b = bundle.transition.forward(2, _transition_inputs(cfg, s2, a), mask).data
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
    feats = bundle.transition.features(j, inputs)
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
            assert np.array_equal(stacked[k], bundle.transition.forward(j, inputs, mask).data), k


def test_all_zero_mask_rejected():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    s = np.zeros((2, 3), dtype=np.int64)
    a = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="mask"):
        bundle.transition.forward(0, _transition_inputs(cfg, s, a), np.zeros(4))
    feats = bundle.transition.features(0, _transition_inputs(cfg, s, a))
    with pytest.raises(ValueError, match="masks must have shape"):
        bundle.transition.logits_from_features(0, feats, cmi_masks(cfg))  # (K, d_s+1): no row axis


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
            logits = bundle.transition.forward(j, inputs, mask)
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
            pred = bundle.transition.forward(j, inputs, mask).argmax(axis=-1)
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


def test_checkpoint_refuses_config_mismatch(tmp_path):
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="aaaa", step=1)
    with pytest.raises(ValueError, match="hash"):
        load_checkpoint(tmp_path / "ckpt", expected_config_hash="bbbb")


def test_checkpoint_rejects_truncated_blob(tmp_path):
    bundle = build_models(chain3(), "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=1)
    blob = tmp_path / "ckpt" / "tensors.bin"
    full = blob.read_bytes()
    blob.write_bytes(full[: len(full) // 2])
    with pytest.raises(ValueError) as exc:
        load_checkpoint(tmp_path / "ckpt")
    msg = str(exc.value)
    assert "tensors.bin" in msg and str(len(full)) in msg and str(len(full) // 2) in msg


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=1)
    big = build_models(EnvConfig.chain(d_s=5, noise_target="observation"), "dvae_full", seed=0)
    arrays, _, _ = load_checkpoint(tmp_path / "ckpt")
    with pytest.raises(ValueError) as exc:
        big.store.load_arrays(arrays)
    assert "theta" in str(exc.value) or "phi" in str(exc.value) or "missing" in str(exc.value)
