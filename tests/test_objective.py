import gc
import math
import re
import sys
import weakref

import numpy as np
import pytest

from hindcaus import numcore as nc
from hindcaus.env import (
    EnvConfig,
    TabularTransitionModel,
    cmi_masks,
    generate_dataset,
    ground_truth_graph,
    noise_entropy,
    stack_episodes,
)
from hindcaus.graph import CmiMatrix, cmi_from_batch
from hindcaus.models import BatchEncoding, ModelHyper, build_models, hidden_stack
from hindcaus.numcore import Tensor, backward, concat, constant, no_grad, one_hot
from hindcaus.numcore import tensor as tensor_mod
from hindcaus.objective import (
    ObjectiveConfig,
    StepRandomness,
    reward_loss,
    total_objective,
    vlb_losses,
)
from test_models import _one_mask_logits, wrong_time_major, wrong_time_major_cases


def chain3(noise_target="hidden", **kw):
    return EnvConfig.chain(d_s=3, noise_target=noise_target, **kw)


def make_batch(cfg, n=8, seed=0):
    return stack_episodes(generate_dataset(cfg, n, seed=seed).episodes)


def full_graph(cfg):
    return np.ones((cfg.d_s + 1, cfg.d_s), dtype=np.int64)


class TabularAdapter:
    """Drop-in transition model computing exact conditional log-probs."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.model = TabularTransitionModel(cfg)

    def features(self, j, idx, hidden):
        return idx, hidden

    def logits_from_features(self, j, inputs, masks):
        idx, hidden = inputs
        cfg = self.cfg
        s = idx[: cfg.d_s].T.copy()
        s[:, cfg.hidden_indices] = hidden.data[:, :, : cfg.l].argmax(axis=-1).T
        a = np.zeros_like(s)
        acted = idx[cfg.d_s] < cfg.d_s  # a no-op reads index width
        a[acted, idx[cfg.d_s, acted]] = 1
        out = np.empty((len(masks), s.shape[0], cfg.l))
        for k, mask in enumerate(np.asarray(masks, dtype=bool)):
            mask = np.broadcast_to(mask, (s.shape[0], mask.shape[-1]))
            for m in np.unique(mask, axis=0):
                rows = (mask == m).all(axis=1)
                out[k, rows] = self.model.log_probs(s[rows], a[rows], m[None])[j, 0]
        return constant(out)


def gt_hidden_samples(cfg, episodes):
    """One-hot `gt_h` as the (T+1, B, d_h, l) samples of an encoder."""
    gt_h = np.stack([e.gt_h for e in episodes], axis=1)  # (T+1, B, d_h)
    return constant(one_hot(gt_h, cfg.l))


def point_mass_logits(cfg, episodes, scale=50.0):
    return constant(scale * gt_hidden_samples(cfg, episodes).data)


def oracle_vlb(cfg, n_episodes, seed, mask_draw=None):
    ds = generate_dataset(cfg, n_episodes, seed=seed)
    batch = stack_episodes(ds.episodes)
    bundle = build_models(cfg, "dvae_full", seed=0)
    bundle.transition = TabularAdapter(cfg)
    samples = gt_hidden_samples(cfg, ds.episodes)
    targets = point_mass_logits(cfg, ds.episodes)
    loss, breakdown, _ = vlb_losses(
        batch,
        bundle,
        ground_truth_graph(cfg),
        StepRandomness(seed=1, step=0),
        ObjectiveConfig(),
        samples=samples,
        target_logits=targets,
        mask_draw=mask_draw,
    )
    return breakdown


# -- oracle-grade checks -------------------------------------------------------


def test_noise_free_tabular_model_full_and_causal_nll_vanish():
    cfg = chain3(noise_probs=[0.0, 1.0, 0.0])
    breakdown = oracle_vlb(cfg, n_episodes=50, seed=3)
    assert breakdown.full_nll == pytest.approx(0.0, abs=1e-9)
    assert breakdown.causal_nll == pytest.approx(0.0, abs=1e-9)
    assert breakdown.full_kl == pytest.approx(0.0, abs=1e-6)
    assert breakdown.causal_kl == pytest.approx(0.0, abs=1e-6)


def test_noisy_hidden_full_kl_floor_is_noise_entropy():
    cfg = chain3("hidden")
    breakdown = oracle_vlb(cfg, n_episodes=500, seed=4)
    assert abs(breakdown.full_kl - noise_entropy(cfg)) < 0.06


def test_masked_nll_exceeds_full_nll_when_true_parent_masked():
    cfg = chain3("observation")
    B, T = 200, cfg.horizon
    # Always leave out factor 1 (the hidden factor, a true parent of o^2).
    mask_draw = np.ones((B, T, cfg.d_s), dtype=np.int64)
    breakdown = oracle_vlb(cfg, n_episodes=B, seed=5, mask_draw=mask_draw)
    assert breakdown.per_factor["masked_nll"][2] > breakdown.per_factor["full_nll"][2] + 0.3
    assert breakdown.masked_nll >= breakdown.full_nll


@pytest.mark.parametrize("draw", [-1, 4, 2.0], ids=["negative", "past_action_node", "float"])
def test_vlb_losses_refuses_mask_draw_outside_the_inputs(draw):
    cfg = chain3("observation")
    B, T = 8, cfg.horizon
    mask_draw = np.ones((B, T, cfg.d_s), dtype=type(draw))
    mask_draw[3, 2, 1] = draw
    with pytest.raises(ValueError, match=re.escape("mask_draw must hold integer input indices")):
        oracle_vlb(cfg, n_episodes=B, seed=5, mask_draw=mask_draw)


@pytest.mark.parametrize(
    "field, value",
    [("temperature", True), ("temperature", "1"), ("reward_weight", True), ("reward_weight", "1")],
    ids=["bool_temperature", "string_temperature", "bool_reward_weight", "string_reward_weight"],
)
def test_objective_config_refuses_settings_that_are_not_real_numbers(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got {re.escape(repr(value))}$"):
        ObjectiveConfig(**{field: value})


# -- neural-path checks ----------------------------------------------------------


def test_lambda_zero_and_linearity():
    cfg = chain3()
    batch = make_batch(cfg)
    bundle = build_models(cfg, "dvae_full", seed=0)
    rand = StepRandomness(seed=2, step=5)
    g = full_graph(cfg)
    t0, b0 = total_objective(batch, bundle, g, rand, ObjectiveConfig(reward_weight=0.0))
    t1, b1 = total_objective(batch, bundle, g, rand, ObjectiveConfig(reward_weight=1.0))
    t2, b2 = total_objective(batch, bundle, g, rand, ObjectiveConfig(reward_weight=2.0))
    vlb_sum = b0.full_nll + b0.masked_nll + b0.causal_nll + b0.full_kl + b0.masked_kl + b0.causal_kl
    assert float(t0.data) == pytest.approx(vlb_sum, rel=1e-12)
    assert float(t2.data) - float(t1.data) == pytest.approx(b1.reward_ce, rel=1e-9)
    assert b1.reward_ce == pytest.approx(b2.reward_ce, rel=1e-12)


def test_components_non_negative_and_match_per_factor_sums():
    cfg = chain3()
    batch = make_batch(cfg, n=6, seed=1)
    bundle = build_models(cfg, "dvae_1step", seed=1)
    total, b = total_objective(
        batch, bundle, full_graph(cfg), StepRandomness(seed=0, step=0), ObjectiveConfig()
    )
    for name, value in b.as_dict().items():
        assert value >= 0.0, name
    for comp, factors in b.per_factor.items():
        assert getattr(b, comp) == pytest.approx(sum(factors.values()), rel=1e-12)
    assert float(total.data) == pytest.approx(b.total, rel=1e-12)


def test_breakdown_matches_independent_recomputation():
    cfg = chain3()
    batch = make_batch(cfg, n=5, seed=2)
    bundle = build_models(cfg, "dvae_full", seed=2)
    T, B = batch.horizon, batch.size
    mask_draw = np.random.default_rng(8).integers(0, cfg.d_s + 1, size=(B, T, cfg.d_s))
    graph = ground_truth_graph(cfg)
    assert graph[0, 2] == 0 and graph[:, 2].sum() == 3  # o^2's causal mask drops o^1
    _, b, samples = vlb_losses(
        batch, bundle, graph, StepRandomness(seed=7, step=3), ObjectiveConfig(), mask_draw=mask_draw
    )

    # Recompute factor 2's (o^2) NLL and factor 1's (h) KL terms with plain
    # numpy, one single-mask logits call per term.
    from hindcaus.objective import _transition_inputs

    rows = np.arange(T * B)
    flat = lambda arr: np.swapaxes(arr, 0, 1).reshape(T * B)  # transition-major

    def log_softmax(x):
        shifted = x - x.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def masks_for(j):
        loo = np.ones((T * B, cfg.d_s + 1))
        loo[rows, flat(mask_draw[:, :, j])] = 0.0
        return {"full": cmi_masks(cfg)[0], "masked": loo, "causal": graph[:, j]}

    with no_grad():
        inputs = _transition_inputs(batch, cfg, samples)
        enc = BatchEncoding(batch, cfg)
        targets, _ = bundle.encoder_target.unroll(enc, prev_samples=samples.detach())
        lq = log_softmax(np.concatenate([targets.data[t + 1, :, 0, :] for t in range(T)]))
        labels = flat(batch.o[:, 1:, 1])  # o^2 is observed pos 1
        for kind, mask in masks_for(2).items():
            logp = log_softmax(_one_mask_logits(bundle.transition, 2, inputs, mask).data)
            expected = float(-logp[rows, labels].mean())
            assert b.per_factor[f"{kind}_nll"][2] == pytest.approx(expected, rel=1e-10), kind
        for kind, mask in masks_for(1).items():
            logp = log_softmax(_one_mask_logits(bundle.transition, 1, inputs, mask).data)
            expected = float((np.exp(lq) * (lq - logp)).sum(axis=1).mean())
            assert b.per_factor[f"{kind}_kl"][1] == pytest.approx(expected, rel=1e-10), kind


def test_phi_bar_receives_no_gradient():
    cfg = chain3()
    batch = make_batch(cfg)
    bundle = build_models(cfg, "dvae_full", seed=3)
    total, _ = total_objective(
        batch, bundle, full_graph(cfg), StepRandomness(seed=1, step=1), ObjectiveConfig()
    )
    backward(total)
    for t in bundle.store.groups["phi_bar"].values():
        assert t.grad is None
    # The live groups do receive gradient.
    got = {g: any(t.grad is not None for t in bundle.store.groups[g].values()) for g in
           ("theta_o", "theta_h", "phi", "psi")}
    assert all(got.values()), got


def objective_slice_and_add(batch, bundle, graph_binary, rand, cfg):
    """`total_objective` as it was assembled from per-t lists of encoder
    outputs: each use concatenates the lists back, and each component sums
    its targets through one slice and one add per target."""
    from hindcaus.objective import COMPONENTS, _flatten_tm, _transition_inputs

    env = bundle.env
    B, T = batch.size, batch.horizon
    enc = BatchEncoding(batch, env)
    _, stacked = bundle.encoder.unroll(
        enc, temperature=cfg.temperature, noise_for=rand.encoder_noise(B, env, T), hard=True
    )
    target_stack, _ = bundle.encoder_target.unroll(enc, prev_samples=stacked.detach())
    samples = [stacked[t] for t in range(T + 1)]
    target_logits = [target_stack[t] for t in range(T + 1)]
    idx = _transition_inputs(batch, env, stacked)[0]
    hidden = hidden_stack(env, concat(samples[:T], axis=0))
    mask_draw = rand.mask_indices(B, T, env)
    obs_pos = {f: p for p, f in enumerate(env.observed_indices)}
    hid_pos = {f: p for p, f in enumerate(env.hidden_indices)}

    zero = constant(np.zeros(()))
    sums = dict.fromkeys(COMPONENTS[:6], zero)
    per_factor = {c: {} for c in COMPONENTS[:6]}
    fallbacks = []
    for j in range(env.d_s):
        feats = bundle.transition.features(j, idx, hidden)
        # The causal block is left out where it would copy the full one, as
        # `vlb_losses` does, so only the assembly differs from it.
        column = graph_binary[:, j]
        copies_full = column.all() or not column.any()
        masks = np.ones((2 if copies_full else 3, T * B, env.d_s + 1))
        masks[1, np.arange(T * B), _flatten_tm(mask_draw[:, :, j])] = 0.0
        if not column.any():
            fallbacks.append(j)
        if not copies_full:
            masks[2] = column
        logits = bundle.transition.logits_from_features(j, feats, masks)
        if j in obs_pos:
            labels = _flatten_tm(batch.o[:, 1 : T + 1, obs_pos[j]])
            names, terms = COMPONENTS[:3], nc.cross_entropy(logits, labels).mean(axis=1)
        else:
            q = concat([target_logits[t + 1][:, hid_pos[j], :] for t in range(T)], axis=0)
            names, terms = COMPONENTS[3:6], nc.categorical_kl(q, logits).mean(axis=1)
        if copies_full:
            terms = terms[[0, 1, 0]]
        for k, c in enumerate(names):
            sums[c] = sums[c] + terms[k]
            per_factor[c][j] = float(terms.data[k])
    loss = zero
    for c in COMPONENTS[:6]:
        loss = loss + sums[c]

    h_rows = concat([samples[t].reshape(B, env.d_h * env.l) for t in range(1, T + 1)], axis=0)
    tau_rows = constant(np.tile(one_hot(batch.tau, env.l), (T, 1)))
    r_ce = nc.cross_entropy(bundle.reward(h_rows, tau_rows), _flatten_tm(batch.r)).mean()
    total = loss + r_ce * cfg.reward_weight
    values = {c: float(sums[c].data) for c in COMPONENTS[:6]}
    values.update(reward_ce=float(r_ce.data), total=float(total.data))
    return total, values, per_factor, tuple(fallbacks)


@pytest.mark.parametrize(
    "cfg",
    [
        chain3(),
        EnvConfig.full(d_s=5, l=4, noise_target="hidden"),
        EnvConfig.full(d_s=5, l=4, noise_target="hidden", hidden_indices=[1, 3]),
    ],
    ids=["chain3", "full5", "full5-two-hidden"],
)
def test_array_assembly_matches_slice_and_add_reference(cfg):
    batch = make_batch(cfg, n=16, seed=3)
    bundle = build_models(cfg, "dvae_full", seed=1)
    rng = np.random.default_rng(4)
    for t in bundle.store.tensors().values():
        t.data += 0.3 * rng.normal(size=t.shape)
    graph = ground_truth_graph(cfg)
    graph[:, 0] = 0  # factor 0 falls back to the full mask
    rand = StepRandomness(seed=5, step=2)
    ocfg = ObjectiveConfig(reward_weight=0.7)
    params = bundle.store.trainable()

    def run(objective):
        for p in params.values():
            p.grad = None
        out = objective(batch, bundle, graph, rand, ocfg)
        backward(out[0])
        return out, {n: p.grad for n, p in params.items()}

    (total, b), grads = run(total_objective)
    (ref_total, values, per_factor, fallbacks), ref_grads = run(objective_slice_and_add)
    assert np.array_equal(total.data, ref_total.data)
    assert b.as_dict() == values
    assert b.per_factor == per_factor
    assert b.causal_fallback_factors == fallbacks == (0,)
    for n, g in ref_grads.items():
        assert g is not None and np.array_equal(grads[n], g), n


def vlb_losses_three_blocks(batch, bundle, graph_binary, rand, cfg):
    """`vlb_losses` with every target run on all three mask blocks, even
    where the causal mask copies the full one."""
    from hindcaus.objective import COMPONENTS, _flatten_tm, _transition_inputs

    env = bundle.env
    B, T = batch.size, batch.horizon
    enc = BatchEncoding(batch, env)
    _, samples = bundle.encoder.unroll(
        enc, temperature=cfg.temperature, noise_for=rand.encoder_noise(B, env, T), hard=True
    )
    target_logits, _ = bundle.encoder_target.unroll(enc, prev_samples=samples.detach())
    idx, hidden = _transition_inputs(batch, env, samples)
    mask_draw = rand.mask_indices(B, T, env)
    obs_pos = {f: p for p, f in enumerate(env.observed_indices)}
    hid_pos = {f: p for p, f in enumerate(env.hidden_indices)}
    nll_terms, kl_terms, fallbacks = [], [], []
    per_factor = {c: {} for c in COMPONENTS[:6]}
    for j in range(env.d_s):
        feats = bundle.transition.features(j, idx, hidden)
        masks = np.ones((3, T * B, env.d_s + 1))
        masks[1, np.arange(T * B), _flatten_tm(mask_draw[:, :, j])] = 0.0
        if graph_binary[:, j].any():
            masks[2] = graph_binary[:, j]
        else:
            fallbacks.append(j)
        logits = bundle.transition.logits_from_features(j, feats, masks)
        if j in obs_pos:
            labels = _flatten_tm(batch.o[:, 1 : T + 1, obs_pos[j]])
            names, terms = COMPONENTS[:3], nc.cross_entropy(logits, labels).mean(axis=1)
            nll_terms.append(terms)
        else:
            q = target_logits[1:, :, hid_pos[j]].reshape(T * B, env.l)
            names, terms = COMPONENTS[3:6], nc.categorical_kl(q, logits).mean(axis=1)
            kl_terms.append(terms)
        for k, c in enumerate(names):
            per_factor[c][j] = float(terms.data[k])
    components = concat([nc.stack(nll_terms).sum(axis=0), nc.stack(kl_terms).sum(axis=0)])
    loss = components.sum()
    values = dict(zip(COMPONENTS[:6], components.data.tolist()))
    values.update(reward_ce=0.0, total=float(loss.data))
    return loss, values, per_factor, tuple(fallbacks)


@pytest.mark.parametrize(
    "cfg",
    [chain3(), EnvConfig.full(d_s=5, l=4, noise_target="hidden", hidden_indices=[1, 3])],
    ids=["chain3", "full5-two-hidden"],
)
def test_causal_block_skip_matches_three_block_reference(cfg):
    # The benchmark's 320 rows (64 episodes, T = 5): at fewer rows BLAS may
    # take a gemv path whose rounding differs from the batched one.
    batch = make_batch(cfg, n=64, seed=6)
    bundle = build_models(cfg, "dvae_full", seed=2)
    rng = np.random.default_rng(7)
    for t in bundle.store.tensors().values():
        t.data += 0.3 * rng.normal(size=t.shape)
    graph = ground_truth_graph(cfg)
    graph[:, 0] = 1  # keeps every input: the causal block copies the full one
    graph[:, 1] = 0  # keeps none: falls back to the full mask
    assert 0 < graph[:, 2].sum() < cfg.d_s + 1  # a sparse column keeps its own block
    rand = StepRandomness(seed=3, step=4)
    ocfg = ObjectiveConfig()
    params = bundle.store.trainable()

    def run(objective):
        for p in params.values():
            p.grad = None
        out = objective(batch, bundle, graph, rand, ocfg)
        backward(out[0])
        return out, {n: p.grad for n, p in params.items()}

    (loss, b, _), grads = run(vlb_losses)
    (ref_loss, values, per_factor, fallbacks), ref_grads = run(vlb_losses_three_blocks)
    assert np.array_equal(loss.data, ref_loss.data)
    assert b.as_dict() == values
    assert b.per_factor == per_factor
    assert b.causal_fallback_factors == fallbacks == (1,)
    # The reused full block sums its two gradients before the head's
    # backward, so gradients agree to rounding, not bit for bit.
    # psi gets none: the reward loss is not part of the VLB.
    assert {n for n, g in grads.items() if g is None} == {
        n for n, g in ref_grads.items() if g is None
    } == {n for n in params if n.startswith("psi/")}
    for n, g in ref_grads.items():
        if g is not None:
            assert np.abs(grads[n] - g).max() <= 1e-13 * np.abs(g).max(), n


@pytest.mark.parametrize(
    "make, d_s", [(EnvConfig.chain, 3), (EnvConfig.full, 5)], ids=["chain3", "full5"]
)
def test_encoder_noise_block_equals_one_generator_per_step(make, d_s):
    # The training workloads' shapes: 64 episodes of horizon 5 at l = 4.
    cfg = make(d_s, l=4, horizon=5, noise_target="hidden")
    noise_for = StepRandomness(seed=11, step=7).encoder_noise(64, cfg, 5)
    for t in range(6):
        want = nc.gumbel_noise((64, cfg.d_h, cfg.l), nc.stream(11, "train", "gumbel", 7, t))
        assert np.array_equal(noise_for(t), want)
    with pytest.raises(IndexError):
        noise_for(6)


def test_objective_draws_one_stream_and_the_cmi_estimate_none(monkeypatch):
    # Every other draw goes through `stream_uniforms`. Each module's own
    # binding of `stream` is replaced, so any caller in the package counts.
    cfg = chain3(l=4, horizon=5)
    batch = make_batch(cfg, n=16)
    bundle = build_models(cfg, "dvae_full", seed=0)
    calls = []

    def counted(*ids):
        calls.append(ids)
        return real(*ids)

    real = nc.stream
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hindcaus" and getattr(module, "stream", None) is real:
            monkeypatch.setattr(module, "stream", counted)
    rand = StepRandomness(seed=0, step=3)
    total_objective(batch, bundle, full_graph(cfg), rand, ObjectiveConfig())
    assert calls == [(0, "train", "mask", 3)]
    calls.clear()
    cmi_from_batch(bundle, batch, seed=0, step=3, temperature=1.0)
    assert calls == []


def tape_nodes(loss):
    """Tensors the backward from `loss` visits: op outputs and parameters."""
    seen, todo = {id(loss)}, [loss]
    while todo:
        for p in todo.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


@pytest.mark.parametrize(
    "make, d_s, nodes",
    [(EnvConfig.chain, 3, 90), (EnvConfig.full, 5, 125)],
    ids=["chain3", "full5"],
)
def test_objective_tape_node_count_is_pinned(make, d_s, nodes):
    # The benchmark's training configs (l=4, T=5, dvae_full). Each target's
    # extractors are one two-layer mlp node and one tanh node, run once on
    # the table basis and once on the hidden slices (no weight slices are
    # taped); one masked_max node pools straight from the table and the
    # hidden features; each head and each network of the encoders is one
    # mlp node, which takes the leading axes of its input itself, so no
    # reshape node sits around a head; the GRU, its input projection
    # included, is one gru_scan node; each loss is one node. Splitting any
    # of these raises the count. Under the full graph every causal mask
    # copies the full one, so each target also has the one index node that
    # reuses its full term as its causal term.
    cfg = make(d_s, l=4, horizon=5, noise_target="hidden")
    bundle = build_models(cfg, "dvae_full", seed=0)
    total, _ = total_objective(
        make_batch(cfg), bundle, full_graph(cfg), StepRandomness(seed=0, step=0), ObjectiveConfig()
    )
    assert tape_nodes(total) == nodes


@pytest.mark.parametrize(
    "param_name",
    ["theta_o/target0.head.l1.b", "theta_h/target1.head.l1.b", "psi/reward.l2.b"],
)
def test_total_gradient_matches_finite_differences(param_name):
    cfg = chain3(horizon=2)
    batch = make_batch(cfg, n=2, seed=4)
    bundle = build_models(cfg, "dvae_full", seed=4)
    rand = StepRandomness(seed=9, step=2)
    ocfg = ObjectiveConfig()
    g = full_graph(cfg)

    def f():
        total, _ = total_objective(batch, bundle, g, rand, ocfg)
        return total

    params = {param_name: bundle.store.tensors()[param_name]}
    errs = nc.check_gradients(f, params, h=1e-5)
    assert max(errs.values()) < 1e-3, errs


@pytest.mark.parametrize(
    "param_name, hidden_dim",
    [
        pytest.param("phi/combiner.l1.b", 64, id="phi/combiner.l1.b"),
        pytest.param("phi/context0", 64, id="phi/context0"),
        # Weights whose gradients sum over every step of the sampling pass;
        # a small hidden layer keeps their finite differences quick.
        pytest.param("phi/past.l0.W", 8, id="phi/past.l0.W"),
        pytest.param("phi/combiner.l0.W", 8, id="phi/combiner.l0.W"),
    ],
)
def test_encoder_gradient_matches_finite_differences_with_frozen_targets(param_name, hidden_dim):
    # Finite differences see the stop-gradient path (phi's samples feed the
    # detached target pass), reverse mode deliberately does not. Freezing the
    # KL targets isolates the differentiable phi paths; relaxed samples keep
    # the forward smooth.
    cfg = chain3(horizon=2)
    batch = make_batch(cfg, n=2, seed=4)
    bundle = build_models(cfg, "dvae_full", seed=4, hyper=ModelHyper(hidden_dim=hidden_dim))
    rand = StepRandomness(seed=9, step=2)
    ocfg = ObjectiveConfig()
    g = full_graph(cfg)
    enc = BatchEncoding(batch, cfg)

    def relaxed_samples():
        noise_for = rand.encoder_noise(batch.size, cfg, batch.horizon)
        _, samples = bundle.encoder.unroll(enc, ocfg.temperature, noise_for=noise_for, hard=False)
        return samples

    frozen_targets, _ = bundle.encoder_target.unroll(enc, prev_samples=relaxed_samples().detach())

    def f():
        samples = relaxed_samples()
        loss, _, _ = vlb_losses(
            batch, bundle, g, rand, ocfg, samples=samples, target_logits=frozen_targets
        )
        return loss + reward_loss(batch, bundle, samples)

    params = {param_name: bundle.store.tensors()[param_name]}
    errs = nc.check_gradients(f, params, h=1e-5)
    assert max(errs.values()) < 1e-3, errs


@pytest.mark.parametrize(
    "make, d_s", [(EnvConfig.chain, 3), (EnvConfig.full, 5)], ids=["chain3", "full5"]
)
def test_no_feature_stack_is_formed(make, d_s, monkeypatch):
    # No array of the (d_s+1, rows, feat) shape of a per-input feature stack
    # is made by an op, taped or untaped, kept by a backward function on the
    # tape, or handed to a tensor as its gradient.
    cfg = make(d_s, l=4, horizon=5, noise_target="hidden")
    batch = make_batch(cfg)
    bundle = build_models(cfg, "dvae_full", seed=0)
    feat = bundle.transition.feat_dim
    shapes = []  # of every op output and every gradient handed to a tensor
    finish, accumulate = tensor_mod._finish, Tensor._accumulate

    def finish_spy(data, parents, backward_fn):
        shapes.append(np.shape(data))
        return finish(data, parents, backward_fn)

    def accumulate_spy(self, g):
        shapes.append(g.shape)
        accumulate(self, g)

    monkeypatch.setattr(tensor_mod, "_finish", finish_spy)
    monkeypatch.setattr(Tensor, "_accumulate", accumulate_spy)
    args = (batch, bundle, full_graph(cfg), StepRandomness(0, 0), ObjectiveConfig())
    with no_grad():
        vlb_losses(*args)
    total, _ = total_objective(*args)
    seen, todo = {id(total)}, [total]
    while todo:
        node = todo.pop()
        fn = node._backward
        if fn is not None:
            held = [c.cell_contents for c in fn.__closure__ or ()] + list(fn.__defaults__ or ())
            shapes += [x.shape for x in held if isinstance(x, np.ndarray)]
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    backward(total)
    assert (d_s + 1, max(cfg.l, d_s) + 1, feat) in shapes  # the spies see the feature tables
    assert (d_s + 1, batch.horizon * batch.size, feat) not in shapes


def reference_backward(loss):
    """The tape walk as it was before `backward` freed the tape: the same
    order and arithmetic, and every op output keeps its gradient, closure
    and parents."""
    topo, seen, todo = [], set(), [(loss, False)]
    while todo:
        node, processed = todo.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                todo.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(out=node)


@pytest.mark.parametrize(
    "make, d_s", [(EnvConfig.chain, 3), (EnvConfig.full, 5)], ids=["chain3", "full5"]
)
def test_backward_frees_the_tape_and_gives_the_reference_gradients(make, d_s):
    cfg = make(d_s, l=4, horizon=5, noise_target="hidden")
    bundle = build_models(cfg, "dvae_full", seed=0, hyper=ModelHyper(hidden_dim=8))
    params = bundle.store.trainable()
    args = (make_batch(cfg), bundle, ground_truth_graph(cfg), StepRandomness(0, 0), ObjectiveConfig())
    total, _ = total_objective(*args)
    reference_backward(total)
    want = {n: p.grad for n, p in params.items()}
    for p in params.values():
        p.grad = None

    total, _ = total_objective(*args)
    ops, saved, todo = {}, [], [total]  # op outputs, and weakrefs to arrays their closures hold
    while todo:
        node = todo.pop()
        if node._backward is not None and id(node) not in ops:
            ops[id(node)] = node
            fn = node._backward
            cells = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
            # gru_scan's gates and masked_max's source rows are kept for the backward only.
            saved += [weakref.ref(cells[v].cell_contents) for v in ("zr", "src") if v in cells]
            todo += [p for p in node._parents if p.requires_grad]
    assert len(saved) == 1 + d_s  # the live encoder's gru_scan, one masked_max per target
    gc.disable()
    try:
        backward(total)
        assert all(ref() is None for ref in saved)  # freed by the walk, not by a collection
    finally:
        gc.enable()
    for node in ops.values():
        assert node.grad is None and node._parents == () and node._backward is tensor_mod._used
    assert {n for n, g in want.items() if g is None} == {n for n, p in params.items() if p.grad is None}
    for n, g in want.items():
        assert g is None or np.array_equal(params[n].grad, g), n


def test_causal_fallback_on_empty_graph_column():
    cfg = chain3()
    batch = make_batch(cfg, n=4, seed=6)
    bundle = build_models(cfg, "dvae_full", seed=5)
    g = full_graph(cfg)
    g[:, 0] = 0  # no parents for factor 0
    _, b = total_objective(batch, bundle, g, StepRandomness(seed=2, step=0), ObjectiveConfig())
    assert b.causal_fallback_factors == (0,)
    assert b.per_factor["causal_nll"][0] == pytest.approx(b.per_factor["full_nll"][0], rel=1e-12)


MALFORMED_GRAPHS = {
    "square_ones": lambda d: np.ones((d, d), dtype=np.int64),
    "extra_row_ones": lambda d: np.ones((d + 2, d), dtype=np.int64),
    "twos": lambda d: np.full((d + 1, d), 2),
    "halves": lambda d: np.full((d + 1, d), 0.5),
    "one_column_short": lambda d: np.ones((d + 1, d - 1), dtype=np.int64),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_vlb_refuses_malformed_graph_by_name(case):
    cfg = chain3()
    batch = make_batch(cfg, n=4, seed=6)
    bundle = build_models(cfg, "dvae_full", seed=5)
    graph = MALFORMED_GRAPHS[case](cfg.d_s)
    rand = StepRandomness(seed=2, step=0)
    with pytest.raises(ValueError, match=r"^graph_binary must be a \(4, 3\) matrix of 0s and 1s"):
        vlb_losses(batch, bundle, graph, rand, ObjectiveConfig())


def test_vlb_takes_binarized_cmi_graph():
    cfg = chain3()
    batch = make_batch(cfg, n=4, seed=6)
    bundle = build_models(cfg, "dvae_full", seed=5)
    cmi = CmiMatrix.initial(cfg.d_s, threshold=0.05, ema_coeff=0.0)
    cmi.update_ema(0.1 * ground_truth_graph(cfg))
    assert cmi.binarized.dtype == np.int64
    rand = StepRandomness(seed=2, step=0)
    got = vlb_losses(batch, bundle, cmi.binarized, rand, ObjectiveConfig())[1]
    want = vlb_losses(batch, bundle, ground_truth_graph(cfg), rand, ObjectiveConfig())[1]
    assert got.as_dict() == want.as_dict() and got.total == want.total


def test_reward_loss_untrained_near_label_entropy():
    cfg = chain3()
    batch = make_batch(cfg, n=64, seed=7)
    bundle = build_models(cfg, "dvae_full", seed=6)
    enc = BatchEncoding(batch, cfg)
    rand = StepRandomness(seed=3, step=0)
    noise_for = rand.encoder_noise(batch.size, cfg, batch.horizon)
    _, samples = bundle.encoder.unroll(enc, temperature=1.0, noise_for=noise_for, hard=True)
    ce = float(reward_loss(batch, bundle, samples).data)
    rate = batch.r.mean()
    h = -(rate * math.log(rate) + (1 - rate) * math.log(1 - rate))
    assert abs(ce - h) < 0.25


@pytest.mark.parametrize("override", ["samples", "target_logits"])
@pytest.mark.parametrize("B, name", wrong_time_major_cases())
def test_vlb_refuses_overrides_not_time_major(B, name, override):
    cfg = chain3()
    batch = make_batch(cfg, n=B)
    bundle = build_models(cfg, "dvae_full", seed=0)
    wrong = {override: wrong_time_major(cfg, batch, name)}
    want = re.escape(f"{override} must have the time-major shape (T+1, B, d_h, l) = (6, {B}, 1, 4)")
    with pytest.raises(ValueError, match=want):
        vlb_losses(batch, bundle, full_graph(cfg), StepRandomness(0, 0), ObjectiveConfig(), **wrong)


@pytest.mark.parametrize("B, name", wrong_time_major_cases())
def test_reward_loss_refuses_samples_not_time_major(B, name):
    cfg = chain3()
    batch = make_batch(cfg, n=B)
    bundle = build_models(cfg, "dvae_full", seed=0)
    want = re.escape(f"samples must have the time-major shape (T+1, B, d_h, l) = (6, {B}, 1, 4)")
    with pytest.raises(ValueError, match=want):
        reward_loss(batch, bundle, wrong_time_major(cfg, batch, name))


def test_rejects_bad_config():
    for field, value in [
        ("temperature", 0.0),
        ("temperature", math.nan),
        ("temperature", math.inf),
        ("reward_weight", -1.0),
        ("reward_weight", math.nan),
        ("reward_weight", math.inf),
    ]:
        with pytest.raises(ValueError, match=field):
            ObjectiveConfig(**{field: value})
