import math

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
from hindcaus.models import BatchEncoding, build_models
from hindcaus.numcore import backward, constant, no_grad, one_hot
from hindcaus.objective import (
    LossBreakdown,
    ObjectiveConfig,
    StepRandomness,
    reward_loss,
    total_objective,
    vlb_losses,
)


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

    def features(self, j, x):
        return x

    def logits_from_features(self, j, x, masks):
        d_s, l = self.cfg.d_s, self.cfg.l
        s = x.data[:d_s, :, :l].argmax(axis=-1).T
        a = x.data[d_s, :, :d_s].astype(np.int64)
        out = np.empty((len(masks), s.shape[0], self.cfg.l))
        for k, mask in enumerate(np.asarray(masks, dtype=bool)):
            mask = np.broadcast_to(mask, (s.shape[0], mask.shape[-1]))
            for m in np.unique(mask, axis=0):
                rows = (mask == m).all(axis=1)
                out[k, rows] = self.model.log_probs(j, s[rows], a[rows], m)
        return constant(out)


def gt_hidden_samples(cfg, episodes):
    gt_h = np.stack([e.gt_h for e in episodes])  # (B, T+1, d_h)
    B, steps, _ = gt_h.shape
    return [constant(one_hot(gt_h[:, t], cfg.l).reshape(B, cfg.d_h, cfg.l)) for t in range(steps)]


def point_mass_logits(cfg, episodes, scale=50.0):
    gt_h = np.stack([e.gt_h for e in episodes])
    B, steps, _ = gt_h.shape
    return [
        constant(scale * one_hot(gt_h[:, t], cfg.l).reshape(B, cfg.d_h, cfg.l))
        for t in range(steps)
    ]


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
    # numpy, one single-mask forward call per term.
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
        targets, _ = bundle.encoder_target.unroll(enc, prev_samples=[s.detach() for s in samples])
        lq = log_softmax(np.concatenate([targets[t + 1].data[:, 0, :] for t in range(T)]))
        labels = flat(batch.o[:, 1:, 1])  # o^2 is observed pos 1
        for kind, mask in masks_for(2).items():
            logp = log_softmax(bundle.transition.forward(2, inputs, mask).data)
            expected = float(-logp[rows, labels].mean())
            assert b.per_factor[f"{kind}_nll"][2] == pytest.approx(expected, rel=1e-10), kind
        for kind, mask in masks_for(1).items():
            logp = log_softmax(bundle.transition.forward(1, inputs, mask).data)
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


@pytest.mark.parametrize("param_name", ["phi/combiner.l1.b", "phi/context0"])
def test_encoder_gradient_matches_finite_differences_with_frozen_targets(param_name):
    # Finite differences see the stop-gradient path (phi's samples feed the
    # detached target pass), reverse mode deliberately does not. Freezing the
    # KL targets isolates the differentiable phi paths; relaxed samples keep
    # the forward smooth.
    cfg = chain3(horizon=2)
    batch = make_batch(cfg, n=2, seed=4)
    bundle = build_models(cfg, "dvae_full", seed=4)
    rand = StepRandomness(seed=9, step=2)
    ocfg = ObjectiveConfig(hard_samples=False)
    g = full_graph(cfg)

    enc = BatchEncoding(batch, cfg)
    _, samples0 = bundle.encoder.unroll(
        enc, temperature=ocfg.temperature, noise_for=rand.encoder_noise(batch.size, cfg), hard=False
    )
    frozen_targets, _ = bundle.encoder_target.unroll(enc, prev_samples=[s.detach() for s in samples0])

    def f():
        loss, _, samples = vlb_losses(batch, bundle, g, rand, ocfg, target_logits=frozen_targets)
        return loss + reward_loss(batch, bundle, samples)

    params = {param_name: bundle.store.tensors()[param_name]}
    errs = nc.check_gradients(f, params, h=1e-5)
    assert max(errs.values()) < 1e-3, errs


def test_causal_fallback_on_empty_graph_column():
    cfg = chain3()
    batch = make_batch(cfg, n=4, seed=6)
    bundle = build_models(cfg, "dvae_full", seed=5)
    g = full_graph(cfg)
    g[:, 0] = 0  # no parents for factor 0
    _, b = total_objective(batch, bundle, g, StepRandomness(seed=2, step=0), ObjectiveConfig())
    assert b.causal_fallback_factors == (0,)
    assert b.per_factor["causal_nll"][0] == pytest.approx(b.per_factor["full_nll"][0], rel=1e-12)


def test_reward_loss_untrained_near_label_entropy():
    cfg = chain3()
    batch = make_batch(cfg, n=64, seed=7)
    bundle = build_models(cfg, "dvae_full", seed=6)
    enc = BatchEncoding(batch, cfg)
    rand = StepRandomness(seed=3, step=0)
    _, samples = bundle.encoder.unroll(
        enc, temperature=1.0, noise_for=rand.encoder_noise(batch.size, cfg), hard=True
    )
    ce = float(reward_loss(batch, bundle, samples).data)
    rate = batch.r.mean()
    h = -(rate * math.log(rate) + (1 - rate) * math.log(1 - rate))
    assert abs(ce - h) < 0.25


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        ObjectiveConfig(temperature=0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(reward_weight=-1.0)
