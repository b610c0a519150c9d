import numpy as np
import pytest

from hindcaus.env import (
    EnvConfig,
    action_options,
    cmi_masks,
    TabularTransitionModel,
    enumeration_cmi,
    generate_dataset,
    ground_truth_graph,
    modulo,
    stack_episodes,
)
from hindcaus.graph import CmiMatrix, cmi_from_batch, estimate_cmi, graph_accuracy
from hindcaus.models import (
    BatchEncoding,
    MaskedTransition,
    ModelHyper,
    build_models,
    hidden_stack,
    input_indices,
    nets,
)
from hindcaus.models import transition as transition_module
from hindcaus.numcore import Adam, constant, gumbel_noise, no_grad, stream
from hindcaus.objective import ObjectiveConfig, StepRandomness, total_objective


def chain3(noise_target="observation", **kw):
    return EnvConfig.chain(d_s=3, noise_target=noise_target, **kw)


def full5(noise_target="hidden"):
    return EnvConfig.full(d_s=5, l=4, noise_target=noise_target)


def transitions_from_dataset(cfg, n, seed):
    """All transitions with ground-truth hidden values filled in."""
    ds = generate_dataset(cfg, n, seed=seed)
    s_list, a_list, nxt_list = [], [], []
    for e in ds.episodes:
        T = e.horizon()
        s = np.empty((T + 1, cfg.d_s), dtype=np.int64)
        s[:, cfg.observed_indices] = e.o
        s[:, cfg.hidden_indices] = e.gt_h
        s_list.append(s[:-1])
        nxt_list.append(s[1:])
        a_list.append(e.a)
    return np.concatenate(s_list), np.concatenate(a_list), np.concatenate(nxt_list)


# -- CmiMatrix ------------------------------------------------------------------


def test_initial_matrix_is_threshold_and_fully_connected():
    m = CmiMatrix.initial(3, threshold=0.03, ema_coeff=0.9)
    assert np.all(m.values == 0.03)
    assert np.all(m.binarized == 1)


@pytest.mark.parametrize("threshold", [0.0, -0.1, np.nan, np.inf])
def test_initial_matrix_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="threshold must be finite and positive"):
        CmiMatrix.initial(3, threshold=threshold, ema_coeff=0.9)


@pytest.mark.parametrize(
    "args, field",
    [
        ((3.0, 0.03, 0.9), "d_s"),
        ((True, 0.03, 0.9), "d_s"),
        ((3, True, 0.8), "threshold"),
        ((3, "0.03", 0.8), "threshold"),
        ((3, 0.03, False), "ema_coeff"),
        ((3, 0.03, "0.9"), "ema_coeff"),
    ],
    ids=["float_d_s", "bool_d_s", "bool_threshold", "string_threshold", "bool_ema", "string_ema"],
)
def test_initial_matrix_refuses_settings_of_the_wrong_type_by_name(args, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        CmiMatrix.initial(*args)


def test_ema_zero_coeff_copies_fresh():
    m = CmiMatrix.initial(3, threshold=0.03, ema_coeff=0.0)
    fresh = np.arange(12, dtype=float).reshape(4, 3) / 10
    m.update_ema(fresh)
    assert np.array_equal(m.values, fresh)


def test_ema_geometric_convergence():
    m = CmiMatrix.initial(3, threshold=0.03, ema_coeff=0.9)
    target = np.full((4, 3), 0.7)
    for _ in range(300):
        m.update_ema(target)
    assert np.max(np.abs(m.values - 0.7)) < 1e-6


def test_ema_clamps_negative_fresh_values():
    m = CmiMatrix.initial(3, threshold=0.03, ema_coeff=0.0)
    m.update_ema(np.full((4, 3), -5.0))
    assert np.all(m.values == 0.0)
    assert np.all(m.binarized == 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ema_refuses_non_finite_estimate_and_keeps_state(bad):
    m = CmiMatrix.initial(3, threshold=0.03, ema_coeff=0.8)
    m.update_ema(np.full((4, 3), 0.1))
    values, updates = m.values.copy(), m.updates
    fresh = np.full((4, 3), 0.2)
    fresh[3, 1] = bad
    with pytest.raises(ValueError, match=r"\(input 3, target 1\)"):
        m.update_ema(fresh)
    assert np.array_equal(m.values, values) and m.updates == updates


def test_binarization_monotone_in_threshold():
    values = np.random.default_rng(0).random((4, 3))
    lo = CmiMatrix(values=values.copy(), threshold=0.2, ema_coeff=0.9)
    hi = CmiMatrix(values=values.copy(), threshold=0.6, ema_coeff=0.9)
    assert np.all(hi.binarized <= lo.binarized)


def test_ema_with_zero_coeff_composes_over_partitions():
    cfg = chain3()
    s, a, nxt = transitions_from_dataset(cfg, 64, seed=0)
    model = TabularTransitionModel(cfg)
    whole = estimate_cmi(model, s, a, nxt)
    half = len(s) // 2
    first = estimate_cmi(model, s[:half], a[:half], nxt[:half])
    second = estimate_cmi(model, s[half:], a[half:], nxt[half:])
    # Non-parent entries are exactly zero for the tabular model, so the
    # clamp is inactive and the batch mean composes exactly.
    assert np.allclose(whole, 0.5 * (first + second), atol=1e-12)


# -- estimator against the enumeration oracle --------------------------------------


@pytest.mark.parametrize(
    "make, noise_target",
    [
        pytest.param(chain3, "hidden", id="hidden"),
        pytest.param(chain3, "observation", id="observation"),
        pytest.param(full5, "hidden", id="full5-hidden"),
        pytest.param(full5, "observation", id="full5-observation"),
    ],
)
def test_tabular_batch_cmi_matches_enumeration_oracle(make, noise_target):
    cfg = make(noise_target)
    s, a, nxt = transitions_from_dataset(cfg, 512, seed=1)
    model = TabularTransitionModel(cfg)
    batch_cmi = estimate_cmi(model, s, a, nxt)
    oracle = enumeration_cmi(cfg)
    assert np.max(np.abs(batch_cmi - oracle)) < 0.05
    gt = ground_truth_graph(cfg)
    assert np.all(batch_cmi[gt == 0] < 0.01)
    assert np.all(batch_cmi[gt == 1] > 0.3)


def test_model_ignoring_a_factor_gives_zero_cmi():
    cfg = chain3()
    s, a, nxt = transitions_from_dataset(cfg, 64, seed=2)
    model = TabularTransitionModel(cfg)
    cmi = estimate_cmi(model, s, a, nxt)
    # o^1 is not read by o^2's equation and the action never enters h^1.
    assert cmi[0, 2] == 0.0
    assert cmi[3, 1] == 0.0


def test_neural_cmi_non_negative_and_hidden_rows_are_kl():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    s, a, nxt = transitions_from_dataset(cfg, 16, seed=3)
    cmi = estimate_cmi(bundle.transition, s, a, nxt)
    assert cmi.shape == (4, 3)
    assert np.all(cmi >= 0.0)
    assert np.all(np.isfinite(cmi))


def test_cmi_from_batch_repeats_and_samples_under_phi_bar():
    cfg = chain3("hidden")
    batch = stack_episodes(generate_dataset(cfg, 8, seed=4).episodes)
    bundle = build_models(cfg, "dvae_full", seed=0)

    def cmi():
        return cmi_from_batch(bundle, batch, seed=1, step=3, temperature=1.0)

    first = cmi()
    assert np.array_equal(cmi(), first)
    rng = np.random.default_rng(0)
    for t in bundle.store.groups["phi"].values():
        t.data += rng.normal(size=t.shape)
    assert np.array_equal(cmi(), first)  # phi_bar still holds the old weights
    bundle.sync_target()
    assert not np.array_equal(cmi(), first)


def test_cmi_noise_block_equals_one_generator_per_step(monkeypatch):
    # The identify workload's shape: 64 episodes of horizon 5 at l = 4.
    cfg = chain3(l=4, horizon=5)
    batch = stack_episodes(generate_dataset(cfg, 64, seed=4).episodes)
    bundle = build_models(cfg, "dvae_full", seed=0)
    drawn = []
    unroll = bundle.encoder_target.unroll

    def recording_unroll(enc, **kw):
        drawn.extend(kw["noise_for"](t) for t in range(6))
        return unroll(enc, **kw)

    monkeypatch.setattr(bundle.encoder_target, "unroll", recording_unroll)
    cmi_from_batch(bundle, batch, seed=11, step=20, temperature=1.0)
    assert len(drawn) == 6
    for t, noise in enumerate(drawn):
        want = gumbel_noise((64, cfg.d_h, cfg.l), stream(11, "cmi-gumbel", 20, t))
        assert np.array_equal(noise, want)


def test_cmi_passes_over_the_same_batches_reuse_phi_bar_states(monkeypatch):
    # A fixed bundle, and a second pass over the same batches: every call of
    # pass 2 hits, though the batches share episodes.
    cfg = chain3()
    episodes = generate_dataset(cfg, 20, seed=4).episodes
    batches = [stack_episodes(episodes[2 * k : 2 * k + 6]) for k in range(8)]
    bundle = _perturbed_bundle(cfg)

    def cmi(model, k):
        return cmi_from_batch(model, batches[k], seed=1, step=k, temperature=1.0)

    first = [cmi(bundle, k) for k in range(8)]
    scans = []
    real = nets.gru_scan
    monkeypatch.setattr(nets, "gru_scan", lambda *args: scans.append(1) or real(*args))
    second = [cmi(bundle, k) for k in range(8)]
    monkeypatch.undo()
    assert scans == []
    for k in range(8):
        want = cmi(_perturbed_bundle(cfg), k)
        assert np.array_equal(first[k], want) and np.array_equal(second[k], want), k


def test_identify_traffic_runs_phi_bar_on_the_first_cycle_only(monkeypatch):
    # The identify workload's pattern: an untimed evaluation on all 512
    # held-out episodes, then cmi_from_batch on consecutive 64-episode
    # batches of them, cycling, with the step (and so the noise) moving on.
    cfg = chain3()
    episodes = generate_dataset(cfg, 512, seed=4).episodes
    batches = [stack_episodes(episodes[64 * k : 64 * (k + 1)]) for k in range(8)]
    bundle = _perturbed_bundle(cfg)
    with no_grad():
        total_objective(
            stack_episodes(episodes),
            bundle,
            np.ones((cfg.d_s + 1, cfg.d_s), dtype=np.int64),
            StepRandomness(0, 0, tag="eval"),
            ObjectiveConfig(),
        )
    scans = []
    real = nets.gru_scan

    def spy(xw, *rest):
        scans.append(xw.shape[1])
        return real(xw, *rest)

    monkeypatch.setattr(nets, "gru_scan", spy)

    def cmi(model, k):
        return cmi_from_batch(model, batches[k % 8], seed=1, step=k, temperature=1.0)

    got = [cmi(bundle, k) for k in range(16)]  # two cycles
    assert scans == [64] * 8
    monkeypatch.undo()
    for k in range(16):
        assert np.array_equal(got[k], cmi(_perturbed_bundle(cfg), k)), k  # a fresh bundle: no memo


@pytest.mark.parametrize("variant", ["dvae_full", "history"])
@pytest.mark.parametrize("temperature", [np.nan, np.inf, -np.inf, 0.0, True], ids=str)
def test_cmi_and_unroll_refuse_a_temperature_that_is_not_finite_and_positive(variant, temperature):
    # dvae_full samples in sample_scan, history in gumbel_softmax_sample. A
    # NaN or infinite temperature once gave every hidden sample the value 0.
    cfg = chain3("hidden")
    batch = stack_episodes(generate_dataset(cfg, 4, seed=4).episodes)
    bundle = build_models(cfg, variant, seed=0)
    noise = gumbel_noise((batch.horizon + 1, batch.size, cfg.d_h, cfg.l), stream(0, "t"))
    msg = r"temperature must be a finite positive real number, got " + repr(temperature)
    with pytest.raises(ValueError, match=msg):
        cmi_from_batch(bundle, batch, seed=1, step=0, temperature=temperature)
    with pytest.raises(ValueError, match=msg):
        bundle.encoder.unroll(
            BatchEncoding(batch, cfg), temperature=temperature, noise_for=noise.__getitem__
        )


# -- the models' log_probs, row dedup and input checks -----------------------------


def per_target_log_probs(transition, s, a, masks):
    """`MaskedTransition.log_probs` as it was before it memoized its rows:
    every call runs features, pool and head on every row, one target at a
    time."""
    env = transition.env
    out = np.empty((env.d_s, len(masks), s.shape[0], env.l))
    with no_grad():
        idx = input_indices(env, s, a)
        for j in range(env.d_s):
            feats = transition.features(j, idx)
            out[j] = transition.logits_from_features(j, feats, masks[:, None]).log_softmax().data
    return out


def tabular_stacked_log_probs(model, s, a, masks):
    """The oracle's `log_probs` as it was before it answered for every
    target at once: one log of `probs` per target and mask, restacked."""
    return np.stack(
        [
            np.stack([np.log(np.maximum(model.probs(j, s, a, mask), 1e-300)) for mask in masks])
            for j in range(model.env.d_s)
        ]
    )


def reference_log_probs(model, s, a, masks):
    if isinstance(model, MaskedTransition):
        return per_target_log_probs(model, s, a, masks)
    return tabular_stacked_log_probs(model, s, a, masks)


def estimate_cmi_every_row(model, s, a, next_values):
    """`estimate_cmi` without any row dedup: the model scores every row of
    the batch, without a memo."""
    env = model.env
    logps_all = reference_log_probs(model, s, a, cmi_masks(env))
    out = np.zeros((env.d_s + 1, env.d_s))
    for j in range(env.d_s):
        logps = logps_all[j]
        if j in env.hidden_indices:
            full = logps[0]
            out[:, j] = (np.exp(full) * (full - logps[1:])).sum(axis=2).mean(axis=1)
        else:
            picked = np.take_along_axis(logps, next_values[None, :, j, None], axis=2)[:, :, 0]
            out[:, j] = (picked[0] - picked[1:]).mean(axis=1)
    return np.maximum(out, 0.0)


WORKLOAD_CONFIGS = {
    "chain3-obs": lambda: chain3("observation"),
    "chain3-hidden": lambda: chain3("hidden"),
    "full5-hidden": lambda: full5("hidden"),
}


def _perturbed_bundle(cfg):
    bundle = build_models(cfg, "dvae_full", seed=0)
    rng = np.random.default_rng(8)
    for t in bundle.store.tensors().values():
        t.data += 0.3 * rng.normal(size=t.shape)
    return bundle


def _cmi_models(cfg):
    """The tabular model and a neural one at perturbed parameters."""
    return {"tabular": TabularTransitionModel(cfg), "neural": _perturbed_bundle(cfg).transition}


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_tabular_log_probs_equal_per_target_stack(name):
    cfg = WORKLOAD_CONFIGS[name]()
    model = TabularTransitionModel(cfg)
    s, a, _ = transitions_from_dataset(cfg, 16, seed=5)
    for masks in (cmi_masks(cfg), cmi_masks(cfg)[[0, 2]]):
        got = model.log_probs(s, a, masks)
        assert got.shape == (cfg.d_s, len(masks), len(s), cfg.l)
        assert np.array_equal(got, tabular_stacked_log_probs(model, s, a, masks))


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_distinct_rows_match_every_row_reference(name):
    cfg = WORKLOAD_CONFIGS[name]()
    # 64 episodes of 5 steps: the benchmark's 320-row batches, with hard
    # (integer) hidden values.
    s, a, nxt = transitions_from_dataset(cfg, 64, seed=5)
    assert len(s) == 320 and len(np.unique(np.concatenate([s, a], 1), axis=0)) < 320
    # Every row twice, at the same size: OpenBLAS may round a matmul over
    # many more rows differently, which would move the reference, not the
    # estimate.
    doubled = [np.repeat(x[:160], 2, axis=0) for x in (s, a, nxt)]
    for kind, model in _cmi_models(cfg).items():
        for batch in [(s, a, nxt), doubled]:
            got = estimate_cmi(model, *batch)
            assert np.array_equal(got, estimate_cmi_every_row(model, *batch)), kind
        halves = estimate_cmi(model, s[:160], a[:160], nxt[:160])
        assert np.allclose(estimate_cmi(model, *doubled), halves, rtol=1e-12, atol=1e-15)


def test_batch_of_one_repeated_row_matches_every_row_reference():
    cfg = chain3()
    s, a, nxt = (np.repeat(x[:1], 12, axis=0) for x in transitions_from_dataset(cfg, 1, seed=6))
    models = _cmi_models(cfg)
    tabular = models["tabular"]
    assert np.array_equal(
        estimate_cmi(tabular, s, a, nxt), estimate_cmi_every_row(tabular, s, a, nxt)
    )
    # One distinct row runs the model's matmuls on a single row, which BLAS
    # may compute as a matrix-vector product with different rounding.
    neural = models["neural"]
    assert np.allclose(
        estimate_cmi(neural, s, a, nxt),
        estimate_cmi_every_row(neural, s, a, nxt),
        rtol=1e-12,
        atol=1e-15,
    )


# -- memoized transition log-probs ----------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_memoized_log_probs_match_per_target_reference(name):
    cfg = WORKLOAD_CONFIGS[name]()
    model = _cmi_models(cfg)["neural"]
    s, a, _ = transitions_from_dataset(cfg, 64, seed=5)  # 320 rows with repeats
    masks = cmi_masks(cfg)
    want = per_target_log_probs(model, s, a, masks)
    assert np.array_equal(model.log_probs(s, a, masks), want)  # fills the memo
    assert np.array_equal(model.log_probs(s, a, masks), want)  # every row a hit
    assert np.array_equal(model.log_probs(s[::-1], a[::-1], masks), want[:, :, ::-1])
    # Filled over two calls: the second half's new rows ran in a smaller
    # batch, which BLAS may round differently.
    fresh = _cmi_models(cfg)["neural"]
    fresh.log_probs(s[:160], a[:160], masks)
    np.testing.assert_allclose(fresh.log_probs(s, a, masks), want, rtol=1e-12, atol=1e-15)
    distinct = len(np.unique(np.concatenate([s, a], 1), axis=0))
    assert len(fresh._memo.codes) == distinct < len(s)


def _features_spy(monkeypatch, transition, fail_at=None):
    """The row count of each `features` call of `transition`, in a list
    that grows as it is called; call number `fail_at` raises instead."""
    rows = []
    real = transition.features

    def spy(j, idx, hidden=None):
        if len(rows) == fail_at:
            raise RuntimeError("features failed")
        rows.append(idx.shape[1])
        return real(j, idx, hidden)

    monkeypatch.setattr(transition, "features", spy)
    return rows


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_all_miss_call_runs_network_on_distinct_rows_only(name, monkeypatch):
    cfg = WORKLOAD_CONFIGS[name]()
    model = _cmi_models(cfg)["neural"]
    s, a, _ = transitions_from_dataset(cfg, 64, seed=5)
    distinct = len(np.unique(np.concatenate([s, a], 1), axis=0))
    masks = cmi_masks(cfg)
    want = per_target_log_probs(model, s, a, masks)
    rows = _features_spy(monkeypatch, model)
    assert np.array_equal(model.log_probs(s, a, masks), want)
    assert rows == [distinct] * cfg.d_s and distinct < len(s)
    assert np.array_equal(model.log_probs(s, a, masks), want)  # every row a hit
    assert len(rows) == cfg.d_s


def test_call_that_raises_leaves_memo_as_it_was(monkeypatch):
    cfg = chain3("hidden")
    s, a, _ = transitions_from_dataset(cfg, 64, seed=5)
    masks = cmi_masks(cfg)
    model, fresh = _cmi_models(cfg)["neural"], _cmi_models(cfg)["neural"]
    want = per_target_log_probs(model, s, a, masks)
    model.log_probs(s[:160], a[:160], masks)
    codes, order, memo = (x.copy() for x in (model._memo.codes, model._memo.order, model._memo.values))
    for transition, kept in [(model, len(codes)), (fresh, 0)]:
        _features_spy(monkeypatch, transition, fail_at=1)  # after target 0's features
        with pytest.raises(RuntimeError, match="features failed"):
            transition.log_probs(s, a, masks)
        assert len(transition._memo.codes) == kept
        monkeypatch.undo()
    assert np.array_equal(model._memo.codes, codes) and np.array_equal(model._memo.order, order)
    assert np.array_equal(model._memo.values, memo)
    assert np.array_equal(fresh.log_probs(s, a, masks), want)
    # The second half's new rows run in a smaller batch, as in
    # test_memoized_log_probs_match_per_target_reference.
    np.testing.assert_allclose(model.log_probs(s, a, masks), want, rtol=1e-12, atol=1e-15)
    assert len(model._memo.codes) == len(fresh._memo.codes) > len(codes)


def test_log_probs_of_no_rows_fit_the_mask_stack():
    cfg = chain3("hidden")
    model = _cmi_models(cfg)["neural"]
    s, a, _ = transitions_from_dataset(cfg, 64, seed=5)
    masks = cmi_masks(cfg)
    want = (cfg.d_s, len(masks), 0, cfg.l)
    assert model.log_probs(s[:0], a[:0], masks).shape == want  # on a fresh memo
    model.log_probs(s, a, masks[:2])
    assert model.log_probs(s[:0], a[:0], masks).shape == want  # after another K


def _wide_rows(cfg, n, seed):
    """n rows of a wide config, each differing from the first in factor 0
    or d_s-1 only, or in the action."""
    rng = np.random.default_rng(seed)
    s = np.repeat(rng.integers(0, cfg.l, size=(1, cfg.d_s)), n, axis=0)
    s[1::3, 0] = rng.integers(0, cfg.l, size=len(s[1::3]))
    s[2::3, -1] = rng.integers(0, cfg.l, size=len(s[2::3]))
    options = action_options(cfg)
    a = options[rng.integers(0, len(options), size=n)]
    return s, a


def test_memo_codes_rows_of_the_widest_config_that_fits_and_still_checks_them():
    # (max(l, d_s)+1)^(d_s+1) is 15^15 < 2^63 - 1 here, and 16^16 at d_s = 15.
    cfg = EnvConfig.chain(d_s=14, l=14)
    bundle = build_models(cfg, "dvae_full", seed=0, hyper=ModelHyper(hidden_dim=8, embed_dim=4))
    model, masks = bundle.transition, cmi_masks(cfg)
    s, a = _wide_rows(cfg, 60, seed=1)
    s[0] = cfg.l - 1  # the largest code a row can have, but for its action
    want = per_target_log_probs(model, s, a, masks)
    assert np.array_equal(model.log_probs(s, a, masks), want)
    assert np.array_equal(model.log_probs(s, a, masks), want)
    distinct = len(np.unique(np.concatenate([s, a], 1), axis=0))
    assert len(model._memo.codes) == distinct
    assert model._memo.codes.max() > 15**14  # a row code past int32 (and past 2^52)
    # A call is checked row by row even where every row is memoized: a row
    # with two interventions would otherwise read an action index past the
    # table, and a factor value of l the table's no-op row.
    o0, o1 = cfg.observed_indices[:2]
    r = int(np.flatnonzero(a[:, o0])[0])
    bad_a = a.copy()
    bad_a[r, o1] = 1
    bad_s = s.copy()
    bad_s[r, -1] = cfg.l
    codes = model._memo.codes.copy()
    for args, name in [((s, bad_a), "a"), ((bad_s, a), "s")]:
        msg = f"^{name} must .*; row {r} is "
        with pytest.raises(ValueError, match=msg):
            model.log_probs(*args, masks)
    assert np.array_equal(model._memo.codes, codes)
    assert np.array_equal(model.log_probs(s, a, masks), want)


@pytest.mark.parametrize("d_s, l", [(15, 4), (15, 15), (20, 8), (2, 2**21 - 1)])
def test_config_whose_row_codes_overflow_int64_is_refused_by_name(d_s, l):
    assert (max(l, d_s) + 1) ** (d_s + 1) > np.iinfo(np.int64).max
    cfg = EnvConfig.chain(d_s=d_s, l=l)
    with pytest.raises(ValueError, match=rf"^d_s = {d_s} and l = {l} give .* int64 row code"):
        MaskedTransition(cfg, None, None)  # refused before any weight is drawn
    if l < 16:  # the encoders' one-hot inputs are l wide
        with pytest.raises(ValueError, match=rf"^d_s = {d_s} and l = {l} give "):
            build_models(cfg, "dvae_full", seed=0, hyper=ModelHyper(hidden_dim=8, embed_dim=4))


def _write_one_theta_h_weight(bundle, masks):
    bundle.store.groups["theta_h"]["target1.head.l0.W"].data[3, 2] += 0.5
    return masks


def _adam_step(bundle, masks):
    opt = Adam(bundle.store.trainable(), lr=0.01)
    rng = np.random.default_rng(3)
    for t in opt.params.values():
        t.grad = rng.normal(size=t.shape)
    opt.step()
    return masks


def _load_other_arrays(bundle, masks):
    other = build_models(bundle.env, "dvae_full", seed=1)
    bundle.store.load_arrays({n: t.data for n, t in other.store.tensors().items()})
    return masks


def _other_mask_stack(bundle, masks):
    return masks[[0, 2, 1, 3, 4]]


def _fewer_masks(bundle, masks):
    return masks[[0, 3, 1]]


@pytest.mark.parametrize(
    "change",
    [_write_one_theta_h_weight, _adam_step, _load_other_arrays, _other_mask_stack, _fewer_masks],
    ids=["theta_h_write", "adam_step", "load_arrays", "mask_stack", "fewer_masks"],
)
def test_memo_resets_when_weights_or_masks_change(change):
    cfg = chain3("hidden")
    bundle = _perturbed_bundle(cfg)
    model = bundle.transition
    s, a, _ = transitions_from_dataset(cfg, 64, seed=5)
    masks = cmi_masks(cfg)
    before = model.log_probs(s, a, masks)
    masks = change(bundle, masks)
    want = per_target_log_probs(model, s, a, masks)
    assert not np.array_equal(want, before)
    assert np.array_equal(model.log_probs(s, a, masks), want)
    assert np.array_equal(model.log_probs(s, a, masks), want)


@pytest.mark.parametrize("name", ["chain3-obs", "full5-hidden"])
def test_coded_memo_on_unseen_batches_equals_a_fresh_memo_free_model(name):
    # chain3 has 192 possible rows, so later batches are mostly hits; full5
    # has 5120, past RowMemo.CAP, so the memo must start again on the way.
    cfg = WORKLOAD_CONFIGS[name]()
    bundle, fresh = _perturbed_bundle(cfg), _perturbed_bundle(cfg)
    model, masks = bundle.transition, cmi_masks(cfg)
    s, a, _ = transitions_from_dataset(cfg, 40 * 64, seed=9)
    rows = 64 * cfg.horizon
    for change in (None, _adam_step):
        if change:
            for b in (bundle, fresh):
                change(b, masks)
        restarts, held = 0, 0
        for k in range(40):
            batch = slice(k * rows, (k + 1) * rows)
            want = per_target_log_probs(fresh.transition, s[batch], a[batch], masks)
            assert np.array_equal(model.log_probs(s[batch], a[batch], masks), want)
            restarts += len(model._memo.codes) < held
            held = len(model._memo.codes)
        assert (restarts > 0) == (name == "full5-hidden")


def dense_route_log_probs(transition, s, a, masks):
    """`MaskedTransition.log_probs` as it was before integer hidden values
    were read from the feature table: they took the dense hidden path as
    constant one-hots."""
    env = transition.env
    out = np.empty((env.d_s, len(masks), s.shape[0], env.l))
    with no_grad():
        idx = input_indices(env, s, a)
        hidden = hidden_stack(env, constant(np.eye(env.l)[s[:, env.hidden_indices]]))
        for j in range(env.d_s):
            feats = transition.features(j, idx, hidden)
            out[j] = transition.logits_from_features(j, feats, masks[:, None]).log_softmax().data
    return out


TABLE_CONFIGS = {
    "chain3": lambda: chain3("hidden"),
    "full5": lambda: full5("hidden"),
    "full5_two_hidden": lambda: EnvConfig.full(d_s=5, hidden_indices=[3, 1]),
}


@pytest.mark.parametrize("name", sorted(TABLE_CONFIGS))
def test_table_features_of_integer_hidden_values_match_dense_route(name):
    cfg = TABLE_CONFIGS[name]()
    transition = _cmi_models(cfg)["neural"]
    s, a, _ = transitions_from_dataset(cfg, 64, seed=5)
    idx = input_indices(cfg, s, a)
    one_hots = hidden_stack(cfg, constant(np.eye(cfg.l)[s[:, cfg.hidden_indices]]))
    masks = cmi_masks(cfg)
    for j in (cfg.observed_indices[-1], cfg.hidden_indices[0]):
        table = transition.logits_from_features(j, transition.features(j, idx), masks[:, None])
        dense = transition.logits_from_features(
            j, transition.features(j, idx, one_hots), masks[:, None]
        )
        assert np.array_equal(table.data, dense.data), j
    want = dense_route_log_probs(transition, s, a, masks)
    assert np.array_equal(transition.log_probs(s, a, masks), want)


def _bad_transitions(case, s, a, nxt):
    s, a, nxt = s.copy(), a.copy(), nxt.copy()
    if case == "next_minus_one":
        nxt[3, 0] = -1  # observed o^0
    elif case == "next_too_large":
        nxt[0, 2] = 4
    elif case == "s_out_of_range":
        s[1, 1] = 4
    elif case == "empty":
        s, a, nxt = s[:0], a[:0], nxt[:0]
    elif case == "short_next":
        nxt = nxt[:-1]
    elif case == "short_a":
        a = a[:-2]
    elif case == "float_s":
        s = s.astype(np.float64)
    elif case == "float_next":
        nxt = nxt + 0.0
    elif case == "bool_a":
        a = a.astype(bool)
    elif case == "one_dim_s":
        s = s[:, 0]
    elif case == "wide_a":
        a = np.concatenate([a, a[:, :1]], axis=1)
    elif case == "a_not_binary":
        a[2] = [2, 0, 0]
    elif case == "a_on_hidden":
        a[3] = [0, 1, 0]  # factor 1 is hidden
    elif case == "a_two_interventions":
        a[1] = [1, 0, 1]
    return s, a, nxt


@pytest.mark.parametrize(
    "case, name",
    [
        ("next_minus_one", "next_values"),
        ("next_too_large", "next_values"),
        ("s_out_of_range", "s"),
        ("empty", "next_values"),
        ("short_next", "next_values"),
        ("short_a", "a"),
        ("float_s", "s"),
        ("float_next", "next_values"),
        ("bool_a", "a"),
        ("one_dim_s", "s"),
        ("wide_a", "a"),
        ("a_not_binary", "a"),
        ("a_on_hidden", "a"),
        ("a_two_interventions", "a"),
    ],
)
def test_estimate_cmi_refuses_bad_input_naming_the_argument(case, name):
    cfg = chain3()
    s, a, nxt = transitions_from_dataset(cfg, 4, seed=7)
    bad = _bad_transitions(case, s, a, nxt)
    for model in _cmi_models(cfg).values():
        with pytest.raises(ValueError, match=rf"^{name} must"):
            estimate_cmi(model, *bad)


def test_off_policy_action_row_is_named():
    cfg = chain3()
    s, a, nxt = transitions_from_dataset(cfg, 4, seed=7)
    a = a.copy()
    a[5] = [0, 1, 0]
    for model in _cmi_models(cfg).values():
        with pytest.raises(ValueError, match=r"^a must .*; row 5 is \[0, 1, 0\]$"):
            estimate_cmi(model, s, a, nxt)


def _bad_rows(case, s, a):
    s, a = s.copy(), a.copy()
    if case == "float_s":
        s = s + 0.5  # not truncated to the integers below
    elif case == "float_a":
        a = a.astype(np.float64)
    elif case == "factor_too_large":
        s[6, 0] = 7
    elif case == "factor_negative":
        s[6, 2] = -1
    elif case == "two_interventions":
        a[6] = [1, 0, 1]
    elif case == "every_factor":
        a[6] = [1, 1, 1]
    elif case == "short_a":
        a = a[:-1]
    return s, a


@pytest.mark.parametrize(
    "case, msg",
    [
        ("float_s", r"^s must hold integers, got dtype float64$"),
        ("float_a", r"^a must hold integers, got dtype float64$"),
        ("factor_too_large", r"^s must hold factor values in \[0, 4\); row 6 is \[7, "),
        ("factor_negative", r"^s must hold factor values in \[0, 4\); row 6 is \[.*, -1\]$"),
        ("two_interventions", r"^a must .*; row 6 is \[1, 0, 1\]$"),
        ("every_factor", r"^a must .*; row 6 is \[1, 1, 1\]$"),
        ("short_a", r"^a must have shape \(n, 3\), the same n for s and a; got \(20, 3\) and \(19, 3\)$"),
    ],
)
def test_one_row_check_refuses_rows_naming_the_argument_and_row(case, msg):
    cfg = chain3()
    s, a, nxt = transitions_from_dataset(cfg, 4, seed=7)
    bad_s, bad_a = _bad_rows(case, s, a)
    models = _cmi_models(cfg)
    calls = [lambda: input_indices(cfg, bad_s, bad_a)]
    for model in models.values():
        calls += [
            lambda model=model: model.log_probs(bad_s, bad_a, cmi_masks(cfg)),
            lambda model=model: estimate_cmi(model, bad_s, bad_a, nxt),
        ]
    for call in calls:
        with pytest.raises(ValueError, match=msg):
            call()
    assert len(models["neural"]._memo.codes) == 0


def test_estimate_cmi_checks_action_rows_once(monkeypatch):
    cfg = chain3()
    s, a, nxt = transitions_from_dataset(cfg, 64, seed=7)
    model = _cmi_models(cfg)["neural"]
    checks, searches = [], []
    real_check, real_allowed = transition_module.check_rows, modulo.action_allowed
    monkeypatch.setattr(transition_module, "check_rows", lambda *args: checks.append(1) or real_check(*args))
    monkeypatch.setattr(modulo, "action_allowed", lambda *args: searches.append(1) or real_allowed(*args))
    for k in range(1, 3):
        estimate_cmi(model, s, a, nxt)  # a miss, then every row a hit
        # Allowed rows pass the whole-array test; no row-by-row search runs.
        assert len(checks) == k and searches == []


def test_hidden_next_values_are_not_read():
    cfg = chain3()
    s, a, nxt = transitions_from_dataset(cfg, 4, seed=7)
    other = nxt.copy()
    other[:, cfg.hidden_indices] = -1
    for model in _cmi_models(cfg).values():
        got = estimate_cmi(model, s, a, other)
        assert np.array_equal(got, estimate_cmi(model, s, a, nxt))


# -- graph accuracy ------------------------------------------------------------------


def test_graph_accuracy_perfect_and_one_cell():
    gt = ground_truth_graph(chain3())
    assert graph_accuracy(gt, gt) == 1.0
    wrong = gt.copy()
    wrong[0, 2] ^= 1
    assert graph_accuracy(wrong, gt) == pytest.approx(1.0 - 1.0 / 12.0)


def test_graph_accuracy_shape_mismatch():
    with pytest.raises(ValueError):
        graph_accuracy(np.zeros((4, 3)), np.zeros((6, 5)))
