import numpy as np
import pytest

from hindcaus.env import (
    EnvConfig,
    TabularTransitionModel,
    enumeration_cmi,
    generate_dataset,
    ground_truth_graph,
    stack_episodes,
)
from hindcaus.graph import (
    CmiMatrix,
    NeuralCmiModel,
    TabularCmiModel,
    cmi_from_batch,
    estimate_cmi,
    graph_accuracy,
)
from hindcaus.models import build_models


def chain3(noise_target="observation", **kw):
    return EnvConfig.chain(d_s=3, noise_target=noise_target, **kw)


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
    model = TabularCmiModel(TabularTransitionModel(cfg))
    whole = estimate_cmi(model, cfg, s, a, nxt)
    half = len(s) // 2
    first = estimate_cmi(model, cfg, s[:half], a[:half], nxt[:half])
    second = estimate_cmi(model, cfg, s[half:], a[half:], nxt[half:])
    # Non-parent entries are exactly zero for the tabular model, so the
    # clamp is inactive and the batch mean composes exactly.
    assert np.allclose(whole, 0.5 * (first + second), atol=1e-12)


# -- estimator against the enumeration oracle --------------------------------------


@pytest.mark.parametrize("noise_target", ["hidden", "observation"])
def test_tabular_batch_cmi_matches_enumeration_oracle(noise_target):
    cfg = chain3(noise_target)
    s, a, nxt = transitions_from_dataset(cfg, 512, seed=1)
    model = TabularCmiModel(TabularTransitionModel(cfg))
    batch_cmi = estimate_cmi(model, cfg, s, a, nxt)
    oracle = enumeration_cmi(cfg)
    assert np.max(np.abs(batch_cmi - oracle)) < 0.05
    gt = ground_truth_graph(cfg)
    assert np.all(batch_cmi[gt == 0] < 0.01)
    assert np.all(batch_cmi[gt == 1] > 0.3)


def test_model_ignoring_a_factor_gives_zero_cmi():
    cfg = chain3()
    s, a, nxt = transitions_from_dataset(cfg, 64, seed=2)
    model = TabularCmiModel(TabularTransitionModel(cfg))
    cmi = estimate_cmi(model, cfg, s, a, nxt)
    # o^1 is not read by o^2's equation and the action never enters h^1.
    assert cmi[0, 2] == 0.0
    assert cmi[3, 1] == 0.0


def test_neural_cmi_non_negative_and_hidden_rows_are_kl():
    cfg = chain3()
    bundle = build_models(cfg, "dvae_full", seed=0)
    s, a, nxt = transitions_from_dataset(cfg, 16, seed=3)
    cmi = estimate_cmi(NeuralCmiModel(bundle), cfg, s, a, nxt)
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
