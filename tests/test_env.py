import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import hindcaus.fileio
from hindcaus.env import (
    EnvConfig,
    TabularTransitionModel,
    action_options,
    cmi_masks,
    config_hash,
    enumeration_cmi,
    generate_dataset,
    ground_truth_graph,
    load_dataset,
    noise_entropy,
    reward,
    rollout,
    sample_noise,
    save_dataset,
    step,
    verify_properties,
)
from hindcaus.numcore import stream


def chain3(noise_target="hidden", **kw):
    return EnvConfig.chain(d_s=3, noise_target=noise_target, **kw)


# -- step ----------------------------------------------------------------


def test_step_matches_chain_dynamics():
    cfg = chain3()
    s = np.array([1, 2, 3])
    a = np.array([1, 0, 0])
    eps = np.zeros(3, dtype=int)
    assert step(s, a, eps, cfg).tolist() == [2, 3, 1]


def test_step_zero_fixed_point():
    cfg = chain3()
    z = np.zeros(3, dtype=int)
    assert step(z, z, z, cfg).tolist() == [0, 0, 0]


def test_step_noise_shifts_only_its_factor():
    cfg = chain3()
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.integers(0, 4, size=3)
        a = np.zeros(3, dtype=int)
        base = step(s, a, np.zeros(3, dtype=int), cfg)
        for k in range(3):
            eps = np.zeros(3, dtype=int)
            eps[k] = 1
            shifted = step(s, a, eps, cfg)
            expect = base.copy()
            expect[k] = (expect[k] + 1) % 4
            assert shifted.tolist() == expect.tolist()


def test_step_rejects_corrupt_state():
    cfg = chain3()
    with pytest.raises(ValueError, match="corrupt"):
        step(np.array([0, 9, 0]), np.zeros(3, dtype=int), np.zeros(3, dtype=int), cfg)


# -- noise ----------------------------------------------------------------


def test_noise_zero_on_observed_factors_in_noisy_hidden():
    cfg = chain3("hidden")
    eps = sample_noise(cfg, stream(0, "noise-test"), n=2000)
    assert np.all(eps[:, [0, 2]] == 0)
    assert np.any(eps[:, 1] != 0)


def test_noise_zero_frequency_matches_law():
    cfg = chain3("hidden")
    eps = sample_noise(cfg, stream(1, "noise-freq"), n=100_000)
    freq0 = float((eps[:, 1] == 0).mean())
    assert abs(freq0 - 0.9) < 0.01
    assert abs(float((eps[:, 1] == -1).mean()) - 0.05) < 0.01


def test_noise_degenerate_spec_is_silent():
    cfg = chain3("hidden", noise_probs=[0.0, 1.0, 0.0])
    eps = sample_noise(cfg, stream(2, "noise-degenerate"), n=500)
    assert np.all(eps == 0)


# -- reward ----------------------------------------------------------------


def test_reward_matches_target():
    cfg = chain3()
    assert reward(np.array([2]), 2, cfg) == 1
    assert reward(np.array([2]), 3, cfg) == 0


def test_reward_mean_over_uniform_draws():
    cfg = chain3()
    rng = stream(3, "reward-mean")
    h = rng.integers(0, 4, size=(100_000, 1))
    tau = rng.integers(0, 4, size=100_000)
    hits = np.array([reward(h[i], int(tau[i]), cfg) for i in range(0, 100_000, 10)])
    assert abs(hits.mean() - 0.25) < 0.02


def test_reward_ignores_observed_factors():
    cfg = chain3()
    assert reward(np.array([1]), 1, cfg) == reward(np.array([1]), 1, cfg)
    with pytest.raises(ValueError):
        reward(np.array([0]), 7, cfg)


# -- rollout ----------------------------------------------------------------


def test_rollout_lengths():
    cfg = chain3(horizon=5)
    ep = rollout(cfg, 0)
    assert ep.o.shape == (6, 2)
    assert ep.a.shape == (5, 3)
    assert ep.r.shape == (5,)
    assert ep.gt_h.shape == (6, 1)
    assert ep.gt_eps.shape == (5, 3)


def test_rollout_replays_exactly_through_step():
    cfg = chain3(noise_probs=[0.0, 1.0, 0.0])
    ep = rollout(cfg, 7)
    s = np.empty(3, dtype=int)
    s[[0, 2]] = ep.o[0]
    s[1] = ep.gt_h[0, 0]
    for t in range(5):
        s = step(s, ep.a[t], ep.gt_eps[t], cfg)
        assert s[[0, 2]].tolist() == ep.o[t + 1].tolist()
        assert s[1] == ep.gt_h[t + 1, 0]
        assert ep.r[t] == reward(np.array([s[1]]), ep.tau, cfg)


def test_rollout_same_seed_identical():
    cfg = chain3()
    e1 = rollout(cfg, 11, seed=5)
    e2 = rollout(cfg, 11, seed=5)
    assert np.array_equal(e1.o, e2.o) and np.array_equal(e1.a, e2.a)
    assert e1.tau == e2.tau and np.array_equal(e1.gt_eps, e2.gt_eps)
    e3 = rollout(cfg, 12, seed=5)
    assert not (np.array_equal(e1.o, e3.o) and np.array_equal(e1.a, e3.a))


def test_actions_only_intervene_observed():
    cfg = chain3()
    opts = action_options(cfg)
    assert opts.shape == (3, 3)
    assert np.all(opts[:, 1] == 0)
    for i in range(200):
        ep = rollout(cfg, i)
        assert np.all(ep.a[:, 1] == 0)
        assert np.all(ep.a.sum(axis=1) <= 1)


# -- dataset ----------------------------------------------------------------


def test_dataset_file_layout_and_roundtrip(tmp_path):
    cfg = chain3()
    path = tmp_path / "data.jsonl"
    ds = generate_dataset(cfg, 10, seed=1)
    save_dataset(ds, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 11  # header + 10 episodes
    loaded = load_dataset(path)
    assert loaded.config == cfg
    assert np.array_equal(loaded.gt_graph, ds.gt_graph)
    for e1, e2 in zip(ds.episodes, loaded.episodes):
        assert np.array_equal(e1.o, e2.o)
        assert np.array_equal(e1.a, e2.a)
        assert e1.tau == e2.tau
        assert np.array_equal(e1.r, e2.r)
        assert np.array_equal(e1.gt_h, e2.gt_h)
        assert np.array_equal(e1.gt_eps, e2.gt_eps)


def _set_o(record):
    record["o"][1][0] = 9


def _truncate_a(record):
    record["a"] = record["a"][:2]


def _float_r(record):
    record["r"][0] = 0.5


@pytest.mark.parametrize("field, edit", [("o", _set_o), ("a", _truncate_a), ("r", _float_r)])
def test_load_dataset_rejects_corrupt_episode_line(tmp_path, field, edit):
    path = tmp_path / "data.jsonl"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and "line 3" in msg and f"field {field!r}" in msg


@pytest.mark.parametrize("line", [1, 3])  # the header, an episode
def test_load_dataset_rejects_truncated_line(tmp_path, line):
    path = tmp_path / "data.jsonl"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    lines = path.read_text().splitlines()
    lines[line - 1] = lines[line - 1][:40]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and f"line {line}:" in msg and "JSON" in msg


def test_load_dataset_rejects_wrong_gt_graph(tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["gt_graph"] = [[1]]
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and "gt_graph" in msg


class _HalfWriter:
    """A file handle whose write stores half the bytes and is then cut off."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise KeyboardInterrupt


def _cut_mid_write(monkeypatch):
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return _HalfWriter(fh) if "x" in mode else fh

    monkeypatch.setattr(Path, "open", open_)
    return KeyboardInterrupt


def _fail_replace(monkeypatch):
    def replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(hindcaus.fileio.os, "replace", replace)
    return OSError


@pytest.mark.parametrize(
    "interrupt", [_cut_mid_write, _fail_replace], ids=["mid_write", "before_replace"]
)
def test_interrupted_dataset_save_keeps_old_file(tmp_path, monkeypatch, interrupt):
    path = tmp_path / "data.jsonl"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    old = path.read_bytes()
    error = interrupt(monkeypatch)
    with pytest.raises(error):
        save_dataset(generate_dataset(chain3(), 6, seed=2), path)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["data.jsonl"]  # no temporary file left
    save_dataset(generate_dataset(chain3(), 6, seed=2), path)
    assert len(load_dataset(path)) == 6


def test_dataset_episode_does_not_depend_on_episode_count():
    cfg = chain3()
    small = generate_dataset(cfg, 5, seed=3)
    large = generate_dataset(cfg, 20, seed=3)
    for e1, e2 in zip(small.episodes, large.episodes[:5], strict=True):
        assert np.array_equal(e1.o, e2.o)
        assert np.array_equal(e1.a, e2.a)
        assert e1.tau == e2.tau
        assert np.array_equal(e1.r, e2.r)
        assert np.array_equal(e1.gt_h, e2.gt_h)
        assert np.array_equal(e1.gt_eps, e2.gt_eps)


def test_observed_marginals_near_uniform():
    cfg = chain3()
    ds = generate_dataset(cfg, 10_000, seed=2)
    o = np.stack([e.o for e in ds.episodes])  # (n, T+1, 2)
    for j in range(2):
        counts = np.bincount(o[:, :, j].reshape(-1), minlength=4) / o[:, :, j].size
        assert np.all(np.abs(counts - 0.25) < 0.02)


def test_generate_dataset_rejects_bad_count():
    with pytest.raises(ValueError):
        generate_dataset(chain3(), 0)


# -- ground-truth graph -------------------------------------------------------


def test_chain3_graph_edges():
    g = ground_truth_graph(chain3())
    expected = np.array(
        [
            [1, 1, 0],
            [0, 1, 1],
            [0, 0, 1],
            [1, 0, 1],
        ]
    )
    assert np.array_equal(g, expected)
    assert g.sum() == 7


def test_full5_graph_lower_triangular():
    cfg = EnvConfig.full(d_s=5, noise_target="observation")
    g = ground_truth_graph(cfg)
    assert np.array_equal(g[:5], np.tril(np.ones((5, 5), dtype=int)).T)
    # Action row marks exactly the observed factors.
    expected_action = np.ones(5, dtype=int)
    expected_action[2] = 0
    assert np.array_equal(g[5], expected_action)


# -- P1 / P2 -------------------------------------------------------------------


def test_properties_hold_for_chain3():
    report = verify_properties(chain3())
    assert report.ok, report.failures


def test_properties_hold_for_d5_configs():
    for cfg in (
        EnvConfig.chain(d_s=5, noise_target="observation"),
        EnvConfig.full(d_s=5, noise_target="observation"),
    ):
        report = verify_properties(cfg)
        assert report.ok, report.failures


def test_p1_violation_is_reported():
    # Hidden factor 1 whose only child is itself.
    adjacency = [[1, 0], [0, 1]]
    cfg = EnvConfig(
        d_s=2,
        graph_kind="explicit",
        adjacency=adjacency,
        hidden_indices=[1],
        noise_target="hidden",
    )
    report = verify_properties(cfg)
    assert not report.p1_ok
    assert any("P1" in f and "1" in f for f in report.failures)


# -- enumeration oracle ---------------------------------------------------------


def test_noise_entropy_value():
    h = noise_entropy(chain3())
    expected = -(0.9 * math.log(0.9) + 2 * 0.05 * math.log(0.05))
    assert h == pytest.approx(expected, abs=1e-12)
    assert h == pytest.approx(0.394398, abs=1e-6)


def test_enumeration_cmi_chain3_noisy_hidden():
    cfg = chain3("hidden")
    cmi = enumeration_cmi(cfg)
    h_eps = noise_entropy(cfg)
    ln4 = math.log(4.0)
    gt = ground_truth_graph(cfg)
    # Parent edges into the noisy hidden factor carry ln(l) - H(eps).
    assert cmi[0, 1] == pytest.approx(ln4 - h_eps, abs=1e-9)
    assert cmi[1, 1] == pytest.approx(ln4 - h_eps, abs=1e-9)
    # Noise-free observed targets: parents carry full ln(l).
    assert cmi[1, 2] == pytest.approx(ln4, abs=1e-9)
    assert cmi[2, 2] == pytest.approx(ln4, abs=1e-9)
    # Non-parents are exactly zero; all parents well separated.
    assert np.all(cmi[gt == 0] < 1e-9)
    assert np.all(cmi[gt == 1] > 0.3)


def test_enumeration_cmi_chain3_noisy_observation():
    cfg = chain3("observation")
    cmi = enumeration_cmi(cfg)
    h_eps = noise_entropy(cfg)
    assert cmi[1, 2] == pytest.approx(math.log(4.0) - h_eps, abs=1e-9)
    gt = ground_truth_graph(cfg)
    assert np.all(cmi[gt == 0] < 1e-9)
    assert np.all(cmi[gt == 1] > 0.3)


def test_tabular_model_full_distribution_sums_to_one():
    cfg = chain3("observation")
    model = TabularTransitionModel(cfg)
    rng = np.random.default_rng(1)
    s = rng.integers(0, 4, size=(50, 3))
    a = np.zeros((50, 3), dtype=int)
    for j in range(3):
        p = model.probs(j, s, a)
        assert np.allclose(p.sum(axis=1), 1.0)
        masked = model.probs(j, s, a, cmi_masks(cfg)[1])
        assert np.allclose(masked.sum(axis=1), 1.0)


def test_config_hash_changes_with_config():
    assert config_hash(chain3("hidden")) != config_hash(chain3("observation"))
    assert config_hash(chain3()) == config_hash(chain3())


def test_config_rejects_empty_hidden_indices():
    with pytest.raises(ValueError, match="hidden_indices"):
        chain3(hidden_indices=[])
