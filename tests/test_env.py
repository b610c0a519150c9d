import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import hindcaus.env.modulo
import hindcaus.fileio
from hindcaus.env.dataset import DATASET_VERSION
from hindcaus.env import (
    EnvConfig,
    TabularTransitionModel,
    action_allowed,
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
    save_dataset,
    stack_episodes,
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


def _rollout_noise(cfg, n_episodes, seed):
    """The (n_episodes * T, d_s) noise draws of a rollout, one row per step."""
    return np.concatenate([e.gt_eps for e in rollout(cfg, range(n_episodes), seed=seed)])


def test_noise_zero_on_observed_factors_in_noisy_hidden():
    cfg = chain3("hidden")
    eps = _rollout_noise(cfg, 400, seed=0)
    assert np.all(eps[:, [0, 2]] == 0)
    assert np.any(eps[:, 1] != 0)


def test_noise_zero_frequency_matches_law():
    cfg = chain3("hidden")
    eps = _rollout_noise(cfg, 20_000, seed=1)
    freq0 = float((eps[:, 1] == 0).mean())
    assert abs(freq0 - 0.9) < 0.01
    assert abs(float((eps[:, 1] == -1).mean()) - 0.05) < 0.01


def test_noise_degenerate_spec_is_silent():
    cfg = chain3("hidden", noise_probs=[0.0, 1.0, 0.0])
    eps = _rollout_noise(cfg, 100, seed=2)
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


def test_reward_batch_equals_scalar_calls():
    cfg = chain3()
    rng = stream(4, "reward-batch")
    h = rng.integers(0, 4, size=(50, 1))
    tau = rng.integers(0, 4, size=50)
    batch = reward(h, tau, cfg)
    assert batch.dtype == np.int64
    assert batch.tolist() == [reward(h[i], int(tau[i]), cfg) for i in range(50)]
    assert reward(np.array([[1], [2]]), np.array([1, 2]), cfg).tolist() == [1, 1]
    with pytest.raises(ValueError, match=r"\[4\]"):
        reward(h[:3], np.array([0, 4, 1]), cfg)


# -- rollout ----------------------------------------------------------------


def test_rollout_lengths():
    cfg = chain3(horizon=5)
    (ep,) = rollout(cfg, [0])
    assert ep.o.shape == (6, 2)
    assert ep.a.shape == (5, 3)
    assert ep.r.shape == (5,)
    assert ep.gt_h.shape == (6, 1)
    assert ep.gt_eps.shape == (5, 3)


def test_rollout_replays_exactly_through_step():
    cfg = chain3(noise_probs=[0.0, 1.0, 0.0])
    (ep,) = rollout(cfg, [7])
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
    e1, e3 = rollout(cfg, [11, 12], seed=5)
    (e2,) = rollout(cfg, [11], seed=5)
    assert np.array_equal(e1.o, e2.o) and np.array_equal(e1.a, e2.a)
    assert e1.tau == e2.tau and np.array_equal(e1.gt_eps, e2.gt_eps)
    assert not (np.array_equal(e1.o, e3.o) and np.array_equal(e1.a, e3.a))


def test_actions_only_intervene_observed():
    cfg = chain3()
    opts = action_options(cfg)
    assert opts.shape == (3, 3)
    assert np.all(opts[:, 1] == 0)
    for ep in rollout(cfg, range(200)):
        assert np.all(ep.a[:, 1] == 0)
        assert np.all(ep.a.sum(axis=1) <= 1)


@pytest.mark.parametrize(
    "cfg",
    [chain3(), EnvConfig.full(d_s=4, hidden_indices=[0, 2])],
    ids=["chain3", "full4-two-hidden"],
)
def test_action_allowed_is_membership_in_action_options(cfg):
    values = [-1, 0, 1, 2, 2**62]  # 2**62 twice overflows a weighted int64 sum
    rows = np.stack(np.meshgrid(*[values] * cfg.d_s, indexing="ij"), axis=-1).reshape(-1, cfg.d_s)
    member = (rows[:, None] == action_options(cfg)).all(axis=2).any(axis=1)
    assert member.sum() == cfg.d_o + 1
    assert np.array_equal(action_allowed(cfg, rows), member)


def _episode_fields(episodes):
    return [
        (e.o.tolist(), e.a.tolist(), e.tau, e.r.tolist(), e.gt_h.tolist(), e.gt_eps.tolist())
        for e in episodes
    ]


def test_rollout_order_and_subset_do_not_change_episodes():
    cfg = chain3()
    whole = rollout(cfg, range(12), seed=8)
    assert _episode_fields(rollout(cfg, [9, 3], seed=8)) == _episode_fields([whole[9], whole[3]])
    assert rollout(cfg, [], seed=8) == []


def _within(count, n, p, k=4.0):
    """`count` hits out of `n` draws is within k standard errors of n * p."""
    return abs(count / n - p) <= k * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize(
    "cfg", [chain3("hidden"), EnvConfig.full(d_s=5)], ids=["chain3-hidden", "full5"]
)
def test_rollout_draws_follow_the_policy_and_noise_law(cfg):
    n = 20_000
    episodes = rollout(cfg, range(n), seed=9)
    o0 = np.stack([e.o[0] for e in episodes])  # (n, d_o)
    tau = np.array([e.tau for e in episodes])
    a = np.stack([e.a for e in episodes]).reshape(-1, cfg.d_s)  # (n*T, d_s)
    eps = np.stack([e.gt_eps for e in episodes]).reshape(-1, cfg.d_s)
    for value in range(cfg.l):
        assert _within(int((o0 == value).sum()), o0.size, 1 / cfg.l)
        assert _within(int((tau == value).sum()), n, 1 / cfg.l)
    pairs = o0[:, -1] * cfg.l + tau  # tau takes its own uniform, not a reused one
    for cell in range(cfg.l**2):
        assert _within(int((pairs == cell).sum()), n, 1 / cfg.l**2)
    assert np.all(a[:, cfg.hidden_indices] == 0)
    assert np.all(a.sum(axis=1) <= 1)
    options = cfg.d_o + 1
    assert _within(int((a.sum(axis=1) == 0).sum()), len(a), 1 / options)
    for i in cfg.observed_indices:
        assert _within(int(a[:, i].sum()), len(a), 1 / options)
    table = cfg.noise_table()
    for j in range(cfg.d_s):
        for v in (-1, 0, 1):
            assert _within(int((eps[:, j] == v).sum()), len(eps), table[j, v + 1])


@pytest.mark.parametrize("l", [2, 3, 4, 5, 7, 1000])
def test_rollout_maps_extreme_uniforms_inside_their_ranges(monkeypatch, l):
    cfg = EnvConfig.full(d_s=5, l=l, noise_probs=[0.2, 0.6, 0.2])
    opts = action_options(cfg)
    noisy = np.array([i in cfg.hidden_indices for i in range(cfg.d_s)])
    for u, index, noise in ((0.0, 0, -1), (np.nextafter(1.0, 0.0), l - 1, 1)):
        constant = lambda prefix, ids, k, u=u: np.full((len(ids), k), u)
        monkeypatch.setattr(hindcaus.env.modulo, "stream_uniforms", constant)
        (ep,) = rollout(cfg, [0])
        assert np.all(ep.o[0] == index) and ep.tau == index
        assert np.all(ep.a == opts[0 if u == 0.0 else cfg.d_o])
        assert np.array_equal(ep.gt_eps, np.broadcast_to(np.where(noisy, noise, 0), ep.gt_eps.shape))


# -- dataset ----------------------------------------------------------------


# Values in one chain3 episode (l=4, T=5, d_o=2, d_h=1) of each field, in file order.
CHAIN3_FIELD_SIZES = {"o": 12, "a": 15, "tau": 1, "r": 5, "gt_h": 6, "gt_eps": 15}


def _read(path):
    """A record file's parsed header and the bytes after its newline."""
    head, _, blob = path.read_bytes().partition(b"\n")
    return json.loads(head), blob


def _write(path, header, blob):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)


def _chain3_blocks(values, n):
    """Views of a chain3 file's int64 values of n episodes, one (n, size)
    block per field."""
    blocks, start = {}, 0
    for name, size in CHAIN3_FIELD_SIZES.items():
        blocks[name] = values[start : start + n * size].reshape(n, size)
        start += n * size
    assert start == values.size
    return blocks


def _edit_values(path, edit):
    """Apply `edit` to the (n, size) int64 blocks of a chain3 file."""
    header, blob = _read(path)
    values = np.frombuffer(blob, dtype="<i8").copy()
    edit(_chain3_blocks(values, header["episodes"]))
    _write(path, header, values.tobytes())


def test_dataset_file_layout_and_roundtrip(tmp_path):
    cfg = chain3()
    path = tmp_path / "data.bin"
    ds = generate_dataset(cfg, 10, seed=1)
    save_dataset(ds, path)
    header, blob = _read(path)
    assert header["episodes"] == 10 and len(blob) == 10 * 8 * sum(CHAIN3_FIELD_SIZES.values())
    loaded = load_dataset(path)
    assert loaded.config == cfg
    assert np.array_equal(loaded.gt_graph, ds.gt_graph)
    assert len(loaded) == 10
    for e1, e2 in zip(ds.episodes, loaded.episodes):
        assert type(e2.tau) is int and e1.tau == e2.tau
        for name in ("o", "a", "r", "gt_h", "gt_eps"):
            x, y = getattr(e1, name), getattr(e2, name)
            assert x.dtype == y.dtype == np.int64 and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes() and y.flags.writeable, name


def test_dataset_file_is_its_header_line_then_each_stacked_field(tmp_path):
    cfg = chain3()
    ds = generate_dataset(cfg, 10, seed=1)
    save_dataset(ds, tmp_path / "data.bin")
    header = {
        "version": DATASET_VERSION,
        "config": dataclasses.asdict(cfg),
        "gt_graph": ds.gt_graph.tolist(),
        "config_hash": config_hash(cfg),
        "episodes": 10,
    }
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    fields = [np.array([getattr(e, f) for e in ds.episodes], dtype="<i8") for f in CHAIN3_FIELD_SIZES]
    want = head + b"\n" + b"".join(a.tobytes() for a in fields)
    assert (tmp_path / "data.bin").read_bytes() == want


def test_dataset_save_and_load_hold_one_copy_of_the_episode_data(tmp_path, traced_peak):
    ds, path = generate_dataset(chain3(), 512, seed=1), tmp_path / "data.bin"
    payload = 512 * 8 * sum(CHAIN3_FIELD_SIZES.values())
    # A save stacks each field once, for its checks, and writes those arrays.
    assert traced_peak(lambda: save_dataset(ds, path)).peak < 1.25 * payload
    # A load reads the payload into one array that the episodes view, so
    # beyond what it returns it allocates little.
    load = traced_peak(lambda: load_dataset(path))
    assert len(load.result) == 512
    assert load.peak <= load.held + 0.1 * payload


def test_loaded_episode_arrays_are_writable_native_and_disjoint(tmp_path):
    save_dataset(generate_dataset(chain3(), 3, seed=1), tmp_path / "data.bin")
    episodes = load_dataset(tmp_path / "data.bin").episodes
    arrays = [getattr(e, f) for e in episodes for f in ("o", "a", "r", "gt_h", "gt_eps")]
    for i, x in enumerate(arrays):
        assert x.dtype == np.int64 and x.dtype.isnative
        x[...] = i  # raises if read-only
    assert all(np.all(x == i) for i, x in enumerate(arrays))  # no write reached another


@pytest.mark.parametrize(
    "field, value", [("o", 4), ("a", 2), ("tau", -1), ("r", 2), ("gt_h", 4), ("gt_eps", -2)],
    ids=["o", "a", "tau", "r", "gt_h", "gt_eps"],
)
def test_load_dataset_rejects_value_outside_field_range(tmp_path, field, value):
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)

    def edit(blocks):
        blocks[field][2, -1] = value

    _edit_values(path, edit)
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and f"field {field!r} of episode 2 " in msg and "outside" in msg


@pytest.mark.parametrize(
    "row", [[1, 0, 1], [0, 1, 0]], ids=["two_interventions", "hidden_factor"]
)
def test_load_dataset_rejects_action_outside_policy_support(tmp_path, row):
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)  # factor 1 is hidden

    def edit(blocks):
        blocks["a"][2].reshape(5, 3)[1] = row

    _edit_values(path, edit)
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and "field 'a' of episode 2 " in msg and "observed factor" in msg


def _transpose_o(e):
    e.o = np.ascontiguousarray(e.o.T)


def _float_r(e):
    e.r = e.r + 0.5


def _truncate_a(e):
    e.a = e.a[:2]


@pytest.mark.parametrize(
    "field, edit", [("o", _transpose_o), ("r", _float_r), ("a", _truncate_a)],
    ids=["transposed_o", "float_r", "ragged_a"],
)
def test_save_dataset_refuses_episodes_that_do_not_fit_the_config(tmp_path, field, edit):
    # The file keeps values only, so a shape or a dtype it cannot hold is refused on save.
    path = tmp_path / "data.bin"
    ds = generate_dataset(chain3(), 4, seed=1)
    edit(ds.episodes[2])
    with pytest.raises(ValueError) as exc:
        save_dataset(ds, path)
    msg = str(exc.value)
    assert str(path) in msg and f"field {field!r}" in msg
    assert not path.exists()


def _o_outside_range(ds):
    ds.episodes[2].o[3, 0] = 9  # chain3 has l = 4


def _action_on_hidden_factor(ds):
    ds.episodes[2].a[1] = [0, 1, 0]  # factor 1 is hidden


def _other_gt_graph(ds):
    ds.gt_graph = 1 - ds.gt_graph


@pytest.mark.parametrize(
    "edit, refusal",
    [
        (_o_outside_range, "field 'o' of episode 2 has values outside [0, 4)"),
        (_action_on_hidden_factor, "field 'a' of episode 2 has a row"),
        (_other_gt_graph, "field 'gt_graph' is not the graph of its config"),
    ],
    ids=["o_outside_range", "action_on_hidden_factor", "other_gt_graph"],
)
def test_save_dataset_refuses_what_load_dataset_refuses(tmp_path, edit, refusal):
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    old = path.read_bytes()
    ds = generate_dataset(chain3(), 4, seed=2)
    edit(ds)
    with pytest.raises(ValueError, match=re.escape(f"cannot save dataset to {path}: {refusal}")):
        save_dataset(ds, path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["data.bin"]


def test_stack_episodes_gives_np_stack_and_names_a_bad_field():
    episodes = generate_dataset(chain3(), 6, seed=2).episodes
    episodes[1] = dataclasses.replace(episodes[1], o=np.asfortranarray(episodes[1].o))
    episodes[2] = dataclasses.replace(episodes[2], a=episodes[2].a[::-1])
    batch = stack_episodes(episodes)
    for name in ("o", "a", "r"):
        got, want = getattr(batch, name), np.stack([getattr(e, name) for e in episodes])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and np.array_equal(got, want)
    assert batch.tau.dtype == np.int64 and batch.tau.tolist() == [e.tau for e in episodes]
    short = dataclasses.replace(episodes[3], r=episodes[3].r[:-1])
    with pytest.raises(ValueError, match=r"field 'r' of episode 3 has shape \(4,\)"):
        stack_episodes([*episodes[:3], short])
    with pytest.raises(ValueError, match="empty"):
        stack_episodes([])


def test_load_dataset_rejects_truncated_header(tmp_path):
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and "line 1:" in msg and "JSON" in msg


@pytest.mark.parametrize(
    "edit",
    [lambda blob: blob[:-432], lambda blob: blob[:-1], lambda blob: blob + bytes(8)],
    ids=["one_episode_short", "one_byte_short", "extra_value"],
)
def test_load_dataset_rejects_wrong_blob_size(tmp_path, edit):
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    header, blob = _read(path)
    _write(path, header, edit(blob))
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and f"{len(edit(blob))} bytes" in msg and f"expected {len(blob)}" in msg


def test_load_dataset_rejects_wrong_gt_graph(tmp_path):
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    header, blob = _read(path)
    header["gt_graph"] = [[1]]
    _write(path, header, blob)
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and "gt_graph" in msg


def _header_as_list(header):
    return [header]


def _drop_config(header):
    del header["config"]


def _unknown_config_key(header):
    header["config"]["colour"] = "red"


def _l_below_two(header):
    header["config"]["l"] = 1


def _header_value(key, value):
    def edit(header):
        header[key] = value

    return edit


def _config_value(key, value):
    def edit(header):
        header["config"][key] = value

    return edit


@pytest.mark.parametrize(
    "edit, field, original",
    [
        (_header_as_list, "config", "JSON list"),
        (_drop_config, "config", "KeyError"),
        (_unknown_config_key, "config", "colour"),
        (_config_value("horizon", "5"), "config", "horizon must be an integer, got '5'"),
        (_config_value("d_s", 3.0), "config", "d_s must be an integer, got 3.0"),
        (_config_value("l", 4.0), "config", "l must be an integer, got 4.0"),
        (_config_value("horizon", 2.5), "config", "horizon must be an integer, got 2.5"),
        (_config_value("seed", 1.5), "config", "seed must be an integer, got 1.5"),
        (_config_value("seed", True), "config", "seed must be an integer, got True"),
        (_config_value("hidden_indices", [1.7]), "config", "hidden_indices must be integers"),
        (_config_value("noise_probs", [math.nan, 0.9, 0.1]), "config", "must be a distribution"),
        (
            _config_value("noise_probs", [True, False, False]),
            "config",
            "noise_probs must be real numbers, got [True, False, False]",
        ),
        (
            _config_value("noise_probs", ["0.05", "0.9", "0.05"]),
            "config",
            "noise_probs must be real numbers, got ['0.05', '0.9', '0.05']",
        ),
        (_l_below_two, "config", "l must be >= 2"),
        (_header_value("version", 1), "version", "'version' is 1"),
        (_header_value("version", 2), "version", "'version' is 2"),
        (_header_value("version", 3), "version", "'version' is 3"),
        (_header_value("episodes", True), "episodes", "'episodes' is True"),
        (_header_value("episodes", -1), "episodes", "'episodes' is -1"),
        (_header_value("config_hash", "0" * 16), "config_hash", "does not match its config"),
    ],
    ids=[
        "list",
        "no_config",
        "unknown_key",
        "string_horizon",
        "float_d_s",
        "float_l",
        "float_horizon",
        "float_seed",
        "bool_seed",
        "float_hidden_index",
        "nan_noise_prob",
        "bool_noise_probs",
        "string_noise_probs",
        "l_1",
        "version_1",
        "version_2",
        "version_3",
        "bool_episodes",
        "negative_episodes",
        "other_config_hash",
    ],
)
def test_load_dataset_rejects_bad_header(tmp_path, edit, field, original):
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    header, blob = _read(path)
    header = edit(header) or header
    _write(path, header, blob)
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    msg = str(exc.value)
    assert str(path) in msg and "line 1:" in msg and f"{field!r}" in msg and original in msg


def test_dataset_version_pins_the_header_config_fields(tmp_path):
    # A change to EnvConfig's fields, to the header or to the block layout
    # changes the file: it needs a new version.
    path = tmp_path / "data.bin"
    ds = generate_dataset(chain3(), 3, seed=1)
    save_dataset(ds, path)
    header, blob = _read(path)
    assert DATASET_VERSION == header["version"] == 4
    assert list(header) == ["version", "config", "gt_graph", "config_hash", "episodes"]
    assert header["episodes"] == 3
    assert list(header["config"]) == [
        "d_s", "l", "graph_kind", "hidden_indices", "noise_probs", "noise_target", "horizon", "seed"
    ]
    assert len(blob) == 3 * 432  # 54 little-endian int64 values per chain3 episode
    blocks = _chain3_blocks(np.frombuffer(blob, dtype="<i8"), 3)
    for name, block in blocks.items():
        episodes = np.array([getattr(e, name) for e in ds.episodes])
        assert np.array_equal(block, episodes.reshape(3, -1)), name


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
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    old = path.read_bytes()
    error = interrupt(monkeypatch)
    with pytest.raises(error):
        save_dataset(generate_dataset(chain3(), 6, seed=2), path)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["data.bin"]  # no temporary file left
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


def test_generate_dataset_steps_all_episodes_together(monkeypatch):
    cfg = chain3()
    calls = []
    real_step = hindcaus.env.modulo.step

    def counted(*args):
        calls.append(args[0].shape)
        return real_step(*args)

    monkeypatch.setattr(hindcaus.env.modulo, "step", counted)
    generate_dataset(cfg, 50, seed=1)
    assert calls == [(50, cfg.d_s)] * cfg.horizon


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


@pytest.mark.parametrize("count", [True, 2.0, "2", None])
def test_generate_dataset_refuses_non_integer_count_by_name(count):
    with pytest.raises(ValueError, match=rf"^n_episodes must be a positive integer, got {count!r}"):
        generate_dataset(chain3(), count)


def test_generate_dataset_takes_numpy_integer_count():
    got, want = (generate_dataset(chain3(), n, seed=3).episodes for n in (np.int64(2), 2))
    assert len(got) == 2
    assert all(np.array_equal(x.o, y.o) and np.array_equal(x.a, y.a) for x, y in zip(got, want))


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
    # Hidden factor 1 is last in the chain, so its only child is itself.
    cfg = EnvConfig.chain(d_s=2, hidden_indices=[1])
    report = verify_properties(cfg)
    assert not report.p1_ok
    assert "P1: hidden factor 1 has no observed child" in report.failures


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


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"d_s": 1, "hidden_indices": [0]}, "d_s"),
        ({"horizon": 0}, "horizon"),
        ({"graph_kind": "ring"}, "graph_kind"),
        ({"noise_target": "reward"}, "noise_target"),
        ({"hidden_indices": [1, 1]}, "hidden_indices"),
        ({"hidden_indices": [3]}, "hidden_indices"),
        ({"hidden_indices": [-1]}, "hidden_indices"),
        ({"hidden_indices": [0, 1, 2]}, "hidden_indices"),
        ({"noise_probs": [0.1, 0.9]}, "noise_probs"),
        ({"noise_probs": [0.05, 0.9, 0.025, 0.025]}, "noise_probs"),
    ],
    ids=[
        "d_s_1",
        "horizon_0",
        "unknown_graph_kind",
        "unknown_noise_target",
        "duplicate_hidden_index",
        "hidden_index_d_s",
        "negative_hidden_index",
        "every_factor_hidden",
        "two_noise_probs",
        "four_noise_probs",
    ],
)
def test_config_refusal_names_the_field(kwargs, field):
    with pytest.raises(ValueError, match=rf"^{field} "):
        EnvConfig(**kwargs)
