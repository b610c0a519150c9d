"""The modulo environment: s' = (A s + a + eps) mod l over discrete factors.

Ground truth dynamics, the data-collection policy, rollout generation, and
the P1/P2 structural property checks live here. Everything is deterministic
given the named RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..numcore.random import stream
from .config import EnvConfig

__all__ = [
    "step",
    "sample_noise",
    "reward",
    "sample_action",
    "action_options",
    "rollout",
    "ground_truth_graph",
    "cmi_masks",
    "verify_properties",
    "PropertyReport",
]


def _check_state(values: np.ndarray, l: int) -> None:
    if values.size and (values.min() < 0 or values.max() >= l):
        raise ValueError(f"corrupt state: values outside [0, {l}): {values}")


def step(s: np.ndarray, a: np.ndarray, eps: np.ndarray, cfg: EnvConfig) -> np.ndarray:
    """One transition. Accepts a single state (d_s,) or a batch (n, d_s)."""
    s = np.asarray(s, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    eps = np.asarray(eps, dtype=np.int64)
    if s.shape[-1] != cfg.d_s or a.shape != s.shape or eps.shape != s.shape:
        raise ValueError(
            f"step: shapes must all be (..., {cfg.d_s}), got s={s.shape} a={a.shape} eps={eps.shape}"
        )
    _check_state(s, cfg.l)
    adj = cfg.adjacency_matrix()
    return (s @ adj.T + a + eps) % cfg.l


def sample_noise(cfg: EnvConfig, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Per-factor noise in {-1, 0, +1}, i.i.d. across factors and draws."""
    table = cfg.noise_table()
    shape = (cfg.d_s,) if n is None else (n, cfg.d_s)
    u = rng.random(shape)
    # Inverse-CDF per factor: (-1) below p(-1), (+1) above p(-1)+p(0).
    lo = table[:, 0]
    hi = table[:, 0] + table[:, 1]
    return np.where(u < lo, -1, np.where(u < hi, 0, 1)).astype(np.int64)


def reward(h: np.ndarray, tau: int, cfg: EnvConfig) -> int:
    """1 iff the first hidden factor equals the episode target."""
    if not 0 <= tau < cfg.l:
        raise ValueError(f"tau must be in [0, {cfg.l}), got {tau}")
    h = np.asarray(h)
    return int(h[..., 0] == tau) if h.ndim == 1 else (h[..., 0] == tau).astype(np.int64)


def action_options(cfg: EnvConfig) -> np.ndarray:
    """Support of the data-collection policy: no-op plus each single observed
    intervention, shape (d_o + 1, d_s)."""
    opts = np.zeros((cfg.d_o + 1, cfg.d_s), dtype=np.int64)
    for k, i in enumerate(cfg.observed_indices):
        opts[k + 1, i] = 1
    return opts


def sample_action(cfg: EnvConfig, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    opts = action_options(cfg)
    idx = rng.integers(0, len(opts), size=n)
    return opts[idx]


@dataclass
class Episode:
    """One offline trajectory. Ground-truth fields are evaluation-only."""

    o: np.ndarray  # (T+1, d_o) observed factor values
    a: np.ndarray  # (T, d_s) binary interventions, hidden entries always 0
    tau: int  # per-episode reward target
    r: np.ndarray  # (T,) rewards for t = 1..T
    gt_h: np.ndarray  # (T+1, d_h) ground-truth hidden values (eval only)
    gt_eps: np.ndarray  # (T, d_s) ground-truth noise (eval only)

    def horizon(self) -> int:
        return self.a.shape[0]


def rollout(cfg: EnvConfig, episode_index: int, seed: int | None = None) -> Episode:
    """Generate one episode under the data-collection policy.

    The stream is derived from (seed, episode_index) alone, so an episode
    does not depend on which other episodes are generated or in what order.
    """
    seed = cfg.seed if seed is None else seed
    rng = stream(seed, "episode", episode_index)
    T = cfg.horizon
    obs_idx = cfg.observed_indices
    hid_idx = cfg.hidden_indices

    s = np.empty(cfg.d_s, dtype=np.int64)
    s[obs_idx] = rng.integers(0, cfg.l, size=cfg.d_o)
    s[hid_idx] = cfg.initial_hidden
    tau = int(rng.integers(0, cfg.l))

    o_seq = np.empty((T + 1, cfg.d_o), dtype=np.int64)
    h_seq = np.empty((T + 1, cfg.d_h), dtype=np.int64)
    a_seq = np.empty((T, cfg.d_s), dtype=np.int64)
    eps_seq = np.empty((T, cfg.d_s), dtype=np.int64)
    r_seq = np.empty(T, dtype=np.int64)

    o_seq[0] = s[obs_idx]
    h_seq[0] = s[hid_idx]
    for t in range(T):
        a = sample_action(cfg, rng)
        eps = sample_noise(cfg, rng)
        s = step(s, a, eps, cfg)
        a_seq[t] = a
        eps_seq[t] = eps
        o_seq[t + 1] = s[obs_idx]
        h_seq[t + 1] = s[hid_idx]
        r_seq[t] = reward(s[hid_idx], tau, cfg)
    return Episode(o=o_seq, a=a_seq, tau=tau, r=r_seq, gt_h=h_seq, gt_eps=eps_seq)


def ground_truth_graph(cfg: EnvConfig) -> np.ndarray:
    """(d_s+1, d_s) binary matrix; entry (i, j) = 1 iff input i (last row:
    the action node) is a parent of next-step factor j."""
    adj = cfg.adjacency_matrix()
    g = np.zeros((cfg.d_s + 1, cfg.d_s), dtype=np.int64)
    g[: cfg.d_s] = adj.T
    g[cfg.d_s, cfg.observed_indices] = 1  # a_j enters equation j; hidden entries forced 0
    return g


def cmi_masks(cfg: EnvConfig) -> np.ndarray:
    """(d_s+2, d_s+1) keep-masks over the inputs of `ground_truth_graph`'s
    rows: row 0 keeps every input, row i+1 leaves out input i."""
    n = cfg.d_s + 1
    return np.vstack([np.ones(n), 1.0 - np.eye(n)])


@dataclass
class PropertyReport:
    p1_ok: bool
    p2_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.p1_ok and self.p2_ok


def _noise_support(cfg: EnvConfig) -> np.ndarray:
    """All noise vectors with positive probability, shape (k, d_s)."""
    table = cfg.noise_table()
    per_factor = [np.flatnonzero(table[i] > 0) - 1 for i in range(cfg.d_s)]
    grids = np.meshgrid(*per_factor, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def verify_properties(cfg: EnvConfig, max_states: int = 10**6, max_noise: int = 2000) -> PropertyReport:
    """Check P1 (every hidden factor has an observed child) and P2 (the
    transition map is a bijection on states for every fixed action/noise),
    the latter by full enumeration of the state space."""
    n_states = cfg.l**cfg.d_s
    if n_states > max_states:
        raise ValueError(f"state space too large to enumerate: {n_states} > {max_states}")

    failures: list[str] = []
    g = ground_truth_graph(cfg)
    obs = cfg.observed_indices
    p1_ok = True
    for i in cfg.hidden_indices:
        if not g[i, obs].any():
            p1_ok = False
            failures.append(f"P1: hidden factor {i} has no observed child")

    digits = np.stack(
        np.meshgrid(*[np.arange(cfg.l)] * cfg.d_s, indexing="ij"), axis=-1
    ).reshape(-1, cfg.d_s)
    noise = _noise_support(cfg)
    if len(noise) > max_noise:
        idx = stream(cfg.seed, "p2-noise-sample").choice(len(noise), size=max_noise, replace=False)
        noise = noise[idx]
    weights = cfg.l ** np.arange(cfg.d_s)
    p2_ok = True
    for a in action_options(cfg):
        for eps in noise:
            nxt = step(digits, np.broadcast_to(a, digits.shape), np.broadcast_to(eps, digits.shape), cfg)
            codes = nxt @ weights
            if np.unique(codes).size != n_states:
                p2_ok = False
                dup = np.bincount(codes, minlength=n_states)
                hit = int(np.argmax(dup))
                srcs = digits[codes == hit][:2]
                failures.append(
                    f"P2: a={a.tolist()} eps={eps.tolist()} maps states "
                    f"{srcs[0].tolist()} and {srcs[1].tolist()} to the same successor"
                )
                break
        if not p2_ok:
            break
    return PropertyReport(p1_ok=p1_ok, p2_ok=p2_ok, failures=failures)
