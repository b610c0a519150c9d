"""The modulo environment: s' = (A s + a + eps) mod l over discrete factors.

Ground truth dynamics, the data-collection policy, rollout generation, and
the P1/P2 structural property checks live here. Everything is deterministic
given the named RNG streams.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ..numcore.random import stream, stream_uniforms
from .config import EnvConfig

__all__ = [
    "step",
    "reward",
    "action_options",
    "action_allowed",
    "check_rows",
    "rollout",
    "ground_truth_graph",
    "cmi_masks",
    "enumerate_states",
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


def _noise_from_uniform(cfg: EnvConfig, u: np.ndarray) -> np.ndarray:
    """Noise in {-1, 0, +1} from uniforms `u` of shape (..., d_s), by the
    inverse CDF of each factor's row of `cfg.noise_table()`: -1 below
    p(-1), +1 at or above p(-1) + p(0), 0 between."""
    table = cfg.noise_table()
    lo = table[:, 0]
    hi = table[:, 0] + table[:, 1]
    return np.where(u < lo, -1, np.where(u < hi, 0, 1)).astype(np.int64)


def reward(h: np.ndarray, tau: int | np.ndarray, cfg: EnvConfig) -> int | np.ndarray:
    """1 iff the first hidden factor equals the episode target.

    `tau` broadcasts against `h[..., 0]`, so one call scores a batch of
    episodes; a single state (d_h,) with a scalar target gives an int."""
    tau = np.asarray(tau)
    bad = (tau < 0) | (tau >= cfg.l)
    if bad.any():
        raise ValueError(f"tau must be in [0, {cfg.l}), got {tau[bad].tolist()}")
    hit = (np.asarray(h)[..., 0] == tau).astype(np.int64)
    return int(hit) if hit.ndim == 0 else hit


def action_options(cfg: EnvConfig) -> np.ndarray:
    """Support of the data-collection policy: no-op plus each single observed
    intervention, shape (d_o + 1, d_s)."""
    opts = np.zeros((cfg.d_o + 1, cfg.d_s), dtype=np.int64)
    for k, i in enumerate(cfg.observed_indices):
        opts[k + 1, i] = 1
    return opts


def action_allowed(cfg: EnvConfig, a: np.ndarray) -> np.ndarray:
    """(n,) bool: whether each row of the (n, d_s) integer actions `a` is a
    row of `action_options`, a no-op or one intervention on an observed
    factor: its entries are zeros and ones, and weighing the observed ones
    1 and the hidden ones 2 they sum to at most 1."""
    return ((a == 0) | (a == 1)).all(axis=1) & (a @ _action_weight(cfg) <= 1)


def _action_weight(cfg: EnvConfig) -> np.ndarray:
    """(d_s,) int64: 1 for an observed factor, 2 for a hidden one."""
    weight = np.ones(cfg.d_s, dtype=np.int64)
    weight[cfg.hidden_indices] = 2
    return weight


def check_rows(cfg: EnvConfig, s, a) -> tuple[np.ndarray, np.ndarray]:
    """`s` and `a` as arrays, or a `ValueError` that names the argument and
    its first bad row. Both must be (n, d_s) integer arrays, every factor
    value of `s` in [0, l), and every row of `a` allowed (`action_allowed`)."""
    s, a = np.asarray(s), np.asarray(a)
    n = len(s) if s.ndim else -1
    for name, arr in (("s", s), ("a", a)):
        if arr.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
        if arr.shape != (n, cfg.d_s):
            raise ValueError(
                f"{name} must have shape (n, {cfg.d_s}), the same n for s and a; "
                f"got {s.shape} and {a.shape}"
            )
    if s.size and (s.min() < 0 or s.max() >= cfg.l):
        r = int(np.argmax(((s < 0) | (s >= cfg.l)).any(axis=1)))
        raise ValueError(f"s must hold factor values in [0, {cfg.l}); row {r} is {s[r].tolist()}")
    # All rows are allowed when every entry is 0 or 1 and no row weighs
    # more than 1; only otherwise are the rows searched for the first bad one.
    if a.size and not (0 <= a.min() and a.max() <= 1 and (a @ _action_weight(cfg)).max() <= 1):
        r = int(np.argmin(action_allowed(cfg, a)))
        raise ValueError(
            f"a must hold rows that are a no-op or a single intervention on an observed "
            f"factor {cfg.observed_indices}; row {r} is {a[r].tolist()}"
        )
    return s, a


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


def _uniform_index(u: np.ndarray, n: int) -> np.ndarray:
    """floor(u * n) for u in [0, 1). The product of the largest double below
    1 and a positive int n rounds to below n, so the index is in [0, n)."""
    return (u * n).astype(np.int64)


def rollout(
    cfg: EnvConfig, episode_indices: Iterable[int], seed: int | None = None
) -> list[Episode]:
    """Generate the episodes with the given indices under the data-collection
    policy, all of them stepped together.

    Episode i takes k = d_o + 1 + T * (1 + d_s) uniforms in one draw from
    stream (seed, "episode", i). In order they give the initial observed
    values (floor(u * l) each), the reward target tau (floor(u * l)), and per
    step the action index (floor(u * (d_o + 1)) into `action_options`)
    followed by d_s noise uniforms. The hidden factors start at 0. So an
    episode depends on (seed, i) alone, not on which other episodes are
    generated or in what order.
    """
    seed = cfg.seed if seed is None else seed
    T, d_o, d_s = cfg.horizon, cfg.d_o, cfg.d_s
    obs_idx, hid_idx = cfg.observed_indices, cfg.hidden_indices
    k = d_o + 1 + T * (1 + d_s)
    u = stream_uniforms((seed, "episode"), episode_indices, k)
    n = u.shape[0]

    per_step = u[:, d_o + 1 :].reshape(n, T, 1 + d_s)
    a = action_options(cfg)[_uniform_index(per_step[..., 0], d_o + 1)]  # (n, T, d_s)
    eps = _noise_from_uniform(cfg, per_step[..., 1:])  # (n, T, d_s)
    tau = _uniform_index(u[:, d_o], cfg.l)

    s = np.empty((n, T + 1, d_s), dtype=np.int64)
    s[:, 0, obs_idx] = _uniform_index(u[:, :d_o], cfg.l)
    s[:, 0, hid_idx] = 0
    for t in range(T):
        s[:, t + 1] = step(s[:, t], a[:, t], eps[:, t], cfg)
    o = s.take(obs_idx, axis=2)  # take, not s[:, :, obs_idx]: keeps each o[i] C-contiguous
    h = s.take(hid_idx, axis=2)
    r = reward(h[:, 1:], tau[:, None], cfg)
    return [
        Episode(o=o[i], a=a[i], tau=tau_i, r=r[i], gt_h=h[i], gt_eps=eps[i])
        for i, tau_i in enumerate(tau.tolist())
    ]


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


def enumerate_states(cfg: EnvConfig, max_states: int = 10**6) -> np.ndarray:
    """All l**d_s states as an (l**d_s, d_s) array, the last factor varying
    fastest; refuses a state space larger than `max_states`."""
    n = cfg.l**cfg.d_s
    if n > max_states:
        raise ValueError(f"state space too large to enumerate: {n} > {max_states}")
    grids = np.meshgrid(*[np.arange(cfg.l)] * cfg.d_s, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, cfg.d_s)


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
    digits = enumerate_states(cfg, max_states)
    n_states = len(digits)
    failures: list[str] = []
    g = ground_truth_graph(cfg)
    obs = cfg.observed_indices
    p1_ok = True
    for i in cfg.hidden_indices:
        if not g[i, obs].any():
            p1_ok = False
            failures.append(f"P1: hidden factor {i} has no observed child")

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
