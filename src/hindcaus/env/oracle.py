"""Exact-enumeration oracles for the modulo environment.

`TabularTransitionModel` is the exact per-factor conditional distribution of
the environment, with masked variants defined by uniform marginalization over
masked state factors (policy marginalization for the action node). `probs`
gives one target under one mask; `log_probs(s, a, masks)` stacks every
target under every mask of a (K, d_s+1) stack into the (d_s, K, n, l)
answer that `MaskedTransition.log_probs` gives, so `estimate_cmi` scores
either model. The enumeration CMI sums the information quantities over the
whole state space rather than estimating them from samples, so it is an
independent reference for the model-based estimator.
"""

from __future__ import annotations

import numpy as np

from .config import EnvConfig
from .modulo import action_options, check_rows, cmi_masks, enumerate_states

__all__ = ["TabularTransitionModel", "enumeration_cmi", "noise_entropy"]

_TINY = 1e-300


def noise_entropy(cfg: EnvConfig) -> float:
    """Entropy in nats of the configured per-factor noise law."""
    p = np.asarray(cfg.noise_probs, dtype=np.float64)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


class TabularTransitionModel:
    """Exact conditional distributions p(s'_j | inputs) of the modulo SCM."""

    def __init__(self, cfg: EnvConfig):
        self.env = cfg
        self.adj = cfg.adjacency_matrix()
        table = cfg.noise_table()
        # Per-factor residue distribution of the noise offset, length l.
        self.offset_probs = np.zeros((cfg.d_s, cfg.l), dtype=np.float64)
        for j in range(cfg.d_s):
            for e, p in zip((-1, 0, 1), table[j]):
                self.offset_probs[j, e % cfg.l] += p
        # Probability that the policy intervenes on a given factor.
        self.intervention_prob = np.zeros(cfg.d_s)
        self.intervention_prob[cfg.observed_indices] = 1.0 / (cfg.d_o + 1)

    def _base(self, j: int, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        return (s @ self.adj[j] + a[:, j]) % self.env.l

    def probs(self, j: int, s: np.ndarray, a: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """(n, l) distribution over the next value of factor j.

        `mask` is a keep-vector over the d_s factors plus the action node;
        masked true parents are marginalized uniformly, a masked action node
        is marginalized under the data-collection policy.
        """
        cfg = self.env
        s = np.atleast_2d(np.asarray(s, dtype=np.int64))
        a = np.atleast_2d(np.asarray(a, dtype=np.int64))
        l = cfg.l
        if mask is None:
            mask = np.ones(cfg.d_s + 1, dtype=bool)
        mask = np.asarray(mask, dtype=bool)

        masked_parents = [i for i in range(cfg.d_s) if not mask[i] and self.adj[j, i]]
        action_masked = not mask[cfg.d_s]

        base = self._base(j, s, a)
        idx = (np.arange(l)[None, :] - base[:, None]) % l
        q = self.offset_probs[j]
        if masked_parents:
            # Uniform marginalization over any true parent smears the offset
            # distribution to uniform (unit coefficients, gcd(1, l) = 1).
            return np.full((s.shape[0], l), 1.0 / l)
        if action_masked and self.intervention_prob[j] > 0:
            w = self.intervention_prob[j]
            base0 = (base - a[:, j]) % l
            idx0 = (np.arange(l)[None, :] - base0[:, None]) % l
            idx1 = (idx0 - 1) % l
            return (1.0 - w) * q[idx0] + w * q[idx1]
        return q[idx]

    def log_probs(self, s: np.ndarray, a: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(d_s, K, n, l) log-probabilities of every target's next value for
        n rows `s`, `a`, block [j, k] conditioned on keep-mask k of the
        (K, d_s+1) stack `masks`. `check_rows` refuses any row no dataset holds."""
        s, a = check_rows(self.env, s, a)
        return np.stack(
            [
                np.stack([np.log(np.maximum(self.probs(j, s, a, mask), _TINY)) for mask in masks])
                for j in range(self.env.d_s)
            ]
        )


def enumeration_cmi(cfg: EnvConfig, max_states: int = 10**6) -> np.ndarray:
    """Exact CMI matrix of the environment under uniform states and the
    data-collection policy, shape (d_s+1, d_s)."""
    model = TabularTransitionModel(cfg)
    states = enumerate_states(cfg, max_states=max_states)
    n = states.shape[0]
    opts = action_options(cfg)
    w_a = 1.0 / len(opts)
    loo_masks = cmi_masks(cfg)[1:]
    out = np.zeros((cfg.d_s + 1, cfg.d_s))
    for j in range(cfg.d_s):
        for a_vec in opts:
            a = np.broadcast_to(a_vec, states.shape)
            p_full = model.probs(j, states, a)
            log_full = np.log(np.maximum(p_full, _TINY))
            for i, mask in enumerate(loo_masks):
                p_masked = model.probs(j, states, a, mask)
                log_masked = np.log(np.maximum(p_masked, _TINY))
                terms = np.where(p_full > 0, p_full * (log_full - log_masked), 0.0)
                out[i, j] += w_a * terms.sum() / n
    return np.maximum(out, 0.0)
