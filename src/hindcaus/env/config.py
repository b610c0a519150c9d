"""Environment configuration for the modulo factored-POMDP family."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..numcore.checks import _is_int, _is_real

__all__ = ["EnvConfig", "config_hash"]

GRAPH_KINDS = ("chain", "full")
NOISE_TARGETS = ("hidden", "observation")


@dataclass
class EnvConfig:
    """Full description of one modulo environment instance.

    Factors are indexed 0..d_s-1; `hidden_indices` selects the hidden ones and
    the rest are observed (in index order). Every hidden factor starts each
    episode at h_0 = 0. `graph_kind` is "chain" (factor j reads factors j-1
    and j) or "full" (factor j reads factors 0..j). `noise_probs` is the
    (p(-1), p(0), p(+1)) law applied to the factors that `noise_target`
    selects, the hidden or the observed ones; all other factors get zero
    noise.
    """

    d_s: int = 3
    l: int = 4
    graph_kind: str = "chain"
    hidden_indices: list[int] = field(default_factory=lambda: [1])
    noise_probs: list[float] = field(default_factory=lambda: [0.05, 0.9, 0.05])
    noise_target: str = "hidden"
    horizon: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("d_s", "l", "horizon", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.d_s < 2:
            raise ValueError(f"d_s must be >= 2, got {self.d_s}")
        if self.l < 2:
            raise ValueError(f"l must be >= 2, got {self.l}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.graph_kind not in GRAPH_KINDS:
            raise ValueError(f"graph_kind must be one of {GRAPH_KINDS}, got {self.graph_kind!r}")
        if self.noise_target not in NOISE_TARGETS:
            raise ValueError(
                f"noise_target must be one of {NOISE_TARGETS}, got {self.noise_target!r}"
            )
        if not all(_is_int(i) for i in self.hidden_indices):
            raise ValueError(f"hidden_indices must be integers, got {self.hidden_indices!r}")
        self.hidden_indices = sorted(int(i) for i in self.hidden_indices)
        if len(set(self.hidden_indices)) != len(self.hidden_indices):
            raise ValueError("hidden_indices must be unique")
        if not self.hidden_indices:
            raise ValueError("hidden_indices must name at least one hidden factor")
        if self.hidden_indices[0] < 0 or self.hidden_indices[-1] >= self.d_s:
            raise ValueError(f"hidden_indices out of range for d_s={self.d_s}")
        if len(self.hidden_indices) >= self.d_s:
            raise ValueError("at least one factor must stay observed")
        if len(self.noise_probs) != 3:
            raise ValueError("noise_probs must be (p(-1), p(0), p(+1))")
        if not all(_is_real(p) for p in self.noise_probs):
            raise ValueError(f"noise_probs must be real numbers, got {self.noise_probs!r}")
        probs = np.asarray(self.noise_probs, dtype=np.float64)
        if not (probs.min() >= 0 and abs(probs.sum() - 1.0) <= 1e-9):  # also refuses NaN
            raise ValueError(f"noise_probs must be a distribution, got {self.noise_probs}")

    # -- derived structure ------------------------------------------------

    @property
    def d_h(self) -> int:
        return len(self.hidden_indices)

    @property
    def d_o(self) -> int:
        return self.d_s - self.d_h

    @property
    def observed_indices(self) -> list[int]:
        hidden = set(self.hidden_indices)
        return [i for i in range(self.d_s) if i not in hidden]

    def adjacency_matrix(self) -> np.ndarray:
        """Row j lists the factors read by factor j's update equation."""
        if self.graph_kind == "full":
            return np.tril(np.ones((self.d_s, self.d_s), dtype=np.int64))
        a = np.eye(self.d_s, dtype=np.int64)
        for j in range(1, self.d_s):
            a[j, j - 1] = 1
        return a

    def noise_table(self) -> np.ndarray:
        """Per-factor (p(-1), p(0), p(+1)) rows."""
        noisy = self.hidden_indices if self.noise_target == "hidden" else self.observed_indices
        table = np.tile([0.0, 1.0, 0.0], (self.d_s, 1))
        table[noisy] = np.asarray(self.noise_probs, dtype=np.float64)
        return table

    # -- constructors --------------------------------------------------------

    @classmethod
    def chain(cls, d_s: int = 3, **kwargs) -> "EnvConfig":
        """Chain graph with one hidden factor mid-chain unless overridden."""
        kwargs.setdefault("hidden_indices", [(d_s - 1) // 2])
        return cls(d_s=d_s, graph_kind="chain", **kwargs)

    @classmethod
    def full(cls, d_s: int = 5, **kwargs) -> "EnvConfig":
        kwargs.setdefault("hidden_indices", [(d_s - 1) // 2])
        return cls(d_s=d_s, graph_kind="full", **kwargs)


def config_hash(cfg: EnvConfig) -> str:
    """Stable short hash of the full environment description."""
    blob = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
