"""Dataset files and batch assembly.

A version-4 file is one JSON header line {"version": 4, "config": {...},
"gt_graph": [[...]], "config_hash": "...", "episodes": n} followed by the
fields o, a, tau, r, gt_h, gt_eps, each one block of all n episodes' values
in little-endian int64, shaped as the config says: o (n, T+1, d_o),
a (n, T, d_s), tau (n,), r (n, T), gt_h (n, T+1, d_h), gt_eps (n, T, d_s).
Round-trips are bit-exact. Loading checks the header (version, config, the
config's hash, gt_graph against the config's graph, episode count), that the
blocks hold exactly n episodes, each field's value range, and that each
action is one the data-collection policy can take. A refusal names the
file, the field and, for a value, the first bad episode.

Version 3 stored the same episodes as one JSON line each. This reader cannot
parse that layout, so it refuses version 3 by its version; `generate_dataset`
makes the same episodes again from the config and the seed. Version 3 had
dropped config fields of version 2, whose batched `rollout` replaced version
1's step-by-step draws. Older versions are refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..fileio import write_atomic
from .config import EnvConfig, _is_int, config_hash
from .modulo import Episode, action_allowed, ground_truth_graph, rollout

__all__ = ["Dataset", "TrainBatch", "generate_dataset", "save_dataset", "load_dataset", "stack_episodes"]

DATASET_VERSION = 4


@dataclass
class Dataset:
    config: EnvConfig
    episodes: list[Episode]
    gt_graph: np.ndarray

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def __len__(self) -> int:
        return len(self.episodes)


@dataclass
class TrainBatch:
    """Learner-visible view of a batch: ground-truth fields are absent by
    construction, so training code cannot read them."""

    o: np.ndarray  # (B, T+1, d_o)
    a: np.ndarray  # (B, T, d_s)
    tau: np.ndarray  # (B,)
    r: np.ndarray  # (B, T)

    @property
    def size(self) -> int:
        return self.o.shape[0]

    @property
    def horizon(self) -> int:
        return self.a.shape[1]


def stack_episodes(episodes: list[Episode]) -> TrainBatch:
    return TrainBatch(
        o=np.stack([e.o for e in episodes]),
        a=np.stack([e.a for e in episodes]),
        tau=np.array([e.tau for e in episodes], dtype=np.int64),
        r=np.stack([e.r for e in episodes]),
    )


def generate_dataset(cfg: EnvConfig, n_episodes: int, seed: int | None = None) -> Dataset:
    """Roll out `n_episodes` episodes in memory with one batched `rollout`
    call; `save_dataset` writes them.

    Episode i always comes from stream (seed, "episode", i), so it is
    identical for any `n_episodes` greater than i.
    """
    if not _is_int(n_episodes) or n_episodes <= 0:
        raise ValueError(f"n_episodes must be a positive integer, got {n_episodes!r}")
    episodes = rollout(cfg, range(n_episodes), seed=seed)
    return Dataset(config=cfg, episodes=episodes, gt_graph=ground_truth_graph(cfg))


def _field_spec(cfg: EnvConfig) -> dict[str, tuple[tuple[int, ...], int, int]]:
    """Each field's shape in one episode and its value range [low, high),
    in file order."""
    T, l = cfg.horizon, cfg.l
    return {
        "o": ((T + 1, cfg.d_o), 0, l),
        "a": ((T, cfg.d_s), 0, 2),
        "tau": ((), 0, l),
        "r": ((T,), 0, 2),
        "gt_h": ((T + 1, cfg.d_h), 0, l),
        "gt_eps": ((T, cfg.d_s), -1, 2),
    }


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write the dataset file through `write_atomic`: an interrupted save
    leaves the previous file at `path` as it was. The file keeps only values,
    so every field of every episode must be an integer array of its shape."""
    path = Path(path)
    header = {
        "version": DATASET_VERSION,
        "config": ds.config.to_dict(),
        "gt_graph": ds.gt_graph.tolist(),
        "config_hash": ds.config_hash,
        "episodes": len(ds),
    }
    blocks = []
    for name, (shape, _, _) in _field_spec(ds.config).items():
        arrays = [np.asarray(getattr(e, name)) for e in ds.episodes]
        bad = [i for i, v in enumerate(arrays) if v.shape != shape or v.dtype.kind != "i"]
        if bad:
            raise ValueError(
                f"cannot save dataset to {path}: field {name!r} of episode {bad[0]} is not "
                f"an integer array of shape {shape}"
            )
        blocks.append(np.array(arrays, dtype="<i8").tobytes())
    data = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + b"".join(blocks)
    try:
        write_atomic(path, data)
    except OSError as exc:
        raise OSError(f"cannot write dataset to {path}: {exc}") from exc


def _header_config(header, path: Path) -> EnvConfig:
    """The config of a parsed header line. Anything that is not a header
    object of this version holding a valid config raises a `ValueError` that
    names the file, line 1 and the field."""
    if not isinstance(header, dict):
        raise ValueError(
            f"{path} line 1: header is a JSON {type(header).__name__}, "
            "expected an object with fields 'version' and 'config'"
        )
    if header.get("version") != DATASET_VERSION:
        raise ValueError(
            f"{path} line 1: field 'version' is {header.get('version')!r}, "
            f"this build reads dataset version {DATASET_VERSION} only"
        )
    try:
        return EnvConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path} line 1: field 'config' is not a valid EnvConfig "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def load_dataset(path: str | Path) -> Dataset:
    """Read a file that `save_dataset` wrote, checked as the module
    docstring says; a refusal is a `ValueError`."""
    path = Path(path)
    head, _, blob = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{path} line 1: header is not valid JSON ({exc})") from None
    cfg = _header_config(header, path)
    if header.get("config_hash") != config_hash(cfg):
        raise ValueError(f"{path} line 1: field 'config_hash' does not match its config")
    gt_graph = ground_truth_graph(cfg)
    if header.get("gt_graph") != gt_graph.tolist():
        raise ValueError(f"{path} line 1: field 'gt_graph' does not match the graph of its config")
    n = header.get("episodes")
    if type(n) is not int or n < 0:  # refuses a bool too
        raise ValueError(f"{path} line 1: field 'episodes' is {n!r}, expected a count")
    spec = _field_spec(cfg)
    sizes = [math.prod(shape) for shape, _, _ in spec.values()]
    if len(blob) != 8 * n * sum(sizes):
        raise ValueError(
            f"{path}: {len(blob)} bytes of episode data after the header, expected "
            f"{8 * n * sum(sizes)} for {n} episodes of {sum(sizes)} int64 values each"
        )
    values = np.frombuffer(blob, dtype="<i8").astype(np.int64)  # a writable copy
    fields, start = {}, 0
    for (name, (shape, low, high)), size in zip(spec.items(), sizes):
        block = values[start : start + n * size]
        start += n * size
        bad = np.flatnonzero((block < low) | (block >= high))
        if bad.size:
            raise ValueError(
                f"{path}: field {name!r} of episode {bad[0] // size} has values "
                f"outside [{low}, {high})"
            )
        fields[name] = block.reshape(n, *shape)
    allowed = action_allowed(cfg, fields["a"].reshape(-1, cfg.d_s))
    if not allowed.all():
        raise ValueError(
            f"{path}: field 'a' of episode {np.argmin(allowed) // cfg.horizon} has a row that "
            f"is neither a no-op nor a single intervention on an observed factor "
            f"{cfg.observed_indices}"
        )
    fields["tau"] = fields["tau"].tolist()  # Python ints, as `rollout` gives them
    episodes = [
        Episode(o=o, a=a, tau=tau, r=r, gt_h=gt_h, gt_eps=gt_eps)
        for o, a, tau, r, gt_h, gt_eps in zip(*fields.values())
    ]
    return Dataset(config=cfg, episodes=episodes, gt_graph=gt_graph)
