"""JSON-lines dataset serialization and batch assembly.

File layout: line 1 is a header {"version": 1, "config": {...}, "gt_graph":
[[...]], "config_hash": "..."}; every further line is one episode with integer
fields o, a, tau, r, gt_h, gt_eps. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import EnvConfig, config_hash
from .modulo import Episode, ground_truth_graph, rollout

__all__ = ["Dataset", "TrainBatch", "generate_dataset", "save_dataset", "load_dataset", "stack_episodes"]

DATASET_VERSION = 1


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


def _episode_to_record(e: Episode) -> dict:
    return {
        "o": e.o.tolist(),
        "a": e.a.tolist(),
        "tau": int(e.tau),
        "r": e.r.tolist(),
        "gt_h": e.gt_h.tolist(),
        "gt_eps": e.gt_eps.tolist(),
    }


def _parse_episodes(records: list[tuple[int, dict]], cfg: EnvConfig, path: Path) -> list[Episode]:
    """Episodes from (line number, parsed line) pairs. Each field must be an
    integer array of the shape and value range the header config implies; a
    `ValueError` names the file, the line and the field that is not."""
    T, l = cfg.horizon, cfg.l
    spec = {  # field: (shape, low, high), values in [low, high)
        "o": ((T + 1, cfg.d_o), 0, l),
        "a": ((T, cfg.d_s), 0, 2),
        "tau": ((), 0, l),
        "r": ((T,), 0, 2),
        "gt_h": ((T + 1, cfg.d_h), 0, l),
        "gt_eps": ((T, cfg.d_s), -1, 2),
    }
    columns: dict[str, list[np.ndarray]] = {name: [] for name in spec}
    for n, d in records:
        for name, (shape, _, _) in spec.items():
            try:
                arr = np.asarray(d[name])
                integer = arr.dtype == np.int64
            except (KeyError, TypeError, ValueError):  # not a dict, no such field, ragged
                integer = False
            if not integer or arr.shape != shape:
                got = f"shape {arr.shape}" if integer else "no integer array"
                raise ValueError(f"{path} line {n}: field {name!r} has {got}, expected shape {shape}")
            columns[name].append(arr)
    if not records:
        return []
    # Ranges are checked per field over the whole file, which is cheaper than
    # per line: every line's field has the same size, so the index of the
    # first bad value gives its line.
    for name, (shape, low, high) in spec.items():
        values = np.concatenate(columns[name], axis=None)
        bad = np.flatnonzero((values < low) | (values >= high))
        if bad.size:
            n = records[bad[0] // math.prod(shape)][0]
            raise ValueError(f"{path} line {n}: field {name!r} has values outside [{low}, {high})")
    return [
        Episode(o=o, a=a, tau=int(tau), r=r, gt_h=gt_h, gt_eps=gt_eps)
        for o, a, tau, r, gt_h, gt_eps in zip(*columns.values())
    ]


def generate_dataset(cfg: EnvConfig, n_episodes: int, seed: int | None = None) -> Dataset:
    """Roll out `n_episodes` episodes in memory; `save_dataset` writes them.

    Episode i always comes from stream (seed, "episode", i), so it is
    identical for any `n_episodes` greater than i.
    """
    if n_episodes <= 0:
        raise ValueError(f"n_episodes must be positive, got {n_episodes}")
    seed = cfg.seed if seed is None else seed
    episodes = [rollout(cfg, i, seed=seed) for i in range(n_episodes)]
    return Dataset(config=cfg, episodes=episodes, gt_graph=ground_truth_graph(cfg))


def save_dataset(ds: Dataset, path: str | Path) -> None:
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as fh:
            header = {
                "version": DATASET_VERSION,
                "config": ds.config.to_dict(),
                "gt_graph": ds.gt_graph.tolist(),
                "config_hash": ds.config_hash,
            }
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            for e in ds.episodes:
                fh.write(json.dumps(_episode_to_record(e), separators=(",", ":")) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write dataset to {path}: {exc}") from exc


def load_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("version") != DATASET_VERSION:
            raise ValueError(f"unsupported dataset version in {path}: {header.get('version')}")
        cfg = EnvConfig.from_dict(header["config"])
        if header.get("config_hash") != config_hash(cfg):
            raise ValueError(f"dataset header hash mismatch in {path}")
        records = [(n, json.loads(line)) for n, line in enumerate(fh, start=2) if line.strip()]
    episodes = _parse_episodes(records, cfg, path)
    return Dataset(config=cfg, episodes=episodes, gt_graph=np.asarray(header["gt_graph"], dtype=np.int64))
