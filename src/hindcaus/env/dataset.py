"""Dataset files and batch assembly.

A dataset file is one `fileio` array record: version 5, dtype "<i8", header
fields "config", "gt_graph" and "config_hash", and the arrays o, a, tau, r,
gt_h, gt_eps in that order, each the stacked field of all n episodes:
o (n, T+1, d_o), a (n, T, d_s), tau (n,), r (n, T), gt_h (n, T+1, d_h),
gt_eps (n, T, d_s). `fileio`'s module docstring describes the layout and
the record-level checks. Round-trips are bit-exact. Loading also checks the
config, the config's hash, gt_graph against the config's graph, that the
arrays are those fields of one n shaped as the config says, each field's
value range, and that each action is one the data-collection policy can
take. A refusal names the file, the field and, for a value, the first bad
episode. Saving runs the same value and action checks (`_check_values`) on
the stacked fields, and refuses a gt_graph other than the config's graph,
before anything is written: a file that saves also loads.

Neither direction copies the episode data twice. A save stacks each field
once, for the checks, and writes those arrays; a load's episode arrays are
views of the one payload array that `fileio.read_arrays` reads.

Older versions are refused by their version; `generate_dataset` makes the
same episodes again from the config and the seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..fileio import read_arrays, write_arrays
from ..numcore.checks import _is_int
from .config import EnvConfig, config_hash
from .modulo import Episode, action_allowed, ground_truth_graph, rollout

__all__ = ["Dataset", "TrainBatch", "generate_dataset", "save_dataset", "load_dataset", "stack_episodes"]

DATASET_VERSION = 5
HEADER_FIELDS = ("version", "config", "gt_graph", "config_hash")


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


def _stacked(arrays: tuple[np.ndarray, ...], name: str) -> np.ndarray:
    """One field of every episode stacked along a new first axis by one
    `np.array` call, which gives `np.stack`'s dtype, shape and C order; a
    field whose shape differs between episodes raises `ValueError`."""
    try:
        return np.array(arrays)
    except ValueError:
        shape = arrays[0].shape
        bad = [i for i, x in enumerate(arrays) if x.shape != shape]
        if not bad:
            raise
        raise ValueError(
            f"cannot stack episodes: field {name!r} of episode {bad[0]} has shape "
            f"{arrays[bad[0]].shape}, episode 0 has {shape}"
        ) from None


def stack_episodes(episodes: list[Episode]) -> TrainBatch:
    """The learner's view of a non-empty list of episodes, each field one
    (B, ...) array."""
    if not episodes:
        raise ValueError("cannot stack episodes: the list is empty")
    o, a, tau, r = zip(*[(e.o, e.a, e.tau, e.r) for e in episodes])
    return TrainBatch(
        o=_stacked(o, "o"),
        a=_stacked(a, "a"),
        tau=np.array(tau, dtype=np.int64),
        r=_stacked(r, "r"),
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


def _check_values(cfg: EnvConfig, fields: dict[str, np.ndarray], where: str) -> None:
    """Refuse a value outside its field's range, or an action the policy cannot
    take, in the (n, ...) stacked `fields`, naming the field and the episode."""
    for name, (shape, low, high) in _field_spec(cfg).items():
        bad = np.flatnonzero((fields[name] < low) | (fields[name] >= high))
        if bad.size:
            raise ValueError(
                f"{where}: field {name!r} of episode {bad[0] // math.prod(shape)} has values "
                f"outside [{low}, {high})"
            )
    allowed = action_allowed(cfg, fields["a"].reshape(-1, cfg.d_s))
    if not allowed.all():
        raise ValueError(
            f"{where}: field 'a' of episode {np.argmin(allowed) // cfg.horizon} has a row that "
            f"is neither a no-op nor a single intervention on an observed factor "
            f"{cfg.observed_indices}"
        )


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write `ds` to `path` in one `write_arrays` call, so an interrupted save
    leaves the old file; what `load_dataset` would refuse is refused first."""
    path = Path(path)
    where = f"cannot save dataset to {path}"
    gt_graph = ground_truth_graph(ds.config)
    if not np.array_equal(ds.gt_graph, gt_graph):
        raise ValueError(f"{where}: field 'gt_graph' is not the graph of its config")
    fields = {}
    for name, (shape, _, _) in _field_spec(ds.config).items():
        arrays = [np.asarray(getattr(e, name)) for e in ds.episodes]
        bad = [i for i, v in enumerate(arrays) if v.shape != shape or v.dtype.kind != "i"]
        if bad:
            raise ValueError(
                f"{where}: field {name!r} of episode {bad[0]} is not an integer array of "
                f"shape {shape}"
            )
        fields[name] = np.array(arrays, dtype="<i8").reshape(len(arrays), *shape)
    _check_values(ds.config, fields, where)
    header = {
        "version": DATASET_VERSION,
        "config": asdict(ds.config),
        "gt_graph": gt_graph.tolist(),
        "config_hash": ds.config_hash,
    }
    write_arrays(path, header, fields, "<i8")


def load_dataset(path: str | Path) -> Dataset:
    """Read a file that `save_dataset` wrote, checked as the module
    docstring says; a refusal is a `ValueError`."""
    path = Path(path)
    header, fields = read_arrays(path, DATASET_VERSION, HEADER_FIELDS, "<i8")
    try:
        cfg = EnvConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path} line 1: field 'config' is not a valid EnvConfig "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if header.get("config_hash") != config_hash(cfg):
        raise ValueError(f"{path} line 1: field 'config_hash' does not match its config")
    gt_graph = ground_truth_graph(cfg)
    if header.get("gt_graph") != gt_graph.tolist():
        raise ValueError(f"{path} line 1: field 'gt_graph' does not match the graph of its config")
    n = header["arrays"][0][1][:1] if header["arrays"] else []  # [n], or [] if o has no axis
    want = [[name, [*n, *shape]] for name, (shape, _, _) in _field_spec(cfg).items()]
    if header["arrays"] != want:
        raise ValueError(f"{path} line 1: field 'arrays' is {header['arrays']}, expected {want}")
    _check_values(cfg, fields, str(path))
    fields["tau"] = fields["tau"].tolist()  # Python ints, as `rollout` gives them
    episodes = [
        Episode(o=o, a=a, tau=tau, r=r, gt_h=gt_h, gt_eps=gt_eps)
        for o, a, tau, r, gt_h, gt_eps in zip(*fields.values())
    ]
    return Dataset(config=cfg, episodes=episodes, gt_graph=gt_graph)
