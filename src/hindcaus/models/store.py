"""Named parameter storage, target-copy sync, and binary checkpoints.

A checkpoint is a directory holding one `fileio` record, checkpoint.bin: the
header line {"version": 4, "config_hash": ..., "step": k, "extras": {...},
"sha256": <the blob's>, "tensors": [[name, shape], ...]}, then each tensor's
values as little-endian float64 in that order, at the offset the sizes
before it sum to. `save_checkpoint` checks its arguments, then makes one
`write_atomic` call, so a save that fails or is cut off at any point leaves
the previous checkpoint.bin as it was: no state holds a new part beside an
old one. Only once that write succeeds does it remove the version-3 pair,
manifest.json and tensors.bin, where an older save left them. The
checkpoint stays a directory so that its path, and what lists its files
(perfbench counts their bytes), keep working.
"""

from __future__ import annotations

import hashlib
import math
from itertools import accumulate
from pathlib import Path

import numpy as np

from ..fileio import read_record, write_record
from ..numcore.checks import _is_count, _is_int
from ..numcore.random import stream
from ..numcore.tensor import Tensor

__all__ = ["ParameterStore", "ParamFactory", "save_checkpoint", "load_checkpoint"]

GROUPS = ("theta_o", "theta_h", "phi", "phi_bar", "psi")
CHECKPOINT_VERSION = 4
CHECKPOINT_FILE = "checkpoint.bin"
VERSION_3_FILES = ("manifest.json", "tensors.bin")  # superseded by checkpoint.bin
HEADER_FIELDS = ("version", "config_hash", "step", "extras", "sha256", "tensors")


class ParameterStore:
    """All learnable tensors, grouped by role.

    The `phi_bar` group is the stop-gradient copy of `phi`: it is created
    non-trainable, is never handed to the optimizer, and is refreshed from
    `phi` via `sync_target`.
    """

    def __init__(self):
        self.groups: dict[str, dict[str, Tensor]] = {g: {} for g in GROUPS}

    def add(self, group: str, name: str, array: np.ndarray) -> Tensor:
        if group not in self.groups:
            raise KeyError(f"unknown parameter group {group!r}")
        if name in self.groups[group]:
            raise ValueError(f"duplicate parameter {group}/{name}")
        t = Tensor(
            np.array(array, dtype=np.float64),
            requires_grad=(group != "phi_bar"),
            name=f"{group}/{name}",
        )
        self.groups[group][name] = t
        return t

    def tensors(self) -> dict[str, Tensor]:
        return {
            f"{group}/{name}": t
            for group, members in self.groups.items()
            for name, t in members.items()
        }

    def trainable(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.tensors().items() if not name.startswith("phi_bar/")}

    def sync_target(self) -> None:
        """phi_bar <- phi, bit-exact."""
        phi = self.groups["phi"]
        bar = self.groups["phi_bar"]
        if set(phi) != set(bar):
            missing = set(phi).symmetric_difference(bar)
            raise ValueError(f"phi and phi_bar parameter names differ: {sorted(missing)}")
        for name, src in phi.items():
            np.copyto(bar[name].data, src.data)

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy `arrays` into the tensors of the same names. Names outside the
        store's groups, such as the `extra_arrays` of `save_checkpoint`, are
        left for their own loaders. Every entry is checked before any is
        copied, so a refused load changes nothing."""
        mine = self.tensors()
        for name, t in mine.items():
            if name not in arrays:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            shape = np.shape(arrays[name])
            if shape != t.data.shape:
                raise ValueError(
                    f"checkpoint tensor {name!r} has shape {shape}, expected {t.data.shape}"
                )
        extra = {name for name in arrays if name.split("/", 1)[0] in self.groups} - set(mine)
        if extra:
            raise ValueError(f"checkpoint carries unknown tensors: {sorted(extra)[:3]}")
        for name, t in mine.items():
            np.copyto(t.data, arrays[name])


class ParamFactory:
    """Creates named parameters in one group with seeded initialization."""

    def __init__(self, store: ParameterStore, group: str, seed: int):
        self.store = store
        self.group = group
        self.seed = seed

    def _rng(self, name: str) -> np.random.Generator:
        return stream(self.seed, "init", f"{self.group}/{name}")

    def glorot_draw(self, name: str, d_in: int, d_out: int) -> np.ndarray:
        """The seeded (d_in, d_out) glorot draw of `name`, not registered."""
        limit = np.sqrt(6.0 / (d_in + d_out))
        return self._rng(name).uniform(-limit, limit, size=(d_in, d_out))

    def glorot(self, name: str, d_in: int, d_out: int) -> Tensor:
        return self.add(name, self.glorot_draw(name, d_in, d_out))

    def zeros(self, name: str, shape) -> Tensor:
        return self.add(name, np.zeros(shape))

    def add(self, name: str, array: np.ndarray) -> Tensor:
        return self.store.add(self.group, name, array)


def save_checkpoint(
    store: ParameterStore,
    path: str | Path,
    *,
    config_hash: str,
    step: int,
    extras: dict | None = None,
    extra_arrays: dict[str, np.ndarray] | None = None,
) -> None:
    """Write `path`/checkpoint.bin and remove a version-3 pair beside it, as
    the module docstring says. An argument the header cannot hold raises a
    `ValueError` naming it, before any write."""
    if not (_is_int(step) and step >= 0):
        raise ValueError(f"save_checkpoint: step must be an integer >= 0, got {step!r}")
    if not isinstance(config_hash, str):
        raise ValueError(f"save_checkpoint: config_hash must be a string, got {config_hash!r}")
    if extras is not None and not isinstance(extras, dict):
        raise ValueError(f"save_checkpoint: extras must be a dict, got {extras!r}")
    arrays = {name: t.data for name, t in store.tensors().items()}
    if extra_arrays:
        overlap = set(arrays) & set(extra_arrays)
        if overlap:
            raise ValueError(f"extra_arrays collide with store tensors: {sorted(overlap)[:3]}")
        arrays.update(extra_arrays)
    names = sorted(arrays)
    flat = [np.ascontiguousarray(arrays[name], dtype="<f8") for name in names]
    blob = b"".join(a.tobytes() for a in flat)
    header = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "step": int(step),
        "extras": extras or {},
        "sha256": hashlib.sha256(blob).hexdigest(),
        "tensors": [[name, list(a.shape)] for name, a in zip(names, flat)],
    }
    Path(path).mkdir(parents=True, exist_ok=True)
    write_record(Path(path) / CHECKPOINT_FILE, header, blob)
    for name in VERSION_3_FILES:
        (Path(path) / name).unlink(missing_ok=True)


def load_checkpoint(path: str | Path, expected_config_hash: str | None = None):
    """Read a checkpoint directory -> (arrays, step, extras). A header or a
    blob that does not hold what the module docstring says raises a
    `ValueError` that names checkpoint.bin and the field."""
    file = Path(path) / CHECKPOINT_FILE
    header, blob = read_record(file, CHECKPOINT_VERSION, HEADER_FIELDS)
    where = f"{file} line 1: field"
    for field, ok, expected in (
        ("step", _is_count, "an integer >= 0"),
        ("config_hash", lambda v: isinstance(v, str), "a string"),
        ("extras", lambda v: isinstance(v, dict), "a JSON object"),
        ("sha256", lambda v: isinstance(v, str), "a string"),
        ("tensors", lambda v: isinstance(v, list), "a list"),
    ):
        if field not in header:
            raise ValueError(f"{where} {field!r} is missing")
        if not ok(header[field]):
            raise ValueError(f"{where} {field!r} is {header[field]!r}, expected {expected}")
    entry_of: dict[str, int] = {}
    for k, e in enumerate(header["tensors"]):
        name, shape = e if isinstance(e, list) and len(e) == 2 else (None, None)
        if not (isinstance(name, str) and isinstance(shape, list) and all(map(_is_count, shape))):
            raise ValueError(
                f"{where} 'tensors': entry {k} is {e!r}, expected a [name, shape] pair "
                "of a string and a list of integers >= 0"
            )
        if name in entry_of:
            raise ValueError(
                f"{where} 'tensors': entries {entry_of[name]} and {k} both name tensor {name!r}"
            )
        entry_of[name] = k
    got = header["config_hash"]
    if expected_config_hash is not None and got != expected_config_hash:
        raise ValueError(f"{where} 'config_hash' is {got}, expected {expected_config_hash}")
    ends = list(accumulate((math.prod(shape) for _, shape in header["tensors"]), initial=0))
    if len(blob) != 8 * ends[-1]:
        raise ValueError(
            f"{file}: {len(blob)} bytes after the header, field 'tensors' expects {8 * ends[-1]}"
        )
    if hashlib.sha256(blob).hexdigest() != header["sha256"]:
        raise ValueError(f"{file}: the bytes after the header do not match field 'sha256'")
    flat = np.frombuffer(blob, dtype="<f8")
    arrays = {
        name: flat[start:end].reshape(shape).astype(np.float64)
        for (name, shape), start, end in zip(header["tensors"], ends[:-1], ends[1:])
    }
    return arrays, header["step"], header["extras"]
