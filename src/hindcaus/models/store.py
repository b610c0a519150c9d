"""Named parameter storage, target-copy sync, and binary checkpoints.

A checkpoint is a directory holding one `fileio` array record,
checkpoint.bin: version 5, dtype "<f8", header fields "config_hash",
"step" and "extras", and one array per tensor in name order. `fileio`'s
module docstring describes the layout. A save that fails or is cut off
leaves the previous checkpoint.bin as it was. Every value is finite, as a
`Tensor` holds it: `save_checkpoint` refuses a non-finite tensor before it
writes, and `load_checkpoint` after it reads. The checkpoint stays a
directory so that its path, and what lists its files (perfbench counts
their bytes), keep working.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..fileio import read_arrays, write_arrays
from ..numcore.checks import _is_count, _is_int
from ..numcore.random import stream
from ..numcore.tensor import Tensor

__all__ = ["ParameterStore", "ParamFactory", "save_checkpoint", "load_checkpoint"]

GROUPS = ("theta_o", "theta_h", "phi", "phi_bar", "psi")
CHECKPOINT_VERSION = 5
CHECKPOINT_FILE = "checkpoint.bin"
HEADER_FIELDS = ("version", "config_hash", "step", "extras")


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
        left for their own loaders. Every entry is checked, for its shape and
        for finite values, before any is copied, so a refused load changes
        nothing."""
        mine = self.tensors()
        for name, t in mine.items():
            if name not in arrays:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            shape = np.shape(arrays[name])
            if shape != t.data.shape:
                raise ValueError(
                    f"checkpoint tensor {name!r} has shape {shape}, expected {t.data.shape}"
                )
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"checkpoint tensor {name!r} holds a non-finite value")
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
    """Write `path`/checkpoint.bin as the module docstring says. An argument
    the header cannot hold, or a tensor with a non-finite value, raises a
    `ValueError` naming it, before any write."""
    if not (_is_int(step) and step >= 0):
        raise ValueError(f"save_checkpoint: step must be an integer >= 0, got {step!r}")
    if not isinstance(config_hash, str):
        raise ValueError(f"save_checkpoint: config_hash must be a string, got {config_hash!r}")
    if extras is not None and not isinstance(extras, dict):
        raise ValueError(f"save_checkpoint: extras must be a dict, got {extras!r}")
    arrays = {name: t.data for name, t in store.tensors().items()}
    overlap = set(arrays) & set(extra_arrays or {})
    if overlap:
        raise ValueError(f"extra_arrays collide with store tensors: {sorted(overlap)[:3]}")
    arrays = dict(sorted({**arrays, **(extra_arrays or {})}.items()))
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"save_checkpoint: tensor {name!r} holds a non-finite value")
    header = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "step": int(step),
        "extras": extras or {},
    }
    Path(path).mkdir(parents=True, exist_ok=True)
    write_arrays(Path(path) / CHECKPOINT_FILE, header, arrays, "<f8")


def load_checkpoint(path: str | Path, expected_config_hash: str | None = None):
    """Read a checkpoint directory -> (arrays, step, extras), the arrays
    those `fileio.read_arrays` returns. A header or a payload that does not
    hold what the module docstring says raises a `ValueError` that names
    checkpoint.bin and the field, or the tensor."""
    file = Path(path) / CHECKPOINT_FILE
    header, arrays = read_arrays(file, CHECKPOINT_VERSION, HEADER_FIELDS, "<f8")
    where = f"{file} line 1: field"
    for field, ok, expected in (
        ("step", _is_count, "an integer >= 0"),
        ("config_hash", lambda v: isinstance(v, str), "a string"),
        ("extras", lambda v: isinstance(v, dict), "a JSON object"),
    ):
        if field not in header:
            raise ValueError(f"{where} {field!r} is missing")
        if not ok(header[field]):
            raise ValueError(f"{where} {field!r} is {header[field]!r}, expected {expected}")
    got = header["config_hash"]
    if expected_config_hash is not None and got != expected_config_hash:
        raise ValueError(f"{where} 'config_hash' is {got}, expected {expected_config_hash}")
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{file}: tensor {name!r} holds a non-finite value")
    return arrays, header["step"], header["extras"]
