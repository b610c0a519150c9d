"""Named parameter storage, target-copy sync, and binary checkpoints."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..fileio import write_atomic
from ..numcore.random import stream
from ..numcore.tensor import Tensor

__all__ = ["ParameterStore", "ParamFactory", "save_checkpoint", "load_checkpoint"]

GROUPS = ("theta_o", "theta_h", "phi", "phi_bar", "psi")
CHECKPOINT_VERSION = 3


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
        mine = self.tensors()
        for name, t in mine.items():
            if name not in arrays:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            arr = arrays[name]
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"checkpoint tensor {name!r} has shape {arr.shape}, expected {t.data.shape}"
                )
            np.copyto(t.data, arr)
        extra = set(arrays) - set(mine)
        if extra:
            raise ValueError(f"checkpoint carries unknown tensors: {sorted(extra)[:3]}")


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
    """Write a flat little-endian float64 tensors.bin, then manifest.json.

    Each file goes through `write_atomic`, and the manifest records the
    blob's sha256. A save cut off between the two files leaves a new blob
    beside the old manifest, which `load_checkpoint` refuses.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    arrays = {name: t.data for name, t in store.tensors().items()}
    if extra_arrays:
        overlap = set(arrays) & set(extra_arrays)
        if overlap:
            raise ValueError(f"extra_arrays collide with store tensors: {sorted(overlap)[:3]}")
        arrays.update(extra_arrays)
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "count": arr.size})
        blobs.append(arr.tobytes())
        offset += arr.size
    blob = b"".join(blobs)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "step": step,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "tensors": entries,
        "extras": extras or {},
    }
    write_atomic(path / "tensors.bin", blob)
    write_atomic(path / "manifest.json", json.dumps(manifest, indent=1).encode("utf-8"))


def load_checkpoint(path: str | Path, expected_config_hash: str | None = None):
    """Read a checkpoint directory -> (arrays, step, extras)."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {manifest.get('version')} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    if expected_config_hash is not None and manifest["config_hash"] != expected_config_hash:
        raise ValueError(
            f"checkpoint config hash {manifest['config_hash']} does not match "
            f"expected {expected_config_hash}; refusing to load"
        )
    blob = path / "tensors.bin"
    raw = blob.read_bytes()
    expected = 8 * sum(e["count"] for e in manifest["tensors"])
    if len(raw) != expected:
        raise ValueError(f"{blob} holds {len(raw)} bytes, manifest expects {expected}")
    if hashlib.sha256(raw).hexdigest() != manifest["sha256"]:
        raise ValueError(f"{blob} does not match the sha256 its manifest records (torn save?)")
    flat = np.frombuffer(raw, dtype="<f8")
    arrays = {}
    for e in manifest["tensors"]:
        chunk = flat[e["offset"] : e["offset"] + e["count"]]
        arrays[e["name"]] = chunk.reshape(e["shape"]).astype(np.float64)
    return arrays, manifest["step"], manifest.get("extras", {})
