"""The array record that dataset and checkpoint files share: what
`fileio.read_arrays` refuses, pinned through both loaders."""

import json

import pytest

from conftest import _read, _write
from hindcaus.env import generate_dataset, load_dataset, save_dataset
from hindcaus.models import build_models, load_checkpoint, save_checkpoint
from test_env import chain3


def _dataset(tmp_path):
    path = tmp_path / "data.bin"
    save_dataset(generate_dataset(chain3(), 4, seed=1), path)
    return path, lambda: load_dataset(path)


def _checkpoint(tmp_path):
    bundle = build_models(chain3(), "dvae_full", seed=0)
    save_checkpoint(bundle.store, tmp_path / "ckpt", config_hash="h", step=1)
    return tmp_path / "ckpt" / "checkpoint.bin", lambda: load_checkpoint(tmp_path / "ckpt")


def _header(edit):
    """Apply `edit` to the header; `_write` gives it the payload's sha256."""

    def apply(path):
        header, blob = _read(path)
        edit(header)
        _write(path, header, blob)

    return apply


def _version(value):
    return _header(lambda header: header.update(version=value))


def _drop_arrays(header):
    del header["arrays"]


def _negative_dim(header):
    header["arrays"][1][1][0] = -1


def _duplicate_name(header):
    header["arrays"][1][0] = header["arrays"][0][0]


def _sha256_not_string(path):
    header, blob = _read(path)
    path.write_bytes(json.dumps({**header, "sha256": 5}).encode("utf-8") + b"\n" + blob)


def _extra_byte(path):
    header, blob = _read(path)
    _write(path, header, blob + b"\0")


def _flip_first_payload_bit(path):
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 1] ^= 0x01  # same size, so only the digest can tell
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "edit, refusal",
    [
        (_version(4), "line 1: field 'version' is 4, this build reads version 5 only"),
        (_version(6), "line 1: field 'version' is 6, this build reads version 5 only"),
        (_header(_drop_arrays), "line 1: field 'arrays' is None, expected a list"),
        (_header(_negative_dim), "line 1: field 'arrays': entry 1 is ["),
        (_header(_duplicate_name), "line 1: field 'arrays': entries 0 and 1 both name "),
        (_sha256_not_string, "line 1: field 'sha256' is 5, expected a string"),
        (_extra_byte, " bytes after the header, expected "),
        (_flip_first_payload_bit, ": the bytes after the header do not match field 'sha256'"),
    ],
    ids=[
        "version_4",
        "version_6",
        "no_arrays",
        "negative_dim",
        "duplicate_name",
        "sha256_not_string",
        "extra_byte",
        "flipped_bit",
    ],
)
@pytest.mark.parametrize("save", [_dataset, _checkpoint], ids=["dataset", "checkpoint"])
def test_record_refusal_names_the_file_and_the_field(tmp_path, save, edit, refusal):
    path, load = save(tmp_path)
    edit(path)
    with pytest.raises(ValueError) as exc:
        load()
    msg = str(exc.value)
    assert msg.startswith(str(path)) and refusal in msg
