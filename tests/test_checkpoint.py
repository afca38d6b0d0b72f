"""The file container behind checkpoints, datasets and worlds: bit-exact
round-trips, equal bytes for equal inputs, and each loader's own typed error
for a corrupt, truncated, foreign or malformed file."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from depthnav.container import load_arrays, read_meta, save_arrays
from depthnav.cpn import CollisionPredictor, CpnConfig
from depthnav.data import FrameSet, dataset_info, load_dataset, save_dataset
from depthnav.errors import CheckpointError, DatasetError, WorldError
from depthnav.vae import SemanticVae, VaeConfig
from depthnav.world import World, load_world, save_world


def _arrays(rng):
    return {
        "enc0.weight": rng.standard_normal((8, 1, 3, 3)).astype(np.float32),
        "enc0.bias": rng.standard_normal(8).astype(np.float32),
        "cylinders": rng.standard_normal((3, 5)),
        "valid": (rng.random((2, 4, 3)) > 0.5).astype(np.uint8),
        "seg": rng.integers(0, 9, (2, 4, 3)).astype(np.uint16),
        "boxes": np.zeros((0, 7)),
    }


def test_round_trip_is_bit_exact(tmp_path):
    arrays = _arrays(np.random.default_rng(0))
    arrays["enc0.bias"][0] = -0.0
    meta = {"kind": "sevae", "config": {"latent_dim": 4, "image_hw": [60, 80]},
            "bounds": [0.1, 1e-300, -2.5, 45.0]}
    path = tmp_path / "a.ckpt"
    save_arrays(path, arrays, meta)
    meta2, loaded = load_arrays(path, CheckpointError)
    assert meta2 == meta and read_meta(path, CheckpointError) == meta
    assert list(loaded) == list(arrays)
    for name, array in arrays.items():
        assert loaded[name].dtype == array.dtype and loaded[name].shape == array.shape
        assert loaded[name].tobytes() == array.tobytes()
    # saving the loaded copy reproduces the file byte-for-byte
    path2 = tmp_path / "b.ckpt"
    save_arrays(path2, loaded, meta2)
    assert path.read_bytes() == path2.read_bytes()


def test_crc_corruption_detected(tmp_path):
    path = tmp_path / "c.ckpt"
    save_arrays(path, _arrays(np.random.default_rng(1)), {})
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_arrays(path, CheckpointError)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "d.ckpt"
    path.write_bytes(b"NOPEnope" * 4)
    with pytest.raises(CheckpointError, match="magic"):
        load_arrays(path, CheckpointError)
    with pytest.raises(CheckpointError, match="magic"):
        read_meta(path, CheckpointError)


def test_unsupported_dtype_not_written(tmp_path):
    with pytest.raises(ValueError, match="dtypes"):
        save_arrays(tmp_path / "e.ckpt", {"flags": np.zeros(3, bool)}, {})
    assert not (tmp_path / "e.ckpt").exists()


def _with_crc(blob: bytes) -> bytes:
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def _rewrite_head(path, head: bytes) -> None:
    """Replace the JSON head of a container file, keeping the CRC valid."""
    blob = path.read_bytes()
    (head_len,) = struct.unpack_from("<I", blob, 8)
    path.write_bytes(_with_crc(blob[:8] + struct.pack("<I", len(head)) + head
                               + blob[12 + head_len:]))


@pytest.mark.parametrize("head", [b"{not json", b"[1, 2]", b'{"meta": {}}',
                                  b'{"arrays": [["a", "<f4", [-1]]], "meta": {}}',
                                  b'{"arrays": [["a", "|O", [1]]], "meta": {}}',
                                  b'{"arrays": [["a", "<f4", [7]]], "meta": {}}',
                                  b'{"arrays": [], "meta": [1]}'])
def test_malformed_head_with_valid_crc_rejected(tmp_path, head):
    path = tmp_path / "f.ckpt"
    save_arrays(path, {"a": np.zeros(2, np.float32)}, {})
    _rewrite_head(path, head)
    with pytest.raises(CheckpointError):
        load_arrays(path, CheckpointError)


def test_loading_a_large_dataset_peaks_near_its_file_size(tmp_path):
    # reading the whole file and copying the arrays out held it twice (2x)
    rng = np.random.default_rng(4)
    frames = FrameSet(rng.random((520, 60, 80), dtype=np.float32),
                      rng.integers(0, 2, (520, 60, 80), dtype=np.uint8),
                      rng.integers(0, 9, (520, 60, 80), dtype=np.uint16))
    path = tmp_path / "big.dset"
    save_dataset(path, frames)
    size = path.stat().st_size
    assert size >= 16 * 2**20
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * size, (peak, size)
    for name in ("x", "valid", "seg"):
        assert getattr(loaded, name).tobytes() == getattr(frames, name).tobytes()


def test_head_length_past_the_end_reads_only_the_file(tmp_path):
    # a damaged head length used to allocate that many bytes (up to 4 GiB)
    path = tmp_path / "g.dset"
    path.write_bytes(b"DNAV" + struct.pack("<II", 1, 64 * 2**20) + b"{}" * 10)
    tracemalloc.start()
    try:
        with pytest.raises(DatasetError, match="truncated head"):
            dataset_info(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# one file of each kind; every loader must reject the others with its own error
def _write_world(path):
    save_world(path, World(cylinders=np.ones((2, 5)), boxes=np.ones((1, 7)),
                           bounds=(0.0, 0.0, 3.0, 1.0), ceiling=4.0))


def _write_dataset(path):
    rng = np.random.default_rng(3)
    save_dataset(path, FrameSet(rng.random((3, 4, 5), dtype=np.float32),
                                np.ones((3, 4, 5), np.uint8), np.zeros((3, 4, 5), np.uint16)))


def _write_checkpoint(path):
    SemanticVae(VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5),
                          hidden=16), seed=0).save(path)


LOADERS = {
    "world": (_write_world, load_world, WorldError),
    "dataset": (_write_dataset, load_dataset, DatasetError),
    "checkpoint": (_write_checkpoint, SemanticVae.load, CheckpointError),
}


def _corrupt(blob: bytes, how: str) -> bytes:
    if how == "payload byte":
        flipped = bytearray(blob)
        flipped[-5] ^= 0x01  # the last payload byte
        return bytes(flipped)
    if how == "magic":
        return b"XXXX" + blob[4:]
    if how == "version":
        return _with_crc(blob[:4] + struct.pack("<I", 2) + blob[8:])
    return blob[: int(how)] if how != "half" else blob[: len(blob) // 2]


@pytest.mark.parametrize("how,match", [("payload byte", "CRC"), ("magic", "magic"),
                                       ("version", "version 2"), ("0", "magic"),
                                       ("10", "CRC"), ("half", "CRC")])
@pytest.mark.parametrize("kind", list(LOADERS))
def test_each_loader_rejects_a_damaged_file_with_its_own_error(tmp_path, kind, how, match):
    write, load, error = LOADERS[kind]
    path = tmp_path / "file"
    write(path)
    load(path)  # the undamaged file loads
    path.write_bytes(_corrupt(path.read_bytes(), how))
    with pytest.raises(error, match=match):
        load(path)


@pytest.mark.parametrize("kind", list(LOADERS))
def test_each_loader_rejects_a_file_of_another_kind(tmp_path, kind):
    _, load, error = LOADERS[kind]
    for other, (write, _, _) in LOADERS.items():
        if other != kind:
            write(tmp_path / other)
            with pytest.raises(error, match="not"):
                load(tmp_path / other)


def test_dataset_info_reads_the_head_and_rejects_other_files(tmp_path):
    _write_dataset(tmp_path / "d.dset")
    info = dataset_info(tmp_path / "d.dset")
    assert info == {"kind": "vaef", "height": 4, "width": 5, "latent_dim": 0, "horizon": 0,
                    "count": 3}
    _write_world(tmp_path / "w.bin")
    with pytest.raises(DatasetError, match="'world' file, not a dataset"):
        dataset_info(tmp_path / "w.bin")
    blob = (tmp_path / "d.dset").read_bytes()
    for how, match in [("20", "truncated head"), ("magic", "magic"), ("version", "version 2")]:
        (tmp_path / "bad.dset").write_bytes(_corrupt(blob, how))
        with pytest.raises(DatasetError, match=match):
            dataset_info(tmp_path / "bad.dset")


def test_model_checkpoint_of_the_other_kind_rejected(tmp_path):
    tiny_vae = VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5),
                         hidden=16)
    SemanticVae(tiny_vae, seed=0).save(tmp_path / "vae.ckpt")
    CollisionPredictor(CpnConfig(horizon=3), seed=0).save(tmp_path / "cpn.ckpt")
    with pytest.raises(CheckpointError, match="'cpn' checkpoint, not 'sevae'"):
        SemanticVae.load(tmp_path / "cpn.ckpt")
    with pytest.raises(CheckpointError, match="'sevae' checkpoint, not 'cpn'"):
        CollisionPredictor.load(tmp_path / "vae.ckpt")


def test_model_checkpoint_with_foreign_config_or_parameters_rejected(tmp_path):
    path = tmp_path / "cpn.ckpt"
    CollisionPredictor(CpnConfig(horizon=3), seed=0).save(path)
    meta, arrays = load_arrays(path, CheckpointError)
    meta["config"]["dropout"] = 0.1
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="config does not fit"):
        CollisionPredictor.load(path)

    del meta["config"]["dropout"]
    del arrays["head.bias"]
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="missing parameter 'head.bias'"):
        CollisionPredictor.load(path)

    meta, arrays = load_arrays(path, CheckpointError)
    arrays["head.bias"] = np.zeros(2, np.float32)
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="shape mismatch for 'head.bias'"):
        CollisionPredictor.load(path)

    # stored values outside their declared range
    for key, value in (("hidden", 0), ("horizon", -1), ("variant", "bogus"),
                       ("lrelu_slope", 5.0)):
        save_arrays(path, arrays, {**meta, "config": {**meta["config"], key: value}})
        with pytest.raises(CheckpointError, match=f"config does not fit: .*{key}"):
            CollisionPredictor.load(path)

    del meta["config"]
    save_arrays(path, arrays, meta)
    with pytest.raises(CheckpointError, match="config does not fit"):
        CollisionPredictor.load(path)
