"""Checkpoint container: bit-exact round-trips and corruption detection."""

import numpy as np
import pytest

from depthnav.errors import CheckpointError
from depthnav.nn import Entry, load_checkpoint, save_checkpoint


def _entries(rng):
    return {
        "enc0.weight": Entry("conv", 2, rng.standard_normal((8, 1, 3, 3)).astype(np.float32)),
        "enc0.bias": Entry("conv", 2, rng.standard_normal(8).astype(np.float32)),
        "mu.weight": Entry("dense", 1, rng.standard_normal((16, 4)).astype(np.float32)),
    }


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    entries = _entries(rng)
    meta = {"kind": "sevae", "config": {"latent_dim": 4}}
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, entries, meta)
    meta2, loaded = load_checkpoint(path)
    assert meta2 == meta
    for name, entry in entries.items():
        assert loaded[name].kind == entry.kind
        assert loaded[name].stride == entry.stride
        assert loaded[name].array.tobytes() == entry.array.tobytes()
    # saving the loaded copy reproduces the file byte-for-byte
    path2 = tmp_path / "b.ckpt"
    save_checkpoint(path2, loaded, meta2)
    assert path.read_bytes() == path2.read_bytes()


def test_crc_corruption_detected(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _entries(np.random.default_rng(1)), {})
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "d.ckpt"
    path.write_bytes(b"NOPEnope" * 4)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_model_checkpoint_of_the_other_kind_rejected(tmp_path):
    from depthnav.cpn import CollisionPredictor, CpnConfig
    from depthnav.vae import SemanticVae, VaeConfig

    tiny_vae = VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5),
                         hidden=16)
    SemanticVae(tiny_vae, seed=0).save(tmp_path / "vae.ckpt")
    CollisionPredictor(CpnConfig(horizon=3), seed=0).save(tmp_path / "cpn.ckpt")
    with pytest.raises(CheckpointError, match="'cpn' checkpoint, not 'sevae'"):
        SemanticVae.load(tmp_path / "cpn.ckpt")
    with pytest.raises(CheckpointError, match="'sevae' checkpoint, not 'cpn'"):
        CollisionPredictor.load(tmp_path / "vae.ckpt")


def test_model_checkpoint_with_foreign_config_or_parameters_rejected(tmp_path):
    from depthnav.cpn import CollisionPredictor, CpnConfig

    path = tmp_path / "cpn.ckpt"
    CollisionPredictor(CpnConfig(horizon=3), seed=0).save(path)
    meta, entries = load_checkpoint(path)
    meta["config"]["dropout"] = 0.1
    save_checkpoint(path, entries, meta)
    with pytest.raises(CheckpointError, match="config does not fit"):
        CollisionPredictor.load(path)

    del meta["config"]["dropout"]
    del entries["head.bias"]
    save_checkpoint(path, entries, meta)
    with pytest.raises(CheckpointError, match="missing parameter 'head.bias'"):
        CollisionPredictor.load(path)

    meta, entries = load_checkpoint(path)
    entries["head.bias"] = Entry("dense", 1, np.zeros(2, np.float32))
    save_checkpoint(path, entries, meta)
    with pytest.raises(CheckpointError, match="shape mismatch for 'head.bias'"):
        CollisionPredictor.load(path)
