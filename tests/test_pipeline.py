"""The one-call training pipeline: bit-identical output, stage timings."""

import hashlib

import numpy as np

from depthnav.camera import CameraModel
from depthnav.config import AppConfig, DatasetSettings, TrainSettings
from depthnav.pipeline import train_full_stack
from depthnav.vae import VaeConfig

# sha256 over the four models' parameters and both autoencoder loss CSVs of
# a toy-scale stack (12x16 frames, one epoch per model)
STACK_GOLDEN = "9129c856a2da6ea54132f03f37f2cb3713114140a93833f0a12dcf8244b4ec2e"


def test_toy_stack_bit_identical(tmp_path):
    cfg = AppConfig(camera=CameraModel(height=12, width=16),
                    vae=VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5),
                                  hidden=16),
                    train=TrainSettings(vae_epochs=1, cpn_epochs=1, e2e_epochs=1),
                    dataset=DatasetSettings(vae_frames=24, episodes=4, horizon=4))
    stack = train_full_stack(cfg, seed=5, out_dir=tmp_path)
    h = hashlib.sha256()
    for model in (stack.sevae, stack.vanilla_vae, stack.cpn_modular, stack.cpn_end_to_end):
        for arr in model.params().values():
            h.update(np.ascontiguousarray(arr).tobytes())
    for name in ("sevae_losses.csv", "vanilla_vae_losses.csv"):
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == STACK_GOLDEN
    assert len(stack.corpus_noisy) == 24 and len(stack.collisions_clean) > 0
    assert list(stack.timings) == ["corpus", "vae_training", "collisions", "cpn_training"]
    assert all(seconds > 0 for seconds in stack.timings.values())
