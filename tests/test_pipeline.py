"""The dataset builders and the one-call training pipeline: bit-identical
output, worlds built on first draw, stage timings."""

import hashlib

import numpy as np
import pytest

from depthnav import pipeline
from depthnav.camera import CameraModel, NoiseParams
from depthnav.config import AppConfig, DatasetSettings, TrainSettings
from depthnav.pipeline import collect_collision_data, render_vae_corpus, train_full_stack
from depthnav.vae import VaeConfig


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of both builders' outputs at their default world list (3
# environments x 2 worlds): 12 clean + corrupted corpus frames, and 3
# collected episodes of at most 30 steps (frames, states, actions, labels)
CORPUS_GOLDEN = {
    1: "3e97e4367c0dd741eba85112c406c729eb6f35f466e74b41a8616a12359e24ba",
    7919: "c68ecb88c38edebc75418e35b27945105831e15e7ce628cb901c1284c0da4004",
}
COLLISIONS_GOLDEN = {
    1: "e9e18eccf3655f233581f64de8a260934cc9ceb5b8e25d6e713f4e59376e50e3",
    7919: "ccec7a863ab8e6b8e7fbc3c605f146ecc80ab3a317f7dcae174eb354665f0c73",
}


@pytest.mark.parametrize("seed", list(CORPUS_GOLDEN))
def test_corpus_bit_identical(seed):
    clean, noisy = render_vae_corpus(12, CameraModel(), NoiseParams(), seed=seed)
    assert _sha(clean.x, clean.valid, clean.seg, noisy.x, noisy.valid, noisy.seg) \
        == CORPUS_GOLDEN[seed]


@pytest.mark.parametrize("seed", list(COLLISIONS_GOLDEN))
def test_collisions_bit_identical(seed):
    ds = collect_collision_data(3, CameraModel(), seed=seed, max_steps=30)
    assert _sha(ds.frames.x, ds.frames.valid, ds.frames.seg, ds.states, ds.actions,
                ds.labels) == COLLISIONS_GOLDEN[seed]


def test_one_episode_builds_only_the_world_it_draws(monkeypatch):
    built = []
    generate = pipeline.generate_world

    def counting(params):
        built.append(params.seed)
        return generate(params)

    monkeypatch.setattr(pipeline, "generate_world", counting)
    collect_collision_data(1, CameraModel(), seed=0, max_steps=20)
    assert len(built) == 1

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
