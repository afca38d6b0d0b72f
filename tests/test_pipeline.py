"""The dataset builders and the one-call training pipeline: bit-identical
output, equal to the compositions they replace, memory that stays near the
result, worlds built on first draw, stage timings."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from depthnav import pipeline
from depthnav.camera import CameraModel, NoiseParams
from depthnav.config import AppConfig, DatasetSettings, TrainSettings
from depthnav.data import CollisionSet, FrameSet, encode_dataset
from depthnav.pipeline import (
    build_latent_dataset,
    collect_collision_data,
    corrupt_frameset,
    render_vae_corpus,
    train_full_stack,
)
from depthnav.vae import SemanticVae, VaeConfig


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
    1: "f220a660d9841a0eaf7de4ef6396b403dfed754992e66aaf862ddb9117b1c418",
    7919: "b99027f6c458404adf93469c5f0bfc54855bdb5b93dee1fc43f3fe254e1bf5a1",
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


def _random_collisions(rows, seed=0) -> CollisionSet:
    rng = np.random.default_rng(seed)
    shape = (rows, 12, 16)
    valid = (rng.random(shape) > 0.2).astype(np.uint8)
    frames = FrameSet(rng.random(shape, dtype=np.float32) * valid, valid,
                      rng.integers(0, 3, shape).astype(np.uint16) * valid)
    return CollisionSet(frames, rng.normal(size=(rows, 6)), rng.normal(size=(rows, 4, 4)),
                        (rng.random((rows, 4)) > 0.5).astype(np.uint8))


def _tiny_vae() -> SemanticVae:
    return SemanticVae(VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5),
                                 hidden=16), seed=0)


def _nbytes(*objs) -> int:
    return sum(a.nbytes for obj in objs for a in vars(obj).values() if isinstance(a, np.ndarray))


def _traced_peak(fn, *args, **kwargs):
    """fn's result, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows", [150, 0])  # 150: two full encoder batches and a partial one
def test_latents_equal_encoding_the_corrupted_copy(rows):
    ds, vae, noise = _random_collisions(rows), _tiny_vae(), NoiseParams()
    got = build_latent_dataset(ds, vae, noise, seed=11, max_range=5.0)
    # the former composition: corrupt the whole set, then encode it
    noisy = corrupt_frameset(ds.frames, noise, 11, 5.0)
    want = encode_dataset(CollisionSet(noisy, ds.states, ds.actions, ds.labels), vae)
    for name in ("mu", "states", "actions", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_collection_peak_stays_near_its_result():
    ds, peak = _traced_peak(collect_collision_data, 3, CameraModel(), seed=1, max_steps=30,
                            environments=("sparse",), worlds_per_env=1)
    result = _nbytes(ds, ds.frames)
    # the labelled episodes (half the result) are alive while the result is
    # written; concatenating and then flipping them peaked ~1.7x beyond it
    assert peak - result < 0.75 * result


def test_latent_build_transient_does_not_grow_with_the_set():
    vae, transient = _tiny_vae(), {}
    for rows in (130, 520):
        out, peak = _traced_peak(build_latent_dataset, _random_collisions(rows), vae,
                                 NoiseParams(), seed=3, max_range=5.0)
        transient[rows] = peak - _nbytes(out)
    # a corrupted copy of the whole set would grow it by 390 rows' frames
    copy_growth = 390 * 12 * 16 * (4 + 1 + 2)
    assert transient[520] - transient[130] < 0.25 * copy_growth


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
STACK_GOLDEN = "d9081c0fd621913e503b30e8a98a72606aff69897ac1b36b87c838de2cea0873"


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
