"""Autoencoder model behavior: determinism, contracts, training progress,
persistence, golden training digests, and the full-loss gradient check."""

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from depthnav.camera import DepthFrame
from depthnav.data import FrameSet
from depthnav.errors import ShapeError, TrainingError
from depthnav.nn import max_param_error, sample_latent
from depthnav.vae import (
    SemanticVae,
    VaeConfig,
    kl_batch,
    loss_weights,
    recon_term,
    train_vae,
)

TINY = VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5), hidden=16)


def _toy_frames(n, h=12, w=16, seed=0):
    """Structured frames (gradient background + one bright block) so a tiny
    autoencoder has something learnable."""
    rng = np.random.default_rng(seed)
    ramp = np.linspace(0.2, 0.8, w, dtype=np.float32)[None, :] * np.ones((h, 1), np.float32)
    x = np.tile(ramp, (n, 1, 1))
    seg = np.zeros((n, h, w), np.uint16)
    for i in range(n):
        r, c = int(rng.integers(0, h - 4)), int(rng.integers(0, w - 4))
        x[i, r : r + 4, c : c + 4] = rng.uniform(0.05, 0.3)
        seg[i, r : r + 4, c : c + 2] = 1
    valid = (rng.random((n, h, w)) > 0.15).astype(np.uint8)
    x[valid == 0] = 0.0
    seg[valid == 0] = 0
    return FrameSet(x, valid, seg)


def test_encode_is_deterministic_and_strict_about_resolution():
    model = SemanticVae(TINY, seed=1)
    frame = DepthFrame(np.random.default_rng(0).random((12, 16), dtype=np.float32),
                       np.ones((12, 16), np.uint8), np.zeros((12, 16), np.uint16))
    a = model.encode(frame)
    b = model.encode(frame)
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.logvar, b.logvar)
    with pytest.raises(ShapeError, match="resampling"):
        model.encode(DepthFrame(np.zeros((10, 16), np.float32),
                                np.zeros((10, 16), np.uint8),
                                np.zeros((10, 16), np.uint16)))


def test_all_invalid_frame_encodes_without_error():
    model = SemanticVae(TINY, seed=2)
    frame = DepthFrame(np.zeros((12, 16), np.float32), np.zeros((12, 16), np.uint8),
                       np.zeros((12, 16), np.uint16))
    code = model.encode(frame)
    assert np.all(np.isfinite(code.mu)) and np.all(np.isfinite(code.logvar))


def test_decode_shape_range_and_determinism():
    model = SemanticVae(TINY, seed=3)
    z = np.random.default_rng(1).standard_normal(4).astype(np.float32)
    out = model.decode(z)
    assert out.shape == (12, 16)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.array_equal(out, model.decode(z))
    with pytest.raises(ShapeError):
        model.decode(np.zeros(5, np.float32))


def test_decode_of_encode_mu_keeps_frame_shape():
    model = SemanticVae(TINY, seed=4)
    frames = _toy_frames(1)
    out = model.decode(model.encode(frames.frame(0)).mu)
    assert out.shape == frames.frame(0).shape


def test_inference_leaves_no_cache():
    model = SemanticVae(TINY, seed=4)
    frames = _toy_frames(3)
    for run in (lambda: model.encode_batch(frames.x), lambda: model.decode_batch(np.zeros((3, 4)))):
        run()
        assert all(layer._cache is None for layer in model.layers())
    # validation encodes and decodes after the epoch's kept passes
    model, _ = train_vae(_toy_frames(8), TINY, seed=0, epochs=1, batch_size=4)
    assert all(layer._cache is None for layer in model.layers())


def test_full_loss_gradients_pass_finite_differences(lrelu_fingerprint):
    cfg = TINY
    rng = np.random.default_rng(7)
    model = SemanticVae(cfg, seed=7, dtype=np.float64)
    x = rng.random((2, cfg.height, cfg.width))
    seg = np.zeros((2, cfg.height, cfg.width), np.uint16)
    seg[:, 2:8, 3:9] = 1
    valid = (rng.random(x.shape) > 0.25).astype(np.float64)
    val_lam = loss_weights(valid, seg, replace(cfg, p_min=10))
    eps = rng.standard_normal((2, cfg.latent_dim))

    def loss_and_grads():
        model.zero_grad()
        loss, _, _ = model.loss_and_grads(x, val_lam, eps)
        return loss, {k: v.copy() for k, v in model.grads().items()}

    err = max_param_error(loss_and_grads, model.params(), max_coords=20,
                          rng=np.random.default_rng(0),
                          fingerprint_fn=lrelu_fingerprint(model.layers()))
    assert err < 1e-4, f"max relative error {err}"


def test_training_reduces_masked_reconstruction_error():
    frames = _toy_frames(200, seed=5)
    cfg = TINY
    untrained = SemanticVae(cfg, seed=9)

    def masked_error(model):
        mu, _ = model.encode_batch(frames.x)
        rec = model.decode_batch(mu)
        active = frames.valid.astype(np.float64)
        return float((((rec - frames.x) ** 2) * active).sum() / max(active.sum(), 1))

    trained, history = train_vae(frames, cfg, seed=9, epochs=8, lr=1e-3, batch_size=32)
    assert masked_error(trained) < masked_error(untrained)
    assert history[-1].val_loss < history[0].val_loss


def test_same_seed_gives_bit_identical_checkpoints(tmp_path):
    frames = _toy_frames(40, seed=6)
    for run in ("a", "b"):
        train_vae(frames, TINY, seed=42, epochs=2, lr=1e-3, batch_size=16,
                  out_dir=tmp_path / run)
    assert (tmp_path / "a" / "sevae.ckpt").read_bytes() == \
        (tmp_path / "b" / "sevae.ckpt").read_bytes()
    assert (tmp_path / "a" / "sevae_losses.csv").read_bytes() == \
        (tmp_path / "b" / "sevae_losses.csv").read_bytes()


# Digests of seeded training runs and of encode_batch at the default 60x80
# size.  They pin every parameter and every per-epoch loss bit for bit: a
# change to the order of any float operation in a training kernel (layers,
# activations, Adam) moves them.
TRAIN_GOLDEN = {
    "semantic": "6958e4184e4e1a48753fd9ccacedc8c4723bbaa3c70a6bc49f9c8b9d8511cb57",
    "vanilla": "8384461ecb5a49857ed04b8703b48354661cbc6ec6a023b78e30badae73ce442",
}
ENCODE_GOLDEN = "39653ecce7e16dc92644987923fefc2ab77d688c6fb64dbb2c5436e80ce6e182"


def _golden_frames(n, seed):
    """60x80 frames with a thin rod and a block per frame; both instances are
    larger than p_min, so the semantic and vanilla runs weigh pixels apart."""
    frames = _toy_frames(n, h=60, w=80, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for i in range(n):
        c = int(rng.integers(5, 75))
        frames.x[i, 10:40, c : c + 2] = rng.uniform(0.05, 0.2)
        frames.seg[i, 10:40, c : c + 2] = 2
        r = int(rng.integers(40, 50))
        frames.seg[i, r : r + 8, 60:72] = 3
    frames.x[frames.valid == 0] = 0.0
    frames.seg[frames.valid == 0] = 0
    return frames


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", ["semantic", "vanilla"])
def test_training_run_bit_identical(kind):
    frames = _golden_frames(44, seed=21)
    model, history = train_vae(frames, VaeConfig(), seed=7, epochs=2, lr=1e-3, batch_size=16,
                               vanilla=kind == "vanilla")
    losses = np.array([astuple(s) for s in history], dtype=np.float64)
    assert _digest(*model.params().values(), losses) == TRAIN_GOLDEN[kind]


def test_encode_batch_bit_identical():
    frames = _golden_frames(64, seed=22)
    mu, logvar = SemanticVae(VaeConfig(), seed=23).encode_batch(frames.x)
    assert mu.shape == logvar.shape == (64, 32) and mu.dtype == np.float32
    assert _digest(mu, logvar) == ENCODE_GOLDEN


# sha256 of the files a seeded training run writes: the checkpoint bytes
# (parameters, array table, meta block) and the per-epoch loss CSV.
# p_min = 4 lets the toy frames' 8-pixel instances get semantic weight.
OUT_DIR_GOLDEN = {
    "sevae.ckpt": "e113a42ba8df6ff158f7b7505a4ef7708329fe8c220bc6db5e6a2ef74e7aaba0",
    "sevae_losses.csv": "d59eb1c2d266191e213e93176b54c5527cc18bfbda60b3319b5436400151c735",
    "vanilla_vae.ckpt": "cbca75d705868dd0deda1f89aa5922a4054e6144258c1db4aab4c5ee021d9897",
    "vanilla_vae_losses.csv": "7774568a21e14562441d562c0b3eff67f2e5bb17d67baa58ee01bd75ee14d892",
}


def test_training_out_dir_files_bit_identical(tmp_path):
    frames = _toy_frames(40, seed=6)
    for vanilla in (False, True):
        train_vae(frames, replace(TINY, p_min=4), seed=42, epochs=2, lr=1e-3, batch_size=16,
                  vanilla=vanilla, out_dir=tmp_path)
    for name, want in OUT_DIR_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


@pytest.mark.parametrize("schedule", [{"batch_size": 0}, {"epochs": 0},
                                      {"split_ratio": 0.0}, {"split_ratio": -0.5},
                                      {"split_ratio": 1.5}, {"lr": 0.0}, {"lr": -1e-3},
                                      {"lr": float("nan")}])
def test_bad_schedule_rejected_before_any_file_is_written(schedule, tmp_path):
    # the message names the bad setting: a NaN lr used to fail only after a
    # step, as a non-finite latent or loss
    with pytest.raises(TrainingError, match=next(iter(schedule))):
        train_vae(_toy_frames(8), TINY, seed=0, out_dir=tmp_path / "out",
                  **{"epochs": 1, **schedule})
    assert not (tmp_path / "out").exists()


def test_tiny_split_keeps_one_training_frame():
    """Two frames at split_ratio 0.2 train on one frame (round(0.4) = 0
    training frames would leave nothing to average over)."""
    model, history = train_vae(_toy_frames(2), TINY, seed=0, epochs=2, batch_size=4,
                               split_ratio=0.2)
    assert len(history) == 2 and np.isfinite(history[-1].train_loss)


def test_checkpoint_round_trip_preserves_model_exactly(tmp_path):
    frames = _toy_frames(30, seed=8)
    model, _ = train_vae(frames, TINY, seed=3, epochs=1, lr=1e-3, batch_size=16)
    path = tmp_path / "m.ckpt"
    model.save(path)
    loaded = SemanticVae.load(path)
    mu_a, lv_a = model.encode_batch(frames.x[:4])
    mu_b, lv_b = loaded.encode_batch(frames.x[:4])
    assert np.array_equal(mu_a, mu_b) and np.array_equal(lv_a, lv_b)


def test_bad_lrelu_slope_rejected():
    for slope in (2.0, -0.5, float("nan")):
        with pytest.raises(ShapeError, match="slope"):
            SemanticVae(VaeConfig(lrelu_slope=slope))


@pytest.mark.parametrize("channels", [(), (8, 0, 32, 64)])
def test_bad_encoder_channels_rejected(channels):
    # () used to fail with IndexError while building the layers
    with pytest.raises(ShapeError, match="enc_channels"):
        VaeConfig(enc_channels=channels)


def test_empty_dataset_rejected():
    empty = FrameSet(np.zeros((0, 12, 16), np.float32), np.zeros((0, 12, 16), np.uint8),
                     np.zeros((0, 12, 16), np.uint16))
    with pytest.raises(TrainingError, match="empty"):
        train_vae(empty, TINY, seed=0, epochs=1)


def test_loss_identical_for_frames_differing_only_at_invalid_pixels():
    """Two targets that differ only where the mask is off produce the same
    reconstruction loss (latent equality is not claimed, loss equality is)."""
    model = SemanticVae(TINY, seed=11)
    frames = _toy_frames(1, seed=12)
    x_a = frames.x[0].astype(np.float64)
    valid = frames.valid[0]
    x_b = x_a.copy()
    x_b[valid == 0] = 0.77  # junk depth where no measurement exists
    recon = model.decode(model.encode(frames.frame(0)).mu).astype(np.float64)
    weights = loss_weights(frames.valid, frames.seg, TINY)[0]
    assert np.sum(recon_term(recon - x_a, weights)) == np.sum(recon_term(recon - x_b, weights))


def test_training_path_guards_the_loss_terms_inputs():
    """The loss terms check nothing themselves: train_vae rejects frames of
    another size, and encode_batch, whose output validation's KL takes, a
    non-finite latent."""
    with pytest.raises(ShapeError, match="config wants"):
        train_vae(_toy_frames(4, h=10), TINY, seed=0, epochs=1)
    model = SemanticVae(TINY, seed=1)
    model.mu_head.params["bias"][0] = np.nan
    with pytest.raises(TrainingError, match="non-finite latent"):
        model.encode_batch(_toy_frames(2).x)


@pytest.mark.parametrize("vanilla", [False, True])
def test_training_step_loss_is_the_loss_suite_terms(vanilla):
    """loss_and_grads returns the loss suite's terms on the model's own
    forward: recon_term summed per image, kl_batch, and their sum at beta_norm."""
    model = SemanticVae(TINY, seed=6)
    frames = _toy_frames(5, seed=7)
    weights = loss_weights(frames.valid, frames.seg, replace(TINY, p_min=5), vanilla)
    eps = np.random.default_rng(8).standard_normal((5, TINY.latent_dim)).astype(np.float32)
    total, recon_mean, kl_mean = model.loss_and_grads(frames.x, weights, eps)

    mu, logvar = model.encode_batch(frames.x)
    x_rec = model.decode_batch(sample_latent(mu, logvar, eps))
    assert recon_mean == float(np.sum(recon_term(x_rec - frames.x, weights), axis=(1, 2)).mean())
    assert kl_mean == float(kl_batch(mu.astype(np.float64), logvar.astype(np.float64)).mean())
    assert total == recon_mean + TINY.beta_norm * kl_mean
