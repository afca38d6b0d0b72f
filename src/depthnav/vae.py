"""Semantically-weighted variational autoencoder over depth frames.

The encoder (４ strided convolutions, dense trunk, two dense heads) maps a
depth image to a diagonal Gaussian (mu, logvar); the decoder mirrors it
with transposed convolutions and a final sigmoid.  Training minimizes

    L = L_recon + beta_norm * L_KL,     beta_norm = beta * J / (H * W)

where L_recon sums squared error over pixels, masked by validity and
multiplied by a per-pixel semantic weight: pixels of a labeled thin
instance with pixel count p get weight max(W_const / p, nu_min) when
p > p_min, everything else weight 1.  Invalid pixels contribute exactly
zero.  L_KL is the (non-negative) divergence from the unit Gaussian.
loss_weights, recon_term and kl_batch are the terms' one definition: the
training step and validation both call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Checked, ShapeError, TrainingError, within
from .nn import (
    Activation,
    Conv2d,
    Deconv2d,
    Dense,
    Model,
    Reshape,
    Sequential,
    conv_out_hw,
    fit,
    sample_latent,
    sample_latent_backward,
)
from .nn.layers import LOGVAR_CLAMP


@dataclass(frozen=True)
class VaeConfig(Checked, error=ShapeError, prefix="vae"):
    height: int = within(60, lo=1, integer=True)
    width: int = within(80, lo=1, integer=True)
    latent_dim: int = within(32, lo=1, integer=True)
    beta: float = within(1.0, lo=0, lo_open=True)
    w_const: float = within(6000.0, lo=0, lo_open=True)
    nu_min: float = within(15.0, lo=1)
    p_min: int = within(40, lo=1, integer=True)
    enc_channels: tuple[int, ...] = within((8, 16, 32, 64), lo=1, integer=True, each=True)
    hidden: int = within(256, lo=1, integer=True)
    kernel: int = within(3, lo=1, integer=True)
    stride: int = within(2, lo=1, integer=True)
    lrelu_slope: float = within(0.1, lo=0, hi=1)

    @property
    def beta_norm(self) -> float:
        return self.beta * self.latent_dim / (self.height * self.width)


def paper_vae_config() -> VaeConfig:
    return VaeConfig(height=270, width=480, latent_dim=128)


@dataclass
class LatentCode:
    mu: np.ndarray
    logvar: np.ndarray


# ---------------------------------------------------------------------------
# Loss terms: the one definition that training and validation both call
# ---------------------------------------------------------------------------

def kl_batch(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """KL(q || N(0, I)) = -1/2 sum_j (1 + logvar_j - mu_j^2 - sigma_j^2) per row, >= 0."""
    return -0.5 * np.sum(1.0 + logvar - mu * mu - np.exp(logvar), axis=1)


def loss_weights(valid, seg, cfg: VaeConfig, vanilla: bool = False) -> np.ndarray:
    """Per-pixel loss weights of frames (N, H, W), float32: validity times the
    semantic weight, or validity alone when `vanilla`.  A pixel of instance
    i >= 1 with p > p_min pixels in its frame weighs max(w_const / p, nu_min);
    every other pixel weighs 1."""
    valid = np.asarray(valid)
    weights = np.greater(valid, 0, out=np.empty(valid.shape, np.float32))  # no bool copy
    if not vanilla:
        for w, s in zip(weights, np.asarray(seg)):
            s = s.astype(np.int64)
            counts = np.bincount(s.ravel())
            thin = counts > cfg.p_min
            thin[0] = False  # background
            table = np.ones(len(counts), dtype=np.float32)
            table[thin] = np.maximum(cfg.w_const / counts[thin], cfg.nu_min)
            w *= table[s]
    return weights


def recon_term(residual: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The per-pixel reconstruction loss: squared residual (reconstruction
    minus target) times the loss weight, so invalid pixels add exactly 0."""
    return residual * residual * weights


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class SemanticVae(Model):
    """Encoder/decoder pair; parameters live in the layer objects."""

    kind = "sevae"
    config_type = VaeConfig

    def __init__(self, cfg: VaeConfig, seed: int = 0, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        k = (cfg.kernel, cfg.kernel)
        trace = [(cfg.height, cfg.width)]
        layers = []
        in_ch = 1
        for i, ch in enumerate(cfg.enc_channels):
            layers.append(Conv2d(in_ch, ch, k, cfg.stride, rng=rng, name=f"enc{i}", dtype=dtype))
            layers.append(Activation("lrelu", cfg.lrelu_slope, name=f"enc{i}a"))
            trace.append(conv_out_hw(trace[-1], k, cfg.stride, cfg.kernel // 2))
            in_ch = ch
        self.flat_hw = trace[-1]
        flat_dim = cfg.enc_channels[-1] * trace[-1][0] * trace[-1][1]
        layers.append(Reshape((flat_dim,), name="encf"))
        layers.append(Dense(flat_dim, cfg.hidden, rng=rng, name="ench", dtype=dtype))
        layers.append(Activation("lrelu", cfg.lrelu_slope, name="encha"))
        self.encoder = Sequential(layers)
        self.mu_head = Dense(cfg.hidden, cfg.latent_dim, rng=rng, name="mu", dtype=dtype)
        self.logvar_head = Dense(cfg.hidden, cfg.latent_dim, rng=rng, name="logvar", dtype=dtype)

        dec = [
            Dense(cfg.latent_dim, cfg.hidden, rng=rng, name="dech", dtype=dtype),
            Activation("lrelu", cfg.lrelu_slope, name="decha"),
            Dense(cfg.hidden, flat_dim, rng=rng, name="decf", dtype=dtype),
            Activation("lrelu", cfg.lrelu_slope, name="decfa"),
            Reshape((cfg.enc_channels[-1], *trace[-1]), name="decr"),
        ]
        chans = list(cfg.enc_channels[::-1][1:]) + [1]
        in_ch = cfg.enc_channels[-1]
        for i, (ch, out_hw) in enumerate(zip(chans, trace[-2::-1])):
            dec.append(Deconv2d(in_ch, ch, out_hw, k, cfg.stride, rng=rng, name=f"dec{i}", dtype=dtype))
            if i < len(chans) - 1:
                dec.append(Activation("lrelu", cfg.lrelu_slope, name=f"dec{i}a"))
            in_ch = ch
        dec.append(Activation("sigmoid", name="deco"))
        self.decoder = Sequential(dec)
        super().__init__(cfg, self.encoder.layers + [self.mu_head, self.logvar_head]
                         + self.decoder.layers)

    # -- inference ----------------------------------------------------------
    def _check_hw(self, arr):
        if arr.shape[-2:] != (self.cfg.height, self.cfg.width):
            raise ShapeError(
                f"frame is {arr.shape[-2]}x{arr.shape[-1]}, encoder wants "
                f"{self.cfg.height}x{self.cfg.width} (no silent resampling)"
            )

    def _encode(self, x: np.ndarray, keep: bool):
        """The one encoder pass: x (N, 1, H, W) -> mu, the clamped logvar and
        the logvar head's raw output."""
        h = self.encoder.forward(x, keep)
        mu = self.mu_head.forward(h, keep)
        logvar_raw = self.logvar_head.forward(h, keep)
        return mu, np.clip(logvar_raw, -LOGVAR_CLAMP, LOGVAR_CLAMP), logvar_raw

    def encode_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """x: (N, H, W) normalized depth with invalid pixels already zeroed."""
        self._check_hw(x)
        mu, logvar, _ = self._encode(np.ascontiguousarray(x[:, None], dtype=np.float32), False)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))):
            raise TrainingError("encoder produced non-finite latent")
        return mu, logvar

    def encode(self, frame) -> LatentCode:
        """frame: DepthFrame (duck-typed: needs .x)."""
        mu, logvar = self.encode_batch(np.asarray(frame.x, dtype=np.float32)[None])
        return LatentCode(mu=mu[0], logvar=logvar[0])

    def decode_batch(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float32)
        if z.ndim != 2 or z.shape[1] != self.cfg.latent_dim:
            raise ShapeError(f"decode: expected (N, {self.cfg.latent_dim}), got {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ShapeError("decode: non-finite latent")
        return self.decoder.forward(z, keep=False)[:, 0]

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.decode_batch(np.asarray(z, dtype=np.float32)[None])[0]

    # -- training step -------------------------------------------------------
    def loss_and_grads(self, x, val_lam, eps):
        """One forward/backward pass over a batch.

        x:       (B, H, W) inputs (= reconstruction targets)
        val_lam: (B, H, W) loss weights (loss_weights)
        eps:     (B, J) reparameterization noise
        Returns (total, recon_mean, kl_mean); gradients accumulate in layers.
        """
        dt = self.dtype
        b = x.shape[0]
        x = np.ascontiguousarray(x, dtype=dt)
        val_lam = np.asarray(val_lam, dtype=dt)
        eps = np.asarray(eps, dtype=dt)
        mu, logvar, logvar_raw = self._encode(x[:, None], True)
        z = sample_latent(mu, logvar, eps)
        x_rec = self.decoder.forward(z.astype(dt, copy=False))[:, 0]

        diff = x_rec - x
        recon_each = np.sum(recon_term(diff, val_lam), axis=(1, 2))
        kl_each = kl_batch(mu.astype(np.float64), logvar.astype(np.float64))
        recon_mean = float(recon_each.mean())
        kl_mean = float(kl_each.mean())
        total = recon_mean + self.cfg.beta_norm * kl_mean

        d_rec = (2.0 / b) * diff * val_lam
        dz = self.decoder.backward(d_rec[:, None].astype(dt, copy=False))
        dmu_z, dlogvar_z = sample_latent_backward(dz, logvar_raw, eps)
        scale = dt.type(self.cfg.beta_norm / b)
        dmu = dmu_z + scale * mu
        inside = (np.abs(logvar_raw) < LOGVAR_CLAMP).astype(dt)
        dlogvar = dlogvar_z + scale * dt.type(0.5) * (np.exp(logvar) - 1.0) * inside
        dh = self.mu_head.backward(dmu.astype(dt, copy=False))
        dh += self.logvar_head.backward(dlogvar.astype(dt, copy=False))
        self.encoder.backward(dh, input_grad=False)
        return total, recon_mean, kl_mean


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_recon: float
    val_kl: float


def train_vae(frames, cfg: VaeConfig, seed: int, epochs: int = 40, lr: float = 1e-4,
              batch_size: int = 32, vanilla: bool = False, split_ratio: float = 0.8,
              out_dir=None, log_every: int = 0) -> tuple[SemanticVae, list[EpochStats]]:
    """Train on a frame set (duck-typed: .x (N,H,W), .valid, .seg arrays).

    `vanilla` forces the semantic weight to 1 everywhere.  The run is fully
    determined by (cfg, seed): identical inputs give bit-identical
    checkpoints.
    """
    x = np.asarray(frames.x, dtype=np.float32)
    if x.shape[1:] != (cfg.height, cfg.width):
        raise ShapeError(f"frames are {x.shape[1:]}, config wants {(cfg.height, cfg.width)}")
    val_lam = loss_weights(frames.valid, frames.seg, cfg, vanilla)  # fixed for the whole run
    rng = np.random.default_rng(seed)

    def batch_loss(model, idx):
        eps = rng.standard_normal((len(idx), cfg.latent_dim)).astype(np.float32)
        return model.loss_and_grads(x[idx], val_lam[idx], eps)[0]

    def validate(model, va):
        recon_sum, kl_sum = 0.0, 0.0
        for lo in range(0, len(va), batch_size):
            idx = va[lo : lo + batch_size]
            mu, logvar = model.encode_batch(x[idx])
            x_rec = model.decode_batch(mu)
            diff = (x_rec - x[idx]).astype(np.float64)
            recon_sum += float(np.sum(recon_term(diff, val_lam[idx])))
            kl_sum += float(kl_batch(mu.astype(np.float64), logvar.astype(np.float64)).sum())
        recon, kl = recon_sum / len(va), kl_sum / len(va)
        return recon + cfg.beta_norm * kl, recon, kl

    name = "vanilla_vae" if vanilla else "sevae"
    return fit(lambda s: SemanticVae(cfg, seed=s), rng, len(x), batch_loss, validate,
               EpochStats, epochs=epochs, lr=lr, batch_size=batch_size,
               split_ratio=split_ratio, tag="vae", out_dir=out_dir, stem=name,
               csv_name=f"{name}_losses.csv", log_every=log_every,
               meta={"semantic_weighting": not vanilla, "seed": seed, "epochs": epochs,
                     "lr": lr})
