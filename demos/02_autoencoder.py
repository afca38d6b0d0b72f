"""Train a small semantically-weighted autoencoder and watch what the
semantic weighting buys: thin rods survive compression that a plain
reconstruction loss smears away.

Runs in a few minutes on a laptop CPU (reduced corpus and epochs; the full
desk-scale comparison lives in the acceptance suite and the CLI).
"""

from pathlib import Path

import numpy as np

from depthnav.camera import CameraModel, NoiseParams, write_pgm
from depthnav.evaluation import eval_reconstruction, fft_reconstructor, vae_reconstructor
from depthnav.pipeline import render_vae_corpus
from depthnav.vae import VaeConfig, train_vae

out = Path(__file__).parent / "out" / "autoencoder"
out.mkdir(parents=True, exist_ok=True)

cam = CameraModel()
print("rendering 400 corrupted frames across sparse/medium/dense worlds ...")
clean, noisy = render_vae_corpus(400, cam, NoiseParams(), seed=21)

cfg = VaeConfig()  # 60x80 -> 32 latent values, beta_norm = 32/4800
print(f"latent dim {cfg.latent_dim}, KL weight beta_norm = {cfg.beta_norm:.4g}")

print("training semantic autoencoder (15 epochs) ...")
sevae, _ = train_vae(noisy, cfg, seed=1, epochs=15, lr=3e-4, log_every=5)
print("training vanilla baseline (identical except weights = 1) ...")
vanilla, _ = train_vae(noisy, cfg, seed=1, epochs=15, lr=3e-4, vanilla=True, log_every=5)

# held-out frames: a corpus rendered from other worlds, none of them trained on
print("rendering 100 held-out corrupted frames ...")
_, val = render_vae_corpus(100, cam, NoiseParams(), seed=22)
report = eval_reconstruction(
    {"corrupted": val},
    {"fft-top64": fft_reconstructor(64),
     "vanilla-vae": vae_reconstructor(vanilla),
     "sevae": vae_reconstructor(sevae)},
)
print()
print(report.table())

# dump a side-by-side for the first validation frame with thin pixels
idx = next(i for i in range(len(val)) if (val.seg[i] > 0).sum() > 20)
frame = val.frame(idx)
for name, model in [("sevae", sevae), ("vanilla", vanilla)]:
    recon = model.decode(model.encode(frame).mu)
    write_pgm(out / f"recon_{name}.pgm", (recon * 65534).astype(np.uint16), 65535)
write_pgm(out / "input.pgm", (frame.x * 65534).astype(np.uint16), 65535)
print(f"wrote input/reconstruction images to {out}")
