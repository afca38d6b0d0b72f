"""Loss-formula unit suite: exact values, masking invariance, weight table.

Every check runs the loss terms that train_vae's step and validation call
(loss_weights, recon_term, kl_batch) or the step itself."""

from dataclasses import replace

import numpy as np
import pytest

from depthnav.vae import (
    SemanticVae,
    VaeConfig,
    kl_batch,
    loss_weights,
    paper_vae_config,
    recon_term,
)

TINY = VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5), hidden=16)


def _instance_grid(pixels: int, iid: int = 1, shape=(60, 80)) -> np.ndarray:
    seg = np.zeros(shape, dtype=np.uint16)
    seg.flat[:pixels] = iid
    return seg


def _weights(seg, cfg=VaeConfig(), valid=None) -> np.ndarray:
    """One frame's loss weights; every pixel valid unless `valid` says otherwise."""
    valid = np.ones(seg.shape, np.uint8) if valid is None else valid
    return loss_weights(valid[None], seg[None], cfg)[0]


def _kl(mu, logvar) -> float:
    return float(kl_batch(np.array([mu], float), np.array([logvar], float))[0])


class TestKlValues:
    def test_standard_normal_gives_zero(self):
        assert _kl(np.zeros(8), np.zeros(8)) == 0.0

    def test_unit_mean_unit_sigma_single_dim(self):
        assert abs(_kl([1.0], [0.0]) - 0.5) < 1e-12

    def test_logvar_one_single_dim(self):
        expected = (np.e - 2.0) / 2.0
        assert abs(_kl([0.0], [1.0]) - expected) < 1e-12

    def test_nonnegative_and_zero_only_at_standard_normal(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(0, 2, size=(200, 6))
        logvar = rng.normal(0, 1.5, size=(200, 6))
        values = kl_batch(mu, logvar)
        assert values.shape == (200,)
        assert np.all(values >= 0.0)
        for value, m, lv in zip(values, mu, logvar):
            if value == 0.0:
                assert np.allclose(m, 0) and np.allclose(lv, 0)


class TestWeightTable:
    def test_paper_constant_values(self):
        assert _weights(_instance_grid(300))[0, 0] == 20.0   # 6000/300
        assert _weights(_instance_grid(1000))[0, 0] == 15.0  # floor at nu_min
        assert _weights(_instance_grid(30))[0, 0] == 1.0     # below p_min
        assert _weights(_instance_grid(300))[59, 79] == 1.0  # background

    def test_boundary_is_strict(self):
        # exactly p_min pixels is still ignored; p_min + 1 is weighted
        assert _weights(_instance_grid(40))[0, 0] == 1.0
        assert _weights(_instance_grid(41))[0, 0] == pytest.approx(6000 / 41)

    def test_weight_range_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            seg = rng.integers(0, 5, size=(30, 40)).astype(np.uint16)
            lam = _weights(seg)
            assert np.all(lam[seg == 0] == 1.0)
            nontrivial = lam[lam != 1.0]
            if nontrivial.size:
                assert nontrivial.min() >= 15.0
                assert nontrivial.max() <= 6000.0 / 41.0

    def test_weights_monotone_in_w_const(self):
        rng = np.random.default_rng(2)
        seg = rng.integers(0, 4, size=(40, 40)).astype(np.uint16)
        lam_lo = _weights(seg, replace(VaeConfig(), w_const=3000.0))
        lam_hi = _weights(seg, replace(VaeConfig(), w_const=9000.0))
        assert np.all(lam_hi >= lam_lo)

    def test_validity_gates_the_weight_and_vanilla_is_validity_alone(self):
        rng = np.random.default_rng(5)
        valid = (rng.random((3, 30, 40)) > 0.3).astype(np.uint8)
        seg = np.zeros((3, 30, 40), np.uint16)
        seg[:, :10, :10] = 1  # 100 pixels: weight 60
        semantic = loss_weights(valid, seg, VaeConfig())
        vanilla = loss_weights(valid, seg, VaeConfig(), vanilla=True)
        assert semantic.dtype == vanilla.dtype == np.float32
        assert np.array_equal(vanilla, valid.astype(np.float32))
        assert np.array_equal(semantic, np.where(seg == 1, 60.0, 1.0) * valid)


class TestReconLoss:
    def test_perfect_reconstruction_is_zero(self):
        x = np.random.default_rng(0).random((6, 8))
        assert np.sum(recon_term(x - x, _weights(np.zeros((6, 8), np.uint16)))) == 0.0

    def test_two_by_two_direct_summation(self):
        x = np.zeros((2, 2))
        x_rec = np.array([[0.1, 0.0], [0.0, 0.2]])
        weights = _weights(np.zeros((2, 2), np.uint16))
        assert abs(np.sum(recon_term(x_rec - x, weights)) - 0.05) < 1e-12

    def test_invalid_pixels_contribute_exactly_zero(self):
        rng = np.random.default_rng(3)
        x = rng.random((10, 12))
        x_rec = rng.random((10, 12))
        val = (rng.random((10, 12)) > 0.4).astype(np.uint8)
        seg = rng.integers(0, 3, size=(10, 12)).astype(np.uint16)
        seg[val == 0] = 0
        weights = _weights(seg, valid=val)
        base = np.sum(recon_term(x_rec - x, weights))
        for _ in range(20):
            x2, r2 = x.copy(), x_rec.copy()
            noise = rng.normal(0, 10, size=x.shape)
            x2[val == 0] += noise[val == 0]
            r2[val == 0] -= noise[val == 0]
            assert np.sum(recon_term(r2 - x2, weights)) == base


def _step_with_heads(mu_value: float):
    """loss_and_grads of a tiny model whose heads output mu = mu_value and
    logvar = 0 for every input, and the reconstruction term of its own
    forward: with sigma 1 the latent draw is mu + eps."""
    model = SemanticVae(TINY, seed=3)
    for head, value in ((model.mu_head, mu_value), (model.logvar_head, 0.0)):
        head.params["weight"][...] = 0.0
        head.params["bias"][...] = value
    rng = np.random.default_rng(4)
    x = rng.random((3, 12, 16)).astype(np.float32)
    weights = loss_weights(rng.random(x.shape) > 0.2, np.zeros(x.shape, np.uint16), TINY)
    eps = rng.standard_normal((3, 4)).astype(np.float32)
    x_rec = model.decode_batch(mu_value + eps)
    recon = float(np.sum(recon_term(x_rec - x, weights), axis=(1, 2)).mean())
    return model.loss_and_grads(x, weights, eps), recon


class TestTotalLoss:
    def test_beta_norm_values(self):
        assert paper_vae_config().beta_norm == pytest.approx(128 / 129600, rel=0, abs=0)
        assert VaeConfig().beta_norm == pytest.approx(32 / 4800, rel=0, abs=0)

    def test_zero_kl_reduces_to_recon(self):
        (total, recon_mean, kl_mean), recon = _step_with_heads(0.0)
        assert kl_mean == 0.0
        assert total == recon_mean == recon

    def test_combination_formula(self):
        (total, recon_mean, kl_mean), recon = _step_with_heads(1.0)
        assert kl_mean == 2.0  # J/2 at mu = 1, logvar = 0
        assert recon_mean == recon
        assert total == recon + TINY.beta_norm * 2.0
