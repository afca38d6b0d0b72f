"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s to watch).  Absolute magnitudes from the
full-scale experiments are not reproducible at desk scale; the suite
therefore combines exact property checks with scaled ordering
reproductions, at the tolerances fixed below.
"""

import time

import numpy as np
import pytest

from depthnav.camera import CameraModel, NoiseParams, corrupt, render_from_state
from depthnav.cpn import CollisionPredictor, CpnConfig
from depthnav.data import FrameSet, load_dataset, save_dataset
from depthnav.errors import CheckpointError, DatasetError
from depthnav.evaluation import (
    MissionSetup,
    end_to_end_arm,
    eval_reconstruction,
    fft_reconstructor,
    modular_arm,
    oracle_arm,
    run_campaign,
    run_mission,
    vae_reconstructor,
)
from depthnav.fft_codec import fft2, fft_topk_reconstruct, ifft2
from depthnav.nn import (
    Conv2d,
    Deconv2d,
    Dense,
    GRUCell,
    max_param_error,
)
from depthnav.planner import (
    build_library,
    sigma_points,
    uncertainty_aware_score,
    ut_reconstruct,
)
from depthnav.vae import (
    SemanticVae,
    VaeConfig,
    kl_batch,
    loss_weights,
    paper_vae_config,
    recon_term,
    train_vae,
)
from depthnav.world import (
    desk_world_params,
    generate_world,
    hover_state,
    rollout_collision_matrix,
)

THRESHOLD = 0.3  # planner safe-set cutoff used throughout


def _report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient integrity: every layer and loss, FD error < 1e-4, 20 seeds, <2min
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_integrity(lrelu_fingerprint):
    t0 = time.time()
    worst = 0.0

    def check(fn, params, fingerprint=None, max_coords=None, rng=None):
        nonlocal worst
        err = max_param_error(fn, params, max_coords=max_coords, rng=rng,
                              fingerprint_fn=fingerprint)
        worst = max(worst, err)
        assert err < 1e-4, f"relative error {err}"

    tiny_vae = VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5),
                         hidden=16, w_const=220.0, p_min=2)
    tiny_cpn = CpnConfig(variant="modular", latent_dim=5, horizon=4, hidden=8,
                         perception_embed=8, state_embed=4, action_embed=4)

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)

        # individual layer kinds on random small shapes
        for layer, x_shape in [
            (Dense(5, 4, rng=rng, dtype=np.float64), (3, 5)),
            (Conv2d(2, 3, (3, 3), 1, rng=rng, dtype=np.float64), (2, 2, 5, 6)),
            (Conv2d(2, 3, (3, 3), 2, rng=rng, dtype=np.float64), (2, 2, 7, 6)),
            (Deconv2d(3, 2, out_hw=(7, 6), kernel=(3, 3), stride=2, rng=rng,
                      dtype=np.float64), (2, 3, 4, 3)),
        ]:
            x = rng.standard_normal(x_shape)
            probe = rng.standard_normal(layer.forward(x).shape)
            layer._cache = None

            def layer_fn(layer=layer, x=x, probe=probe):
                layer.zero_grad()
                y = layer.forward(x)
                layer.backward(probe)
                return float((y * probe).sum()), {k: v.copy() for k, v in layer.grads.items()}

            check(layer_fn, layer.params)

        gru = GRUCell(3, 4, rng=rng, dtype=np.float64)
        xg = rng.standard_normal((2, 3))
        h0 = rng.standard_normal((2, 4))
        probe_g = rng.standard_normal((2, 4))

        def gru_fn():
            gru.zero_grad()
            gru.reset()
            h1 = gru.forward(xg, h0)
            h2 = gru.forward(0.5 * xg, h1)
            loss = float((h2 * probe_g).sum())
            _, dh = gru.backward(probe_g)
            gru.backward(dh)
            return loss, {k: v.copy() for k, v in gru.grads.items()}

        check(gru_fn, gru.params)

        # masked + weighted reconstruction and KL through the reparameterization
        vae = SemanticVae(tiny_vae, seed=seed, dtype=np.float64)
        xv = rng.random((2, 12, 16))
        seg = np.zeros((2, 12, 16), np.uint16)
        seg[:, 2:9, 3:6] = 1
        val = (rng.random(xv.shape) > 0.25).astype(np.float64)
        weights = loss_weights(val, seg, tiny_vae)
        eps = rng.standard_normal((2, 4))

        def vae_fn():
            vae.zero_grad()
            loss, _, _ = vae.loss_and_grads(xv, weights, eps)
            return loss, {k: v.copy() for k, v in vae.grads().items()}

        check(vae_fn, vae.params(), max_coords=5, rng=np.random.default_rng(seed),
              fingerprint=lrelu_fingerprint(vae.layers()))

        # per-step cross entropy through the recurrent unrolling
        cpn = CollisionPredictor(tiny_cpn, seed=seed, dtype=np.float64)
        mu = rng.normal(size=(2, 5))
        states = rng.normal(size=(2, 6))
        actions = rng.normal(size=(2, 4, 4))
        labels = (rng.random((2, 4)) > 0.5).astype(np.uint8)

        def cpn_fn():
            cpn.zero_grad()
            loss = cpn.loss_and_grads(mu, states, actions, labels, pos_weight=3.0)
            return loss, {k: v.copy() for k, v in cpn.grads().items()}

        check(cpn_fn, cpn.params(), max_coords=5, rng=np.random.default_rng(seed),
              fingerprint=lrelu_fingerprint(cpn.layers()))

    elapsed = time.time() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s (budget 120s)"
    _report(1, f"all layers and losses, 20 seeds, max rel err {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. Loss-formula unit suite: exact values
# ---------------------------------------------------------------------------

def test_criterion_2_loss_formula_unit_suite():
    assert paper_vae_config().beta_norm == 128 / 129600
    assert VaeConfig().beta_norm == 32 / 4800

    # the terms train_vae's step and validation call, at the paper's
    # constants (w_const 6000, nu_min 15, p_min 40)
    cfg = VaeConfig()

    def weight_of(pixels):
        seg = np.zeros((1, 400, 400), np.uint16)
        seg.flat[:pixels] = 1
        return loss_weights(np.ones(seg.shape), seg, cfg)[0, 0, 0]

    assert weight_of(300) == 20.0
    assert weight_of(1000) == 15.0
    assert weight_of(30) == 1.0
    seg = np.zeros((1, 10, 10), np.uint16)
    assert np.all(loss_weights(np.ones(seg.shape), seg, cfg) == 1.0)

    assert kl_batch(np.zeros((1, 4)), np.zeros((1, 4)))[0] == 0.0
    assert kl_batch(np.array([[1.0]]), np.array([[0.0]]))[0] == 0.5

    rng = np.random.default_rng(0)
    x, xr = rng.random((8, 9)), rng.random((8, 9))
    val = (rng.random((8, 9)) > 0.5).astype(np.uint8)
    seg = rng.integers(0, 3, (8, 9)).astype(np.uint16)
    seg[val == 0] = 0
    weights = loss_weights(val[None], seg[None], cfg)[0]
    base = np.sum(recon_term(xr - x, weights))
    x2, xr2 = x.copy(), xr.copy()
    x2[val == 0] = 123.0
    xr2[val == 0] = -55.0
    assert np.sum(recon_term(xr2 - x2, weights)) == base
    _report(2, "beta_norm, weight table, KL values, masking invariance all exact")


# ---------------------------------------------------------------------------
# 3. Reconstruction ordering at desk scale (needs the trained stack)
# ---------------------------------------------------------------------------

def test_criterion_3_reconstruction_orderings(desk_stack):
    t0 = time.time()
    report = eval_reconstruction(
        {"corrupted": desk_stack.eval_noisy, "clean-sim": desk_stack.eval_clean},
        {"fft": fft_reconstructor(64),
         "vanilla-vae": vae_reconstructor(desk_stack.vanilla),
         "sevae": vae_reconstructor(desk_stack.sevae)},
    )
    eval_time = time.time() - t0
    sem_sevae = report.value("sevae", "corrupted", "semantic")
    sem_vanilla = report.value("vanilla-vae", "corrupted", "semantic")
    sem_fft = report.value("fft", "corrupted", "semantic")
    whole_sevae = report.value("sevae", "corrupted", "whole_image")
    whole_vanilla = report.value("vanilla-vae", "corrupted", "whole_image")

    assert sem_sevae < sem_vanilla / 1.5, \
        f"semantic ratio {sem_sevae / sem_vanilla:.3f} > 1/1.5"
    assert sem_sevae < sem_fft
    assert whole_vanilla <= whole_sevae * 1.05

    budget = desk_stack.timings["corpus"] + desk_stack.timings["vae_training"] + \
        desk_stack.timings["eval_frames"] + eval_time
    assert budget < 3600.0, f"criterion-3 path took {budget:.0f}s (budget 3600s)"
    _report(3, f"semantic {sem_sevae:.2f} < vanilla {sem_vanilla:.2f}/1.5 and "
               f"< fft {sem_fft:.2f}; whole {whole_vanilla:.2f} <= "
               f"{whole_sevae:.2f}*1.05; path {budget:.0f}s")


# ---------------------------------------------------------------------------
# 4. FFT baseline exactness
# ---------------------------------------------------------------------------

def test_criterion_4_fft_exactness():
    rng = np.random.default_rng(0)
    x = rng.random((60, 80))
    assert np.abs(ifft2(fft2(x)).real - x).max() < 1e-5

    uu, vv = np.meshgrid(np.arange(60), np.arange(80), indexing="ij")
    img = np.full((60, 80), 0.5)
    freqs = [(2, 3), (5, 1), (0, 7), (4, 4), (7, 2), (1, 6), (6, 5), (3, 8)]
    for fu, fv in freqs:  # 8 cosines = k/2 for k = 16
        img = img + 0.03 * np.cos(2 * np.pi * (fu * uu / 60 + fv * vv / 80))
    assert np.abs(fft_topk_reconstruct(img, 16) - img).max() < 1e-5

    frame_x = rng.random((60, 80))
    errors = [float(((fft_topk_reconstruct(frame_x, k, clamp_output=False) - frame_x) ** 2).sum())
              for k in (8, 32, 128, 512, 4800)]
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))
    _report(4, f"round-trip exact, cosine budget exact, error monotone {[f'{e:.2f}' for e in errors]}")


# ---------------------------------------------------------------------------
# 5. Unscented transform suite
# ---------------------------------------------------------------------------

def test_criterion_5_unscented_transform():
    sp = sigma_points(np.zeros(6), np.eye(6))
    assert sp.points.shape[0] == 13

    rng = np.random.default_rng(1)
    worst_m, worst_c = 0.0, 0.0
    for _ in range(100):
        mean = rng.normal(size=6)
        a = rng.normal(size=(6, 6))
        cov = a @ a.T
        spi = sigma_points(mean, cov)
        m, c = ut_reconstruct(spi)
        worst_m = max(worst_m, float(np.abs(m - mean).max()))
        worst_c = max(worst_c, float(np.abs(c - cov).max() / max(1.0, np.abs(cov).max())))
    assert worst_m < 1e-10 and worst_c < 1e-10

    # zero covariance degenerates to the single-point max over the horizon
    class StepRamp:
        def score_library(self, perception, states, actions):
            ramp = np.linspace(0.05, 0.45, actions.shape[1])
            return np.broadcast_to(ramp, (len(states), len(actions), len(ramp))).copy()

    sp0 = sigma_points(np.array([1.0, 0, 0, 0, 0, 0]), np.zeros((6, 6)))
    uac = uncertainty_aware_score(StepRamp(), None, sp0, np.zeros((4, 7, 4), np.float32))
    assert np.allclose(uac, 0.45, atol=1e-12)
    _report(5, f"13 points; mean err {worst_m:.1e}, cov err {worst_c:.1e}; "
               f"zero-cov degeneracy exact")


# ---------------------------------------------------------------------------
# 6. Oracle-swap planner correctness on sparse desk worlds
# ---------------------------------------------------------------------------

def test_criterion_6_oracle_swap_planner():
    setup = MissionSetup()
    successes, violations, cycles_total = 0, 0, 0
    for i in range(20):
        seed = 2000 + i
        world = generate_world(desk_world_params("sparse", seed=seed))
        result = run_mission(world, 45.0, oracle_arm(), setup, seed=seed)
        successes += int(result.success)
        cycles_total += result.cycles
        for diag in result.diagnostics:
            # ground-truth scores are exactly 0 or 1: a violation is choosing
            # a colliding sequence while some sequence was collision-free
            if diag.chosen_score > 0.5 and diag.min_score < 0.5:
                violations += 1
    assert successes >= 18, f"oracle swap: {successes}/20 sparse successes"
    assert violations == 0
    _report(6, f"{successes}/20 successes, 0 violations over {cycles_total} planning cycles")


# ---------------------------------------------------------------------------
# 7. Campaign ordering at desk scale (needs both trained arms)
# ---------------------------------------------------------------------------

def test_criterion_7_campaign_orderings(desk_stack):
    t0 = time.time()
    arms = {
        "modular": modular_arm(desk_stack.sevae, desk_stack.cpn_modular),
        "end-to-end": end_to_end_arm(desk_stack.cpn_e2e),
    }
    report = run_campaign(arms, environments=("sparse", "dense"), runs=20,
                          base_seed=1000, setup=desk_stack.setup)
    campaign_time = time.time() - t0
    print("\n" + report.table())

    mod_dense = report.success_count("dense", "modular")
    e2e_dense = report.success_count("dense", "end-to-end")
    mod_sparse = report.success_count("sparse", "modular")
    e2e_sparse = report.success_count("sparse", "end-to-end")
    assert mod_dense >= e2e_dense, f"dense: modular {mod_dense} < end-to-end {e2e_dense}"
    assert mod_sparse >= 15, f"sparse modular {mod_sparse}/20 < 15"
    assert e2e_sparse >= 15, f"sparse end-to-end {e2e_sparse}/20 < 15"

    budget = desk_stack.timings["collisions"] + desk_stack.timings["cpn_training"] + \
        campaign_time
    assert budget < 5400.0, f"criterion-7 path took {budget:.0f}s (budget 5400s)"
    _report(7, f"dense {mod_dense} >= {e2e_dense}; sparse {mod_sparse}/20 and "
               f"{e2e_sparse}/20 >= 15; path {budget:.0f}s")


# ---------------------------------------------------------------------------
# 8. Misclassification of colliding primitives on corrupted thin-obstacle frames
# ---------------------------------------------------------------------------

def test_criterion_8_thin_obstacle_misclassification(desk_stack):
    setup = desk_stack.setup
    library = build_library(setup.library)
    sigma = np.diag([0.04, 0.04, 0.04, 0.0, 0.0, 0.0])
    cruise = np.array([1.0, 0.0, 0.0])

    frames, gt_rows = [], []
    rng = np.random.default_rng(4242)
    world_seed = 5000
    while len(frames) < 50:
        world_seed += 1
        world = generate_world(desk_world_params("dense", seed=world_seed))
        for _ in range(6):
            x = rng.uniform(14.0, 43.0)
            y = rng.uniform(2.0, 13.0)
            state = hover_state([x, y, 1.0], yaw=float(rng.uniform(-0.4, 0.4)))
            state.velocity = cruise.copy()
            from depthnav.world import check_collision

            if check_collision(world, state.position, 0.3):
                continue
            clean = render_from_state(world, desk_stack.camera, state)
            if (clean.seg > 0).sum() < 25:
                continue  # needs visible thin obstacles
            gt = rollout_collision_matrix(world, state, library.actions, setup.dt)
            colliding = gt.max(axis=1) > 0
            if colliding.sum() < 3 or colliding.sum() > len(library) - 3:
                continue
            noisy = corrupt(clean, desk_stack.noise.with_seed(world_seed * 100 + len(frames)),
                            max_range=desk_stack.camera.max_range)
            frames.append((noisy, state.partial_state(), colliding))

    def misclassified_fraction(score_fn):
        missed, total = 0, 0
        for noisy, partial, colliding in frames:
            sp = sigma_points(partial, sigma)
            scores = score_fn(noisy, sp)
            missed += int(((scores < THRESHOLD) & colliding).sum())
            total += int(colliding.sum())
        return missed / total, total

    def modular_scores(noisy, sp):
        mu = desk_stack.sevae.encode(noisy).mu
        return uncertainty_aware_score(desk_stack.cpn_modular, mu, sp, library.actions)

    def e2e_scores(noisy, sp):
        return uncertainty_aware_score(desk_stack.cpn_e2e, noisy.x, sp, library.actions)

    frac_mod, n_cases = misclassified_fraction(modular_scores)
    frac_e2e, _ = misclassified_fraction(e2e_scores)
    assert frac_mod < frac_e2e, \
        f"modular misses {frac_mod:.3f} not below end-to-end {frac_e2e:.3f}"
    _report(8, f"missed-collision fraction modular {frac_mod:.3f} < end-to-end "
               f"{frac_e2e:.3f} over {len(frames)} frames / {n_cases} colliding primitives")


# ---------------------------------------------------------------------------
# 9. Determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_persistence(tmp_path):
    from depthnav.pipeline import render_vae_corpus

    camera = CameraModel()
    noise = NoiseParams()
    tiny_cfg = VaeConfig(height=12, width=16, latent_dim=4, enc_channels=(2, 3, 4, 5),
                         hidden=16)

    # datasets: identical (config, seed) -> identical bytes, CRC verified
    for name in ("a", "b"):
        _, noisy = render_vae_corpus(20, camera, noise, seed=33)
        save_dataset(tmp_path / f"frames_{name}.dset", noisy)
    bytes_a = (tmp_path / "frames_a.dset").read_bytes()
    assert bytes_a == (tmp_path / "frames_b.dset").read_bytes()
    loaded = load_dataset(tmp_path / "frames_a.dset")
    assert len(loaded) == 20

    corrupted = bytearray(bytes_a)
    corrupted[50] ^= 0x1
    (tmp_path / "frames_bad.dset").write_bytes(bytes(corrupted))
    with pytest.raises(DatasetError, match="CRC"):
        load_dataset(tmp_path / "frames_bad.dset")

    # checkpoints: identical seeds -> identical bytes, CRC verified
    rng = np.random.default_rng(0)
    frames = FrameSet(rng.random((30, 12, 16), dtype=np.float32),
                      np.ones((30, 12, 16), np.uint8), np.zeros((30, 12, 16), np.uint16))
    for name in ("a", "b"):
        model, _ = train_vae(frames, tiny_cfg, seed=9, epochs=2, lr=1e-3, batch_size=8)
        model.save(tmp_path / f"vae_{name}.ckpt")
    ckpt = (tmp_path / "vae_a.ckpt").read_bytes()
    assert ckpt == (tmp_path / "vae_b.ckpt").read_bytes()
    broken = bytearray(ckpt)
    broken[-10] ^= 0xFF
    (tmp_path / "vae_bad.ckpt").write_bytes(bytes(broken))
    with pytest.raises(CheckpointError, match="CRC"):
        SemanticVae.load(tmp_path / "vae_bad.ckpt")

    # reports: identical (config, seed) -> identical bytes
    from depthnav.world import WorldGenParams

    def small_worlds(env, seed=0):
        return WorldGenParams(radii=desk_world_params(env).radii, section_size=5.0,
                              seed=seed)

    reports = []
    for _ in range(2):
        rep = run_campaign({"oracle": oracle_arm()}, environments=("sparse",), runs=2,
                           base_seed=70, setup=MissionSetup(),
                           world_params_fn=small_worlds)
        reports.append(rep.to_csv() + rep.outcomes_csv())
    assert reports[0] == reports[1]
    _report(9, "bit-identical datasets, checkpoints, and reports; CRC rejection verified")


# ---------------------------------------------------------------------------
# Trained-model spot checks from the module contracts (not numbered criteria)
# ---------------------------------------------------------------------------

def test_trained_cpn_scenario_scores(desk_stack):
    """Low scores flying straight in the open; high scores at a wall."""
    from depthnav.world import World, empty_world

    setup = desk_stack.setup
    library = build_library(setup.library)
    straight = library.actions[library.straight_index]
    cruise = np.array([1.0, 0, 0, 0, 0, 0], dtype=np.float64)

    open_world = empty_world(extent=60.0)
    state = hover_state([5.0, 30.0, 1.0])
    state.velocity = np.array([1.0, 0.0, 0.0])
    frame = corrupt(render_from_state(open_world, desk_stack.camera, state),
                    desk_stack.noise.with_seed(1), max_range=desk_stack.camera.max_range)
    mu = desk_stack.sevae.encode(frame).mu
    open_scores = desk_stack.cpn_modular.predict(mu, cruise, straight)
    assert open_scores.mean() < 0.2, f"open-world straight scored {open_scores.mean():.3f}"

    wall = World(cylinders=np.zeros((0, 5)),
                 boxes=np.array([[6.0, 30.0, 0.3, 60.0, 0.0, 4.0, 0.0]]),
                 bounds=(0, 0, 12, 60), ceiling=4.0)
    state = hover_state([5.0, 30.0, 1.0])  # wall 1 m ahead at full speed
    state.velocity = np.array([1.0, 0.0, 0.0])
    frame = corrupt(render_from_state(wall, desk_stack.camera, state),
                    desk_stack.noise.with_seed(2), max_range=desk_stack.camera.max_range)
    mu = desk_stack.sevae.encode(frame).mu
    wall_scores = desk_stack.cpn_modular.predict(mu, cruise, straight)
    assert wall_scores[-1] > 0.8, f"wall-ahead horizon-end score {wall_scores[-1]:.3f}"


def test_trained_cpn_flip_symmetry(desk_stack):
    """Augmented training makes predictions roughly mirror-equivariant."""
    from depthnav.data import flip_augment_set

    ds = desk_stack.collisions
    rng = np.random.default_rng(0)
    idx = rng.choice(len(ds), size=64, replace=False)
    sub = ds.subset(idx)
    flipped = flip_augment_set(sub)
    diffs = []
    for i in range(len(sub)):
        mu_a = desk_stack.sevae.encode(sub.frames.frame(i)).mu
        mu_b = desk_stack.sevae.encode(flipped.frames.frame(i)).mu
        score_a = desk_stack.cpn_modular.predict(mu_a, sub.states[i], sub.actions[i])
        score_b = desk_stack.cpn_modular.predict(mu_b, flipped.states[i], flipped.actions[i])
        diffs.append(np.abs(score_a - score_b).mean())
    assert float(np.mean(diffs)) < 0.1, f"flip MAD {np.mean(diffs):.3f}"


def test_trained_cpn_speed_monotonicity(desk_stack):
    """Head-on wall: faster commands never look safer (tolerance 0.02)."""
    from depthnav.world import World

    wall = World(cylinders=np.zeros((0, 5)),
                 boxes=np.array([[7.0, 30.0, 0.3, 60.0, 0.0, 4.0, 0.0]]),
                 bounds=(0, 0, 12, 60), ceiling=4.0)
    state = hover_state([5.0, 30.0, 1.0])
    state.velocity = np.array([0.8, 0.0, 0.0])
    frame = corrupt(render_from_state(wall, desk_stack.camera, state),
                    desk_stack.noise.with_seed(3), max_range=desk_stack.camera.max_range)
    mu = desk_stack.sevae.encode(frame).mu
    partial = state.partial_state()
    ends = []
    for speed in (0.6, 0.9, 1.2):
        seq = np.tile([speed, 0.0, 0.0, 0.0], (10, 1)).astype(np.float32)
        ends.append(float(desk_stack.cpn_modular.predict(mu, partial, seq)[-1]))
    assert ends[1] >= ends[0] - 0.02
    assert ends[2] >= ends[1] - 0.02
