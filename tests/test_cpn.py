"""Collision predictor: score contracts, recurrent gradient check, training."""

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from depthnav.cpn import END_TO_END, CollisionPredictor, CpnConfig, binary_auc, train_cpn
from depthnav.data import CollisionSet, FrameSet, LatentCollisionSet, mirrored_half
from depthnav.errors import ShapeError, TrainingError
from depthnav.evaluation import default_state_covariance
from depthnav.nn import lrelu_fingerprint, max_param_error, sigmoid
from depthnav.planner import LibraryConfig, build_library, sigma_points

TINY = CpnConfig(variant="modular", latent_dim=6, horizon=4, hidden=8,
                 perception_embed=8, state_embed=4, action_embed=4)


def _latent_ds(n=160, seed=0, J=6, T=4):
    """Separable toy data: collision iff mu[0] + forward speed is large."""
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=(n, J)).astype(np.float32)
    states = rng.normal(size=(n, 6)).astype(np.float32)
    actions = rng.normal(size=(n, T, 4)).astype(np.float32)
    danger = mu[:, 0] + actions[:, :, 0].mean(axis=1)
    labels = np.zeros((n, T), np.uint8)
    for i in range(n):
        if danger[i] > 0.3:
            onset = int(np.clip(2.0 - danger[i], 0, T - 1))
            labels[i, onset:] = 1
    return LatentCollisionSet(mu, states, actions, labels)


def test_untrained_scores_finite_in_unit_interval():
    model = CollisionPredictor(TINY, seed=0)
    rng = np.random.default_rng(1)
    scores = model.predict(rng.normal(size=6), rng.normal(size=6), rng.normal(size=(4, 4)))
    assert scores.shape == (4,)
    assert np.all(scores >= 0) and np.all(scores <= 1)


def test_scores_invariant_to_batch_order():
    model = CollisionPredictor(TINY, seed=2)
    rng = np.random.default_rng(3)
    mu = rng.normal(size=6)
    states = rng.normal(size=(3, 6)).astype(np.float32)
    actions = rng.normal(size=(7, 4, 4)).astype(np.float32)
    base = model.score_library(mu, states, actions)
    perm = rng.permutation(7)
    shuffled = model.score_library(mu, states, actions[perm])
    assert np.allclose(base[:, perm], shuffled, atol=1e-6)


def test_batched_library_equals_per_sequence_predictions():
    model = CollisionPredictor(TINY, seed=4)
    rng = np.random.default_rng(5)
    mu = rng.normal(size=6)
    state = rng.normal(size=6)
    actions = rng.normal(size=(5, 4, 4)).astype(np.float32)
    batch = model.score_library(mu, state[None], actions)
    for m in range(5):
        single = model.predict(mu, state, actions[m])
        assert np.allclose(batch[0, m], single, atol=1e-6)


# Digests of score_library for seeded default-size models on the full motion
# primitive library (45 sequences x 10 steps) and 13 states.  They pin the
# scores bit for bit: a change to the order of any float operation on the
# inference path moves them.
SCORE_GOLDEN = {
    "modular": "9af7206fdb1735a7d97b7eabaf3d48c093c2e301162047bf4a4010e13bc41f7d",
    END_TO_END: "ec9ef6982e93d3209e429758ea334e54e98c96b286507660a6bcbce43ffe70e2",
}


def _golden_inputs():
    rng = np.random.default_rng(2024)
    states = (rng.normal(size=(13, 6)) * 0.5).astype(np.float32)
    mu = rng.normal(size=32).astype(np.float32)
    frame = rng.random((60, 80)).astype(np.float32)
    return states, {"modular": mu, END_TO_END: frame}


@pytest.mark.parametrize("variant,seed", [("modular", 11), (END_TO_END, 12)])
def test_library_scores_bit_identical(variant, seed):
    states, perception = _golden_inputs()
    model = CollisionPredictor(CpnConfig(variant=variant), seed=seed)
    scores = model.score_library(perception[variant], states, build_library(LibraryConfig()).actions)
    assert scores.shape == (13, 45, 10) and scores.dtype == np.float32
    assert hashlib.sha256(scores.tobytes()).hexdigest() == SCORE_GOLDEN[variant]


def _row_logits(model, pe, se, actions):
    """Reference forward by row from the public layers: B windows are B
    rows, and the GRU cell steps on 2-D rows with no tiling and no cache."""
    b, t = actions.shape[:2]
    h = model.h0_net.forward(np.concatenate([pe, se], axis=1))
    ae = model.action_emb.forward(actions.reshape(b * t, -1).astype(pe.dtype)).reshape(b, t, -1)
    hs = []
    for i in range(t):
        h = model.gru.forward(ae[:, i], h, keep=False)
        hs.append(h)
    return model.head.forward(np.stack(hs, axis=1).reshape(b * t, -1)).reshape(b, t)


def _perception_rows(model, perception):
    x = np.asarray(perception, np.float32)
    if model.cfg.variant == END_TO_END:
        return model.perception.forward(x.reshape(-1, 1, *model.cfg.image_hw))
    return model.perception.forward(x.reshape(-1, model.cfg.latent_dim))


def _tiled_reference(model, perception, states, actions):
    """Scores by row on every (state, sequence) pair: the S states are
    embedded, then tiled with the M sequences into S*M rows."""
    s, m = len(states), len(actions)
    pe = _perception_rows(model, perception)
    se = model.state_emb.forward(np.asarray(states, np.float32))
    logits = _row_logits(model, np.repeat(pe, s * m, axis=0), np.repeat(se, m, axis=0),
                         np.tile(np.asarray(actions, np.float32), (s, 1, 1)))
    return sigmoid(logits).reshape(s, m, -1)


E2E_TINY = CpnConfig(variant=END_TO_END, horizon=3, hidden=8, perception_embed=8,
                     state_embed=4, action_embed=4, image_hw=(12, 16), e2e_channels=(2, 3))


@pytest.mark.parametrize("cfg,dtype", [(TINY, np.float32), (TINY, np.float64),
                                       (E2E_TINY, np.float32), (CpnConfig(), np.float32)])
@pytest.mark.parametrize("s,m", [(1, 1), (1, 6), (5, 1), (13, 7)])
def test_library_scores_equal_tiled_training_forward(cfg, dtype, s, m):
    model = CollisionPredictor(cfg, seed=s * 10 + m, dtype=dtype)
    rng = np.random.default_rng(s * 100 + m)
    if cfg.variant == END_TO_END:
        perception = rng.random(cfg.image_hw)
    else:
        perception = rng.normal(size=cfg.latent_dim)
    states = rng.normal(size=(s, 6))
    actions = rng.normal(size=(m, cfg.horizon, 4)) * 2.0
    scores = model.score_library(perception, states, actions)
    reference = _tiled_reference(model, perception, states, actions)
    assert scores.dtype == reference.dtype and scores.shape == (s, m, cfg.horizon)
    assert scores.tobytes() == reference.tobytes()


def _repeated_states(kind, rng):
    """13 states with repeated rows: score_library runs the recurrence once
    per distinct row and must still match the tiled forward bit for bit."""
    state = rng.normal(size=6)
    if kind == "sigma":  # yaw rate, roll and pitch have zero variance: 7 of 13 rows distinct
        return sigma_points(state, default_state_covariance()).points
    states = np.repeat(state[None], 13, axis=0)
    if kind == "signed-zero":  # two distinct rows, +0.0 and -0.0 in one column
        states[:, 3] = 0.0
        states[::2, 3] = -0.0
    return states


TINY_H1, E2E_TINY_H1 = replace(TINY, horizon=1), replace(E2E_TINY, horizon=1)
# (config, dtype, M); the first six keep their original test ids
REPEATED_CASES = [
    pytest.param(TINY, np.float32, 45, id="cfg0-float32"),
    pytest.param(TINY, np.float64, 45, id="cfg1-float64"),
    pytest.param(E2E_TINY, np.float32, 45, id="cfg2-float32"),
    pytest.param(E2E_TINY, np.float64, 45, id="cfg3-float64"),
    pytest.param(CpnConfig(), np.float32, 45, id="cfg4-float32"),
    pytest.param(CpnConfig(), np.float64, 45, id="cfg5-float64"),
    pytest.param(TINY, np.float32, 1, id="tiny-m1-float32"),
    pytest.param(TINY_H1, np.float32, 45, id="tiny-horizon1-float32"),
    pytest.param(TINY_H1, np.float64, 1, id="tiny-m1-horizon1-float64"),
    pytest.param(E2E_TINY_H1, np.float32, 1, id="e2e-m1-horizon1-float32"),
    pytest.param(CpnConfig(), np.float32, 1, id="default-m1-float32"),
    pytest.param(replace(CpnConfig(), horizon=1), np.float32, 1,
                 id="default-m1-horizon1-float32"),
]


@pytest.mark.parametrize("cfg,dtype,m", REPEATED_CASES)
@pytest.mark.parametrize("kind", ["sigma", "equal", "signed-zero"])
def test_repeated_states_equal_tiled_training_forward(cfg, dtype, m, kind):
    """With M = 1 and horizon 1 and equal states, every product of the
    library form has one row standing for 13 tiled rows."""
    model = CollisionPredictor(cfg, seed=7, dtype=dtype)
    rng = np.random.default_rng(8)
    if cfg.variant == END_TO_END:
        perception = rng.random(cfg.image_hw)
    else:
        perception = rng.normal(size=cfg.latent_dim)
    states = _repeated_states(kind, rng)
    actions = rng.normal(size=(m, cfg.horizon, 4)) * 2.0
    scores = model.score_library(perception, states, actions)
    reference = _tiled_reference(model, perception, states, actions)
    assert scores.dtype == reference.dtype and scores.shape == (13, m, cfg.horizon)
    assert scores.tobytes() == reference.tobytes()


def test_recurrence_runs_once_per_distinct_state(monkeypatch):
    cfg = CpnConfig()
    states = _repeated_states("sigma", np.random.default_rng(0))
    assert len(np.unique(states.astype(np.float32), axis=0)) == 7
    shapes = []

    def recording_sigmoid(x):
        shapes.append(x.shape)
        return sigmoid(x)

    monkeypatch.setattr("depthnav.nn.layers.sigmoid", recording_sigmoid)  # the GRU gates
    monkeypatch.setattr("depthnav.cpn.sigmoid", recording_sigmoid)  # the scores
    model = CollisionPredictor(cfg, seed=0)
    lib = build_library(LibraryConfig())
    model.score_library(np.zeros(cfg.latent_dim), states, lib.actions)
    # two gates a step on (U, M, H), then the scores on the tiled rows
    assert shapes[:-1] == [(7, 45, cfg.hidden)] * (2 * cfg.horizon)
    assert np.prod(shapes[-1]) == 13 * 45 * cfg.horizon


def test_library_scoring_leaves_no_recurrent_cache():
    model = CollisionPredictor(TINY, seed=1)
    rng = np.random.default_rng(2)
    model.score_library(rng.normal(size=6), rng.normal(size=(3, 6)), rng.normal(size=(4, 4, 4)))
    assert model.gru._stack == []
    assert all(layer._cache is None for layer in model.layers())
    assert all(getattr(layer, "last_input", None) is None for layer in model.layers())


def test_training_leaves_no_recurrent_cache():
    model, _ = train_cpn(_latent_ds(40), TINY, seed=0, epochs=1, batch_size=16)
    assert model.gru._stack == []
    assert all(layer._cache is None for layer in model.layers())
    assert all(getattr(layer, "last_input", None) is None for layer in model.layers())


@pytest.mark.parametrize("states,actions", [((0, 6), (3, 4, 4)), ((2, 6), (0, 4, 4)),
                                            ((2, 6), (3, 0, 4))], ids=["S0", "M0", "T0"])
def test_empty_library_inputs_rejected(states, actions):
    model = CollisionPredictor(TINY, seed=1)
    with pytest.raises(ShapeError, match="S, M and T"):
        model.score_library(np.zeros(6), np.zeros(states), np.zeros(actions))


def test_non_finite_scores_raise():
    model = CollisionPredictor(TINY, seed=1)
    model.head.params["bias"][...] = np.nan
    with pytest.raises(TrainingError):
        model.score_library(np.zeros(6), np.zeros((2, 6)), np.zeros((3, 4, 4)))


def test_multiple_perception_inputs_rejected():
    model = CollisionPredictor(TINY, seed=1)
    with pytest.raises(ShapeError):
        model.score_library(np.zeros((2, 6)), np.zeros((2, 6)), np.zeros((3, 4, 4)))


def test_bad_lrelu_slope_rejected():
    for variant in ("modular", END_TO_END):
        for slope in (2.0, -0.5, float("inf")):
            with pytest.raises(ShapeError, match="slope"):
                CollisionPredictor(CpnConfig(variant=variant, lrelu_slope=slope))


@pytest.mark.parametrize("field,bad", [("latent_dim", 0), ("state_dim", 0), ("action_dim", -1),
                                       ("hidden", 0), ("perception_embed", 0), ("state_embed", 0),
                                       ("action_embed", 0), ("image_hw", (0, 80)),
                                       ("e2e_channels", (4, 0, 16))])
def test_zero_width_config_rejected(field, bad):
    # hidden = 0 used to die with ZeroDivisionError inside GRUCell
    with pytest.raises(ShapeError, match=rf"cpn {field} must be .*an integer in \[1, inf\)"):
        CpnConfig(**{field: bad})


def test_dimension_mismatch_rejected():
    model = CollisionPredictor(TINY, seed=0)
    with pytest.raises(ShapeError):
        model.predict(np.zeros(5), np.zeros(6), np.zeros((4, 4)))  # wrong J
    with pytest.raises(ShapeError):
        model.score_library(np.zeros(6), np.zeros((2, 6)), np.zeros((3, 4, 5)))


def test_gradients_through_recurrent_unrolling():
    cfg = TINY
    model = CollisionPredictor(cfg, seed=6, dtype=np.float64)
    rng = np.random.default_rng(7)
    mu = rng.normal(size=(3, cfg.latent_dim))
    states = rng.normal(size=(3, 6))
    actions = rng.normal(size=(3, cfg.horizon, 4))
    labels = (rng.random((3, cfg.horizon)) > 0.6).astype(np.uint8)

    def loss_and_grads():
        model.zero_grad()
        loss = model.loss_and_grads(mu, states, actions, labels, pos_weight=2.0)
        return loss, {k: v.copy() for k, v in model.grads().items()}

    err = max_param_error(loss_and_grads, model.params(), max_coords=15,
                          rng=np.random.default_rng(1),
                          fingerprint_fn=lambda: lrelu_fingerprint(model.layers()))
    assert err < 1e-4, f"max relative error {err}"


def test_end_to_end_variant_gradients_and_shapes():
    cfg = CpnConfig(variant="end-to-end", horizon=3, hidden=8, perception_embed=8,
                    state_embed=4, action_embed=4, image_hw=(12, 16), e2e_channels=(2, 3))
    model = CollisionPredictor(cfg, seed=8, dtype=np.float64)
    rng = np.random.default_rng(9)
    frames = rng.random((2, 12, 16))
    states = rng.normal(size=(2, 6))
    actions = rng.normal(size=(2, 3, 4))
    labels = (rng.random((2, 3)) > 0.5).astype(np.uint8)

    def loss_and_grads():
        model.zero_grad()
        loss = model.loss_and_grads(frames, states, actions, labels)
        return loss, {k: v.copy() for k, v in model.grads().items()}

    err = max_param_error(loss_and_grads, model.params(), max_coords=10,
                          rng=np.random.default_rng(2),
                          fingerprint_fn=lambda: lrelu_fingerprint(model.layers()))
    assert err < 1e-4, f"max relative error {err}"


def test_training_learns_separable_toy_problem():
    ds = _latent_ds(400)
    model, history = train_cpn(ds, TINY, seed=1, epochs=30, lr=3e-3, batch_size=64)
    assert history[-1].val_auc > 0.85
    assert history[-1].val_acc > 0.8
    assert history[-1].val_bce < history[0].val_bce


def test_same_seed_bit_identical_checkpoint(tmp_path):
    ds = _latent_ds(120)
    for run in ("a", "b"):
        train_cpn(ds, TINY, seed=5, epochs=2, batch_size=32, out_dir=tmp_path / run)
    assert (tmp_path / "a" / "cpn_modular.ckpt").read_bytes() == \
        (tmp_path / "b" / "cpn_modular.ckpt").read_bytes()


# Digests of seeded training runs of default-width predictors (horizon 4):
# every parameter and every per-epoch statistic, bit for bit.
TRAIN_GOLDEN = {
    "modular": "bc5da9877ebf66d146a748689ebf4e650ef0d49b9a3905fdc94fcd03fa4e72d5",
    END_TO_END: "cd9dd78a491f7a4b1d3771984f545e8d39e7fae8d965fe05c2902a1c58f3c6b6",
}


def _frame_ds(n=72, seed=0, T=4):
    """Raw-frame windows at 60x80 with the toy data's collision rule."""
    latent = _latent_ds(n, seed=seed, J=6, T=T)
    rng = np.random.default_rng(seed + 1)
    x = rng.random((n, 60, 80)).astype(np.float32)
    x[:, 20:40, 30:50] *= (0.5 + 0.5 * np.tanh(latent.mu[:, 0]))[:, None, None]
    frames = FrameSet(x, np.ones(x.shape, np.uint8), np.zeros(x.shape, np.uint16))
    return CollisionSet(frames, latent.states, latent.actions, latent.labels)


@pytest.mark.parametrize("variant", ["modular", END_TO_END])
def test_training_run_bit_identical(variant):
    if variant == "modular":
        ds, cfg = _latent_ds(160, seed=8), CpnConfig(latent_dim=6, horizon=4)
    else:
        ds, cfg = _frame_ds(72, seed=9), CpnConfig(variant=END_TO_END, horizon=4)
    model, history = train_cpn(ds, cfg, seed=13, epochs=2, batch_size=32)
    h = hashlib.sha256()
    for arr in model.params().values():
        h.update(arr.tobytes())
    h.update(np.array([astuple(s) for s in history], dtype=np.float64).tobytes())
    assert h.hexdigest() == TRAIN_GOLDEN[variant]


# sha256 of the checkpoints seeded training runs write, one per variant
CHECKPOINT_GOLDEN = {
    "cpn_modular.ckpt": "3c0a4ac4ab1d8936e024219d1fe95fc9f05fdbc049d043d48d49133b95215a88",
    "cpn_end_to_end.ckpt": "052dfc7f4ae31b612e1eb972ff41e434b86bfcbd840877a882c97f1b3747b2f4",
}


def test_checkpoints_bit_identical(tmp_path):
    train_cpn(_latent_ds(120), TINY, seed=5, epochs=2, batch_size=32, out_dir=tmp_path)
    e2e = CpnConfig(variant=END_TO_END, horizon=4, hidden=8, perception_embed=8,
                    state_embed=4, action_embed=4, e2e_channels=(2, 3))
    train_cpn(_frame_ds(40, seed=9), e2e, seed=6, epochs=2, batch_size=16, out_dir=tmp_path)
    for name, want in CHECKPOINT_GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
    header = (tmp_path / "cpn_modular_metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,train_bce,val_bce,val_auc,val_acc"


@pytest.mark.parametrize("schedule", [{"batch_size": 0}, {"epochs": 0},
                                      {"split_ratio": 0.0}, {"split_ratio": -1.0},
                                      {"split_ratio": 1.01}, {"lr": 0.0}, {"lr": -1e-3},
                                      {"lr": float("nan")}])
def test_bad_schedule_rejected_before_any_file_is_written(schedule, tmp_path):
    # the message names the bad setting: a NaN lr used to fail only after a
    # step, as a non-finite latent or loss
    with pytest.raises(TrainingError, match=next(iter(schedule))):
        train_cpn(_latent_ds(20), TINY, seed=0, out_dir=tmp_path / "out",
                  **{"epochs": 1, **schedule})
    assert not (tmp_path / "out").exists()


def test_checkpoint_round_trip_preserves_predictions(tmp_path):
    ds = _latent_ds(80)
    model, _ = train_cpn(ds, TINY, seed=3, epochs=2, batch_size=32)
    model.save(tmp_path / "m.ckpt")
    loaded = CollisionPredictor.load(tmp_path / "m.ckpt")
    rng = np.random.default_rng(0)
    mu, state = rng.normal(size=6), rng.normal(size=6)
    actions = rng.normal(size=(4, 4))
    assert np.array_equal(model.predict(mu, state, actions),
                          loaded.predict(mu, state, actions))


def _mirrored_latent_ds(n=80, seed=0):
    """Toy windows followed by mirror copies whose latent is an unrelated
    draw, as an encoder may place a mirrored frame anywhere."""
    ds = _latent_ds(n, seed=seed)
    states, actions = ds.states.copy(), ds.actions.copy()
    states[:, [1, 3, 4]] *= -1.0
    actions[:, :, [1, 3]] *= -1.0
    mu = np.random.default_rng(seed + 1).normal(size=ds.mu.shape).astype(np.float32)
    return LatentCollisionSet(np.concatenate([ds.mu, mu]), np.concatenate([ds.states, states]),
                              np.concatenate([ds.actions, actions]),
                              np.concatenate([ds.labels, ds.labels]))


def test_mirror_pair_term_gradients():
    rng = np.random.default_rng(7)
    cpn = CollisionPredictor(TINY, seed=3, dtype=np.float64)
    ds = _mirrored_latent_ds(3, seed=2)
    mu = rng.normal(size=ds.mu.shape)

    def fn():
        cpn.zero_grad()
        loss = cpn.loss_and_grads(mu, ds.states.astype(np.float64),
                                  ds.actions.astype(np.float64), ds.labels, pos_weight=2.5,
                                  mirrored=True)
        return loss, {k: v.copy() for k, v in cpn.grads().items()}

    err = max_param_error(fn, cpn.params(), max_coords=5, rng=np.random.default_rng(0),
                          fingerprint_fn=lambda: lrelu_fingerprint(cpn.layers()))
    assert err < 1e-4


def test_mirror_pair_term_is_the_symmetric_kl_of_the_pair():
    cpn = CollisionPredictor(TINY, seed=1, dtype=np.float64)
    ds = _mirrored_latent_ds(4, seed=5)
    args = (ds.mu.astype(np.float64), ds.states.astype(np.float64),
            ds.actions.astype(np.float64), ds.labels)
    plain = cpn.loss_and_grads(*args, pos_weight=2.0)
    paired = cpn.loss_and_grads(*args, pos_weight=2.0, mirrored=True)
    logits = _row_logits(cpn, _perception_rows(cpn, args[0]), cpn.state_emb.forward(args[1]),
                         args[2])
    p, w = sigmoid(logits), np.where(ds.labels[:4] > 0, 2.0, 1.0)
    kl = lambda a, b: a * np.log(a / b) + (1 - a) * np.log((1 - a) / (1 - b))  # noqa: E731
    jeffreys = w * (kl(p[:4], p[4:]) + kl(p[4:], p[:4]))
    assert np.isclose(paired - plain, jeffreys.sum() / logits.size, rtol=1e-9)


def test_mirrored_set_trains_by_pair(monkeypatch):
    ds = _mirrored_latent_ds(60)
    assert mirrored_half(ds.states, ds.actions, ds.labels) == 60
    seen = []
    original = CollisionPredictor.loss_and_grads

    def spy(self, perception, states, actions, labels, pos_weight=1.0, mirrored=False):
        seen.append((len(states), mirrored, mirrored_half(states, actions, labels)))
        return original(self, perception, states, actions, labels, pos_weight, mirrored)

    monkeypatch.setattr(CollisionPredictor, "loss_and_grads", spy)
    train_cpn(ds, TINY, seed=0, epochs=1, batch_size=32)
    # 48 training pairs in batches of 16 pairs, each batch a mirrored set
    assert seen == [(32, True, 16)] * 3


def test_binary_auc_reference_values():
    assert binary_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert binary_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0
    assert binary_auc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, 1, 0, 0])) == 0.5
    assert np.isnan(binary_auc(np.array([0.5]), np.array([1])))
