"""End-to-end data plumbing: render autoencoder corpora, collect collision
episodes, corrupt copies deterministically, and stitch the training stages
together.  Everything is reproducible from (config, seed)."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, NoiseParams, corrupt, frame_seed, render_from_state
from .config import AppConfig, world_params_fn
from .cpn import END_TO_END, MODULAR, CollisionPredictor, CpnConfig, train_cpn
from .data import (
    CollisionSet,
    FrameSet,
    LatentCollisionSet,
    encode_in_batches,
    label_episode,
    with_flip_augmentation,
)
from .errors import DatasetError, WorldError
from .vae import SemanticVae, train_vae
from .world import (
    DynamicsParams,
    desk_world_params,
    find_free_start,
    generate_world,
    hover_state,
    min_clearance,
    rollout_episode,
    wrap_angle,
)


# consecutive pose draws that may all miss before a world counts as having no
# free pose (a normal world misses a handful in a row at most)
POSE_DRAWS = 200


def _draw_pose(draw):
    """Repeat draw() until it returns a (world, state) pose; DatasetError once
    POSE_DRAWS draws in a row have missed."""
    for _ in range(POSE_DRAWS):
        pose = draw()
        if pose is not None:
            return pose
    raise DatasetError(f"no free pose in {POSE_DRAWS} consecutive draws; "
                       "the worlds leave no room for the camera")


def _world_picker(rng, environments, worlds_per_env: int, world_params_fn):
    """Draw the seed of every world (environment-major) from rng now, and
    return pick() -> World, which draws a world index from rng and builds
    that world on its first draw only.  DatasetError for an empty list."""
    if worlds_per_env < 1 or not environments:
        raise DatasetError(f"no worlds to draw from: environments={tuple(environments)}, "
                           f"worlds_per_env={worlds_per_env}")
    params = [world_params_fn(env, seed=int(rng.integers(2**31)))
              for env in environments for _ in range(worlds_per_env)]
    built = {}

    def pick():
        i = int(rng.integers(len(params)))
        if i not in built:
            built[i] = generate_world(params[i])
        return built[i]

    return pick


def _corrupted(frames: FrameSet, rows: range, noise: NoiseParams, base_seed: int,
               max_range: float):
    """The corrupted copy of each frame in rows, seeded from (base_seed, row)."""
    for i in rows:
        yield corrupt(frames.frame(i), noise.with_seed(frame_seed(base_seed, i)), max_range)


def corrupt_frameset(frames: FrameSet, noise: NoiseParams, base_seed: int,
                     max_range: float) -> FrameSet:
    """Per-frame corruption with seeds derived from (base_seed, index)."""
    out = FrameSet.empty(len(frames), frames.x.shape[1:])
    for i, noisy in enumerate(_corrupted(frames, range(len(frames)), noise, base_seed,
                                         max_range)):
        out.put(i, noisy)
    return out


def render_vae_corpus(n_frames: int, camera: CameraModel, noise: NoiseParams, seed: int,
                      environments=("sparse", "medium", "dense"), worlds_per_env: int = 2,
                      world_params_fn=desk_world_params) -> tuple[FrameSet, FrameSet]:
    """Free-pose renders across generated worlds.

    Half the poses aim at a nearby thin obstacle (the stance a robot
    actually encounters them from); the rest are uniform random views.
    Returns (clean, corrupted) frame sets of equal length; corruption seeds
    derive from `seed` so the pair is reproducible.
    """
    if n_frames < 1:
        raise DatasetError("corpus needs at least one frame")
    rng = np.random.default_rng(seed)
    pick_world = _world_picker(rng, environments, worlds_per_env, world_params_fn)

    def draw():
        world = pick_world()
        x0, y0, x1, y1 = world.bounds
        # a render pose only needs the camera clear of geometry, not a full
        # flight-clearance bubble (rod fields are tighter than the robot)
        aim_rods = rng.random() < 0.5
        thin = world.cylinders[world.cylinders[:, 4] >= 1]
        if aim_rods and len(thin):
            rod = thin[int(rng.integers(len(thin)))]
            dist = float(rng.uniform(0.8, 3.5))
            bearing = float(rng.uniform(-np.pi, np.pi))
            pos = np.array([rod[0] + dist * np.cos(bearing),
                            rod[1] + dist * np.sin(bearing),
                            float(rng.uniform(0.7, 1.6))])
            if not (x0 < pos[0] < x1 and y0 < pos[1] < y1):
                return None
            if min_clearance(world, pos) <= 0.25:
                return None
            state = hover_state(pos, yaw=wrap_angle(bearing + np.pi
                                                    + float(rng.uniform(-0.35, 0.35))))
        else:
            try:
                state = find_free_start(world, rng, (x0 + 0.5, x1 - 0.5),
                                        (y0 + 0.5, y1 - 0.5),
                                        z=float(rng.uniform(0.7, 1.6)),
                                        radius=0.15, margin=0.1, attempts=50)
            except WorldError:
                return None
            state.yaw = float(rng.uniform(-np.pi, np.pi))
        state.pitch = float(rng.uniform(-0.15, 0.15))
        return world, state

    clean = FrameSet.empty(n_frames, (camera.height, camera.width))
    for i in range(n_frames):
        world, state = _draw_pose(draw)
        clean.put(i, render_from_state(world, camera, state))
    noisy = corrupt_frameset(clean, noise, seed, camera.max_range)
    return clean, noisy


def collect_collision_data(n_episodes: int, camera: CameraModel, seed: int,
                           horizon: int = 10, dt: float = 0.25, max_steps: int = 60,
                           environments=("sparse", "medium", "dense"), worlds_per_env: int = 2,
                           world_params_fn=desk_world_params,
                           dynamics: DynamicsParams = DynamicsParams()) -> CollisionSet:
    """Roll randomized action sequences in generated worlds and label the
    windows, then append their mirror copies (with_flip_augmentation).
    Frames are clean renders; corrupting them is a separate, deterministic
    step (build_latent_dataset)."""
    rng = np.random.default_rng(seed)
    pick_world = _world_picker(rng, environments, worlds_per_env, world_params_fn)

    def draw():
        world = pick_world()
        x0, y0, x1, y1 = world.bounds
        try:
            return world, find_free_start(world, rng, (x0 + 0.5, x1 - 1.0), (y0 + 0.5, y1 - 0.5),
                                          z=1.0, radius=dynamics.collision_radius, attempts=50)
        except WorldError:
            return None

    def labelled_episode():
        # the episode's frame list is dropped on return, once its windows
        # hold the frames they use
        world, start = _draw_pose(draw)
        start.yaw = float(rng.uniform(-np.pi, np.pi))
        sensor = lambda st: render_from_state(world, camera, st)
        episode = rollout_episode(world, start, sensor, seed=int(rng.integers(2**31)),
                                  T=horizon, dt=dt, max_steps=max_steps, dynamics=dynamics)
        return label_episode(episode, horizon)

    sets = [ds for ds in (labelled_episode() for _ in range(n_episodes)) if len(ds)]
    if not sets:
        raise DatasetError("no collision datapoints collected")
    return with_flip_augmentation(*sets)


def build_latent_dataset(ds_clean: CollisionSet, vae: SemanticVae, noise: NoiseParams,
                         seed: int, max_range: float) -> LatentCollisionSet:
    """Corrupt the collision frames, then encode them with the frozen VAE: the
    encode_dataset of corrupt_frameset's output, with each encoder batch
    corrupted just before it is encoded, so no corrupted copy of the whole
    set is made."""
    frames = ds_clean.frames

    def corrupted_batch(lo, hi):
        return np.stack([noisy.x for noisy in _corrupted(frames, range(lo, hi), noise, seed,
                                                         max_range)])

    return encode_in_batches(ds_clean, vae, corrupted_batch)


# ---------------------------------------------------------------------------
# One-call training pipeline (used by tests, demos, and the CLI)
# ---------------------------------------------------------------------------

@dataclass
class TrainedStack:
    """Everything the campaign needs: both VAEs and both predictors, their
    training data, and each stage's wall time in seconds."""

    sevae: SemanticVae
    vanilla_vae: SemanticVae
    cpn_modular: CollisionPredictor
    cpn_end_to_end: CollisionPredictor
    corpus_clean: FrameSet
    corpus_noisy: FrameSet
    collisions_clean: CollisionSet
    timings: dict[str, float]


def train_full_stack(cfg: AppConfig, seed: int, out_dir=None,
                     log_every: int = 0) -> TrainedStack:
    """Corpus -> seVAE + vanilla VAE -> collision data -> both predictors,
    every size and schedule taken from cfg; stage seeds are seed + 1 .. 6."""
    worlds, horizon = world_params_fn(cfg), cfg.dataset.horizon
    saving = {"out_dir": out_dir, "log_every": log_every}
    timings = {}
    t0 = time.perf_counter()
    clean, noisy = render_vae_corpus(cfg.dataset.vae_frames, cfg.camera, cfg.noise,
                                     seed=seed + 1, world_params_fn=worlds)
    timings["corpus"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    vae_schedule = {"epochs": cfg.train.vae_epochs, "lr": cfg.train.vae_lr,
                    "batch_size": cfg.train.vae_batch, **saving}
    sevae, _ = train_vae(noisy, cfg.vae, seed=seed + 2, **vae_schedule)
    vanilla, _ = train_vae(noisy, cfg.vae, seed=seed + 2, vanilla=True, **vae_schedule)
    timings["vae_training"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    collisions = collect_collision_data(cfg.dataset.episodes, cfg.camera, seed=seed + 3,
                                        horizon=horizon, dt=cfg.dt,
                                        max_steps=cfg.dataset.max_steps,
                                        world_params_fn=worlds, dynamics=cfg.dynamics)
    timings["collisions"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    latents = build_latent_dataset(collisions, sevae, cfg.noise, seed=seed + 4,
                                   max_range=cfg.camera.max_range)
    cpn_schedule = {"lr": cfg.train.cpn_lr, "batch_size": cfg.train.cpn_batch, **saving}
    cpn_mod, _ = train_cpn(latents, CpnConfig(variant=MODULAR, latent_dim=cfg.vae.latent_dim,
                                              horizon=horizon),
                           seed=seed + 5, epochs=cfg.train.cpn_epochs, **cpn_schedule)
    cpn_e2e, _ = train_cpn(collisions, CpnConfig(variant=END_TO_END, horizon=horizon,
                                                 image_hw=(cfg.camera.height, cfg.camera.width)),
                           seed=seed + 6, epochs=cfg.train.e2e_epochs, **cpn_schedule)
    timings["cpn_training"] = time.perf_counter() - t0
    return TrainedStack(sevae, vanilla, cpn_mod, cpn_e2e, clean, noisy, collisions, timings)
