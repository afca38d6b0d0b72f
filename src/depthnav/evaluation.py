"""Evaluation harness: simulated missions, reconstruction metrics, and the
paired-seed campaign comparing the modular stack against the end-to-end
baseline.

The vehicle object is the privacy boundary: it holds the ground-truth
RobotState, renders and corrupts the camera stream, produces the partial
state and vehicle-frame goal direction for the planner, and keeps
termination bookkeeping (success distance, collision, timeout) to itself.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, NoiseParams, corrupt, frame_seed, render_from_state
from .cpn import CollisionPredictor
from .data import FrameSet
from .errors import Checked, WorldError, within
from .fft_codec import fft_topk_reconstruct
from .planner import (
    LibraryConfig,
    MissionResult,
    MotionPrimitiveLibrary,
    PlannerConfig,
    build_library,
    receding_horizon_run,
)
from .vae import SemanticVae
from .world import (
    DynamicsParams,
    RobotState,
    World,
    batch_min_clearance,
    check_collision,
    desk_world_params,
    find_free_start,
    generate_world,
    rollout_collision_matrix,
    rot_z,
    step_with_collision,
)

DEFAULT_SIGMA_V = 0.2  # m/s std-dev assumed on each velocity component
START_X = (0.5, 0.9)   # mission start x range, m
START_BAND = 0.5       # start y within this central fraction of the width
GOAL_OVERSHOOT = 5.0   # goal point this far past the course end, m


def default_state_covariance() -> np.ndarray:
    return np.diag([DEFAULT_SIGMA_V**2] * 3 + [0.0] * 3)


# ---------------------------------------------------------------------------
# Simulated vehicle (the planner's only window into the world)
# ---------------------------------------------------------------------------

class SimVehicle:
    """Renders corrupted observations and executes actions with ground-truth
    collision checking; exposes only the partial state to callers."""

    def __init__(self, world: World, start: RobotState, camera: CameraModel,
                 noise: NoiseParams, goal_point, course_length: float,
                 dynamics: DynamicsParams = DynamicsParams(), dt: float = 0.25,
                 mission_seed: int = 0):
        if check_collision(world, start.position, dynamics.collision_radius):
            raise WorldError("mission start pose is in collision")
        self.world = world
        self.camera = camera
        self.noise = noise
        self.goal_point = np.asarray(goal_point, dtype=np.float64)
        self.course_length = course_length
        self.dynamics = dynamics
        self.dt = dt
        self.mission_seed = mission_seed
        self.state_cov = default_state_covariance()
        self._state = start
        self._cycle = 0
        self._path = [start.position.copy()]
        self._outcome: str | None = None

    # planner-facing ---------------------------------------------------------
    def observe(self):
        frame = render_from_state(self.world, self.camera, self._state)
        noisy = corrupt(frame, self.noise.with_seed(frame_seed(self.mission_seed, self._cycle)),
                        max_range=self.camera.max_range)
        to_goal = self.goal_point - self._state.position
        norm = np.linalg.norm(to_goal)
        goal_v = rot_z(-self._state.yaw) @ (to_goal / norm)
        return noisy, self._state.partial_state(), self.state_cov.copy(), goal_v

    def execute(self, action):
        if self._outcome is not None:
            return True, self._outcome
        self._state, hit = step_with_collision(self.world, self._state, action,
                                               self.dt, self.dynamics)
        self._cycle += 1
        self._path.append(self._state.position.copy())
        if hit:
            self._outcome = "collision"
        elif self._state.position[0] >= self.course_length:
            self._outcome = "success"
        return self._outcome is not None, self._outcome or ""

    # harness-facing -----------------------------------------------------------
    def true_state(self) -> RobotState:
        return self._state

    def report(self) -> dict:
        path = np.asarray(self._path)
        return {
            "path": path,
            "distance": float(path[-1, 0] - path[0, 0]),
            "min_clearance": float(batch_min_clearance(self.world, path).min()),
        }


# ---------------------------------------------------------------------------
# Planning arms (embedding function + predictor per pipeline flavor)
# ---------------------------------------------------------------------------

def modular_arm(vae: SemanticVae, cpn: CollisionPredictor):
    """Corrupted frame -> frozen encoder mean -> latent collision predictor."""
    def factory(world, vehicle):
        return (lambda frame: vae.encode(frame).mu), cpn
    return factory


def end_to_end_arm(cpn: CollisionPredictor):
    """Corrupted raw frame straight into the jointly trained predictor."""
    def factory(world, vehicle):
        return (lambda frame: frame.x), cpn
    return factory


class GroundTruthPredictor:
    """Privileged geometric stand-in for the learned predictor: rolls every
    sequence from the vehicle's true state and reports exact collision flags.
    Used by the oracle-swap checks; ignores perception and sigma points."""

    def __init__(self, world: World, vehicle: SimVehicle, dt: float = 0.25,
                 dynamics: DynamicsParams = DynamicsParams()):
        self.world = world
        self.vehicle = vehicle
        self.dt = dt
        self.dynamics = dynamics

    def score_library(self, perception, states, actions) -> np.ndarray:
        actions = np.asarray(actions, dtype=np.float64)
        scores = rollout_collision_matrix(self.world, self.vehicle.true_state(), actions,
                                          self.dt, self.dynamics).astype(np.float32)
        return np.broadcast_to(scores, (len(states), *scores.shape)).copy()


def oracle_arm(dt: float = 0.25, dynamics: DynamicsParams = DynamicsParams()):
    def factory(world, vehicle):
        return (lambda frame: None), GroundTruthPredictor(world, vehicle, dt, dynamics)
    return factory


# ---------------------------------------------------------------------------
# Missions and campaigns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MissionSetup(Checked, error=WorldError, prefix="mission"):
    camera: CameraModel = CameraModel()
    noise: NoiseParams = NoiseParams()
    dynamics: DynamicsParams = DynamicsParams()
    planner: PlannerConfig = PlannerConfig()
    library: LibraryConfig = LibraryConfig()
    dt: float = within(0.25, lo=0, lo_open=True)  # control interval, s


def mission_start(world: World, setup: MissionSetup, seed: int) -> RobotState:
    rng = np.random.default_rng(seed)
    y0, y1 = world.bounds[1], world.bounds[3]
    mid, half = (y0 + y1) / 2.0, (y1 - y0) / 2.0 * START_BAND
    return find_free_start(world, rng, START_X, (mid - half, mid + half),
                           z=1.0, radius=setup.dynamics.collision_radius)


def run_mission(world: World, course_length: float, arm_factory, setup: MissionSetup,
                seed: int, library: MotionPrimitiveLibrary | None = None) -> MissionResult:
    start = mission_start(world, setup, seed)
    goal = np.array([course_length + GOAL_OVERSHOOT, start.position[1], start.position[2]])
    vehicle = SimVehicle(world, start, setup.camera, setup.noise, goal, course_length,
                         setup.dynamics, setup.dt, mission_seed=seed)
    embed_fn, predictor = arm_factory(world, vehicle)
    lib = library if library is not None else build_library(setup.library)
    return receding_horizon_run(vehicle, embed_fn, predictor, lib, setup.planner)


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass
class CampaignRow:
    environment: str
    method: str
    successes: int
    runs: int

    @property
    def rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0


@dataclass
class CampaignReport:
    rows: list[CampaignRow]
    outcomes: list[tuple]  # (environment, seed, method, outcome, cycles, distance)

    def success_count(self, environment: str, method: str) -> int:
        for row in self.rows:
            if row.environment == environment and row.method == method:
                return row.successes
        raise KeyError((environment, method))

    def to_csv(self) -> str:
        return _csv(["environment", "method", "successes", "runs", "success_rate"],
                    ([r.environment, r.method, r.successes, r.runs, f"{r.rate:.4f}"]
                     for r in self.rows))

    def outcomes_csv(self) -> str:
        return _csv(["environment", "seed", "method", "outcome", "cycles", "distance"],
                    ([*rec[:5], f"{rec[5]:.3f}"] for rec in self.outcomes))

    def table(self) -> str:
        lines = [f"{'Environment':<12} {'Method':<14} {'Success':>9}"]
        lines.append("-" * len(lines[0]))
        for row in self.rows:
            lines.append(f"{row.environment:<12} {row.method:<14} "
                         f"{row.successes:>3}/{row.runs:<3} ({100 * row.rate:.0f}%)")
        return "\n".join(lines) + "\n"


def run_campaign(arms: dict, environments=("sparse", "medium", "dense"), runs: int = 20,
                 base_seed: int = 1000, setup: MissionSetup = MissionSetup(),
                 world_params_fn=desk_world_params, progress=None) -> CampaignReport:
    """Paired-seed success-rate comparison: every method flies the identical
    world, start pose, and per-cycle noise stream for a given seed."""
    library = build_library(setup.library)
    rows, outcomes = [], []
    for env in environments:
        counts = {name: 0 for name in arms}
        for i in range(runs):
            seed = base_seed + i
            params = world_params_fn(env, seed=seed)
            world = generate_world(params)
            for name, factory in arms.items():
                result = run_mission(world, params.course_length, factory, setup, seed,
                                     library=library)
                counts[name] += int(result.success)
                outcomes.append((env, seed, name, result.outcome, result.cycles,
                                 result.telemetry["distance"]))
                if progress:
                    progress(env, seed, name, result)
        for name in arms:
            rows.append(CampaignRow(env, name, counts[name], runs))
    return CampaignReport(rows=rows, outcomes=outcomes)


# ---------------------------------------------------------------------------
# Reconstruction comparison
# ---------------------------------------------------------------------------

@dataclass
class ReconRow:
    method: str
    domain: str
    whole_image: float   # mean over images of sum((x - xr)^2) on valid pixels
    semantic: float      # same, restricted to valid semantic pixels
    n_images: int
    n_semantic_images: int


@dataclass
class ReconReport:
    rows: list[ReconRow]

    def value(self, method: str, domain: str, metric: str) -> float:
        for row in self.rows:
            if row.method == method and row.domain == domain:
                return getattr(row, metric)
        raise KeyError((method, domain, metric))

    def to_csv(self) -> str:
        return _csv(["method", "domain", "whole_image_sse", "semantic_sse", "images",
                     "semantic_images"],
                    ([r.method, r.domain, f"{r.whole_image:.6f}", f"{r.semantic:.6f}", r.n_images,
                      r.n_semantic_images] for r in self.rows))

    def table(self) -> str:
        header = (f"{'Method':<14} {'Domain':<10} {'Whole-image':>12} {'Semantic':>12}")
        lines = [
            "per-image summed squared error on [0,1] depths, averaged over images",
            header, "-" * len(header),
        ]
        for row in self.rows:
            lines.append(f"{row.method:<14} {row.domain:<10} {row.whole_image:>12.4f} "
                         f"{row.semantic:>12.4f}")
        return "\n".join(lines) + "\n"


def vae_reconstructor(vae: SemanticVae, batch_size: int = 64):
    def recon(frames: FrameSet) -> np.ndarray:
        out = np.empty_like(frames.x)
        for lo in range(0, len(frames), batch_size):
            mu, _ = vae.encode_batch(frames.x[lo : lo + batch_size])
            out[lo : lo + batch_size] = vae.decode_batch(mu)
        return out
    return recon


def fft_reconstructor(k: int = 64):
    def recon(frames: FrameSet) -> np.ndarray:
        out = np.empty_like(frames.x)
        for i in range(len(frames)):
            out[i] = fft_topk_reconstruct(frames.x[i], k)
        return out
    return recon


def eval_reconstruction(domains: dict[str, FrameSet], methods: dict) -> ReconReport:
    """methods: name -> callable(FrameSet) -> (N, H, W) reconstructions."""
    rows = []
    for method, recon_fn in methods.items():
        for domain, frames in domains.items():
            recons = recon_fn(frames)
            whole, sem, n_sem = [], [], 0
            for i in range(len(frames)):
                diff2 = (frames.x[i].astype(np.float64) - recons[i]) ** 2
                val = frames.valid[i] > 0
                whole.append(float(diff2[val].sum()))
                sem_mask = val & (frames.seg[i] > 0)
                if sem_mask.any():
                    sem.append(float(diff2[sem_mask].sum()))
                    n_sem += 1
            rows.append(ReconRow(method, domain, float(np.mean(whole)),
                                 float(np.mean(sem)) if sem else float("nan"),
                                 len(frames), n_sem))
    return ReconReport(rows=rows)
