"""Motion-primitive planning with partial-state uncertainty.

Every planning cycle scores a fixed library of constant-reference action
sequences: sigma points drawn from the state estimate's covariance are
pushed through the collision predictor, the per-step scores are averaged
under the (normalized) sigma weights, and each sequence keeps its worst
step as its uncertainty-aware score.  Sequences under the safety threshold
form the safe set; the one whose end velocity best aligns with the goal
direction wins.  If nothing is safe, the least-bad sequence is flown at
reduced speed and flagged.

This module never touches ground-truth position or yaw: it talks to the
vehicle through observe()/execute()/report() only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Checked, PlannerError, within
from .world import rot_z


# ---------------------------------------------------------------------------
# Motion primitive library
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LibraryConfig(Checked, error=PlannerError, prefix="library"):
    n_steer: int = within(9, lo=1, odd=True)     # odd, so the middle primitive flies straight
    n_vertical: int = within(5, lo=1, odd=True)
    speed: float = within(1.0, lo=0, lo_open=True)  # commanded speed of every primitive, m/s
    fov_h: float = within(np.deg2rad(87.0), lo=0, hi=np.pi, lo_open=True, hi_open=True)
    fov_v: float = within(np.deg2rad(58.0), lo=0, hi=np.pi, lo_open=True, hi_open=True)
    horizon: int = within(10, lo=1, integer=True)
    # references start inside this fraction of the half-FOVs; the steer is
    # re-applied every step, so a held primitive can turn out of view
    fov_margin: float = within(0.9, lo=0, hi=1, lo_open=True)


@dataclass
class MotionPrimitiveLibrary:
    actions: np.ndarray    # (N, T, 4) constant per-sequence references
    end_dirs: np.ndarray   # (N, 3) unit end-velocity directions
    steers: np.ndarray     # (N,)
    climbs: np.ndarray     # (N,)
    straight_index: int

    def __len__(self):
        return len(self.actions)


def _grid(half: float, n: int) -> np.ndarray:
    """n (odd) values from -half to half whose middle one is exactly 0.0, where
    linspace can leave a residue of about 1e-16."""
    grid = np.linspace(-half, half, n)
    grid[n // 2] = 0.0
    return grid


def build_library(cfg: LibraryConfig) -> MotionPrimitiveLibrary:
    """Steering x vertical grid of constant action sequences at the library
    speed, climb-major; the middle one flies straight."""
    steer_grid = _grid(cfg.fov_h / 2.0 * cfg.fov_margin, cfg.n_steer)
    climb_grid = _grid(cfg.fov_v / 2.0 * cfg.fov_margin, cfg.n_vertical)
    rows, end_dirs, steers, climbs = [], [], [], []
    for climb in climb_grid:
        for steer in steer_grid:
            v_ref = np.array([cfg.speed * np.cos(climb), 0.0, cfg.speed * np.sin(climb)])
            rows.append(np.tile(np.array([*v_ref, steer], dtype=np.float32), (cfg.horizon, 1)))
            end = rot_z(steer) @ v_ref
            end_dirs.append(end / np.linalg.norm(end))
            steers.append(steer)
            climbs.append(climb)
    straight = int(cfg.n_vertical // 2 * cfg.n_steer + cfg.n_steer // 2)
    return MotionPrimitiveLibrary(
        actions=np.stack(rows), end_dirs=np.asarray(end_dirs), steers=np.asarray(steers),
        climbs=np.asarray(climbs), straight_index=straight,
    )


# ---------------------------------------------------------------------------
# Unscented transform
# ---------------------------------------------------------------------------

@dataclass
class SigmaPointSet:
    points: np.ndarray   # (2*gamma + 1, gamma); row 0 is the mean
    weights: np.ndarray  # (2*gamma + 1,) mean weights, sum to 1


def sigma_points(mean: np.ndarray, cov: np.ndarray) -> SigmaPointSet:
    """Classic unscented sigma points, lambda = 3 - dim.

    The weighted sum of points reproduces the mean exactly and the weighted
    outer products reproduce the covariance exactly; a non-PSD covariance is
    rejected, and so is a non-finite mean or covariance.
    """
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    gamma = mean.shape[0]
    if cov.shape != (gamma, gamma):
        raise PlannerError(f"covariance must be {gamma}x{gamma}, got {cov.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise PlannerError("sigma points need a finite mean and covariance")
    scale = max(1.0, float(np.abs(cov).max()))
    if np.abs(cov - cov.T).max() > 1e-9 * scale:
        raise PlannerError("covariance is not symmetric")
    lam = 3.0 - gamma
    evals, evecs = np.linalg.eigh(cov)
    if evals.min() < -1e-9 * scale:
        raise PlannerError(f"covariance is not positive semi-definite (min eig {evals.min()})")
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None) * (gamma + lam))) @ evecs.T
    points = np.empty((2 * gamma + 1, gamma))
    points[0] = mean
    points[1 : gamma + 1] = mean[None, :] + root.T
    points[gamma + 1 :] = mean[None, :] - root.T
    weights = np.full(2 * gamma + 1, 1.0 / (2.0 * (gamma + lam)))
    weights[0] = lam / (gamma + lam)
    return SigmaPointSet(points=points, weights=weights)


def ut_reconstruct(sp: SigmaPointSet) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and covariance implied by a sigma point set."""
    mean = sp.weights @ sp.points
    centered = sp.points - mean
    cov = (sp.weights[:, None] * centered).T @ centered
    return mean, cov


# ---------------------------------------------------------------------------
# Scoring and selection
# ---------------------------------------------------------------------------

def uncertainty_aware_score(predictor, perception, sp: SigmaPointSet,
                            actions: np.ndarray) -> np.ndarray:
    """Sigma-weighted mean of per-point collision scores, then the worst step.

    The classic sigma weights can be negative, which would push a convex
    combination of [0,1] scores outside [0,1]; scoring therefore uses
    |w| / sum|w|, which degenerates correctly (constant predictors and
    zero covariance behave as expected).  actions (M, T, 4) -> (M,).
    """
    scores = predictor.score_library(perception, sp.points.astype(np.float32),
                                     np.asarray(actions, dtype=np.float32))
    w = np.abs(sp.weights)
    w = w / w.sum()
    return np.einsum("s,smt->mt", w, scores).max(axis=1)


@dataclass
class SelectionResult:
    index: int
    safe: bool
    score: float


def select_action(scores: np.ndarray, end_dirs: np.ndarray, goal: np.ndarray,
                  threshold: float) -> SelectionResult:
    """Among sequences scoring under the threshold, maximize end-velocity
    alignment with the goal (ties break to the lowest library index); with
    an empty safe set, return the minimum-score sequence flagged unsafe.
    PlannerError for an empty or non-finite score vector, or a zero or
    non-finite goal."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0 or not np.all(np.isfinite(scores)):
        raise PlannerError(f"scores must be a non-empty finite vector, got {scores.size} "
                           f"with {np.count_nonzero(~np.isfinite(scores))} non-finite")
    goal = np.asarray(goal, dtype=np.float64)
    if not np.isfinite(goal).all():
        raise PlannerError(f"goal vector must be finite, got {goal}")
    norm = np.linalg.norm(goal)
    if norm < 1e-9:
        raise PlannerError("goal vector is zero")
    if abs(norm - 1.0) > 1e-6:
        goal = goal / norm
    alignment = end_dirs @ goal
    safe = scores < threshold
    if np.any(safe):
        cand = np.flatnonzero(safe)
        best = cand[int(np.argmax(alignment[cand]))]
        return SelectionResult(int(best), True, float(scores[best]))
    best = int(np.argmin(scores))
    return SelectionResult(best, False, float(scores[best]))


# ---------------------------------------------------------------------------
# Receding-horizon loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannerConfig(Checked, error=PlannerError, prefix="planner"):
    threshold: float = within(0.3, lo=0, hi=1, lo_open=True)  # the safe set scores below this
    fallback_speed_scale: float = within(0.5, lo=0, hi=1)  # speed factor when nothing is safe
    max_cycles: int = within(450, lo=1, integer=True)


@dataclass
class CycleDiagnostics:
    cycle: int
    chosen: int
    safe: bool
    chosen_score: float
    min_score: float
    safe_count: int


@dataclass
class MissionResult:
    outcome: str                # success | collision | timeout
    cycles: int
    diagnostics: list[CycleDiagnostics] = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)

    @property
    def success(self) -> bool:
        return self.outcome == "success"


def receding_horizon_run(vehicle, embed_fn, predictor, library: MotionPrimitiveLibrary,
                         cfg: PlannerConfig = PlannerConfig()) -> MissionResult:
    """Observe, score the library, fly the first action of the winner, repeat.

    `vehicle` provides observe() -> (frame, partial state, covariance, goal
    direction in the vehicle frame), execute(action) -> (done, outcome), and
    report() -> telemetry dict.  `embed_fn` turns a frame into whatever the
    predictor consumes (latent mean, raw image, or nothing for ground-truth
    predictors).
    """
    horizon = getattr(getattr(predictor, "cfg", None), "horizon", None)
    if horizon is not None and horizon != library.actions.shape[1]:
        raise PlannerError(
            f"predictor horizon {horizon} != library horizon {library.actions.shape[1]}"
        )
    diagnostics: list[CycleDiagnostics] = []
    outcome = "timeout"
    cycles = 0
    for cycle in range(cfg.max_cycles):
        frame, state, sigma, goal = vehicle.observe()
        perception = embed_fn(frame)
        sp = sigma_points(state, sigma)
        scores = uncertainty_aware_score(predictor, perception, sp, library.actions)
        sel = select_action(scores, library.end_dirs, goal, cfg.threshold)
        action = library.actions[sel.index, 0].astype(np.float64).copy()
        if not sel.safe:
            action[:3] *= cfg.fallback_speed_scale
        diagnostics.append(CycleDiagnostics(
            cycle, sel.index, sel.safe, sel.score, float(scores.min()),
            int((scores < cfg.threshold).sum()),
        ))
        done, status = vehicle.execute(action)
        cycles = cycle + 1
        if done:
            outcome = status
            break
    return MissionResult(outcome=outcome, cycles=cycles, diagnostics=diagnostics,
                         telemetry=vehicle.report())
