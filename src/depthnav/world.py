"""Procedural 3D obstacle worlds, quadrotor velocity-tracking dynamics,
ground-truth collision checking, and collision-episode rollout.

Worlds are three square sections placed serially along +x: the first holds
only large obstacles, the second mixes large obstacles and thin rods
(sampled independently), the third holds only thin rods.  Obstacles whose
cross-section is below 5 cm are "thin" and carry unique instance IDs >= 1;
everything else has ID 0.

Actions are rows [vr_x, vr_y, vr_z, steer]: a reference velocity in the
vehicle frame plus a steering angle measured from the current yaw.  The
planner-facing state is the partial state [v(3), yaw_rate, roll, pitch];
position and yaw stay private to the simulator.  The flown vehicle, the
collision labels and the ground-truth oracle integrate through one dynamics
core, with a fixed SUBSTEPS = 5 substeps per control interval.  An action
sequence is one flight, not a chain of one-step calls: a T-interval flight
does the same operations as T one-interval flights chained, so its states
are those of flying it one step at a time.  It flies first and checks
after: every row's substates are recorded, then the whole path is
collision-checked in one culled pass, and each row's states stop at its own
first colliding substate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .container import load_arrays, save_arrays
from .errors import Checked, WorldError, within

ACTION_DIM = 4
PARTIAL_STATE_DIM = 6

GRAVITY = 9.81
SUBSTEPS = 5  # integration substeps per control interval


# ---------------------------------------------------------------------------
# Draws from one raw PCG64 stream
# ---------------------------------------------------------------------------

class _RawDraws:
    """The draws of np.random.default_rng(seed), read from PCG64's raw
    64-bit words in bounded blocks.

    Worlds depend only on PCG64's raw output, not on the internals of numpy's
    Generator methods.  These rules reproduce the Generator's draws bit for
    bit, word for word:

    - random() is (w >> 11) * 2**-53 of the next word w;
    - uniform(a, b) is a + (b - a) * random();
    - integers(m) is Lemire's method on 32-bit halves: a fresh word gives
      its low half and keeps its high half for the next integers() call;
      random() leaves that half alone, and m == 1 draws nothing.

    A caller that tests random() values ahead of the cursor reads them with
    ahead() and then sets `pos` past the words it used.
    """

    BLOCK = 1024  # words fetched at a time

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._u: list[float] = []      # the fetched words as random() values
        self._raw = np.zeros(0, dtype=np.uint64)
        self.pos = 0                   # next unread word
        self._half = None              # buffered high half for integers()

    def ahead(self, n: int) -> tuple[list[float], int]:
        """(u, pos) with at least n values fetched from pos on; pos stays."""
        if self.pos + n > len(self._u):
            raw = np.concatenate((self._raw[self.pos:],
                                  self._bitgen.random_raw(max(n, self.BLOCK))))
            self._raw, self._u, self.pos = raw, ((raw >> 11) * 2.0 ** -53).tolist(), 0
        return self._u, self.pos

    def random(self) -> float:
        u, pos = self.ahead(1)
        self.pos = pos + 1
        return u[pos]

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def _uint32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        self.ahead(1)
        word = int(self._raw[self.pos])
        self.pos += 1
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, m: int) -> int:
        """An integer in [0, m) for 1 <= m <= 2**32."""
        if m == 1:
            return 0
        prod = self._uint32() * m
        if (prod & 0xFFFFFFFF) < m:
            threshold = (2**32 - m) % m
            while (prod & 0xFFFFFFFF) < threshold:
                prod = self._uint32() * m
        return prod >> 32


# ---------------------------------------------------------------------------
# Poisson disc sampling (Bridson dart throwing on a background grid)
# ---------------------------------------------------------------------------

def poisson_disc_sample(region, r: float, seed: int, k: int = 30) -> np.ndarray:
    """Sample points in an axis-aligned rectangle with pairwise distance >= r.

    region is (x0, y0, x1, y1).  Returns an (N, 2) array; empty for a
    degenerate region.  The sampling is maximal in the Bridson sense: every
    active point had k candidate neighbors rejected before retiring.
    """
    if not (math.isfinite(r) and r > 0):
        raise WorldError(f"poisson disc radius must be finite and > 0, got {r}")
    if not all(math.isfinite(v) for v in region):
        raise WorldError(f"poisson disc region must be finite, got {region}")
    if k < 1:
        raise WorldError(f"poisson disc needs k >= 1 candidates per pick, got {k}")
    x0, y0, x1, y1 = region
    w, h = x1 - x0, y1 - y0
    if w <= 0 or h <= 0:
        return np.zeros((0, 2))
    # The draws (one integer per pick, two uniforms per candidate) and the
    # arithmetic are kept exactly, so every world is reproducible bit for bit:
    # `** 2` is pow(), which can differ from d * d in the last bit.  The draws
    # come from one raw PCG64 stream (_RawDraws).  A pick reads its 2k
    # uniforms ahead of the cursor and then consumes only those it tested:
    # the words up to and including an accepted candidate's, else all 2k.
    draws = _RawDraws(seed)
    cell = r / math.sqrt(2.0)
    gw, gh = int(math.ceil(w / cell)), int(math.ceil(h / cell))
    # flat background grid: cell (gx, gy) at gx * gh + gy lists the points of
    # its 5x5 neighbourhood, the only ones closer than r to a point inside it
    near = [[] for _ in range(gw * gh)]
    r2 = r * r
    two_pi = 2.0 * np.pi
    points, active = [], []

    def place(p):
        gx, gy = int((p[0] - x0) / cell), int((p[1] - y0) / cell)
        gx, gy = min(gx, gw - 1), min(gy, gh - 1)
        for row in range(max(gx - 2, 0) * gh, min(gx + 3, gw) * gh, gh):
            for i in range(row + max(gy - 2, 0), row + min(gy + 3, gh)):
                near[i].append(p)
        points.append(p)
        active.append(p)

    place((x0 + draws.random() * w, y0 + draws.random() * h))
    n = 2 * k
    while active:
        pick = draws.integers(len(active))
        bx, by = active[pick]
        u, c = draws.ahead(n)
        for i in range(c, c + n, 2):
            rad = r * (1.0 + u[i])
            ang = u[i + 1] * two_pi
            px, py = bx + rad * math.cos(ang), by + rad * math.sin(ang)
            if not (x0 <= px < x1 and y0 <= py < y1):
                continue
            gx, gy = int((px - x0) / cell), int((py - y0) / cell)
            for qx, qy in near[(gx if gx < gw else gw - 1) * gh + (gy if gy < gh else gh - 1)]:
                if (px - qx) ** 2 + (py - qy) ** 2 < r2:
                    break
            else:
                place((px, py))
                draws.pos = i + 2
                break
        else:
            draws.pos = c + n
            active[pick] = active[-1]
            active.pop()
    return np.array(points)


# ---------------------------------------------------------------------------
# Worlds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorldGenParams(Checked, error=WorldError, prefix="world"):
    """Geometry of the three-section obstacle course.

    radii are the Poisson disc spacings (r1 large-only section, r2/r3 the
    mixed section's large/thin samplings, r4 the rods-only section); sizes
    are in m, and large_footprint is a cross-section range.
    """

    radii: tuple[float, float, float, float] = within(lo=0, lo_open=True, each=True)
    section_size: float = within(15.0, lo=0, lo_open=True)
    large_footprint: tuple[float, float] = within((0.09, 0.45), lo=0, lo_open=True, each=True)
    large_height: tuple[float, float] = within((1.0, 4.0), lo=0, lo_open=True, each=True)
    rod_cross_section: float = within(0.04, lo=0, lo_open=True)
    rod_height: tuple[float, float] = within((2.0, 3.8), lo=0, lo_open=True, each=True)
    ceiling: float = within(4.0, lo=0, lo_open=True)
    spawn_clear: float = within(1.2, lo=0)  # obstacle-free strip at the course start, m
    seed: int = within(0, lo=0, integer=True)

    @property
    def course_length(self) -> float:
        return 3.0 * self.section_size


DESK_RADII = {
    "sparse": (1.95, 1.95, 1.35, 1.05),
    "medium": (1.875, 1.875, 1.05, 0.9),
    "dense": (1.8, 1.8, 0.9, 0.75),
}
PAPER_RADII = {
    "sparse": (6.5, 6.5, 4.5, 3.5),
    "medium": (6.25, 6.25, 3.5, 3.0),
    "dense": (6.0, 6.0, 3.0, 2.5),
}


def _preset_radii(presets: dict, env: str) -> tuple[float, float, float, float]:
    if env not in presets:
        raise WorldError(f"unknown environment {env!r}; expected one of {', '.join(presets)}")
    return presets[env]


def desk_world_params(env: str = "medium", seed: int = 0) -> WorldGenParams:
    """Desk-scale preset: 15 m sections, course spacings at 0.3x the 50 m scale."""
    return WorldGenParams(radii=_preset_radii(DESK_RADII, env), seed=seed)


def paper_world_params(env: str = "medium", seed: int = 0) -> WorldGenParams:
    """Full-scale preset: 50 m sections, 150 m course."""
    return WorldGenParams(
        radii=_preset_radii(PAPER_RADII, env), section_size=50.0, large_footprint=(0.3, 1.5),
        spawn_clear=4.0, seed=seed,
    )


@dataclass
class World:
    """Immutable obstacle set.  cylinders: rows [cx, cy, radius, height, iid];
    boxes: rows [cx, cy, ex, ey, yaw, height, iid] (ex/ey are half-extents)."""

    cylinders: np.ndarray
    boxes: np.ndarray
    bounds: tuple[float, float, float, float]
    ceiling: float

    def __post_init__(self):
        self.cylinders = np.asarray(self.cylinders, dtype=np.float64).reshape(-1, 5)
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 7)

    @property
    def obstacle_count(self) -> int:
        return len(self.cylinders) + len(self.boxes)

    @functools.cached_property
    def box_cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of every box's yaw, taken once per world by scalar
        calls, as for a single box: a ufunc's vector loop may round
        differently from its scalar one."""
        return (np.array([np.cos(y) for y in self.boxes[:, 4]]),
                np.array([np.sin(y) for y in self.boxes[:, 4]]))


def generate_world(params: WorldGenParams) -> World:
    """Build the three-section course; deterministic per params.seed."""
    master = np.random.default_rng(params.seed)
    sub_seeds = master.integers(0, 2**63 - 1, size=8)
    s = params.section_size
    r1, r2, r3, r4 = params.radii

    cylinders, boxes = [], []
    next_iid = 1

    def add_large(points, seed):
        draws = _RawDraws(seed)
        f_lo, f_hi = params.large_footprint
        h_lo, h_hi = params.large_height
        for x, y in points.tolist():
            cross = draws.uniform(f_lo, f_hi)
            height = draws.uniform(h_lo, h_hi)
            if draws.random() < 0.5:
                cylinders.append([x, y, cross / 2.0, height, 0.0])
            else:
                ey = draws.uniform(f_lo, f_hi) / 2.0
                boxes.append([x, y, cross / 2.0, ey, draws.uniform(0.0, np.pi), height, 0.0])

    def add_rods(points, seed):
        nonlocal next_iid
        draws = _RawDraws(seed)
        h_lo, h_hi = params.rod_height
        for x, y in points.tolist():
            height = draws.uniform(h_lo, h_hi)
            cylinders.append([x, y, params.rod_cross_section / 2.0, height, float(next_iid)])
            next_iid += 1

    # section 1: large only (with a clear spawn strip)
    pts = poisson_disc_sample((0.0, 0.0, s, s), r1, int(sub_seeds[0]))
    pts = pts[pts[:, 0] >= params.spawn_clear] if len(pts) else pts
    add_large(pts, sub_seeds[1])
    # section 2: independent large + thin samplings
    add_large(poisson_disc_sample((s, 0.0, 2 * s, s), r2, int(sub_seeds[2])), sub_seeds[3])
    add_rods(poisson_disc_sample((s, 0.0, 2 * s, s), r3, int(sub_seeds[4])), sub_seeds[5])
    # section 3: thin rods only
    add_rods(poisson_disc_sample((2 * s, 0.0, 3 * s, s), r4, int(sub_seeds[6])), sub_seeds[7])

    return World(
        cylinders=np.array(cylinders).reshape(-1, 5),
        boxes=np.array(boxes).reshape(-1, 7),
        bounds=(0.0, 0.0, 3 * s, s),
        ceiling=params.ceiling,
    )


def empty_world(extent: float = 60.0, ceiling: float = 4.0) -> World:
    return World(np.zeros((0, 5)), np.zeros((0, 7)), (0.0, 0.0, extent, extent), ceiling)


# ---------------------------------------------------------------------------
# Collision queries
# ---------------------------------------------------------------------------

def obstacles_within(world: World, x: float, y: float, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Row masks (cylinders, boxes) of the obstacles whose footprint circle
    comes within `reach` of the ground point (x, y); a box's circle is its
    circumscribed one, of radius hypot(ex, ey)."""
    c, b = world.cylinders, world.boxes
    return (np.hypot(c[:, 0] - x, c[:, 1] - y) - c[:, 2] <= reach,
            np.hypot(b[:, 0] - x, b[:, 1] - y) - np.hypot(b[:, 2], b[:, 3]) <= reach)


# Distance from points to cylinders [cx, cy, radius, height] and to boxes
# [cx, cy, ex, ey, height] of yaw cos_y, sin_y; the arguments broadcast, so
# one formula serves (point, obstacle) grids and flat lists of pairs alike.

def _cylinder_clearance(px, py, pz, cx, cy, radius, height):
    radial = np.maximum(np.hypot(px - cx, py - cy) - radius, 0.0)
    dz = np.maximum(np.maximum(-pz, pz - height), 0.0)
    return np.hypot(radial, dz)


def _box_clearance(px, py, pz, cx, cy, ex, ey, height, cos_y, sin_y):
    rx, ry = px - cx, py - cy
    qx = cos_y * rx + sin_y * ry
    qy = -sin_y * rx + cos_y * ry
    dx = np.maximum(np.abs(qx) - ex, 0.0)
    dy = np.maximum(np.abs(qy) - ey, 0.0)
    dz = np.maximum(np.maximum(-pz, pz - height), 0.0)
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def batch_min_clearance(world: World, positions: np.ndarray) -> np.ndarray:
    """min_clearance for many query points at once; positions (N, 3) -> (N,).
    Non-finite positions raise: a NaN clearance would read as free."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise WorldError(f"positions must be shaped (N, 3), got {positions.shape}")
    if not np.isfinite(positions).all():
        raise WorldError("non-finite position")
    px, py, pz = positions[:, :1], positions[:, 1:2], positions[:, 2:]
    best = np.minimum(positions[:, 2], world.ceiling - positions[:, 2])
    c, b = world.cylinders, world.boxes
    if len(c):
        best = np.minimum(best, _cylinder_clearance(px, py, pz, *c[:, :4].T).min(axis=1))
    if len(b):
        best = np.minimum(best, _box_clearance(px, py, pz, *b[:, :4].T, b[:, 5],
                                               np.cos(b[:, 4]), np.sin(b[:, 4])).min(axis=1))
    return best


def min_clearance(world: World, position: np.ndarray) -> float:
    """Distance to the nearest obstacle or to the ground/ceiling planes."""
    return float(batch_min_clearance(world, np.asarray(position, dtype=np.float64)[None])[0])


def check_collision(world: World, position: np.ndarray, radius: float) -> bool:
    """True iff a sphere at `position` intersects any obstacle or the
    ground/ceiling bounds."""
    return min_clearance(world, position) <= radius


# ---------------------------------------------------------------------------
# Vehicle dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicsParams(Checked, error=WorldError, prefix="dynamics"):
    tau_v: float = within(0.3, lo=0, lo_open=True)      # velocity tracking time constant, s
    tau_yaw: float = within(0.4, lo=0, lo_open=True)    # yaw tracking time constant, s
    omega_max: float = within(1.6, lo=0, lo_open=True)  # yaw rate limit, rad/s
    v_max: float = within(1.5, lo=0, lo_open=True)      # reference speed limit, m/s
    collision_radius: float = within(0.3, lo=0)


@dataclass
class RobotState:
    """Ground-truth state (simulator-private; planners only ever see the
    partial-state projection)."""

    position: np.ndarray
    yaw: float
    velocity: np.ndarray  # vehicle frame
    yaw_rate: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).copy()
        self.velocity = np.asarray(self.velocity, dtype=np.float64).copy()

    def partial_state(self) -> np.ndarray:
        """The planner-facing projection [v(3), yaw_rate, roll, pitch]."""
        return np.array([*self.velocity, self.yaw_rate, self.roll, self.pitch])


def hover_state(position, yaw: float = 0.0) -> RobotState:
    return RobotState(position=np.asarray(position, float), yaw=yaw, velocity=np.zeros(3))


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def wrap_angle(a: float) -> float:
    return float((a + np.pi) % (2.0 * np.pi) - np.pi)


def _within_travel(world: World, start: RobotState, seconds: float,
                   params: DynamicsParams) -> World:
    """The obstacles a vehicle leaving `start` can hit within `seconds`.

    No substep moves faster than max(|v0|, v_max) (the velocity relaxes
    toward a clamped reference), so obstacles farther than that travel plus
    the collision radius cannot be hit; the 1 um slack absorbs rounding.
    """
    reach = (max(float(np.linalg.norm(start.velocity)), params.v_max) * seconds
             + params.collision_radius + 1e-6)
    near_c, near_b = obstacles_within(world, start.position[0], start.position[1], reach)
    return World(world.cylinders[near_c], world.boxes[near_b], world.bounds, world.ceiling)


def _path_hits(world: World, path: np.ndarray, radius: float, hit: np.ndarray) -> None:
    """Set hit (K, M) where substate k of row m of the path (K, M, 3) collides.

    Ground and ceiling are tested per position.  Obstacles pass a broad
    phase first: each row's swept xy box against each obstacle's footprint
    circle (a box's circumscribed one, of radius hypot(ex, ey)), widened by
    the radius and a 1 um slack that absorbs rounding.  Only the surviving
    (substep, row, obstacle) triples get the exact distance, with the
    formulas of batch_min_clearance.
    """
    z = path[:, :, 2]
    np.less_equal(np.minimum(z, world.ceiling - z), radius, out=hit)
    lo, hi = path[:, :, None, :2].min(axis=0), path[:, :, None, :2].max(axis=0)  # (M, 1, 2)

    def near(table, foot):  # (row, obstacle) pairs that survive the broad phase
        gap = np.maximum(np.maximum(lo - table[:, :2], table[:, :2] - hi), 0.0)
        return np.nonzero(np.hypot(gap[..., 0], gap[..., 1]) - foot <= radius + 1e-6)

    def mark(rows, clearance):  # clearance (K, pairs)
        k, pair = np.nonzero(clearance <= radius)
        hit[k, rows[pair]] = True

    c, b = world.cylinders, world.boxes
    rows, obs = near(c, c[:, 2])
    if len(rows):
        p, cyl = path.take(rows, axis=1).transpose(2, 0, 1), c.take(obs, axis=0)
        mark(rows, _cylinder_clearance(*p, *cyl[:, :4].T))
    rows, obs = near(b, np.hypot(b[:, 2], b[:, 3]))
    if len(rows):
        p, box = path.take(rows, axis=1).transpose(2, 0, 1), b.take(obs, axis=0)
        cos_y, sin_y = np.cos(b[:, 4]).take(obs), np.sin(b[:, 4]).take(obs)
        mark(rows, _box_clearance(*p, *box[:, :4].T, box[:, 5], cos_y, sin_y))


def _fly(world: World, start: RobotState, actions: np.ndarray, dt: float,
         params: DynamicsParams):
    """The one vehicle integrator: M rows flown from `start` through action
    sequences (M, T, 4), each control interval of dt in SUBSTEPS substeps.

    Each interval clamps the reference to v_max and rotates it by the steer;
    each substep relaxes velocity and yaw toward it (first order, exact over
    the substep, yaw rate limited) and advances the position by the velocity
    rotated into the world frame.  Rotations and the speed are stacked
    matmuls, so a row reproduces rot_z(a) @ v and np.linalg.norm(v) bit for
    bit.  Flying integrates first, recording every substate; the whole
    (T * SUBSTEPS, M) path is then collision-checked in one pass.
    Returns cumulative hit flags (M, T) and state_after(step, row): the
    row's state at the end of interval `step`, or at its first colliding
    substate when that comes earlier, with that substep's yaw rate, and roll
    and pitch from its commanded acceleration.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise WorldError(f"dt must be finite and > 0, got {dt}")
    if actions.ndim != 3 or actions.shape[1] < 1 or actions.shape[2] != ACTION_DIM:
        raise WorldError(f"actions must be shaped (M, T >= 1, {ACTION_DIM}), got {actions.shape}")
    if not (np.isfinite(actions).all() and np.isfinite(start.position).all()
            and np.isfinite(start.velocity).all() and math.isfinite(start.yaw)):
        raise WorldError("non-finite start state or actions")
    m, t, _ = actions.shape
    n = t * SUBSTEPS
    world = _within_travel(world, start, t * dt, params)
    pos = np.tile(start.position, (m, 1))
    # substate k's position is path[k]; its yaw and velocity are yaws[k + 1]
    # and vels[k + 1], after the start's in row 0
    path = np.empty((n, m, 3))
    yaws, vels = np.empty((n + 1, m)), np.empty((n + 1, m, 3))
    yaws[0], vels[0] = start.yaw, start.velocity
    v_cmds, dyaws = np.empty((t, m, 3)), np.empty((t, m))  # per interval
    rot = np.zeros((SUBSTEPS * m, 3, 3))
    rot[:, 2, 2] = 1.0

    def turn(angle, v):  # rot_z(angle[i]) @ v[i] for every row
        r = rot[:len(angle)]
        c, s = np.cos(angle), np.sin(angle)
        r[:, 0, 0], r[:, 0, 1], r[:, 1, 0], r[:, 1, 1] = c, -s, s, c
        return np.matmul(r, v[:, :, None])[:, :, 0]

    sub = dt / SUBSTEPS
    decay = np.exp(-sub / params.tau_v)
    yaw_gain = 1.0 - np.exp(-sub / params.tau_yaw)
    yaw_limit = params.omega_max * sub
    for step in range(t):
        v_ref = actions[:, step, :3].copy()
        speed = np.sqrt(np.matmul(v_ref[:, None, :], v_ref[:, :, None]))[:, 0, 0]
        over = speed > params.v_max
        v_ref[over] *= (params.v_max / speed[over])[:, None]
        steer = actions[:, step, 3]
        v_cmd = v_cmds[step] = turn(steer, v_ref)
        dyaw = dyaws[step] = np.clip(((steer + np.pi) % (2.0 * np.pi) - np.pi) * yaw_gain,
                                     -yaw_limit, yaw_limit)
        # velocity and yaw do not depend on the position: relax them through
        # the interval, then turn all its substeps' velocities at once and
        # sum the moves in flight order
        k = step * SUBSTEPS
        for j in range(k, k + SUBSTEPS):
            np.add(v_cmd, (vels[j] - v_cmd) * decay, out=vels[j + 1])
            np.subtract((yaws[j] + dyaw + np.pi) % (2.0 * np.pi), np.pi, out=yaws[j + 1])
        now = slice(k + 1, k + SUBSTEPS + 1)
        moved = (sub * turn(yaws[now].ravel(), vels[now].reshape(-1, 3))).reshape(SUBSTEPS, m, 3)
        moved[0] += pos
        pos = np.add.accumulate(moved, axis=0, out=path[k:k + SUBSTEPS])[-1]
    # hit's extra last row is all True, so argmax finds each row's first
    # colliding substate, or n for a row that never collides
    hit = np.zeros((n + 1, m), dtype=bool)
    hit[-1] = True
    _path_hits(world, path, params.collision_radius, hit[:-1])
    first = hit.argmax(axis=0)
    hits = np.arange(t) >= (first // SUBSTEPS)[:, None]  # cumulative flags

    def state_after(step: int, row: int = 0) -> RobotState:
        k = min(first[row], (step + 1) * SUBSTEPS - 1)
        interval = k // SUBSTEPS
        accel = (v_cmds[interval, row] - vels[k, row]) / params.tau_v
        roll, pitch = np.arctan2(-accel[1], GRAVITY), np.arctan2(accel[0], GRAVITY)
        return RobotState(path[k, row], float(yaws[k + 1, row]), vels[k + 1, row],
                          float(dyaws[interval, row] / sub), float(roll), float(pitch))

    return hits, state_after


def step_with_collision(world: World, state: RobotState, action, dt: float,
                        params: DynamicsParams):
    """Advance one control interval in SUBSTEPS steps, collision-checking
    every substate.

    Returns (new_state, collided).  On collision the state is the first
    colliding substate (the episode ends there anyway).
    """
    hits, state_after = _fly(world, state, np.asarray(action, dtype=np.float64)[None, None],
                             dt, params)
    return state_after(0), bool(hits[0, 0])


# ---------------------------------------------------------------------------
# Episode rollout (randomized action sequences until collision or timeout)
# ---------------------------------------------------------------------------

# Random constant-reference action sequences.  MAX_STEER and MAX_CLIMB keep
# the reference direction inside the camera's field of view when a sequence
# starts; the steer is re-applied relative to the current yaw at every step,
# so a held sequence keeps turning and can leave the view.
MAX_STEER = 0.66            # rad, ~ horizontal FOV/2 with margin
MAX_CLIMB = 0.44            # rad, ~ vertical FOV/2 with margin
SPEED_RANGE = (0.3, 1.3)    # m/s
LATERAL_FRAC = 0.15         # small sideways reference component


def sample_action_sequence(rng: np.random.Generator, T: int) -> np.ndarray:
    """One random constant-reference sequence of T actions."""
    speed = rng.uniform(*SPEED_RANGE)
    steer = rng.uniform(-MAX_STEER, MAX_STEER)
    climb = rng.uniform(-MAX_CLIMB, MAX_CLIMB)
    vy = rng.uniform(-LATERAL_FRAC, LATERAL_FRAC) * speed
    action = np.array([speed * np.cos(climb), vy, speed * np.sin(climb), steer], dtype=np.float64)
    return np.tile(action, (T, 1))


@dataclass
class CollisionEpisode:
    frames: list                 # clean DepthFrame per executed step (at step start)
    states: np.ndarray           # (L, 6) partial states at step start
    actions: np.ndarray          # (L, 4) executed actions
    collided: np.ndarray         # (L,) uint8, collision during step i
    ended_in_collision: bool
    seed: int

    def __len__(self):
        return len(self.actions)


def rollout_episode(world: World, start: RobotState, sensor, seed: int,
                    T: int = 10, dt: float = 0.25, max_steps: int = 120,
                    dynamics: DynamicsParams = DynamicsParams()) -> CollisionEpisode:
    """Execute random action sequences until a collision or the step budget.

    `sensor` maps a RobotState to the robot's current (clean) DepthFrame.
    The returned episode carries everything labeling (data.label_episode)
    needs.
    """
    if T < 1:
        raise WorldError(f"rollout needs sequences of T >= 1 steps, got {T}")
    if check_collision(world, start.position, dynamics.collision_radius):
        raise WorldError("rollout start pose is in collision")
    rng = np.random.default_rng(seed)
    frames, states, actions, collided = [], [], [], []
    state, hit = start, False
    while len(actions) < max_steps and not hit:
        seq = sample_action_sequence(rng, T)[:max_steps - len(actions)]
        hits, state_after = _fly(world, state, seq[None], dt, dynamics)
        for i, action in enumerate(seq):
            frames.append(sensor(state))
            states.append(state.partial_state())
            actions.append(action)
            state, hit = state_after(i), bool(hits[0, i])
            collided.append(1 if hit else 0)
            if hit:
                break
    return CollisionEpisode(
        frames=frames,
        states=np.asarray(states, dtype=np.float64).reshape(-1, PARTIAL_STATE_DIM),
        actions=np.asarray(actions, dtype=np.float64).reshape(-1, ACTION_DIM),
        collided=np.asarray(collided, dtype=np.uint8),
        ended_in_collision=hit,
        seed=seed,
    )


def rollout_collision_matrix(world: World, start: RobotState, actions: np.ndarray,
                             dt: float, params: DynamicsParams = DynamicsParams()) -> np.ndarray:
    """Ground-truth cumulative collision flags for M action sequences rolled
    out in parallel from one start state; actions (M, T, 4) -> (M, T) uint8.

    Each row is one flight of the vehicle's own integrator, as in
    rollout_episode, so a row's flags are exactly those of the vehicle
    flying that sequence."""
    actions = np.asarray(actions, dtype=np.float64)
    return _fly(world, start, actions, dt, params)[0].astype(np.uint8)


def find_free_start(world: World, rng: np.random.Generator, x_range, y_range, z: float = 1.0,
                    radius: float = 0.3, margin: float = 0.25, attempts: int = 200) -> RobotState:
    """Sample a collision-free hover start pose with clearance margin."""
    for _ in range(attempts):
        pos = np.array([rng.uniform(*x_range), rng.uniform(*y_range), z])
        if min_clearance(world, pos) > radius + margin:
            return hover_state(pos, yaw=float(rng.uniform(-0.2, 0.2)))
    raise WorldError("could not find a free start pose")


# ---------------------------------------------------------------------------
# World files
# ---------------------------------------------------------------------------

def save_world(path, world: World) -> None:
    save_arrays(path, {"cylinders": world.cylinders, "boxes": world.boxes},
                {"kind": "world", "bounds": [float(v) for v in world.bounds],
                 "ceiling": float(world.ceiling)})


def load_world(path) -> World:
    """WorldError for a file of another kind, a table that is not (N, 5)
    cylinders and (N, 7) boxes, or a non-finite table, bound or ceiling."""
    meta, arrays = load_arrays(path, WorldError)
    if meta.get("kind") != "world":
        raise WorldError(f"{path}: a {meta.get('kind')!r} file, not a world")
    for name, width in (("cylinders", 5), ("boxes", 7)):
        shape = getattr(arrays.get(name), "shape", None)
        if shape is None or len(shape) != 2 or shape[1] != width:
            raise WorldError(f"{path}: {name} must be an (N, {width}) table, got {shape}")
        if not np.isfinite(arrays[name]).all():
            raise WorldError(f"{path}: non-finite {name} table")
    try:
        bounds, ceiling = tuple(map(float, meta["bounds"])), float(meta["ceiling"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WorldError(f"{path}: bad bounds or ceiling ({exc})") from exc
    if len(bounds) != 4 or not all(map(math.isfinite, (*bounds, ceiling))):
        raise WorldError(f"{path}: bounds need 4 finite values and a finite ceiling")
    return World(arrays["cylinders"], arrays["boxes"], bounds, ceiling)


def world_summary(world: World) -> str:
    """Human-readable companion text for a world file."""
    x0, y0, x1, y1 = world.bounds
    n_thin = int((np.concatenate([world.cylinders[:, 4], world.boxes[:, 6]]) >= 1).sum()) \
        if world.obstacle_count else 0
    lines = [
        f"bounds: x [{x0:.1f}, {x1:.1f}] m, y [{y0:.1f}, {y1:.1f}] m, ceiling {world.ceiling:.1f} m",
        f"obstacles: {world.obstacle_count} total, {len(world.cylinders)} cylinders, "
        f"{len(world.boxes)} boxes, {n_thin} thin",
    ]
    return "\n".join(lines) + "\n"
