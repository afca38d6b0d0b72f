"""Pinhole ray-cast depth camera with semantic instance rendering and a
synthetic stereo-sensor corruption model.

Frames are triples {x, valid, seg}: planar depth normalized to [0, 1] by the
camera's max range, a validity mask, and per-pixel thin-obstacle instance
IDs (0 = none).  Invariants: x == 0 wherever valid == 0, and seg > 0 only on
valid pixels; every operation below preserves them.

The camera is body-fixed: rays rotate with the robot's yaw, pitch and roll
(positive pitch tilts the view down, matching a quadrotor accelerating
forward).  Depth is planar (distance along the optical axis), the stereo
convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import Checked, ShapeError, WorldError, within
from .world import RobotState, World, obstacles_within, rot_z


@dataclass
class DepthFrame:
    x: np.ndarray      # (H, W) float32 in [0, 1]
    valid: np.ndarray  # (H, W) uint8
    seg: np.ndarray    # (H, W) uint16 instance IDs

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float32)
        self.valid = np.asarray(self.valid, dtype=np.uint8)
        self.seg = np.asarray(self.seg, dtype=np.uint16)
        if not (self.x.shape == self.valid.shape == self.seg.shape):
            raise ShapeError(
                f"frame grids disagree: {self.x.shape}, {self.valid.shape}, {self.seg.shape}"
            )

    @property
    def shape(self):
        return self.x.shape


def check_frame_invariants(frame: DepthFrame) -> None:
    off = frame.valid == 0
    if np.any(frame.x[off] != 0):
        raise ShapeError("invalid pixels must carry depth 0")
    if np.any(frame.seg[off] != 0):
        raise ShapeError("semantic IDs on invalid pixels")
    if np.any(frame.x < 0) or np.any(frame.x > 1):
        raise ShapeError("depth outside [0, 1]")


@dataclass(frozen=True)
class CameraModel(Checked, error=WorldError, prefix="camera"):
    height: int = within(60, lo=1, integer=True)
    width: int = within(80, lo=1, integer=True)
    fov_h: float = within(np.deg2rad(87.0), lo=0, hi=np.pi, lo_open=True, hi_open=True)
    fov_v: float = within(np.deg2rad(58.0), lo=0, hi=np.pi, lo_open=True, hi_open=True)
    max_range: float = within(5.0, lo=0, lo_open=True)
    min_range: float = within(0.2, lo=0, lo_open=True)
    offset: tuple[float, float, float] = within((0.1, 0.0, 0.0), each=True)  # body frame

    def __post_init__(self):
        super().__post_init__()
        if not self.min_range < self.max_range:
            raise WorldError(f"camera min_range must be < max_range, got {self.min_range}")

    def ray_grid(self) -> np.ndarray:
        """Unit-forward ray directions in the camera frame, shape (H*W, 3),
        read-only and shared by every camera with the same size and FOV.

        Camera frame: x forward, y left, z up; the x component is 1 so the
        ray parameter equals planar depth.
        """
        return _ray_grid(self.height, self.width, self.fov_h, self.fov_v)


@functools.lru_cache(maxsize=8)
def _ray_grid(height: int, width: int, fov_h: float, fov_v: float) -> np.ndarray:
    tan_u = np.tan(fov_h / 2.0)
    tan_v = np.tan(fov_v / 2.0)
    u = (np.arange(width) + 0.5 - width / 2.0) / (width / 2.0) * tan_u
    v = (np.arange(height) + 0.5 - height / 2.0) / (height / 2.0) * tan_v
    uu, vv = np.meshgrid(u, v)
    grid = np.stack([np.ones_like(uu), -uu, -vv], axis=-1).reshape(-1, 3)
    grid.flags.writeable = False
    return grid


def paper_camera() -> CameraModel:
    """Full-scale input resolution (a wide stereo camera reduced for the encoder)."""
    return CameraModel(height=270, width=480, max_range=10.0)


def _rot_full(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz @ ry @ rx


def render(world: World, cam: CameraModel, position, yaw: float,
           roll: float = 0.0, pitch: float = 0.0) -> DepthFrame:
    """Ray-cast the nearest hit per pixel; thin obstacles stamp their
    instance ID into the semantic grid.

    One batched pass: the (pixel, obstacle) pairs of every in-view cylinder
    are tested as one flat array, then those of every box.  A pixel keeps
    its nearest hit if strictly nearer than the ground; of equally near hits
    the obstacle earlier in world order (cylinders, then boxes) keeps the
    pixel and its instance ID.
    """
    position = np.asarray(position, dtype=np.float64)
    if not np.all(np.isfinite(position)):
        raise WorldError(f"non-finite camera position {position}")
    if not np.all(np.isfinite([yaw, roll, pitch])):
        raise WorldError(f"non-finite camera attitude yaw={yaw}, roll={roll}, pitch={pitch}")
    rot = _rot_full(yaw, pitch, roll)
    origin = position + rot_z(yaw) @ np.asarray(cam.offset, dtype=np.float64)
    rays = cam.ray_grid() @ rot.T  # (H*W, 3) world-frame, planar-depth parameterized
    n_px = rays.shape[0]
    fwd = rot @ np.array([1.0, 0.0, 0.0])
    ray_x, ray_y, ray_z = (np.ascontiguousarray(col) for col in rays.T)
    reach = cam.max_range * float(np.sqrt(np.max(ray_x * ray_x + ray_y * ray_y + ray_z * ray_z)))

    # ground plane z = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        s_ground = -origin[2] / np.where(ray_z == 0.0, np.nan, ray_z)
    depth = np.where(np.isfinite(s_ground) & (s_ground > 0.0), s_ground, np.inf)

    # A ray from outside an obstacle's footprint circle (radius R, centre at
    # distance d) can meet it only if the ray's azimuth lies within asin(R/d)
    # of the centre's bearing.  Each obstacle is therefore tested against that
    # band of pixels alone (every pixel when the camera is inside the circle),
    # found by bisecting the sorted ray azimuths; a 1 urad margin absorbs
    # rounding.  Each (pixel, obstacle) pair sees the same IEEE operations as
    # testing that one ray against that one obstacle, so the frame is
    # bit-identical to testing every ray against every obstacle in turn.
    ox, oy, oz = origin
    azimuth = np.arctan2(ray_y, ray_x)
    by_azimuth = np.argsort(azimuth)
    azimuth = azimuth[by_azimuth]

    def in_view(table, foot, near):
        """Rows of `table` (footprint circle radii `foot`) within reach and
        not behind the camera, and the flat (pixel, index into rows) pairs
        of their bands."""
        rows = np.flatnonzero(near & ((table[:, 0] - ox) * fwd[0] + (table[:, 1] - oy) * fwd[1]
                                      >= -foot - 0.5))
        dx, dy, foot = table[rows, 0] - ox, table[rows, 1] - oy, foot[rows]
        dist = np.hypot(dx, dy)
        with np.errstate(divide="ignore", invalid="ignore"):
            half = np.arcsin(np.minimum(foot / dist, 1.0)) + 1e-6
        bearing = np.arctan2(dy, dx)
        lo = bearing - half
        lo = np.where(lo < -np.pi, lo + 2.0 * np.pi, lo)
        hi = bearing + half
        hi = np.where(hi > np.pi, hi - 2.0 * np.pi, hi)
        first = np.searchsorted(azimuth, lo, side="left")
        last = np.searchsorted(azimuth, hi, side="right")
        # a band wrapping around +-pi runs on from the start of the sorted
        # azimuths; a camera inside the circle takes all of them
        inside = dist <= foot
        count = np.where(inside, n_px, np.where(lo > hi, n_px, 0) + last - first)
        first = np.where(inside, 0, first)
        ends = np.cumsum(count)
        pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(first - ends + count, count)
        return rows, np.repeat(np.arange(len(rows)), count), by_azimuth[pos % n_px]

    cyl, box = world.cylinders, world.boxes
    near_cyl, near_box = obstacles_within(world, ox, oy, reach)

    rows, k, px = in_view(cyl, cyl[:, 2], near_cyl)
    n_cyl = len(rows)
    cx, cy, radius, height, cyl_iid = cyl[rows].T
    rel = np.stack([ox - cx, oy - cy], axis=1)
    # one dot product per obstacle, as a stack of (1, 2) @ (2, 1) products
    # that runs the same per-row dot: BLAS may fuse its multiply-add, so an
    # elementwise sum of squares can differ in the last bit
    c = np.matmul(rel[:, None, :], rel[:, :, None])[:, 0, 0] - radius * radius
    rx, ry, rz = ray_x[px], ray_y[px], ray_z[px]
    a = rx ** 2 + ry ** 2
    b = 2.0 * (rel[k, 0] * rx + rel[k, 1] * ry)
    disc = b * b - 4.0 * a * c[k]
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    height = height[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = (-b - sq) / (2.0 * a)
        s2 = (-b + sq) / (2.0 * a)
        # top cap: ray crosses z = height inside the circle between the roots
        s_cap = (height - oz) / np.where(rz == 0.0, np.nan, rz)
    z1 = oz + s1 * rz
    side = ok & (s1 > 0.0) & (z1 >= 0.0) & (z1 <= height)
    cap = ok & np.isfinite(s_cap) & (s_cap > 0.0) & (s_cap >= s1) & (s_cap <= s2)
    hits = [(px[side], s1[side], 2 * k[side]), (px[cap], s_cap[cap], 2 * k[cap] + 1)]

    rows, k, px = in_view(box, np.hypot(box[:, 2], box[:, 3]), near_box)
    cx, cy, ex, ey, _, height, box_iid = box[rows].T
    cb, sb = (col[rows] for col in world.box_cos_sin)
    o_loc = (cb * (ox - cx) + sb * (oy - cy), -sb * (ox - cx) + cb * (oy - cy),
             np.full(len(rows), oz))
    rx, ry, rz = ray_x[px], ray_y[px], ray_z[px]
    d_loc = (cb[k] * rx + sb[k] * ry, -sb[k] * rx + cb[k] * ry, rz)
    t_near, t_far = -np.inf, np.inf
    for o, d, lo, hi in zip(o_loc, d_loc, (-ex, -ey, np.zeros(len(rows))), (ex, ey, height)):
        d = np.where(d == 0.0, 1e-300, d)
        t1 = (lo - o)[k] / d
        t2 = (hi - o)[k] / d
        t_near = np.maximum(t_near, np.minimum(t1, t2))
        t_far = np.minimum(t_far, np.maximum(t1, t2))
    hit = (t_near <= t_far) & (t_far > 0.0) & (t_near > 0.0)
    hits.append((px[hit], t_near[hit], 2 * n_cyl + k[hit]))

    # Resolve: `seq` orders the hits as world order does (cylinder k's side
    # 2k, its cap 2k + 1, box j 2 * n_cyl + j); the lowest seq among a
    # pixel's nearest hits wins, as committing them in turn with "<" would.
    px, s, seq = (np.concatenate(col) for col in zip(*hits))
    nearer = s < depth[px]
    px, s, seq = px[nearer], s[nearer], seq[nearer]
    np.minimum.at(depth, px, s)
    nearest = s == depth[px]
    iids = np.concatenate((np.repeat(cyl_iid, 2), box_iid, [0.0])).astype(np.uint16)
    winner = np.full(n_px, len(iids) - 1)  # the last entry, 0, where nothing hit
    np.minimum.at(winner, px[nearest], seq[nearest])
    hit_iid = iids[winner]

    valid = (depth >= cam.min_range) & (depth <= cam.max_range)
    x = np.where(valid, depth / cam.max_range, 0.0).astype(np.float32)
    seg = np.where(valid & (hit_iid >= 1), hit_iid, 0).astype(np.uint16)
    return DepthFrame(
        x=x.reshape(cam.height, cam.width),
        valid=valid.astype(np.uint8).reshape(cam.height, cam.width),
        seg=seg.reshape(cam.height, cam.width),
    )


def render_from_state(world: World, cam: CameraModel, state: RobotState) -> DepthFrame:
    return render(world, cam, state.position, state.yaw, roll=state.roll, pitch=state.pitch)


# ---------------------------------------------------------------------------
# Sensor corruption
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseParams(Checked, error=WorldError, prefix="noise"):
    """Synthetic stereo-sensor degradation; all stages are seed-deterministic.

    Stages: random blob invalidation, one-sided stereo shadows next to
    disparity discontinuities, distance-dependent dropout of thin-instance
    pixels, and range quantization.
    """

    blob_count_mean: float = within(2.5, lo=0)
    blob_radius: tuple[float, float] = within((2.0, 5.0), lo=0, each=True)  # px, min <= max
    shadow_disp_jump: float = within(0.25, lo=0, hi=np.inf, lo_open=True)  # 1/m; inf casts none
    shadow_band: int = within(2, lo=0, integer=True)     # px band width; 0 disables
    thin_dropout_near: float = within(0.05, lo=0, hi=1)  # dropout probability at zero depth
    thin_dropout_far: float = within(0.85, lo=0, hi=1)   # ... at max range (linear in between)
    quant_step: float = within(1.0 / 512.0, lo=0)        # normalized depth; 0 disables
    seed: int = within(0, lo=0, integer=True)

    def __post_init__(self):
        super().__post_init__()
        if not self.blob_radius[0] <= self.blob_radius[1]:
            raise WorldError(f"noise needs blob_radius_min <= max, got {self.blob_radius}")

    def with_seed(self, seed: int) -> "NoiseParams":
        # dataclasses.replace, with the field walk done by the dict spread
        return NoiseParams(**{**self.__dict__, "seed": seed})


def frame_seed(base_seed: int, index: int) -> int:
    """The noise seed of frame `index` of a stream seeded by `base_seed`:
    a corpus frame or a mission's planning cycle."""
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])


def clean_noise_params() -> NoiseParams:
    """All stages off: corrupt() becomes the identity."""
    return NoiseParams(blob_count_mean=0.0, blob_radius=(0.0, 0.0), shadow_disp_jump=np.inf,
                       shadow_band=0, thin_dropout_near=0.0, thin_dropout_far=0.0,
                       quant_step=0.0, seed=0)


def corrupt(frame: DepthFrame, params: NoiseParams, max_range: float = 5.0) -> DepthFrame:
    """Apply the noise model; deterministic for a given params.seed."""
    rng = np.random.default_rng(params.seed)
    h, w = frame.shape
    # astype copies, so x and valid are this call's own; seg is only read
    x = frame.x.astype(np.float32)
    valid = frame.valid.astype(bool)
    seg = frame.seg

    # (a) stereo shadows: depth rising left-to-right by more than the
    # disparity threshold invalidates a band on the left of the edge
    if params.shadow_band > 0 and np.isfinite(params.shadow_disp_jump):
        depth_m = np.where(valid, x * max_range, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            disp = 1.0 / depth_m
        jump = disp[:, :-1] - disp[:, 1:]  # positive where depth rises to the right
        # a NaN jump (an invalid pixel on either side) compares False
        edge = jump > params.shadow_disp_jump
        for off in range(params.shadow_band):
            valid[:, : w - 1 - off] &= ~edge[:, off:]

    # (b) blob dropout
    n_blobs = rng.poisson(params.blob_count_mean)
    if n_blobs:
        # an open grid: each pixel's squared distance is the same two
        # squares and one sum as on a full np.mgrid, with no (h, w) index grid
        rows, cols = np.arange(h)[:, None], np.arange(w)
        for _ in range(n_blobs):
            ci, cj = rng.uniform(0, h), rng.uniform(0, w)
            rad = rng.uniform(*params.blob_radius)
            valid &= (rows - ci) ** 2 + (cols - cj) ** 2 > rad * rad

    # (c) distance-dependent thin-obstacle dropout
    if params.thin_dropout_near > 0 or params.thin_dropout_far > 0:
        thin = valid & (seg > 0)
        if np.any(thin):
            p = params.thin_dropout_near + (params.thin_dropout_far - params.thin_dropout_near) * x
            drop = thin & (rng.random((h, w)) < p)
            valid &= ~drop

    # (d) range quantization
    if params.quant_step > 0:
        x = np.clip(np.round(x / params.quant_step) * params.quant_step, 0.0, 1.0).astype(np.float32)

    x[~valid] = 0.0
    seg = np.where(valid, seg, 0).astype(np.uint16)
    return DepthFrame(x=x, valid=valid.astype(np.uint8), seg=seg)


# ---------------------------------------------------------------------------
# PGM frame I/O (binary P5; 16-bit values are big-endian per the format)
# ---------------------------------------------------------------------------

DEPTH_PGM_SCALE = 65534  # valid depths map to [1, 65534]; 0/65535 mean invalid


def write_pgm(path, array: np.ndarray, maxval: int) -> None:
    arr = np.asarray(array)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    data = arr.astype(">u2" if maxval > 255 else "u1").tobytes()
    with open(path, "wb") as fh:
        fh.write(header + data)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """(samples, maxval) of a binary PGM.  ShapeError for a header that is
    not three integers, a maxval outside 1..65535 or a short payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise ShapeError(f"{path}: not a binary PGM file")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while blob[pos : pos + 1] not in (b"\n", b""):
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise ShapeError(f"{path}: PGM header needs width, height and maxval as "
                             f"integers, got {blob[start:pos]!r}")
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if not 1 <= maxval <= 65535:
        raise ShapeError(f"{path}: PGM maxval must lie in 1..65535, got {maxval}")
    dtype = ">u2" if maxval > 255 else "u1"
    if len(blob) - pos < h * w * np.dtype(dtype).itemsize:
        raise ShapeError(f"{path}: PGM payload holds fewer than the {w}x{h} samples "
                         f"its header names")
    arr = np.frombuffer(blob, dtype=dtype, count=h * w, offset=pos).reshape(h, w)
    return arr.astype(np.uint16 if maxval > 255 else np.uint8), maxval


def frame_to_depth_pgm(frame: DepthFrame) -> np.ndarray:
    """Quantize depth to the 16-bit PGM grid; invalid pixels become 0."""
    q = np.clip(np.round(frame.x * DEPTH_PGM_SCALE), 1, DEPTH_PGM_SCALE).astype(np.uint16)
    return np.where(frame.valid > 0, q, 0).astype(np.uint16)


def depth_pgm_to_frame(depth16: np.ndarray, seg: np.ndarray | None = None) -> DepthFrame:
    """Inverse of frame_to_depth_pgm; 0 and saturated values are invalid."""
    valid = (depth16 > 0) & (depth16 < 65535)
    x = np.where(valid, depth16.astype(np.float32) / DEPTH_PGM_SCALE, 0.0).astype(np.float32)
    if seg is None:
        seg_arr = np.zeros_like(depth16, dtype=np.uint16)
    else:
        seg_arr = np.where(valid, seg, 0).astype(np.uint16)
    return DepthFrame(x=x, valid=valid.astype(np.uint8), seg=seg_arr)
