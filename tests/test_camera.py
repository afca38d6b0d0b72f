"""Depth rendering, the corruption model, downsampling, PGM I/O."""

import hashlib

import numpy as np
import pytest

from depthnav.camera import (
    CameraModel,
    _rot_full,
    DepthFrame,
    NoiseParams,
    check_frame_invariants,
    clean_noise_params,
    corrupt,
    depth_pgm_to_frame,
    downsample,
    frame_to_depth_pgm,
    paper_camera,
    read_pgm,
    render,
    write_pgm,
)
from depthnav.errors import ShapeError, WorldError
from depthnav.world import World, desk_world_params, empty_world, generate_world, rot_z


def _single_rod_world(distance=2.0, radius=0.02, height=3.0):
    return World(cylinders=np.array([[distance, 0.0, radius, height, 1.0]]),
                 boxes=np.zeros((0, 7)), bounds=(0, 0, 10, 10), ceiling=5.0)


def _wall_world(distance=3.0):
    return World(cylinders=np.zeros((0, 5)),
                 boxes=np.array([[distance + 0.1, 0.0, 0.1, 50.0, 0.0, 50.0, 0.0]]),
                 bounds=(0, 0, 10, 10), ceiling=60.0)


class TestRender:
    def test_empty_world_high_above_ground_is_all_invalid(self):
        # camera placed above the ground so even the ground plane is out of range
        cam = CameraModel(max_range=5.0)
        frame = render(empty_world(ceiling=100.0), cam, [5, 5, 50.0], 0.0)
        assert frame.valid.sum() == 0
        assert frame.x.sum() == 0
        check_frame_invariants(frame)

    def test_wall_at_three_meters_reads_point_three(self):
        cam = CameraModel(max_range=10.0, offset=(0.0, 0.0, 0.0))
        frame = render(_wall_world(3.0), cam, [0.0, 0.0, 1.0], 0.0)
        h, w = frame.shape
        center = frame.x[h // 2, w // 2]
        assert frame.valid[h // 2, w // 2] == 1
        assert abs(center - 0.3) < 2e-3  # planar depth / max range

    def test_rod_projection_width_matches_pinhole_oracle(self):
        # oracle: occupied columns ~ diameter / (pixel tan width at center)
        cam = CameraModel(height=270, width=480, max_range=10.0, offset=(0.0, 0.0, 0.0))
        frame = render(_single_rod_world(2.0, 0.02), cam, [0.0, 0.0, 1.0], 0.0)
        cols = np.unique(np.nonzero(frame.seg)[1])
        pixel_tan = 2.0 * np.tan(cam.fov_h / 2.0) / cam.width
        expected = (0.04 / 2.0) / pixel_tan
        assert abs(len(cols) - expected) <= 1.0
        assert np.all(np.diff(cols) == 1)  # contiguous column run

    def test_rod_carries_instance_id_and_background_does_not(self):
        cam = CameraModel(offset=(0.0, 0.0, 0.0))
        frame = render(_single_rod_world(1.5), cam, [0.0, 0.0, 1.0], 0.0)
        ids = np.unique(frame.seg)
        assert set(ids.tolist()) == {0, 1}
        check_frame_invariants(frame)

    def test_render_is_deterministic(self):
        cam = CameraModel()
        world = _single_rod_world()
        a = render(world, cam, [0, 0, 1.0], 0.1, roll=0.05, pitch=-0.04)
        b = render(world, cam, [0, 0, 1.0], 0.1, roll=0.05, pitch=-0.04)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.seg, b.seg)

    def test_beyond_max_range_invalid(self):
        cam = CameraModel(max_range=5.0, offset=(0.0, 0.0, 0.0))
        frame = render(_wall_world(6.0), cam, [0.0, 0.0, 1.0], 0.0)
        h, w = frame.shape
        assert frame.valid[h // 2, w // 2] == 0

    @pytest.mark.parametrize("attitude", [dict(yaw=np.nan), dict(yaw=np.inf, roll=0.0),
                                          dict(yaw=0.0, roll=np.inf),
                                          dict(yaw=0.0, pitch=-np.inf),
                                          dict(yaw=0.0, roll=np.nan, pitch=0.1)])
    def test_non_finite_attitude_raises(self, attitude):
        with pytest.raises(WorldError, match="attitude"):
            render(_single_rod_world(), CameraModel(), [0.0, 0.0, 1.0], **attitude)

    @pytest.mark.parametrize("size", [dict(height=0), dict(width=-1), dict(height=2.5),
                                      dict(width="80"), dict(height=True)])
    def test_camera_size_must_be_a_positive_integer(self, size):
        with pytest.raises(WorldError, match="integer"):
            CameraModel(**size)

    def test_numpy_integer_size_accepted(self):
        assert CameraModel(height=np.int64(12), width=np.int32(16)).ray_grid().shape == (192, 3)


class TestRenderTies:
    """Equally near hits go to the obstacle earlier in world order
    (cylinders before boxes), which keeps the pixel and its instance ID."""

    CAM = CameraModel(offset=(0.0, 0.0, 0.0))
    POSE = ([0.0, 0.0, 3.0], 0.0)  # looking down on obstacles 2 m ahead

    def _render(self, cylinders=(), boxes=()):
        world = World(cylinders=np.array(cylinders, dtype=float).reshape(-1, 5),
                      boxes=np.array(boxes, dtype=float).reshape(-1, 7),
                      bounds=(0, 0, 10, 10), ceiling=5.0)
        return render(world, self.CAM, *self.POSE, pitch=0.6)

    @pytest.mark.parametrize("kind, solid", [
        ("cylinders", [2.0, 0.0, 0.3, 1.5]),
        ("boxes", [2.0, 0.0, 0.3, 0.2, 0.4, 1.5]),
    ])
    def test_coincident_obstacles_first_in_world_order_wins(self, kind, solid):
        alone = self._render(**{kind: [solid + [1]]})
        on_obstacle = alone.seg == 1
        assert on_obstacle.sum() > 50
        for first, second in ((1, 2), (2, 1)):
            frame = self._render(**{kind: [solid + [first], solid + [second]]})
            assert np.array_equal(frame.x, alone.x)
            assert np.all(frame.seg[on_obstacle] == first)
            assert np.array_equal(frame.seg > 0, on_obstacle)

    def test_box_sharing_a_cylinder_top_face_loses_the_tie(self):
        # the box lies inside the cylinder and its top is the cylinder's cap
        cylinder = [2.0, 0.0, 0.3, 1.5, 5]
        box = [2.0, 0.0, 0.2, 0.15, 0.4, 1.5, 7]
        box_alone = self._render(boxes=[box])
        cyl_alone = self._render(cylinders=[cylinder])
        both = self._render(cylinders=[cylinder], boxes=[box])
        shared = (box_alone.seg == 7) & (box_alone.x == cyl_alone.x)
        assert shared.sum() > 20  # the tied pixels of the shared face
        assert np.all(both.seg[shared] == 5)
        assert np.array_equal(both.x, cyl_alone.x)
        assert np.array_equal(both.seg, cyl_alone.seg)


def _box_world():
    """A long thin wall and a small box, a rod and a thick post."""
    return World(cylinders=np.array([[6.5, 4.0, 0.02, 3.0, 1.0], [3.5, 5.5, 0.3, 2.0, 0.0],
                                     [7.0, 7.5, 0.02, 2.5, 2.0]]),
                 boxes=np.array([[5.0, 5.0, 1.5, 0.05, 0.3, 2.5, 0.0],
                                 [8.0, 6.0, 0.4, 0.3, 1.2, 1.5, 3.0]]),
                 bounds=(0, 0, 10, 10), ceiling=5.0)


def _inside_wall_circle(yaw, along=0.0, off=0.6):
    """A position whose camera origin lies inside the wall's circumscribed
    circle (radius ~1.5 m) but not inside the wall itself; near the wall's
    end, part of the wall lies behind the bearing to its centre."""
    local = np.array([along, off, 1.0])
    center = np.array([5.0, 5.0, 0.0]) + rot_z(0.3) @ local
    return center - rot_z(yaw) @ np.array([0.1, 0.0, 0.0])


# (position, yaw, roll, pitch); yaws near +-pi look across the azimuth seam
DENSE_POSES = [
    ([2.0, 7.5, 1.0], 0.0, 0.0, 0.0),
    ([16.0, 5.0, 1.2], 0.7, 0.3, -0.3),
    ([31.0, 9.0, 0.9], -1.2, -0.3, 0.3),
    ([24.0, 7.5, 1.5], np.pi - 1e-9, 0.0, 0.1),
    ([38.0, 3.0, 1.0], -np.pi + 1e-9, 0.05, 0.0),
    ([20.0, 12.0, 1.0], 3.0, -0.3, -0.3),
]
BOX_POSES = [(_inside_wall_circle(yaw), yaw, roll, pitch) for yaw, roll, pitch in [
    (0.0, 0.0, 0.0), (1.5, 0.3, 0.3), (np.pi - 1e-9, -0.3, 0.0), (-2.0, 0.0, -0.3)]] + [
    (_inside_wall_circle(-0.6, along=1.2, off=0.25), -0.6, 0.0, 0.0),
    ([1.0, 5.0, 1.0], 0.0, 0.0, 0.0),
    ([3.5, 5.5, 1.0], 0.5, 0.0, -0.3),  # inside the post
]
# digests of the reference ray caster's x, valid and seg over every pose
RENDER_GOLDEN = {
    "dense": "747c09ec2ec45d7c9f29492bb00e0ff5fcb5ede732eac7d20f9f93e0ab16a4cc",
    "boxes": "7721404d3aafe5124d507781f771872cb66e2c3c2f9569134f5458cb0a2978da",
    "paper": "8393a352f3c5d3e8f6291fe4dfab5177dab0c8448790df2a0ea6db454c6e0381",
}


def _frames_sha(frames) -> str:
    h = hashlib.sha256()
    for f in frames:
        for a in (f.x, f.valid, f.seg):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _reference_render(world, cam, position, yaw, roll=0.0, pitch=0.0):
    """Every ray against every obstacle, ground first and then in world
    order, each hit committed with a strict "<": the caster `render` must
    match bit for bit."""
    rot = _rot_full(yaw, pitch, roll)
    ox, oy, oz = np.asarray(position, float) + rot_z(yaw) @ np.asarray(cam.offset, float)
    rx, ry, rz = (np.ascontiguousarray(col) for col in (cam.ray_grid() @ rot.T).T)
    depth, iid = np.full(len(rx), np.inf), np.zeros(len(rx), np.uint16)

    def commit(s, mask, instance):
        better = mask & (s < depth)
        depth[better], iid[better] = s[better], instance

    with np.errstate(divide="ignore", invalid="ignore"):
        s = -oz / np.where(rz == 0.0, np.nan, rz)
        commit(s, np.isfinite(s) & (s > 0.0), 0)
        for cx, cy, radius, height, instance in world.cylinders:
            rel = np.array([ox - cx, oy - cy])
            a = rx ** 2 + ry ** 2
            b = 2.0 * (rel[0] * rx + rel[1] * ry)
            disc = b * b - 4.0 * a * (rel @ rel - radius * radius)
            ok = disc >= 0.0
            sq = np.sqrt(np.where(ok, disc, 0.0))
            s1, s2 = (-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)
            z1 = oz + s1 * rz
            commit(s1, ok & (s1 > 0.0) & (z1 >= 0.0) & (z1 <= height), instance)
            s = (height - oz) / np.where(rz == 0.0, np.nan, rz)
            commit(s, ok & np.isfinite(s) & (s > 0.0) & (s >= s1) & (s <= s2), instance)
        for cx, cy, ex, ey, box_yaw, height, instance in world.boxes:
            cb, sb = np.cos(box_yaw), np.sin(box_yaw)
            o = np.array([cb * (ox - cx) + sb * (oy - cy), -sb * (ox - cx) + cb * (oy - cy), oz])
            d = np.stack([cb * rx + sb * ry, -sb * rx + cb * ry, rz], axis=1)
            d = np.where(d == 0.0, 1e-300, d)
            t1 = (np.array([-ex, -ey, 0.0]) - o) / d
            t2 = (np.array([ex, ey, height]) - o) / d
            t_near, t_far = np.minimum(t1, t2).max(axis=1), np.maximum(t1, t2).min(axis=1)
            commit(t_near, (t_near <= t_far) & (t_far > 0.0) & (t_near > 0.0), instance)
    valid = (depth >= cam.min_range) & (depth <= cam.max_range)
    return DepthFrame(np.where(valid, depth / cam.max_range, 0.0).reshape(cam.height, cam.width),
                      valid.reshape(cam.height, cam.width),
                      np.where(valid, iid, 0).reshape(cam.height, cam.width))


class TestRenderReference:
    @pytest.mark.parametrize("env", ["sparse", "dense"])
    def test_random_poses_match_the_every_ray_caster(self, env):
        world = generate_world(desk_world_params(env, seed=11))
        rng = np.random.default_rng(3)
        x0, y0, x1, y1 = world.bounds
        for cam in (CameraModel(height=24, width=32),
                    CameraModel(height=9, width=40, fov_h=np.deg2rad(150.0))):
            for _ in range(6):
                pose = ([rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(0.3, 2.5)],
                        rng.uniform(-np.pi, np.pi), *rng.uniform(-0.4, 0.4, 2))
                args = (world, cam, pose[0], pose[1])
                got = render(*args, roll=pose[2], pitch=pose[3])
                assert _frames_sha([got]) == _frames_sha([_reference_render(*args, *pose[2:])])


class TestRenderGolden:
    def test_dense_world_poses_bit_identical(self):
        world = generate_world(desk_world_params("dense", seed=5))
        frames = [render(world, CameraModel(), p, y, roll=r, pitch=q) for p, y, r, q in DENSE_POSES]
        assert _frames_sha(frames) == RENDER_GOLDEN["dense"]

    def test_box_world_poses_bit_identical(self):
        world = _box_world()
        frames = [render(world, CameraModel(), p, y, roll=r, pitch=q) for p, y, r, q in BOX_POSES]
        assert _frames_sha(frames) == RENDER_GOLDEN["boxes"]

    def test_paper_camera_pose_bit_identical(self):
        world = generate_world(desk_world_params("dense", seed=5))
        frame = render(world, paper_camera(), [16.0, 7.5, 1.0], 0.2, pitch=0.05)
        assert frame.valid.sum() > 0 and frame.seg.max() > 0
        assert _frames_sha([frame]) == RENDER_GOLDEN["paper"]


class TestRayGridCache:
    def test_other_cameras_between_renders_leave_frames_bit_identical(self):
        world = generate_world(desk_world_params("dense", seed=5))
        pose = ([16.0, 7.5, 1.0], 0.2)
        desk = CameraModel()
        before = render(world, desk, *pose)
        render(world, paper_camera(), *pose)
        narrow = render(world, CameraModel(fov_h=np.deg2rad(60.0)), *pose)
        after = render(world, desk, *pose)
        assert before.seg.max() > 0
        assert _frames_sha([after]) == _frames_sha([before])
        assert _frames_sha([narrow]) != _frames_sha([before])

    def test_cached_grid_is_shared_and_read_only(self):
        grid = CameraModel().ray_grid()
        assert CameraModel(max_range=8.0).ray_grid() is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 2.0
        assert grid[0, 0] == 1.0


class TestCorrupt:
    def _frame(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 0.9, (60, 80)).astype(np.float32)
        valid = np.ones((60, 80), np.uint8)
        seg = np.zeros((60, 80), np.uint16)
        return DepthFrame(x, valid, seg)

    def test_all_rates_zero_is_identity(self):
        frame = self._frame()
        out = corrupt(frame, clean_noise_params())
        assert np.array_equal(out.x, frame.x)
        assert np.array_equal(out.valid, frame.valid)
        assert np.array_equal(out.seg, frame.seg)

    def test_deterministic_per_seed(self):
        frame = self._frame()
        params = NoiseParams(seed=42)
        a, b = corrupt(frame, params), corrupt(frame, params)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.valid, b.valid)
        c = corrupt(frame, NoiseParams(seed=43))
        assert not np.array_equal(a.valid, c.valid)

    def test_invariants_preserved(self):
        frame = self._frame(3)
        frame.seg[10:30, 10:14] = 2
        out = corrupt(frame, NoiseParams(seed=7))
        check_frame_invariants(out)

    def test_two_plane_discontinuity_shadows_one_side_only(self):
        x = np.full((20, 40), 0.2, np.float32)  # near plane 1 m (max range 5)
        x[:, 20:] = 0.8                          # far plane 4 m
        frame = DepthFrame(x, np.ones_like(x, dtype=np.uint8), np.zeros_like(x, dtype=np.uint16))
        params = NoiseParams(blob_count_mean=0.0, shadow_disp_jump=0.25, shadow_band=3,
                             thin_dropout_near=0.0, thin_dropout_far=0.0, quant_step=0.0, seed=0)
        out = corrupt(frame, params, max_range=5.0)
        # rising edge between columns 19 and 20: band of width 3 left of it
        assert np.all(out.valid[:, 17:20] == 0)
        assert np.all(out.valid[:, 20:] == 1)
        assert np.all(out.valid[:, :17] == 1)

    def test_thin_dropout_monte_carlo_matches_curve(self):
        # rod pixels at 90% of max range with a curve reaching 0.8 at the far
        # end: expected dropout 0.72, so well over half vanish on average
        x = np.full((30, 40), 0.9, np.float32)
        seg = np.zeros_like(x, dtype=np.uint16)
        seg[:, 18:20] = 1
        frame = DepthFrame(x, np.ones_like(x, dtype=np.uint8), seg)
        params_base = NoiseParams(blob_count_mean=0.0, shadow_band=0,
                                  thin_dropout_near=0.0, thin_dropout_far=0.8,
                                  quant_step=0.0)
        fractions = []
        for seed in range(100):
            out = corrupt(frame, params_base.with_seed(seed))
            fractions.append(1.0 - out.valid[:, 18:20].mean())
        mean_drop = float(np.mean(fractions))
        assert mean_drop >= 0.5
        assert abs(mean_drop - 0.72) < 0.05  # matches the configured curve

    def test_quantization_steps_depth(self):
        frame = self._frame(5)
        params = NoiseParams(blob_count_mean=0.0, shadow_band=0, thin_dropout_near=0.0,
                             thin_dropout_far=0.0, quant_step=1.0 / 64.0, seed=0)
        out = corrupt(frame, params)
        scaled = out.x[out.valid > 0] * 64.0
        assert np.allclose(scaled, np.round(scaled), atol=1e-5)


class TestDownsample:
    def test_constant_valid_frame_stays_constant(self):
        frame = DepthFrame(np.full((8, 12), 0.4, np.float32), np.ones((8, 12), np.uint8),
                           np.zeros((8, 12), np.uint16))
        out = downsample(frame, (4, 6))
        assert np.allclose(out.x, 0.4)
        assert out.valid.all()

    def test_min_pool_block_rule(self):
        # block {1.0 invalid, 0.4 valid, 0.6 valid, invalid} -> 0.4 valid
        x = np.array([[1.0, 0.4], [0.6, 0.0]], np.float32)
        valid = np.array([[0, 1], [1, 0]], np.uint8)
        x = x * valid
        seg = np.array([[0, 3], [2, 0]], np.uint16)
        frame = DepthFrame(x, valid, seg)
        out = downsample(frame, (1, 1))
        assert out.x[0, 0] == np.float32(0.4)
        assert out.valid[0, 0] == 1
        assert out.seg[0, 0] == 3  # semantics follow the min-depth source

    def test_all_invalid_block_stays_invalid(self):
        frame = DepthFrame(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.uint8),
                           np.zeros((2, 2), np.uint16))
        out = downsample(frame, (1, 1))
        assert out.valid[0, 0] == 0 and out.x[0, 0] == 0

    def test_thin_rod_column_survives_2x_downsampling(self):
        cam = CameraModel(height=120, width=160, offset=(0.0, 0.0, 0.0))
        world = World(cylinders=np.array([[1.2, 0.0, 0.02, 3.0, 1.0]]),
                      boxes=np.zeros((0, 7)), bounds=(0, 0, 10, 10), ceiling=5.0)
        frame = render(world, cam, [0.0, 0.0, 1.0], 0.0)
        assert (frame.seg > 0).any()
        out = downsample(frame, (60, 80))
        assert (out.seg > 0).any()  # min-pooling never erases the nearest rod
        check_frame_invariants(out)

    def test_conservatism_property(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.05, 1.0, (12, 16)).astype(np.float32)
        valid = (rng.random((12, 16)) > 0.3).astype(np.uint8)
        x[valid == 0] = 0
        frame = DepthFrame(x, valid, np.zeros_like(valid, dtype=np.uint16))
        out = downsample(frame, (6, 8))
        for bi in range(6):
            for bj in range(8):
                block_valid = valid[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2] > 0
                if block_valid.any():
                    source_min = x[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2][block_valid].min()
                    assert out.x[bi, bj] <= source_min + 0.0

    def test_upsampling_rejected(self):
        frame = DepthFrame(np.zeros((4, 4), np.float32), np.zeros((4, 4), np.uint8),
                           np.zeros((4, 4), np.uint16))
        with pytest.raises(ShapeError, match="upsample"):
            downsample(frame, (8, 8))

    def test_non_integer_ratio_uses_nearest_neighbor(self):
        rng = np.random.default_rng(2)
        x = rng.random((10, 9)).astype(np.float32)
        frame = DepthFrame(x, np.ones((10, 9), np.uint8), np.zeros((10, 9), np.uint16))
        out = downsample(frame, (5, 4))
        assert out.shape == (5, 4)
        assert np.isin(out.x, x).all()


class TestPgm:
    def test_pgm_round_trip_8_and_16_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        a8 = rng.integers(0, 256, size=(7, 9)).astype(np.uint8)
        write_pgm(tmp_path / "a.pgm", a8, 255)
        back, maxval = read_pgm(tmp_path / "a.pgm")
        assert maxval == 255 and np.array_equal(back, a8)
        a16 = rng.integers(0, 65536, size=(5, 6)).astype(np.uint16)
        write_pgm(tmp_path / "b.pgm", a16, 65535)
        back, maxval = read_pgm(tmp_path / "b.pgm")
        assert maxval == 65535 and np.array_equal(back, a16)

    def test_depth_frame_quantized_round_trip(self):
        rng = np.random.default_rng(1)
        q = rng.integers(1, 65534, size=(6, 8)).astype(np.uint16)
        valid = (rng.random((6, 8)) > 0.3).astype(np.uint8)
        q[valid == 0] = 0
        frame = depth_pgm_to_frame(q)
        assert np.array_equal(frame.valid, valid)
        assert np.array_equal(frame_to_depth_pgm(frame), q)
