"""World generation, collision geometry, dynamics, and rollouts."""

import hashlib
import math

import numpy as np
import pytest

from depthnav.camera import DepthFrame
from depthnav.container import save_arrays
from depthnav.data import label_episode
from depthnav.errors import WorldError
from depthnav.planner import LibraryConfig, build_library
from depthnav.world import (
    GRAVITY,
    SUBSTEPS,
    DynamicsParams,
    RobotState,
    World,
    WorldGenParams,
    batch_min_clearance,
    check_collision,
    desk_world_params,
    empty_world,
    find_free_start,
    generate_world,
    hover_state,
    load_world,
    min_clearance,
    paper_world_params,
    poisson_disc_sample,
    rollout_episode,
    rollout_collision_matrix,
    rot_z,
    sample_action_sequence,
    save_world,
    step_with_collision,
    world_summary,
    wrap_angle,
)
from depthnav.world import _fly, _RawDraws


def _substep(state, action, sub, params=DynamicsParams()):
    """One substep of the vehicle model for one state, in scalar operations:
    the independent reference that the package's batched integrator must
    reproduce bit for bit."""
    action = np.asarray(action, dtype=np.float64)
    v_ref, steer = action[:3], action[3]
    speed = np.linalg.norm(v_ref)
    if speed > params.v_max:
        v_ref = v_ref * (params.v_max / speed)
    v_cmd = rot_z(steer) @ v_ref
    velocity = v_cmd + (state.velocity - v_cmd) * np.exp(-sub / params.tau_v)
    limit = params.omega_max * sub
    dyaw = np.clip(wrap_angle(steer) * (1.0 - np.exp(-sub / params.tau_yaw)), -limit, limit)
    yaw = wrap_angle(state.yaw + dyaw)
    accel = (v_cmd - state.velocity) / params.tau_v
    return RobotState(state.position + sub * (rot_z(yaw) @ velocity), yaw, velocity, dyaw / sub,
                      np.arctan2(-accel[1], GRAVITY), np.arctan2(accel[0], GRAVITY))


class TestPoissonDisc:
    def test_min_pairwise_distance_holds(self):
        for seed in range(5):
            pts = poisson_disc_sample((0, 0, 20, 20), 2.0, seed=seed)
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            d2[np.diag_indices(len(pts))] = np.inf
            assert np.sqrt(d2.min()) >= 2.0

    def test_radius_larger_than_diagonal_gives_one_point(self):
        pts = poisson_disc_sample((0, 0, 10, 10), 20.0, seed=3)
        assert len(pts) == 1

    def test_count_within_hexagonal_packing_window(self):
        # oracle: hexagonal packing bounds the density of r-separated points
        area, r = 50.0 * 50.0, 3.0
        bound = 2.0 / (np.sqrt(3.0) * r * r) * area
        for seed in range(3):
            n = len(poisson_disc_sample((0, 0, 50, 50), r, seed=seed))
            assert 0.5 * bound <= n <= bound

    def test_degenerate_region_is_empty(self):
        assert len(poisson_disc_sample((5, 5, 5, 9), 1.0, seed=0)) == 0

    def test_invalid_radius_rejected(self):
        with pytest.raises(WorldError):
            poisson_disc_sample((0, 0, 1, 1), 0.0, seed=0)

    @pytest.mark.parametrize("region,r", [
        ((0, 0, 1, 1), float("nan")),
        ((0, 0, 1, 1), float("inf")),
        ((0, 0, float("nan"), 1), 0.5),
        ((0, float("-inf"), 1, 1), 0.5),
    ])
    def test_non_finite_radius_or_region_rejected(self, region, r):
        with pytest.raises(WorldError, match="finite"):
            poisson_disc_sample(region, r, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_candidate_rejected(self, k):
        with pytest.raises(WorldError, match="k >= 1"):
            poisson_disc_sample((0, 0, 10, 10), 1.0, seed=0, k=k)

    def test_points_stay_inside_region(self):
        pts = poisson_disc_sample((2, 3, 12, 9), 1.5, seed=7)
        assert np.all(pts[:, 0] >= 2) and np.all(pts[:, 0] < 12)
        assert np.all(pts[:, 1] >= 3) and np.all(pts[:, 1] < 9)


def _reference_poisson(region, r, seed, k=30):
    """The sampler as it drew through np.random.Generator methods, with a
    state rewind: the reference that the raw-word sampler must reproduce
    bit for bit."""
    x0, y0, x1, y1 = region
    w, h = x1 - x0, y1 - y0
    if w <= 0 or h <= 0:
        return np.zeros((0, 2))
    rng = np.random.default_rng(seed)
    bitgen = rng.bit_generator
    cell = r / math.sqrt(2.0)
    gw, gh = int(math.ceil(w / cell)), int(math.ceil(h / cell))
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

    place((x0 + rng.random() * w, y0 + rng.random() * h))
    n = 2 * k
    while active:
        pick = int(rng.integers(len(active)))
        bx, by = active[pick]
        saved = bitgen.state
        u = rng.random(n).tolist()
        for i in range(0, n, 2):
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
                if i + 2 < n:
                    bitgen.state = saved
                    rng.random(i + 2)
                break
        else:
            active[pick] = active[-1]
            active.pop()
    return np.array(points)


def _sampler_cases(n=1000):
    """(region, r, seed, k) cases: degenerate regions, regions that hold one
    point, tall narrow strips, desk-size and paper-size sections."""
    rng = np.random.default_rng(20)
    cases = []
    for i in range(n):
        x0, y0 = (float(v) for v in rng.uniform(-30.0, 30.0, 2))
        seed = int(rng.integers(2**63 - 1))
        k = 30 if i % 4 else int(rng.integers(1, 40))
        kind = i % 10
        if kind == 0:    # degenerate: zero or negative width or height
            w, h = (float(v) for v in rng.choice([0.0, -1.5, 2.0], 2, replace=False))
            r = float(rng.uniform(0.2, 2.0))
        elif kind == 1:  # one point: r exceeds the diagonal, so integers(1) picks
            w, h = (float(v) for v in rng.uniform(0.01, 3.0, 2))
            r = math.hypot(w, h) * float(rng.uniform(1.01, 3.0))
        elif kind == 2:  # tall narrow strip
            w, h = float(rng.uniform(0.05, 1.0)), float(rng.uniform(5.0, 25.0))
            r = float(rng.uniform(0.3, 1.5))
        elif kind == 3 and i % 50 == 3:  # paper-size section at paper spacings
            w = h = 50.0
            r = float(rng.choice([2.5, 3.0, 3.5, 4.5, 6.0, 6.5]))
        else:
            w, h = (float(v) for v in rng.uniform(0.5, 8.0, 2))
            r = float(rng.uniform(0.3, 2.0))
        cases.append(((x0, y0, x0 + w, y0 + h), r, seed, k))
    return cases


class TestRawDraws:
    """The raw-word draws against np.random.Generator on the same seed."""

    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 2])
    def test_random_and_uniform(self, seed):
        ref, draws = np.random.default_rng(seed), _RawDraws(seed)
        for i in range(3 * _RawDraws.BLOCK):  # across block boundaries
            if i % 3:
                assert draws.random() == ref.random()
            else:
                a, b = -1.5 * i, 0.25 * i + 1.0
                assert draws.uniform(a, b) == ref.uniform(a, b)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 1000, 10**5, 2**31 + 1, 2**32])
    def test_integers_interleaved_with_random(self, m):
        # random() between integers() leaves the buffered high half alone;
        # 2**31 + 1 rejects about half the 32-bit draws
        ref, draws = np.random.default_rng(m), _RawDraws(m)
        for i in range(2000):
            assert draws.integers(m) == int(ref.integers(m))
            for _ in range(i % 3):
                assert draws.random() == ref.random()

    def test_read_ahead_then_consume(self):
        # a pick tests words ahead of the cursor and consumes only those used
        ref, draws = np.random.default_rng(3), _RawDraws(3)
        for i in range(400):
            n = 1 + i % 70 if i % 50 else 2 * _RawDraws.BLOCK
            used = i % n
            assert draws.integers(5 + i) == int(ref.integers(5 + i))
            u, c = draws.ahead(n)
            assert len(u) - c >= n
            assert u[c:c + used] == ref.random(used).tolist()
            draws.pos = c + used


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Digests of the reference Bridson sampler and world generator.  Any change
# to the random draw sequence or to the distance arithmetic moves every world
# downstream (corpora, collision sets, missions), so these pin them bit for bit.
# Keys are (region, r, seed, k); k = 30 is the default.
POISSON_GOLDEN = {
    ((0.0, 0.0, 20.0, 20.0), 1.3, 0, 30): "ebbdd3f3f902b693bc116b40f43f6c1e80026e5527397781f458dcb902dc7b02",
    ((2.0, 3.0, 12.0, 9.0), 0.7, 7919, 30): "670acf63484a6dd9ceff5559e33833ff87ca30632fdfb2541100990f61a96b4c",
    # one candidate per pick: every accepted candidate is the pick's last
    ((0.0, 0.0, 20.0, 20.0), 1.3, 0, 1): "0bd7db20ea813114eee9811e730cec73c04933523accec55115f796e6f247193",
    # paper-scale spacings (rods-only dense, large-only sparse) over a 50 m section
    ((0.0, 0.0, 50.0, 50.0), 2.5, 202, 30): "42e839fa4cacd5c2155fa2a058f174faa1ffbb8c275d9d577f65c0172b6bb87b",
    ((0.0, 0.0, 50.0, 50.0), 6.5, 7919, 30): "c8cdd30192ca75fd721b7a7697f02cd0f35ee0240936208490a5c9c68f7cc92f",
    # a strip barely wider than r: most candidates fall outside the region
    ((-3.0, 1.0, 27.0, 1.6), 0.5, 11, 30): "dce6128de29cf391549294e5a58ed80f09d2d1532bcdbf86cbbfb2ea98f0afe3",
}
# test ids "region<i>-<r>-<seed>", with "-k<k>" for a non-default k
POISSON_IDS = [f"region{i}-{r}-{seed}" + ("" if k == 30 else f"-k{k}")
               for i, (_, r, seed, k) in enumerate(POISSON_GOLDEN)]
WORLD_GOLDEN = {
    ("desk", "sparse", 3): "2542adfa0004c2ac1369eb2d022e131f3883e134e69553b02772f554cd6fd6d4",
    ("desk", "sparse", 11): "0b6156dc48cbf43deb9e2ae618821fe2857763504c6c62ea0378628bd7bb229d",
    ("desk", "medium", 3): "44f92e49afe3c603b631512caa57f3bc2bf6bb632ca7653305669a38b9b0954f",
    ("desk", "medium", 11): "a5281f57d0fbfe2ae7d811466a97ed34cbde4df5c5ef17d4813e0782028a64cd",
    ("desk", "dense", 3): "cc353ba2c4f0f577ea070bfe00e2ce115396d42197a22b4f9ba6f6dcc4070df4",
    ("desk", "dense", 11): "f553a1d66a64a3a46bce9f54e1115cd5543070686d893d2c68a57d351a4faa4d",
    ("paper", "dense", 5): "cd16888656f1db2dbbc2397d981e0cf790d26e9e261fcc11193ac7507239f46a",
}


class TestGolden:
    @pytest.mark.parametrize("region,r,seed,k", list(POISSON_GOLDEN), ids=POISSON_IDS)
    def test_poisson_points_bit_identical(self, region, r, seed, k):
        pts = poisson_disc_sample(region, r, seed=seed, k=k)
        assert _sha(pts) == POISSON_GOLDEN[(region, r, seed, k)]

    @pytest.mark.parametrize("scale,env,seed", list(WORLD_GOLDEN))
    def test_world_bit_identical(self, scale, env, seed):
        params_fn = desk_world_params if scale == "desk" else paper_world_params
        world = generate_world(params_fn(env, seed=seed))
        assert _sha(world.cylinders, world.boxes) == WORLD_GOLDEN[(scale, env, seed)]


class TestWorldGen:
    def test_sampler_matches_generator_reference(self):
        cases = _sampler_cases()
        assert len(cases) >= 1000
        sizes = set()
        for region, r, seed, k in cases:
            pts = poisson_disc_sample(region, r, seed, k)
            ref = _reference_poisson(region, r, seed, k)
            assert pts.shape == ref.shape and pts.tobytes() == ref.tobytes(), (region, r, seed, k)
            sizes.add(min(len(pts), 2))
        assert sizes == {0, 1, 2}  # degenerate, one-point and many-point cases all ran

    def test_box_trig_is_the_scalar_cos_and_sin(self):
        world = generate_world(desk_world_params("dense", seed=4))
        cos_b, sin_b = world.box_cos_sin
        assert len(cos_b) == len(sin_b) == len(world.boxes) > 0
        for yaw, c, s in zip(world.boxes[:, 4], cos_b, sin_b):
            assert c == np.cos(yaw) and s == np.sin(yaw)
        assert world.box_cos_sin is world.box_cos_sin  # taken once per world

    def test_three_sections_and_thin_rules(self):
        params = desk_world_params("medium", seed=11)
        world = generate_world(params)
        s = params.section_size
        cyl, box = world.cylinders, world.boxes
        # section 3 contains only thin-flagged obstacles
        in_s3_cyl = cyl[cyl[:, 0] >= 2 * s]
        assert len(in_s3_cyl) > 0
        assert np.all(2 * in_s3_cyl[:, 2] < 0.05)
        assert np.all(in_s3_cyl[:, 4] >= 1)
        assert not len(box[box[:, 0] >= 2 * s])
        # section 1 contains only large obstacles (instance id 0)
        s1 = cyl[cyl[:, 0] < s]
        assert np.all(s1[:, 4] == 0)
        # thin instance ids are unique
        thin_ids = cyl[cyl[:, 4] >= 1][:, 4]
        assert len(np.unique(thin_ids)) == len(thin_ids)

    def test_same_seed_identical_world_bytes(self, tmp_path):
        for name, seed in [("a", 5), ("b", 5)]:
            save_world(tmp_path / name, generate_world(desk_world_params("sparse", seed=seed)))
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        different = generate_world(desk_world_params("sparse", seed=6))
        save_world(tmp_path / "c", different)
        assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()

    def test_world_file_round_trip_and_summary(self, tmp_path):
        world = generate_world(desk_world_params("dense", seed=2))
        save_world(tmp_path / "w.bin", world)
        loaded = load_world(tmp_path / "w.bin")
        assert np.array_equal(world.cylinders, loaded.cylinders)
        assert np.array_equal(world.boxes, loaded.boxes)
        assert world.bounds == loaded.bounds
        text = world_summary(world)
        assert "thin" in text and "obstacles" in text

    @pytest.mark.parametrize("cylinders,boxes,match", [
        (np.ones((3, 7)), np.ones((1, 7)), r"cylinders must be an \(N, 5\) table, got \(3, 7\)"),
        (np.ones(5), np.ones((1, 7)), r"cylinders must be an \(N, 5\) table"),
        (np.ones((2, 5)), np.ones((1, 5)), r"boxes must be an \(N, 7\) table"),
        (np.full((2, 5), np.nan), np.ones((1, 7)), "non-finite cylinders"),
        (np.ones((2, 5)), np.full((1, 7), np.inf), "non-finite boxes"),
        (np.ones((2, 5)), None, r"boxes must be an \(N, 7\) table, got None"),
    ])
    def test_bad_table_in_a_valid_file_rejected(self, tmp_path, cylinders, boxes, match):
        arrays = {"cylinders": cylinders} if boxes is None else \
            {"cylinders": cylinders, "boxes": boxes}
        save_arrays(tmp_path / "w.bin", arrays,
                    {"kind": "world", "bounds": [0.0, 0.0, 3.0, 1.0], "ceiling": 4.0})
        with pytest.raises(WorldError, match=match):
            load_world(tmp_path / "w.bin")

    @pytest.mark.parametrize("bounds,ceiling", [([0.0, 0.0, 3.0], 4.0), ([0.0, 0.0, 3.0, "x"], 4.0),
                                                ([0.0, 0.0, 3.0, 1.0], float("nan")),
                                                (None, 4.0)])
    def test_bad_bounds_in_a_valid_file_rejected(self, tmp_path, bounds, ceiling):
        save_arrays(tmp_path / "w.bin", {"cylinders": np.ones((2, 5)), "boxes": np.ones((1, 7))},
                    {"kind": "world", "bounds": bounds, "ceiling": ceiling})
        with pytest.raises(WorldError, match="bounds"):
            load_world(tmp_path / "w.bin")

    def test_paper_scale_params(self):
        params = paper_world_params("dense", seed=0)
        assert params.radii == (6.0, 6.0, 3.0, 2.5)
        assert params.course_length == 150.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_radius_rejected(self, bad):
        with pytest.raises(WorldError, match="radii"):
            WorldGenParams(radii=(1.0, bad, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -15.0])
    def test_non_finite_or_non_positive_section_size_rejected(self, bad):
        # a zero section used to give an empty world with zero-size bounds
        with pytest.raises(WorldError, match="section_size"):
            WorldGenParams(radii=(1.0, 1.0, 1.0, 1.0), section_size=bad)

    @pytest.mark.parametrize("params_fn", [desk_world_params, paper_world_params])
    def test_unknown_environment_rejected(self, params_fn):
        with pytest.raises(WorldError, match="unknown environment 'forest'"):
            params_fn("forest", seed=0)


def _brute_obstacle_distances(world, pos):
    """Distance from a point to every obstacle solid, one scalar math
    computation per obstacle (cylinders, then boxes)."""
    px, py, pz = pos
    for cx, cy, r, h, _ in world.cylinders:
        dxy = max(math.hypot(px - cx, py - cy) - r, 0.0)
        dz = max(-pz, pz - h, 0.0)
        yield math.hypot(dxy, dz)
    for cx, cy, ex, ey, yaw, h, _ in world.boxes:
        ca, sa = math.cos(yaw), math.sin(yaw)
        qx = ca * (px - cx) + sa * (py - cy)
        qy = -sa * (px - cx) + ca * (py - cy)
        dx = max(abs(qx) - ex, 0.0)
        dy = max(abs(qy) - ey, 0.0)
        dz = max(-pz, pz - h, 0.0)
        yield math.sqrt(dx * dx + dy * dy + dz * dz)


class TestCollision:
    def test_empty_world_never_collides_inside_bounds(self):
        world = empty_world()
        rng = np.random.default_rng(0)
        for _ in range(50):
            pos = rng.uniform([0, 0, 0.5], [10, 10, 3.5])
            assert not check_collision(world, pos, 0.3)

    def test_sphere_cylinder_threshold(self):
        world = World(cylinders=np.array([[5.0, 5.0, 0.5, 3.0, 0.0]]),
                      boxes=np.zeros((0, 7)), bounds=(0, 0, 10, 10), ceiling=10.0)
        r_total = 0.5 + 0.3
        inside = np.array([5.0 + r_total * 0.99, 5.0, 1.0])
        outside = np.array([5.0 + r_total * 1.01, 5.0, 1.0])
        assert check_collision(world, inside, 0.3)
        assert not check_collision(world, outside, 0.3)

    def test_above_cylinder_top_uses_vertical_distance(self):
        world = World(cylinders=np.array([[0.0, 0.0, 0.5, 2.0, 0.0]]),
                      boxes=np.zeros((0, 7)), bounds=(0, 0, 10, 10), ceiling=10.0)
        assert check_collision(world, np.array([0.0, 0.0, 2.0 + 0.29]), 0.3)
        assert not check_collision(world, np.array([0.0, 0.0, 2.0 + 0.31]), 0.3)

    def test_ground_and_ceiling_bounds(self):
        world = empty_world(ceiling=4.0)
        assert check_collision(world, np.array([1.0, 1.0, 0.25]), 0.3)
        assert check_collision(world, np.array([1.0, 1.0, 3.75]), 0.3)
        assert not check_collision(world, np.array([1.0, 1.0, 2.0]), 0.3)

    def test_matches_independent_brute_force(self):
        """check_collision (vectorized) vs a scalar math reimplementation."""
        world = generate_world(desk_world_params("dense", seed=9))
        rng = np.random.default_rng(1)

        def brute(pos, radius):
            pz = pos[2]
            if pz - radius < 0 or pz + radius > world.ceiling:
                return True
            return any(d <= radius for d in _brute_obstacle_distances(world, pos))

        queries = rng.uniform([0, 0, 0.1], [45, 15, 3.9], size=(1000, 3))
        for pos in queries:
            assert check_collision(world, pos, 0.3) == brute(pos, 0.3)

    def test_batch_clearance_matches_scalar(self):
        world = generate_world(desk_world_params("medium", seed=4))
        rng = np.random.default_rng(2)
        pts = rng.uniform([0, 0, 0.2], [45, 15, 3.8], size=(64, 3))
        batch = batch_min_clearance(world, pts)
        scalar = np.array([min(p[2], world.ceiling - p[2], *_brute_obstacle_distances(world, p))
                           for p in pts])
        assert np.allclose(batch, scalar, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, bad):
        # a NaN clearance would read as free to every `<= radius` test
        world = generate_world(desk_world_params("sparse", seed=1))
        pts = np.array([[5.0, 7.0, 1.0], [6.0, 7.0, 1.0]])
        pts[1, 2] = bad
        with pytest.raises(WorldError, match="non-finite"):
            batch_min_clearance(world, pts)
        with pytest.raises(WorldError, match="non-finite"):
            min_clearance(world, pts[1])

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,), (2, 3, 3)])
    def test_positions_not_shaped_n_by_3_rejected(self, shape):
        world = generate_world(desk_world_params("sparse", seed=1))
        with pytest.raises(WorldError, match=r"\(N, 3\)"):
            batch_min_clearance(world, np.ones(shape))

    def test_point_without_height_rejected(self):
        world = generate_world(desk_world_params("sparse", seed=1))
        with pytest.raises(WorldError, match=r"\(N, 3\)"):
            min_clearance(world, np.array([5.0, 7.0]))


class TestDynamics:
    @pytest.mark.parametrize("field", ["tau_v", "tau_yaw", "omega_max", "v_max"])
    @pytest.mark.parametrize("bad", [0.0, -0.3, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_rate_parameter_rejected(self, field, bad):
        with pytest.raises(WorldError, match=field):
            DynamicsParams(**{field: bad})

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf"), float("-inf")])
    def test_negative_or_non_finite_collision_radius_rejected(self, bad):
        with pytest.raises(WorldError, match="collision_radius"):
            DynamicsParams(collision_radius=bad)

    def test_zero_collision_radius_is_a_point_vehicle(self):
        params = DynamicsParams(collision_radius=0.0)
        assert not check_collision(empty_world(), np.array([1.0, 1.0, 1e-9]), params.collision_radius)

    @staticmethod
    def _step(state, action, dt, params=DynamicsParams()):
        """One control interval in a world with nothing to hit."""
        state, hit = step_with_collision(empty_world(), state, action, dt, params)
        assert not hit
        return state

    def test_equilibrium_action_only_advances_position(self):
        state = hover_state([0, 0, 1.0])
        state.velocity = np.array([0.8, 0.0, 0.0])
        nxt = self._step(state, np.array([0.8, 0.0, 0.0, 0.0]), 0.1)
        assert np.allclose(nxt.velocity, state.velocity)
        assert nxt.yaw == state.yaw
        assert nxt.roll == 0.0 and nxt.pitch == 0.0
        assert nxt.position[0] > state.position[0]

    def test_hover_from_rest_is_stationary(self):
        state = hover_state([1, 2, 1.0])
        nxt = self._step(state, np.zeros(4), 0.05)
        assert np.allclose(nxt.position, state.position)
        assert nxt.roll == 0.0 and nxt.pitch == 0.0

    def test_step_response_matches_first_order_closed_form(self):
        # oracle: v(t) = 1 - exp(-t / tau) for a unit velocity reference
        state = hover_state([0, 0, 1.0])
        params = DynamicsParams(tau_v=0.3)
        for _ in range(20):  # 1 s at dt = 0.05
            state = self._step(state, np.array([1.0, 0, 0, 0]), 0.05, params)
        expected = 1.0 - np.exp(-1.0 / 0.3)
        assert 0.95 <= state.velocity[0] <= 0.97
        assert abs(state.velocity[0] - expected) < 1e-9

    def test_speed_decays_monotonically_with_zero_reference(self):
        state = hover_state([0, 0, 1.0])
        state.velocity = np.array([1.2, -0.4, 0.3])
        prev = np.linalg.norm(state.velocity)
        for _ in range(40):
            state = self._step(state, np.zeros(4), 0.05)
            speed = np.linalg.norm(state.velocity)
            assert speed <= prev + 1e-12
            prev = speed

    def test_reference_speed_clamped_to_v_max(self):
        state = hover_state([0, 0, 1.0])
        params = DynamicsParams(v_max=1.5)
        for _ in range(200):
            state = self._step(state, np.array([9.0, 0, 0, 0]), 0.05, params)
        assert np.linalg.norm(state.velocity) <= 1.5 + 1e-9

    @staticmethod
    def _assert_matrix_matches_scalar(world, start, actions, params=DynamicsParams()):
        mat = rollout_collision_matrix(world, start, actions, 0.25, params)
        for i in range(len(actions)):
            state, hit = start, False
            for t in range(actions.shape[1]):
                if not hit:
                    state, hit = step_with_collision(world, state, actions[i, t], 0.25, params)
                assert mat[i, t] == (1 if hit else 0)
        return mat

    def test_rollout_matrix_agrees_with_scalar_path(self):
        world = generate_world(desk_world_params("medium", seed=77))
        rng = np.random.default_rng(0)
        actions = rng.uniform(-1, 1, (16, 8, 4)) * np.array([1.2, 0.3, 0.6, 0.7])
        self._assert_matrix_matches_scalar(world, hover_state([1.0, 7.5, 1.0]), actions)

    def test_rollout_matrix_agrees_with_scalar_path_in_dense_world(self):
        # start moving faster than v_max among rods and boxes, with references
        # above v_max: the oracle must see every obstacle the scalar path sees
        world = generate_world(desk_world_params("dense", seed=5))
        rng = np.random.default_rng(3)
        for pos, yaw in [([19.0, 10.5, 1.2], 0.3), ([31.0, 7.5, 1.0], -2.9)]:
            start = RobotState(position=pos, yaw=yaw, velocity=[2.0, -0.4, 0.1])
            actions = rng.uniform(-1, 1, (24, 10, 4)) * np.array([2.5, 0.5, 0.2, 0.8])
            mat = self._assert_matrix_matches_scalar(world, start, actions)
            assert 0 < mat[:, -1].sum() < len(actions)

    def test_rollout_matrix_agrees_with_scalar_path_on_the_library(self):
        # the inputs the oracle actually scores: the motion-primitive
        # library's float32 constant sequences, from a free dense-world state
        world = generate_world(desk_world_params("dense", seed=5))
        start = find_free_start(world, np.random.default_rng(6), (16.0, 28.0), (2.0, 13.0))
        actions = build_library(LibraryConfig()).actions
        mat = self._assert_matrix_matches_scalar(world, start, actions)
        assert 0 < mat[:, -1].sum() < len(actions)

    @pytest.mark.parametrize("case", ["nan-action", "inf-action", "nan-position", "inf-velocity",
                                      "nan-yaw", "zero-dt", "negative-dt", "nan-dt",
                                      "2d-actions", "3-wide-actions"])
    def test_rollout_matrix_rejects_bad_inputs(self, case):
        world = generate_world(desk_world_params("sparse", seed=1))
        start = RobotState(position=[1.0, 7.5, 1.0], yaw=0.0, velocity=[0.5, 0.0, 0.0])
        actions, dt = np.tile([1.0, 0.0, 0.0, 0.1], (6, 4, 1)), 0.25
        if case.endswith("-action"):
            actions[2, 1, 0] = np.nan if case == "nan-action" else np.inf
        elif case == "nan-position":
            start.position[1] = np.nan
        elif case == "inf-velocity":
            start.velocity[0] = np.inf
        elif case == "nan-yaw":
            start.yaw = float("nan")
        elif case.endswith("-dt"):
            dt = {"zero-dt": 0.0, "negative-dt": -0.25, "nan-dt": float("nan")}[case]
        elif case == "2d-actions":
            actions = actions[:, 0]
        else:
            actions = actions[:, :, :3]
        with pytest.raises(WorldError):
            rollout_collision_matrix(world, start, actions, dt)

    def test_rollout_matrix_sees_obstacles_at_the_edge_of_reach(self):
        # rods in an annulus around the start that only the last steps can
        # reach, for a start faster than v_max and one at v_max, where the
        # horizon's travel plus the collision radius is a tight bound
        rng = np.random.default_rng(8)
        for speed, (near, far) in [(3.0, (4.1, 4.5)), (1.5, (3.8, 4.05))]:
            ang, dist = rng.uniform(-0.8, 0.8, 60), rng.uniform(near, far, 60)
            rods = np.stack([10 + dist * np.cos(ang), 10 + dist * np.sin(ang), np.full(60, 0.02),
                             np.full(60, 3.0), np.arange(1.0, 61.0)], axis=1)
            world = World(rods, np.zeros((0, 7)), (0, 0, 20, 20), 4.0)
            start = RobotState(position=[10.0, 10.0, 1.0], yaw=0.0, velocity=[speed, 0.0, 0.0])
            heading = rng.uniform(-0.8, 0.8, 48)
            actions = np.zeros((48, 10, 4))
            actions[:, :, 0] = 3.0 * np.cos(heading)[:, None]
            actions[:, :, 1] = 3.0 * np.sin(heading)[:, None]
            mat = self._assert_matrix_matches_scalar(world, start, actions)
            assert mat[:, -1].sum() > 0 and not mat[:, :-2].any()


class TestStepWithCollision:
    """step_with_collision only tests the obstacles within one interval's
    reach; these compare it with every obstacle checked at every substep."""

    @staticmethod
    def _unfiltered(world, state, action, dt, params, substeps=5):
        sub = dt / substeps
        for _ in range(substeps):
            state = _substep(state, action, sub, params)
            if check_collision(world, state.position, params.collision_radius):
                return state, True
        return state, False

    def _assert_matches_unfiltered(self, world, start, actions, params=DynamicsParams()):
        hits = []
        for action in actions:
            got, hit = step_with_collision(world, start, action, 0.25, params)
            want, want_hit = self._unfiltered(world, start, action, 0.25, params)
            assert hit == want_hit
            for field in ("position", "yaw", "velocity", "yaw_rate", "roll", "pitch"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            hits.append(hit)
        return np.array(hits)

    def test_matches_unfiltered_in_dense_world_with_fast_starts(self):
        world = generate_world(desk_world_params("dense", seed=5))
        rng = np.random.default_rng(4)
        hits = []
        for _ in range(40):
            pos = rng.uniform([1.0, 1.0, 0.6], [44.0, 14.0, 3.4])
            if check_collision(world, pos, 0.3):
                continue
            velocity = rng.uniform(-1, 1, 3) * np.array([3.0, 1.0, 0.2])
            start = RobotState(position=pos, yaw=rng.uniform(-np.pi, np.pi), velocity=velocity)
            actions = rng.uniform(-1, 1, (8, 4)) * np.array([2.5, 0.5, 0.2, 0.8])
            hits.extend(self._assert_matches_unfiltered(world, start, actions))
        assert 0 < sum(hits) < len(hits)

    def test_sees_rods_at_the_edge_of_reach(self):
        # rods that only the end of the interval can reach, for a start
        # faster than v_max and one at v_max, where the interval's travel
        # plus the collision radius is a tight bound
        rng = np.random.default_rng(8)
        for speed, (near, far) in [(3.0, (0.85, 0.95)), (1.5, (0.62, 0.7))]:
            ang, dist = rng.uniform(-0.8, 0.8, 5), rng.uniform(near, far, 5)
            rods = np.stack([10 + dist * np.cos(ang), 10 + dist * np.sin(ang), np.full(5, 0.02),
                             np.full(5, 3.0), np.arange(1.0, 6.0)], axis=1)
            world = World(rods, np.zeros((0, 7)), (0, 0, 20, 20), 4.0)
            start = RobotState(position=[10.0, 10.0, 1.0], yaw=0.0, velocity=[speed, 0.0, 0.0])
            heading = rng.uniform(-0.8, 0.8, 48)
            actions = np.zeros((48, 4))
            actions[:, 0], actions[:, 1] = 3.0 * np.cos(heading), 3.0 * np.sin(heading)
            hits = self._assert_matches_unfiltered(world, start, actions)
            assert 0 < hits.sum() < len(hits)

    def test_non_finite_state_rejected(self):
        world = generate_world(desk_world_params("sparse", seed=1))
        for pos, vel in [([np.nan, 7.0, 1.0], [0.0, 0.0, 0.0]), ([5.0, 7.0, 1.0], [np.inf, 0, 0]),
                         ([5.0, 7.0, 1.0], [np.nan, 0, 0])]:
            start = RobotState(position=pos, yaw=0.0, velocity=vel)
            with np.errstate(invalid="ignore"), pytest.raises(WorldError):
                step_with_collision(world, start, np.array([1.0, 0, 0, 0]), 0.25, DynamicsParams())


def _reference(world, start, actions, dt=0.25, params=DynamicsParams()):
    """Flags (M, T) and each row's state, flying every row alone one substep
    at a time and testing every obstacle at every substate; a row's state is
    its first colliding substate, or its last."""
    sub = dt / SUBSTEPS
    flags, states = [], []
    for row in actions:
        state, hit, row_flags = start, False, []
        for action in row:
            for _ in range(SUBSTEPS):
                if not hit:
                    state = _substep(state, action, sub, params)
                    hit = check_collision(world, state.position, params.collision_radius)
            row_flags.append(hit)
        flags.append(row_flags)
        states.append(state)
    return np.array(flags, dtype=bool).reshape(len(actions), actions.shape[1]), states


def _fly_states(world, start, actions, dt=0.25, params=DynamicsParams()):
    """_fly's flags and each row's state after its last interval, for
    float64 actions as rollout_collision_matrix flies them."""
    actions = np.asarray(actions, dtype=np.float64)
    hits, state_after = _fly(world, start, actions, dt, params)
    return hits, [state_after(actions.shape[1] - 1, row) for row in range(len(actions))]


STATE_FIELDS = ("position", "yaw", "velocity", "yaw_rate", "roll", "pitch")


class TestPathCheck:
    """rollout_collision_matrix and step_with_collision fly a whole path,
    then cull the obstacles by each row's swept box before the exact test.
    These compare them with every obstacle tested at every substep."""

    START = RobotState(position=[2.0, 5.0, 1.5], yaw=0.0, velocity=[1.0, 0.0, 0.0])
    STRAIGHT = np.tile([1.0, 0.0, 0.0, 0.0], (1, 10, 1))  # x advances 0.05 m per substep

    def _assert_matches_reference(self, world, start, actions):
        """Batched flags and states equal the reference and each row flown
        alone; returns the flags."""
        hits, states = _fly_states(world, start, actions)
        want_hits, want_states = _reference(world, start, actions)
        assert np.array_equal(hits, want_hits)
        assert np.array_equal(rollout_collision_matrix(world, start, actions, 0.25), want_hits)
        for i, (got, want) in enumerate(zip(states, want_states)):
            alone_hits, (alone,) = _fly_states(world, start, actions[i:i + 1])
            assert np.array_equal(alone_hits[0], hits[i])
            for field in STATE_FIELDS:
                assert np.array_equal(getattr(got, field), getattr(alone, field)), field
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
        return hits

    @staticmethod
    def _substate_x(k):
        """x of substate k on the STRAIGHT path (exact: nothing but x moves)."""
        state = TestPathCheck.START
        for _ in range(k + 1):
            state = _substep(state, TestPathCheck.STRAIGHT[0, 0], 0.25 / SUBSTEPS)
        assert state.position[1] == 5.0 and state.position[2] == 1.5
        return state.position[0]

    def _with_rows_beside(self, row):
        """The row, plus rows steering off to either side, in one batch."""
        others = np.tile([1.0, 0.0, 0.0, 0.0], (4, 10, 1))
        others[:, :, 3] = [[-0.6], [-0.3], [0.3], [0.6]]
        return np.concatenate([row, others])

    @pytest.mark.parametrize("rod", [0.5, 0.02])
    @pytest.mark.parametrize("slack", [-1e-9, 1e-9])
    def test_grazing_a_cylinder_side_at_the_radius(self, rod, slack):
        # the footprint circle of the obstacle, widened by the collision
        # radius, just reaches the row's box: cull it by centre alone, or
        # without the collision radius, and the touch goes unseen
        r = DynamicsParams().collision_radius
        x = self._substate_x(12)  # interval 2
        world = World([[x, 5.0 + rod + r + slack, rod, 3.0, 0.0]], np.zeros((0, 7)),
                      (0, 0, 20, 10), 4.0)
        hits = self._assert_matches_reference(world, self.START, self._with_rows_beside(self.STRAIGHT))
        want = [0, 0] + [1] * 8 if slack < 0 else [0] * 10
        assert hits[0].tolist() == want

    @pytest.mark.parametrize("slack", [-1e-9, 1e-9])
    def test_grazing_the_corner_of_a_rotated_box(self, slack):
        r = DynamicsParams().collision_radius
        ex, ey = 0.3, 0.1
        yaw = -np.pi / 2 - math.atan2(ey, ex)  # the (ex, ey) corner points at -y
        x = self._substate_x(27)  # interval 5
        box = [x, 5.0 + math.hypot(ex, ey) + r + slack, ex, ey, yaw, 3.0, 0.0]
        world = World(np.zeros((0, 5)), [box], (0, 0, 20, 10), 4.0)
        hits = self._assert_matches_reference(world, self.START, self._with_rows_beside(self.STRAIGHT))
        assert hits[0].tolist() == ([0] * 5 + [1] * 5 if slack < 0 else [0] * 10)

    @pytest.mark.parametrize("slack", [-1e-9, 1e-9])
    def test_passing_over_a_short_cylinder_top(self, slack):
        r = DynamicsParams().collision_radius
        height = 1.5 - r - slack
        world = World([[self._substate_x(30), 5.0, 0.2, height, 0.0]], np.zeros((0, 7)),
                      (0, 0, 20, 10), 4.0)
        hits = self._assert_matches_reference(world, self.START, self._with_rows_beside(self.STRAIGHT))
        assert hits[0].any() == (slack < 0)

    @pytest.mark.parametrize("z,slack", [(0.3, -1e-9), (0.3, 1e-9), (3.7, 1e-9), (3.7, -1e-9)])
    def test_ground_and_ceiling_contacts(self, z, slack):
        # level flight at the radius above the ground or below the ceiling,
        # with the only obstacle far away
        z = z + slack if z < 2.0 else z - slack
        start = RobotState(position=[2.0, 5.0, z], yaw=0.0, velocity=[1.0, 0.0, 0.0])
        world = World([[15.0, 5.0, 0.3, 3.0, 0.0]], np.zeros((0, 7)), (0, 0, 20, 10), 4.0)
        hits = self._assert_matches_reference(world, start, self._with_rows_beside(self.STRAIGHT))
        assert hits.all() if slack < 0 else not hits.any()

    def test_climbing_and_descending_into_ceiling_and_ground(self):
        world = generate_world(desk_world_params("sparse", seed=2))
        start = RobotState(position=[1.0, 7.5, 2.0], yaw=0.1, velocity=[0.5, 0.0, 0.0])
        actions = np.zeros((6, 10, 4))
        actions[:, :, 0] = 0.6
        actions[:, :, 2] = [[-1.4], [-0.9], [-0.4], [0.4], [0.9], [1.4]]
        hits = self._assert_matches_reference(world, start, actions)
        assert hits[[0, 1, 4, 5], -1].all()

    def test_rows_that_all_collide_in_the_first_interval(self):
        # every row hits a wall in the first interval, where flying used to
        # stop early; each row still returns its own first colliding substate
        r = DynamicsParams().collision_radius
        wall = [2.0 + r + 0.06, 5.0, 0.05, 4.0, 0.0, 4.0, 0.0]
        world = World(np.zeros((0, 5)), [wall], (0, 0, 20, 10), 4.0)
        start = RobotState(position=[2.0, 5.0, 1.5], yaw=0.0, velocity=[1.5, 0.0, 0.0])
        actions = build_library(LibraryConfig()).actions
        hits = self._assert_matches_reference(world, start, actions)
        assert hits.all()

    def test_no_rows_and_the_empty_world(self):
        world = generate_world(desk_world_params("dense", seed=5))
        flags = rollout_collision_matrix(world, self.START, np.zeros((0, 10, 4)), 0.25)
        assert flags.shape == (0, 10) and flags.dtype == np.uint8
        actions = build_library(LibraryConfig()).actions
        assert not self._assert_matches_reference(empty_world(), self.START, actions).any()

    def test_batched_rows_match_rows_flown_alone_in_a_dense_world(self):
        world = generate_world(desk_world_params("dense", seed=5))
        rng = np.random.default_rng(12)
        for pos, yaw in [([19.0, 10.5, 1.2], 0.3), ([31.0, 7.5, 1.0], -2.9)]:
            start = RobotState(position=pos, yaw=yaw, velocity=[2.0, -0.4, 0.1])
            actions = rng.uniform(-1, 1, (12, 10, 4)) * np.array([2.5, 0.5, 0.2, 0.8])
            hits = self._assert_matches_reference(world, start, actions)
            assert 0 < hits[:, -1].sum() < len(actions)


class TestRollout:
    def _sensor(self):
        return lambda state: None  # frames are opaque to the rollout logic

    def test_empty_world_times_out_with_zero_flags(self):
        # with no obstacles, only the ground/ceiling bounds could end an
        # episode, and 30 steps climb or sink less than 5 m of the 250 m
        episode = rollout_episode(empty_world(extent=500.0, ceiling=500.0),
                                  hover_state([5, 250, 250.0]), self._sensor(), seed=0,
                                  max_steps=30)
        assert not episode.ended_in_collision
        assert len(episode) == 30
        assert episode.collided.sum() == 0

    def test_ground_bound_counts_as_collision(self):
        episode = rollout_episode(empty_world(extent=500.0), hover_state([5, 250, 1.0]),
                                  self._sensor(), seed=0, max_steps=60)
        # seed 0 draws a descending sequence; the ground ends the episode
        assert episode.ended_in_collision
        assert episode.collided[-1] == 1

    def test_collision_ending_holds_the_last_action(self):
        # windows past a collision ending continue the sequence being flown,
        # so a positive window has the constant shape of a library primitive
        blank = DepthFrame(np.zeros((2, 3), np.float32), np.ones((2, 3), np.uint8),
                           np.zeros((2, 3), np.uint16))
        episode = rollout_episode(empty_world(extent=500.0), hover_state([5, 250, 1.0]),
                                  lambda state: blank, seed=0, max_steps=60)
        assert episode.ended_in_collision
        ds = label_episode(episode, 10)
        last = episode.actions[-1].astype(np.float32)
        for t, window in enumerate(ds.actions):
            past_end = window[len(episode) - t:]
            assert len(past_end) == max(0, t + 10 - len(episode))
            assert np.array_equal(past_end, np.tile(last, (len(past_end), 1)))
        assert np.array_equal(ds.actions[-1], np.tile(last, (10, 1)))

    def test_wall_ahead_collides_within_kinematic_bound(self):
        # wall 3 m ahead; full-speed straight run must hit within
        # ceil(3 / (v dt)) + settling steps (first-order lag ~ 3 tau)
        wall = World(cylinders=np.zeros((0, 5)),
                     boxes=np.array([[4.0, 5.0, 0.2, 5.0, 0.0, 4.0, 0.0]]),
                     bounds=(0, 0, 10, 10), ceiling=4.0)
        start = hover_state([1.0 - 0.0, 5.0, 1.0])

        class StraightSampler:
            pass

        # drive the dynamics directly for the kinematic oracle
        params = DynamicsParams()
        state, hit, steps = start, False, 0
        dt, v = 0.25, 1.0
        while not hit and steps < 100:
            state, hit = step_with_collision(wall, state, np.array([v, 0, 0, 0]), dt, params)
            steps += 1
        bound = int(np.ceil(3.0 / (v * dt))) + int(np.ceil(3 * params.tau_v / dt))
        assert hit and steps <= bound

    def test_same_seed_identical_episode(self):
        world = generate_world(desk_world_params("medium", seed=3))
        start = hover_state([1.0, 7.5, 1.0])
        sensor = lambda st: None
        a = rollout_episode(world, start, sensor, seed=123, max_steps=40)
        b = rollout_episode(world, start, sensor, seed=123, max_steps=40)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.collided, b.collided)

    def test_start_in_collision_rejected(self):
        world = World(cylinders=np.array([[0.0, 0.0, 1.0, 3.0, 0.0]]),
                      boxes=np.zeros((0, 7)), bounds=(0, 0, 5, 5), ceiling=4.0)
        with pytest.raises(WorldError, match="collision"):
            rollout_episode(world, hover_state([0.5, 0, 1.0]), self._sensor(), seed=0)

    @pytest.mark.parametrize("T", [0, -2])
    def test_sequences_without_steps_rejected(self, T):
        # a zero-step sequence never advances the episode
        with pytest.raises(WorldError, match="T >= 1"):
            rollout_episode(empty_world(), hover_state([5, 5, 1.0]), self._sensor(), seed=0, T=T)

    @staticmethod
    def _chained(world, start, seed, T, max_steps, dt=0.25, params=DynamicsParams()):
        """rollout_episode's steps, flying the same sampled sequences one
        step_with_collision call at a time: (state at each step start,
        actions, flags)."""
        rng = np.random.default_rng(seed)
        states, actions, collided = [], [], []
        state, hit = start, False
        while len(actions) < max_steps and not hit:
            seq = sample_action_sequence(rng, T)
            for action in seq[:max_steps - len(actions)]:
                states.append(state)
                actions.append(action)
                state, hit = step_with_collision(world, state, action, dt, params)
                collided.append(hit)
                if hit:
                    break
        return states, np.array(actions), np.array(collided, dtype=np.uint8)

    @pytest.mark.parametrize("max_steps,T", [(37, 10), (23, 7), (41, 3)])
    def test_episode_matches_its_sequences_flown_one_step_at_a_time(self, max_steps, T):
        # each sampled sequence is one flight; chaining one-interval flights
        # over the same sequences gives the same states bit for bit, in a
        # dense world, from starts faster than v_max, with collisions inside
        # a sequence and max_steps cutting the last sequence short
        world = generate_world(desk_world_params("dense", seed=5))
        rng = np.random.default_rng(21)
        fast = mid_sequence = cut_short = 0
        for seed in range(16):
            pos = rng.uniform([1.0, 1.0, 0.6], [44.0, 14.0, 3.4])
            velocity = rng.uniform(-1, 1, 3) * np.array([3.0, 1.0, 0.2])
            start = RobotState(position=pos, yaw=rng.uniform(-np.pi, np.pi), velocity=velocity)
            if check_collision(world, pos, DynamicsParams().collision_radius):
                continue
            episode = rollout_episode(world, start, lambda state: state, seed, T=T,
                                      max_steps=max_steps)
            states, actions, collided = self._chained(world, start, seed, T, max_steps)
            assert np.array_equal(episode.actions, actions)
            assert np.array_equal(episode.collided, collided)
            assert episode.ended_in_collision == bool(collided[-1])
            assert len(episode.frames) == len(states)
            for got, want in zip(episode.frames, states):  # the sensor saw each step's start
                for field in STATE_FIELDS:
                    assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert np.array_equal(episode.states, [state.partial_state() for state in states])
            fast += np.linalg.norm(velocity) > DynamicsParams().v_max
            mid_sequence += episode.ended_in_collision and 0 < (len(episode) - 1) % T < T - 1
            cut_short += not episode.ended_in_collision
        assert fast and mid_sequence and cut_short
