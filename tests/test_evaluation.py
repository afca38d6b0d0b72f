"""Reconstruction reports, campaign bookkeeping, vehicle privacy boundary."""

import hashlib

import numpy as np
import pytest

from depthnav.camera import CameraModel, NoiseParams, clean_noise_params
from depthnav.data import FrameSet
from depthnav.errors import WorldError
from depthnav.evaluation import (
    MissionSetup,
    SimVehicle,
    eval_reconstruction,
    fft_reconstructor,
    oracle_arm,
    run_campaign,
)
from depthnav.world import DynamicsParams, World, desk_world_params, hover_state


def _frames(n=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, (n, 12, 16)).astype(np.float32)
    valid = (rng.random((n, 12, 16)) > 0.2).astype(np.uint8)
    seg = np.zeros((n, 12, 16), np.uint16)
    seg[:, 4:8, 4:6] = 1
    x[valid == 0] = 0
    seg[valid == 0] = 0
    return FrameSet(x, valid, seg)


def test_perfect_reconstructor_scores_zero_everywhere():
    frames = _frames()
    report = eval_reconstruction({"clean-sim": frames},
                                 {"identity": lambda fs: fs.x.copy()})
    assert report.value("identity", "clean-sim", "whole_image") == 0.0
    assert report.value("identity", "clean-sim", "semantic") == 0.0
    assert report.rows[0].n_images == 6


def test_report_row_count_and_csv_shape():
    frames = _frames()
    report = eval_reconstruction(
        {"clean-sim": frames, "corrupted": frames},
        {"identity": lambda fs: fs.x.copy(), "fft": fft_reconstructor(8)},
    )
    assert len(report.rows) == 4  # methods x domains
    csv_text = report.to_csv()
    assert csv_text.count("\n") == 5  # header + 4 rows
    assert "whole_image_sse" in csv_text
    table = report.table()
    assert "fft" in table and "identity" in table


def test_semantic_metric_restricted_to_labeled_valid_pixels():
    frames = _frames(1, seed=3)
    recon = frames.x.copy()
    sem = (frames.seg[0] > 0) & (frames.valid[0] > 0)
    recon[0][sem] += 0.1  # error only on semantic pixels
    report = eval_reconstruction({"d": frames}, {"m": lambda fs: recon})
    expected_sem = 0.01 * sem.sum()
    assert abs(report.value("m", "d", "semantic") - expected_sem) < 1e-4
    assert abs(report.value("m", "d", "whole_image") - expected_sem) < 1e-4


def test_vehicle_exposes_only_partial_state_and_vehicle_frame_goal():
    world = World(np.zeros((0, 5)), np.zeros((0, 7)), (0, 0, 50, 50), 4.0)
    start = hover_state([1.0, 25.0, 1.0], yaw=0.5)
    vehicle = SimVehicle(world, start, CameraModel(), clean_noise_params(),
                         np.array([50.0, 25.0, 1.0]), 45.0, mission_seed=1)
    frame, state, sigma, goal = vehicle.observe()
    assert state.shape == (6,)  # velocity, yaw rate, roll, pitch; no position
    assert sigma.shape == (6, 6)
    assert abs(np.linalg.norm(goal) - 1.0) < 1e-9
    # goal is expressed in the vehicle frame: a +x world goal with yaw 0.5
    # appears rotated by -0.5
    assert abs(np.arctan2(goal[1], goal[0]) + 0.5) < 1e-9


def test_vehicle_start_in_collision_raises_world_error():
    # the condition rollout_episode also reports as a WorldError
    world = World(np.array([[5.0, 5.0, 0.5, 3.0, 0.0]]), np.zeros((0, 7)), (0, 0, 10, 10), 4.0)
    with pytest.raises(WorldError, match="in collision"):
        SimVehicle(world, hover_state([5.6, 5.0, 1.0]), CameraModel(), clean_noise_params(),
                   np.array([9.0, 5.0, 1.0]), 9.0)


def test_campaign_is_paired_and_deterministic():
    from depthnav.world import WorldGenParams

    def small_worlds(env, seed=0):
        return WorldGenParams(radii=desk_world_params(env).radii, section_size=4.0, seed=seed)

    arms = {"oracle-a": oracle_arm(), "oracle-b": oracle_arm()}
    setup = MissionSetup(noise=NoiseParams())
    report1 = run_campaign(arms, environments=("sparse",), runs=2, base_seed=7, setup=setup,
                           world_params_fn=small_worlds)
    report2 = run_campaign(arms, environments=("sparse",), runs=2, base_seed=7, setup=setup,
                           world_params_fn=small_worlds)
    assert report1.to_csv() == report2.to_csv()
    assert report1.outcomes_csv() == report2.outcomes_csv()
    # identical arms on identical seeds/worlds produce identical outcomes
    a = [r for r in report1.outcomes if r[2] == "oracle-a"]
    b = [r for r in report1.outcomes if r[2] == "oracle-b"]
    assert [(r[0], r[1], r[3]) for r in a] == [(r[0], r[1], r[3]) for r in b]
    assert report1.success_count("sparse", "oracle-a") == \
        report1.success_count("sparse", "oracle-b")


def test_blocked_course_times_out_without_collision():
    from dataclasses import replace

    from depthnav.evaluation import run_mission
    from depthnav.planner import PlannerConfig

    # a solid wall with no gap: the oracle slows (fallback) but cannot pass;
    # it must never actually collide because its predictions are exact
    world = World(cylinders=np.zeros((0, 5)),
                  boxes=np.array([[6.0, 0.0, 0.3, 200.0, 0.0, 4.0, 0.0]]),
                  bounds=(0, 0, 12, 15), ceiling=4.0)
    setup = replace(MissionSetup(), planner=PlannerConfig(max_cycles=120))
    result = run_mission(world, 10.0, oracle_arm(), setup, seed=3)
    assert result.outcome == "timeout"
    assert result.telemetry["min_clearance"] > DynamicsParams().collision_radius


# Digests of the flown path of one mission per learned arm, with
# seed-initialized networks in a dense desk world.  They pin the whole closed
# loop bit for bit: render, corrupt, encode, score_library, selection and
# step_with_collision (the modular mission ends in a collision).
MISSION_GOLDEN = {
    "modular": ("collision", 16, "1ca2b974d288bc5f315c572df99ab647b461585c98ab6792141672f4f7224609"),
    "end-to-end": ("timeout", 40, "082499f7276efa05e3dcde9cf678982a2472b9e5ada19ca8b92d138ad5ea639c"),
}


@pytest.mark.parametrize("arm", list(MISSION_GOLDEN))
def test_learned_arm_mission_bit_identical(arm):
    from dataclasses import replace

    from depthnav.cpn import END_TO_END, CollisionPredictor, CpnConfig
    from depthnav.evaluation import end_to_end_arm, modular_arm, run_mission
    from depthnav.planner import PlannerConfig
    from depthnav.vae import SemanticVae, VaeConfig
    from depthnav.world import generate_world

    world = generate_world(desk_world_params("dense", seed=3))
    setup = replace(MissionSetup(), planner=PlannerConfig(max_cycles=40))
    if arm == "modular":
        factory = modular_arm(SemanticVae(VaeConfig(), seed=21),
                              CollisionPredictor(CpnConfig(), seed=22))
    else:
        factory = end_to_end_arm(CollisionPredictor(CpnConfig(variant=END_TO_END), seed=23))
    result = run_mission(world, 45.0, factory, setup, seed=5)
    path = np.ascontiguousarray(result.telemetry["path"])
    assert (result.outcome, result.cycles, hashlib.sha256(path.tobytes()).hexdigest()) == \
        MISSION_GOLDEN[arm]
