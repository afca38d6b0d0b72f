"""The three workloads: fly (closed loop), collect and train (offline throughput).

Each workload builds its inputs from the workload seed in ``setup``, does
one fixed-size round of work per ``run_round`` call, and reruns a short
prefix of round 0 in ``probe`` for the determinism check.  Calls go through
the depthnav modules' attributes, so the benchmark's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from depthnav import camera, cpn, data, evaluation, pipeline, planner, vae, world
from harness import OUTCOMES, Recorder, check_losses, check_mission, digest

ENVS = ("sparse", "medium", "dense")

# fly: every arm flies this many cycles in every world of a round, starting a
# new mission (next paired seed) when one ends early.  A fixed budget keeps
# the arm mix of a run independent of how soon seed-initialized learned arms
# collide, and keeps a round (all three densities) near 10 s on one core.
FLY_CYCLE_BUDGET = 30

# collect: one round renders a corpus and collects episodes over fresh worlds
CORPUS_FRAMES = 96
COLLECT_EPISODES = 6
PROBE_FRAMES = 8

# train: sizes of the set-up corpus and collision set, and epochs per round.
# Both sizes split 80/20 into whole batches (128 = 4 x 32 frames, 256 = 2 x
# 128 windows), and VAE steps are 24 of a round's 32 steps, so the
# step-latency percentiles sit inside one step kind, not on a boundary.
TRAIN_FRAMES = 160
TRAIN_EPISODES = 3  # per chunk
TRAIN_WINDOWS = 320
VAE_EPOCHS = 3
CPN_EPOCHS = 2


def derive(seed: int, *keys: int) -> int:
    """Independent 31-bit seed for one input, from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0]) & 0x7FFFFFFF


class Workload:
    """Shared bookkeeping: ops done, per-op latencies, stage clocks.

    A workload provides hooks() (op clocks for harness.install), setup() ->
    digest of the inputs it built, run_round(r), probe() -> [(what, same)],
    named_metrics(busy_s) -> {name: (value, unit)} and layer_counts().
    """

    name = ""
    ops_unit = ""

    def __init__(self, rec: Recorder, seed: int):
        self.rec = rec
        self.seed = seed
        self.ops = 0
        self.op_ms: list[float] = []
        self.stage_s: dict[str, float] = {}
        self.stage_items: dict[str, int] = {}

    def timed(self, stage: str, fn, *args, **kwargs):
        """Run one public call, charging its time (less checks) to a stage."""
        t0, c0 = time.perf_counter(), self.rec.check_s
        out = fn(*args, **kwargs)
        self.stage_s[stage] = (self.stage_s.get(stage, 0.0) + time.perf_counter() - t0
                               - (self.rec.check_s - c0))
        return out

    def count(self, stage: str, items: int) -> None:
        self.stage_items[stage] = self.stage_items.get(stage, 0) + items

    def rate(self, stage: str) -> float:
        return self.stage_items.get(stage, 0) / self.stage_s[stage]

    def layer_counts(self) -> dict[str, float]:
        """Mission counts; only fly flies missions."""
        return dict.fromkeys(("evaluation.missions_success", "evaluation.missions_collision",
                              "evaluation.missions_timeout", "evaluation.cycles",
                              "planner.fallback_frac"), 0.0)


class Fly(Workload):
    """Closed loop, one client: evaluation.run_mission, one cycle at a time."""

    name = "fly"
    ops_unit = "cycles"

    def hooks(self):
        def start(args):
            self._t0, self._c0 = time.perf_counter(), self.rec.check_s

        def stop(args, out):
            ms = 1000.0 * (time.perf_counter() - self._t0 - (self.rec.check_s - self._c0))
            self.ops += 1
            if self.arm != "oracle":
                self.op_ms.append(ms)

        return {"evaluation.observe": (start, None), "evaluation.execute": (None, stop)}

    def setup(self) -> str:
        seed = self.seed
        self.worlds = [world.generate_world(world.desk_world_params(env, seed=derive(seed, 1, i)))
                       for i, env in enumerate(ENVS)]
        self.course = world.desk_world_params().course_length
        self.mission = evaluation.MissionSetup()
        self.library = planner.build_library(self.mission.library)
        self.vae = vae.SemanticVae(vae.VaeConfig(), seed=derive(seed, 2))
        self.cpn_modular = cpn.CollisionPredictor(cpn.CpnConfig(), seed=derive(seed, 3))
        self.cpn_e2e = cpn.CollisionPredictor(cpn.CpnConfig(variant=cpn.END_TO_END),
                                              seed=derive(seed, 4))
        self.arms = {
            "modular": evaluation.modular_arm(self.vae, self.cpn_modular),
            "end-to-end": evaluation.end_to_end_arm(self.cpn_e2e),
            "oracle": evaluation.oracle_arm(self.mission.dt, self.mission.dynamics),
        }
        self.arm = ""
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.cycles = self.learned_cycles = self.fallback_cycles = 0
        self.first_paths: dict[str, str] = {}
        params = [p for m in (self.vae, self.cpn_modular, self.cpn_e2e) for p in m.params().values()]
        return digest(*[a for w in self.worlds for a in (w.cylinders, w.boxes)], *params)

    def fly(self, world_index: int, round_index: int, arm: str, budget: int):
        """Missions of one arm in one world until the cycle budget is flown."""
        base = derive(self.seed, 5, round_index, world_index)
        left, k = budget, 0
        while left > 0:
            setup = dataclasses.replace(
                self.mission, planner=dataclasses.replace(self.mission.planner, max_cycles=left))
            self.rec.group = f"round{round_index}.{ENVS[world_index]}.{arm}.mission{k}"
            result = evaluation.run_mission(self.worlds[world_index], self.course,
                                            self.arms[arm], setup, base + k, library=self.library)
            self.rec.check(check_mission, result)
            yield k, result
            left -= result.cycles
            k += 1

    def run_round(self, r: int) -> None:
        for i in range(len(ENVS)):
            for arm in self.arms:
                self.arm = arm
                for k, result in self.fly(i, r, arm, FLY_CYCLE_BUDGET):
                    if r == 0 and i == 0 and k == 0:
                        self.first_paths[arm] = digest(result.telemetry["path"])
                    if r == 0:
                        self.outcomes[result.outcome] += 1
                        self.cycles += result.cycles
                        if arm != "oracle":
                            self.learned_cycles += result.cycles
                            self.fallback_cycles += sum(d.safe_count == 0
                                                        for d in result.diagnostics)

    def probe(self) -> list[tuple[str, bool]]:
        """Refly the first mission of each learned arm (trajectory, frames, scores)."""
        out = []
        for arm in ("modular", "end-to-end"):
            self.arm = arm
            k, result = next(self.fly(0, 0, arm, FLY_CYCLE_BUDGET))
            out.append((f"first {arm} mission trajectory",
                        digest(result.telemetry["path"]) == self.first_paths[arm]))
        return out

    def named_metrics(self, measure_s: float) -> dict:
        return {
            "cycle_ms_p50": (float(np.percentile(self.op_ms, 50)), "ms"),
            "cycle_ms_p90": (float(np.percentile(self.op_ms, 90)), "ms"),
            "cycle_samples": (len(self.op_ms), "count"),
            "cycles_per_s": (self.ops / measure_s, "1/s"),
        }

    def layer_counts(self) -> dict[str, float]:
        return {
            "evaluation.missions_success": float(self.outcomes["success"]),
            "evaluation.missions_collision": float(self.outcomes["collision"]),
            "evaluation.missions_timeout": float(self.outcomes["timeout"]),
            "evaluation.cycles": float(self.cycles),
            "planner.fallback_frac": self.fallback_cycles / self.learned_cycles,
        }


class Collect(Workload):
    """Offline throughput: corpus rendering, collision collection, latent encoding."""

    name = "collect"
    ops_unit = "frames + windows"

    def hooks(self):
        def frame_done(args, out):
            now = time.perf_counter()
            self.op_ms.append(1000.0 * (now - self._last - (self.rec.check_s - self._c0)))
            self._last, self._c0 = now, self.rec.check_s

        return {"camera.render": (None, frame_done)}

    def setup(self) -> str:
        self.camera = camera.CameraModel()
        self.noise = camera.NoiseParams()
        self.vae = vae.SemanticVae(vae.VaeConfig(), seed=derive(self.seed, 2))
        return digest(*self.vae.params().values())

    def run_round(self, r: int) -> None:
        s = derive(self.seed, 6, r)
        self._last, self._c0 = time.perf_counter(), self.rec.check_s
        clean, noisy = self.timed("corpus", pipeline.render_vae_corpus, CORPUS_FRAMES,
                                  self.camera, self.noise, seed=s)
        collisions = self.timed("windows", pipeline.collect_collision_data, COLLECT_EPISODES,
                                self.camera, seed=s + 1)
        latents = self.timed("windows", pipeline.build_latent_dataset, collisions, self.vae,
                             self.noise, seed=s + 2, max_range=self.camera.max_range)
        self.count("corpus", len(clean))
        self.count("windows", len(latents))
        self.ops += len(clean) + len(latents)
        if r == 0:
            self.round0 = (s, digest(*(a[:PROBE_FRAMES] for a in (
                clean.x, clean.valid, clean.seg, noisy.x, noisy.valid, noisy.seg))),
                digest(collisions.frames.x, collisions.labels, collisions.actions))

    def probe(self) -> list[tuple[str, bool]]:
        """Rerender round 0's first corpus frames and recollect its episodes."""
        s, corpus_head, windows = self.round0
        clean, noisy = pipeline.render_vae_corpus(PROBE_FRAMES, self.camera, self.noise, seed=s)
        again = pipeline.collect_collision_data(COLLECT_EPISODES, self.camera, seed=s + 1)
        return [
            ("first corpus frames", corpus_head == digest(
                clean.x, clean.valid, clean.seg, noisy.x, noisy.valid, noisy.seg)),
            ("collision windows", windows == digest(again.frames.x, again.labels, again.actions)),
        ]

    def named_metrics(self, measure_s: float) -> dict:
        return {
            "corpus_frames_per_s": (self.rate("corpus"), "1/s"),
            "collision_windows_per_s": (self.rate("windows"), "1/s"),
        }


class Train(Workload):
    """Offline throughput: both autoencoders and both collision predictors."""

    name = "train"
    ops_unit = "optimizer steps"

    def hooks(self):
        def start(args):
            self.rec.group = f"{self._call}.epoch{self._step // self._per_epoch + 1}"
            self._t0, self._c0 = time.perf_counter(), self.rec.check_s

        def stop(args, out):
            self.ops += 1
            self._step += 1
            self.op_ms.append(1000.0 * (time.perf_counter() - self._t0
                                        - (self.rec.check_s - self._c0)))

        return {"vae.train_step": (start, None), "cpn.train_step": (start, None),
                "nn.adam_step": (None, stop)}

    def setup(self) -> str:
        cam, noise = camera.CameraModel(), camera.NoiseParams()
        _, self.frames = pipeline.render_vae_corpus(TRAIN_FRAMES, cam, noise,
                                                    seed=derive(self.seed, 7), worlds_per_env=1)
        # small chunks, one world each, until the set is big enough: episode
        # lengths vary by seed, and small chunks keep set-up time from doing so
        chunks, k = [], 0
        while sum(map(len, chunks)) < TRAIN_WINDOWS:
            chunks.append(pipeline.collect_collision_data(
                TRAIN_EPISODES, cam, seed=derive(self.seed, 8, k),
                environments=(ENVS[k % len(ENVS)],), worlds_per_env=1))
            k += 1
        collisions = data.CollisionSet.concat(chunks)
        pick = np.random.default_rng(derive(self.seed, 9)).permutation(len(collisions))
        self.collisions = collisions.subset(np.sort(pick[:TRAIN_WINDOWS]))
        encoder = vae.SemanticVae(vae.VaeConfig(), seed=derive(self.seed, 2))
        self.latents = pipeline.build_latent_dataset(self.collisions, encoder, noise,
                                                     seed=derive(self.seed, 10),
                                                     max_range=cam.max_range)
        return digest(self.frames.x, self.collisions.frames.x, self.collisions.labels,
                      self.latents.mu)

    def stages(self, r: int, epochs: int | None = None):
        s = derive(self.seed, 11, r)
        vae_cfg = vae.VaeConfig()
        yield "vae", "semantic", lambda: vae.train_vae(
            self.frames, vae_cfg, seed=s, epochs=epochs or VAE_EPOCHS)
        yield "vae", "vanilla", lambda: vae.train_vae(
            self.frames, vae_cfg, seed=s, epochs=epochs or VAE_EPOCHS, vanilla=True)
        yield "cpn", "modular", lambda: cpn.train_cpn(
            self.latents, cpn.CpnConfig(), seed=s + 1, epochs=epochs or CPN_EPOCHS)
        yield "e2e", "end-to-end", lambda: cpn.train_cpn(
            self.collisions, cpn.CpnConfig(variant=cpn.END_TO_END), seed=s + 2,
            epochs=epochs or CPN_EPOCHS)

    def run_round(self, r: int) -> None:
        if r == 0:
            self.first_epochs = {}
        for stage, label, call in self.stages(r):
            size = len(self.frames) if stage == "vae" else len(self.collisions)
            batch = 32 if stage == "vae" else 128  # the trainers' default batch sizes
            self._call, self._step = f"round{r}.{label}", 0
            self._per_epoch = -(-round(0.8 * size) // batch)
            self.rec.group = self._call
            _, history = self.timed(stage, call)
            self.rec.check(check_losses, label, history)
            self.count(stage, size * len(history))
            if r == 0:
                self.first_epochs[label] = history[0]

    def probe(self) -> list[tuple[str, bool]]:
        """Retrain one epoch of each model and compare the first epoch's losses."""
        out = []
        for stage, label, call in self.stages(0, epochs=1):
            _, history = call()
            out.append((f"{label} first-epoch losses", history[0] == self.first_epochs[label]))
        return out

    def named_metrics(self, measure_s: float) -> dict:
        return {
            "vae_train_samples_per_s": (self.rate("vae"), "1/s"),
            "cpn_train_windows_per_s": (self.rate("cpn"), "1/s"),
            "e2e_train_windows_per_s": (self.rate("e2e"), "1/s"),
        }


WORKLOADS = {cls.name: cls for cls in (Fly, Collect, Train)}
