"""Shared fixtures.  The session-scoped desk stack trains every model once
for the acceptance suite; unit tests never touch it."""

import ctypes
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from depthnav.camera import CameraModel, NoiseParams
from depthnav.cpn import CollisionPredictor, CpnConfig, train_cpn
from depthnav.data import CollisionSet, FrameSet
from depthnav.evaluation import MissionSetup
from depthnav.pipeline import (
    build_latent_dataset,
    collect_collision_data,
    render_vae_corpus,
)
from depthnav.vae import SemanticVae, VaeConfig, train_vae

STACK_SEED = 0

# desk-scale protocol constants (the acceptance criteria pin these)
N_CORPUS_FRAMES = 2000
N_EVAL_FRAMES = 300
VAE_EPOCHS = 40
VAE_LR = 1e-4
N_EPISODES = 350
CPN_EPOCHS = 25
E2E_EPOCHS = 25
HORIZON = 10


@dataclass
class DeskStack:
    camera: CameraModel
    noise: NoiseParams
    vae_cfg: VaeConfig
    sevae: SemanticVae
    vanilla: SemanticVae
    cpn_modular: CollisionPredictor
    cpn_e2e: CollisionPredictor
    eval_clean: FrameSet
    eval_noisy: FrameSet
    collisions: CollisionSet
    setup: MissionSetup
    timings: dict = field(default_factory=dict)


# the desk stack's stage timings, kept for the end-of-session summary
STACK_TIMINGS = pytest.StashKey[dict]()


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def numerics_environment() -> str:
    """numpy version, BLAS library and BLAS threads: the golden digests in
    the suite are pinned on this numerics stack."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown BLAS"
    return f"numpy {np.__version__}, {blas}, BLAS threads {_blas_threads()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the numerics stack and, when the fixture ran, how long each
    desk-stack stage took."""
    terminalreporter.section("numerics")
    terminalreporter.write_line(numerics_environment())
    timings = config.stash.get(STACK_TIMINGS, None)
    if timings:
        terminalreporter.section("desk stack timings")
        for stage, seconds in timings.items():
            terminalreporter.write_line(f"{stage:>14}: {seconds:7.1f} s")
        terminalreporter.write_line(f"{'total':>14}: {sum(timings.values()):7.1f} s")


@pytest.fixture(scope="session")
def desk_stack(request) -> DeskStack:
    """Train the full desk-scale stack once per session (tens of minutes)."""
    camera = CameraModel()
    noise = NoiseParams()
    vae_cfg = VaeConfig()
    timings = {}
    request.config.stash[STACK_TIMINGS] = timings

    t0 = time.time()
    _, corpus_noisy = render_vae_corpus(N_CORPUS_FRAMES, camera, noise, seed=STACK_SEED + 1)
    timings["corpus"] = time.time() - t0

    t0 = time.time()
    sevae, _ = train_vae(corpus_noisy, vae_cfg, seed=STACK_SEED + 2, epochs=VAE_EPOCHS,
                         lr=VAE_LR)
    vanilla, _ = train_vae(corpus_noisy, vae_cfg, seed=STACK_SEED + 2, epochs=VAE_EPOCHS,
                           lr=VAE_LR, vanilla=True)
    timings["vae_training"] = time.time() - t0

    t0 = time.time()
    eval_clean, eval_noisy = render_vae_corpus(N_EVAL_FRAMES, camera, noise,
                                               seed=STACK_SEED + 7)
    timings["eval_frames"] = time.time() - t0

    t0 = time.time()
    collisions = collect_collision_data(N_EPISODES, camera, seed=STACK_SEED + 3,
                                        horizon=HORIZON)
    timings["collisions"] = time.time() - t0

    t0 = time.time()
    latents = build_latent_dataset(collisions, sevae, noise, seed=STACK_SEED + 4,
                                   max_range=camera.max_range)
    cpn_modular, _ = train_cpn(latents, CpnConfig(variant="modular",
                                                  latent_dim=vae_cfg.latent_dim,
                                                  horizon=HORIZON),
                               seed=STACK_SEED + 5, epochs=CPN_EPOCHS)
    cpn_e2e, _ = train_cpn(collisions, CpnConfig(variant="end-to-end", horizon=HORIZON,
                                                 image_hw=(camera.height, camera.width)),
                           seed=STACK_SEED + 6, epochs=E2E_EPOCHS)
    timings["cpn_training"] = time.time() - t0

    return DeskStack(camera=camera, noise=noise, vae_cfg=vae_cfg, sevae=sevae,
                     vanilla=vanilla, cpn_modular=cpn_modular, cpn_e2e=cpn_e2e,
                     eval_clean=eval_clean, eval_noisy=eval_noisy, collisions=collisions,
                     setup=MissionSetup(camera=camera, noise=noise), timings=timings)
