"""Shared fixtures.  The session-scoped desk stack trains every model once
for the acceptance suite; unit tests never touch it."""

import ctypes
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from depthnav.camera import CameraModel, NoiseParams
from depthnav.config import AppConfig, DatasetSettings, TrainSettings
from depthnav.cpn import CollisionPredictor
from depthnav.data import CollisionSet, FrameSet
from depthnav.evaluation import MissionSetup
from depthnav.pipeline import render_vae_corpus, train_full_stack
from depthnav.vae import SemanticVae, VaeConfig

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


# the desk stack's stage timings and a sha256 over its four models'
# parameters, kept for the end-of-session summary
STACK_SUMMARY = pytest.StashKey[tuple]()


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


def _simd_targets() -> str:
    """The SIMD target numpy dispatched for float32 exp and tanh: sigmoid and
    the GRU candidate run through them, so their kernels set score bits too."""
    try:
        info = np.lib.introspect.opt_func_info(func_name="^(exp|tanh)$", signature="float32")
    except AttributeError:  # numpy < 2.0 has no introspect module
        return "float32 exp/tanh SIMD target unknown"
    return ", ".join(f"float32 {name} {target['current']}"
                     for name, sigs in sorted(info.items()) for target in sigs.values())


def numerics_environment() -> str:
    """numpy version, BLAS library, BLAS threads and the float32 exp/tanh
    SIMD target: the golden digests in the suite are pinned on this numerics
    stack."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown BLAS"
    return (f"numpy {np.__version__}, {blas}, BLAS threads {_blas_threads()}, "
            f"{_simd_targets()}")


def pytest_collection_modifyitems(config, items):
    """Mark every test that uses the desk stack `slow`."""
    for item in items:
        if "desk_stack" in item.fixturenames:
            item.add_marker(pytest.mark.slow)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the numerics stack and, when the fixture ran, how long each
    desk-stack stage took and whether the stack's float bits moved."""
    terminalreporter.section("numerics")
    terminalreporter.write_line(numerics_environment())
    summary = config.stash.get(STACK_SUMMARY, None)
    if summary:
        timings, digest = summary
        terminalreporter.section("desk stack timings")
        for stage, seconds in timings.items():
            terminalreporter.write_line(f"{stage:>14}: {seconds:7.1f} s")
        terminalreporter.write_line(f"{'total':>14}: {sum(timings.values()):7.1f} s")
        terminalreporter.write_line(f"desk stack digest {digest}")


@pytest.fixture
def lrelu_fingerprint():
    """install(layers) -> fingerprint(): the concatenated sign patterns of the
    latest kept input of every lrelu in `layers`, the gradient checker's
    kink-crossing mask (numeric_gradient's fingerprint_fn).  It wraps those
    layers' forward, per instance, for the rest of the test."""
    def install(layers):
        lrelus = [layer for layer in layers if getattr(layer, "fn", "") == "lrelu"]
        signs = dict.fromkeys(lrelus)  # layer order; None until a kept forward

        def recording(layer, forward):
            def record(x, keep=True):
                signs[layer] = np.packbits(x >= 0) if keep else None
                return forward(x, keep)
            return record

        for layer in lrelus:
            layer.forward = recording(layer, layer.forward)

        def fingerprint():
            parts = [bits for bits in signs.values() if bits is not None]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
        return fingerprint
    return install


@pytest.fixture(scope="session")
def desk_stack(request) -> DeskStack:
    """Train the full desk-scale stack once per session (tens of minutes)."""
    cfg = AppConfig(train=TrainSettings(vae_epochs=VAE_EPOCHS, vae_lr=VAE_LR,
                                        cpn_epochs=CPN_EPOCHS, e2e_epochs=E2E_EPOCHS),
                    dataset=DatasetSettings(vae_frames=N_CORPUS_FRAMES, episodes=N_EPISODES,
                                            horizon=HORIZON))
    stack = train_full_stack(cfg, seed=STACK_SEED)
    timings = dict(stack.timings)
    t0 = time.time()
    eval_clean, eval_noisy = render_vae_corpus(N_EVAL_FRAMES, cfg.camera, cfg.noise,
                                               seed=STACK_SEED + 7)
    timings["eval_frames"] = time.time() - t0

    models = (stack.sevae, stack.vanilla_vae, stack.cpn_modular, stack.cpn_end_to_end)
    digest = hashlib.sha256()
    for model in models:
        for arr in model.params().values():
            digest.update(np.ascontiguousarray(arr).tobytes())
    request.config.stash[STACK_SUMMARY] = (timings, digest.hexdigest())
    return DeskStack(camera=cfg.camera, noise=cfg.noise, vae_cfg=cfg.vae, sevae=stack.sevae,
                     vanilla=stack.vanilla_vae, cpn_modular=stack.cpn_modular,
                     cpn_e2e=stack.cpn_end_to_end, eval_clean=eval_clean,
                     eval_noisy=eval_noisy, collisions=stack.collisions_clean,
                     setup=cfg, timings=timings)
