"""Every setting's declared range (errors.within / check_fields): a sweep
generated from the declarations over every config class, one over every
INI key through the CLI, and guards that no setting lacks a range."""

import importlib
import math
import pkgutil
import re
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import pytest

import depthnav
from depthnav.camera import CameraModel, NoiseParams
from depthnav.cli import main
from depthnav.config import (
    KEYS,
    AppConfig,
    CampaignSettings,
    DatasetSettings,
    TrainSettings,
    load_config,
)
from depthnav.cpn import CpnConfig
from depthnav.data import FrameSet, save_dataset
from depthnav.errors import (
    Checked,
    ConfigError,
    Domain,
    PlannerError,
    ShapeError,
    WorldError,
    within,
)
from depthnav.evaluation import MissionSetup
from depthnav.fft_codec import FftPlan
from depthnav.planner import LibraryConfig, PlannerConfig, build_library
from depthnav.vae import VaeConfig
from depthnav.world import DynamicsParams, WorldGenParams

NAN, INF = float("nan"), float("inf")

# every class with declared ranges: its typed error and a valid instance's arguments
CLASSES = {
    CameraModel: (WorldError, {}),
    NoiseParams: (WorldError, {}),
    DynamicsParams: (WorldError, {}),
    WorldGenParams: (WorldError, {"radii": (1.0, 1.0, 1.0, 1.0)}),
    MissionSetup: (WorldError, {}),
    VaeConfig: (ShapeError, {}),
    CpnConfig: (ShapeError, {}),
    FftPlan: (ShapeError, {"height": 60, "width": 80}),
    LibraryConfig: (PlannerError, {}),
    PlannerConfig: (PlannerError, {}),
    TrainSettings: (ConfigError, {}),
    DatasetSettings: (ConfigError, {}),
    CampaignSettings: (ConfigError, {}),
    AppConfig: (ConfigError, {}),
}

# the config objects each INI section sets, and the keys named otherwise
# than their field
SECTIONS = {
    "run": (AppConfig,), "camera": (CameraModel,), "noise": (NoiseParams,),
    "vae": (VaeConfig,), "dynamics": (DynamicsParams,),
    "planner": (PlannerConfig, LibraryConfig), "train": (TrainSettings,),
    "dataset": (DatasetSettings,), "campaign": (CampaignSettings,),
}
FIELD_OF_KEY = {"fov_h_deg": "fov_h", "fov_v_deg": "fov_v",
                "blob_radius_min": "blob_radius", "blob_radius_max": "blob_radius"}


def domains(cls) -> dict:
    return {f.name: f.metadata["domain"] for f in fields(cls) if "domain" in f.metadata}


def _outside(d: Domain) -> list:
    """NaN, the infinities the domain excludes, the values just outside each
    bound, 2.5 and True for an integer domain, and even sizes for an odd one."""
    if d.choices:
        return ["bogus", "", NAN, 1]
    bad = [NAN, -INF]
    if not (d.hi == INF and not d.hi_open):
        bad.append(INF)
    integer = d.integer or d.odd
    step = (lambda v, to: v + (1 if to > v else -1)) if integer else math.nextafter
    if d.lo is not None:
        bad.append(d.lo if d.lo_open else step(d.lo, -INF))
    if d.hi is not None and d.hi != INF:
        bad.append(d.hi if d.hi_open else step(d.hi, INF))
    if integer:
        bad += [2.5, True]
    if d.odd:
        bad += [2, 10, np.int64(6)]
    return bad


def _generated_rows():
    for cls, (error, base) in CLASSES.items():
        valid = cls(**base)
        for name, d in domains(cls).items():
            if d.each:
                good = tuple(getattr(valid, name))
                values = [(v, *good[1:]) for v in _outside(d)] + [(), 1.0]
            else:
                values = _outside(d)
            for value in values:
                yield pytest.param(cls, error, base, name, value,
                                   id=f"{cls.__name__}-{name}-{value!r}")


@pytest.mark.parametrize("cls,error,base,name,value", _generated_rows())
def test_every_declared_field_rejects_values_outside_its_range(cls, error, base, name, value):
    with pytest.raises(error, match=rf"\b{name} must be "):
        cls(**{**base, name: value})


# Faults of the hand-written checks, each reproduced at the time: a value the
# class accepted, or an untyped error where it failed.
@pytest.mark.parametrize("cls,name,value", [
    (LibraryConfig, "n_steer", NAN),      # a 5-primitive library whose steers were all 0
    (LibraryConfig, "fov_h", -1.0),       # a mirrored library
    (CpnConfig, "latent_dim", NAN),
    (CpnConfig, "horizon", 2.5),
    (VaeConfig, "height", 0),             # ZeroDivisionError
    (VaeConfig, "latent_dim", 2.5),       # TypeError
    (VaeConfig, "latent_dim", True),
    (VaeConfig, "p_min", 1.5),
    (WorldGenParams, "ceiling", NAN),     # a world with a NaN ceiling
    (WorldGenParams, "ceiling", -1.0),
    (WorldGenParams, "spawn_clear", NAN),
    (NoiseParams, "seed", -1),            # numpy's ValueError at use
    (WorldGenParams, "seed", -1),
])
def test_values_the_hand_written_checks_missed_are_rejected(cls, name, value):
    error, base = CLASSES[cls]
    with pytest.raises(error, match=rf"\b{name} must be "):
        cls(**{**base, name: value})


@pytest.mark.parametrize("n_steer,n_vertical,fov_margin", [
    # each of these failed in flight: linspace's middle value was +-1e-16, not 0.0
    (11, 5, 0.9), (19, 5, 0.9), (21, 5, 0.9), (9, 7, 0.9),
    (7, 5, 0.5), (13, 5, 0.5), (7, 5, 1.0), (13, 5, 1.0),
    (7, 5, 0.9), (1, 1, 0.9), (3, 1, 0.9),
])
def test_odd_grid_sizes_build_exactly_one_straight_primitive(n_steer, n_vertical, fov_margin):
    lib = build_library(LibraryConfig(n_steer=n_steer, n_vertical=n_vertical,
                                      fov_margin=fov_margin))
    straight = np.flatnonzero((lib.steers == 0.0) & (lib.climbs == 0.0))
    assert len(lib) == n_steer * n_vertical
    assert straight.tolist() == [lib.straight_index]
    assert np.array_equal(lib.actions[lib.straight_index],
                          np.tile(np.float32([1.0, 0.0, 0.0, 0.0]), (lib.actions.shape[1], 1)))


def test_with_seed_checks_the_seed():
    assert NoiseParams().with_seed(2**64 - 1).seed == 2**64 - 1
    with pytest.raises(WorldError, match=re.escape("noise seed must be an integer in [0, inf), got -1")):
        NoiseParams().with_seed(-1)


@pytest.mark.parametrize("cls,kwargs,match", [
    (CameraModel, {"min_range": 5.0, "max_range": 5.0}, "min_range must be < max_range"),
    (NoiseParams, {"blob_radius": (3.0, 2.0)}, "blob_radius_min <= max"),
    (FftPlan, {"height": 2, "width": 3, "k": 7}, "k must be <= height"),
])
def test_cross_field_rules(cls, kwargs, match):
    error, base = CLASSES[cls]
    with pytest.raises(error, match=match):
        cls(**{**base, **kwargs})


def test_every_class_with_declared_ranges_is_swept():
    declared = set()
    for info in pkgutil.walk_packages(depthnav.__path__, "depthnav."):
        for obj in vars(importlib.import_module(info.name)).values():
            if isinstance(obj, type) and is_dataclass(obj) and domains(obj) \
                    and obj.__module__.startswith("depthnav"):
                declared.add(obj)
    assert declared == set(CLASSES)
    assert all(issubclass(cls, Checked) for cls in declared)  # so each instance is checked


def test_every_ini_key_has_a_declared_range():
    for section, keys in KEYS.items():
        for key in keys:
            name = FIELD_OF_KEY.get(key, key)
            assert any(name in domains(cls) for cls in SECTIONS[section]), \
                f"[{section}] {key} has no declared range"


# ---------------------------------------------------------------------------
# The rules themselves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw,admitted,rejected,rule", [
    (dict(lo=0, lo_open=True), [5e-324, 1e308], [0.0, -0.0, NAN, INF, "1"], "in (0, inf)"),
    (dict(lo=0, hi=INF, lo_open=True), [1.0, INF], [0.0, NAN], "in (0, inf]"),
    (dict(lo=0, hi=1), [0.0, 1], [-5e-324, 1.0000000000000002, NAN], "in [0, 1]"),
    (dict(lo=0, hi=math.pi, lo_open=True, hi_open=True), [1e-300, 3.141592653589793 - 1e-15],
     [0.0, math.pi, NAN], "in (0, 3.14159)"),
    (dict(), [-1e308, 0.0], [NAN, INF, -INF], "in (-inf, inf)"),
    (dict(lo=1, integer=True), [1, np.int64(7), 2**70], [0, 1.0, 2.5, True, np.float64(3), "3"],
     "an integer in [1, inf)"),
    (dict(choices=("a", "b")), ["a", "b"], ["c", "", NAN, None], "one of a, b"),
    (dict(lo=1, odd=True), [1, 3, np.int64(7)], [2, 0, -1, 3.0, True, np.int64(4)],
     "an odd integer in [1, inf)"),
    (dict(lo=1, integer=True, each=True), [(1,), [2, 3]], [(), (1, 0), 1, "12", None],
     "one or more values, each an integer in [1, inf)"),
])
def test_domain_rules(kw, admitted, rejected, rule):
    @dataclass
    class Probe(Checked, error=ConfigError, prefix="probe"):
        x: object = within(**kw)

    assert domains(Probe)["x"].rule() == rule
    for value in admitted:
        assert Probe(value).x is value
    for value in rejected:
        plain = value.item() if isinstance(value, np.generic) else value  # no numpy repr
        with pytest.raises(ConfigError, match=re.escape(f"probe x must be {rule}, got {plain!r}")):
            Probe(value)


# ---------------------------------------------------------------------------
# Through the CLI: every INI key, out of range, fails at load
# ---------------------------------------------------------------------------

CLI_VALUES = ("nan", "inf", "-inf", "-1", "", "bogus")
ADMITTED = {("noise", "shadow_disp_jump", "inf")}  # an infinite step casts no shadow

_cli_rows = [pytest.param(f"[{s}]\n{k} = {v}\n", k, id=f"{s}-{k}-{v}")
             for s, keys in KEYS.items() for k in keys for v in CLI_VALUES
             if (s, k, v) not in ADMITTED]
_cli_rows += [pytest.param(f"[{s}]\n{keys[0]} = 1\n{keys[0]} = 1\n", "not a valid INI file",
                           id=f"{s}-duplicate-{keys[0]}") for s, keys in KEYS.items()]
# values the hand-written checks let through: every subcommand started with them
_cli_rows += [pytest.param(text, name, id=name) for text, name in [
    ("[run]\ndt = nan\n", "dt"), ("[train]\nvae_batch = 0\n", "vae_batch"),
    ("[train]\nvae_lr = nan\n", "vae_lr"), ("[dataset]\nepisodes = 0\n", "episodes"),
    ("[dataset]\nmax_steps = 0\n", "max_steps")]]
# an even grid size loaded and failed only when a mission built the library
_cli_rows += [pytest.param(f"[planner]\n{key} = {value}\n",
                           f"PlannerError: library {key} must be an odd integer",
                           id=f"planner-{key}-{value}")
              for key, value in [("n_steer", 4), ("n_steer", 10), ("n_vertical", 6)]]
# the cases of the former per-section dynamics reject test
_cli_rows += [pytest.param(f"[dynamics]\n{key} = {value}\n", f"WorldError: dynamics {key} must be",
                           id=f"dynamics-{key}-{value}-literal")
              for key, value in [("tau_v", "0"), ("tau_yaw", "-0.4"), ("omega_max", "nan"),
                                 ("v_max", "inf"), ("collision_radius", "-0.1")]]
# the cases of the former per-section planner reject test
_cli_rows += [pytest.param(f"[planner]\n{key} = {value}\n", f"PlannerError: planner {key} must be",
                           id=f"planner-{key}-{value}-literal")
              for key, value in [("threshold", "nan"), ("threshold", "0"),
                                 ("fallback_speed_scale", "-0.5"), ("max_cycles", "0")]]
_cli_rows += [pytest.param(f"[planner]\nfov_margin = {value}\n",
                           "PlannerError: library fov_margin must be",
                           id=f"planner-fov_margin-{value}-literal") for value in ("nan", "1.5")]
# a key stored under another field is named with the value the file gives
_cli_rows += [
    pytest.param("[camera]\nfov_h_deg = 200\n", "[camera] fov_h_deg = 200: camera fov_h must be",
                 id="camera-fov_h_deg-200"),
    pytest.param("[noise]\nblob_radius_max = 1\n", "[noise] blob_radius_max = 1: noise needs",
                 id="noise-blob_radius_max-1")]


@pytest.mark.parametrize("text,names", _cli_rows)
def test_every_ini_key_out_of_range_gives_one_error_line(tmp_path, capsys, text, names):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "run"
    assert main(["gen-world", "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"error: (Config|World|Shape|Planner)Error: ", err[0])
    assert names in err[0]
    assert "np." not in err[0]  # values print as the Python numbers they hold
    assert not out.exists()


# Through the CLI: a flag out of range fails before any artifact loads.  The
# run directory holds only a 4x6 frame set, so a check made after loading
# would fail on a missing file instead.
_flag_rows = [
    pytest.param(["eval-recon", "--fft-k", "0"], "ShapeError: fft k must be an integer in [1, inf)",
                 id="eval-recon-fft-k-0"),
    pytest.param(["eval-recon", "--fft-k", "25"], "ShapeError: fft k must be <= height * width",
                 id="eval-recon-fft-k-above-frame-size"),
    pytest.param(["train-vae", "--log-every", "-1"], "ConfigError: --log-every must be >= 0",
                 id="train-vae-log-every--1"),
    pytest.param(["train-cpn", "--log-every", "-1"], "ConfigError: --log-every must be >= 0",
                 id="train-cpn-log-every--1"),
]


@pytest.mark.parametrize("argv,message", _flag_rows)
def test_every_flag_out_of_range_fails_before_loading(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    out.mkdir()
    frames = np.zeros((2, 4, 6))
    save_dataset(out / "vae_frames_clean.dset", FrameSet(frames, frames, frames))
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert [p.name for p in out.iterdir()] == ["vae_frames_clean.dset"]


def test_admitted_edge_values_load(tmp_path):
    ini = tmp_path / "ok.ini"
    ini.write_text("[noise]\nshadow_disp_jump = inf\n[campaign]\nbase_seed = 0\n")
    cfg = load_config(ini)
    assert cfg.noise.shadow_disp_jump == INF and cfg.campaign.base_seed == 0
