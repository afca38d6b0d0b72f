"""Plain-text configuration (INI: [section] blocks of key = value lines).

Every key has a desk-scale default; a config file only overrides what it
names.  Unknown sections or keys are rejected so typos fail loudly.  See
docs/example-config.ini for the annotated reference.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .camera import paper_camera
from .errors import Checked, ConfigError, DepthNavError, within
from .evaluation import MissionSetup
from .vae import VaeConfig, paper_vae_config
from .world import desk_world_params, paper_world_params

ENVIRONMENTS = ("sparse", "medium", "dense")


@dataclass
class TrainSettings(Checked, error=ConfigError, prefix="[train]"):
    vae_epochs: int = within(40, lo=1, integer=True)
    vae_lr: float = within(1e-4, lo=0, lo_open=True)
    vae_batch: int = within(32, lo=1, integer=True)
    cpn_epochs: int = within(25, lo=1, integer=True)
    cpn_lr: float = within(1e-3, lo=0, lo_open=True)
    cpn_batch: int = within(128, lo=1, integer=True)
    e2e_epochs: int = within(25, lo=1, integer=True)


@dataclass
class DatasetSettings(Checked, error=ConfigError, prefix="[dataset]"):
    vae_frames: int = within(2000, lo=1, integer=True)
    episodes: int = within(350, lo=1, integer=True)
    horizon: int = within(10, lo=1, integer=True)
    max_steps: int = within(60, lo=1, integer=True)


@dataclass
class CampaignSettings(Checked, error=ConfigError, prefix="[campaign]"):
    runs: int = within(20, lo=1, integer=True)
    base_seed: int = within(1000, lo=0, integer=True)
    environments: tuple[str, ...] = within(ENVIRONMENTS, choices=ENVIRONMENTS, each=True)


@dataclass(frozen=True)
class AppConfig(MissionSetup, error=ConfigError, prefix="[run]"):
    """The mission setup (camera, noise, dynamics, planner, library, dt), so
    missions and campaigns take it as it is, plus the settings of the
    offline stages."""
    scale: str = within("desk", choices=("desk", "paper"))
    environment: str = within("medium", choices=ENVIRONMENTS)
    vae: VaeConfig = field(default_factory=VaeConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    dataset: DatasetSettings = field(default_factory=DatasetSettings)
    campaign: CampaignSettings = field(default_factory=CampaignSettings)


# Every INI key, by section.  A key named after a field of its section's
# config object takes that field's type and default; load_config converts
# the rest (degrees, the blob radius pair, the environments).
KEYS = {
    "run": ("scale", "environment", "dt"),
    "camera": ("height", "width", "fov_h_deg", "fov_v_deg", "max_range", "min_range"),
    "noise": ("blob_count_mean", "blob_radius_min", "blob_radius_max", "shadow_disp_jump",
              "shadow_band", "thin_dropout_near", "thin_dropout_far", "quant_step"),
    "vae": ("latent_dim", "beta", "w_const", "nu_min", "p_min", "hidden"),
    "dynamics": ("tau_v", "tau_yaw", "omega_max", "v_max", "collision_radius"),
    "planner": ("threshold", "fallback_speed_scale", "max_cycles",
                "n_steer", "n_vertical", "speed", "fov_margin"),
    "train": ("vae_epochs", "vae_lr", "vae_batch", "cpn_epochs", "cpn_lr", "cpn_batch",
              "e2e_epochs"),
    "dataset": ("vae_frames", "episodes", "horizon", "max_steps"),
    "campaign": ("runs", "base_seed", "environments"),
}


def _given(parser, section, *defaults) -> dict:
    """The keys of `section` the file sets, each cast like the first default's
    field of that name (float if none has one, str for the environment list)."""
    out = {}
    for key in KEYS[section]:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            cast = str if key == "environments" else type(next(
                (getattr(d, key) for d in defaults if hasattr(d, key)), 0.0))
            try:
                out[key] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return out


def _updated(obj, values: dict, **derived):
    """`obj` with its fields named in `values` replaced, then `derived`."""
    names = {f.name for f in fields(obj)}
    return replace(obj, **{**{k: v for k, v in values.items() if k in names}, **derived})


def _converted(obj, parser, section, **converted):
    """`obj` with `converted`; an error names the keys set under another field."""
    try:
        return replace(obj, **converted)
    except DepthNavError as exc:
        keys = ", ".join(f"{k} = {v}" for k, v in parser.items(section) if not hasattr(obj, k))
        raise type(exc)(f"[{section}] {keys}: {exc}") from exc


def load_config(path=None) -> AppConfig:
    cfg = AppConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        # a key given twice, a line that is not `key = value`, a key before
        # any [section]; configparser's message spans lines, the CLI prints one
        raise ConfigError(f"{path}: not a valid INI file: {' '.join(str(exc).split())}") from exc
    if not found:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser.options(section)) - set(KEYS[section])
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")

    run = _given(parser, "run", cfg)
    dataset = _updated(cfg.dataset, _given(parser, "dataset", cfg.dataset))

    paper = run.get("scale") == "paper"
    cam = _given(parser, "camera", cfg.camera)
    camera = _converted(_updated(paper_camera() if paper else cfg.camera, cam), parser, "camera",
                        **{fov: np.deg2rad(cam[key]) for fov, key in
                           (("fov_h", "fov_h_deg"), ("fov_v", "fov_v_deg")) if key in cam})
    noise = _given(parser, "noise", cfg.noise)
    noise = _converted(_updated(cfg.noise, noise), parser, "noise", blob_radius=(
        noise.get("blob_radius_min", cfg.noise.blob_radius[0]),
        noise.get("blob_radius_max", cfg.noise.blob_radius[1])))
    vae = _updated(paper_vae_config() if paper else cfg.vae, _given(parser, "vae", cfg.vae),
                   height=camera.height, width=camera.width)
    dynamics = _updated(cfg.dynamics, _given(parser, "dynamics", cfg.dynamics))
    plan = _given(parser, "planner", cfg.planner, cfg.library)
    planner = _updated(cfg.planner, plan)
    library = _updated(cfg.library, plan, fov_h=camera.fov_h, fov_v=camera.fov_v,
                       horizon=dataset.horizon)
    train = _updated(cfg.train, _given(parser, "train", cfg.train))
    envs = _given(parser, "campaign", cfg.campaign)
    campaign = _updated(cfg.campaign, envs, environments=tuple(
        envs.get("environments", " ".join(cfg.campaign.environments)).split()))
    return _updated(cfg, run, camera=camera, noise=noise, vae=vae, dynamics=dynamics,
                    planner=planner, library=library, train=train, dataset=dataset,
                    campaign=campaign)


def world_params_fn(cfg: AppConfig):
    return paper_world_params if cfg.scale == "paper" else desk_world_params
