"""Plain-text configuration (INI: [section] blocks of key = value lines).

Every key has a desk-scale default; a config file only overrides what it
names.  Unknown sections or keys are rejected so typos fail loudly.  See
docs/example-config.ini for the annotated reference.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .camera import CameraModel, NoiseParams, paper_camera
from .errors import ConfigError
from .planner import LibraryConfig, PlannerConfig
from .vae import VaeConfig, paper_vae_config
from .world import DynamicsParams


@dataclass
class TrainSettings:
    vae_epochs: int = 40
    vae_lr: float = 1e-4
    vae_batch: int = 32
    cpn_epochs: int = 25
    cpn_lr: float = 1e-3
    cpn_batch: int = 128
    e2e_epochs: int = 25


@dataclass
class DatasetSettings:
    vae_frames: int = 2000
    episodes: int = 350
    horizon: int = 10
    max_steps: int = 60


@dataclass
class CampaignSettings:
    runs: int = 20
    base_seed: int = 1000
    environments: tuple[str, ...] = ("sparse", "medium", "dense")


@dataclass
class AppConfig:
    scale: str = "desk"          # desk | paper
    environment: str = "medium"
    camera: CameraModel = field(default_factory=CameraModel)
    noise: NoiseParams = field(default_factory=NoiseParams)
    vae: VaeConfig = field(default_factory=VaeConfig)
    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    library: LibraryConfig = field(default_factory=LibraryConfig)
    dt: float = 0.25
    train: TrainSettings = field(default_factory=TrainSettings)
    dataset: DatasetSettings = field(default_factory=DatasetSettings)
    campaign: CampaignSettings = field(default_factory=CampaignSettings)


_SCHEMA = {
    "run": {"scale", "environment", "dt"},
    "camera": {"height", "width", "fov_h_deg", "fov_v_deg", "max_range", "min_range"},
    "noise": {"blob_count_mean", "blob_radius_min", "blob_radius_max", "shadow_disp_jump",
              "shadow_band", "thin_dropout_near", "thin_dropout_far", "quant_step"},
    "vae": {"latent_dim", "beta", "w_const", "nu_min", "p_min", "hidden"},
    "dynamics": {"tau_v", "tau_yaw", "omega_max", "v_max", "collision_radius"},
    "planner": {"threshold", "fallback_speed_scale", "max_cycles",
                "n_steer", "n_vertical", "speed", "fov_margin"},
    "train": {"vae_epochs", "vae_lr", "vae_batch", "cpn_epochs", "cpn_lr", "cpn_batch",
              "e2e_epochs"},
    "dataset": {"vae_frames", "episodes", "horizon", "max_steps"},
    "campaign": {"runs", "base_seed", "environments"},
}


def _get(parser, section, key, cast, default):
    if parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return default


def load_config(path=None) -> AppConfig:
    cfg = AppConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(parser.options(section)) - _SCHEMA[section]
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")

    scale = _get(parser, "run", "scale", str, cfg.scale)
    if scale not in ("desk", "paper"):
        raise ConfigError(f"[run] scale must be desk or paper, got {scale!r}")
    env = _get(parser, "run", "environment", str, cfg.environment)
    if env not in ("sparse", "medium", "dense"):
        raise ConfigError(f"[run] environment must be sparse/medium/dense, got {env!r}")
    dt = _get(parser, "run", "dt", float, cfg.dt)
    horizon = _get(parser, "dataset", "horizon", int, cfg.dataset.horizon)
    if horizon < 1:
        raise ConfigError(f"[dataset] horizon must be >= 1, got {horizon}")

    paper = scale == "paper"
    cam_default = paper_camera() if paper else CameraModel()
    vae_default = paper_vae_config() if paper else VaeConfig()

    camera = CameraModel(
        height=_get(parser, "camera", "height", int, cam_default.height),
        width=_get(parser, "camera", "width", int, cam_default.width),
        fov_h=np.deg2rad(_get(parser, "camera", "fov_h_deg", float, np.rad2deg(cam_default.fov_h))),
        fov_v=np.deg2rad(_get(parser, "camera", "fov_v_deg", float, np.rad2deg(cam_default.fov_v))),
        max_range=_get(parser, "camera", "max_range", float, cam_default.max_range),
        min_range=_get(parser, "camera", "min_range", float, cam_default.min_range),
    )
    nd = NoiseParams()
    noise = NoiseParams(
        blob_count_mean=_get(parser, "noise", "blob_count_mean", float, nd.blob_count_mean),
        blob_radius=(_get(parser, "noise", "blob_radius_min", float, nd.blob_radius[0]),
                     _get(parser, "noise", "blob_radius_max", float, nd.blob_radius[1])),
        shadow_disp_jump=_get(parser, "noise", "shadow_disp_jump", float, nd.shadow_disp_jump),
        shadow_band=_get(parser, "noise", "shadow_band", int, nd.shadow_band),
        thin_dropout_near=_get(parser, "noise", "thin_dropout_near", float, nd.thin_dropout_near),
        thin_dropout_far=_get(parser, "noise", "thin_dropout_far", float, nd.thin_dropout_far),
        quant_step=_get(parser, "noise", "quant_step", float, nd.quant_step),
    )
    vae = VaeConfig(
        height=camera.height, width=camera.width,
        latent_dim=_get(parser, "vae", "latent_dim", int, vae_default.latent_dim),
        beta=_get(parser, "vae", "beta", float, vae_default.beta),
        w_const=_get(parser, "vae", "w_const", float, vae_default.w_const),
        nu_min=_get(parser, "vae", "nu_min", float, vae_default.nu_min),
        p_min=_get(parser, "vae", "p_min", int, vae_default.p_min),
        hidden=_get(parser, "vae", "hidden", int, vae_default.hidden),
    )
    dyn = DynamicsParams(
        tau_v=_get(parser, "dynamics", "tau_v", float, cfg.dynamics.tau_v),
        tau_yaw=_get(parser, "dynamics", "tau_yaw", float, cfg.dynamics.tau_yaw),
        omega_max=_get(parser, "dynamics", "omega_max", float, cfg.dynamics.omega_max),
        v_max=_get(parser, "dynamics", "v_max", float, cfg.dynamics.v_max),
        collision_radius=_get(parser, "dynamics", "collision_radius", float,
                              cfg.dynamics.collision_radius),
    )
    planner = PlannerConfig(
        threshold=_get(parser, "planner", "threshold", float, cfg.planner.threshold),
        fallback_speed_scale=_get(parser, "planner", "fallback_speed_scale", float,
                                  cfg.planner.fallback_speed_scale),
        max_cycles=_get(parser, "planner", "max_cycles", int, cfg.planner.max_cycles),
    )
    library = LibraryConfig(
        n_steer=_get(parser, "planner", "n_steer", int, cfg.library.n_steer),
        n_vertical=_get(parser, "planner", "n_vertical", int, cfg.library.n_vertical),
        speeds=(_get(parser, "planner", "speed", float, cfg.library.speeds[0]),),
        fov_h=camera.fov_h,
        fov_v=camera.fov_v,
        horizon=horizon,
        fov_margin=_get(parser, "planner", "fov_margin", float, cfg.library.fov_margin),
    )
    train = TrainSettings(
        vae_epochs=_get(parser, "train", "vae_epochs", int, cfg.train.vae_epochs),
        vae_lr=_get(parser, "train", "vae_lr", float, cfg.train.vae_lr),
        vae_batch=_get(parser, "train", "vae_batch", int, cfg.train.vae_batch),
        cpn_epochs=_get(parser, "train", "cpn_epochs", int, cfg.train.cpn_epochs),
        cpn_lr=_get(parser, "train", "cpn_lr", float, cfg.train.cpn_lr),
        cpn_batch=_get(parser, "train", "cpn_batch", int, cfg.train.cpn_batch),
        e2e_epochs=_get(parser, "train", "e2e_epochs", int, cfg.train.e2e_epochs),
    )
    dataset = DatasetSettings(
        vae_frames=_get(parser, "dataset", "vae_frames", int, cfg.dataset.vae_frames),
        episodes=_get(parser, "dataset", "episodes", int, cfg.dataset.episodes),
        horizon=horizon,
        max_steps=_get(parser, "dataset", "max_steps", int, cfg.dataset.max_steps),
    )
    env_list = tuple(_get(parser, "campaign", "environments", str,
                          " ".join(cfg.campaign.environments)).split())
    for name in env_list:
        if name not in ("sparse", "medium", "dense"):
            raise ConfigError(f"[campaign] unknown environment {name!r}")
    campaign = CampaignSettings(
        runs=_get(parser, "campaign", "runs", int, cfg.campaign.runs),
        base_seed=_get(parser, "campaign", "base_seed", int, cfg.campaign.base_seed),
        environments=env_list,
    )
    return AppConfig(scale=scale, environment=env, camera=camera, noise=noise, vae=vae,
                     dynamics=dyn, planner=planner, library=library, dt=dt, train=train,
                     dataset=dataset, campaign=campaign)


def world_params_fn(cfg: AppConfig):
    from .world import desk_world_params, paper_world_params
    return paper_world_params if cfg.scale == "paper" else desk_world_params
