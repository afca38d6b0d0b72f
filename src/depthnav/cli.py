"""Command-line interface orchestrating every pipeline stage.

Artifacts live in the --out directory under fixed names, so stages chain
without extra flags:

    depthnav gen-world --seed 5 --out runs/a
    depthnav render-dataset --seed 5 --out runs/a
    depthnav collect-collisions --seed 5 --out runs/a
    depthnav train-vae --out runs/a            (+ --vanilla for the baseline)
    depthnav encode-dataset --out runs/a
    depthnav train-cpn --variant modular --out runs/a
    depthnav train-cpn --variant end-to-end --out runs/a
    depthnav eval-recon --out runs/a
    depthnav run-mission --arm modular --seed 9 --out runs/a
    depthnav run-campaign --out runs/a
    depthnav dataset info runs/a/collisions_clean.dset
    depthnav export-frames runs/a/vae_frames_noisy.dset   (PGMs to runs/frames)

Exit status is 0 on success; failures print one machine-readable line
`error: <Class>: <message>` on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import AppConfig, load_config, world_params_fn
from .cpn import CollisionPredictor, CpnConfig, train_cpn
from .data import (
    CollisionSet,
    FrameSet,
    dataset_info,
    export_frames,
    import_depth_images,
    load_dataset,
    save_dataset,
)
from .errors import ConfigError, DatasetError, DepthNavError
from .evaluation import (
    end_to_end_arm,
    eval_reconstruction,
    fft_reconstructor,
    modular_arm,
    oracle_arm,
    run_campaign,
    run_mission,
    vae_reconstructor,
)
from .fft_codec import FftPlan
from .pipeline import build_latent_dataset, collect_collision_data, render_vae_corpus
from .vae import SemanticVae, train_vae
from .world import generate_world, save_world, world_summary

# fixed artifact names inside the --out directory
F_WORLD = "world.bin"
F_WORLD_TXT = "world.txt"
F_FRAMES_CLEAN = "vae_frames_clean.dset"
F_FRAMES_NOISY = "vae_frames_noisy.dset"
F_COLLISIONS = "collisions_clean.dset"
F_LATENT = "collisions_latent.dset"
F_SEVAE = "sevae.ckpt"
F_VANILLA = "vanilla_vae.ckpt"
F_CPN_MOD = "cpn_modular.ckpt"
F_CPN_E2E = "cpn_end_to_end.ckpt"


def _common(sub):
    sub.add_argument("--config", type=str, default=None, help="INI config file")
    sub.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    sub.add_argument("--out", type=str, default="runs/out", help="artifact directory")


def _setup(args) -> tuple[AppConfig, Path]:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if getattr(args, "log_every", 0) < 0:  # epoch % -1 == 0 would log every epoch
        raise ConfigError(f"--log-every must be >= 0, got {args.log_every}")
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _need(path: Path, hint: str) -> Path:
    if not path.exists():
        raise DatasetError(f"{path} not found ({hint})")
    return path


def _arm(name: str, cfg: AppConfig, out: Path):
    """The named arm's factory, loading its trained models from `out`."""
    if name == "oracle":
        return oracle_arm(cfg.dt, cfg.dynamics)
    if name == "modular":
        return modular_arm(SemanticVae.load(_need(out / F_SEVAE, "train-vae")),
                           CollisionPredictor.load(_need(out / F_CPN_MOD, "train-cpn")))
    if name == "end-to-end":
        return end_to_end_arm(
            CollisionPredictor.load(_need(out / F_CPN_E2E, "train-cpn --variant end-to-end")))
    raise ConfigError(f"unknown arm {name!r}")


def cmd_gen_world(args) -> int:
    cfg, out = _setup(args)
    params = world_params_fn(cfg)(args.env or cfg.environment, seed=args.seed)
    world = generate_world(params)
    save_world(out / F_WORLD, world)
    (out / F_WORLD_TXT).write_text(world_summary(world))
    print(f"wrote {out / F_WORLD}")
    print(world_summary(world), end="")
    return 0


def cmd_render_dataset(args) -> int:
    cfg, out = _setup(args)
    clean, noisy = render_vae_corpus(cfg.dataset.vae_frames, cfg.camera, cfg.noise,
                                     seed=args.seed, world_params_fn=world_params_fn(cfg))
    save_dataset(out / F_FRAMES_CLEAN, clean)
    save_dataset(out / F_FRAMES_NOISY, noisy)
    print(f"wrote {len(clean)} clean + corrupted frames to {out}")
    return 0


def cmd_collect_collisions(args) -> int:
    cfg, out = _setup(args)
    ds = collect_collision_data(cfg.dataset.episodes, cfg.camera, seed=args.seed,
                                horizon=cfg.dataset.horizon, dt=cfg.dt,
                                max_steps=cfg.dataset.max_steps,
                                world_params_fn=world_params_fn(cfg), dynamics=cfg.dynamics)
    save_dataset(out / F_COLLISIONS, ds)
    pos = float((ds.labels > 0).mean())
    print(f"wrote {len(ds)} collision datapoints (positive step fraction {pos:.3f})")
    return 0


def cmd_train_vae(args) -> int:
    cfg, out = _setup(args)
    frames = load_dataset(_need(out / F_FRAMES_NOISY, "run render-dataset first"))
    if not isinstance(frames, FrameSet):
        raise DatasetError(f"{out / F_FRAMES_NOISY}: expected a frame dataset")
    train_vae(frames, cfg.vae, seed=args.seed, epochs=cfg.train.vae_epochs,
              lr=cfg.train.vae_lr, batch_size=cfg.train.vae_batch, vanilla=args.vanilla,
              out_dir=out, log_every=args.log_every)
    name = F_VANILLA if args.vanilla else F_SEVAE
    print(f"wrote {out / name}")
    return 0


def cmd_encode_dataset(args) -> int:
    cfg, out = _setup(args)
    ds = load_dataset(_need(out / F_COLLISIONS, "run collect-collisions first"))
    vae = SemanticVae.load(_need(out / F_SEVAE, "run train-vae first"))
    latent = build_latent_dataset(ds, vae, cfg.noise, seed=args.seed,
                                  max_range=cfg.camera.max_range)
    save_dataset(out / F_LATENT, latent)
    print(f"wrote {len(latent)} latent datapoints to {out / F_LATENT}")
    return 0


def cmd_train_cpn(args) -> int:
    cfg, out = _setup(args)
    if args.variant == "modular":
        ds = load_dataset(_need(out / F_LATENT, "run encode-dataset first"))
        net_cfg = CpnConfig(variant="modular", latent_dim=cfg.vae.latent_dim,
                            horizon=cfg.dataset.horizon)
        epochs = cfg.train.cpn_epochs
    else:
        ds = load_dataset(_need(out / F_COLLISIONS, "run collect-collisions first"))
        net_cfg = CpnConfig(variant="end-to-end", horizon=cfg.dataset.horizon,
                            image_hw=(cfg.camera.height, cfg.camera.width))
        epochs = cfg.train.e2e_epochs
    train_cpn(ds, net_cfg, seed=args.seed, epochs=epochs, lr=cfg.train.cpn_lr,
              batch_size=cfg.train.cpn_batch, out_dir=out, log_every=args.log_every)
    name = F_CPN_MOD if args.variant == "modular" else F_CPN_E2E
    print(f"wrote {out / name}")
    return 0


def cmd_eval_recon(args) -> int:
    cfg, out = _setup(args)
    frames = dataset_info(_need(out / F_FRAMES_CLEAN, "run render-dataset first"))
    FftPlan(frames["height"], frames["width"], args.fft_k)  # k in [1, H*W], before any load
    clean = load_dataset(out / F_FRAMES_CLEAN)
    noisy = load_dataset(_need(out / F_FRAMES_NOISY, "run render-dataset first"))
    sevae = SemanticVae.load(_need(out / F_SEVAE, "run train-vae first"))
    vanilla = SemanticVae.load(_need(out / F_VANILLA, "run train-vae --vanilla first"))
    report = eval_reconstruction(
        {"clean-sim": clean, "corrupted": noisy},
        {"fft": fft_reconstructor(args.fft_k), "vanilla-vae": vae_reconstructor(vanilla),
         "sevae": vae_reconstructor(sevae)},
    )
    (out / "recon_report.csv").write_text(report.to_csv())
    print(report.table(), end="")
    print(f"wrote {out / 'recon_report.csv'}")
    return 0


def cmd_run_mission(args) -> int:
    cfg, out = _setup(args)
    params = world_params_fn(cfg)(args.env or cfg.environment, seed=args.seed)
    world = generate_world(params)
    result = run_mission(world, params.course_length, _arm(args.arm, cfg, out), cfg,
                         seed=args.seed)
    path = result.telemetry["path"]
    traj = out / "mission_trajectory.csv"
    with open(traj, "w") as fh:
        fh.write("cycle,x,y,z\n")
        for i, row in enumerate(path):
            fh.write(f"{i},{row[0]:.4f},{row[1]:.4f},{row[2]:.4f}\n")
    print(f"outcome={result.outcome} cycles={result.cycles} "
          f"distance={result.telemetry['distance']:.2f} "
          f"min_clearance={result.telemetry['min_clearance']:.3f}")
    print(f"wrote {traj}")
    return 0


def cmd_run_campaign(args) -> int:
    cfg, out = _setup(args)
    arms = {name: _arm(name, cfg, out) for name in map(str.strip, args.arms.split(","))}
    report = run_campaign(arms, environments=cfg.campaign.environments,
                          runs=cfg.campaign.runs, base_seed=args.seed + cfg.campaign.base_seed,
                          setup=cfg, world_params_fn=world_params_fn(cfg),
                          progress=(lambda env, seed, name, r:
                                    print(f"  {env} seed={seed} {name}: {r.outcome}"))
                          if args.verbose else None)
    (out / "campaign.csv").write_text(report.to_csv())
    (out / "campaign_outcomes.csv").write_text(report.outcomes_csv())
    print(report.table(), end="")
    print(f"wrote {out / 'campaign.csv'}")
    return 0


def cmd_dataset(args) -> int:
    for key, value in dataset_info(args.file).items():
        print(f"{key}: {value}")
    return 0


def cmd_export_frames(args) -> int:
    ds = load_dataset(args.file)
    if isinstance(ds, CollisionSet):
        frames = ds.frames
    elif isinstance(ds, FrameSet):
        frames = ds
    else:
        raise DatasetError("latent datasets carry no frames to export")
    export_frames(frames, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


def cmd_import_frames(args) -> int:
    _, out = _setup(args)
    frames = import_depth_images(args.directory)
    save_dataset(out / F_FRAMES_NOISY, frames)
    print(f"imported {len(frames)} frames -> {out / F_FRAMES_NOISY}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="depthnav",
                                     description="depth-image collision avoidance pipeline")
    parser.add_argument("--version", action="version", version=f"depthnav {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, common=True):
        p = subs.add_parser(name, help=help)
        if common:
            _common(p)
        p.set_defaults(fn=fn)
        return p

    p = command("gen-world", cmd_gen_world, "generate an obstacle course")
    p.add_argument("--env", choices=["sparse", "medium", "dense"], default=None)
    command("render-dataset", cmd_render_dataset, "render the autoencoder corpus")
    command("collect-collisions", cmd_collect_collisions, "roll out collision episodes")
    p = command("train-vae", cmd_train_vae, "train the depth autoencoder")
    p.add_argument("--vanilla", action="store_true", help="disable semantic weighting")
    p.add_argument("--log-every", type=int, default=0)
    command("encode-dataset", cmd_encode_dataset, "corrupt + encode collision frames")
    p = command("train-cpn", cmd_train_cpn, "train a collision predictor")
    p.add_argument("--variant", choices=["modular", "end-to-end"], default="modular")
    p.add_argument("--log-every", type=int, default=0)
    p = command("eval-recon", cmd_eval_recon, "compare reconstruction methods")
    p.add_argument("--fft-k", type=int, default=64)
    p = command("run-mission", cmd_run_mission, "fly one mission")
    p.add_argument("--arm", choices=["modular", "end-to-end", "oracle"], default="modular")
    p.add_argument("--env", choices=["sparse", "medium", "dense"], default=None)
    p = command("run-campaign", cmd_run_campaign, "paired-seed success-rate comparison")
    p.add_argument("--arms", type=str, default="modular,end-to-end")
    p.add_argument("--verbose", action="store_true")

    p = subs.add_parser("dataset", help="dataset container utilities")
    dsubs = p.add_subparsers(dest="dataset_command", required=True)
    pi = dsubs.add_parser("info", help="print container dims and counts")
    pi.add_argument("file", type=str)
    pi.set_defaults(fn=cmd_dataset)

    p = command("export-frames", cmd_export_frames, "dump a dataset's frames as PGM files",
                common=False)
    p.add_argument("file", type=str)
    p.add_argument("--out", type=str, default="runs/frames", help="PGM directory")
    p = command("import-frames", cmd_import_frames, "import externally labeled depth PGMs")
    p.add_argument("directory", type=str)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DepthNavError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: FileNotFound: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
