"""CLI pipeline chaining, config parsing, exit codes."""

import configparser
from pathlib import Path

import numpy as np
import pytest

from depthnav.cli import main
from depthnav.config import KEYS, AppConfig, load_config
from depthnav.errors import ConfigError, PlannerError, ShapeError, WorldError

MICRO_INI = """\
[run]
scale = desk
environment = sparse

[dataset]
vae_frames = 12
episodes = 4
max_steps = 20

[train]
vae_epochs = 1
cpn_epochs = 1
e2e_epochs = 1

[planner]
max_cycles = 20

[campaign]
runs = 1
environments = sparse
"""


@pytest.fixture()
def micro(tmp_path):
    ini = tmp_path / "micro.ini"
    ini.write_text(MICRO_INI)
    return ini, tmp_path / "run"


def test_full_pipeline_chain_micro_scale(micro, capsys):
    ini, out = micro
    base = ["--config", str(ini), "--seed", "4", "--out", str(out)]
    assert main(["gen-world", *base]) == 0
    assert main(["render-dataset", *base]) == 0
    assert main(["collect-collisions", *base]) == 0
    assert main(["train-vae", *base]) == 0
    assert main(["train-vae", "--vanilla", *base]) == 0
    assert main(["encode-dataset", *base]) == 0
    assert main(["train-cpn", "--variant", "modular", *base]) == 0
    assert main(["train-cpn", "--variant", "end-to-end", *base]) == 0
    assert main(["eval-recon", *base]) == 0
    assert main(["run-mission", "--arm", "oracle", *base]) == 0
    assert main(["run-campaign", "--arms", "oracle", *base]) == 0
    assert main(["dataset", "info", str(out / "collisions_clean.dset")]) == 0
    assert main(["export-frames", str(out / "vae_frames_noisy.dset"),
                 "--out", str(out / "pgm")]) == 0
    captured = capsys.readouterr()
    from depthnav.data import load_dataset
    assert "kind: cold" in captured.out.splitlines()
    assert f"count: {len(load_dataset(out / 'collisions_clean.dset'))}" in captured.out.splitlines()
    assert (out / "campaign.csv").exists()
    assert (out / "recon_report.csv").exists()
    assert len(list((out / "pgm").glob("*.pgm"))) == 36  # 12 frames x 3 files


def test_import_frames_round_trip(micro):
    ini, out = micro
    base = ["--config", str(ini), "--seed", "4", "--out", str(out)]
    assert main(["render-dataset", *base]) == 0
    assert main(["export-frames", str(out / "vae_frames_noisy.dset"),
                 "--out", str(out / "pgm")]) == 0
    out2 = out.parent / "imported"
    assert main(["import-frames", str(out / "pgm"), "--out", str(out2), "--seed", "0"]) == 0
    from depthnav.data import load_dataset
    imported = load_dataset(out2 / "vae_frames_noisy.dset")
    original = load_dataset(out / "vae_frames_noisy.dset")
    assert len(imported) == len(original)
    assert np.array_equal(imported.valid, original.valid)
    # depth quantized to the 16-bit grid on export
    assert np.abs(imported.x - original.x).max() < 1.0 / 65534 + 1e-7


@pytest.mark.parametrize("depth_pgm,error", [
    (b"P5\n80 60\n65535\n" + bytes(100), "ShapeError"),
    (b"P5\n80 x60\n65535\n" + bytes(9600), "ShapeError"),
    (b"P5\n80 60", "ShapeError"),
    (b"P5\n2 2\n0\n" + bytes(4), "ShapeError"),
    (b"P5\n2 2\n70000\n" + bytes(8), "ShapeError"),
    (b"P5\n80 60\n255\n" + bytes([200]) * 4800, "DatasetError"),
], ids=["short-payload", "non-integer-header", "truncated-header", "maxval-0",
        "maxval-70000", "8-bit-depth"])
def test_bad_depth_pgm_import_gives_one_error_line(tmp_path, capsys, depth_pgm, error):
    # a short payload or a bad header died with an untyped ValueError; an
    # 8-bit depth file imported every pixel as a valid 1.5 cm depth
    (tmp_path / "pgm").mkdir()
    (tmp_path / "pgm" / "0000.pgm").write_bytes(depth_pgm)
    out = tmp_path / "imported"
    assert main(["import-frames", str(tmp_path / "pgm"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {error}: ")
    assert not (out / "vae_frames_noisy.dset").exists()


def test_missing_dataset_gives_machine_readable_error(tmp_path, capsys):
    code = main(["train-vae", "--out", str(tmp_path / "nothing")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: DatasetError:")


def test_export_frames_of_a_world_file_gives_one_error_line(micro, capsys):
    ini, out = micro
    assert main(["gen-world", "--config", str(ini), "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["export-frames", str(out / "world.bin"), "--out", str(out / "pgm")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DatasetError: ")
    assert "'world' file, not a dataset" in err[0]
    assert not (out / "pgm").exists()


def test_zero_batch_size_gives_one_error_line(micro, capsys):
    # the range is checked when the config loads, so no subcommand runs with it
    ini, out = micro
    ini.write_text(MICRO_INI.replace("vae_epochs = 1", "vae_epochs = 1\nvae_batch = 0"))
    base = ["--config", str(ini), "--seed", "4", "--out", str(out)]
    assert main(["render-dataset", *base]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigError: [train] vae_batch must be")
    assert not out.exists()


def test_zero_horizon_gives_one_error_line(micro, capsys):
    # a zero-step sequence never advances an episode, so collecting would not end
    ini, out = micro
    ini.write_text(MICRO_INI.replace("max_steps = 20", "max_steps = 20\nhorizon = 0"))
    assert main(["collect-collisions", "--config", str(ini), "--seed", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: ConfigError: [dataset] horizon must be an integer in [1, inf)")


def test_unknown_arm_gives_one_error_line(micro, capsys):
    ini, out = micro
    assert main(["run-campaign", "--arms", "bogus", "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigError: unknown arm 'bogus'")


@pytest.mark.parametrize("command,ini_line", [
    (["gen-world", "--seed", "-1"], ""),
    (["run-mission", "--arm", "oracle", "--seed", "-1"], ""),
    (["run-campaign", "--arms", "oracle"], "base_seed = -5000"),
    (["run-campaign", "--arms", "oracle"], "runs = -1"),
    (["run-campaign", "--arms", "oracle"], "environments ="),
])
def test_negative_seed_or_campaign_size_gives_one_error_line(micro, capsys, command, ini_line):
    # a negative seed used to end in numpy's untyped ValueError; runs = -1 and
    # an empty environment list flew nothing and exited 0
    ini, out = micro
    ini.write_text(MICRO_INI.replace("runs = 1\nenvironments = sparse", ini_line))
    assert main([*command, "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigError: ")
    assert not (out / "campaign.csv").exists()


def test_export_frames_writes_under_runs_by_default():
    # every subcommand's default --out lies under runs/, which .gitignore covers
    from depthnav.cli import build_parser
    assert build_parser().parse_args(["export-frames", "a.dset"]).out == "runs/frames"


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[vae]\nlatent_dmi = 32\n")
    with pytest.raises(ConfigError, match="latent_dmi"):
        load_config(bad)


@pytest.mark.parametrize("text", [
    "[campaign]\nruns = 1\nruns = 2\n",
    "[campaign]\nruns = 1\nthis line is not a pair\n",
    "runs = 1\n[campaign]\n",
], ids=["duplicate-key", "not-key-value", "key-before-section"])
def test_config_rejects_malformed_ini(tmp_path, capsys, text):
    # configparser's own errors used to escape untyped, as a traceback
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(ConfigError, match="bad.ini: not a valid INI file"):
        load_config(bad)
    assert main(["gen-world", "--config", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigError: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key,value", [("threshold", "nan"), ("threshold", "0"),
                                       ("fallback_speed_scale", "-0.5"), ("max_cycles", "0"),
                                       ("fov_margin", "nan"), ("fov_margin", "1.5")])
def test_config_rejects_bad_planner(tmp_path, key, value):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[planner]\n{key} = {value}\n")
    with pytest.raises(PlannerError, match=key):
        load_config(bad)


@pytest.mark.parametrize("key,value", [("blob_count_mean", "-1"), ("blob_count_mean", "nan"),
                                       ("blob_radius_min", "6"), ("blob_radius_max", "inf"),
                                       ("shadow_disp_jump", "nan"), ("shadow_disp_jump", "0"),
                                       ("shadow_band", "-1"), ("thin_dropout_near", "-0.1"),
                                       ("thin_dropout_far", "1.5"), ("quant_step", "inf")])
def test_config_rejects_bad_noise(tmp_path, key, value):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[noise]\n{key} = {value}\n")
    with pytest.raises(WorldError, match=key):
        load_config(bad)


@pytest.mark.parametrize("key,value", [("hidden", "0"), ("latent_dim", "0"), ("p_min", "0"),
                                       ("beta", "nan"), ("beta", "0"), ("w_const", "inf"),
                                       ("nu_min", "nan"), ("nu_min", "0.5")])
def test_config_rejects_bad_vae(tmp_path, key, value):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[vae]\n{key} = {value}\n")
    with pytest.raises(ShapeError, match=key):
        load_config(bad)


def test_example_config_is_the_defaults_and_sets_every_key():
    example = Path(__file__).resolve().parents[1] / "docs" / "example-config.ini"
    assert load_config(example) == AppConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(example)
    assert {s: tuple(parser.options(s)) for s in parser.sections()} == KEYS


def test_config_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.ini")


def test_config_paper_scale_defaults(tmp_path):
    ini = tmp_path / "p.ini"
    ini.write_text("[run]\nscale = paper\n")
    cfg = load_config(ini)
    assert cfg.camera.height == 270 and cfg.camera.width == 480
    assert cfg.vae.latent_dim == 128
    assert cfg.vae.beta_norm == pytest.approx(128 / 129600)


def test_campaign_report_reproducible_across_processes(micro):
    ini, out = micro
    base = ["--config", str(ini), "--seed", "9"]
    out_a, out_b = str(out) + "_a", str(out) + "_b"
    for target in (out_a, out_b):
        assert main(["run-campaign", "--arms", "oracle", *base, "--out", target]) == 0
    assert (Path(out_a) / "campaign.csv").read_bytes() == \
        (Path(out_b) / "campaign.csv").read_bytes()
    assert (Path(out_a) / "campaign_outcomes.csv").read_bytes() == \
        (Path(out_b) / "campaign_outcomes.csv").read_bytes()
