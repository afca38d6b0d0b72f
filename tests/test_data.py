"""Dataset construction, labeling, augmentation, containers, PGM import,
and pose sampling for the generated datasets."""

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from depthnav.camera import CameraModel, DepthFrame, NoiseParams
from depthnav.data import (
    CollisionSet,
    FrameSet,
    LatentCollisionSet,
    dataset_info,
    encode_dataset,
    export_frames,
    flip_augment_set,
    import_depth_images,
    label_episode,
    load_dataset,
    mirrored_half,
    save_dataset,
    with_flip_augmentation,
)
from depthnav.errors import DatasetError, ShapeError, TrainingError
from depthnav.nn import fit
from depthnav.world import ACTION_DIM, CollisionEpisode, desk_world_params


def _episode(length, collided_at=None, seed=0):
    rng = np.random.default_rng(seed)
    frames = [DepthFrame(rng.random((6, 8), dtype=np.float32), np.ones((6, 8), np.uint8),
                         np.zeros((6, 8), np.uint16)) for _ in range(length)]
    collided = np.zeros(length, np.uint8)
    ended = collided_at is not None
    if ended:
        collided[collided_at] = 1
    return CollisionEpisode(
        frames=frames,
        states=rng.normal(size=(length, 6)),
        actions=rng.normal(size=(length, ACTION_DIM)),
        collided=collided,
        ended_in_collision=ended,
        seed=seed,
    )


class TestLabeling:
    def test_timeout_episode_all_labels_zero(self):
        ds = label_episode(_episode(20), horizon=8)
        assert len(ds) == 13  # full windows only: 20 - 8 + 1
        assert ds.labels.sum() == 0

    def test_collision_at_relative_step_five(self):
        # window starting at t=0 of an episode that collides during step 4
        ds = label_episode(_episode(5, collided_at=4), horizon=8)
        assert np.array_equal(ds.labels[0], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_collision_at_relative_step_one_all_ones(self):
        ds = label_episode(_episode(1, collided_at=0), horizon=8)
        assert np.array_equal(ds.labels[0], np.ones(8, np.uint8))

    def test_labels_monotone_for_every_window(self):
        for seed in range(5):
            length = 12
            ds = label_episode(_episode(length, collided_at=length - 1, seed=seed), horizon=6)
            diffs = np.diff(ds.labels.astype(np.int8), axis=1)
            assert np.all(diffs >= 0)

    def test_windows_past_collision_use_appended_actions(self):
        episode = _episode(4, collided_at=3)
        ds = label_episode(episode, horizon=8)
        assert len(ds) == 4
        # the last window starts at t=3 and needs 7 appended actions: the last one, held
        assert np.array_equal(ds.actions[3][1:],
                              np.tile(episode.actions[-1].astype(np.float32), (7, 1)))
        assert np.array_equal(ds.labels[3], np.ones(8, np.uint8))

    def test_empty_episode_rejected(self):
        with pytest.raises(DatasetError, match="shorter"):
            label_episode(_episode(0), horizon=5)


class TestFlip:
    def _ds(self, seed=1, n=3):
        rng = np.random.default_rng(seed)
        shape = (n, 6, 8)
        frames = FrameSet(rng.random(shape, dtype=np.float32),
                          (rng.random(shape) > 0.3).astype(np.uint8),
                          rng.integers(0, 4, shape).astype(np.uint16))
        return CollisionSet(frames, rng.normal(size=(n, 6)), rng.normal(size=(n, 5, 4)),
                            (rng.random((n, 5)) > 0.5).astype(np.uint8))

    def test_flip_twice_is_identity(self):
        ds = self._ds()
        back = flip_augment_set(flip_augment_set(ds))
        for name in ("x", "valid", "seg"):
            assert np.array_equal(getattr(back.frames, name), getattr(ds.frames, name))
        assert np.array_equal(back.states, ds.states)
        assert np.array_equal(back.actions, ds.actions)
        assert np.array_equal(back.labels, ds.labels)

    def test_flip_negates_lateral_quantities_only(self):
        ds = self._ds(2)
        flipped = flip_augment_set(ds)
        for name in ("x", "valid", "seg"):
            assert np.array_equal(getattr(flipped.frames, name),
                                  getattr(ds.frames, name)[:, :, ::-1])
        lateral = [1, 3, 4]                 # v_y, yaw rate, roll
        assert np.array_equal(flipped.states[:, lateral], -ds.states[:, lateral])
        assert np.array_equal(flipped.states[:, [0, 2, 5]], ds.states[:, [0, 2, 5]])
        assert np.array_equal(flipped.actions[..., [1, 3]], -ds.actions[..., [1, 3]])
        assert np.array_equal(flipped.actions[..., [0, 2]], ds.actions[..., [0, 2]])
        assert np.array_equal(flipped.labels, ds.labels)

    def test_symmetric_frame_with_zero_lateral_state_is_fixed_point(self):
        x = np.zeros((1, 4, 6), np.float32)
        x[..., 2:4] = 0.5  # symmetric about the vertical centerline
        frames = FrameSet(x, np.ones_like(x, dtype=np.uint8), np.zeros_like(x, dtype=np.uint16))
        state = np.array([[1.0, 0.0, 0.1, 0.0, 0.0, 0.05]])
        actions = np.tile([0.8, 0.0, 0.0, 0.0], (1, 3, 1))
        ds = CollisionSet(frames, state, actions, np.zeros((1, 3), np.uint8))
        flipped = flip_augment_set(ds)
        assert np.array_equal(flipped.frames.x, ds.frames.x)
        assert np.array_equal(flipped.states, ds.states)
        assert np.array_equal(flipped.actions, ds.actions)

    def test_augmented_set_doubles(self):
        ds = label_episode(_episode(10), horizon=4)
        assert len(with_flip_augmentation(ds)) == 2 * len(ds)

    def test_mirrored_half_finds_the_augmented_layout_only(self):
        ds = label_episode(_episode(10, collided_at=9), horizon=4)
        aug = with_flip_augmentation(ds)
        assert mirrored_half(aug.states, aug.actions, aug.labels) == len(ds)
        assert mirrored_half(ds.states, ds.actions, ds.labels) == 0
        swapped = aug.subset(np.r_[1, 0, 2:len(aug)])  # one row out of place
        assert mirrored_half(swapped.states, swapped.actions, swapped.labels) == 0
        odd = aug.subset(np.arange(len(aug) - 1))
        assert mirrored_half(odd.states, odd.actions, odd.labels) == 0
        empty = aug.subset(np.arange(0))
        assert mirrored_half(empty.states, empty.actions, empty.labels) == 0


class TestEncode:
    def _vae(self):
        from depthnav.vae import SemanticVae, VaeConfig
        return SemanticVae(VaeConfig(height=6, width=8, latent_dim=3,
                                     enc_channels=(2, 2, 2, 2), hidden=8), seed=0)

    def test_encode_preserves_count_order_and_is_deterministic(self):
        ds = label_episode(_episode(12, collided_at=11), horizon=4)
        vae = self._vae()
        a = encode_dataset(ds, vae)
        b = encode_dataset(ds, vae)
        assert len(a) == len(ds)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.labels, ds.labels)
        # spot check: row i equals the single-frame encoding
        code = vae.encode(ds.frames.frame(5))
        assert np.allclose(a.mu[5], code.mu, atol=1e-6)

    def test_resolution_mismatch_rejected(self):
        ds = label_episode(_episode(4), horizon=2)
        from depthnav.vae import SemanticVae, VaeConfig
        wrong = SemanticVae(VaeConfig(height=12, width=16, latent_dim=3,
                                      enc_channels=(2, 2, 2, 2), hidden=8), seed=0)
        with pytest.raises(ShapeError):
            encode_dataset(ds, wrong)


class TestSplit:
    """The one train/validation split of a dataset's rows: nn.fit's."""

    def _split(self, n, ratio, seed):
        """(training rows, validation rows) that fit draws for n rows."""
        seen = {}

        def validate(model, va):
            seen["va"] = va
            return ()

        model = SimpleNamespace(zero_grad=lambda: None, params=dict, grads=dict)
        fit(lambda s: model, np.random.default_rng(seed), n, lambda m, idx: 0.0, validate,
            lambda epoch, loss: None, epochs=1, lr=1e-3, batch_size=n, split_ratio=ratio,
            tag="split", on_split=lambda tr: seen.setdefault("tr", tr))
        return seen["tr"], seen["va"]

    def test_eighty_twenty_of_one_hundred(self):
        train, val = self._split(100, 0.8, seed=1)
        assert len(train) == 80 and len(val) == 20

    def test_union_is_original_and_disjoint(self):
        train, val = self._split(50, 0.8, seed=2)
        # every row appears exactly once
        assert sorted(np.concatenate([train, val]).tolist()) == list(range(50))

    def test_same_seed_same_split(self):
        a1, _ = self._split(30, 0.7, seed=3)
        a2, _ = self._split(30, 0.7, seed=3)
        assert np.array_equal(a1, a2)

    def test_bad_ratio_rejected(self):
        with pytest.raises(TrainingError, match="split_ratio"):
            self._split(10, 1.2, seed=0)


class TestContainers:
    def test_frame_set_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = FrameSet(rng.random((7, 6, 8), dtype=np.float32),
                          (rng.random((7, 6, 8)) > 0.5).astype(np.uint8),
                          rng.integers(0, 4, (7, 6, 8)).astype(np.uint16))
        frames.x[frames.valid == 0] = 0
        frames.seg[frames.valid == 0] = 0
        path = tmp_path / "f.dset"
        save_dataset(path, frames)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.x, frames.x)
        assert np.array_equal(loaded.valid, frames.valid)
        assert np.array_equal(loaded.seg, frames.seg)
        path2 = tmp_path / "g.dset"
        save_dataset(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_collision_set_round_trip(self, tmp_path):
        ds = label_episode(_episode(10, collided_at=9), horizon=4)
        path = tmp_path / "c.dset"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert isinstance(loaded, CollisionSet)
        assert np.array_equal(loaded.frames.x, ds.frames.x)
        assert np.array_equal(loaded.states, ds.states)
        assert np.array_equal(loaded.actions, ds.actions)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_latent_set_round_trip_and_info(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = LatentCollisionSet(rng.random((9, 5)).astype(np.float32),
                                rng.random((9, 6)).astype(np.float32),
                                rng.random((9, 3, 4)).astype(np.float32),
                                (rng.random((9, 3)) > 0.5).astype(np.uint8))
        path = tmp_path / "z.dset"
        save_dataset(path, ds)
        info = dataset_info(path)
        assert info["kind"] == "colz" and info["count"] == 9
        assert info["latent_dim"] == 5 and info["horizon"] == 3
        loaded = load_dataset(path)
        assert np.array_equal(loaded.mu, ds.mu)

    def test_crc_corruption_detected(self, tmp_path):
        ds = label_episode(_episode(6, collided_at=5), horizon=3)
        path = tmp_path / "c.dset"
        save_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x5A
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="CRC"):
            load_dataset(path)

    def test_arrays_that_do_not_make_the_kind_rejected(self, tmp_path):
        from depthnav.container import save_arrays

        frames = {"x": np.zeros((2, 3, 4), np.float32), "valid": np.ones((2, 3, 4), np.uint8),
                  "seg": np.zeros((2, 3, 4), np.uint16)}
        meta = {"kind": "vaef", "height": 3, "width": 4, "latent_dim": 0, "horizon": 0,
                "count": 2}
        path = tmp_path / "f.dset"
        for arrays, count in [({"x": frames["x"], "valid": frames["valid"]}, 2),
                              ({**frames, "mu": np.zeros((2, 5), np.float32)}, 2),
                              (frames, 3)]:
            save_arrays(path, arrays, {**meta, "count": count})
            with pytest.raises(DatasetError, match="do not make a vaef dataset"):
                load_dataset(path)


class TestPgmImport:
    def _frames(self, n=5, quantized=True):
        rng = np.random.default_rng(3)
        q = rng.integers(1, 65534, size=(n, 6, 8)).astype(np.uint16)
        valid = (rng.random((n, 6, 8)) > 0.3).astype(np.uint8)
        q[valid == 0] = 0
        x = np.where(valid > 0, q.astype(np.float32) / 65534.0, 0.0).astype(np.float32)
        seg = rng.integers(0, 3, (n, 6, 8)).astype(np.uint16)
        seg[valid == 0] = 0
        return FrameSet(x, valid, seg)

    def test_export_import_round_trip_identical(self, tmp_path):
        frames = self._frames()
        export_frames(frames, tmp_path)
        back = import_depth_images(tmp_path)
        assert np.array_equal(back.x, frames.x)
        assert np.array_equal(back.valid, frames.valid)
        assert np.array_equal(back.seg, frames.seg)

    def test_missing_label_file_gives_zero_seg(self, tmp_path):
        frames = self._frames(2)
        export_frames(frames, tmp_path)
        for p in tmp_path.glob("*_seg.pgm"):
            p.unlink()
        back = import_depth_images(tmp_path)
        assert back.seg.sum() == 0

    def test_all_zero_depth_file_is_all_invalid(self, tmp_path):
        from depthnav.camera import write_pgm
        write_pgm(tmp_path / "0000.pgm", np.zeros((6, 8), np.uint16), 65535)
        back = import_depth_images(tmp_path)
        assert back.valid.sum() == 0

    def test_maxval_65535_depth_file_round_trips(self, tmp_path):
        from depthnav.camera import DEPTH_PGM_SCALE, write_pgm
        depth = np.array([[0, 1, 500, 32767], [65533, 65534, 65535, 2]], np.uint16)
        write_pgm(tmp_path / "0000.pgm", depth, 65535)
        back = import_depth_images(tmp_path)
        valid = (depth > 0) & (depth < 65535)
        assert np.array_equal(back.valid[0], valid.astype(np.uint8))
        assert np.array_equal(back.x[0], np.where(valid, depth.astype(np.float32) / DEPTH_PGM_SCALE,
                                                  0.0).astype(np.float32))

    @pytest.mark.parametrize("maxval", [1000, 65534, 255])
    def test_depth_file_of_another_maxval_rejected(self, tmp_path, maxval):
        # a maxval-1000 file of 500s (half range) imported as 3.8 cm at 5 m range
        from depthnav.camera import write_pgm
        write_pgm(tmp_path / "0000.pgm", np.full((6, 8), min(500, maxval), np.uint16), maxval)
        with pytest.raises(DatasetError, match=f"0000.pgm: .*maxval 65535, got maxval {maxval}"):
            import_depth_images(tmp_path)

    def test_mixed_resolutions_rejected_with_file_report(self, tmp_path):
        from depthnav.camera import write_pgm
        write_pgm(tmp_path / "0000.pgm", np.full((6, 8), 100, np.uint16), 65535)
        write_pgm(tmp_path / "0001.pgm", np.full((5, 8), 100, np.uint16), 65535)
        with pytest.raises(DatasetError, match="0001"):
            import_depth_images(tmp_path)


class TestPoseSampling:
    @staticmethod
    def _low_ceiling(env, seed):
        # a 0.5 m ceiling leaves no pose at the 0.7-1.6 m camera heights
        return dataclasses.replace(desk_world_params(env, seed=seed), ceiling=0.5)

    def test_world_without_free_pose_raises_promptly(self):
        from depthnav.pipeline import collect_collision_data, render_vae_corpus

        kw = dict(environments=("sparse",), worlds_per_env=1, world_params_fn=self._low_ceiling)
        t0 = time.perf_counter()
        with pytest.raises(DatasetError, match="no free pose"):
            render_vae_corpus(4, CameraModel(), NoiseParams(), seed=0, **kw)
        with pytest.raises(DatasetError, match="no free pose"):
            collect_collision_data(2, CameraModel(), seed=0, **kw)
        assert time.perf_counter() - t0 < 20.0


class TestWorldList:
    @pytest.mark.parametrize("kw", [dict(worlds_per_env=0), dict(environments=())])
    def test_empty_world_list_rejected_before_any_work(self, kw, monkeypatch):
        from depthnav import pipeline

        def never(*args, **kwargs):
            raise AssertionError("built a world for an empty world list")

        monkeypatch.setattr(pipeline, "generate_world", never)
        with pytest.raises(DatasetError, match="no worlds"):
            pipeline.render_vae_corpus(4, CameraModel(), NoiseParams(), seed=0,
                                       world_params_fn=never, **kw)
        with pytest.raises(DatasetError, match="no worlds"):
            pipeline.collect_collision_data(2, CameraModel(), seed=0,
                                            world_params_fn=never, **kw)
