"""Dataset construction and persistence.

Datasets are files of the package's one container (see container.py), of
three kinds:

  vaef  depth-frame sets, arrays x, valid, seg, for autoencoder training
  cold  collision datapoints: x, valid, seg, states, actions, labels
  colz  latent collision datapoints: mu (instead of the frame), states,
        actions, labels

The meta block holds the kind, the dims height, width, latent_dim and
horizon (zero when unused) and the count.  Round-trips are bit-exact.

Collision labels are monotone within a window: once a window step collides,
every later step stays 1.  Windows that extend past a collision ending
continue with the episode's last action held, labels pinned to 1.

A flip-augmented collision set keeps its mirror copies in its second half,
row i + n mirroring row i; mirrored_half() recognises that layout from the
states, actions and labels, so it survives encoding and the container.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import DepthFrame, depth_pgm_to_frame, frame_to_depth_pgm, read_pgm, write_pgm
from .container import load_arrays, read_meta, save_arrays
from .errors import DatasetError, ShapeError
from .world import CollisionEpisode, PARTIAL_STATE_DIM


# ---------------------------------------------------------------------------
# In-memory sets
# ---------------------------------------------------------------------------

@dataclass
class FrameSet:
    x: np.ndarray      # (N, H, W) float32
    valid: np.ndarray  # (N, H, W) uint8
    seg: np.ndarray    # (N, H, W) uint16

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float32)
        self.valid = np.asarray(self.valid, dtype=np.uint8)
        self.seg = np.asarray(self.seg, dtype=np.uint16)

    def __len__(self):
        return self.x.shape[0]

    def frame(self, i: int) -> DepthFrame:
        return DepthFrame(self.x[i], self.valid[i], self.seg[i])

    def subset(self, idx) -> "FrameSet":
        return FrameSet(self.x[idx], self.valid[idx], self.seg[idx])

    @classmethod
    def from_frames(cls, frames) -> "FrameSet":
        return cls(np.stack([f.x for f in frames]),
                   np.stack([f.valid for f in frames]),
                   np.stack([f.seg for f in frames]))

    @classmethod
    def concat(cls, sets) -> "FrameSet":
        return cls(np.concatenate([s.x for s in sets]),
                   np.concatenate([s.valid for s in sets]),
                   np.concatenate([s.seg for s in sets]))


@dataclass
class CollisionSet:
    """Datapoints d: (frame, partial state, T-step action window, T labels)."""

    frames: FrameSet
    states: np.ndarray   # (N, 6) float32
    actions: np.ndarray  # (N, T, 4) float32
    labels: np.ndarray   # (N, T) uint8

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float32).reshape(-1, PARTIAL_STATE_DIM)
        self.actions = np.asarray(self.actions, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.uint8)

    def __len__(self):
        return len(self.states)

    @property
    def horizon(self) -> int:
        return self.actions.shape[1]

    def subset(self, idx) -> "CollisionSet":
        """The rows idx.  A subset of a flip-augmented set loses its mirror
        layout (mirrored_half gives 0), so train_cpn trains it without the
        pair term."""
        return CollisionSet(self.frames.subset(idx), self.states[idx],
                            self.actions[idx], self.labels[idx])

    @classmethod
    def concat(cls, sets) -> "CollisionSet":
        """The sets' rows in order.  Only [ds, its mirror copy] has the mirror
        layout (with_flip_augmentation); concatenating flip-augmented sets
        loses it (mirrored_half gives 0), so train_cpn trains the result
        without the pair term."""
        return cls(FrameSet.concat([s.frames for s in sets]),
                   np.concatenate([s.states for s in sets]),
                   np.concatenate([s.actions for s in sets]),
                   np.concatenate([s.labels for s in sets]))


@dataclass
class LatentCollisionSet:
    """Datapoints d': (mu, partial state, action window, labels)."""

    mu: np.ndarray       # (N, J) float32
    states: np.ndarray
    actions: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float32)
        self.states = np.asarray(self.states, dtype=np.float32).reshape(-1, PARTIAL_STATE_DIM)
        self.actions = np.asarray(self.actions, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.uint8)

    def __len__(self):
        return len(self.states)

    @property
    def horizon(self) -> int:
        return self.actions.shape[1]


# ---------------------------------------------------------------------------
# Episode labeling and augmentation
# ---------------------------------------------------------------------------

def label_episode(episode: CollisionEpisode, horizon: int) -> CollisionSet:
    """Sliding-window datapoints: label i is 1 iff a collision happened at or
    before the i-th step after the window start.

    Collision-ended episodes emit a window at every step (the last action,
    held, extends windows past the end, so a window continues the sequence
    being flown; labels stay 1); timeout episodes only emit full in-range
    windows, all labeled 0.
    """
    length = len(episode)
    if length < 1:
        raise DatasetError("episode shorter than 1 step")
    # steps past the end: the last action held, the collision flag held
    actions = np.concatenate([episode.actions, np.tile(episode.actions[-1], (horizon, 1))])
    collided = np.concatenate([np.cumsum(episode.collided) > 0, np.ones(horizon, bool)])
    n = length if episode.ended_in_collision else max(length - horizon + 1, 0)
    steps = np.arange(n)[:, None] + np.arange(horizon)  # window i covers steps i .. i+T-1
    return CollisionSet(FrameSet.from_frames(episode.frames).subset(slice(n)),
                        episode.states[:n], actions[steps], collided[steps])


def _mirror(states, actions):
    """Mirrored copies of (..., 6) states and (..., T, 4) actions."""
    states, actions = states.copy(), actions.copy()
    states[..., [1, 3, 4]] *= -1.0   # v_y, yaw rate, roll
    actions[..., [1, 3]] *= -1.0     # lateral reference, steering
    return states, actions


def flip_augment_set(ds: CollisionSet) -> CollisionSet:
    """Mirror every datapoint left-right: images flipped, lateral velocity,
    yaw rate, roll, lateral references and steering negated; labels
    unchanged."""
    frames = FrameSet(np.ascontiguousarray(ds.frames.x[:, :, ::-1]),
                      np.ascontiguousarray(ds.frames.valid[:, :, ::-1]),
                      np.ascontiguousarray(ds.frames.seg[:, :, ::-1]))
    return CollisionSet(frames, *_mirror(ds.states, ds.actions), ds.labels.copy())


def with_flip_augmentation(ds: CollisionSet) -> CollisionSet:
    """The set followed by its mirror copy: row i + len(ds) mirrors row i."""
    return CollisionSet.concat([ds, flip_augment_set(ds)])


def mirrored_half(states, actions, labels) -> int:
    """n if rows n..2n-1 mirror rows 0..n-1 exactly (the layout
    with_flip_augmentation builds), else 0."""
    n, odd = divmod(len(states), 2)
    if odd or n == 0 or not np.array_equal(labels[:n], labels[n:]):
        return 0
    states_m, actions_m = _mirror(states[:n], actions[:n])
    paired = np.array_equal(states_m, states[n:]) and np.array_equal(actions_m, actions[n:])
    return n if paired else 0


def encode_dataset(ds: CollisionSet, vae, batch_size: int = 64) -> LatentCollisionSet:
    """Replace every frame by its posterior mean under a frozen autoencoder."""
    if ds.frames.x.shape[1:] != (vae.cfg.height, vae.cfg.width):
        raise ShapeError(
            f"dataset frames are {ds.frames.x.shape[1:]}, encoder wants "
            f"{(vae.cfg.height, vae.cfg.width)}"
        )
    chunks = []
    for lo in range(0, len(ds), batch_size):
        mu, _ = vae.encode_batch(ds.frames.x[lo : lo + batch_size])
        chunks.append(mu)
    mu = np.concatenate(chunks) if chunks else np.zeros((0, vae.cfg.latent_dim), np.float32)
    return LatentCollisionSet(mu, ds.states.copy(), ds.actions.copy(), ds.labels.copy())


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

# the arrays of each dataset kind, in file order
_FRAME_ARRAYS = ("x", "valid", "seg")
_KIND_ARRAYS = {
    "vaef": _FRAME_ARRAYS,
    "cold": (*_FRAME_ARRAYS, "states", "actions", "labels"),
    "colz": ("mu", "states", "actions", "labels"),
}


def save_dataset(path, ds) -> None:
    if isinstance(ds, FrameSet):
        kind, frames, latent_dim, horizon = "vaef", ds, 0, 0
    elif isinstance(ds, CollisionSet):
        kind, frames, latent_dim, horizon = "cold", ds.frames, 0, ds.horizon
    elif isinstance(ds, LatentCollisionSet):
        kind, frames, latent_dim, horizon = "colz", None, ds.mu.shape[1], ds.horizon
    else:
        raise DatasetError(f"cannot serialize {type(ds).__name__}")
    height, width = frames.x.shape[1:] if frames is not None else (0, 0)
    arrays = {name: getattr(frames if name in _FRAME_ARRAYS else ds, name)
              for name in _KIND_ARRAYS[kind]}
    save_arrays(path, arrays, {"kind": kind, "height": height, "width": width,
                               "latent_dim": latent_dim, "horizon": horizon, "count": len(ds)})


def _dataset_kind(path, meta) -> str:
    if meta.get("kind") not in _KIND_ARRAYS:
        raise DatasetError(f"{path}: a {meta.get('kind')!r} file, not a dataset")
    return meta["kind"]


def dataset_info(path) -> dict:
    """The meta block (kind, dims, count), read without the payload."""
    meta = read_meta(path, DatasetError)
    _dataset_kind(path, meta)
    return meta


def load_dataset(path):
    meta, arrays = load_arrays(path, DatasetError)
    names = _KIND_ARRAYS[_dataset_kind(path, meta)]
    if tuple(arrays) != names or any(a.shape[:1] != (meta.get("count"),)
                                     for a in arrays.values()):
        raise DatasetError(f"{path}: arrays {list(arrays)} do not make a {meta['kind']} "
                           f"dataset of {meta.get('count')} rows")
    a = list(arrays.values())
    if meta["kind"] == "vaef":
        return FrameSet(*a)
    if meta["kind"] == "cold":
        return CollisionSet(FrameSet(*a[:3]), *a[3:])
    return LatentCollisionSet(*a)


# ---------------------------------------------------------------------------
# PGM directory import/export
# ---------------------------------------------------------------------------

def export_frames(frames: FrameSet, directory) -> None:
    """Write NNNN.pgm (16-bit depth), NNNN_val.pgm (8-bit), NNNN_seg.pgm
    (16-bit instance IDs) per frame.  Depth is quantized to the 16-bit grid."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(len(frames)):
        f = frames.frame(i)
        write_pgm(directory / f"{i:04d}.pgm", frame_to_depth_pgm(f), 65535)
        write_pgm(directory / f"{i:04d}_val.pgm", f.valid * 255, 255)
        write_pgm(directory / f"{i:04d}_seg.pgm", f.seg, 65535)


def import_depth_images(directory) -> FrameSet:
    """Build a frame set from 16-bit depth PGMs plus optional *_seg.pgm labels.

    Validity is inferred from zero/saturated depth values; label values map
    directly to instance IDs.  Mixed resolutions and depth files whose
    maxval is not 65535 are rejected with DatasetError.
    """
    directory = Path(directory)
    depth_files = sorted(p for p in directory.glob("*.pgm")
                         if not p.stem.endswith(("_val", "_seg")))
    if not depth_files:
        raise DatasetError(f"{directory}: no depth PGM files found")
    frames, shape, bad = [], None, []
    for path in depth_files:
        depth, maxval = read_pgm(path)
        if maxval != 65535:
            # valid depths sit on the 1..DEPTH_PGM_SCALE grid of a 16-bit
            # file; another maxval would import every depth at the wrong scale
            raise DatasetError(f"{path}: depth PGMs must be 16-bit with maxval 65535, "
                               f"got maxval {maxval}")
        seg_path = path.with_name(path.stem + "_seg.pgm")
        seg = read_pgm(seg_path)[0].astype(np.uint16) if seg_path.exists() else None
        if shape is None:
            shape = depth.shape
        if depth.shape != shape or (seg is not None and seg.shape != shape):
            bad.append(path.name)
            continue
        frames.append(depth_pgm_to_frame(depth.astype(np.uint16), seg))
    if bad:
        raise DatasetError(f"{directory}: mixed resolutions in {bad}")
    return FrameSet.from_frames(frames)
