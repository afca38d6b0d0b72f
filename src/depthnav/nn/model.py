"""Model base and the minibatch-Adam fit loop shared by every trained model.

A Model keeps its layers in one ordered list.  Parameters, gradients and
checkpoint arrays are named '<layer.name>.<key>' in that order, so Adam,
the gradient checker and the checkpoint all see the same arrays in the
same order.  A checkpoint is a file of the package's one container (see
container.py) whose meta block holds the model kind and its config.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from ..container import load_arrays, save_arrays
from ..errors import CheckpointError, DepthNavError, TrainingError
from .adam import AdamState, adam_step


class Model:
    """Ordered layers -> named parameters, gradients and checkpoints.

    Subclasses set `kind` (the checkpoint kind) and `config_type`, and
    pass their configuration and layers to Model.__init__.
    """

    kind: str           # checkpoint kind
    config_type: type   # the config dataclass load() rebuilds

    def __init__(self, cfg, layers):
        self.cfg = cfg
        self._layers = list(layers)

    def layers(self) -> list:
        return self._layers

    def params(self) -> dict[str, np.ndarray]:
        return {f"{layer.name}.{key}": value
                for layer in self._layers for key, value in layer.params.items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {f"{layer.name}.{key}": value
                for layer in self._layers for key, value in layer.grads.items()}

    def zero_grad(self) -> None:
        for layer in self._layers:
            layer.zero_grad()

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {"kind": self.kind, "config": asdict(self.cfg), **(extra_meta or {})}
        save_arrays(path, self.params(), meta)

    @classmethod
    def load(cls, path):
        """Rebuild the model from its stored config and copy every parameter
        in; CheckpointError for another kind, a config this code does not
        know (or whose values lie outside their ranges), a missing parameter
        or a shape mismatch."""
        meta, arrays = load_arrays(path, CheckpointError)
        if meta.get("kind") != cls.kind:
            raise CheckpointError(f"{path}: a {meta.get('kind')!r} checkpoint, "
                                  f"not {cls.kind!r}")
        try:
            raw = {k: tuple(v) if isinstance(v, list) else v for k, v in meta["config"].items()}
            model = cls(cls.config_type(**raw), seed=0)
        except (KeyError, AttributeError, TypeError, DepthNavError) as exc:
            raise CheckpointError(f"{path}: config does not fit: {exc}") from exc
        for name, arr in model.params().items():
            if name not in arrays:
                raise CheckpointError(f"{path}: missing parameter {name!r}")
            if arrays[name].shape != arr.shape:
                raise CheckpointError(f"{path}: shape mismatch for {name!r}")
            arr[...] = arrays[name]
        return model


def _write_stats(path, history) -> None:
    """One CSV row per epoch: the epoch, then every other stats field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(history[0])])
        for stats in history:
            epoch, *values = astuple(stats)
            writer.writerow([epoch, *(f"{v:.9g}" for v in values)])


def fit(build, rng, n: int, batch_loss, validate, stats_type, *, epochs: int, lr: float,
        batch_size: int, split_ratio: float, tag: str, out_dir=None, stem: str = "",
        csv_name: str = "", meta: dict | None = None, log_every: int = 0, on_split=None):
    """Minibatch Adam over n rows, split into training and validation rows.

    build(seed) makes the model from a seed drawn from rng.  batch_loss(
    model, idx) runs one forward/backward pass over the rows idx and returns
    the scalar loss; validate(model, va) returns the validation fields of
    stats_type, which is built as stats_type(epoch, mean train loss,
    *validate(model, va)).  on_split(tr), if given, sees the training rows
    before the first epoch.  With out_dir, the model goes to '<stem>.ckpt'
    (meta added to its meta block) and the per-epoch stats to csv_name.
    rng draws, in order: the model seed, the split, then one permutation per
    epoch (batch_loss may draw more).  Returns (model, history).
    """
    if n == 0:
        raise TrainingError("empty dataset")
    if batch_size < 1 or epochs < 1:
        raise TrainingError(f"need batch_size >= 1 and epochs >= 1, "
                            f"got {batch_size} and {epochs}")
    if not 0.0 < split_ratio <= 1.0:
        raise TrainingError(f"split_ratio must lie in (0, 1], got {split_ratio}")
    if not 0.0 < lr < np.inf:  # also false for NaN
        raise TrainingError(f"lr must be finite and > 0, got {lr}")
    model = build(int(rng.integers(2**31)))
    order = rng.permutation(n)
    n_train = max(1, int(round(split_ratio * n)))
    tr, va = order[:n_train], order[n_train:]
    if len(va) == 0:
        va = tr[:1]
    if on_split:
        on_split(tr)

    state = AdamState(lr=lr)
    history = []
    for epoch in range(1, epochs + 1):
        perm = rng.permutation(len(tr))
        loss_sum, batches = 0.0, 0
        for lo in range(0, len(tr), batch_size):
            model.zero_grad()
            loss = batch_loss(model, tr[perm[lo : lo + batch_size]])
            if not np.isfinite(loss):
                raise TrainingError(f"training diverged (non-finite loss at epoch {epoch})")
            adam_step(model.params(), model.grads(), state)
            loss_sum += loss
            batches += 1
        stats = stats_type(epoch, loss_sum / batches, *validate(model, va))
        history.append(stats)
        if log_every and epoch % log_every == 0:
            print(f"[{tag}] epoch {epoch:3d}  " + "  ".join(
                f"{f.name} {getattr(stats, f.name):.6g}" for f in fields(stats)[1:]))

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        model.save(out_dir / f"{stem}.ckpt", extra_meta=meta)
        _write_stats(out_dir / csv_name, history)
    return model, history
