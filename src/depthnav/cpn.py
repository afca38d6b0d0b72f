"""Collision prediction network.

Dense embeddings of the perception input (latent code, or raw depth through
a small conv stack in the end-to-end variant) and of the partial state
initialize a single gated recurrent cell; each step consumes one embedded
action and emits a collision logit through a dense head.  predict() returns
sigmoid scores in [0, 1].

One forward pass (CollisionPredictor._logits) serves training, validation
and library scoring, and GRUCell.forward is the only code of the gates.  By
row it runs B windows as B rows, and it keeps intermediates only for
training's backward pass.  In library form, score_library() scores S states
(the planner's sigma points) against M action sequences of T steps (the
motion-primitive library) without tiling them out to S*M*T rows: the
perception embedding runs once, the state embedding and h0 once per
distinct state, the action embedding and the GRU input projections x @ w
once per primitive step (M*T rows), the recurrence h @ u once per
distinct-state/sequence pair, and only the head and the sigmoid on every
state/sequence pair (the head's gemv rounds by row position).  Sigma points
of a covariance with zero-variance axes repeat the mean (7 distinct of 13
for evaluation.default_state_covariance), so the recurrence skips the
repeats.  A lone row that stands for several tiled rows goes through
nn.shared_rows, so each element sees the same float operations in the same
order as the by-row pass on the tiled rows: the scores are bit-identical to
it.

The end-to-end variant exists as the comparison baseline: its conv encoder
is trained jointly from collision labels only, with no reconstruction loss,
no semantic weighting, and clean simulated frames only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import mirrored_half
from .errors import Checked, ShapeError, TrainingError, within
from .nn import (
    Activation,
    Conv2d,
    Dense,
    GRUCell,
    Model,
    Reshape,
    Sequential,
    conv_out_hw,
    fit,
    shared_rows,
    sigmoid,
)

MODULAR = "modular"
END_TO_END = "end-to-end"
POS_WEIGHT_CAP = 10.0  # upper bound on the positive-class weight a split sets


@dataclass(frozen=True)
class CpnConfig(Checked, error=ShapeError, prefix="cpn"):
    variant: str = within(MODULAR, choices=(MODULAR, END_TO_END))
    latent_dim: int = within(32, lo=1, integer=True)         # J (modular input width)
    state_dim: int = within(6, lo=1, integer=True)
    action_dim: int = within(4, lo=1, integer=True)
    horizon: int = within(10, lo=1, integer=True)            # T
    hidden: int = within(64, lo=1, integer=True)
    perception_embed: int = within(64, lo=1, integer=True)
    state_embed: int = within(16, lo=1, integer=True)
    action_embed: int = within(16, lo=1, integer=True)
    image_hw: tuple[int, int] = within((60, 80), lo=1, integer=True, each=True)  # end-to-end input
    e2e_channels: tuple[int, ...] = within((4, 8, 16), lo=1, integer=True, each=True)
    lrelu_slope: float = within(0.1, lo=0, hi=1)


class CollisionPredictor(Model):
    """Scores action sequences; see score_library for the batched form."""

    kind = "cpn"
    config_type = CpnConfig

    def __init__(self, cfg: CpnConfig, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        sl = cfg.lrelu_slope
        if cfg.variant == MODULAR:
            self.perception = Sequential([
                Dense(cfg.latent_dim, cfg.perception_embed, rng=rng, name="pe", dtype=dtype),
                Activation("lrelu", sl, name="pea", dtype=dtype),
            ])
        else:
            layers, in_ch, hw = [], 1, cfg.image_hw
            for i, ch in enumerate(cfg.e2e_channels):
                layers.append(Conv2d(in_ch, ch, (3, 3), 2, rng=rng, name=f"pc{i}", dtype=dtype))
                layers.append(Activation("lrelu", sl, name=f"pc{i}a", dtype=dtype))
                hw = conv_out_hw(hw, (3, 3), 2, 1)
                in_ch = ch
            flat_dim = in_ch * hw[0] * hw[1]
            layers.append(Reshape((flat_dim,), name="pf", dtype=dtype))
            layers.append(Dense(flat_dim, cfg.perception_embed, rng=rng, name="pe", dtype=dtype))
            layers.append(Activation("lrelu", sl, name="pea", dtype=dtype))
            self.perception = Sequential(layers)
        self.state_emb = Sequential([
            Dense(cfg.state_dim, cfg.state_embed, rng=rng, name="se", dtype=dtype),
            Activation("lrelu", sl, name="sea", dtype=dtype),
        ])
        self.h0_net = Sequential([
            Dense(cfg.perception_embed + cfg.state_embed, cfg.hidden, rng=rng, name="h0", dtype=dtype),
            Activation("tanh", name="h0a", dtype=dtype),
        ])
        self.action_emb = Sequential([
            Dense(cfg.action_dim, cfg.action_embed, rng=rng, name="ae", dtype=dtype),
            Activation("lrelu", sl, name="aea", dtype=dtype),
        ])
        self.gru = GRUCell(cfg.action_embed, cfg.hidden, rng=rng, name="gru", dtype=dtype)
        self.head = Dense(cfg.hidden, 1, rng=rng, name="head", dtype=dtype)
        super().__init__(cfg, [*self.perception.layers, *self.state_emb.layers,
                               *self.h0_net.layers, *self.action_emb.layers,
                               self.gru, self.head])

    # -- forward/backward core ------------------------------------------------
    def _perception_input(self, perception):
        arr = np.asarray(perception, dtype=np.float32)
        if self.cfg.variant == MODULAR:
            if arr.ndim == 1:
                arr = arr[None]
            if arr.shape[-1] != self.cfg.latent_dim:
                raise ShapeError(f"latent width {arr.shape[-1]}, expected {self.cfg.latent_dim}")
        else:
            if arr.ndim == 2:
                arr = arr[None]
            if arr.shape[-2:] != tuple(self.cfg.image_hw):
                raise ShapeError(f"frame is {arr.shape[-2:]}, expected {tuple(self.cfg.image_hw)}")
            arr = arr[:, None]  # (N, 1, H, W)
        return arr

    def _logits(self, perception, states, actions, keep=False, library=False):
        """The one forward pass: collision logits of action sequences.

        By row (training, validation): B windows, perception (B, ...),
        states (B, 6), actions (B, T, 4) -> logits (B, T).  library: one
        perception input, S states and M sequences -> logits (S, M, T) of
        every state/sequence pair, sharing the work the module docstring
        lists.  keep caches the intermediates for _backward_logits; without
        it the pass leaves no cache behind.
        """
        cfg = self.cfg
        pe = self.perception.forward(self._perception_input(perception), keep=keep)
        n, t = actions.shape[:2]
        s = m = 1  # how many tiled rows one row stands for, per state and per sequence
        if library:
            if pe.shape[0] != 1:
                raise ShapeError("score_library expects a single perception input")
            # the U distinct states, compared by their bits; state i is states[inverse[i]]
            s, m = len(states), n
            bits, inverse = np.unique(states.view(np.uint32), axis=0, return_inverse=True)
            states = bits.view(np.float32)
            pe = np.repeat(pe, len(states), axis=0)
        se = shared_rows(partial(self.state_emb.forward, keep=keep), states, s)
        h = shared_rows(partial(self.h0_net.forward, keep=keep), np.concatenate([pe, se], axis=1),
                        s * m)
        ae = shared_rows(partial(self.action_emb.forward, keep=keep),
                         np.ascontiguousarray(actions.reshape(n * t, cfg.action_dim),
                                              dtype=pe.dtype), s * m * t).reshape(n, t, -1)
        if library:
            h = h[:, None]  # (U, 1, H) until step 0 splits it over the M sequences
        if keep:
            self.gru.reset()
        hs = np.empty((*h.shape[:-2], n, t, cfg.hidden), dtype=pe.dtype)  # (B | U, M), T, H
        for i in range(t):
            h = hs[..., i, :] = self.gru.forward(ae[:, i], h, keep=keep, tiled=s * m)
        if library:
            # back to the tiled (S, M, T, H) layout: the head's (N, H) @ (H, 1)
            # product goes through gemv, whose rounding depends on a row's position
            hs = hs[inverse]
        return self.head.forward(hs.reshape(-1, cfg.hidden), keep).reshape(hs.shape[:-1])

    def _backward_logits(self, dlogits):
        b, t = dlogits.shape
        dhs = self.head.backward(dlogits.reshape(b * t, 1)).reshape(b, t, self.cfg.hidden)
        carry = np.zeros((b, self.cfg.hidden), dtype=dlogits.dtype)
        dae = np.empty((b, t, self.cfg.action_embed), dtype=dlogits.dtype)
        for i in range(t - 1, -1, -1):
            dae[:, i], carry = self.gru.backward(dhs[:, i] + carry)
        self.action_emb.backward(dae.reshape(b * t, self.cfg.action_embed), input_grad=False)
        dh0 = self.h0_net.backward(carry)
        dpe = dh0[:, : self.cfg.perception_embed]
        dse = dh0[:, self.cfg.perception_embed :]
        self.state_emb.backward(dse, input_grad=False)
        self.perception.backward(dpe, input_grad=False)

    # -- inference --------------------------------------------------------------
    def predict(self, perception, state, actions) -> np.ndarray:
        """Score one action sequence; returns (T,) collision scores in [0, 1]."""
        scores = self.score_library(perception, np.asarray(state, np.float32)[None],
                                    np.asarray(actions, np.float32)[None])
        return scores[0, 0]

    def score_library(self, perception, states, actions) -> np.ndarray:
        """states: (S, 6), actions: (M, T, 4) -> scores (S, M, T).

        The library form of the one forward pass (_logits): bit-identical
        to scoring the S*M tiled rows by row, as training does.  Distinct
        states are compared byte for byte (+0.0 and -0.0 differ).  Nothing
        is cached for a backward pass.
        """
        states = np.ascontiguousarray(states, dtype=np.float32)
        actions = np.asarray(actions, dtype=np.float32)
        if states.ndim != 2 or states.shape[1] != self.cfg.state_dim:
            raise ShapeError(f"states must be (S, {self.cfg.state_dim}), got {states.shape}")
        if actions.ndim != 3 or actions.shape[2] != self.cfg.action_dim:
            raise ShapeError(f"actions must be (M, T, {self.cfg.action_dim}), got {actions.shape}")
        if not (len(states) and actions.shape[0] and actions.shape[1]):
            raise ShapeError(f"S, M and T must be >= 1, got states {states.shape}, "
                             f"actions {actions.shape}")
        scores = sigmoid(self._logits(perception, states, actions, library=True))
        if not np.all(np.isfinite(scores)):
            raise TrainingError("collision scores non-finite")
        return scores

    # -- training ------------------------------------------------------------
    def loss_and_grads(self, perception_batch, states, actions, labels, pos_weight=1.0,
                       mirrored=False):
        """Weighted per-step binary cross-entropy on logits; returns the
        scalar loss, gradients accumulate in the layers.

        mirrored: row i + B/2 of the batch mirrors row i.  The loss then adds,
        per step of each pair and with the step's class weight, the
        symmetric KL divergence between the pair's predictions,
        (p_a - p_b) * (logit_a - logit_b), so mirrored inputs learn to agree.
        """
        logits = self._logits(perception_batch, states, actions, keep=True)
        y = labels.astype(logits.dtype)
        w = np.where(y > 0, pos_weight, 1.0).astype(logits.dtype)
        # stable bce-with-logits
        bce = np.maximum(logits, 0) - logits * y + np.log1p(np.exp(-np.abs(logits)))
        denom = float(logits.size)
        loss = float(np.sum(w * bce) / denom)
        p = sigmoid(logits)
        dlogits = w * (p - y) / denom
        if mirrored:
            b = len(logits) // 2
            wa, dp, dl = w[:b], p[:b] - p[b:], logits[:b] - logits[b:]
            loss += float(np.sum(wa * dp * dl)) / denom
            dlogits[:b] += wa * (dp + p[:b] * (1 - p[:b]) * dl) / denom
            dlogits[b:] -= wa * (dp + p[b:] * (1 - p[b:]) * dl) / denom
        self._backward_logits(dlogits.astype(logits.dtype))
        return loss


# ---------------------------------------------------------------------------
# Metrics and training loop
# ---------------------------------------------------------------------------

def binary_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC (Mann-Whitney U) with average ranks for ties."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel() > 0
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class CpnEpochStats:
    epoch: int
    train_bce: float
    val_bce: float
    val_auc: float
    val_acc: float


def _dataset_views(ds, variant):
    """(perception_array, states, actions, labels) for either dataset kind."""
    if variant == MODULAR:
        if not hasattr(ds, "mu"):
            raise TrainingError("modular training needs a latent dataset (d')")
        return ds.mu, ds.states, ds.actions, ds.labels
    if not hasattr(ds, "frames"):
        raise TrainingError("end-to-end training needs a raw-frame dataset (d)")
    return ds.frames.x, ds.states, ds.actions, ds.labels


def train_cpn(ds, cfg: CpnConfig, seed: int, epochs: int = 30, lr: float = 1e-3,
              batch_size: int = 128, split_ratio: float = 0.8,
              out_dir=None, log_every: int = 0) -> tuple[CollisionPredictor, list[CpnEpochStats]]:
    """Train a predictor on d' (modular) or d (end-to-end) datapoints.

    A flip-augmented set (data.mirrored_half) is split and batched by mirror
    pair, batch_size rows to a batch, and trained with the pair term of
    loss_and_grads; its train_bce column then includes that term.
    """
    perception, states, actions, labels = _dataset_views(ds, cfg.variant)
    if actions.shape[1] != cfg.horizon:
        raise ShapeError(f"dataset horizon {actions.shape[1]} != config horizon {cfg.horizon}")
    states_f = states.astype(np.float32)
    actions_f = actions.astype(np.float32)
    meta = {"seed": seed, "epochs": epochs, "lr": lr}
    half = mirrored_half(states_f, actions_f, labels)

    def rows(units):  # on a mirrored set fit draws pairs: pair i is rows i and i + half
        return np.concatenate([units, units + half]) if half else units

    def weigh_positives(tr):  # the training split's class balance sets pos_weight
        y_train = labels[rows(tr)]
        n_pos = max(1, int((y_train > 0).sum()))
        meta["pos_weight"] = float(min(POS_WEIGHT_CAP, max(1.0, (y_train.size - n_pos) / n_pos)))

    def batch_loss(model, idx):
        idx = rows(idx)
        return model.loss_and_grads(perception[idx], states_f[idx], actions_f[idx], labels[idx],
                                    meta["pos_weight"], mirrored=bool(half))

    def validate(model, va):
        va = rows(va)
        bce_sum, count = 0.0, 0
        scores_all, labels_all = [], []
        for lo in range(0, len(va), batch_size):
            idx = va[lo : lo + batch_size]
            logits = model._logits(perception[idx], states_f[idx], actions_f[idx])
            y = labels[idx].astype(np.float64)
            l64 = logits.astype(np.float64)
            bce = np.maximum(l64, 0) - l64 * y + np.log1p(np.exp(-np.abs(l64)))
            bce_sum += float(bce.sum())
            count += logits.size
            scores_all.append(sigmoid(l64))
            labels_all.append(y)
        scores = np.concatenate([s.ravel() for s in scores_all])
        ys = np.concatenate([s.ravel() for s in labels_all])
        acc = float(((scores >= 0.5) == (ys > 0)).mean())
        return bce_sum / count, binary_auc(scores, ys), acc

    stem = "cpn_modular" if cfg.variant == MODULAR else "cpn_end_to_end"
    return fit(lambda s: CollisionPredictor(cfg, seed=s), np.random.default_rng(seed),
               half or len(states), batch_loss, validate, CpnEpochStats, epochs=epochs, lr=lr,
               batch_size=max(1, batch_size // 2) if half else batch_size,
               split_ratio=split_ratio, tag=f"cpn:{cfg.variant}",
               out_dir=out_dir, stem=stem, csv_name=f"{stem}_metrics.csv", meta=meta,
               log_every=log_every, on_split=weigh_positives)
