"""Spans, output checks and op clocks around depthnav's public calls.

Everything here acts from outside the package: a wrapped function is
replaced in every depthnav module that bound it at import time (so
``from .camera import corrupt`` in another module is wrapped too), and a
wrapped method is replaced on its class.  The wrappers

- record a span (name, start, end, parent, group) when tracing is on,
- run the benchmark's output checks, timing them so that their cost can be
  taken out of every end-to-end number,
- call optional enter/leave hooks that workloads use as op clocks.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from depthnav import camera, cpn, data, evaluation, nn, pipeline, vae, world
from depthnav.errors import DepthNavError

OUTCOMES = ("success", "collision", "timeout")


def digest(*arrays) -> str:
    """sha256 over the arrays' bytes: equal digests mean bit-identical outputs."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 for a root
    group: str      # mission, round or epoch the span belongs to
    size: int = 0   # rows, frames or windows the call handled, where that matters
    checks: float = 0.0  # seconds of the benchmark's own checks inside the span

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.checks


class Recorder:
    """Holds spans in memory, counts check failures and keeps the first
    output of each kind for the determinism probe."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.group = ""
        self.check_s = 0.0
        self.failures: list[str] = []
        self.first: dict[str, str] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.group,
                               checks=-self.check_s))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        while self._stack:  # an exception may have skipped inner closes
            top = self._stack.pop()
            self.spans[top].end = now
            self.spans[top].checks += self.check_s
            if top == idx:
                return

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def close_last(self, name: str) -> None:
        """Close the innermost open span called `name`, if any."""
        for idx in reversed(self._stack):
            if self.spans[idx].name == name:
                self.close(idx)
                return

    def note_first(self, key: str, *arrays) -> None:
        if key not in self.first:
            self.first[key] = digest(*arrays)

    def check(self, fn, *args) -> None:
        t0 = time.perf_counter()
        try:
            fn(self, *args)
        except DepthNavError as exc:
            self.fail(f"{fn.__name__}: {exc}")
        self.check_s += time.perf_counter() - t0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_frame(rec: Recorder, key: str, frame) -> None:
    camera.check_frame_invariants(frame)
    rec.note_first(key, frame.x, frame.valid, frame.seg)


def check_scores(rec: Recorder, key: str, states, actions, scores) -> None:
    want = (len(states), len(actions), np.shape(actions)[1])
    if scores.shape != want:
        rec.fail(f"{key}: scores shape {scores.shape}, want {want}")
    elif not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
        rec.fail(f"{key}: scores not finite in [0, 1]")
    rec.note_first(key, scores)


def check_mission(rec: Recorder, result) -> None:
    if result.outcome not in OUTCOMES:
        rec.fail(f"mission outcome {result.outcome!r}")


def check_losses(rec: Recorder, stage: str, history) -> None:
    for stats in history:
        values = [v for k, v in vars(stats).items() if k != "epoch"]
        if not all(np.isfinite(values)):
            rec.fail(f"{stage}: non-finite loss at epoch {stats.epoch}")


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------

def _cpn_suffix(model) -> str:
    return "modular" if model.cfg.variant == cpn.MODULAR else "e2e"


def _wrap(rec, fn, name, size=None, after=None, enter=None, leave=None):
    """name is a span name or a callable(args) -> span name."""

    def wrapper(*args, **kwargs):
        if enter:
            enter(args)
        idx = rec.open(name(args) if callable(name) else name) if rec.trace else -1
        try:
            out = fn(*args, **kwargs)
        finally:
            if idx >= 0:
                rec.close(idx)
        if idx >= 0 and size:
            rec.spans[idx].size = size(args, out)
        if after:
            rec.check(after, args, out)
        if leave:
            leave(args, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Installs the wrappers and takes them out again."""

    def __init__(self):
        self._undo = []

    def function(self, fn, wrapper) -> None:
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "depthnav"]:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(rec: Recorder, hooks: dict | None = None) -> Patches:
    """Wrap every public call the per-layer metrics are taken from.

    hooks maps a span name to (enter, leave) callables that a workload uses
    as its op clock; enter gets the call's args, leave gets (args, output).
    """
    hooks = dict(hooks or {})

    def observe_enter(args):
        if rec.trace:
            rec.open("planner.cycle")

    def execute_leave(args, out):
        if rec.trace:
            rec.close_last("planner.cycle")

    def chain(*fns):
        fns = [fn for fn in fns if fn]

        def run(*args):
            for fn in fns:
                fn(*args)
        return run if fns else None

    for key, (enter, leave) in {"evaluation.observe": (observe_enter, None),
                                "evaluation.execute": (None, execute_leave)}.items():
        old_enter, old_leave = hooks.get(key, (None, None))
        hooks[key] = (chain(enter, old_enter), chain(old_leave, leave))

    p = Patches()

    def wrap(owner, attr, name, hook=None, **kw):
        """Wrap owner.attr (a module function or a class method) as span `name`."""
        fn = vars(owner)[attr]
        enter, leave = hooks.get(hook or name, (None, None))
        wrapper = _wrap(rec, fn, name, enter=enter, leave=leave, **kw)
        if isinstance(owner, type):
            p.method(owner, attr, wrapper)
        else:
            p.function(fn, wrapper)

    def frame_check(key):
        return lambda r, args, out: check_frame(r, key, out)

    def scores_check(key):
        return lambda r, args, out: check_scores(r, key(args[0]), args[2], args[3], out)

    def rows(args, out):
        return len(out)

    wrap(world, "generate_world", "world.generate_world")
    wrap(world, "step_with_collision", "world.step_with_collision")
    wrap(world, "rollout_episode", "world.rollout_episode")
    wrap(world, "rollout_collision_matrix", "world.rollout_collision_matrix")
    wrap(camera, "render", "camera.render", after=frame_check("render"))
    wrap(camera, "corrupt", "camera.corrupt", after=frame_check("corrupt"))
    wrap(vae.SemanticVae, "encode", "vae.encode")
    wrap(vae.SemanticVae, "encode_batch", "vae.encode_batch", size=lambda args, out: len(args[1]))
    wrap(vae.SemanticVae, "loss_and_grads", "vae.train_step")
    wrap(vae, "train_vae", "vae.train_vae")
    wrap(cpn.CollisionPredictor, "score_library",
         lambda args: f"cpn.score_library_{_cpn_suffix(args[0])}", hook="cpn.score_library",
         size=lambda args, out: out.shape[0] * out.shape[1],
         after=scores_check(lambda model: f"score.{_cpn_suffix(model)}"))
    wrap(cpn.CollisionPredictor, "loss_and_grads",
         lambda args: "cpn.train_step" if _cpn_suffix(args[0]) == "modular"
         else "cpn.e2e_train_step", hook="cpn.train_step")
    wrap(cpn, "train_cpn", "cpn.train_cpn")
    wrap(nn, "adam_step", "nn.adam_step")
    wrap(evaluation.SimVehicle, "observe", "evaluation.observe")
    wrap(evaluation.SimVehicle, "execute", "evaluation.execute")
    wrap(evaluation.GroundTruthPredictor, "score_library", "evaluation.ground_truth_scores",
         after=scores_check(lambda model: "score.oracle"))
    wrap(evaluation, "run_mission", "evaluation.run_mission")
    wrap(pipeline, "render_vae_corpus", "pipeline.render_vae_corpus")
    wrap(pipeline, "collect_collision_data", "pipeline.collect_collision_data")
    wrap(pipeline, "build_latent_dataset", "pipeline.build_latent_dataset")
    wrap(pipeline, "corrupt_frameset", "pipeline.corrupt_frameset", size=rows)
    wrap(data, "label_episode", "data.label_episode", size=rows)
    wrap(data, "encode_dataset", "data.encode_dataset")
    return p


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> tuple[np.ndarray, np.ndarray]:
    """(self time, summed direct-child time) per span, in seconds.

    Self time is the span's duration minus the part its direct children
    cover; children of one span run one after another, so their union is
    their sum.
    """
    child = np.zeros(len(spans))
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    dur = np.array([s.seconds for s in spans])
    return dur - child, child


def check_span_tree(rec: Recorder) -> None:
    """Every child lies inside its parent and siblings do not overlap."""
    last_end: dict[int, float] = {}
    for span in rec.spans:
        if span.parent < 0:
            continue
        parent = rec.spans[span.parent]
        if span.start < parent.start or span.end > parent.end:
            rec.fail(f"span {span.name} leaves its parent {parent.name}")
        if span.start < last_end.get(span.parent, -np.inf):
            rec.fail(f"span {span.name} overlaps a sibling inside {parent.name}")
        last_end[span.parent] = span.end


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    names = np.array([s.name for s in spans], dtype=object)
    dur = np.array([s.seconds for s in spans])
    size = np.array([s.size for s in spans], dtype=np.float64)
    parent_name = np.array([spans[s.parent].name if s.parent >= 0 else "" for s in spans],
                           dtype=object)
    own, child = self_times(spans)

    def pick(name):
        return names == name

    def mean_ms(name, values=dur):
        sel = pick(name)
        return 1000.0 * float(values[sel].mean()) if sel.any() else 0.0

    def per_item_ms(sel, per=1.0):
        return 1000.0 * per * float(dur[sel].sum() / size[sel].sum()) if sel.any() else 0.0

    batch = pick("vae.encode_batch") & (parent_name != "vae.encode")
    scores = pick("cpn.score_library_modular") | pick("cpn.score_library_e2e")
    episodes = pick("data.label_episode")
    return {
        "camera.render_ms": mean_ms("camera.render"),
        "camera.renders": float(pick("camera.render").sum()),
        "camera.corrupt_ms": mean_ms("camera.corrupt"),
        "world.generate_world_ms": mean_ms("world.generate_world"),
        "world.step_with_collision_ms": mean_ms("world.step_with_collision"),
        "world.rollout_episode_ms": mean_ms("world.rollout_episode"),
        "world.rollout_collision_matrix_ms": mean_ms("world.rollout_collision_matrix"),
        "evaluation.observe_ms": mean_ms("evaluation.observe"),
        "vae.encode_ms": mean_ms("vae.encode"),
        "vae.encode_batch_ms": per_item_ms(batch, per=64.0),
        "vae.train_step_ms": mean_ms("vae.train_step"),
        "cpn.score_library_modular_ms": mean_ms("cpn.score_library_modular"),
        "cpn.score_library_e2e_ms": mean_ms("cpn.score_library_e2e"),
        "cpn.score_rows": float(size[scores].mean()) if scores.any() else 0.0,
        "cpn.train_step_ms": mean_ms("cpn.train_step"),
        "cpn.e2e_train_step_ms": mean_ms("cpn.e2e_train_step"),
        "nn.adam_step_ms": mean_ms("nn.adam_step"),
        "planner.cycle_ms": mean_ms("planner.cycle"),
        "planner.children_ms": mean_ms("planner.cycle", child),
        "planner.self_ms": mean_ms("planner.cycle", own),
        "pipeline.corrupt_frameset_ms": per_item_ms(pick("pipeline.corrupt_frameset")),
        "data.label_episode_ms": mean_ms("data.label_episode"),
        "data.windows_per_episode": float(size[episodes].mean()) if episodes.any() else 0.0,
        "trace.spans": float(len(spans)),
    }
