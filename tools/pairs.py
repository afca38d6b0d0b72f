"""Compare a parent commit with the working tree on one benchmark workload.

    python3 tools/pairs.py PARENT_REF --workload collect --seed 202 --pairs 10

Run from a depthnav checkout.  Each side runs its own copy of the benchmark,
so the script refuses to run (exit status 1) when BENCHMARK.json or
perfbench/ differ between the parent and the working tree, untracked files
included.  The parent is checked out into a temporary `git worktree`, and
`perfbench/run.py` runs alternately there and in the working tree, N pairs
of runs as long as BENCHMARK.json's run_seconds, with the side that runs
first alternating from pair to pair.  Each run is printed as it ends.
Then, for every end-to-end metric in BENCHMARK.json, the script prints each
side's median and quartiles, how many pairs the change won (ties count for
neither side), and a verdict:

- "gain": the change won at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
- "worse": the change's median is worse than the parent's by more than the
  metric's bound;
- "unresolved": neither, and the parent's own spread (IQR / median) exceeds
  the bound, so a worsening of that size could not be seen, unless every
  run of the change reads better than every run of the parent;
- "within bound": neither, on a metric steady enough to tell.

The worktree is removed when the script ends.  The exit status is 1 if any
run failed or reported incorrect output, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git ref of the parent commit")
    ap.add_argument("--workload", required=True, choices=("fly", "collect", "train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        ap.error("--pairs must be >= 1 and --seed >= 0")
    return args


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:] or ["no output"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"correct": False, "error": [lines[-1]]}


def quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def verdict(parent, change, better: str, bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric's paired values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        return wins, "gain"
    if -gain > bound * abs(pm):
        return wins, "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p3 - p1 > bound * abs(pm) and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def check_same_benchmark(parent: str) -> None:
    """Exit with a one-line error unless BENCHMARK.json and perfbench/ are
    the same at `parent` and in the working tree, which has no untracked
    file there either (the parent's checkout would lack it)."""
    paths = ["--", "BENCHMARK.json", "perfbench"]
    diff = subprocess.run(["git", "diff", "--quiet", parent, *paths],
                          cwd=ROOT, capture_output=True, text=True)
    if diff.returncode not in (0, 1):
        sys.exit(f"error: git diff {parent} failed: {' '.join(diff.stderr.split())}")
    untracked = subprocess.run(["git", "ls-files", "--others", "--exclude-standard", *paths],
                               cwd=ROOT, capture_output=True, text=True).stdout
    if diff.returncode == 1 or untracked:
        sys.exit(f"error: BENCHMARK.json or perfbench/ differ between {parent} and the "
                 f"working tree; each side would run its own benchmark")


def main(argv=None) -> int:
    args = parse_args(argv)
    check_same_benchmark(args.parent)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="depthnav-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        add = subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), args.parent],
                             cwd=ROOT, capture_output=True, text=True)
        if add.returncode != 0:
            sys.exit(f"error: git worktree add {args.parent} failed: {add.stderr.strip()}")
        try:
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    out = run_once(parent_tree if side == "parent" else ROOT, args.workload,
                                   args.seed, seconds)
                    runs[side].append(out)
                    values = {k: v["value"] for k, v in out.get("metrics", {}).items()}
                    print(f"pair {i} {side}: correct={out.get('correct')} "
                          + (" ".join(f"{k}={v:.6g}" for k, v in values.items())
                             or f"error={out.get('error')}"), flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)],
                           cwd=ROOT, capture_output=True)

    failed = sum(not out.get("correct") for side in runs.values() for out in side)
    complete = [i for i in range(args.pairs)
                if all(runs[side][i].get("correct") for side in runs)]
    print(f"\n{args.workload} seed={args.seed} {seconds:g} s runs, parent {args.parent}: "
          f"{len(complete)} of {args.pairs} pairs complete, {failed} runs failed")
    if not complete:
        return 1
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [runs["parent"][i]["metrics"][name]["value"] for i in complete]
        change = [runs["change"][i]["metrics"][name]["value"] for i in complete]
        wins, word = verdict(parent, change, metric["better"], metric["bound"])
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}], change {cm:.4g} [{c1:.4g}, {c3:.4g}], "
              f"{100.0 * (cm - pm) / pm:+.1f}%, won {wins} of {len(complete)}: {word}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
