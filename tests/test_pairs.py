"""The paired-run verdict of tools/pairs.py."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]  # IQR 1.0


@pytest.mark.parametrize("change,better,expected", [
    # 9 of 10 pairs won and the median moved 3 > IQR: a gain, either direction
    ([103, 104, 102, 103, 105, 101, 103, 104, 102, 99], "higher", (9, "gain")),
    ([97, 98, 96, 97, 99, 95, 97, 98, 96, 101], "lower", (9, "gain")),
    # 8 of 10 won: not a gain, and well inside a 25% bound
    ([103, 104, 102, 103, 105, 101, 103, 104, 99, 99], "higher", (8, "within bound")),
    # every pair won, but by less than the parent's IQR
    ([100.5, 101.5, 99.5, 100.5, 102.5, 98.5, 100.5, 101.5, 99.5, 100.5], "higher",
     (10, "within bound")),
    # 30% worse than the parent's median
    ([70.0] * 10, "higher", (0, "worse")),
    ([130.0] * 10, "lower", (0, "worse")),
    # ties count for neither side
    (PARENT, "higher", (0, "within bound")),
])
def test_verdict(change, better, expected):
    assert pairs.verdict(PARENT, [float(c) for c in change], better, 0.25) == expected


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [60.0, 100.0, 140.0, 80.0, 120.0]  # IQR 40, 40% of the median
    assert pairs.verdict(parent, [95.0, 100.0, 130.0, 85.0, 110.0], "higher", 0.25) \
        == (2, "unresolved")
    # unless every run of the change reads better than every run of the parent
    assert pairs.verdict([0.5, 1.0, 100.0, 100.0, 101.0], [102.0] * 5, "higher", 0.25) \
        == (5, "within bound")
    assert pairs.verdict(parent, [141.0, 150.0, 142.0, 145.0, 143.0], "lower", 0.25)[1] == "worse"
    assert pairs.verdict(parent, [50.0, 55.0, 52.0, 58.0, 59.0], "lower", 0.25) == (5, "gain")


@pytest.fixture()
def repo(tmp_path, monkeypatch):
    """A git repository holding a benchmark, committed, as pairs.py's root."""
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("print('run')\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "src.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "parent")
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    return tmp_path


# an edited file of each, and a new untracked one the parent's checkout lacks
@pytest.mark.parametrize("edit", ["perfbench/run.py", "BENCHMARK.json", "perfbench/helper.py"])
def test_refuses_to_compare_when_the_benchmark_differs(repo, edit):
    (repo / edit).write_text("changed\n")
    with pytest.raises(SystemExit) as exc:
        pairs.main(["HEAD", "--workload", "fly", "--seed", "1", "--pairs", "1"])
    message = str(exc.value.code)
    assert message.startswith("error: BENCHMARK.json or perfbench/ differ between HEAD")
    assert "\n" not in message  # sys.exit prints it as one line and exits 1


def test_a_change_outside_the_benchmark_is_compared(repo):
    (repo / "src.py").write_text("x = 2\n")
    (repo / "notes.txt").write_text("untracked, outside the benchmark\n")
    pairs.check_same_benchmark("HEAD")  # returns, so the pairs would run
