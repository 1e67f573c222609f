"""Smoke tests of the repository scripts, run as a user runs them."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "scripts" / "digests.py"


def run_digests(*args):
    return subprocess.run([sys.executable, str(DIGESTS), "--workload", "bands-n8", *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """One bands-n8 digest run: its output lines and the saved arrays."""
    out = tmp_path_factory.mktemp("digests")
    run = run_digests("--save", str(out / "run.npz"))
    assert run.returncode == 0, run.stderr
    (out / "run.txt").write_text(run.stdout)
    return out, run.stdout.splitlines()


class TestDigests:
    def test_own_output_shows_no_difference(self, saved_run):
        # A second run reproduces every line and every hashed array.
        out, lines = saved_run
        again = run_digests("--against", str(out / "run.npz"), "--expect", str(out / "run.txt"))
        assert again.returncode == 0, again.stderr
        assert again.stdout.splitlines() == lines
        deviations = [l for l in again.stderr.splitlines() if l.startswith("DEVIATION")]
        assert len(deviations) == len(lines) > 0
        assert all(l.endswith(": 0.00e+00") for l in deviations), deviations
        assert f"{len(lines)} lines compared, 0 differ" in again.stderr

    def test_altered_expected_line_is_named(self, saved_run, tmp_path):
        out, lines = saved_run
        name, what, rest = lines[2].split(" ", 2)
        altered = lines.copy()
        altered[2] = f"{name} {what} {'0' * 16}"
        expect = tmp_path / "altered.txt"
        expect.write_text("\n".join(altered) + "\n")
        run = run_digests("--expect", str(expect))
        assert run.returncode == 1
        differs = [l for l in run.stderr.splitlines() if l.startswith("DIFFERS")]
        assert differs == [f"DIFFERS {name} {what}: expected {'0' * 16}, got {rest}"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(seed, side, fit_s, init_s):
    """Standard output of one perfbench/run.py --trace 0 run, abridged."""
    metrics = {"fit_s": {"value": fit_s, "unit": "s"},
               "init_s": {"value": init_s, "unit": "s"}}
    return "\n".join([
        f"# fit-n8m4 seed {seed}: 3 rounds, python 3.11.7, commit {side}",
        "# init: median 0.01",
        f"fit_s {fit_s} s",
        f"init_s {init_s} s",
        json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": metrics}),
    ]) + "\n"


class TestBenchPair:
    """The aggregation of scripts/bench_pair.py on canned result lines."""

    bench = load_script("bench_pair")

    def test_parse_output_takes_the_environment_and_the_last_line(self):
        env, result = self.bench.parse_output(canned_run(3, "abc", 0.05, 0.02))
        assert env == "fit-n8m4 seed 3: 3 rounds, python 3.11.7, commit abc"
        assert result["metrics"]["init_s"] == {"value": 0.02, "unit": "s"}
        assert (result["correct"], result["attempted"], result["failed"]) == (True, 9, 0)

    def test_order_alternates_by_seed(self):
        assert self.bench.order(4) == ("parent", "change")
        assert self.bench.order(5) == ("change", "parent")

    def test_medians_quartiles_and_pairs(self):
        parent_init = [0.024, 0.026, 0.025, 0.030, 0.022]
        change_init = [0.010, 0.011, 0.027, 0.009, 0.012]
        runs = [{"seed": seed, "first": self.bench.order(seed)[0],
                 "parent": self.bench.parse_output(canned_run(seed, "p", 0.05, p)),
                 "change": self.bench.parse_output(canned_run(seed, "c", 0.05, c))}
                for seed, p, c in zip(range(1, 6), parent_init, change_init)]
        out = self.bench.aggregate("fit-n8m4", runs)
        init = out["metrics"]["init_s"]
        assert init["parent"] == {"median": 0.025, "q1": 0.024, "q3": 0.026}
        assert init["change"] == {"median": 0.011, "q1": 0.010, "q3": 0.012}
        # Pair 3 reads higher on the change; equal fit_s counts for neither.
        assert init["change_lower"] == "change lower in 4 of 5 pairs"
        assert out["metrics"]["fit_s"]["change_lower"] == "change lower in 0 of 5 pairs"
        assert init["unit"] == "s"
        assert out["environment"] == {
            "parent": "fit-n8m4 seed 1: 3 rounds, python 3.11.7, commit p",
            "change": "fit-n8m4 seed 1: 3 rounds, python 3.11.7, commit c"}
        assert [r["first"] for r in out["runs"]] == ["change", "parent"] * 2 + ["change"]
        assert out["runs"][2]["change"] == {"correct": True, "attempted": 9, "failed": 0,
                                            "metrics": {"fit_s": 0.05, "init_s": 0.027}}
        json.dumps(out)  # the BENCH file is plain JSON

    def test_source_digest_covers_src_and_perfbench_but_not_run_records(self, tmp_path):
        def checkout(name):
            root = tmp_path / name
            for rel, text in (("src/popdiff/assembly.py", "A = 1\n"),
                              ("perfbench/run.py", "R = 2\n"),
                              ("README.md", "not measured\n")):
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(text)
            return root

        parent, change = checkout("parent"), checkout("change")
        first = self.bench.source(parent)
        assert first == self.bench.source(change)
        assert first["commit"] is None  # neither is a git work tree
        (change / "perfbench" / "out").mkdir()
        (change / "perfbench" / "out" / "fit-n8m4-seed1-trace0.json").write_text("{}\n")
        (change / "README.md").write_text("edited\n")
        assert self.bench.source(change) == first
        (change / "src" / "popdiff" / "assembly.py").write_text("A = 2\n")
        assert self.bench.source(change)["sha256"] != first["sha256"]

        def git(*args):
            return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                                  cwd=parent, capture_output=True, text=True, check=True).stdout

        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "parent")
        assert self.bench.source(parent) == {"sha256": first["sha256"],
                                              "commit": git("rev-parse", "HEAD").strip()}
