"""Smoke tests of the repository scripts, run as a user runs them."""

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
