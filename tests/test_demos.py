"""The quick demos, the README quickstart and the reference-output tool run
to completion as scripts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "demo", ["01_noise_calibration", "02_moment_bounds", "05_decay_baseline_and_pilot"]
)
def test_demo_runs(demo, tmp_path):
    # a temporary working directory, because demo 05 writes runs/ under it
    proc = run_python([str(ROOT / "demos" / f"{demo}.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_reference_outputs_prints_the_same_hashes_twice(tmp_path):
    tool, outdir = str(ROOT / "tools" / "reference_outputs.py"), str(tmp_path / "ref")
    first = run_python([tool, outdir], tmp_path)
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == 33  # rounds.csv and summary.json of 16 seed runs, pilot_norms.csv
    assert all(re.fullmatch(r"[0-9a-f]{64} \S+", line) for line in lines)
    listing = tmp_path / "listing.txt"
    listing.write_text(first.stdout)
    again = run_python([tool, outdir, "--check", str(listing)], tmp_path)
    assert (again.returncode, again.stdout, again.stderr) == (0, first.stdout, "")
    # --check names a changed hash, a missing output and an extra one, and fails
    changed, missing = (line.split(" ", 1)[1] for line in lines[:2])
    listing.write_text("\n".join(["0" * 64 + " " + changed, *lines[2:], "f" * 64 + " extra.csv"]))
    third = run_python([tool, outdir, "--check", str(listing)], tmp_path)
    assert third.returncode == 1
    assert re.findall(r"differs: (\S+)", third.stderr) == sorted([changed, missing, "extra.csv"])
