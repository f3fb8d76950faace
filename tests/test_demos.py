"""The quick demos, the README quickstart and the reference-output tool run
to completion as scripts."""

import os
import re
import shutil
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
    assert len(lines) == 35  # rounds.csv and summary.json of 17 seed runs, pilot_norms.csv
    assert all(re.fullmatch(r"[0-9a-f]{64} \S+", line) for line in lines)
    listing = tmp_path / "listing.txt"
    listing.write_text(first.stdout)
    old = tmp_path / "old"
    shutil.copytree(tmp_path / "ref" / "runs", old / "runs")
    again = run_python([tool, outdir, "--check", str(listing), "--against", str(old)], tmp_path)
    assert (again.returncode, again.stdout, again.stderr) == (0, first.stdout, "")
    # --check names a changed hash, a missing output and an extra one, and fails
    changed, missing = (line.split(" ", 1)[1] for line in lines[:2])
    listing.write_text("\n".join(["0" * 64 + " " + changed, *lines[2:], "f" * 64 + " extra.csv"]))
    third = run_python([tool, outdir, "--check", str(listing)], tmp_path)
    assert third.returncode == 1
    assert re.findall(r"differs: (\S+)", third.stderr) == sorted([changed, missing, "extra.csv"])
    # --against reports each changed field of the outputs that differ from the old ones
    rounds = old / "runs" / "mlp_crd" / "seed_1" / "rounds.csv"
    header, first_row, *rest = rounds.read_text().splitlines()
    row = dict(zip(header.split(","), first_row.split(",")))
    row["train_loss"] = repr(float(row["train_loss"]) * (1 + 1e-12))
    row["selected_clients"] += ";9"
    rounds.write_text("\n".join([header, ",".join(row.values()), *rest, ""]))
    summary = old / "runs" / "svm_fixed" / "seed_2" / "summary.json"
    summary.write_text(summary.read_text().replace('"stop_reason": "', '"stop_reason": "x'))
    (old / "runs" / "pilot" / "pilot_norms.csv").unlink()
    fourth = run_python([tool, outdir, "--against", str(old)], tmp_path)
    assert (fourth.returncode, fourth.stdout) == (1, first.stdout)
    files, at = {}, None
    for line in fourth.stderr.splitlines():
        if line.startswith("  "):
            field, verdict = line.strip().split(": ", 1)
            files[at][field] = verdict
        else:
            at, _, verdict = line.rstrip(":").partition(": ")
            files[at] = verdict or {}
    assert files.pop("pilot/pilot_norms.csv") == f"only in {tmp_path / 'ref' / 'runs'}"
    assert files["mlp_crd/seed_1/rounds.csv"].pop("selected_clients") == "changed"
    assert files["svm_fixed/seed_2/summary.json"].pop("stop_reason") == "changed"
    train_loss = files["mlp_crd/seed_1/rounds.csv"].pop("train_loss")
    assert float(train_loss.split()[-1]) == pytest.approx(1e-12, rel=1e-3)
    assert set(files) == {"mlp_crd/seed_1/rounds.csv", "svm_fixed/seed_2/summary.json"}
    assert {v for fields in files.values() for v in fields.values()} == {"max rel diff 0"}
