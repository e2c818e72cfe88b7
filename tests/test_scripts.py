"""Smoke runs of the scripts in ``scripts/``: each exits 0 and prints what
it is for.  They run in subprocesses from a temporary directory, as a user
would run them, so nothing is written into the checkout."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [line.strip() for line in proc.stdout.splitlines()]


def test_demo_attack_contrasts_the_two_protocols(tmp_path):
    lines = run_script("demo_attack.py", cwd=tmp_path)
    assert "=== prop1_expiring (eta=4, window=[5, 6]) ===" in lines


def test_random_campaign_counts_its_runs(tmp_path):
    lines = run_script("random_campaign.py", "--seeds", "2", cwd=tmp_path)
    assert '"runs": 2' in lines


def test_sweep_beta_writes_the_curve(tmp_path):
    out = tmp_path / "curve.csv"
    lines = run_script("sweep_beta.py", "--steps", "3", "--out", str(out), cwd=tmp_path)
    assert f"wrote 3 rows to {out}" in lines
    assert len(out.read_text().splitlines()) == 4


def test_code_lines_counts_every_module(tmp_path):
    lines = run_script("code_lines.py", cwd=tmp_path)
    counts = {name: int(count) for name, count in (line.split() for line in lines)}
    assert {"core.py", "oracle.py", "world.py"} <= counts.keys()
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total") > 0
