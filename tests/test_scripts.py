"""End-to-end smoke tests of the two experiment scripts: each runs to exit 0,
writes its results files, and writes them byte for byte again on a rerun."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, args: list[str], cwd: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--shots", "2000", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name,args,outputs",
    [
        (
            "run_line_classification.py",
            ["--results-dir", "results"],
            [
                "results/line_classification_exact.json",
                "results/line_classification_sampled.json",
                "results/line_classification_combined.json",
            ],
        ),
        ("run_noise_mitigation_study.py", ["--out", "results/noise_study.json"], ["results/noise_study.json"]),
    ],
)
def test_script_runs_and_rewrites_identical_files(tmp_path, name, args, outputs):
    run_script(name, args, tmp_path)
    first = {out: (tmp_path / out).read_bytes() for out in outputs}
    run_script(name, args, tmp_path)
    assert {out: (tmp_path / out).read_bytes() for out in outputs} == first
