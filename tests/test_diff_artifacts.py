"""``benchmarks/diff_artifacts.py``: the byte-identity check between two
directories of experiment snapshots."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "diff_artifacts.py"


def write(directory: Path, name: str, counters: dict, gauges: dict) -> None:
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(
        json.dumps({"counters": counters, "gauges": gauges, "histograms": {}})
    )


def run(base: Path, head: Path):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(base), str(head)],
        capture_output=True, text=True, timeout=60,
    )


def test_wall_clock_differences_are_ignored(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    write(base, "e1.json", {"ops": 3}, {"runtime_s": 1.0})
    write(head, "e1.json", {"ops": 3}, {"runtime_s": 2.5})
    result = run(base, head)
    assert result.returncode == 0, result.stdout
    assert "1 of 1 snapshots identical" in result.stdout


def test_changed_metric_and_missing_snapshot_fail(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    write(base, "e1.json", {"ops": 3}, {})
    write(head, "e1.json", {"ops": 4}, {})
    write(base, "e2.json", {}, {})
    result = run(base, head)
    assert result.returncode == 1
    assert "counters.ops: 3 -> 4" in result.stdout
    assert "e2.json: missing from" in result.stdout


def test_bad_arguments_exit_two(tmp_path):
    assert run(tmp_path / "nope", tmp_path).returncode == 2
