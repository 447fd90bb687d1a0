"""The benchmark's own checks, on short episodes of every workload.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, spans  # noqa: E402
from perfbench.shapes import WORKLOADS, Samples  # noqa: E402

#: Steps per short episode: enough for every workload's layers to run.
SHORT = {"sensor_ingest": 20, "flash_sale": 40, "scene_query": 40,
         "geo_sessions": 12}


def _episode(name: str, seed: int, traced: bool):
    workload = WORKLOADS[name](seed, steps=SHORT[name])
    out = Samples()
    recorder = spans.SpanRecorder() if traced else None
    _, _, counts = run.run_episode(workload, out, run.HostSpeed(), recorder)
    assert out.failed == 0, out.errors
    return counts, (dict(recorder.counts) if traced else {}), recorder


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_for_a_seed_traced_or_not(name):
    plain, _, _ = _episode(name, 3, traced=False)
    traced, span_counts, recorder = _episode(name, 3, traced=True)
    again, span_again, _ = _episode(name, 3, traced=True)
    assert plain == traced == again
    assert span_counts == span_again
    assert recorder.spans and not recorder.stack


def test_uninstall_restores_every_traced_function():
    before = {(cls, attr): cls.__dict__.get(attr) for cls, attr, _ in spans.TIMED}
    spans.uninstall(spans.install(spans.SpanRecorder()))
    after = {(cls, attr): cls.__dict__.get(attr) for cls, attr, _ in spans.TIMED}
    assert before == after


def test_self_time_subtracts_children():
    rec = spans.SpanRecorder()
    rec.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                 ["a", 5.0, 6.0, 0, 0]]
    assert rec.self_times() == {"a": 6.0 + 1.0, "b": 3.0}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]


def test_run_prints_the_result_line():
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sensor_ingest",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(n for n, _ in run.END_TO_END)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flash_sale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
