"""Smoke tests of the benchmark at minimal input sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cli(*args, cwd=HERE.parent):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_runner():
    run.import_library()
    import workloads

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: spec[:2] for name, spec in run.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _cli("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [line.split() for line in lines[:-1] if line.startswith(workload)]
        assert any(p[1] == metric["name"] and p[3] == metric["unit"] for p in printed)


def test_failed_output_check_shows_in_ok_ratio(monkeypatch, capsys):
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TERNSTAB_THREADS"):
        monkeypatch.setenv(key, "1")  # restored after the test; run.main pins them
    run.import_library()
    from ternstab import harness

    original = harness.run_experiment
    calls = []

    def first_run_fails(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if len(calls) == 1:
            result.all_passed = False
        return result

    monkeypatch.setattr(harness, "run_experiment", first_run_fails)
    assert run.main(["--workload", "bundled", "--seed", "7", "--seconds", "1", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    attempted = result["attempted"]
    assert attempted >= 2
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] == (attempted - 1) / attempted


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
