"""Golden reports: each bundled config must reproduce its stored report.

``tests/golden/<name>.json`` holds the ``report.json`` of ``configs/<name>.json``
with the timestamp removed, and so it does for the test-only configs of
``tests/golden/configs/``: ``trivial2x2_p05``'s settings with the algebra
swapped for odd-poly cap 15 under dense random twists and cap 31 complex.
A rerun must match it leaf by leaf: non-float leaves exactly, floats to
``|a - b| <= 1e-12 * max(1, |a|, |b|)``.  The absolute floor covers values
that are rounding noise, such as an identity residual near 1e-11.
``tests/golden/traces.json`` holds the sha256 of each bundled config's four
``trace_*.csv`` files, which a rerun must match byte for byte.

Regenerate the files (only when a report change is intended, and say why in
CHANGES.md) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest

import ternstab as ts
from ternstab.serialize import dump_json

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
NAMES = ("oddpoly3_p05", "trivial2x2_p05", "oddpoly3_jordan")
TEST_NAMES = ("oddpoly15_dense_twists", "oddpoly31_complex")
TRACE_FILES = tuple(f"trace_{m}.csv" for m in "fghk")
REL_TOL = 1e-12


def _report(name: str, out_dir: Path) -> dict:
    config_dir = CONFIG_DIR if name in NAMES else GOLDEN_DIR / "configs"
    ts.run_experiment(config_dir / f"{name}.json", out_dir=out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    del report["timestamp"]
    return report


def _trace_digests(out_dir: Path) -> dict:
    return {
        file: hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
        for file in TRACE_FILES
    }


def _mismatches(got, want, path="$"):
    """Paths where ``got`` differs from ``want`` beyond the float tolerance."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got):
            return []
        if abs(got - want) <= REL_TOL * max(1.0, abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("name", NAMES + TEST_NAMES)
def test_report_matches_golden(name, tmp_path):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = _report(name, tmp_path)
    assert _mismatches(got, want) == []


@pytest.mark.parametrize("name", NAMES)
def test_traces_match_golden(name, tmp_path):
    want = json.loads((GOLDEN_DIR / "traces.json").read_text())[name]
    _report(name, tmp_path)
    assert _trace_digests(tmp_path) == want


def test_tolerance_rejects_a_moved_float():
    assert _mismatches({"x": [1.0, 2.0]}, {"x": [1.0, 2.0 + 1e-9]}) != []
    assert _mismatches({"x": 1e-11}, {"x": 1.05e-11}) == []
    assert _mismatches({"x": 1}, {"x": 1.0}) != []


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    digests = {}
    for name in NAMES + TEST_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            report = _report(name, Path(tmp))
            if name in NAMES:
                digests[name] = _trace_digests(Path(tmp))
        (GOLDEN_DIR / f"{name}.json").write_text(dump_json(report))
        print(f"wrote {GOLDEN_DIR / f'{name}.json'}")
    (GOLDEN_DIR / "traces.json").write_text(dump_json(digests))
    print(f"wrote {GOLDEN_DIR / 'traces.json'}")
