"""Golden sweep rows: each shipped config's sweeps must reproduce their stored rows.

``tests/golden/sweeps.json`` holds, per shipped config, the rows of a 9-point
``p`` sweep and 3-point ``theta`` and ``tol`` sweeps, as ``run_sweep`` returns
them.  A rerun must match them leaf by leaf with the tolerance of
``test_golden.py``: non-float leaves exactly, floats to ``|a - b| <= 1e-12 *
max(1, |a|, |b|)``.

Regenerate the file (only when a row change is intended, and say why in
CHANGES.md) with ``PYTHONPATH=src python tests/test_sweep_golden.py``.
"""

import json

import pytest

import ternstab as ts
from ternstab.serialize import dump_json
from test_golden import CONFIG_DIR, GOLDEN_DIR, NAMES, _mismatches

GOLDEN = GOLDEN_DIR / "sweeps.json"
SWEEPS = {
    "p": [round(0.1 * i, 1) for i in range(1, 10)],
    "theta": [0.0, 0.05, 0.3],
    "tol": [1e-6, 1e-9, 1e-12],
}


def _rows(name: str) -> dict:
    config = ts.load_config(CONFIG_DIR / f"{name}.json")
    return {param: ts.run_sweep(config, param, values) for param, values in SWEEPS.items()}


@pytest.mark.parametrize("name", NAMES)
def test_sweep_rows_match_golden(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert _mismatches(_rows(name), want) == []


if __name__ == "__main__":
    GOLDEN.write_text(dump_json({name: _rows(name) for name in NAMES}))
    print(f"wrote {GOLDEN}")
