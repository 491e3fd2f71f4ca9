"""Digests of the benchmark's workload outputs: every report, trace and
check result of the four workloads must keep its bytes.

``tests/golden/workloads.json`` holds, per workload seed of
``test_tooling.py``, the sha256 of each ``bundled`` and ``large_d`` report
(timestamp line removed, as ``perfbench/workloads.py`` digests it) and of
each of its four trace CSVs, and the sha256 of the ``repr`` of one op's
``psweep`` rows and of one op's ``axioms`` reports.  The inputs are built by
``perfbench/workloads.py``, loaded read-only.

Regenerate the file (only when an output change is intended, and say why in
CHANGES.md) with ``PYTHONPATH=src python tests/test_workload_digests.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from ternstab.serialize import dump_json
from test_golden import GOLDEN_DIR, TRACE_FILES
from test_tooling import SEEDS, _load

GOLDEN = GOLDEN_DIR / "workloads.json"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(scratch: Path) -> dict:
    workloads = _load("workloads")
    found = {}
    for seed in SEEDS:
        digests = {}
        for kind in ("bundled", "large_d"):
            experiments = workloads.WORKLOADS[kind](seed, False, scratch / f"{kind}_{seed}")
            for name, result in experiments.op().items():
                report = result.report_path
                digests[f"{kind}/{name}/report.json"] = workloads._report_digest(report)
                for file in TRACE_FILES:
                    data = (report.parent / file).read_bytes()
                    digests[f"{kind}/{name}/{file}"] = _sha256(data)
        for kind in ("psweep", "axioms"):
            op = workloads.WORKLOADS[kind](seed, False, scratch).op()
            digests[kind] = _sha256(repr(op).encode())
        found[str(seed)] = digests
    return found


def test_workload_outputs_match_digests(tmp_path):
    assert _digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(dump_json(_digests(Path(tmp))))
    print(f"wrote {GOLDEN}")
