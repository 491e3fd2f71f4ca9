"""Run-to-run spread of the end-to-end metrics, and the baseline they give.

    python3 perfbench/spread.py --workloads bundled,large_d --seeds 1-10 --out spread.json

Runs ``run.py`` once per workload and seed, one run at a time, and reports
for each end-to-end metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread ``(q3 - q1) / median`` next to the metric's bound
in ``BENCHMARK.json``.  ``--traced`` adds one traced run per workload, whose
per-layer metrics and traced ``ops_per_s`` (the tracing overhead) go into the
output too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread <= bound / 3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, 0) for seed in range(first, last + 1)]
        entry = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in results], bound)
                for name, bound in bounds.items()
            },
        }
        for name, s in entry["end_to_end"].items():
            print(f"{workload:8s} {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}  {'ok' if s['steady'] else 'WIDE'}", flush=True)
        if args.traced:
            traced = run(workload, first, args.seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["trace_overhead"] = (
                entry["end_to_end"]["ops_per_s"]["median"] / entry["per_layer"]["trace.ops_per_s"]
            )
            print(f"{workload:8s} tracing overhead: untraced / traced ops_per_s = "
                  f"{entry['trace_overhead']:.3f}", flush=True)
        report[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
