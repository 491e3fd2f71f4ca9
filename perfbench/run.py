"""ternstab's benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in one process runs ops back to back for ``--seconds`` seconds;
the next op starts when the previous one returns.  Every op's output is
checked, and an op that raises, exceeds its time limit or fails a check
counts as failed.  A fixed reference kernel is timed every quarter second
and between ops, and every reported time is scaled by the host speed it
gives (``hostspeed.py``); the wall-clock figures are printed on the lines
above the result.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
wraps the library's public functions and reports per-layer metrics per op;
its spans are written to ``.perfbench/`` when the run ends.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in its
own child process, one after the other, so that each has its own peak RSS.

The package is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with a nonzero code and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("bundled", "psweep", "large_d", "axioms")
#: fresh-process set-ups whose median, with the run's own, is ``setup_s``
SETUP_REPEATS = 10
#: ops of the traced run whose raw spans are written out; a psweep op
#: alone makes about 200k spans
SPAN_OPS_KEPT = 1

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics, all per op except where noted:
#: name -> (unit, better, span name, field)
PER_LAYER = {
    "maps.solve.s": ("s", "lower", "maps.solve", "s"),
    "maps.solve.calls": ("count", "lower", "maps.solve", "calls"),
    "maps.solve.null_dim": ("count", "higher", "maps.solve", "null_dim"),
    "maps.solve.system_bytes": ("bytes", "lower", "maps.solve", "system_bytes"),
    "stability.hyers_limit.s": ("s", "lower", "stability.hyers_limit", "s"),
    "stability.hyers_limit.calls": ("count", "lower", "stability.hyers_limit", "calls"),
    "stability.doublings": ("count", "lower", "harness.run_experiment", "doublings"),
    "control.tail_bound.s": ("s", "lower", "control.tail_bound", "s"),
    "control.tail_bound.calls": ("count", "lower", "control.tail_bound", "calls"),
    "stability.direct_method.self_s": ("s", "lower", "stability.direct_method", "self_s"),
    "maps.residual.s": ("s", "lower", "maps.residual", "s"),
    "maps.residual.calls": ("count", "lower", "maps.residual", "calls"),
    "control.majorant.calls": ("count", "lower", "control.majorant", "calls"),
    "stability.check_hypothesis.self_s": ("s", "lower", "stability.check_hypothesis", "self_s"),
    "module.product.s": ("s", "lower", "module.product", "s"),
    "module.product.calls": ("count", "lower", "module.product", "calls"),
    "algebra.ternary_product.calls": ("count", "lower", "algebra.ternary_product", "calls"),
    "harness.perturb_eval.s": ("s", "lower", "harness.perturb_eval", "s"),
    "harness.perturb_eval.calls": ("count", "lower", "harness.perturb_eval", "calls"),
    # point busy time / (sweep wall time x workers)
    "harness.sweep.busy_ratio": ("ratio", "higher", "harness.sweep", None),
    "serialize.write.s": ("s", "lower", "serialize.write", "s"),
    "serialize.write.bytes": ("bytes", "lower", "serialize.write", "bytes"),
    # spent in set-up, not per op
    "harness.load_config.s": ("s", "lower", "harness.load_config", "s"),
    "algebra.check_assoc.s": ("s", "lower", "algebra.check_assoc", "s"),
    "algebra.check_assoc.tuples": ("count", "higher", "algebra.check_assoc", "tuples"),
    "module.check_axioms.s": ("s", "lower", "module.check_axioms", "s"),
    "module.check_axioms.tuples": ("count", "higher", "module.check_axioms", "tuples"),
    # ops per second with tracing on; against the untraced ops_per_s it
    # gives the tracing overhead
    "trace.ops_per_s": ("1/s", "higher", None, None),
}


def pin_threads() -> dict:
    """Pin BLAS and ternstab's sweep to one thread each.

    One sweep worker runs the points inline.  With two, the workers contend
    with each other for the two vCPUs, so the sweep's speed follows the
    host's only in part and the single-threaded speed probe cannot correct
    it (``hostspeed.py``).
    """
    nproc = len(os.sched_getaffinity(0))
    pins = {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "TERNSTAB_THREADS": "1",
    }
    os.environ.update(pins)
    return {"nproc": nproc, **pins}


def import_library():
    """Import ternstab from this checkout's ``src/``; exit with an error without it."""
    if not (SRC / "ternstab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ternstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ternstab

    if not Path(ternstab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: ternstab was imported from {ternstab.__file__}, not {SRC}")
    return ternstab


def environment(pins: dict, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        **pins,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def set_up(args, scratch: Path):
    """Build the algebras and generate and load the configs."""
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, args.smoke, scratch)


def fresh_setups(args, repeats: int, sampler) -> list:
    """(set-up time, start, end) of ``repeats`` fresh processes, one after the other.

    The host speed is probed after each, for its scaling.
    """
    times = []
    for _ in range(repeats):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        times.append((float(done.stdout.split()[-1]), start, time.perf_counter()))
        sampler.probe()
    return times


def tail(latencies: list):
    """Highest percentile with at least 10 ops beyond it, and that count.

    Below 21 ops that percentile would not lie above the median, so the
    slowest op is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_loop(work, seconds: float, sampler, tracer=None):
    """Closed loop: ops back to back until ``seconds`` have passed.

    An op's latency leaves out the time ``sampler`` spent in it; it is
    returned as measured and scaled by the host speed factor around the op.
    With a tracer, each op's spans are folded into per-layer totals as soon
    as the op ends; only the first ``SPAN_OPS_KEPT`` ops keep their spans.
    The process's peak RSS in MB after the first op is returned last.
    """
    import tracing

    latencies, spans_s, failures, findings, per_op, kept = [], [], [], {}, [], []
    first_peak = None
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(latencies)
        paused = sampler.paused
        t0 = time.perf_counter()
        try:
            sampler.start_op(work.time_limit)
            try:
                out = work.op()
            finally:
                sampler.end_op()
            latency = time.perf_counter() - t0 - (sampler.paused - paused)
            work.check(out)
            for key, value in work.findings(out).items():
                findings[key] = findings.get(key, 0) + value
        except Exception as exc:  # any failure of an op is counted, the loop goes on
            latency = time.perf_counter() - t0 - (sampler.paused - paused)
            failures.append(f"op {len(latencies)}: {type(exc).__name__}: {exc}")
        latencies.append(latency)
        spans_s.append((t0, time.perf_counter()))
        if first_peak is None:
            first_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sampler.probe()
        if tracer is not None:
            spans = tracer.take()
            per_op.append(tracing.layer_totals(spans))
            if len(per_op) <= SPAN_OPS_KEPT:
                kept.extend(spans)
        if time.perf_counter() - start >= seconds:
            break
    scaled = [lat * sampler.factor(a, b) for lat, (a, b) in zip(latencies, spans_s)]
    return latencies, scaled, failures, findings, (per_op, kept), first_peak


def end_to_end(latencies, scaled, failures, setups, scaled_setups, peak_mb) -> tuple:
    """Metrics from scaled times; the notes give the wall-clock ones."""
    value, pct, beyond = tail(scaled)
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "ops_per_s": n / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": value,
        "ok_ratio": (n - len(failures)) / n,
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; wall {statistics.median(setups):.4g} s",
        "ops_per_s": f"wall {n / sum(latencies):.4g} 1/s",
        "op_p50_s": f"median of {n} ops; wall {statistics.median(latencies):.4g} s",
        "op_tail_s": f"p{pct:.1f} of {n} ops, {beyond} beyond it; wall {tail(latencies)[0]:.4g} s",
        "ok_ratio": f"{n - len(failures)} of {n} ops passed",
        "peak_rss_mb": "through set-up and the first op; at the end "
                       f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.4g} MB",
    }
    return metrics, notes


def per_layer(totals: list, setup_spans: list, ops_per_s: float) -> dict:
    import tracing

    setup = tracing.layer_totals(setup_spans)
    metrics = {}
    for name, (_unit, _better, span, field) in PER_LAYER.items():
        if name == "trace.ops_per_s":
            value = ops_per_s
        elif name == "harness.load_config.s":
            value = setup[span][field] if span in setup else 0.0
        elif name == "harness.sweep.busy_ratio":
            ratios = [
                t[span]["point_s"] / t[span]["capacity_s"] for t in totals if span in t
            ]
            value = statistics.median(ratios) if ratios else 0.0
        else:
            value = statistics.median(t[span][field] if span in t else 0.0 for t in totals)
        metrics[name] = value
    return metrics


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_one(args) -> int:
    t0 = time.perf_counter()
    pins = pin_threads()
    import_library()
    import hostspeed
    import tracing

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tracer = tracing.Tracer() if args.trace else None
        with tracing.patched(tracer) if tracer else nullcontext():
            work = set_up(args, scratch)
            setup_s = time.perf_counter() - t0
            if args.setup_only:
                print(setup_s)
                return 0
            setup_spans = tracer.take() if tracer else []
            env = environment(pins, args)
            print("env " + json.dumps(env))
            setups = [(setup_s, t0, t0 + setup_s)]
            with hostspeed.Sampler(in_ops=not args.trace) as sampler:
                sampler.probe()
                if not args.trace:
                    setups += fresh_setups(args, 1 if args.smoke else SETUP_REPEATS, sampler)
                latencies, scaled, failures, findings, (per_op, spans), peak_mb = run_loop(
                    work, args.seconds, sampler, tracer
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    factor = sampler.factor()
    print(f"host speed: kernel {sampler.kernel_s() * 1e3:.2f} ms over {len(sampler.samples)} "
          f"samples, nominal {hostspeed.NOMINAL_S * 1e3:.2f} ms, factor {factor:.4f}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, value in findings.items():
        print(f"finding {key} = {value / len(latencies):g} per op (not a failure)")
    if args.trace:
        metrics = per_layer(per_op, setup_spans, len(scaled) / sum(scaled))
        units = {k: v[0] for k, v in PER_LAYER.items()}
        notes = {}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace = {"env": env, "setup": setup_spans, "spans": spans}
        path.write_text(json.dumps(trace, separators=(",", ":")))
        print(f"spans of {min(len(per_op), SPAN_OPS_KEPT)} ops written to {path}")
    else:
        scaled_setups = [s * sampler.factor(a, b) for s, a, b in setups]
        metrics, notes = end_to_end(
            latencies, scaled, failures, [s for s, _, _ in setups], scaled_setups, peak_mb
        )
        units = {k: v[0] for k, v in END_TO_END.items()}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:8s} {name:36s} {value:.6g} {units[name]}{note}")
    print(result_line(not failures, len(latencies), len(failures), metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after the other."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            metrics[f"{name}.{key}"] = metric["value"]
            units[f"{name}.{key}"] = metric["unit"]
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal input sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
