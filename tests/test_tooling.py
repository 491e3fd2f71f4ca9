"""The benchmark's own code, run against the library.

``perfbench/tracing.py`` replaces each ``(module, attr)`` of its ``SITES``
with a recording wrapper and rebuilds the maps of ``harness.perturb_map``;
the traced sweep span reads ``harness.thread_count()``, which is always 1.
A refactor that moves or renames one of these fails here instead of
silently dropping a span from the benchmark.  ``perfbench/workloads.py`` checks every op's
output (a sweep's iteration counts against ``SWEEP_ITERATIONS``, a bundled
or large_d report or an axiom checker's verdicts against the op before it);
full-size ops of all four workloads, under several workload seeds, are run
here, so that a change that fails those checks fails the tests first.
"""

import importlib.util
from pathlib import Path

import pytest

from ternstab import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


SITES = [(site, attr) for site, attr, _, _ in _load("tracing").SITES]


@pytest.mark.parametrize(
    "site, attr", SITES, ids=[f"{site.__name__}.{attr}" for site, attr in SITES]
)
def test_traced_site_exists(site, attr):
    assert callable(getattr(site, attr, None))


def test_harness_hooks_exist(monkeypatch):
    assert callable(harness.perturb_map)
    monkeypatch.delenv("TERNSTAB_THREADS", raising=False)
    assert harness.thread_count() == 1


#: workload seeds: the benchmark reseeds every perturbation, hash directions included
SEEDS = (1, 7, 21)


def test_sweep_op_passes_its_check(tmp_path):
    workloads = _load("workloads")
    for seed in SEEDS:
        sweep = workloads.Sweep(seed, False, tmp_path / str(seed))
        assert [round(v, 1) for v in sweep.values] == sorted(workloads.SWEEP_ITERATIONS)
        sweeps = sweep.op()
        assert len(sweeps) == 2
        sweep.check(sweeps)


def test_bundled_op_passes_its_check(tmp_path):
    for seed in SEEDS:
        experiments = _load("workloads").bundled(seed, False, tmp_path / str(seed))
        for _ in range(2):  # the second op's reports must equal the first's
            results = experiments.op()
            assert len(results) == 3
            experiments.check(results)


def test_large_d_op_passes_its_check(tmp_path):
    for seed in SEEDS:
        experiments = _load("workloads").large_d(seed, False, tmp_path / str(seed))
        for _ in range(2):  # the second op's reports must equal the first's
            results = experiments.op()
            assert len(results) == 2
            experiments.check(results)


def test_axioms_op_passes_its_check(tmp_path):
    for seed in SEEDS:
        axioms = _load("workloads").Axioms(seed, False, tmp_path / str(seed))
        for _ in range(2):  # the second op's reports must equal the first's
            reports = axioms.op()
            assert len(reports) == 4
            axioms.check(reports)


def test_traced_sweep_sees_the_stacked_work(tmp_path):
    # a sweep point evaluates each of its four maps once for the origin
    # check, the hypothesis sample, the basis and linearity points together
    # and the bounds.  Its points run their checks as one stacked pass of
    # the sweep, so the tracer sees no experiment, hypothesis or
    # direct-method span; the derivation system is solved once per sweep
    # config, not per point
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        sweep = _load("workloads").Sweep(7, True, tmp_path)
        tracer.op = 0
        sweeps = sweep.op()
    sweep.check(sweeps)
    totals = tracing.layer_totals([span for span in tracer.take() if span[5] == 0])
    points = sum(len(rows) for rows in sweeps.values())
    assert points == 4
    assert totals["harness.perturb_eval"]["calls"] <= 16 * points
    for name in ("harness.run_experiment", "stability.check_hypothesis",
                 "stability.direct_method"):
        assert name not in totals
    assert totals["harness.sweep"]["calls"] == totals["maps.solve"]["calls"] == len(sweeps) == 2


def test_traced_large_d_sees_every_file_written(tmp_path):
    # a large_d op writes two runs, each a report and four trace files; the
    # traced run's serialize.write spans must count every one of them, with
    # the bytes that reached the disk, in the order the run writes them
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        experiments = _load("workloads").large_d(7, True, tmp_path)
        tracer.op = 0
        results = experiments.op()
    experiments.check(results)
    spans = [span for span in tracer.take() if span[5] == 0]
    written = [span[6]["bytes"] for span in spans if span[1] == "serialize.write"]
    files = [tmp_path / name / file for name in results
             for file in ("report.json", *(f"trace_{m}.csv" for m in "fghk"))]
    assert len(results) == 2 and len(written) == 10
    assert written == [path.stat().st_size for path in files]
    totals = tracing.layer_totals(spans)["serialize.write"]
    assert (totals["calls"], totals["bytes"]) == (10, sum(written))


def test_traced_sweep_sees_each_points_checks(tmp_path):
    # a sweep draws its samples once and runs its points' checks as one
    # stacked pass, not through the traced names, but every point still
    # evaluates its own maps below its sweep's span: four evaluations per
    # distinct map per point (the origin check, the hypothesis sample, the
    # basis and linearity rays, and the bounds).  oddpoly3_p05 has four
    # distinct maps (g, h and k hash with their own seeds); trivial2x2_p05's
    # fixed g, h and k are one map, so it has two
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        sweep = _load("workloads").Sweep(7, True, tmp_path)
        tracer.op = 0
        sweeps = sweep.op()
    sweep.check(sweeps)
    spans = [span for span in tracer.take() if span[5] == 0]
    points = sum(len(rows) for rows in sweeps.values())
    sweeps_seen = {span[0] for span in spans if span[1] == "harness.sweep"}
    assert points == 4 and len(sweeps_seen) == 2
    for name in ("harness.run_experiment", "stability.check_hypothesis",
                 "stability.direct_method"):
        assert not [span for span in spans if span[1] == name]
    evaluations = [span for span in spans if span[1] == "harness.perturb_eval"]
    assert {span[4] for span in evaluations} <= sweeps_seen
    assert tracing.layer_totals(spans)["harness.perturb_eval"]["calls"] == 4 * (4 + 2) * points // 2
