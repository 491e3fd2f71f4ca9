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
    # and the bounds.  A sweep group runs each check once for all its
    # points, and each of these sweeps is one group, so the tracer sees one
    # hypothesis and one direct-method span per sweep and no experiment
    # span; the derivation system is solved once per sweep config, not per
    # point
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
    assert "harness.run_experiment" not in totals
    for name in ("harness.sweep", "maps.solve", "stability.check_hypothesis",
                 "stability.direct_method"):
        assert totals[name]["calls"] == len(sweeps) == 2


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
    # and each run runs each check once, below its own experiment span
    runs = {span[0] for span in spans if span[1] == "harness.run_experiment"}
    for name in ("stability.check_hypothesis", "stability.direct_method"):
        assert sorted(span[4] for span in spans if span[1] == name) == sorted(runs)
    assert len(runs) == 2


def _ancestors(span, by_id):
    """The ids of the spans that ``span`` runs below, innermost first."""
    while span[4] is not None:
        span = by_id[span[4]]
        yield span[0]


def test_traced_sweep_sees_each_points_checks(tmp_path):
    # a sweep draws its samples once and runs its points' checks as one
    # stacked pass, one span of each check below its sweep's span, and
    # every point evaluates its own maps below that span: four evaluations per
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
    assert not [span for span in spans if span[1] == "harness.run_experiment"]
    for name in ("stability.check_hypothesis", "stability.direct_method"):
        assert sorted(span[4] for span in spans if span[1] == name) == sorted(sweeps_seen)
    by_id = {span[0]: span for span in spans}
    evaluations = [span for span in spans if span[1] == "harness.perturb_eval"]
    assert all(sweeps_seen.intersection(_ancestors(span, by_id)) for span in evaluations)
    assert tracing.layer_totals(spans)["harness.perturb_eval"]["calls"] == 4 * (4 + 2) * points // 2
