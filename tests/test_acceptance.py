"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest reporter prints one ``[acceptance] <criterion>: PASS/FAIL`` line
per test.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import ternstab as ts

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_raw(name):
    return json.loads((CONFIG_DIR / name).read_text())


def test_criterion_1_associativity_of_matrix_algebras():
    """Matrix-induced algebras for m in {1,2,3}: residual <= 1e-12.

    Exhaustive enumeration for m <= 2; for m = 3 a seeded draw of 1e5 basis
    5-tuples (and, stronger, the exhaustive 9**5 sweep as well).
    """
    for m in (1, 2):
        report = ts.check_ternary_associativity(ts.trivial_matrix_algebra(m), 1e-12)
        assert report.exhaustive and report.passed
        assert report.max_residual <= 1e-12
    alg3 = ts.trivial_matrix_algebra(3)
    sampled = ts.check_ternary_associativity(alg3, 1e-12, samples=100_000, seed=1)
    assert not sampled.exhaustive and sampled.checked == 100_000
    assert sampled.max_residual <= 1e-12 and sampled.passed
    exhaustive = ts.check_ternary_associativity(alg3, 1e-12)
    assert exhaustive.exhaustive and exhaustive.max_residual <= 1e-12


def test_criterion_2_module_axioms_of_m2_self_module():
    """All five compatibility chains <= 1e-12 plus the norm bound on 1000 samples."""
    mod = ts.self_module(ts.trivial_matrix_algebra(2))
    report = ts.check_module_axioms(mod, 1e-12, samples=1000, seed=7)
    assert report.exhaustive
    assert len(report.chain_residuals) == 5
    for chain, residual in report.chain_residuals.items():
        assert residual <= 1e-12, chain
    assert report.norm_violation <= 0.0
    assert report.norm_samples == 1000
    assert report.passed


def test_criterion_3_majorant_closed_form():
    """The damped series (1/2) sum_n 2^-n phi(2^n x, 2^n x, 0, ...) summed
    term by term vs theta |x|^p / (1 - 2^(p-1)), relative 1e-10; the
    majorants of the power control and of its custom twin, which declares
    the ratio 2^(p-1), equal that closed form."""
    x = np.array([1.0, 0.0])
    z = np.zeros(2)
    for p in (0.0, 0.25, 0.5, 0.75):
        twin = ts.custom_control(
            lambda *args, p=p: sum(np.linalg.norm(a) ** p for a in args if np.linalg.norm(a) > 0),
            ratio=2.0 ** (p - 1.0),
        )
        # 480 terms leave under 2^-119 of the series at p = 0.75
        numeric = 0.0
        for n in range(480):
            numeric += 2.0 ** -(n + 1) * twin.evaluate(*(a * 2.0**n for a in (x, x, z, z, z)))
        closed = 1.0 * np.linalg.norm(x) ** p / (1 - 2 ** (p - 1))
        assert abs(numeric - closed) <= 1e-10 * closed, p
        for control in (twin, ts.power_control(1.0, p)):
            majorant = ts.summed_majorant(control, (x, x, z, z, z))
            assert abs(majorant - closed) <= 1e-13 * closed, p
    value = ts.summed_majorant(ts.power_control(1.0, 0.5), (x, x, z, z, z))
    assert abs(value - (2 + math.sqrt(2))) <= 1e-12


def test_criterion_4_distance_bound_and_exact_magnitude():
    """m=2 algebra, theta=0.1, p=0.5, fixed direction: the recovered map sits
    within theta |x|^p / (1 - 2^(p-1)) of f at 100 seeded points with zero
    violations, and the gap magnitude equals theta |x|^p to 1e-12."""
    theta, p = 0.1, 0.5
    alg = ts.trivial_matrix_algebra(2)
    mod = ts.self_module(alg)
    ident = ts.LinearMap.identity(4)
    assert ts.solve_exact_derivations(mod, ident, ident, ident) == []
    truth = ts.LinearMap.zero(4, 4)

    spec = ts.PerturbationSpec(theta=theta, p=p, direction="fixed", seed=4)
    f = ts.perturb_map(truth, spec, alg.norm_of, mod.norm_of)
    g = ts.perturb_map(ident, ts.PerturbationSpec(theta=theta, p=p, seed=5), alg.norm_of, alg.norm_of)
    control = ts.power_control(theta, p, arity=5, norm=alg.norm_of)
    # tight tolerance so the recovered matrix deviation stays below the
    # 1e-12 budget of the equality assertion
    report = ts.direct_method_stabilize(
        f, g, g, g, control, mod, tol=1e-13, seed=11, bound_points=100
    )
    assert report.bounds_ok and report.max_bound_violation <= 0.0

    recovered = report.derivation
    rng = np.random.default_rng(2024)
    envelope = 1.0 / (1 - 2 ** (p - 1))
    assert envelope > 1.0
    violations = 0
    for _ in range(100):
        x = rng.standard_normal(4)
        gap = mod.norm_of(f(x) - recovered(x))
        bound = theta * alg.norm_of(x) ** p * envelope
        if gap > bound:
            violations += 1
        assert abs(gap - theta * alg.norm_of(x) ** p) <= 1e-12
    assert violations == 0


def test_criterion_5_convergence_rate_and_apriori_count():
    """Successive-error ratios equal 2^(p-1) within 5% over iterations 3..10;
    the a-priori iteration count is never exceeded."""
    alg = ts.odd_polynomial_algebra(3)
    mod = ts.self_module(alg)
    ident = ts.LinearMap.identity(2)
    truth = ts.solve_exact_derivations(mod, ident, ident, ident)[0]
    tol = 1e-10
    x = np.array([1.0, 0.0])
    for p in (0.25, 0.5, 0.75):
        theta = 0.1
        spec = ts.PerturbationSpec(theta=theta, p=p, direction="fixed", seed=3)
        f = ts.perturb_map(truth, spec, alg.norm_of, mod.norm_of)
        control = ts.power_control(theta, p, arity=5, norm=alg.norm_of)
        trace = []
        _, n_used = ts.hyers_limit(f, control, x, tol, trace=trace)
        errs = {row[0]: row[1] for row in trace}
        target = 2 ** (p - 1)
        for n in range(3, 10):
            ratio = errs[n + 1] / errs[n]
            assert abs(ratio - target) <= 0.05 * target, (p, n)
        denom = 1 - 2 ** (p - 1)
        apriori = math.ceil(math.log2(theta * alg.norm_of(x) ** p / (tol * denom)) / (1 - p))
        assert n_used <= apriori, (p, n_used, apriori)


def test_criterion_6_recovery_accuracy_and_uniqueness():
    """tol=1e-10 recovery within 1e-9 of ground truth for all four maps, on
    both bundled experiments; a tol/10 rerun moves the derivation by <= 2e-10."""
    for name in ("oddpoly3_p05.json", "trivial2x2_p05.json"):
        raw = load_raw(name)
        raw["tol"] = 1e-10
        result = ts.run_experiment(raw, write_files=False)
        assert result.all_passed, name
        truth_error = result.report["recovered"]["truth_error"]
        for key in ("D", "sigma", "tau", "xi"):
            assert truth_error[key] <= 1e-9, (name, key)

        tighter = dict(raw, tol=1e-11)
        rerun = ts.run_experiment(tighter, write_files=False)
        one = np.asarray(result.report["recovered"]["D"]["matrix"])
        two = np.asarray(rerun.report["recovered"]["D"]["matrix"])
        assert np.abs(one - two).max() <= 2e-10, name


def test_criterion_7_derivation_identity_of_recovered_maps():
    """Recovered maps satisfy the twisted derivation identity with residual
    <= 1e-8 * (1 + |a||b||c|) on 100 random triples; same on the diagonal
    for the jordan-mode run."""
    lie = ts.run_experiment(CONFIG_DIR / "oddpoly3_p05.json", write_files=False)
    assert lie.all_passed
    identity = lie.report["identity_residuals"]
    assert identity["triples"] == 100
    assert identity["max_normalized"] <= 1e-8
    stab = lie.stabilization
    rng = np.random.default_rng(555)
    mod = ts.self_module(ts.odd_polynomial_algebra(3))
    for _ in range(100):
        a, b, c = rng.standard_normal((3, 2))
        res = mod.norm_of(
            ts.lie_derivation_residual(
                mod, stab.derivation, a, b, c, stab.sigma, stab.tau, stab.xi
            )
        )
        bound = 1e-8 * (
            1 + mod.algebra.norm_of(a) * mod.algebra.norm_of(b) * mod.algebra.norm_of(c)
        )
        assert res <= bound

    jordan = ts.run_experiment(CONFIG_DIR / "oddpoly3_jordan.json", write_files=False)
    assert jordan.all_passed
    jid = jordan.report["identity_residuals"]
    assert jid["mode"] == "jordan"
    assert jid["max_normalized"] <= 1e-8


def test_criterion_8_unimodular_split_sweep():
    """1000 seeded (gamma, N) pairs: unit modulus and the sum identity to 1e-12."""
    rng = np.random.default_rng(20240808)
    for _ in range(1000):
        gamma = complex(*rng.standard_normal(2)) * 10 ** rng.uniform(-2, 2)
        n = int(np.ceil(abs(gamma))) + 1
        l1, l2 = ts.unimodular_split(gamma, n)
        assert abs(abs(l1) - 1.0) <= 1e-12
        assert abs(abs(l2) - 1.0) <= 1e-12
        assert abs((l1 + l2) - 2 * gamma / n) <= 1e-12


def test_criterion_9_deterministic_reports(tmp_path):
    """Two runs of the bundled config produce byte-identical reports apart
    from the timestamp line."""
    ts.run_experiment(CONFIG_DIR / "trivial2x2_p05.json", out_dir=tmp_path / "one")
    ts.run_experiment(CONFIG_DIR / "trivial2x2_p05.json", out_dir=tmp_path / "two")
    one = (tmp_path / "one" / "report.json").read_bytes().split(b"\n")
    two = (tmp_path / "two" / "report.json").read_bytes().split(b"\n")
    assert len(one) == len(two)
    diffs = [(a, b) for a, b in zip(one, two) if a != b]
    assert all(b'"timestamp"' in a for a, _ in diffs)
    assert len(diffs) <= 1
