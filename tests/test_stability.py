import dataclasses
import math
import statistics

import numpy as np
import pytest

import ternstab as ts
from ternstab.algebra import _random_vector
from ternstab.errors import DivergentControlError, NonConvergenceError
from ternstab.algebra import _trilinear
from ternstab.stability import _hypothesis_points, _lambda_grid, _rate_estimate


@pytest.fixture()
def perturbed_oddpoly(oddpoly3, oddpoly3_module, oddpoly_derivation, identity2):
    """The four maps of a standard perturbed experiment plus its control."""
    mod = oddpoly3_module
    specs = {
        "f": ts.PerturbationSpec(theta=0.1, p=0.5, direction="fixed", seed=1),
        "g": ts.PerturbationSpec(theta=0.1, p=0.5, direction="fixed", seed=2),
        "h": ts.PerturbationSpec(theta=0.1, p=0.5, direction="fixed", seed=3),
        "k": ts.PerturbationSpec(theta=0.1, p=0.5, direction="fixed", seed=4),
    }
    f = ts.perturb_map(oddpoly_derivation, specs["f"], oddpoly3.norm_of, mod.norm_of)
    g = ts.perturb_map(identity2, specs["g"], oddpoly3.norm_of, oddpoly3.norm_of)
    h = ts.perturb_map(identity2, specs["h"], oddpoly3.norm_of, oddpoly3.norm_of)
    k = ts.perturb_map(identity2, specs["k"], oddpoly3.norm_of, oddpoly3.norm_of)
    control = ts.power_control(0.1, 0.5, arity=5, norm=oddpoly3.norm_of)
    return f, g, h, k, control


def _counted(calls, name):
    """The identity on the 2-dim algebra, logging ``name`` on every evaluation."""
    def fn(x):
        calls.append(name)
        return np.array(x, dtype=float)

    return ts.EvaluableMap(2, 2, fn)


BAD_TOLS = [math.nan, math.inf, -math.inf, 0.0, -1.0]
# inf once ended in OverflowError, NaN in int()'s ValueError, 2.5 ran as 2 and
# -3 ran until a NonConvergenceError
BAD_MAX_ITERS = [math.inf, math.nan, 2.5, -3, "10"]


class TestHyersLimit:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_tol_rejected_before_any_evaluation(self, tol):
        # a NaN tol stopped no ray, inf stopped every ray at n = 0
        calls = []
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            ts.hyers_limit(_counted(calls, "f"), ts.power_control(0.1, 0.5), np.ones(2), tol)
        assert calls == []

    @pytest.mark.parametrize("max_iter", BAD_MAX_ITERS)
    def test_bad_max_iter_rejected_before_any_evaluation(self, max_iter):
        calls = []
        with pytest.raises(ValueError, match="max_iter must be a nonnegative integer"):
            ts.hyers_limit(_counted(calls, "f"), ts.power_control(0.1, 0.5), np.ones(2), 1e-10,
                           max_iter=max_iter)
        assert calls == []

    def test_exact_linear_stops_immediately(self, oddpoly_derivation):
        f = ts.EvaluableMap.from_linear(oddpoly_derivation)
        control = ts.power_control(0.0, 0.5)
        x = np.array([0.3, -0.7])
        value, n = ts.hyers_limit(f, control, x, tol=1e-12)
        assert n == 0
        np.testing.assert_array_equal(value, oddpoly_derivation(x))

    def test_zero_point(self, oddpoly_derivation):
        f = ts.EvaluableMap.from_linear(oddpoly_derivation)
        control = ts.power_control(0.1, 0.5)
        value, n = ts.hyers_limit(f, control, np.zeros(2), tol=1e-12)
        assert n == 0
        np.testing.assert_array_equal(value, np.zeros(2))

    def test_power_perturbed_error_law(self, oddpoly3, oddpoly3_module, oddpoly_derivation):
        theta, p = 0.1, 0.5
        spec = ts.PerturbationSpec(theta=theta, p=p, direction="fixed", seed=0)
        f = ts.perturb_map(
            oddpoly_derivation, spec, oddpoly3.norm_of, oddpoly3_module.norm_of
        )
        x = np.array([1.0, 0.0])
        # the scaled iterate sits exactly theta * 2^{n(p-1)} |x|^p from the limit
        for n in (0, 3, 7):
            iterate = f(x * 2.0**n) / 2.0**n
            err = np.linalg.norm(iterate - oddpoly_derivation(x))
            assert err == pytest.approx(theta * 2 ** (n * (p - 1)), rel=1e-12)
        # successive trace differences decay at exactly 2^(p-1)
        control = ts.power_control(theta, p, arity=5, norm=oddpoly3.norm_of)
        trace = []
        _, n_used = ts.hyers_limit(f, control, x, tol=1e-10, trace=trace)
        errs = {row[0]: row[1] for row in trace}
        for n in range(3, 10):
            assert errs[n + 1] / errs[n] == pytest.approx(2 ** (p - 1), rel=1e-10)
        # a-priori iteration count is exactly the closed-form threshold
        denom = 1 - 2 ** (p - 1)
        apriori = math.ceil(math.log2(theta / (1e-10 * denom)) / (1 - p))
        assert n_used <= apriori

    def test_scale_coherence_on_dyadic_ray(self, perturbed_oddpoly):
        f, _, _, _, control = perturbed_oddpoly
        tol = 1e-9
        x = np.array([0.8, 0.6])
        at_x, _ = ts.hyers_limit(f, control, x, tol)
        at_2x, _ = ts.hyers_limit(f, control, 2 * x, tol)
        assert np.linalg.norm(at_2x / 2 - at_x) <= 10 * tol

    def test_max_iter_exceeded(self):
        # homogeneous of degree 1.2: the scaled iterates diverge; the
        # a-priori stop at tol = 1e-12 lies near n = 76
        fn = lambda x: np.linalg.norm(x) ** 1.2 * np.ones(2)
        f = ts.EvaluableMap(2, 2, fn)
        control = ts.power_control(0.1, 0.5, arity=5)
        with pytest.raises(NonConvergenceError) as err:
            ts.hyers_limit(f, control, np.ones(2), tol=1e-12, max_iter=25)
        assert "max_iter 25 exceeded" in str(err.value)
        assert err.value.iterations == 25

    def test_hard_cap_reported(self):
        # scaled iterates oscillate between two values forever: bounded but
        # never Cauchy; at p = 0.99 the a-priori stop lies past 1000, so the
        # hard cap is what stops the loop
        def fn(x):
            lead = float(x[0])
            return np.full(2, lead * np.sin(np.pi * np.log2(abs(lead))))

        f = ts.EvaluableMap(2, 2, fn)
        control = ts.power_control(1.0, 0.99, arity=5)
        with pytest.raises(NonConvergenceError) as err:
            ts.hyers_limit(f, control, np.full(2, 0.7), tol=1e-12, max_iter=10**9)
        assert "cap 1000" in str(err.value)
        assert err.value.iterations == 1000

    def test_zero_custom_control_stops_at_zero(self, oddpoly_derivation):
        # its tail bound is 0 from n = 0 on, as for theta = 0
        f = ts.EvaluableMap.from_linear(oddpoly_derivation)
        control = ts.custom_control(lambda *a: 0.0, arity=5, ratio=0.5)
        value, n = ts.hyers_limit(f, control, np.array([1.0, 2.0]), tol=1e-12)
        assert n == 0
        np.testing.assert_array_equal(value, oddpoly_derivation([1.0, 2.0]))


class TestDirectMethodStabilize:
    def test_zero_perturbation_recovers_exactly(
        self, oddpoly3_module, oddpoly_derivation, identity2
    ):
        f = ts.EvaluableMap.from_linear(oddpoly_derivation)
        g = h = k = ts.EvaluableMap.from_linear(identity2)
        control = ts.power_control(0.0, 0.5)
        report = ts.direct_method_stabilize(
            f, g, h, k, control, oddpoly3_module, tol=1e-12, seed=5
        )
        assert report.all_passed
        assert np.abs(report.derivation.matrix - oddpoly_derivation.matrix).max() <= 1e-12
        assert np.abs(report.sigma.matrix - np.eye(2)).max() <= 1e-12
        assert all(n == 0 for its in report.iterations.values() for n in its)
        assert report.max_identity_residual <= 1e-12

    def test_perturbed_recovery_within_tolerance(
        self, perturbed_oddpoly, oddpoly3_module, oddpoly_derivation
    ):
        f, g, h, k, control = perturbed_oddpoly
        report = ts.direct_method_stabilize(
            f, g, h, k, control, oddpoly3_module, tol=1e-10, seed=5
        )
        assert report.all_passed
        assert np.abs(report.derivation.matrix - oddpoly_derivation.matrix).max() <= 1e-9
        assert np.abs(report.sigma.matrix - np.eye(2)).max() <= 1e-9
        assert report.max_bound_violation <= 0.0
        assert report.max_identity_residual <= report.identity_tol
        assert report.linearity_max <= 10 * report.tol
        for rate in report.convergence_rates.values():
            assert rate == pytest.approx(2 ** (0.5 - 1), rel=0.05)

    def test_uniqueness_cross_check(self, perturbed_oddpoly, oddpoly3_module):
        f, g, h, k, control = perturbed_oddpoly
        tol = 1e-10
        one = ts.direct_method_stabilize(
            f, g, h, k, control, oddpoly3_module, tol=tol, seed=5
        )
        two = ts.direct_method_stabilize(
            f, g, h, k, control, oddpoly3_module, tol=tol / 10, seed=5
        )
        diff = np.abs(one.derivation.matrix - two.derivation.matrix).max()
        assert diff <= 2 * tol

    def test_jordan_mode_agrees_with_lie_on_diagonal(
        self, perturbed_oddpoly, oddpoly3_module
    ):
        f, g, h, k, control = perturbed_oddpoly
        control3 = ts.power_control(0.1, 0.5, arity=3, norm=oddpoly3_module.algebra.norm_of)
        jordan = ts.direct_method_stabilize(
            f, g, h, k, control3, oddpoly3_module, tol=1e-10, mode="jordan", seed=5
        )
        assert jordan.all_passed
        # recovered maps agree with the lie-mode run: same limits either way
        lie = ts.direct_method_stabilize(
            f, g, h, k, control, oddpoly3_module, tol=1e-10, mode="lie", seed=5
        )
        np.testing.assert_allclose(
            jordan.derivation.matrix, lie.derivation.matrix, atol=1e-12
        )
        # diagonal residuals computed through either entry point are identical
        rng = np.random.default_rng(17)
        a = rng.standard_normal(2)
        via_jordan = ts.jordan_residual(
            oddpoly3_module, jordan.derivation, a, jordan.sigma, jordan.tau, jordan.xi
        )
        via_lie = ts.lie_derivation_residual(
            oddpoly3_module, jordan.derivation, a, a, a, jordan.sigma, jordan.tau, jordan.xi
        )
        np.testing.assert_array_equal(via_jordan, via_lie)

    def test_requires_zero_at_origin(self, oddpoly3_module, identity2):
        shifted = ts.EvaluableMap(2, 2, lambda x: x + 1.0)
        g = ts.EvaluableMap.from_linear(identity2)
        control = ts.power_control(0.1, 0.5)
        with pytest.raises(ValueError, match="f\\(0\\)"):
            ts.direct_method_stabilize(
                shifted, g, g, g, control, oddpoly3_module, tol=1e-10
            )

    def test_rejects_nan_at_origin(self, oddpoly3_module, identity2):
        # NaN compares False with the 1e-12 bound, so a NaN origin must not
        # pass for zero
        nan_at_zero = ts.EvaluableMap(2, 2, lambda x: x if np.any(x) else np.full(2, np.nan))
        g = ts.EvaluableMap.from_linear(identity2)
        control = ts.power_control(0.1, 0.5)
        with pytest.raises(ValueError, match="f\\(0\\)"):
            ts.direct_method_stabilize(
                nan_at_zero, g, g, g, control, oddpoly3_module, tol=1e-10
            )

    @pytest.mark.parametrize("count", ["bound_points", "identity_triples", "linearity_points"])
    def test_negative_counts_rejected_before_any_evaluation(self, oddpoly3_module, count):
        calls = []
        maps = [_counted(calls, name) for name in "fghk"]
        control = ts.power_control(0.1, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            ts.direct_method_stabilize(*maps, control, oddpoly3_module, **{count: -1})
        assert calls == []

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_tol_rejected_before_any_evaluation(self, oddpoly3_module, tol):
        calls = []
        maps = [_counted(calls, name) for name in "fghk"]
        control = ts.power_control(0.1, 0.5)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            ts.direct_method_stabilize(*maps, control, oddpoly3_module, tol=tol)
        assert calls == []

    @pytest.mark.parametrize("kwargs, message", [
        *[({"max_iter": value}, "max_iter must be a nonnegative integer")
          for value in BAD_MAX_ITERS],
        # a non-integer count or seed once ended in numpy's TypeError
        ({"seed": 2.5}, "seed must be a nonnegative integer"),
        ({"seed": -1}, "seed must be a nonnegative integer"),
        ({"bound_points": 2.5}, "bound_points must be a nonnegative integer"),
        ({"identity_triples": 1.5}, "identity_triples must be a nonnegative integer"),
        ({"linearity_points": 5.0}, "linearity_points must be a nonnegative integer"),
        ({"identity_tol": math.nan}, "identity_tol must be finite and nonnegative"),
        ({"mode": "skew"}, "mode must be one of"),
    ])
    def test_bad_numbers_rejected_before_any_evaluation(self, oddpoly3_module, kwargs,
                                                        message):
        calls = []
        maps = [_counted(calls, name) for name in "fghk"]
        with pytest.raises(ValueError, match=message):
            ts.direct_method_stabilize(*maps, ts.power_control(0.1, 0.5), oddpoly3_module,
                                       **kwargs)
        assert calls == []

    def test_divergent_control_raises_before_any_evaluation(self, oddpoly3_module):
        calls = []
        maps = [_counted(calls, name) for name in "fghk"]
        control = ts.custom_control(lambda *a: float(np.linalg.norm(a[0]) ** 2), ratio=0.9)
        with pytest.raises(DivergentControlError):
            ts.direct_method_stabilize(*maps, control, oddpoly3_module)
        assert calls == []

    def test_partial_failure_is_recorded(self, oddpoly3_module, identity2):
        # f, scaled by 2**1020, leaves double range at row 4 of every basis
        # ray, before the a-priori stop: per-basis failures, not an exception
        bad = ts.EvaluableMap(2, 2, lambda x: np.ldexp(x, 1020))
        g = ts.EvaluableMap.from_linear(identity2)
        control = ts.power_control(0.1, 0.5, arity=5)
        report = ts.direct_method_stabilize(
            bad, g, g, g, control, oddpoly3_module, tol=1e-12, seed=1,
            bound_points=5, identity_triples=5, linearity_points=0,
        )
        assert not report.all_passed
        assert {f["map"] for f in report.failures} == {"f"}
        assert {f["message"] for f in report.failures} == {"iterate at n=4 overflowed"}

    def test_failed_columns_have_the_maps_out_dim(self, oddpoly3, identity2):
        # f maps the 2-dim algebra into a 3-dim module: its zero columns
        # for failed basis vectors are 3 long, those of g, h, k 2 long; the
        # a-priori stop lies past max_iter, so every basis vector fails
        rng = np.random.default_rng(4)
        mod = ts.TernaryModule(oddpoly3, 3, rng.standard_normal((3, 2, 2, 3)),
                               rng.standard_normal((2, 3, 2, 3)), rng.standard_normal((2, 2, 3, 3)))
        bad = ts.EvaluableMap(2, 3, lambda x: np.linalg.norm(x) ** 1.5 * np.ones(3))
        g = ts.EvaluableMap(2, 2, lambda x: np.linalg.norm(x) ** 1.5 * np.ones(2))
        control = ts.power_control(0.1, 0.5, arity=5)
        report = ts.direct_method_stabilize(
            bad, g, g, g, control, mod, tol=1e-12, max_iter=5, seed=1,
            bound_points=2, identity_triples=2, linearity_points=0,
        )
        assert {f["map"] for f in report.failures} == set("fghk")
        assert report.derivation.matrix.shape == (3, 2)
        assert report.sigma.matrix.shape == (2, 2)

    def test_nan_gap_fails_the_bounds(self, oddpoly3, oddpoly3_module, oddpoly_derivation,
                                      identity2):
        # f is the exact derivation but NaN at the 5 bound points; a running
        # max() started from -inf dropped f's NaN and reported g's gap
        points = _random_vector(np.random.default_rng([0, 0x52]), 2, oddpoly3.field, count=5)

        def nan_at_bound_points(x):
            if (x == points).all(axis=1).any():
                return np.full(2, math.nan)
            return oddpoly_derivation(x)

        f = ts.EvaluableMap(2, 2, nan_at_bound_points)
        g = ts.EvaluableMap.from_linear(identity2)
        control = ts.power_control(0.1, 0.5, arity=5, norm=oddpoly3.norm_of)
        report = ts.direct_method_stabilize(f, g, g, g, control, oddpoly3_module,
                                            bound_points=5, seed=0)
        assert math.isnan(report.max_bound_violation)
        assert not report.bounds_ok and not report.all_passed
        assert report.linearity_ok and report.identity_ok and report.converged

    def test_nan_gap_fails_linearity(self, oddpoly3_module, identity2):
        # a module norm that returns NaN makes every gap of f NaN; a running
        # max() started from 0.0 dropped them
        mod = dataclasses.replace(oddpoly3_module, norm=lambda v: math.nan)
        g = ts.EvaluableMap.from_linear(identity2)
        control = ts.power_control(0.1, 0.5, arity=5, norm=mod.algebra.norm_of)
        report = ts.direct_method_stabilize(g, g, g, g, control, mod, seed=0)
        assert math.isnan(report.linearity_max) and not report.linearity_ok
        assert math.isnan(report.max_bound_violation) and not report.bounds_ok
        assert report.converged and not report.all_passed


class TestCheckHypothesis:
    def test_exact_derivation_zero_control_no_violations(
        self, oddpoly3_module, oddpoly_derivation, identity2
    ):
        f = ts.EvaluableMap.from_linear(oddpoly_derivation)
        g = h = k = ts.EvaluableMap.from_linear(identity2)
        control = ts.power_control(0.0, 0.5, arity=5)
        for signs in (ts.LIE_SIGNS, ts.MIXED_SIGNS):
            report = ts.check_hypothesis(
                f, g, h, k, control, oddpoly3_module, signs, samples=20, seed=2
            )
            assert report.violations == 0
            assert report.max_residual <= 1e-10

    def test_negative_samples_rejected_before_any_evaluation(self, oddpoly3_module):
        calls = []
        maps = [_counted(calls, name) for name in "fghk"]
        control = ts.power_control(0.1, 0.5, arity=5)
        with pytest.raises(ValueError, match="nonnegative"):
            ts.check_hypothesis(*maps, control, oddpoly3_module, samples=-1)
        assert calls == []

    @pytest.mark.parametrize("kwargs, message", [
        # lambda_grid 2.5 once ran, and on a complex algebra built 3 multipliers
        # that are not roots of unity
        ({"lambda_grid": 2.5}, "lambda_grid must be an integer >= 2"),
        ({"lambda_grid": 1}, "lambda_grid must be an integer >= 2"),
        ({"lambda_grid": math.nan}, "lambda_grid must be an integer >= 2"),
        # a non-integer count or seed once ended in numpy's TypeError
        ({"samples": 2.5}, "samples must be a nonnegative integer"),
        ({"seed": 2.5}, "seed must be a nonnegative integer"),
        ({"seed": -1}, "seed must be a nonnegative integer"),
    ])
    def test_bad_numbers_rejected_before_any_evaluation(self, kwargs, message):
        calls = []
        maps = [_counted(calls, name) for name in "fghk"]
        mod = ts.self_module(ts.odd_polynomial_algebra(3, "complex"))
        with pytest.raises(ValueError, match=message):
            ts.check_hypothesis(*maps, ts.power_control(0.1, 0.5), mod, **kwargs)
        assert calls == []

    def test_complex_lambda_grid(self, identity2):
        alg = ts.odd_polynomial_algebra(3, "complex")
        mod = ts.self_module(alg)
        ident = ts.LinearMap.identity(2, np.complex128)
        basis = ts.solve_exact_derivations(mod, ident, ident, ident)
        f = ts.EvaluableMap.from_linear(basis[0])
        g = h = k = ts.EvaluableMap.from_linear(ident)
        control = ts.power_control(0.0, 0.5, arity=5)
        report = ts.check_hypothesis(
            f, g, h, k, control, mod, lambda_grid=16, samples=10, seed=3
        )
        assert report.lambda_count == 16
        assert report.violations == 0
        assert report.max_residual <= 1e-10

    def test_perturbed_run_reports_findings(self, perturbed_oddpoly, oddpoly3_module):
        f, g, h, k, control = perturbed_oddpoly
        report = ts.check_hypothesis(
            f, g, h, k, control, oddpoly3_module, samples=40, seed=4
        )
        assert report.tuples_checked == 40
        assert report.worst is not None
        assert report.worst["slack"] == report.min_slack

    @pytest.mark.parametrize("samples", [40, 0])
    def test_to_dict_shares_no_mutable_object(self, perturbed_oddpoly, oddpoly3_module,
                                              samples):
        # the fields in order, equal to a deep copy's, but no dict or list of
        # the report: editing the dict leaves the report as it was
        f, g, h, k, control = perturbed_oddpoly
        report = ts.check_hypothesis(f, g, h, k, control, oddpoly3_module, samples=samples,
                                     seed=4)
        before = dataclasses.asdict(report)
        out = report.to_dict()
        assert out == before and list(out) == list(before)
        assert (report.worst is None) == (samples == 0)
        if report.worst is not None:
            assert out["worst"] is not report.worst
            assert out["worst"]["lambda"] is not report.worst["lambda"]
            out["worst"]["lambda"].append(0.0)
            out["worst"]["slack"] = 1.0
        out["violations"] = -1
        assert dataclasses.asdict(report) == before

    def test_jordan_hypothesis_path(self, perturbed_oddpoly, oddpoly3_module):
        f, g, h, k, _ = perturbed_oddpoly
        control3 = ts.power_control(0.1, 0.5, arity=3, norm=oddpoly3_module.algebra.norm_of)
        report = ts.check_hypothesis(
            f, g, h, k, control3, oddpoly3_module, samples=20, seed=5, mode="jordan"
        )
        assert report.mode == "jordan"
        assert report.tuples_checked == 20

    def test_real_field_uses_sign_lambdas(self, perturbed_oddpoly, oddpoly3_module):
        f, g, h, k, control = perturbed_oddpoly
        report = ts.check_hypothesis(
            f, g, h, k, control, oddpoly3_module, lambda_grid=16, samples=5, seed=6
        )
        assert report.lambda_count == 2


def _hypothesis_points_one_by_one(alg, samples, seed, mode, lambda_grid):
    """The tuples and map inputs of ``check_hypothesis`` as it once drew them:
    one ``draw()`` per tuple, a scale and then its slots."""
    rng = np.random.default_rng([seed, 0x48])
    slots = 5 if mode == "lie" else 3

    def draw():
        scale = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        return scale * _random_vector(rng, alg.dim, alg.field, count=slots)

    drawn = np.reshape([draw() for _ in range(samples)], (samples, slots, alg.dim))
    lam_col = _lambda_grid(alg.field, lambda_grid)[:, None]
    points = drawn[:, np.minimum(np.arange(5), slots - 1)]
    sums = lam_col * points[:, :1] + lam_col * points[:, 1:2]
    triple = _trilinear(alg._plan, *np.moveaxis(points[:, 2:], 1, 0))[:, None]
    inputs = [np.concatenate([points, tails], axis=1).reshape(-1, alg.dim)
              for tails in (sums + triple, sums)]
    return drawn, inputs


class TestHypothesisPoints:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("mode", ["lie", "jordan"])
    @pytest.mark.parametrize("samples", [0, 1, 40])
    def test_one_pass_draw_keeps_the_stream(self, field, mode, samples):
        # the generator is called in the per-tuple order, so every tuple,
        # and every map input built from them, is bitwise the one-by-one one
        algebras = (ts.odd_polynomial_algebra(3, field), ts.trivial_matrix_algebra(2, field))
        for seed, alg in ((seed, alg) for seed in range(20) for alg in algebras):
            record = _hypothesis_points(alg, samples, seed, mode, 16)
            drawn, inputs = _hypothesis_points_one_by_one(alg, samples, seed, mode, 16)
            assert record.drawn.shape == drawn.shape == (samples, 5 if mode == "lie" else 3,
                                                         alg.dim)
            assert record.drawn.tobytes() == drawn.tobytes()
            for got, want in zip((record.f_input, record.shared_input), inputs):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert len(record.lams) == (16 if field == "complex" else 2)
            assert not any(a.flags.writeable for a in vars(record).values())


class TestEvaluableMap:
    def test_tabulated_lookup(self):
        pts = [(np.array([1.0, 0.0]), np.array([2.0, 0.0]))]
        m = ts.EvaluableMap.tabulated(pts, 2, 2)
        np.testing.assert_array_equal(m(np.array([1.0, 0.0])), [2.0, 0.0])
        with pytest.raises(ValueError, match="not tabulated"):
            m(np.array([0.5, 0.5]))

    def test_shape_validation(self):
        m = ts.EvaluableMap(2, 2, lambda x: x)
        with pytest.raises(ts.DimensionMismatch):
            m(np.zeros(3))

    def test_deterministic_reevaluation(self, perturbed_oddpoly):
        f = perturbed_oddpoly[0]
        x = np.array([0.37, -1.2])
        np.testing.assert_array_equal(f(x), f(x))


def _rate_from_every_row(rows):
    """The rate estimate over a dict of every trace row, 3..10 picked afterwards."""
    by_basis: dict = {}
    for basis_index, n, err, _tail in rows:
        by_basis.setdefault(basis_index, {})[n] = err
    ratios = []
    for errs in by_basis.values():
        for n in range(3, 10):
            if n in errs and (n + 1) in errs and errs[n] > 0:
                ratios.append(errs[n + 1] / errs[n])
    return statistics.median(ratios) if ratios else None


class TestRateEstimate:
    def test_deep_trace_rate_is_bitwise_unchanged(self, oddpoly3, identity2):
        spec = ts.PerturbationSpec(theta=0.1, p=0.9, direction="hash", seed=5)
        g = ts.perturb_map(identity2, spec, oddpoly3.norm_of, oddpoly3.norm_of)
        control = ts.power_control(0.1, 0.9, arity=5, norm=oddpoly3.norm_of)
        rows = []
        for i, x in enumerate(oddpoly3.basis()):
            trace: list = []
            ts.hyers_limit(g, control, x, 1e-10, out_norm=oddpoly3.norm_of, trace=trace)
            rows.extend((i, *row) for row in trace)
        assert max(row[1] for row in rows) > 300
        rate = _rate_estimate(rows)
        assert rate is not None
        assert np.float64(rate).tobytes() == np.float64(_rate_from_every_row(rows)).tobytes()
        assert _rate_estimate(rows[:3]) is None
