"""Cross-checks of the stacked direct method against the one-step loop.

``hyers_limit`` evaluates a doubling ray as one stack under any control,
the direct method evaluates all the rays of a map's basis and linearity
points as one stack, and ``perturb_map``'s evaluator takes ``(N, d)``
stacks.  The references below are the step-by-step iteration, the
single-point perturbation evaluator and the per-point basis and linearity
loops they replaced, kept verbatim, and a one-row hash direction in Python
integers; results must agree bitwise.
"""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import ternstab as ts
from ternstab import stability
from ternstab.algebra import _norms_with, _random_vector, l2_norm
from ternstab.control import cauchy_tail_bound
from ternstab.errors import DivergentControlError, NonConvergenceError
from ternstab.harness import _hash_units
from ternstab.serialize import register_custom_control
from ternstab.stability import (
    ITERATION_CAP,
    _a_priori_stop,
    _rate_estimate,
    _ray_layout,
    _stacked_limits,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _reference_hyers_limit(f, control, x, tol, max_iter=ITERATION_CAP, out_norm=None,
                           trace=None):
    """The one-doubling-per-step iteration, stopped at the first ``n`` whose
    Cauchy tail bound is at most ``tol``."""
    norm = l2_norm if out_norm is None else out_norm
    x = np.asarray(x)
    limit = min(int(max_iter), ITERATION_CAP)
    current = f(x)
    if not np.all(np.isfinite(current)):
        raise NonConvergenceError("f(x) is not finite", iterations=0)
    if not np.any(x):
        return current, 0
    tails = cauchy_tail_bound(control, x, range(max(limit, 0) + 1))
    xn = np.array(x, dtype=np.result_type(x.dtype, np.float64))
    n = 0
    while True:
        if tails[n] <= tol:
            return current, n
        if n >= limit:
            reason = (
                f"hard iteration cap {ITERATION_CAP} reached"
                if limit == ITERATION_CAP
                else f"max_iter {limit} exceeded"
            )
            raise NonConvergenceError(
                f"doubling iteration did not converge: {reason}", iterations=n
            )
        np.multiply(xn, 2.0, out=xn)
        nxt = f(xn) * 2.0 ** -(n + 1)
        if not np.all(np.isfinite(nxt)):
            raise NonConvergenceError(f"iterate at n={n + 1} overflowed", iterations=n + 1)
        diff = float(norm(nxt - current))
        if trace is not None:
            trace.append((n + 1, diff, tails[n + 1]))
        current = nxt
        n += 1


_MASK = 2**64 - 1


def _reference_mix(z: int) -> int:
    """The splitmix64 finaliser in Python integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _reference_hash_unit(seed, x, out_dim, complex_out, out_norm):
    """One direction at a time, in Python integers and floats."""
    key = seed % 2**64
    for value in np.asarray(x, dtype=np.complex128).view(np.float64):
        # numpy's rounding (scale, round half to even, unscale), not round()'s
        lane = int((np.round(value, 9) + 0.0).view(np.uint64))
        key = _reference_mix(key ^ lane)
    parts = [(_reference_mix((key + c * 0x9E3779B97F4A7C15) & _MASK) >> 11) * 2.0**-52 - 1.0
             for c in range(2 * out_dim if complex_out else out_dim)]
    v = np.array(parts).view(np.complex128) if complex_out else np.array(parts)
    nv = out_norm(v)
    if nv == 0.0:
        v = np.ones(out_dim, dtype=v.dtype)
        nv = out_norm(v)
    return v / nv


def _reference_perturb(base, spec, in_norm, out_norm):
    """The single-point evaluator, as a pointwise (``custom``) map."""
    complex_out = np.iscomplexobj(base.matrix)
    fixed_unit = None
    if spec.direction == "fixed":
        raw = np.ones(base.out_dim, dtype=base.matrix.dtype)
        fixed_unit = raw / out_norm(raw)

    def evaluate(x):
        x = np.asarray(x)
        out = base(x)
        size = in_norm(x)
        if spec.theta == 0.0 or size == 0.0:
            return out
        unit = (
            fixed_unit
            if fixed_unit is not None
            else _reference_hash_unit(spec.seed, x, base.out_dim, complex_out, out_norm)
        )
        return out + (spec.theta * size**spec.p) * unit

    return ts.EvaluableMap(base.in_dim, base.out_dim, evaluate)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _setup(field, direction, p, norm_scale=1.0, theta=0.1, exponent=0):
    alg = ts.odd_polynomial_algebra(5, field)
    if norm_scale != 1.0:
        alg = dataclasses.replace(alg, norm_scale=norm_scale)
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((alg.dim, alg.dim))
    if field == "complex":
        matrix = matrix + 1j * rng.standard_normal((alg.dim, alg.dim))
    # scaled by 2**exponent, real and imaginary parts alike
    base = ts.LinearMap(np.ldexp(matrix.view(np.float64), exponent).view(matrix.dtype))
    spec = ts.PerturbationSpec(theta=theta, p=p, direction=direction, seed=17)
    stacked = ts.perturb_map(base, spec, alg.norm_of, alg.norm_of)
    pointwise = _reference_perturb(base, spec, alg.norm_of, alg.norm_of)
    control = ts.power_control(theta, p, arity=5, norm=alg.norm_of)
    return alg, stacked, pointwise, control


def _hypot(v) -> float:
    """The 2-norm in Python floats: l2_norm up to rounding, at a fraction of
    its call cost."""
    return math.hypot(*np.abs(v).tolist())


def _custom(theta, p, norm=l2_norm):
    """``theta * sum_i norm(a_i)**p`` as a custom control that declares the
    ratio ``2**(p-1)``: with ``l2_norm`` the custom twin of
    ``power_control(theta, p)``, the same ``phi``."""
    return ts.custom_control(lambda *args: theta * sum(norm(a) ** p for a in args),
                             ratio=2.0 ** (p - 1.0))


SQRT_CONTROL = _custom(0.1, 0.5, _hypot)


def _head(control, x) -> float:
    """``h = phi(x, x, 0, ...) / 2``, from which every bound of the ray of
    ``x`` follows."""
    x = np.asarray(x)
    return control.evaluate(x, x, *[np.zeros_like(x)] * (control.arity - 2)) / 2.0


def _stop(control, x, tol=1e-10):
    """The a-priori stop of the ray of ``x``, as a run's layout finds it."""
    return _ray_layout(control, np.asarray(x)[None], tol, ITERATION_CAP, [False]).stops[0]


def _tol_at(x, n, control=SQRT_CONTROL):
    """A ``tol`` that stops the ray of ``x`` at ``n``: its tail bound there
    (any ``tol`` stops a zero ``x`` at 0)."""
    return cauchy_tail_bound(control, x, n) or 1.0


def _points(alg):
    rng = np.random.default_rng(11)
    points = [alg.basis()[0], alg.basis()[-1], np.zeros(alg.dim, dtype=alg.dtype)]
    for _ in range(2):
        v = rng.standard_normal(alg.dim)
        if alg.field == "complex":
            v = v + 1j * rng.standard_normal(alg.dim)
        points.append(v.astype(alg.dtype))
    return points


def _outcome(fn, *args, **kwargs):
    """(value, n, trace) on success, (message, iterations, trace) on failure."""
    trace: list = []
    try:
        value, n = fn(*args, trace=trace, **kwargs)
    except NonConvergenceError as exc:
        return str(exc), exc.iterations, trace
    return value, n, trace


def _assert_same_outcome(got, want):
    assert type(got[0]) is type(want[0])
    if isinstance(want[0], str):
        assert got[0] == want[0]
    else:
        assert _same(got[0], want[0])
    assert got[1] == want[1]
    assert len(got[2]) == len(want[2])
    for row_got, row_want in zip(got[2], want[2]):
        assert row_got[0] == row_want[0]
        assert _same(row_got[1:], row_want[1:])


@pytest.fixture()
def perturbed_maps(oddpoly3, oddpoly3_module, oddpoly_derivation, identity2):
    spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=1)
    maps = [ts.perturb_map(oddpoly_derivation, spec, oddpoly3.norm_of, oddpoly3_module.norm_of)]
    maps += [ts.perturb_map(identity2, spec, oddpoly3.norm_of, oddpoly3.norm_of)] * 3
    control = ts.power_control(0.1, 0.5, arity=5, norm=oddpoly3.norm_of)
    return (*maps, control, oddpoly3_module)


class TestStackedHyersLimit:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bitwise_equal_to_one_step_loop(self, p, direction, field):
        alg, stacked, pointwise, control = _setup(field, direction, p)
        for x in _points(alg):
            got = _outcome(ts.hyers_limit, stacked, control, x, 1e-10, out_norm=alg.norm_of)
            want = _outcome(
                _reference_hyers_limit, pointwise, control, x, 1e-10, out_norm=alg.norm_of
            )
            _assert_same_outcome(got, want)

    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    def test_norm_scale(self, direction):
        alg, stacked, pointwise, control = _setup("complex", direction, 0.5, norm_scale=1.7)
        for x in _points(alg):
            got = _outcome(ts.hyers_limit, stacked, control, x, 1e-9, out_norm=alg.norm_of)
            want = _outcome(
                _reference_hyers_limit, pointwise, control, x, 1e-9, out_norm=alg.norm_of
            )
            _assert_same_outcome(got, want)

    @pytest.mark.parametrize("max_iter", [0, 1, 7])
    def test_max_iter_error_and_partial_trace(self, max_iter):
        alg, stacked, pointwise, control = _setup("real", "hash", 0.5)
        x = alg.basis()[1]
        got = _outcome(ts.hyers_limit, stacked, control, x, 1e-10, max_iter=max_iter)
        want = _outcome(_reference_hyers_limit, pointwise, control, x, 1e-10, max_iter=max_iter)
        assert isinstance(want[0], str) and "max_iter" in want[0]
        _assert_same_outcome(got, want)

    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    def test_overflow_at_512_and_partial_trace(self, direction):
        # the doubling ray 2**k x of x = 2**512 e_2 leaves double range at
        # k = 512, long before the a-priori stop at p = 0.95 is reached;
        # column 2 of the base matrix has entries below 1, so f stays finite
        # up to k = 511
        alg, stacked, pointwise, control = _setup("real", direction, 0.95)
        x = np.ldexp(alg.basis()[2], 512)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(ts.hyers_limit, stacked, control, x, 1e-10)
            want = _outcome(_reference_hyers_limit, pointwise, control, x, 1e-10)
        assert want[:2] == ("iterate at n=512 overflowed", 512)
        assert len(want[2]) == 511
        _assert_same_outcome(got, want)

    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    def test_p095_converges_at_a_priori_stop(self, direction):
        # |2**n x| passes 2**512 on the way, whose square overflows a naive
        # 2-norm; the stop lies near n = 700
        alg, stacked, pointwise, control = _setup("real", direction, 0.95)
        for x in alg.basis():
            stop = _stop(control, x)
            assert 512 < stop < ITERATION_CAP
            got = _outcome(ts.hyers_limit, stacked, control, x, 1e-10, out_norm=alg.norm_of)
            with np.errstate(over="ignore"):  # one-row norms warn before their rescale
                want = _outcome(
                    _reference_hyers_limit, pointwise, control, x, 1e-10, out_norm=alg.norm_of
                )
            assert got[1] == stop and np.all(np.isfinite(got[0]))
            assert all(np.isfinite(row[1]) for row in got[2])
            _assert_same_outcome(got, want)

    def test_p095_experiment_passes(self):
        raw = json.loads((CONFIGS / "oddpoly3_p05.json").read_text())
        raw.pop("out")
        raw["control"]["p"] = 0.95
        for spec in raw["perturbation"].values():
            spec["p"] = 0.95
        result = ts.run_experiment(raw, write_files=False)
        assert result.all_passed, result.report["errors"]
        control = ts.power_control(0.1, 0.95, arity=5)
        stops = [_stop(control, e) for e in np.eye(2)]
        assert result.report["recovered"]["iterations"] == {name: stops for name in "fghk"}

    def test_custom_control_experiment_passes(self):
        # odd-poly cap 5 under the custom 0.1 * sum |a_i|**0.5 with fixed
        # perturbations: the tail bound stops at 51, where the recovered maps
        # lie within tol of the truth; a stop at the first successive
        # difference <= tol (n = 44) left 1.4 tol and failed the identity
        register_custom_control("sqrt-tenth", lambda *args: 0.1 * sum(
            l2_norm(a) ** 0.5 for a in args), 2.0**-0.5)
        raw = json.loads((CONFIGS / "oddpoly3_p05.json").read_text())
        raw.pop("out")
        raw["algebra"]["cap"] = 5
        raw["control"] = {"kind": "custom", "name": "sqrt-tenth", "arity": 5}
        for spec in raw["perturbation"].values():
            spec.update(theta=0.1, p=0.5, direction="fixed")
        raw["samples"]["identity_triples"] = 20
        raw["tol"] = 1e-8
        report = ts.run_experiment(raw, write_files=False).report
        assert report["recovered"]["iterations"] == {name: [51] * 3 for name in "fghk"}
        assert max(report["recovered"]["truth_error"].values()) <= 1e-8
        assert report["identity_residuals"]["passed"] and report["all_passed"]

    def test_recover_matrix_keeps_partial_rows(self, oddpoly3_module, oddpoly_derivation,
                                               identity2):
        # maps scaled by 2**512 send 2**512 e_i out of double range, so every
        # basis vector fails at n = 512
        mod = oddpoly3_module
        alg = mod.algebra
        big = ts.LinearMap(np.ldexp(identity2.matrix, 512))
        spec = ts.PerturbationSpec(theta=0.1, p=0.95, direction="fixed")
        f = ts.perturb_map(big, spec, alg.norm_of, mod.norm_of)
        g = ts.perturb_map(big, spec, alg.norm_of, alg.norm_of)
        control = ts.power_control(0.1, 0.95, arity=5, norm=alg.norm_of)
        with np.errstate(over="ignore", invalid="ignore"):
            report = ts.direct_method_stabilize(
                f, g, g, g, control, mod, bound_points=2, identity_triples=2
            )
        assert report.iterations["f"] == [512, 512]
        assert {fail["message"] for fail in report.failures} == {"iterate at n=512 overflowed"}
        for name in "fghk":
            rows = report.traces[name]
            assert [(b, n) for b, n, _, _ in rows] == [
                (b, n) for b in range(alg.dim) for n in range(1, 512)
            ]

    def test_custom_control_keeps_the_loop(self):
        # the trace carries the custom tail bounds, not NaN
        alg, stacked, pointwise, _ = _setup("real", "hash", 0.5)
        x = alg.basis()[2]
        got = _outcome(ts.hyers_limit, stacked, SQRT_CONTROL, x, 1e-6)
        want = _outcome(_reference_hyers_limit, pointwise, SQRT_CONTROL, x, 1e-6)
        _assert_same_outcome(got, want)
        n = got[1]
        assert [row[2] for row in got[2]] == cauchy_tail_bound(SQRT_CONTROL, x, range(1, n + 1))
        assert all(math.isfinite(row[2]) for row in got[2])


def _untraced(fn, *args, **kwargs):
    """(value, n, []) on success, (message, iterations, []) on failure."""
    try:
        value, n = fn(*args, **kwargs)
    except NonConvergenceError as exc:
        return str(exc), exc.iterations, []
    return value, n, []


def _quiet(fn, *args, **kwargs):
    """``fn``'s outcome with numpy's overflow warnings silenced, as the
    reference's one-row norms warn before their rescale."""
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def _loud(fn, *args, **kwargs):
    """``fn``'s outcome; a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args, **kwargs)


class TestRowsRead:
    """A power control evaluates row ``n`` and the traced rows before it
    alone; outcomes must equal the one-step loop's bitwise."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.95])
    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_untraced_equals_one_step_loop(self, p, direction, field):
        # f leaves double range on the ray of x = 2**500 e_0 at row 523,
        # past the stop at p = 0.1 and before it from p = 0.5 on; the maps
        # scaled by 2**512 do so at row 512 or so, before the stop only at
        # p = 0.95
        alg, stacked, pointwise, control = _setup(field, direction, p)
        big = np.ldexp(alg.basis()[0].real, 500).astype(alg.dtype)
        cases = [(stacked, pointwise, x) for x in _points(alg) + [big]]
        _, scaled, scaled_pointwise, _ = _setup(field, direction, p, exponent=512)
        cases += [(scaled, scaled_pointwise, x) for x in alg.basis()]
        outcomes = []
        for max_iter in (0, 1, 7, 20, 1000):
            for f, reference, x in cases:
                args = (control, x, 1e-10, max_iter, alg.norm_of)
                want = _quiet(_untraced, _reference_hyers_limit, reference, *args)
                _assert_same_outcome(_loud(_untraced, ts.hyers_limit, f, *args), want)
                outcomes.append(want[0] if isinstance(want[0], str) else "converged")
        far = _quiet(_untraced, _reference_hyers_limit, pointwise, control, big, 1e-10)
        if p > 0.1:
            assert far[:2] == ("iterate at n=523 overflowed", 523)
        assert "converged" in outcomes and "max_iter 20 exceeded" in " ".join(outcomes)
        assert any("overflowed" in outcome for outcome in outcomes) == (p > 0.1)

    def test_tabulated_map_needs_only_x_and_row_n(self):
        control = ts.power_control(0.1, 0.5)
        x = np.array([1.0, 0.0])
        n = _stop(control, x)
        far = np.ldexp(x, n)
        table = ts.EvaluableMap.tabulated([(x, 3.0 * x), (far, 3.0 * far)], 2, 2)
        value, stop = ts.hyers_limit(table, control, x, 1e-10)
        assert stop == n and _same(value, 3.0 * x)
        with pytest.raises(ValueError, match="not tabulated"):
            ts.hyers_limit(table, control, x, 1e-10, trace=[])

    @pytest.mark.parametrize("p", [0.1, 0.9, 0.95])
    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    def test_bounded_trace_is_the_head_of_the_full_trace(self, p, direction):
        alg, stacked, _, control = _setup("complex", direction, p)
        big = np.ldexp(alg.basis()[0].real, 500).astype(alg.dtype)
        for x in _points(alg) + [big]:
            for max_iter in (0, 7, 1000):
                args = (stacked, control, x, 1e-10, max_iter)
                full = _loud(_outcome, ts.hyers_limit, *args)
                for rows in (0, 1, 10, 1000):
                    (head,) = _loud(_core, stacked, control, x[None], 1e-10, max_iter,
                                    trace_rows=rows)
                    _assert_same_outcome(head, full[:2] + (full[2][:rows],))

    @pytest.mark.parametrize("exponent", [0, 512])
    @pytest.mark.parametrize("mode", ["lie", "jordan"])
    def test_stabilize_without_traces(self, exponent, mode):
        # at p = 0.95 the maps scaled by 2**512 fail on every basis vector
        alg = ts.odd_polynomial_algebra(5, "complex")
        mod = ts.self_module(alg)
        ident = ts.LinearMap(np.ldexp(np.eye(alg.dim), exponent).astype(alg.dtype))
        maps = [ts.perturb_map(ident, ts.PerturbationSpec(0.1, p, "hash", seed=seed), alg.norm_of,
                               alg.norm_of)
                for seed, p in enumerate((0.95, 0.5, 0.5, 0.95))]
        control = ts.power_control(0.1, 0.95, arity=5 if mode == "lie" else 3, norm=alg.norm_of)
        kwargs = dict(mode=mode, bound_points=3, identity_triples=2, seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            full = ts.direct_method_stabilize(*maps, control, mod, **kwargs)
            kept = ts.direct_method_stabilize(*maps, control, mod, keep_traces=False, **kwargs)
        assert bool(full.failures) == (exponent == 512)
        for field in ("convergence_rates", "iterations", "failures", "phi_tilde_values",
                      "max_bound_violation", "max_identity_residual", "linearity_max"):
            assert repr(getattr(kept, field)) == repr(getattr(full, field)), field
        for name, rows in full.traces.items():
            assert kept.traces[name] == [row for row in rows if row[1] <= 10]
            assert max(row[1] for row in rows) > 10


def _max_norm(v):
    """A norm that is no space's ``norm_of``: one call per row."""
    return float(np.abs(v).max())


def _assert_custom_equal(stacked, pointwise, x, tol, control=SQRT_CONTROL, **kwargs):
    """Outcomes of ``hyers_limit`` on the stacked and the per-row map under
    a custom control, each bitwise equal to the one-step loop's and without
    a warning; the reference's outcome is returned."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(_reference_hyers_limit, pointwise, control, x, tol, **kwargs)
    for f in (stacked, pointwise):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(ts.hyers_limit, f, control, x, tol, **kwargs)
        _assert_same_outcome(got, want)
    return want


class TestOneDoublingPath:
    """Custom controls take the power controls' path: the stop is the first
    ``n`` whose Cauchy tail bound is at most ``tol``, found before one stack
    of the rows read; outcomes must equal the one-step loop's bitwise."""

    FIELDS = pytest.mark.parametrize("field", ["real", "complex"])
    DIRECTIONS = pytest.mark.parametrize("direction", ["fixed", "hash"])

    @FIELDS
    @DIRECTIONS
    def test_stops_at_chosen_rows(self, field, direction):
        alg, stacked, pointwise, _ = _setup(field, direction, 0.5)
        for x in _points(alg):
            for n in (0, 1, 5, 33, 64):
                want = _assert_custom_equal(stacked, pointwise, x, _tol_at(x, n))
                assert want[1] == (n if x.any() else 0)

    @FIELDS
    @DIRECTIONS
    @pytest.mark.parametrize("max_iter", [0, 1, 31, 32, 33, 1000])
    def test_max_iter(self, field, direction, max_iter):
        # a custom p = 0.99 control's tail bound stays above 1e-9 past row
        # 1000, so no row up to max_iter stops; tol = the tail bound of the
        # p = 0.5 one at row 32 stops at 32
        alg, stacked, pointwise, _ = _setup(field, direction, 0.99)
        x = alg.basis()[2]
        want = _assert_custom_equal(stacked, pointwise, x, 1e-9, _custom(0.1, 0.99, _hypot),
                                    max_iter=max_iter)
        assert want[1] == max_iter and "did not converge" in want[0]
        want = _assert_custom_equal(stacked, pointwise, x, _tol_at(x, 32), max_iter=max_iter)
        assert want[1] == min(max_iter, 32)

    @FIELDS
    @DIRECTIONS
    def test_overflow_before_and_after_the_stop(self, field, direction):
        # 2**k x of x = 2**500 e_0 sends f out of double range at k = 523;
        # the tail bound is summed up to k = 499 and stays above 1e-6 up to
        # 1000, so the ray fails there, and tol = the bound at n stops before
        alg, stacked, pointwise, _ = _setup(field, direction, 0.99)
        x = np.ldexp(alg.basis()[0].real, 500).astype(alg.dtype)
        want = _assert_custom_equal(stacked, pointwise, x, 1e-6)
        assert want[:2] == ("iterate at n=523 overflowed", 523) and len(want[2]) == 522
        for n in (300, 499, 500):
            assert _assert_custom_equal(stacked, pointwise, x, _tol_at(x, n))[1] == n

    @DIRECTIONS
    def test_foreign_out_norm(self, direction):
        alg, stacked, pointwise, _ = _setup("complex", direction, 0.5)
        for x in _points(alg):
            for tol in [_tol_at(x, n) for n in (1, 32, 33, 64)] + [1e-20]:
                _assert_custom_equal(stacked, pointwise, x, tol, out_norm=_max_norm)

    def test_evaluate_stack_calls(self, monkeypatch):
        # one stack per call, power or custom control, stacked or per-row
        # map: x and row n untraced, x and the whole ray traced, and x and
        # row max_iter when no row up to max_iter stops
        alg, stacked, pointwise, control = _setup("real", "fixed", 0.5)
        x = alg.basis()[1]
        rows = []
        original = ts.EvaluableMap.evaluate_stack

        def counting(self, xs):
            rows.append(len(xs))
            return original(self, xs)

        monkeypatch.setattr(ts.EvaluableMap, "evaluate_stack", counting)
        for ctrl in (control, SQRT_CONTROL):
            for f in (stacked, pointwise):
                for tol in (1e-3, 1e-10, 1e-14):
                    rows.clear()
                    _, n = ts.hyers_limit(f, ctrl, x, tol)
                    assert rows == [2]
                    rows.clear()
                    assert ts.hyers_limit(f, ctrl, x, tol, trace=[])[1] == n
                    assert rows == [n + 1]
        # the tail bound at 1e-20 stops past row 100
        for max_iter in (0, 1, 32, 33, 100):
            rows.clear()
            with pytest.raises(NonConvergenceError):
                ts.hyers_limit(stacked, SQRT_CONTROL, x, 1e-20, max_iter=max_iter)
            assert rows == [2 if max_iter else 1]
        rows.clear()
        exact = ts.EvaluableMap.from_linear(ts.LinearMap(np.eye(alg.dim)))
        value, _ = ts.hyers_limit(exact, SQRT_CONTROL, x, 1e-10)
        assert _same(value, x) and rows == [2]

    def test_per_row_maps_need_only_the_points_up_to_the_stop(self):
        # f(x) = 3x at the tol that stops at n = 1: neither map is asked for
        # a point past 2x
        x = np.array([1.0, 0.0])
        table = ts.EvaluableMap.tabulated([(x, 3.0 * x), (2.0 * x, 6.0 * x)], 2, 2)

        def bounded(v):
            if l2_norm(v) > 2.0:
                raise ValueError("outside the domain")
            return 3.0 * v

        for f in (table, ts.EvaluableMap(2, 2, bounded)):
            for trace in (None, []):
                value, n = ts.hyers_limit(f, SQRT_CONTROL, x, _tol_at(x, 1), trace=trace)
                assert n == 1 and _same(value, 3.0 * x)

    def test_divergent_control_raises_before_any_doubling(self):
        # |a|**2 doubles its terms 2**-(k+1) phi(2**k x, ...) per row
        calls = []

        def counted(v):
            calls.append(v)
            return 3.0 * v

        f = ts.EvaluableMap(2, 2, counted)
        x = np.array([0.6, 0.8])
        with pytest.raises(DivergentControlError):
            ts.hyers_limit(f, ts.custom_control(lambda *args: sum(l2_norm(a) ** 2 for a in args),
                                                ratio=0.9), x, 1e-10)
        assert calls == []


class TestAPrioriStop:
    def test_matches_linear_scan(self):
        alg = ts.odd_polynomial_algebra(3)
        rng = np.random.default_rng(5)
        for p in (0.0, 0.1, 0.37, 0.5, 0.9, 0.95, 0.99):
            for theta in (0.0, 1e-12, 0.1, 3.0):
                control = ts.power_control(theta, p, arity=5)
                for tol in (1e-14, 1e-10, 1e-3):
                    x = rng.standard_normal(alg.dim) * 10.0 ** rng.uniform(-3, 3)
                    for limit in (0, 5, 1000):
                        scan = next(
                            (n for n in range(limit + 1)
                             if cauchy_tail_bound(control, x, n) <= tol),
                            None,
                        )
                        stop = _a_priori_stop(control, _head(control, x), tol, limit)
                        assert stop == scan
        # custom ratios down to 0 and up to 1 - 1e-6, and heads from 0 to inf
        # and NaN, against a scan over the tail bound itself
        controls = [ts.power_control(0.1, 0.5)] + [ts.custom_control(lambda *args: 0.0, ratio=r)
                                                   for r in (0.0, 1e-9, 0.5, 0.999999)]
        for control in controls:
            for h in (0.0, 5e-324, 1e-10, 1.0, 1e308, math.inf, math.nan):
                for tol in (1e-300, 1e-10, 1e-3):
                    for limit in (0, 1, 1000):
                        scan = next((n for n in range(limit + 1)
                                     if stability._tail(control, h, n) <= tol), None)
                        assert _a_priori_stop(control, h, tol, limit) == scan

    def test_custom_twin_gets_the_power_stop(self):
        # the twin declares L = 2**(p-1): on the whole grid, down to tol
        # 1e-40, it stops where the power control does, and its traced tails
        # and majorants agree with the power control's
        rng = np.random.default_rng(8)
        points = np.stack([*np.eye(3), rng.standard_normal(3), np.zeros(3)])
        z = np.zeros(3)
        for p in (0.1, 0.5, 0.9):
            for theta in (0.1, 3.0):
                power, custom = ts.power_control(theta, p), _custom(theta, p)
                np.testing.assert_allclose(
                    ts.summed_majorant(custom, (points, points, z, z, z)),
                    ts.summed_majorant(power, (points, points, z, z, z)), rtol=1e-13)
                for tol in (1e-6, 1e-10, 1e-30, 1e-40):
                    want, got = (_ray_layout(c, points, tol, ITERATION_CAP, [True] * len(points))
                                 for c in (power, custom))
                    assert got.stops == want.stops
                    assert want.stops[-1] == 0
                    for mine, theirs in zip(got.tails, want.tails):
                        np.testing.assert_allclose(mine or [], theirs or [], rtol=1e-13)
        # a tol far below any term a series summed to 1e-30 would reach
        x = np.array([1.0, 0.0])
        ident = ts.EvaluableMap(2, 2, lambda v: v)
        for tol, stop in ((1e-30, 197), (1e-40, 263)):
            for control in (ts.power_control(0.1, 0.5), _custom(0.1, 0.5)):
                assert ts.hyers_limit(ident, control, x, tol)[1] == stop

    def test_custom_control_takes_a_few_calls_per_ray(self):
        # phi at (x, x, 0, ...) and at twice that, once per ray, give the
        # stop, the traced tails and the ratio check; each bound point takes
        # two calls for its majorant.  A summed series took 200 to 1,000
        # calls per ray.
        calls = []

        def fn(*args):
            calls.append(len(args))
            return 0.1 * sum(l2_norm(a) ** 0.5 for a in args)

        alg = ts.odd_polynomial_algebra(5)
        mod = ts.self_module(alg)
        spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="fixed", seed=2)
        ident = ts.LinearMap.identity(alg.dim)
        maps = [ts.perturb_map(ident, spec, alg.norm_of, alg.norm_of)] * 4
        control = ts.custom_control(fn, ratio=2.0**-0.5)
        report = ts.direct_method_stabilize(*maps, control, mod, tol=1e-8, bound_points=4,
                                            identity_triples=2, linearity_points=3)
        assert report.converged and min(report.iterations["f"]) > 30
        assert len(calls) == 2 * (alg.dim + 3) + 2 * 4

    def test_tail_bound_sequence_equals_scalar_calls(self):
        x = np.array([0.3, -2.0])
        qs = range(0, 40, 3)
        for control in (ts.power_control(0.1, 0.7, arity=5), _custom(0.1, 0.7)):
            got = cauchy_tail_bound(control, x, qs)
            assert got == [cauchy_tail_bound(control, x, q) for q in qs]
            assert all(b < a for a, b in zip(got, got[1:]))
            with pytest.raises(ValueError):
                cauchy_tail_bound(control, x, [2, -1])
        zero = ts.custom_control(lambda *args: 0.0, ratio=0.5)
        assert cauchy_tail_bound(zero, x, [0, 5]) == [0.0, 0.0]


class TestStackedEvaluation:
    @pytest.mark.parametrize("norm_scale", [1.0, 2.5])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_hash_units_equal_integer_reference(self, field, norm_scale):
        alg = dataclasses.replace(ts.odd_polynomial_algebra(5, field), norm_scale=norm_scale)
        rng = np.random.default_rng(8)
        xs = rng.standard_normal((20, alg.dim)).astype(alg.dtype)
        if field == "complex":
            xs = xs + 1j * rng.standard_normal((20, alg.dim))
        complex_out = field == "complex"
        for seed in (0, 24, -5, 2**70 + 3):
            units = _hash_units(seed, xs, 4, complex_out, alg.norm_of)
            for row, unit in zip(xs, units):
                assert _same(unit, _reference_hash_unit(seed, row, 4, complex_out, alg.norm_of))

    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stack_rows_equal_single_points(self, direction, field):
        alg, stacked, pointwise, _ = _setup(field, direction, 0.5)
        xs = np.stack(_points(alg))
        values = stacked.evaluate_stack(xs)
        for x, value in zip(xs, values):
            assert _same(value, stacked(x))
            assert _same(value, pointwise(x))
        assert stacked.evaluate_stack(xs[:0]).shape == (0, alg.dim)

    def test_pointwise_kinds_get_one_row_per_call(self):
        shapes = []

        def fn(x):
            shapes.append(np.shape(x))
            return 2.0 * x

        f = ts.EvaluableMap(2, 2, fn)
        control = ts.power_control(0.1, 0.5)
        ts.hyers_limit(f, control, np.array([1.0, 0.0]), 1e-10)
        assert len(shapes) > 1 and set(shapes) == {(2,)}
        np.testing.assert_array_equal(f.evaluate_stack(np.eye(2)), 2.0 * np.eye(2))
        assert set(shapes) == {(2,)}

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_exact_linear_map_takes_the_stack_in_one_call(self, field, order):
        alg = ts.odd_polynomial_algebra(5, field)
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((3, alg.dim))
        if field == "complex":
            matrix = matrix + 1j * rng.standard_normal((3, alg.dim))
        lm = ts.LinearMap(matrix)
        xs = np.asarray(np.stack(_points(alg) * 3), order=order)
        shapes = []

        def counting(x):
            shapes.append(np.shape(x))
            return lm.apply(x)

        counted = ts.EvaluableMap(lm.in_dim, lm.out_dim, counting, kind="exact-linear")
        values = counted.evaluate_stack(xs)
        assert shapes == [xs.shape]
        assert _same(values, ts.EvaluableMap.from_linear(lm).evaluate_stack(xs))
        for x, value in zip(xs, values):
            assert _same(value, lm(x))
        assert counted.evaluate_stack(xs[:0]).shape == (0, 3)
        for bad in (np.zeros((2, alg.dim + 1)), np.zeros((1, 2, alg.dim)), np.float64(1.0)):
            with pytest.raises(ts.DimensionMismatch):
                lm.apply(bad)

    def test_tabulated_map_evaluates_rows_and_raises_off_table(self):
        points = [(np.array([1.0, 0.0]), np.array([3.0, 4.0])),
                  (np.array([0.0, 1.0]), np.array([5.0, 6.0]))]
        f = ts.EvaluableMap.tabulated(points, 2, 2)
        np.testing.assert_array_equal(f.evaluate_stack(np.eye(2)), [[3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(ValueError, match="not tabulated"):
            f.evaluate_stack(np.array([[2.0, 0.0]]))
        with pytest.raises(ValueError, match="not tabulated"):
            ts.hyers_limit(f, ts.power_control(0.1, 0.5), np.array([1.0, 0.0]), 1e-10)

    def test_stack_shape_is_checked(self):
        alg, stacked, _, _ = _setup("real", "fixed", 0.5)
        with pytest.raises(ts.DimensionMismatch):
            stacked.evaluate_stack(np.zeros((3, alg.dim + 1)))
        with pytest.raises(ts.DimensionMismatch):
            stacked.evaluate_stack(np.zeros(alg.dim))


class TestHashDirections:
    """A hash direction is a pure function of (seed, the point rounded to 9
    decimals), of unit norm, whatever else is evaluated beside it."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_row_gets_one_unit_in_any_stack_or_call(self, field):
        alg = ts.odd_polynomial_algebra(5, field)
        rng = np.random.default_rng(9)
        xs = _random_vector(rng, alg.dim, alg.field, count=12)
        complex_out = field == "complex"
        alone = [_hash_units(3, row[None], 3, complex_out, alg.norm_of)[0] for row in xs]
        order = rng.permutation(len(xs))
        for stack, rows in ((xs, range(len(xs))), (xs[order], order),
                            (np.vstack([xs, xs]), list(range(len(xs))) * 2)):
            for unit, i in zip(_hash_units(3, stack, 3, complex_out, alg.norm_of), rows):
                assert _same(unit, alone[i])
        # two maps built apart, one evaluated point by point
        spec = ts.PerturbationSpec(theta=1.0, p=0.0, direction="hash", seed=3)
        zero = ts.LinearMap.zero(alg.dim, alg.dim, alg.dtype)
        first, second = (ts.perturb_map(zero, spec, alg.norm_of, alg.norm_of) for _ in "ab")
        stacked = first.evaluate_stack(xs)
        for x, value in zip(xs, stacked):
            assert _same(second(x), value)
        assert _same(stacked, np.array(alone))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rows_that_round_to_one_point_share_a_unit(self, field):
        alg = ts.odd_polynomial_algebra(5, field)
        rng = np.random.default_rng(10)
        grid = np.round(_random_vector(rng, alg.dim, alg.field, count=8), 9)
        grid[:, 0] = 0.0
        complex_out = field == "complex"
        want = _hash_units(7, grid, 3, complex_out, alg.norm_of)
        for shift in (1e-11, -1e-11, 3e-10, -3e-10):
            near = grid + shift
            if complex_out:
                near = near + 1j * shift
            # the zero coordinates now round to +0.0 or -0.0
            assert np.array_equal(np.round(near, 9), grid)
            assert _same(_hash_units(7, near, 3, complex_out, alg.norm_of), want)
        moved = grid + 2e-9
        assert not (_hash_units(7, moved, 3, complex_out, alg.norm_of) == want).all(axis=1).any()

    def test_seeds_give_different_units(self):
        alg = ts.odd_polynomial_algebra(5, "complex")
        xs = _random_vector(np.random.default_rng(12), alg.dim, alg.field, count=6)
        seeds = [0, 1, 2, 7, -1, 2**63, 2**64 + 5]
        units = np.stack([_hash_units(seed, xs, 3, True, alg.norm_of) for seed in seeds])
        for i in range(len(seeds)):
            for j in range(i):
                assert not (units[i] == units[j]).all(axis=-1).any()
        # a seed is read mod 2**64
        assert _same(_hash_units(-1, xs, 3, True, alg.norm_of),
                     _hash_units(2**64 - 1, xs, 3, True, alg.norm_of))

    @pytest.mark.parametrize("norm_scale", [1.0, 0.3, 2.5])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_units_have_norm_one(self, field, norm_scale):
        alg = dataclasses.replace(ts.odd_polynomial_algebra(9, field), norm_scale=norm_scale)
        xs = _random_vector(np.random.default_rng(13), alg.dim, alg.field, count=500)
        for out_dim in (1, 5, 40):
            for norm in (alg.norm_of, None):
                units = _hash_units(11, xs, out_dim, field == "complex", norm)
                sizes = _norms_with(norm, units)
                assert np.abs(sizes - 1.0).max() <= 1e-15


class TestStackedChecks:
    @pytest.mark.parametrize("mode", ["lie", "jordan"])
    def test_reports_equal_pointwise_maps(self, mode):
        alg = ts.odd_polynomial_algebra(3, "complex")
        mod = ts.self_module(alg)
        ident = ts.LinearMap.identity(alg.dim, alg.dtype)
        deriv = ts.solve_exact_derivations(mod, ident, ident, ident)[0]
        stacked, pointwise = [], []
        for seed, base in enumerate((deriv, ident, ident, ident)):
            spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=seed)
            stacked.append(ts.perturb_map(base, spec, alg.norm_of, mod.norm_of))
            pointwise.append(_reference_perturb(base, spec, alg.norm_of, mod.norm_of))
        control = ts.power_control(0.1, 0.5, arity=5 if mode == "lie" else 3, norm=alg.norm_of)
        kwargs = dict(mode=mode, seed=4)
        got = ts.check_hypothesis(*stacked, control, mod, samples=6, lambda_grid=5, **kwargs)
        want = ts.check_hypothesis(*pointwise, control, mod, samples=6, lambda_grid=5, **kwargs)
        assert got == want
        got = ts.direct_method_stabilize(*stacked, control, mod, bound_points=7,
                                         identity_triples=3, **kwargs)
        want = ts.direct_method_stabilize(*pointwise, control, mod, bound_points=7,
                                          identity_triples=3, **kwargs)
        for field in ("iterations", "traces", "phi_tilde_values", "max_bound_violation",
                      "max_identity_residual", "linearity_max", "failures"):
            assert repr(getattr(got, field)) == repr(getattr(want, field)), field
        for name in ("derivation", "sigma", "tau", "xi"):
            assert _same(getattr(got, name).matrix, getattr(want, name).matrix)

    @pytest.mark.parametrize("mode", ["lie", "jordan"])
    @pytest.mark.parametrize("samples", [0, 1, 7])
    def test_one_stack_per_map_per_call(self, perturbed_maps, monkeypatch, samples, mode):
        f, g, h, k, _, mod = perturbed_maps
        control = ts.power_control(0.1, 0.5, arity=5 if mode == "lie" else 3,
                                   norm=mod.algebra.norm_of)
        calls = []
        original = ts.EvaluableMap.evaluate_stack

        def counting(self, xs):
            calls.append(self)
            return original(self, xs)

        monkeypatch.setattr(ts.EvaluableMap, "evaluate_stack", counting)
        ts.check_hypothesis(f, g, h, k, control, mod, samples=samples, mode=mode)
        # one stack per distinct map: the fixture's g, h and k are one object
        assert g is h is k
        assert [id(m) for m in calls] == [id(m) for m in (f, g)]

    def test_zero_samples(self, perturbed_maps):
        f, g, h, k, control, mod = perturbed_maps
        report = ts.check_hypothesis(f, g, h, k, control, mod, samples=0)
        assert report == ts.HypothesisReport(
            mode="lie", tuples_checked=0, lambda_count=2, max_residual=0.0,
            min_slack=math.inf, violations=0, worst=None,
        )


def _reference_recover_matrix(evaluable, control, alg, tol, max_iter, out_norm, name,
                              traces, iterations, failures, trace_rows):
    """The per-basis-vector loop: one ``hyers_limit`` call per column."""
    columns = []
    iters = []
    rows = []
    for i in range(alg.dim):
        basis_vec = np.zeros(alg.dim, dtype=alg.dtype)
        basis_vec[i] = 1.0
        local: list = []
        try:
            col, n = ts.hyers_limit(
                evaluable, control, basis_vec, tol, max_iter, out_norm, trace=local,
            )
        except NonConvergenceError as exc:
            failures.append(
                {"map": name, "basis_index": i, "code": exc.code, "message": str(exc)}
            )
            col = np.zeros(evaluable.out_dim, dtype=alg.dtype)
            n = exc.iterations if exc.iterations is not None else 0
        columns.append(col)
        iters.append(n)
        rows.extend((i, *row) for row in local[:trace_rows])
    iterations[name] = iters
    traces[name] = rows
    return ts.LinearMap(np.column_stack(columns))


def _reference_linearity(named, recovered, control, alg, tol, max_iter, seed, count):
    """The per-point linearity loop, points outside and maps inside: the
    running maximum, or the first error as ``(message, iterations)``."""
    rng = np.random.default_rng([seed, 0x51])
    linearity_max = 0.0
    try:
        for x in _random_vector(rng, alg.dim, alg.field, count=count):
            for name, evaluable, out_norm in named:
                fresh, _ = ts.hyers_limit(evaluable, control, x, tol, max_iter, out_norm)
                linearity_max = max(
                    linearity_max, float(out_norm(recovered[name](x) - fresh))
                )
    except NonConvergenceError as exc:
        return str(exc), exc.iterations
    return linearity_max


def _core(f, control, xs, tol, max_iter=ITERATION_CAP, out_norm=None, traced=True,
          trace_rows=None):
    """``_stacked_limits``'s outcomes for the one member ``(f, layout)``, in
    the form of ``_outcome``, the map's one trace split into the rows of
    each ray as ``hyers_limit`` keeps them."""
    layout = _ray_layout(control, xs, tol, max_iter, [traced] * len(xs), trace_rows)
    (outcomes, trace), = _stacked_limits([(f, layout)], out_norm)
    # ray by ray: a stable sort by ray index leaves it as it is
    assert trace == sorted(trace, key=lambda row: row[0])
    traces = [[row[1:] for row in trace if row[0] == r] for r in range(len(xs))]
    return [
        (str(got), got.iterations, trace) if isinstance(got, NonConvergenceError)
        else (*got, trace)
        for got, trace in zip(outcomes, traces)
    ]


def _per_point(f, control, xs, tol, max_iter=ITERATION_CAP, out_norm=None, traced=True,
               trace_rows=None):
    """``hyers_limit``'s outcome at each point alone."""
    args = (f, control)
    if traced:
        # a bounded trace is the head of the full one, as
        # test_bounded_trace_is_the_head_of_the_full_trace checks
        found = (_outcome(ts.hyers_limit, *args, x, tol, max_iter, out_norm) for x in xs)
        return [(*got[:2], got[2][:trace_rows]) for got in found]
    return [_untraced(ts.hyers_limit, *args, x, tol, max_iter, out_norm) for x in xs]


def _assert_core_equals_per_point(f, control, xs, tol, **kwargs):
    """The stacked core's outcomes, bitwise equal to ``hyers_limit``'s at
    each point alone and without a warning."""
    got = _loud(_core, f, control, xs, tol, **kwargs)
    want = _loud(_per_point, f, control, xs, tol, **kwargs)
    assert len(got) == len(want) == len(xs)
    for one, other in zip(got, want):
        _assert_same_outcome(one, other)
    return got


def _assert_direct_method_equals_loops(maps, control, mod, tol=1e-10, max_iter=ITERATION_CAP,
                                       keep_traces=True, count=5, seed=3):
    """``direct_method_stabilize``'s recovered maps, iterations, failures,
    traces, rates and linearity result (a value, or the error it raises),
    bitwise equal to the per-basis and per-point loops; returns the
    failures."""
    alg = mod.algebra
    named = list(zip("fghk", maps, (mod.norm_of,) + (alg.norm_of,) * 3))
    kwargs = dict(tol=tol, max_iter=max_iter, seed=seed, bound_points=2, identity_triples=2,
                  linearity_points=count, keep_traces=keep_traces)
    traces, iterations, failures = {}, {}, []
    with np.errstate(over="ignore", invalid="ignore"):
        recovered = {
            name: _reference_recover_matrix(m, control, alg, tol, max_iter, norm, name, traces,
                                            iterations, failures, None if keep_traces else 10)
            for name, m, norm in named
        }
        want = (_reference_linearity(named, recovered, control, alg, tol, max_iter, seed, count)
                if not failures else 0.0)
        if isinstance(want, tuple):
            with pytest.raises(NonConvergenceError) as exc:
                ts.direct_method_stabilize(*maps, control, mod, **kwargs)
            assert (str(exc.value), exc.value.iterations) == want
            return failures
        report = ts.direct_method_stabilize(*maps, control, mod, **kwargs)
    assert repr(report.traces) == repr(traces)
    assert report.iterations == iterations and report.failures == failures
    assert repr(report.convergence_rates) == repr(
        {name: _rate_estimate(rows) for name, rows in traces.items()})
    for name, lm in zip("fghk", (report.derivation, report.sigma, report.tau, report.xi)):
        assert _same(lm.matrix, recovered[name].matrix)
    assert repr(report.linearity_max) == repr(want)
    return failures


TRACE_MODES = [dict(traced=False), dict(traced=True), dict(traced=True, trace_rows=10)]


def _blocks(alg):
    """Unit vectors (one norm), points of mixed norms with a zero row, and the
    unit vectors beside ``2**500 e_0``, whose ray leaves double range."""
    big = np.ldexp(alg.basis()[0].real, 500).astype(alg.dtype)
    rng = np.random.default_rng(21)
    return [alg.basis(), np.stack(_points(alg)), np.vstack([alg.basis(), big[None]]),
            _random_vector(rng, alg.dim, alg.field, count=5)]


def _random_maps(alg):
    """Four perturbed random linear maps with hash directions."""
    rng = np.random.default_rng(6)
    maps = []
    for seed, p in enumerate((0.5, 0.9, 0.1, 0.5)):
        matrix = rng.standard_normal((alg.dim, alg.dim)).astype(alg.dtype)
        spec = ts.PerturbationSpec(theta=0.1, p=p, direction="hash", seed=seed)
        maps.append(ts.perturb_map(ts.LinearMap(matrix), spec, alg.norm_of, alg.norm_of))
    return maps


def _overflowing(m, row):
    """The stacked map ``m``, but infinite at ``2**k e_0`` for ``k >= row``."""
    def fn(xs):
        xs = np.asarray(xs)
        if xs.ndim == 1:
            return fn(xs[None])[0]
        out = m.fn(xs)
        out[(xs[:, 1:] == 0).all(axis=1) & (xs[:, 0].real >= 2.0**row)] = np.inf
        return out

    return ts.EvaluableMap(m.in_dim, m.out_dim, fn, m.kind)


class TestStackedCore:
    """``_stacked_limits`` evaluates every ray of a block in one stack; each
    outcome must equal ``hyers_limit``'s at its point alone, which the tests
    above hold to the one-step loop, and the direct method's basis and
    linearity results, one evaluation per map on one ray layout per run,
    must equal the per-point loops they replaced."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.95])
    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_block_equals_per_point(self, p, direction, field):
        alg, stacked, _, control = _setup(field, direction, p)
        flat = ts.power_control(0.0, p, arity=5, norm=alg.norm_of)
        for xs in _blocks(alg):
            for max_iter in (0, 1, 7, 1000):
                for mode in TRACE_MODES:
                    for ctrl in (control, flat):
                        _assert_core_equals_per_point(stacked, ctrl, xs, 1e-10,
                                                      max_iter=max_iter,
                                                      out_norm=alg.norm_of, **mode)

    @pytest.mark.parametrize("p", [0.5, 0.95])
    def test_one_overflowing_ray_leaves_the_others(self, p):
        # x = 2**500 e_0 leaves double range at row 523, before its stop; the
        # unit vectors beside it converge, and a zero row returns f(0)
        alg, stacked, _, control = _setup("real", "hash", p)
        big = np.ldexp(alg.basis()[0], 500)
        xs = np.vstack([alg.basis()[:1], big, np.zeros(alg.dim), alg.basis()[1:]])
        for mode in TRACE_MODES:
            got = _assert_core_equals_per_point(stacked, control, xs, 1e-10, **mode)
            assert got[1][:2] == ("iterate at n=523 overflowed", 523)
            assert len(got[1][2]) == (0 if not mode["traced"] else
                                      522 if "trace_rows" not in mode else 10)
            stop = _stop(control, alg.basis()[0])
            assert [outcome[1] for outcome in got] == [stop, 523, 0] + [stop] * (alg.dim - 1)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_per_row_maps_and_custom_controls(self, field):
        alg, stacked, pointwise, control = _setup(field, "hash", 0.5)
        custom = SQRT_CONTROL
        for xs in _blocks(alg):
            for max_iter in (0, 7, 1000):
                for mode in TRACE_MODES:
                    _assert_core_equals_per_point(pointwise, control, xs, 1e-10,
                                                  max_iter=max_iter, **mode)
                    for f in (stacked, pointwise):
                        with np.errstate(over="ignore", invalid="ignore"):
                            _assert_core_equals_per_point(f, custom, xs, 1e-6,
                                                          max_iter=max_iter, **mode)

    @pytest.mark.parametrize("kind", ["stacked", "pointwise"])
    def test_custom_control_advances_every_ray_per_stack(self, monkeypatch, kind):
        # one stack holds every ray's rows, as under a power control, and a
        # second one the whole ray of a ray with a row that is not finite
        # (here 2**500 e_0), so a block of rays takes as many stacks as its
        # longest ray alone
        alg, stacked, pointwise, _ = _setup("real", "hash", 0.5)
        f = stacked if kind == "stacked" else pointwise
        stacks = []
        original = ts.EvaluableMap.evaluate_stack

        def counting(self, xs):
            stacks.append(len(xs))
            return original(self, xs)

        monkeypatch.setattr(ts.EvaluableMap, "evaluate_stack", counting)
        for xs in _blocks(alg):
            alone = []
            for x in xs:
                stacks.clear()
                with np.errstate(over="ignore", invalid="ignore"):
                    _untraced(ts.hyers_limit, f, SQRT_CONTROL, x, 1e-6)
                alone.append(len(stacks))
            stacks.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                _core(f, SQRT_CONTROL, xs, 1e-6, traced=False)
            assert len(stacks) == max(alone) == 1 + bool(np.abs(xs).max() > 2.0**400)

    def test_tabulated_block_needs_only_x_and_row_n(self):
        # the table holds each point and its row n alone: an untraced block
        # must not ask for any other point
        control = ts.power_control(0.1, 0.5)
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8], [3.0, 4.0], [0.0, 0.0]])
        stops = [_stop(control, x) for x in xs[:4]]
        table = [(x, 3.0 * x) for x in xs]
        table += [(np.ldexp(x, n), np.ldexp(3.0 * x, n)) for x, n in zip(xs, stops)]
        f = ts.EvaluableMap.tabulated(table, 2, 2)
        got = _assert_core_equals_per_point(f, control, xs, 1e-10, traced=False)
        assert [n for _, n, _ in got] == stops + [0]
        for x, (value, _, _) in zip(xs, got):
            assert _same(value, 3.0 * x)
        with pytest.raises(ValueError, match="not tabulated"):
            _core(f, control, xs, 1e-10)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.95])
    @pytest.mark.parametrize("direction", ["fixed", "hash"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_recover_matrix_equals_per_basis_loop(self, p, direction, field):
        # f and h are the case's map, g and k the plain stacked one, so the
        # maps of one run fail, or not, apart: at p = 0.95 the 2**512-scaled
        # f and h overflow before the stop while g and k converge; small
        # max_iter stops rays short too, beside linearity points that are
        # still drawn and evaluated
        alg, stacked, pointwise, control = _setup(field, direction, p)
        _, scaled, _, _ = _setup(field, direction, p, exponent=512)
        mod = ts.self_module(alg)
        flat = ts.power_control(0.0, p, arity=5, norm=alg.norm_of)
        custom = SQRT_CONTROL
        cases = [(stacked, control), (scaled, control), (stacked, flat), (pointwise, control)]
        if p == 0.5:
            cases.append((stacked, custom))
        for f, ctrl in cases:
            for max_iter in (0, 1, 7, 1000):
                for keep_traces in (True, False):
                    failures = _assert_direct_method_equals_loops(
                        (f, stacked, f, stacked), ctrl, mod, max_iter=max_iter,
                        keep_traces=keep_traces, count=3)
                    if max_iter == 1000:
                        assert {fail["map"] for fail in failures} == (
                            {"f", "h"} if f is scaled and p == 0.95 else set())

    @pytest.mark.parametrize("keep_traces", [True, False])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_direct_method_equals_per_point_loops(self, field, keep_traces):
        alg, _, _, _ = _setup(field, "hash", 0.5)
        mod = ts.self_module(alg)
        maps = _random_maps(alg)
        for p in (0.1, 0.5, 0.95):
            control = ts.power_control(0.1, p, arity=5, norm=alg.norm_of)
            for max_iter in (1, 1000):
                for count in (0, 1, 5, 20):
                    failures = _assert_direct_method_equals_loops(
                        maps, control, mod, max_iter=max_iter, keep_traces=keep_traces,
                        count=count)
                    assert bool(failures) == (max_iter == 1)

    @pytest.mark.parametrize("keep_traces", [True, False])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_layout_fallback_equals_per_point_loops(self, monkeypatch, field, keep_traces):
        # g leaves double range on the ray of e_0 from row 20 on, before the
        # stop at 64, while f, h, k and g's other rays stay finite.  Traced
        # to row 10 only, that ray reads rows 1..10 and its last row (64, or
        # 30 under max_iter 30, which leaves every ray without a stop) and
        # is evaluated again, whole.  One layout per run, one evaluation per
        # map on its stack, and one more for g's ray when it was cut
        alg, _, _, _ = _setup(field, "hash", 0.5)
        mod = ts.self_module(alg)
        control = ts.power_control(0.1, 0.5, arity=5, norm=alg.norm_of)
        maps = _random_maps(alg)
        maps[1] = _overflowing(maps[1], 20)
        overflow = {"map": "g", "basis_index": 0, "code": "NONCONVERGENT",
                    "message": "iterate at n=20 overflowed"}
        capped = [{"map": name, "basis_index": i, "code": "NONCONVERGENT",
                   "message": "doubling iteration did not converge: max_iter 30 exceeded"}
                  for name in "fghk" for i in range(alg.dim)]
        capped[alg.dim] = overflow
        for max_iter, want in ((1000, [overflow]), (30, capped)):
            assert _assert_direct_method_equals_loops(
                maps, control, mod, max_iter=max_iter, keep_traces=keep_traces) == want

        layouts, stacks = [], []
        layout, evaluate = stability._ray_layout, ts.EvaluableMap.evaluate_stack

        def counting_layout(*args, **kwargs):
            layouts.append(len(args[1]))
            return layout(*args, **kwargs)

        def counting_stack(self, xs):
            stacks.append("fghk"[[m is self for m in maps].index(True)])
            return evaluate(self, xs)

        monkeypatch.setattr(stability, "_ray_layout", counting_layout)
        monkeypatch.setattr(ts.EvaluableMap, "evaluate_stack", counting_stack)
        for max_iter in (1000, 30):
            layouts.clear()
            stacks.clear()
            ts.direct_method_stabilize(*maps, control, mod, max_iter=max_iter,
                                       keep_traces=keep_traces, seed=3, bound_points=2,
                                       identity_triples=2)
            assert layouts == [alg.dim + 5]
            # the doubling, g's whole ray when it was cut, and the bounds
            assert {name: stacks.count(name) for name in "fghk"} == {
                "f": 2, "g": 2 if keep_traces else 3, "h": 2, "k": 2}

    def test_linearity_raises_the_first_error_in_point_then_map_order(self):
        # g and h leave double range on the ray of one linearity point each,
        # from a row of their own, which the error names
        alg = ts.odd_polynomial_algebra(5)
        mod = ts.self_module(alg)
        control = ts.power_control(0.1, 0.5, arity=5, norm=alg.norm_of)
        points = _random_vector(np.random.default_rng([0, 0x51]), alg.dim, alg.field, count=5)

        def breaks(point, row):
            def fn(x):
                k = round(math.log2(l2_norm(x) / l2_norm(point))) if x.any() else 0
                if k >= row and np.array_equal(x, np.ldexp(point, k)):
                    return np.full(alg.dim, math.inf)
                return x.copy()

            return ts.EvaluableMap(alg.dim, alg.dim, fn)

        ident = ts.EvaluableMap.from_linear(ts.LinearMap.identity(alg.dim))
        recovered = {name: ts.LinearMap.identity(alg.dim) for name in "fghk"}
        # (g's point and row, h's point and row, the row named)
        for (g_at, g_row), (h_at, h_row), row in (((1, 5), (0, 3), 3), ((0, 5), (0, 3), 5),
                                                  ((2, 7), (3, 4), 7)):
            maps = [ident, breaks(points[g_at], g_row), breaks(points[h_at], h_row), ident]
            named = list(zip("fghk", maps, (mod.norm_of,) + (alg.norm_of,) * 3))
            want = _reference_linearity(named, recovered, control, alg, 1e-10,
                                        ITERATION_CAP, 0, 5)
            assert want == (f"iterate at n={row} overflowed", row)
            with pytest.raises(NonConvergenceError) as exc:
                ts.direct_method_stabilize(*maps, control, mod, seed=0, bound_points=2,
                                           identity_triples=2)
            assert (str(exc.value), exc.value.iterations) == want

    def test_evaluations_per_map_do_not_grow_with_dim_or_points(self, monkeypatch):
        # origin check, basis and linearity points together, and bounds: one
        # evaluator call each per map, whatever dim and linearity_points; the
        # four maps share one stop plan, so the unit vectors of the basis,
        # which share one h, take one stop search per run
        searches = []
        original = stability._a_priori_stop

        def counting_search(control, h, *args):
            searches.append(h)
            return original(control, h, *args)

        monkeypatch.setattr(stability, "_a_priori_stop", counting_search)
        spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=2)
        for alg in (ts.odd_polynomial_algebra(3), ts.trivial_matrix_algebra(2),
                    ts.trivial_matrix_algebra(3)):
            control = ts.power_control(0.1, 0.5, arity=5, norm=alg.norm_of)
            unit = _head(control, alg.basis()[0])
            mod = ts.self_module(alg)
            for count in (1, 5, 20):
                calls = []

                def counted(name, base):
                    m = ts.perturb_map(base, spec, alg.norm_of, alg.norm_of)

                    def fn(xs):
                        calls.append(name)
                        return m.fn(xs)

                    return ts.EvaluableMap(m.in_dim, m.out_dim, fn, m.kind)

                ident = ts.LinearMap.identity(alg.dim)
                maps = [counted(name, ident) for name in "fghk"]
                searches.clear()
                report = ts.direct_method_stabilize(*maps, control, mod, linearity_points=count,
                                                    bound_points=3, identity_triples=2)
                assert report.converged and report.linearity_points == count
                assert {name: calls.count(name) for name in "fghk"} == dict.fromkeys("fghk", 3)
                assert searches.count(unit) == 1 and len(searches) == len(set(searches))
