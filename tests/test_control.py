import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ternstab as ts
from ternstab.algebra import l2_norm
from ternstab.errors import DivergentControlError


def unit_x(dim=2):
    v = np.zeros(dim)
    v[0] = 1.0
    return v


def five_args(x):
    z = np.zeros_like(x)
    return (x, x, z, z, z)


def custom_twin(theta, p):
    """The power control ``theta * sum |arg|**p`` as a custom control that
    declares the power family's ratio ``2**(p-1)``."""

    def fn(*args):
        return theta * sum(np.linalg.norm(a) ** p for a in args if np.linalg.norm(a) > 0)

    return ts.custom_control(fn, arity=5, ratio=2.0 ** (p - 1.0))


def series(control, args, start=0, terms=480):
    """The damped series ``sum_{start <= n < terms} 2**-(n+1) phi(2**n args)``
    summed term by term: the reference the closed forms are checked against.
    Past 480 terms a ratio of 2**-0.25 leaves less than 2**-119 of it, and
    the squares of ``2**479 args`` stay finite for ``|args| < 2**32``."""
    total = 0.0
    for n in range(start, terms):
        total += math.ldexp(control.evaluate(*(a * 2.0**n for a in args)), -(n + 1))
    return total


def tail_series(control, x, q):
    """The Cauchy tail ``sum_{k >= q} (1/2) 2**-k phi(2**k x, 2**k x, 0, ...)``
    summed term by term from ``q``."""
    return series(control, five_args(x), start=q)


class TestPowerControl:
    def test_value_at_half_power(self):
        c = ts.power_control(1.0, 0.5)
        val = ts.summed_majorant(c, five_args(unit_x()))
        assert val == pytest.approx(2 + math.sqrt(2), abs=1e-12)

    def test_zero_control(self):
        c = ts.power_control(0.0, 0.5)
        assert ts.summed_majorant(c, five_args(unit_x())) == 0.0

    def test_p_zero_constant_terms(self):
        # zero slots contribute nothing even at p = 0, so the sum is
        # (1/2) * 2 * sum 2^-n = 2
        c = ts.power_control(1.0, 0.0)
        val = ts.summed_majorant(c, five_args(unit_x()))
        assert val == pytest.approx(2.0, abs=1e-12)
        assert series(c, five_args(unit_x())) == pytest.approx(2.0, rel=1e-12)
        twin = ts.summed_majorant(custom_twin(1.0, 0.0), five_args(unit_x()))
        assert twin == pytest.approx(2.0, rel=1e-13)

    def test_evaluate_examples(self):
        c = ts.power_control(2.0, 0.5)
        x = unit_x() * 4.0
        z = np.zeros(2)
        # |x| = 4, |x|^0.5 = 2; two live slots
        assert c.evaluate(x, x, z, z, z) == pytest.approx(8.0)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75])
    def test_numeric_64_terms_matches_closed_form(self, p):
        # the closed forms of the power control and its custom twin against
        # the series summed term by term
        c = ts.power_control(1.0, p)
        args = five_args(unit_x())
        closed = ts.summed_majorant(c, args)
        assert series(c, args) == pytest.approx(closed, rel=1e-10)
        assert series(custom_twin(1.0, p), args) == pytest.approx(closed, rel=1e-10)
        assert ts.summed_majorant(custom_twin(1.0, p), args) == pytest.approx(closed, rel=1e-13)

    def test_closed_form_general_arguments(self):
        rng = np.random.default_rng(0)
        c = ts.power_control(0.7, 0.3)
        args = tuple(rng.standard_normal(3) for _ in range(5))
        closed = ts.summed_majorant(c, args)
        expected = 0.7 * sum(np.linalg.norm(a) ** 0.3 for a in args) / (
            2 * (1 - 2 ** (0.3 - 1))
        )
        assert closed == pytest.approx(expected, rel=1e-13)
        assert series(c, args) == pytest.approx(closed, rel=1e-10)
        twin = ts.summed_majorant(custom_twin(0.7, 0.3), args)
        assert twin == pytest.approx(closed, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            ts.power_control(-1.0, 0.5)
        with pytest.raises(ValueError):
            ts.power_control(1.0, 1.0)
        with pytest.raises(ValueError):
            ts.power_control(1.0, 0.5, arity=4)

    @pytest.mark.parametrize("theta, p", [(math.inf, 0.5), (math.nan, 0.5), (-math.inf, 0.5),
                                          (0.1, math.nan)])
    def test_non_finite_parameters(self, theta, p):
        with pytest.raises(ValueError):
            ts.power_control(theta, p)
        with pytest.raises(ValueError):
            ts.PerturbationSpec(theta=theta, p=p)

    def test_arity_mismatch_on_call(self):
        c = ts.power_control(1.0, 0.5, arity=3)
        with pytest.raises(ValueError):
            c.evaluate(unit_x(), unit_x())


class TestCustomControl:
    def test_matches_power_when_identical(self):
        p = 0.4

        def fn(*args):
            return sum(np.linalg.norm(a) ** p if np.linalg.norm(a) > 0 else 0.0 for a in args)

        custom = ts.custom_control(fn, arity=5, ratio=2.0 ** (p - 1.0))
        power = ts.power_control(1.0, p)
        args = five_args(unit_x())
        got = ts.summed_majorant(custom, args)
        want = ts.summed_majorant(power, args)
        assert got == pytest.approx(want, rel=1e-13)
        assert series(custom, args) == pytest.approx(want, rel=1e-10)

    def test_zero_everywhere(self):
        c = ts.custom_control(lambda *a: 0.0, arity=5, ratio=0.5)
        assert ts.summed_majorant(c, five_args(unit_x())) == 0.0

    def test_negative_value_rejected(self):
        c = ts.custom_control(lambda *a: -1.0, arity=3, ratio=0.5)
        with pytest.raises(ValueError):
            c.evaluate(unit_x(), unit_x(), unit_x())

    def test_nan_value_rejected(self, oddpoly3_module, identity2):
        c = ts.custom_control(lambda *a: math.nan, arity=5, ratio=0.5)
        with pytest.raises(ValueError, match="NaN"):
            c.evaluate(*five_args(unit_x()))
        # so a NaN control cannot make the hypothesis hold unchecked
        f = ts.EvaluableMap.from_linear(identity2)
        with pytest.raises(ValueError, match="NaN"):
            ts.check_hypothesis(f, f, f, f, c, oddpoly3_module, samples=3)

    def test_inf_value_is_divergent(self):
        c = ts.custom_control(lambda *a: math.inf, arity=5, ratio=0.5)
        assert c.evaluate(*five_args(unit_x())) == math.inf
        with pytest.raises(DivergentControlError):
            ts.summed_majorant(c, five_args(unit_x()))

    def test_divergent_series_raises(self):
        # |a|**2 gives phi(2 args) = 4 phi(args), above 2 L phi(args) for any L < 1
        c = ts.custom_control(lambda *a: float(np.linalg.norm(a[0]) ** 2), arity=5, ratio=0.9)
        with pytest.raises(DivergentControlError):
            ts.summed_majorant(c, five_args(unit_x()))
        with pytest.raises(DivergentControlError):
            ts.cauchy_tail_bound(c, unit_x(), 3)

    def test_ratio_is_required(self):
        with pytest.raises(TypeError, match="ratio"):
            ts.custom_control(lambda *a: 0.0)
        with pytest.raises(ValueError, match="ratio must lie in"):
            ts.ControlFunction(kind="custom", arity=5, fn=lambda *a: 0.0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf, -0.1, 1.0, 1.5, True,
                                       False, "0.5", None])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="ratio must lie in"):
            ts.custom_control(lambda *a: 0.0, ratio=ratio)

    def test_power_ratio_is_derived(self):
        for p in (0.0, 0.3, 0.5, 0.99):
            assert ts.power_control(0.1, p).ratio == 2.0 ** (p - 1.0)

    def test_declared_ratio_is_checked_at_the_arguments(self):
        # sqrt meets L = 2**-0.5 with equality and any larger L; a smaller
        # one is refuted wherever phi is not 0
        def fn(*args):
            return sum(np.linalg.norm(a) ** 0.5 for a in args)

        args = five_args(unit_x())
        for ratio in (2.0**-0.5, 0.9):
            ts.summed_majorant(ts.custom_control(fn, ratio=ratio), args)
        low = ts.custom_control(fn, ratio=0.7)
        with pytest.raises(DivergentControlError):
            ts.summed_majorant(low, args)
        # zero arguments give phi = 0, which no ratio refutes
        assert ts.summed_majorant(low, five_args(np.zeros(2))) == 0.0


class TestCauchyTail:
    def test_q_zero_equals_majorant(self):
        c = ts.power_control(1.0, 0.5)
        x = unit_x()
        tail = ts.cauchy_tail_bound(c, x, 0)
        assert tail == pytest.approx(ts.summed_majorant(c, five_args(x)), rel=1e-13)

    def test_monotone_decreasing_in_q(self):
        c = ts.power_control(0.3, 0.7)
        x = unit_x() * 2.0
        tails = [ts.cauchy_tail_bound(c, x, q) for q in range(0, 40, 4)]
        assert all(b < a for a, b in zip(tails, tails[1:]))

    def test_zero_theta(self):
        c = ts.power_control(0.0, 0.5)
        assert ts.cauchy_tail_bound(c, unit_x(), 3) == 0.0

    def test_custom_tail_matches_power_closed_form(self):
        p = 0.5

        def fn(*args):
            return sum(np.linalg.norm(a) ** p if np.linalg.norm(a) > 0 else 0.0 for a in args)

        custom = ts.custom_control(fn, arity=5, ratio=2.0 ** (p - 1.0))
        power = ts.power_control(1.0, p)
        x = unit_x()
        for q in (0, 3, 10):
            got = ts.cauchy_tail_bound(custom, x, q)
            want = ts.cauchy_tail_bound(power, x, q)
            assert got == pytest.approx(want, rel=1e-13)
            assert tail_series(power, x, q) == pytest.approx(want, rel=1e-10)

    def test_rejects_negative_q(self):
        c = ts.power_control(1.0, 0.5)
        with pytest.raises(ValueError):
            ts.cauchy_tail_bound(c, unit_x(), -1)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _reference_power(control, args) -> float:
    """The power family summed one norm call per argument."""
    total = 0.0
    for v in args:
        nv = l2_norm(v) if control.norm is None else float(control.norm(v))
        if nv > 0.0:
            total += nv**control.p
    return control.theta * total


def _stacked_args(field, arity, rows, zeroed, seed, dim=3):
    """``arity`` stacks of ``rows`` points of length ``dim``; a ``mixed``
    field alternates complex and real stacks.  The last argument is a single
    zero vector, broadcast against the stacks."""
    rng = np.random.default_rng(seed)
    args = []
    for slot in range(arity - 1):
        stack = rng.standard_normal((rows, dim)) * np.exp(rng.uniform(-3.0, 3.0, (rows, 1)))
        if field == "complex" or (field == "mixed" and slot % 2 == 0):
            stack = stack + 1j * rng.standard_normal((rows, dim))
        for r, s in zeroed:
            if r < rows and s == slot:
                stack[r] = 0.0
        args.append(stack)
    args.append(np.zeros(dim, dtype=np.complex128 if field == "complex" else np.float64))
    return args


def _row(args, r):
    return [a[r] if a.ndim == 2 else a for a in args]


class TestStackedArguments:
    """A stack of arguments gives each row bitwise the value it gets alone."""

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex", "mixed"]),
        dim=st.sampled_from([3, 9]),
        norm_scale=st.sampled_from([None, 1.0, 0.3, 2.5]),
        theta=st.sampled_from([0.0, 0.1, 1.7]),
        p=st.sampled_from([0.0, 0.25, 0.5, 0.9]),
        arity=st.sampled_from([3, 5]),
        rows=st.integers(0, 5),
        zeroed=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_stack_equals_rows(self, field, dim, norm_scale, theta, p, arity, rows,
                                     zeroed, seed):
        # a real row stacked with complex ones gets other bits from d = 8 on
        alg = ts.odd_polynomial_algebra(2 * dim - 1, "real" if field == "real" else "complex")
        if norm_scale is not None:
            alg = dataclasses.replace(alg, norm_scale=norm_scale)
        norm = None if norm_scale is None else alg.norm_of
        control = ts.power_control(theta, p, arity, norm=norm)
        args = _stacked_args(field, arity, rows, zeroed, seed, dim)
        values = control.evaluate(*args)
        majorants = ts.summed_majorant(control, args)
        assert values.shape == majorants.shape == (rows,)
        for r in range(rows):
            row = _row(args, r)
            assert _bits(values[r]) == _bits(control.evaluate(*row))
            assert _bits(values[r]) == _bits(_reference_power(control, row))
            assert _bits(majorants[r]) == _bits(ts.summed_majorant(control, row))

    @settings(max_examples=15, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex", "mixed"]),
        rows=st.integers(0, 3),
        zeroed=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_custom_stack_calls_fn_per_row(self, field, rows, zeroed, seed):
        calls = []

        def fn(*args):
            calls.append(args)
            return 0.1 * sum(float(np.abs(v).sum()) ** 0.5 for v in args)

        control = ts.custom_control(fn, arity=3, ratio=2.0**-0.5)
        args = _stacked_args(field, 3, rows, zeroed, seed)
        values = control.evaluate(*args)
        assert values.shape == (rows,) and len(calls) == rows
        assert all(v.shape == (3,) for call in calls for v in call)
        majorants = ts.summed_majorant(control, args)
        for r in range(rows):
            row = _row(args, r)
            assert _bits(values[r]) == _bits(control.evaluate(*row))
            assert _bits(majorants[r]) == _bits(ts.summed_majorant(control, row))

    def test_single_vectors_give_a_float(self):
        c = ts.power_control(2.0, 0.5, arity=3)
        assert type(c.evaluate(unit_x() * 4.0, unit_x(), np.zeros(2))) is float
        bad = ts.custom_control(lambda *args: -float(args[0].sum()), arity=3, ratio=0.5)
        stack = np.ones((2, 2))
        with pytest.raises(ValueError, match="negative"):
            bad.evaluate(stack, stack, np.zeros(2))

    def test_zero_arguments_are_not_normed(self, monkeypatch):
        # phi(x, x, 0, 0, 0) norms the two x stacks only; an argument with a
        # zero row still is, and a stack of zero arguments gives zeros
        from ternstab import control as control_mod

        normed, norms_with = [], control_mod._norms_with

        def recording(norm, vectors):
            normed.append(vectors.shape)
            return norms_with(norm, vectors)

        monkeypatch.setattr(control_mod, "_norms_with", recording)
        c = ts.power_control(0.1, 0.5, arity=5)
        xs = np.random.default_rng(3).standard_normal((6, 4))
        zero, partly = np.zeros(4), np.vstack([np.zeros((1, 4)), xs[1:]])
        values = c.evaluate(xs, xs, zero, np.zeros((6, 4)), partly)
        assert normed == [(3, 6, 4)]
        assert _bits(values) == _bits([_reference_power(c, _row([xs, xs, zero, zero, partly], r))
                                       for r in range(6)])
        normed.clear()
        assert _bits(c.evaluate(*[np.zeros((6, 4))] * 5)) == _bits(np.zeros(6))
        assert c.evaluate(*[zero] * 5) == 0.0 and type(c.evaluate(*[zero] * 5)) is float
        assert normed == []
