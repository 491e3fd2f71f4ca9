"""The order-keeping row-norm kernel and the stacked norms built on it.

``algebra._row_norms`` must give every row of a stack the bits of
``np.linalg.norm`` on that row alone, whatever the layout of the stack; the
module checks and the hypothesis sampling that now take their norms on
stacks are compared below with copies of the per-row code they replaced.
The module check's chains sum over q by matrix products, in another order
than the reference's einsums: bitwise on exact modules, within the rounding
bound of ``conftest._law_bound`` on random ones.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import ternstab as ts
from ternstab import algebra as algebra_mod
from ternstab.algebra import _random_vector, _row_norms, l2_norm, ternary_product
from ternstab.control import summed_majorant
from ternstab.module import _CHAINS, product_abx, product_axb, product_xab
from ternstab.stability import _lambda_grid

DIMS = list(range(1, 41)) + [64, 81, 256]


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _per_row(vectors) -> np.ndarray:
    vectors = np.asarray(vectors)
    flat = vectors.reshape(-1, vectors.shape[-1])
    return np.array([np.linalg.norm(row) for row in flat]).reshape(vectors.shape[:-1])


def _stack(rng, shape, field, scale=0):
    v = rng.standard_normal(shape)
    if field == "complex":
        v = v + 1j * rng.standard_normal(shape)
    return np.ldexp(1.0, scale) * v if scale else v


class TestKernel:
    @pytest.mark.parametrize("scale", [0, 300, -300])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_layouts_match_per_row_norm(self, field, scale):
        rng = np.random.default_rng(7)
        for d in DIMS:
            a = _stack(rng, (12, d), field, scale)
            layouts = {
                "contiguous": a,
                "row-strided": a[::3],
                "column-strided": _stack(rng, (6, 2 * d), field, scale)[:, ::2],
                "reversed": a[:, ::-1],
                "fortran": np.asfortranarray(a),
                "3-d": _stack(rng, (3, 4, d), field, scale),
                # a chain difference: leading axes transposed, rows of unit stride
                "transposed leading axes": _stack(rng, (3, 2, 4, d), field, scale)
                .transpose(2, 0, 1, 3),
                "transposed, row-strided": _stack(rng, (4, 6, d), field, scale)[:, ::2]
                .transpose(1, 0, 2),
                "empty": a[:0],
            }
            for name, stack in layouts.items():
                assert _same(_row_norms(stack), _per_row(stack)), (d, name)

    def test_integer_input_and_zero_width_rows(self):
        ints = np.arange(-12, 12).reshape(6, 4)
        assert _same(_row_norms(ints), _per_row(ints))
        assert _same(_row_norms(np.zeros((3, 0))), np.zeros(3))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_l2_norm_is_the_one_vector_case(self, field):
        rng = np.random.default_rng(2)
        for d in DIMS:
            v = _stack(rng, d, field)
            assert _same(l2_norm(v), float(np.linalg.norm(v)))
        matrix = _stack(rng, (5, 7), field)
        assert _same(l2_norm(matrix), float(np.linalg.norm(matrix)))
        assert _same(l2_norm(np.asfortranarray(matrix)), float(np.linalg.norm(matrix.T)))
        assert l2_norm([3, 4]) == 5.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_overflowing_rows_are_rescaled(self, field):
        rng = np.random.default_rng(4)
        stack = _stack(rng, (6, 5), field)
        stack[1] *= 2.0**600
        stack[3] *= 2.0**1020
        stack[4, 2] = np.inf
        stack[5] = 1.7e308
        with np.errstate(over="ignore"):
            norms = _row_norms(stack)
            one = _row_norms(stack[1])
        # the other rows keep their bits
        for i in (0, 2):
            assert _same(norms[i], np.linalg.norm(stack[i]))
        for i, shift in ((1, 600), (3, 1020)):
            assert norms[i] == np.ldexp(np.linalg.norm(stack[i] * 2.0**-shift), shift)
        assert _same(one, norms[1])
        assert norms[4] == np.inf  # an infinite entry
        assert norms[5] == np.inf  # the norm itself leaves double range
        with np.errstate(over="ignore"):
            assert l2_norm(stack[1]) == norms[1]
        # the same rows in a stack whose leading axes are transposed
        view = np.stack([stack, stack[::-1]]).transpose(1, 0, 2)
        assert not view.flags.c_contiguous and view.strides[-1] == view.itemsize
        with np.errstate(over="ignore"):
            assert _same(_row_norms(view), np.stack([norms, norms[::-1]], axis=1))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rescaled_overflow_does_not_warn(self, field):
        rng = np.random.default_rng(5)
        stack = _stack(rng, (3, 5), field)
        stack[1] *= 2.0**600
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = _row_norms(stack)
            one = _row_norms(stack[1])
            alone = l2_norm(stack[1])
        want = np.ldexp(np.linalg.norm(stack[1] * 2.0**-600), 600)
        assert norms[1] == one == alone == want
        assert _same(norms[0], np.linalg.norm(stack[0]))


def _one_draw(rng, dim, field, scale=1.0):
    """``_random_vector`` before it drew stacks: one vector per call, scaled
    inside the draw as it was while the draw took a ``scale``."""
    v = rng.standard_normal(dim)
    if field == "complex":
        v = v + 1j * rng.standard_normal(dim)
    return scale * v


class TestRandomVectors:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("dim, count, scale", [
        (3, None, 1.0), (3, 5, 0.7), (3, 0, 1.0), ((3, 3, 2), 4, 1.0), ((2, 5), None, 2.0),
    ])
    def test_one_draw_equals_single_draws(self, field, dim, count, scale):
        # callers scale the draw themselves, which gives the old scaled draw's bits
        mine = np.random.default_rng(1)
        got = _random_vector(mine, dim, field, count=count)
        got = scale * got if np.ndim(dim) == 0 else [scale * g for g in got]
        rng = np.random.default_rng(1)
        lengths = np.atleast_1d(dim)
        items = [[_one_draw(rng, n, field, scale) for n in lengths]
                 for _ in range(1 if count is None else count)]
        want = [np.reshape([item[s] for item in items], (count, n)) if count is not None
                else items[0][s] for s, n in enumerate(lengths)]
        dtype = np.complex128 if field == "complex" else np.float64
        for g, w in zip(got if np.ndim(dim) else [got], want):
            assert _same(g, w.astype(dtype))
        # the stream continues where the single draws left it
        assert mine.standard_normal() == rng.standard_normal()


def _scaled(alg, factor):
    return dataclasses.replace(alg, norm_scale=factor)


def _custom_module(alg):
    """The self-module under a 1-norm, which the kernel does not know."""
    t = alg.structure
    return ts.TernaryModule(alg, alg.dim, t, t, t, norm=lambda v: float(np.abs(v).sum()))


def _random_module(alg, dim, seed, integer=False):
    """Normal entries, or with ``integer`` entries in -2..2 (complex: integer
    real and imaginary parts), whose sums are exact in any order."""
    rng = np.random.default_rng(seed)
    da = alg.dim
    shapes = ((dim, da, da, dim), (da, dim, da, dim), (da, da, dim, dim))
    if integer:
        prods = [rng.integers(-2, 3, shape) + (1j * rng.integers(-2, 3, shape)
                                               if alg.field == "complex" else 0)
                 for shape in shapes]
    else:
        prods = [_stack(rng, shape, alg.field) for shape in shapes]
    return ts.TernaryModule(alg, dim, *prods)


def _copied_self_module(alg):
    """The self-module of ``alg`` on copies of its tensor, with plans of its own."""
    return ts.TernaryModule(alg, alg.dim, *[alg.structure.copy()] * 3, norm=alg.norm_of)


class TestNormsOf:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stacked_norms_equal_norm_of_rows(self, field):
        alg = _scaled(ts.trivial_matrix_algebra(2, field), 1.7)
        stack = _stack(np.random.default_rng(1), (3, 5, alg.dim), field)
        modules = [ts.self_module(alg), _copied_self_module(alg),
                   _custom_module(alg)]
        for space in [alg] + modules:
            loop = np.array([[space.norm_of(row) for row in block] for block in stack])
            assert _same(space.norms_of(stack), loop)
            assert _same(space.norms_of(stack[0, :0]), np.zeros(0))

    def test_self_module_does_not_loop(self, monkeypatch):
        calls = []
        original = ts.TernaryAlgebra.norm_of

        def counting(self, v):
            calls.append(1)
            return original(self, v)

        monkeypatch.setattr(ts.TernaryAlgebra, "norm_of", counting)
        alg = ts.trivial_matrix_algebra(2, "complex")
        stack = np.ones((50, alg.dim))
        for mod in (ts.self_module(alg), _copied_self_module(alg)):
            assert mod.norms_of(stack).shape == (50,)
            ts.check_module_axioms(mod, 1e-9, samples=20)
        assert calls == []
        _custom_module(alg).norms_of(stack)
        assert calls == []
        assert ts.TernaryModule(alg, alg.dim, *[alg.structure] * 3,
                                norm=lambda v: alg.norm_of(v)).norms_of(stack).shape == (50,)
        assert len(calls) == 50


def _gathered(spec: str, t1: np.ndarray, t2: np.ndarray, idx: dict) -> np.ndarray:
    """One ``_CHAINS`` expression at sampled basis tuples.

    ``idx`` maps each of the letters a, b, c, d, x to an index array of
    length n; the result has shape ``(n, dX)``.
    """
    first, second = spec.split("->")[0].split(",")
    left = t1[tuple(idx[s] for s in first[:-1])]
    # move q next to r so the two gathered axes stay in front: (n, q, r)
    right = np.moveaxis(t2, second.index("q"), 2)
    right = right[tuple(idx[s] for s in second if s not in "qr")]
    return np.einsum("nq,nqr->nr", left, right)


def _loop_norms(space, vectors):
    flat = vectors.reshape(-1, vectors.shape[-1])
    return np.array([space.norm_of(row) for row in flat]).reshape(vectors.shape[:-1])


def _reference_module_check(mod, tol, samples=1000, seed=0, budget=1_000_000):
    """The module check with one norm per row and one product per sample."""
    alg = mod.algebra
    tensors = {
        "TA": alg.structure,
        "Pxab": mod.product_xab,
        "Paxb": mod.product_axb,
        "Pabx": mod.product_abx,
    }
    total = alg.dim**4 * mod.dim
    chain_residuals = dict.fromkeys(_CHAINS, 0.0)

    def record(name, vals):
        res = np.maximum(_loop_norms(mod, vals[0] - vals[1]), _loop_norms(mod, vals[1] - vals[2]))
        chain_residuals[name] = max(chain_residuals[name], float(res.max()))

    if total <= budget:
        for name, exprs in _CHAINS.items():
            record(name, [np.einsum(spec, tensors[t1], tensors[t2]) for spec, (t1, t2) in exprs])
        tuples_checked = total
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        tuples_checked = min(budget, 100_000)
        ia = rng.integers(0, alg.dim, size=(4, tuples_checked))
        ix = rng.integers(0, mod.dim, size=tuples_checked)
        for start in range(0, tuples_checked, algebra_mod._TUPLE_CHUNK):
            part = slice(start, start + algebra_mod._TUPLE_CHUNK)
            idx = dict(zip("abcd", ia[:, part]), x=ix[part])
            for name, exprs in _CHAINS.items():
                record(
                    name,
                    [_gathered(spec, tensors[t1], tensors[t2], idx) for spec, (t1, t2) in exprs],
                )
        exhaustive = False

    rng = np.random.default_rng(seed + 1)
    violation = 0.0
    for _ in range(samples):
        a = _random_vector(rng, alg.dim, alg.field)
        b = _random_vector(rng, alg.dim, alg.field)
        x = _random_vector(rng, mod.dim, alg.field)
        lhs = max(
            mod.norm_of(product_xab(mod, x, a, b)),
            mod.norm_of(product_axb(mod, a, x, b)),
            mod.norm_of(product_abx(mod, a, b, x)),
        )
        rhs = alg.norm_of(a) * alg.norm_of(b) * mod.norm_of(x)
        violation = max(violation, lhs - rhs)

    max_chain = max(chain_residuals.values())
    return ts.ModuleReport(
        chain_residuals=chain_residuals,
        max_chain_residual=max_chain,
        norm_violation=float(violation),
        norm_samples=samples,
        tuples_checked=tuples_checked,
        exhaustive=exhaustive,
        tol=float(tol),
        passed=tuples_checked > 0 and max_chain <= tol and violation <= tol,
    )


def _reference_check_hypothesis(f, g, h, k, control, mod, signs=ts.LIE_SIGNS, lambda_grid=16,
                                samples=50, seed=0, mode="lie"):
    """The hypothesis sampling with one residual norm per lambda."""
    alg = mod.algebra
    lams = _lambda_grid(alg.field, lambda_grid)
    rng = np.random.default_rng([seed, 0x48])
    zeros_a = np.zeros(alg.dim, dtype=alg.dtype)

    def bracket(first, b, c):
        return product_xab(mod, first, h_at[b], k_at[c]) - product_abx(
            mod, g_at[c], h_at[b], first
        )

    max_residual = 0.0
    min_slack = float("inf")
    violations = 0
    worst = None

    for index in range(samples):
        scale = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        x = scale * _random_vector(rng, alg.dim, alg.field)
        y = scale * _random_vector(rng, alg.dim, alg.field)
        u = scale * _random_vector(rng, alg.dim, alg.field)
        if mode == "lie":
            v = scale * _random_vector(rng, alg.dim, alg.field)
            w = scale * _random_vector(rng, alg.dim, alg.field)
            phi_main = control.evaluate(x, y, u, v, w)
            phi_add = control.evaluate(x, y, zeros_a, zeros_a, zeros_a)
        else:
            v = w = u
            phi_main = control.evaluate(x, y, u)
            phi_add = control.evaluate(x, y, zeros_a)
        triple = ternary_product(alg, u, v, w)
        sums = [lam * x + lam * y for lam in lams]
        fx, fy, fu, fv, fw, *f_args = f.evaluate_stack(
            np.stack([x, y, u, v, w] + [s + triple for s in sums])
        )
        points = np.stack([x, y, u, v, w] + sums)
        g_at, h_at, k_at = (m.evaluate_stack(points) for m in (g, h, k))
        bracket_sum = (
            signs.s1 * bracket(fu, 3, 4)
            + signs.s2 * bracket(fv, 2, 4)
            + signs.s3 * bracket(fw, 3, 2)
        )
        for j, lam in enumerate(lams):
            res_main = mod.norm_of(f_args[j] - lam * fx - lam * fy - bracket_sum)
            checks = [("main", res_main, phi_main)]
            for name, at in (("g", g_at), ("h", h_at), ("k", k_at)):
                res = alg.norm_of(at[5 + j] - lam * at[0] - lam * at[1])
                checks.append((name, float(res), phi_add))
            for name, res, phi in checks:
                slack = phi - res
                max_residual = max(max_residual, res)
                if slack < min_slack:
                    min_slack = slack
                    worst = {
                        "inequality": name,
                        "sample": index,
                        "lambda": [float(np.real(lam)), float(np.imag(lam))],
                        "residual": res,
                        "phi": phi,
                        "slack": slack,
                    }
                if slack < -1e-12 * (1.0 + phi):
                    violations += 1

    return ts.HypothesisReport(
        mode=mode,
        tuples_checked=samples,
        lambda_count=len(lams),
        max_residual=float(max_residual),
        min_slack=float(min_slack),
        violations=violations,
        worst=worst,
    )


def _modules(field):
    alg = _scaled(ts.odd_polynomial_algebra(5, field), 1.3)
    return {
        "self": ts.self_module(alg),
        "custom-norm": _custom_module(alg),
        "dX=4": _random_module(alg, 4, seed=9),
        "dX=2": _random_module(ts.trivial_matrix_algebra(2, field), 2, seed=10),
        "integer dX=4": _random_module(alg, 4, seed=11, integer=True),
    }


# modules whose chain values are exact, so that any summation order gives their bits
EXACT = ("self", "custom-norm", "integer dX=4")


def _assert_module_reports_match(got, want, mod, exact, law_close):
    """Bitwise on an exact module; else each chain within the rounding bound
    and every other field bitwise."""
    if exact:
        assert repr(got) == repr(want)
        return
    alg = mod.algebra
    tensors = {"TA": alg.structure, "Pxab": mod.product_xab, "Paxb": mod.product_axb,
               "Pabx": mod.product_abx}
    for name, exprs in _CHAINS.items():
        law_close((got.chain_residuals[name], None), (want.chain_residuals[name], None),
                  exprs, tensors)
    chains = dict(chain_residuals=None, max_chain_residual=0.0)
    assert max(got.chain_residuals.values()) == got.max_chain_residual
    assert repr(dataclasses.replace(got, **chains)) == repr(dataclasses.replace(want, **chains))


class TestStackedChecksMatchPerRowCode:
    @pytest.mark.parametrize("budget", [1_000_000, 100])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_module_axioms(self, field, budget, law_close):
        for name, mod in _modules(field).items():
            kwargs = dict(samples=200, seed=5, budget=budget)
            got = ts.check_module_axioms(mod, 1e-9, **kwargs)
            want = _reference_module_check(mod, 1e-9, **kwargs)
            assert got.exhaustive == (budget > 1000)
            _assert_module_reports_match(got, want, mod, name in EXACT, law_close)

    def test_module_axioms_without_samples(self, law_close):
        mod = _modules("complex")["dX=4"]
        got = ts.check_module_axioms(mod, 1e-9, samples=0)
        assert got.norm_violation == 0.0
        want = _reference_module_check(mod, 1e-9, samples=0)
        _assert_module_reports_match(got, want, mod, False, law_close)

    @pytest.mark.parametrize("mode", ["lie", "jordan"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_hypothesis(self, field, mode):
        # the report keeps only extremes, so a norm that logs its input also
        # compares every residual vector, bitwise
        log = []

        def logged(v):
            log.append(np.asarray(v).tobytes())
            return float(np.abs(v).sum())

        plain = ts.odd_polynomial_algebra(5, field)
        for alg in (_scaled(plain, 1.3), dataclasses.replace(plain, norm=logged)):
            mod = ts.self_module(alg)
            rng = np.random.default_rng(6)
            maps = []
            for seed, out_norm in enumerate((mod.norm_of, alg.norm_of, alg.norm_of, alg.norm_of)):
                base = ts.LinearMap(_stack(rng, (alg.dim, alg.dim), field).astype(alg.dtype))
                direction = "fixed" if seed == 0 else "hash"
                spec = ts.PerturbationSpec(theta=0.2, p=0.5, direction=direction, seed=seed)
                maps.append(ts.perturb_map(base, spec, alg.norm_of, out_norm))
            arity = 5 if mode == "lie" else 3
            control = ts.power_control(0.1, 0.5, arity=arity, norm=alg.norm_of)
            kwargs = dict(lambda_grid=6, samples=8, seed=3, mode=mode)
            log.clear()
            got = ts.check_hypothesis(*maps, control, mod, **kwargs)
            got_log, log[:] = sorted(log), []
            want = _reference_check_hypothesis(*maps, control, mod, **kwargs)
            assert repr(got) == repr(want)
            assert got_log == sorted(log)
        assert len(got_log) > 4 * 8 * got.lambda_count

    @pytest.mark.parametrize("case", ["dX=4", "theta=0", "samples=1"])
    @pytest.mark.parametrize("mode", ["lie", "jordan"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_hypothesis_more_inputs(self, field, mode, case):
        # a module of another dimension than its algebra; zero maps under a
        # zero control, so that every slack ties at 0.0 and ``worst`` is the
        # first one; a single sample
        alg = _scaled(ts.odd_polynomial_algebra(5, field), 1.3)
        mod = _random_module(alg, 4, seed=9) if case == "dX=4" else ts.self_module(alg)
        theta = 0.0 if case == "theta=0" else 0.2
        rng = np.random.default_rng(6)
        maps = []
        for seed, (out_dim, out_norm) in enumerate([(mod.dim, mod.norm_of)]
                                                   + [(alg.dim, alg.norm_of)] * 3):
            shape = (out_dim, alg.dim)
            matrix = np.zeros(shape) if theta == 0.0 else _stack(rng, shape, field)
            spec = ts.PerturbationSpec(theta=theta, p=0.5, direction="fixed" if seed == 0
                                       else "hash", seed=seed)
            maps.append(ts.perturb_map(ts.LinearMap(matrix.astype(alg.dtype)), spec,
                                       alg.norm_of, out_norm))
        control = ts.power_control(theta, 0.5, arity=5 if mode == "lie" else 3,
                                   norm=alg.norm_of)
        kwargs = dict(lambda_grid=6, samples=1 if case == "samples=1" else 8, seed=3, mode=mode)
        got = ts.check_hypothesis(*maps, control, mod, **kwargs)
        assert repr(got) == repr(_reference_check_hypothesis(*maps, control, mod, **kwargs))
        if case == "theta=0":
            assert got.worst["sample"] == 0 and got.worst["inequality"] == "main"
            assert got.worst["lambda"] == [1.0, 0.0] and got.min_slack == 0.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bound_points(self, field):
        alg = _scaled(ts.odd_polynomial_algebra(3, field), 1.3)
        mod = ts.self_module(alg)
        ident = ts.LinearMap.identity(alg.dim, alg.dtype)
        deriv = ts.solve_exact_derivations(mod, ident, ident, ident)[0]
        spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=2)
        norms = (mod.norm_of, alg.norm_of, alg.norm_of, alg.norm_of)
        maps = [ts.perturb_map(base, spec, alg.norm_of, norm)
                for base, norm in zip((deriv, ident, ident, ident), norms)]
        control = ts.power_control(0.1, 0.5, arity=5, norm=alg.norm_of)
        report = ts.direct_method_stabilize(*maps, control, mod, seed=5, bound_points=9,
                                            identity_triples=2, linearity_points=1)
        # the bound points one at a time
        rng = np.random.default_rng([5, 0x52])
        zero = np.zeros(alg.dim, dtype=alg.dtype)
        recovered = (report.derivation, report.sigma, report.tau, report.xi)
        phis, worst = [], -np.inf
        for _ in range(9):
            x = _random_vector(rng, alg.dim, alg.field)
            bound = summed_majorant(control, (x, x, zero, zero, zero))
            phis.append(float(bound))
            for m, norm, limit in zip(maps, norms, recovered):
                worst = max(worst, float(norm(m(x) - limit(x))) - bound)
        assert repr(report.phi_tilde_values) == repr(phis)
        assert repr(report.max_bound_violation) == repr(worst)
