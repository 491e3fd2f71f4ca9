"""Cross-checks of the shared contraction kernel against the formulas it
replaced.

Each reference below is the earlier direct formula, kept here verbatim in
spirit: a four-operand ``np.einsum`` per product, the dense three-stage
kernel, the bracket table contracted over a grid of basis vectors, the
six-einsum basis residual of the derivation solver, and the per-tuple loop
over the five module chains.
"""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest

import ternstab as ts
from ternstab import algebra as algebra_mod
from ternstab import maps as maps_mod
from ternstab import module as module_mod
from ternstab.algebra import _Plan, _trilinear
from ternstab.errors import DimensionMismatch

ALL_SIGNS = [ts.SignConvention(*s) for s in itertools.product((1, -1), repeat=3)]


def random_array(rng, shape, field):
    out = rng.standard_normal(shape)
    if field == "complex":
        out = out + 1j * rng.standard_normal(shape)
    return out


def einsum_product(tensor, a, b, c):
    return np.einsum("i,j,k,ijkl->l", a, b, c, tensor)


def planned(tensor, a, b, c):
    return _trilinear(_Plan.of(tensor), a, b, c)


def dense_trilinear(tensor, a, b, c):
    """``_trilinear`` without a plan: three products over every slab."""
    d1, d2, d3, dout = tensor.shape
    out = a[..., None, :] @ tensor.reshape(d1, d2 * d3 * dout)
    out = b[..., None, :] @ out.reshape(*out.shape[:-2], d2, d3 * dout)
    out = c[..., None, :] @ out.reshape(*out.shape[:-2], d3, dout)
    return out[..., 0, :]


def staged_terms(tensor):
    """The kernel rule's count of a tensor's staged first product: ``d1 d2``
    multiply-adds for each live pair ``(k, l)``, one with a nonzero ``T[i,
    j, k, l]``."""
    d1, d2 = tensor.shape[:2]
    return d1 * d2 * np.count_nonzero(np.any(tensor, axis=(0, 1)))


def random_module(rng, da, dx, field, scale=1.0):
    alg = ts.TernaryAlgebra(da, field, scale * random_array(rng, (da,) * 4, field))
    return ts.TernaryModule(
        algebra=alg,
        dim=dx,
        product_xab=scale * random_array(rng, (dx, da, da, dx), field),
        product_axb=scale * random_array(rng, (da, dx, da, dx), field),
        product_abx=scale * random_array(rng, (da, da, dx, dx), field),
    )


def close(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


class TestKernel:
    # (d1, d2, d3, dout) shapes of the algebra and the three module products
    # of a 3-dim module over a 2-dim algebra
    SHAPES = [(2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 2, 3), (2, 2, 3, 3)]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_single_vectors(self, shape, field):
        rng = np.random.default_rng(1)
        t = random_array(rng, shape, field)
        for _ in range(5):
            a, b, c = (random_array(rng, n, field) for n in shape[:3])
            close(planned(t, a, b, c), einsum_product(t, a, b, c))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_stacked_vectors(self, shape, field):
        rng = np.random.default_rng(2)
        t = random_array(rng, shape, field)
        a, b, c = (random_array(rng, (7, n), field) for n in shape[:3])
        got = planned(t, a, b, c)
        assert got.shape == (7, shape[3])
        for n in range(7):
            close(got[n], einsum_product(t, a[n], b[n], c[n]))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_broadcast_vectors(self, shape, field):
        rng = np.random.default_rng(3)
        t = random_array(rng, shape, field)
        a = random_array(rng, (4, 1, shape[0]), field)
        b = random_array(rng, (1, 3, shape[1]), field)
        c = random_array(rng, shape[2], field)
        got = planned(t, a, b, c)
        assert got.shape == (4, 3, shape[3])
        for i, j in itertools.product(range(4), range(3)):
            close(got[i, j], einsum_product(t, a[i, 0], b[0, j], c))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", SHAPES + ["trivial-matrix m=3"])
    def test_stack_is_bitwise_per_row(self, shape, field):
        # the stacked hypothesis sampling relies on this, not just on closeness
        rng = np.random.default_rng(6)
        if shape == "trivial-matrix m=3":
            t = ts.trivial_matrix_algebra(3, field).structure
            shape = t.shape
        else:
            t = random_array(rng, shape, field)
        plan = _Plan.of(t)
        a, b, c = (random_array(rng, (40, n), field) for n in shape[:3])
        got = _trilinear(plan, a, b, c)
        for n in range(40):
            assert got[n].tobytes() == _trilinear(plan, a[n], b[n], c[n]).tobytes()

    def test_basis_grid_is_the_tensor(self):
        rng = np.random.default_rng(4)
        for t in (random_array(rng, (3, 2, 2, 3), "real"), *tensors("real").values(),
                  *tensors("complex").values()):
            eyes = [np.eye(n, dtype=t.dtype) for n in t.shape[:3]]
            got = planned(t, eyes[0][:, None, None, :], eyes[1][None, :, None, :],
                          eyes[2][None, None, :, :])
            assert got.tobytes() == t.tobytes()

    def test_module_products_match_einsum(self):
        rng = np.random.default_rng(5)
        mod = random_module(rng, 2, 3, "complex")
        x = random_array(rng, 3, "complex")
        a, b = random_array(rng, (2, 2), "complex")
        close(ts.product_xab(mod, x, a, b), einsum_product(mod.product_xab, x, a, b))
        close(ts.product_axb(mod, a, x, b), einsum_product(mod.product_axb, a, x, b))
        close(ts.product_abx(mod, a, b, x), einsum_product(mod.product_abx, a, b, x))


def integer_array(rng, shape, field):
    """Entries in -3..3 (complex: integer real and imaginary parts), so that
    every staged sum is exact in any order."""
    out = rng.integers(-3, 4, shape).astype(np.float64)
    if field == "complex":
        out = out + 1j * rng.integers(-3, 4, shape)
    return out


def tensors(field, draw=random_array):
    """Builder tensors, a dense one, one with a zero ``(k, l)`` slab, one
    with most of its pairs zero, and the zero tensor; ``draw`` fills the
    ones that are not builders'."""
    rng = np.random.default_rng(12)
    slab, sparse = draw(rng, (4, 3, 5, 4), field), draw(rng, (9, 9, 9, 9), field)
    slab[:, :, 2, 1] = 0
    sparse[:, :, rng.random((9, 9)) < 0.7] = 0
    return {
        "trivial m=2": ts.trivial_matrix_algebra(2, field).structure,
        "trivial m=3": ts.trivial_matrix_algebra(3, field).structure,
        "trivial m=4": ts.trivial_matrix_algebra(4, field).structure,
        "odd-poly cap=7": ts.odd_polynomial_algebra(7, field).structure,
        "odd-poly cap=13": ts.odd_polynomial_algebra(13, field).structure,
        "dense": draw(rng, (3, 4, 2, 5), field),
        "dense d=9": draw(rng, (9, 9, 9, 9), field),
        "zero slab": slab,
        "sparse pairs": sparse,
        "zero": np.zeros((3, 2, 4, 3), dtype=np.result_type(slab)),
    }


def operands(rng, shape, field, draw):
    """``a, b, c`` as single vectors, as 6-row stacks, and as a broadcast grid
    of basis vectors against a stack and a single vector."""
    d1, d2, d3 = shape[:3]
    yield tuple(draw(rng, n, field) for n in (d1, d2, d3))
    yield tuple(draw(rng, (6, n), field) for n in (d1, d2, d3))
    yield np.eye(d1)[:, None, :], draw(rng, (1, 5, d2), field), draw(rng, d3, field)


class TestLiveSlabs:
    """``_trilinear`` over its plan against the dense three-stage kernel, and
    the kernel each plan takes.

    The staged products are the dense kernel, so the two are bitwise equal
    on every call that does not take the nonzero kernel.  The kernel rule
    counts the staged first product over the live ``(k, l)`` pairs only
    (``staged_terms``), and ``KERNELS`` fixes its choice on each tensor.
    """

    #: the tensors of ``tensors`` and ``builder_ladder`` whose plans keep the
    #: staged products for stacks; every other one takes the nonzero kernel
    STAGED = {"trivial m=2", "odd-poly cap=3", "odd-poly cap=5", "dense", "dense d=9",
              "zero slab", "sparse pairs", "zero", "random d=25 density 1/16"}

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_exact_sums_are_bitwise(self, field):
        rng = np.random.default_rng(13)
        for name, t in tensors(field, integer_array).items():
            for a, b, c in operands(rng, t.shape, field, integer_array):
                got, want = planned(t, a, b, c), dense_trilinear(t, a, b, c)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_staged_products_are_the_dense_kernel(self, field):
        rng = np.random.default_rng(14)
        for name, t in tensors(field).items():
            # the plan without its nonzero kernel takes the staged products on every call
            plan = _Plan.of(t)._replace(terms=None, runs=None)
            for a, b, c in operands(rng, t.shape, field, random_array):
                got, want = _trilinear(plan, a, b, c), dense_trilinear(t, a, b, c)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_sums_within_the_rounding_bound(self, field):
        # each entry is a sum of d1 d2 d3 products taken in three staged
        # sums; either order lies within gamma_n of its absolute sum, n the
        # three lengths plus two per complex product (Higham, Accuracy and
        # Stability of Numerical Algorithms, 2nd ed., section 3.1 and 3.6)
        rng = np.random.default_rng(15)
        u = np.finfo(np.float64).eps / 2
        for name, t in tensors(field).items():
            n = sum(t.shape[:3]) + (6 if field == "complex" else 0)
            for a, b, c in operands(rng, t.shape, field, random_array):
                got, want = planned(t, a, b, c), dense_trilinear(t, a, b, c)
                scale = dense_trilinear(abs(t), abs(a), abs(b), abs(c))
                assert np.all(abs(got - want) <= 2 * n * u / (1 - n * u) * scale), name

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_every_plan_keeps_its_kernel(self, field):
        found = {**tensors(field), **builder_ladder(field)}
        for name, t in found.items():
            plan = _Plan.of(t)
            staged = name in self.STAGED
            assert (plan.runs is None) is (plan.terms is None) is staged, name
            if not staged:
                assert staged_terms(t) > algebra_mod._NONZERO_RATIO * np.count_nonzero(t), name
        # the nonzero kernel's constants count live pairs only: counting all
        # d3 dout pairs would send trivial m = 2 (a ratio of 8.0) to it
        t = found["trivial m=2"]
        assert staged_terms(t) == algebra_mod._NONZERO_RATIO * np.count_nonzero(t) < t.size

    def test_plan_counts_the_nonzeros_of_each_row(self):
        t = tensors("real")["trivial m=4"]
        plan = _Plan.of(t)
        # E_aq E_qr E_rs = E_as: the pair ((r, s), (a, s)) is live for any q
        assert staged_terms(t) == 16 * 16 * 4**3
        # one nonzero in each of the 4**4 live rows (i, j, k)
        assert plan.counts.shape == (16, 16, 16) and plan.counts.max() == 1
        assert np.count_nonzero(plan.counts) == plan.counts.sum() == 4**4 == np.count_nonzero(t)
        np.testing.assert_array_equal(plan.counts, np.count_nonzero(t, axis=-1))
        empty = _Plan.of(np.zeros((2, 2, 2, 2)))
        assert staged_terms(empty.tensor) == 0 and empty.runs is None
        assert empty.counts.shape == (2, 2, 2) and not empty.counts.any()

    def test_self_module_shares_the_algebra_plan(self):
        alg = ts.trivial_matrix_algebra(2)
        mod = ts.self_module(alg)
        for name in ("xab", "axb", "abx"):
            assert getattr(mod, f"product_{name}") is alg.structure
            assert mod._plans[f"P{name}"] is alg._plan
        # any other array is copied and frozen, with a plan of its own
        other = ts.TernaryModule(alg, 4, *[alg.structure.copy()] * 3)
        assert other.product_xab is not alg.structure and not other.product_xab.flags.writeable
        assert other._plans["Pxab"] is not alg._plan


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_batched_matvec_is_bitwise_per_row(field, order):
    # perturb_map and the bound points apply a matrix to a stack this way;
    # ``xs @ m.T`` sums in another order and is not bitwise equal
    rng = np.random.default_rng(7)
    for d in range(1, 26):
        m = random_array(rng, (d, d), field)
        for n in (1, 700):
            xs = np.asarray(random_array(rng, (n, d), field), order=order)
            got = (m @ xs[:, :, None])[:, :, 0]
            want = np.array([m @ x for x in xs])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (d, n)


def six_einsum_residual_on_basis(mod, deriv, sigma, tau, xi, signs):
    """The basis residual as the solver assembled it before the kernel."""
    ta = mod.algebra.structure
    pxab, pabx = mod.product_xab, mod.product_abx
    dm, sm, tm, xm = deriv.matrix, sigma.matrix, tau.matrix, xi.matrix
    res = np.einsum("ijkq,wq->ijkw", ta, dm)
    for s, spec_pos, spec_neg in (
        (signs.s1, ("pi", "qj", "rk"), ("pk", "qj", "ri")),
        (signs.s2, ("pj", "qi", "rk"), ("pk", "qi", "rj")),
        (signs.s3, ("pk", "qj", "ri"), ("pi", "qj", "rk")),
    ):
        pos = np.einsum(
            f"{spec_pos[0]},{spec_pos[1]},{spec_pos[2]},pqrw->ijkw", dm, tm, xm, pxab
        )
        neg = np.einsum(
            f"{spec_neg[0]},{spec_neg[1]},{spec_neg[2]},pqrw->ijkw", sm, tm, dm, pabx
        )
        res = res - s * (pos - neg)
    return res


def grid_bracket_table(mod, sigma, tau, xi):
    """The bracket table as the twisted bracket over a grid of basis vectors:
    ``e_u`` against the columns of ``tau`` and of ``xi`` and ``sigma``,
    through the dense kernel."""
    ex = np.eye(mod.dim, dtype=mod.dtype)[:, None, None, :]
    tb = tau.matrix.T[None, :, None, :]
    xc, sc = xi.matrix.T[None, None, :, :], sigma.matrix.T[None, None, :, :]
    return (dense_trilinear(mod.product_xab, ex, tb, xc)
            - dense_trilinear(mod.product_abx, sc, tb, ex))


def builder_algebras(field):
    """Builders from d = 2 to d = 36."""
    return ([ts.trivial_matrix_algebra(m, field) for m in range(2, 7)]
            + [ts.odd_polynomial_algebra(cap, field) for cap in (3, 15, 31, 71)])


class TestBracketTable:
    """``maps._bracket_table`` reads the module tensors; the grid contraction
    it replaced is the reference."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_identity_twists_read_the_grid_bitwise(self, field):
        for alg in builder_algebras(field):
            mod = ts.self_module(alg)
            eye = ts.LinearMap.identity(alg.dim, alg.dtype)
            got = maps_mod._bracket_table(mod, eye, eye, eye)
            want = grid_bracket_table(mod, eye, eye, eye)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), alg.dim

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_twists_agree_with_the_grid(self, field):
        rng = np.random.default_rng(18)
        modules = [ts.self_module(alg) for alg in builder_algebras(field)[:7]]
        modules.append(random_module(rng, 2, 3, field))
        for mod in modules:
            d = mod.algebra.dim
            sigma, tau, xi = (ts.LinearMap(random_array(rng, (d, d), field)) for _ in range(3))
            got = maps_mod._bracket_table(mod, sigma, tau, xi)
            want = grid_bracket_table(mod, sigma, tau, xi)
            assert got.shape == want.shape == (mod.dim, d, d, mod.dim)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), d

    def test_entries_are_the_tables_nonzeros(self):
        mod = ts.self_module(ts.trivial_matrix_algebra(3))
        eye = ts.LinearMap.identity(9)
        u, b, c, w, g = maps_mod._bracket_entries(mod, eye, eye, eye)
        want = grid_bracket_table(mod, eye, eye, eye)
        assert len(g) and np.all(g != 0)
        at = np.ravel_multi_index((u, b, c, w), want.shape)
        np.testing.assert_array_equal(np.flatnonzero(want), at)
        assert g.tobytes() == want[u, b, c, w].tobytes()


class TestNoGridCalls:
    """No library call contracts a grid of basis vectors: every call into
    ``_trilinear`` is a stack, one whose leading shape is some operand's."""

    @staticmethod
    def record(monkeypatch):
        calls = []
        kernel = algebra_mod._trilinear

        def recorded(plan, a, b, c):
            leads = (a.shape[:-1], b.shape[:-1], c.shape[:-1])
            calls.append(np.broadcast_shapes(*leads) in leads)
            return kernel(plan, a, b, c)

        sites = [m for name, m in sys.modules.items()
                 if name.startswith("ternstab.") and getattr(m, "_trilinear", None) is kernel]
        assert algebra_mod in sites and maps_mod in sites
        for site in sites:
            monkeypatch.setattr(site, "_trilinear", recorded)
        return calls

    def test_experiments(self, monkeypatch, tmp_path):
        from test_golden import CONFIG_DIR, GOLDEN_DIR
        calls = self.record(monkeypatch)
        configs = [*CONFIG_DIR.glob("*.json"), *(GOLDEN_DIR / "configs").glob("*.json")]
        assert len(configs) == 5
        for path in configs:
            assert ts.run_experiment(path, out_dir=tmp_path / path.stem).all_passed
        assert calls and all(calls)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_basis_residual_and_identity_reduction(self, field, monkeypatch):
        calls = self.record(monkeypatch)
        rng = np.random.default_rng(19)
        for alg in (ts.trivial_matrix_algebra(3, field), ts.odd_polynomial_algebra(7, field)):
            d = alg.dim
            deriv, sigma, tau, xi = (ts.LinearMap(random_array(rng, (d, d), field))
                                     for _ in range(4))
            ts.residual_on_basis(ts.self_module(alg), deriv, sigma, tau, xi)
        assert not calls
        alg = ts.trivial_matrix_algebra(3, field)
        ts.verify_identity_and_reduce(alg, np.eye(3).ravel(), 1e-12)
        assert len(calls) == 3 and all(calls)


class TestResidual:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_stacked_matches_per_row(self, field):
        rng = np.random.default_rng(6)
        mod = random_module(rng, 2, 3, field)
        deriv, sigma, tau, xi = (
            ts.LinearMap(random_array(rng, shape, field))
            for shape in ((3, 2), (2, 2), (2, 2), (2, 2))
        )
        a, b, c = random_array(rng, (3, 6, 2), field)
        for signs in (ts.LIE_SIGNS, ts.MIXED_SIGNS):
            got = ts.lie_derivation_residual(mod, deriv, a, b, c, sigma, tau, xi, signs)
            assert got.shape == (6, 3)
            for n in range(6):
                row = ts.lie_derivation_residual(
                    mod, deriv, a[n], b[n], c[n], sigma, tau, xi, signs
                )
                close(got[n], row)

    def test_broadcast_triples(self, matrix2_module, identity4):
        rng = np.random.default_rng(7)
        deriv = ts.LinearMap(rng.standard_normal((4, 4)))
        a = rng.standard_normal((5, 1, 4))
        b = rng.standard_normal((1, 2, 4))
        c = rng.standard_normal(4)
        got = ts.lie_derivation_residual(
            matrix2_module, deriv, a, b, c, identity4, identity4, identity4
        )
        assert got.shape == (5, 2, 4)
        for i, j in itertools.product(range(5), range(2)):
            row = ts.lie_derivation_residual(
                matrix2_module, deriv, a[i, 0], b[0, j], c, identity4, identity4, identity4
            )
            close(got[i, j], row)

    def test_wrong_last_axis_raises(self, matrix2_module, identity4):
        deriv = ts.LinearMap.identity(4)
        good = np.zeros((3, 4))
        with pytest.raises(DimensionMismatch):
            ts.lie_derivation_residual(
                matrix2_module, deriv, np.zeros((3, 5)), good, good,
                identity4, identity4, identity4,
            )
        with pytest.raises(DimensionMismatch):
            ts.lie_derivation_residual(
                matrix2_module, ts.LinearMap.identity(3), good, good, good,
                identity4, identity4, identity4,
            )

    @pytest.mark.parametrize(
        "alg",
        [
            ts.odd_polynomial_algebra(3),
            ts.odd_polynomial_algebra(7),
            ts.trivial_matrix_algebra(2, "complex"),
            ts.trivial_matrix_algebra(3),
        ],
        ids=["oddpoly3", "oddpoly7", "m2-complex", "m3"],
    )
    def test_basis_residual_matches_six_einsums(self, alg):
        rng = np.random.default_rng(alg.dim)
        mod = ts.self_module(alg)
        d = alg.dim
        deriv, sigma, tau, xi = (
            ts.LinearMap(random_array(rng, (d, d), alg.field)) for _ in range(4)
        )
        for signs in ALL_SIGNS:
            got = ts.residual_on_basis(mod, deriv, sigma, tau, xi, signs)
            want = six_einsum_residual_on_basis(mod, deriv, sigma, tau, xi, signs)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_identity_twist_unit_columns_are_bitwise_unchanged(self, matrix2_module, identity4):
        # the solver's system is built from these columns, so its null space
        # must not move
        for u, v in itertools.product(range(4), repeat=2):
            unit = np.zeros((4, 4))
            unit[u, v] = 1.0
            deriv = ts.LinearMap(unit)
            for signs in (ts.LIE_SIGNS, ts.MIXED_SIGNS):
                got = ts.residual_on_basis(
                    matrix2_module, deriv, identity4, identity4, identity4, signs
                )
                want = six_einsum_residual_on_basis(
                    matrix2_module, deriv, identity4, identity4, identity4, signs
                )
                np.testing.assert_array_equal(got, want)


def per_tuple_chain_residuals(mod, seed, tuples):
    """The sampled module check as a per-tuple loop over explicit products."""

    def tp(a, b, c):
        return einsum_product(mod.algebra.structure, a, b, c)

    def xab(x, a, b):
        return einsum_product(mod.product_xab, x, a, b)

    def axb(a, x, b):
        return einsum_product(mod.product_axb, a, x, b)

    def abx(a, b, x):
        return einsum_product(mod.product_abx, a, b, x)

    chains = {
        "abc_d_x": lambda a, b, c, d, x: (
            abx(tp(a, b, c), d, x), abx(a, tp(b, c, d), x), abx(a, b, abx(c, d, x))
        ),
        "abc_x_d": lambda a, b, c, d, x: (
            axb(tp(a, b, c), x, d), axb(a, abx(b, c, x), d), abx(a, b, axb(c, x, d))
        ),
        "xab_c_d": lambda a, b, c, d, x: (
            xab(xab(x, a, b), c, d), xab(x, tp(a, b, c), d), xab(x, a, tp(b, c, d))
        ),
        "axb_c_d": lambda a, b, c, d, x: (
            xab(axb(a, x, b), c, d), axb(a, xab(x, b, c), d), axb(a, x, tp(b, c, d))
        ),
        "abx_c_d": lambda a, b, c, d, x: (
            xab(abx(a, b, x), c, d), axb(a, axb(b, x, c), d), abx(a, b, xab(x, c, d))
        ),
    }
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, mod.algebra.dim, size=(4, tuples))
    ix = rng.integers(0, mod.dim, size=tuples)
    basis_a, basis_x = np.eye(mod.algebra.dim), np.eye(mod.dim)
    out = {}
    for name, chain in chains.items():
        worst = 0.0
        for n in range(tuples):
            vals = chain(*(basis_a[ia[s, n]] for s in range(4)), basis_x[ix[n]])
            worst = max(
                worst,
                mod.norm_of(vals[0] - vals[1]),
                mod.norm_of(vals[1] - vals[2]),
            )
        out[name] = worst
    return out


class TestSampledModuleChains:
    # fewer tuples than the dA**4 * dX basis tuples, so the check samples
    @pytest.mark.parametrize(
        "dims, tuples", [((4, 4), 300), ((2, 3), 40)], ids=["self-d4", "dA2-dX3"]
    )
    # small chunks put many chunk boundaries into the sample; with one tuple
    # per chunk a dropped tuple changes the result
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_perturbed_module_matches_per_tuple_loop(self, dims, tuples, chunk, monkeypatch):
        monkeypatch.setattr(module_mod, "_TUPLE_CHUNK", chunk)
        rng = np.random.default_rng(8)
        da, dx = dims
        if dims == (4, 4):
            t = ts.trivial_matrix_algebra(2).structure
            bumps = [1e-3 * rng.standard_normal(t.shape) for _ in range(3)]
            mod = ts.TernaryModule(
                algebra=ts.trivial_matrix_algebra(2),
                dim=4,
                product_xab=t + bumps[0],
                product_axb=t + bumps[1],
                product_abx=t + bumps[2],
            )
        else:
            mod = random_module(rng, da, dx, "real")
        report = ts.check_module_axioms(mod, 1e-12, samples=5, seed=11, budget=tuples)
        assert not report.exhaustive and report.tuples_checked == tuples
        assert not report.passed
        want = per_tuple_chain_residuals(mod, 11, tuples)
        assert report.chain_residuals.keys() == want.keys()
        for name, value in want.items():
            assert value > 1e-6
            # the stacked norm may round differently from the 1-D norm in the last bit
            assert abs(report.chain_residuals[name] - value) <= 1e-14 * value


def builder_ladder(field):
    """Every builder's tensor up to d = 36, and random-pattern tensors at
    d = 25 whose output runs are long (density 1/16) and short (1/32)."""
    rng = np.random.default_rng(25)
    shape = (25,) * 4
    return {
        **{f"trivial m={m}": ts.trivial_matrix_algebra(m, field).structure for m in range(2, 7)},
        **{f"odd-poly cap={cap}": ts.odd_polynomial_algebra(cap, field).structure
           for cap in range(3, 72, 2)},
        **{f"random d=25 density 1/{n}":
           random_array(rng, shape, field) * (rng.random(shape) < 1 / n) for n in (16, 32)},
    }


def builder_tensors(field):
    """The builders' tensors that contract stacks over their nonzeros."""
    return {
        **{f"trivial m={m}": ts.trivial_matrix_algebra(m, field).structure for m in (3, 4)},
        **{f"odd-poly cap={cap}": ts.odd_polynomial_algebra(cap, field).structure
           for cap in (7, 13, 31)},
    }


class TestNonzeroKernel:
    """The nonzero kernel of ``_trilinear``: which calls take it, and the
    bits it gives."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        kernel = algebra_mod._by_nonzeros

        def counted(*args):
            calls.append(args[-1])
            return kernel(*args)

        monkeypatch.setattr(algebra_mod, "_by_nonzeros", counted)
        return calls

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_builder_stacks_take_it_and_grids_do_not(self, field, monkeypatch):
        calls = self.count_calls(monkeypatch)
        rng = np.random.default_rng(16)
        for name, t in builder_tensors(field).items():
            plan = _Plan.of(t)
            assert staged_terms(t) > algebra_mod._NONZERO_RATIO * np.count_nonzero(t), name
            assert plan.terms is not None and plan.runs is not None, name
            d = t.shape[0]
            stack, one = random_array(rng, (7, d), field), random_array(rng, d, field)
            for a, b, c in ((one, one, one), (stack, stack, stack), (stack, one, one),
                            (one, stack[:, None][:3], stack[:3, None]), (stack[:0], one, one)):
                calls.clear()
                got = _trilinear(plan, a, b, c)
                assert len(calls) == 1, name
                assert got.shape == np.broadcast_shapes(a.shape, b.shape, c.shape), name
            eye = np.eye(d, dtype=t.dtype)
            for grid in ((eye[:, None, None], eye[None, :, None], eye),
                         (eye[:, None], one, eye), (stack[:, None], eye, one)):
                calls.clear()
                _trilinear(plan, *grid)
                assert not calls, name

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_dense_and_small_plans_stay_staged(self, field, monkeypatch):
        calls = self.count_calls(monkeypatch)
        rng = np.random.default_rng(17)
        others = {name: t for name, t in tensors(field).items() if not name.startswith(("triv", "odd"))}
        # the builders' tensors of ratio 8 or less: 4.0, 6.8 and 8.0
        others["odd-poly cap=3"] = ts.odd_polynomial_algebra(3, field).structure
        others["odd-poly cap=5"] = ts.odd_polynomial_algebra(5, field).structure
        others["trivial m=2"] = ts.trivial_matrix_algebra(2, field).structure
        for name, t in others.items():
            plan = _Plan.of(t)
            assert plan.terms is None and plan.runs is None, name
            for a, b, c in operands(rng, t.shape, field, random_array):
                _trilinear(plan, a, b, c)
        assert not calls

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_long_output_runs_stay_staged(self, field):
        # at d = 25 and density 1/16 a random pattern has about 16 staged
        # entries per nonzero, but about 980 nonzeros per output coordinate,
        # and the staged products win; at density 1/32, about 490 per
        # output, the nonzero kernel does.  Every builder up to d = 25 has a
        # ratio of at least 0.66 times its nonzeros per output.
        rng = np.random.default_rng(25)
        shape = (25,) * 4
        for density, staged in ((1 / 16, True), (1 / 32, False)):
            t = random_array(rng, shape, field) * (rng.random(shape) < density)
            plan = _Plan.of(t)
            assert staged_terms(t) > algebra_mod._NONZERO_RATIO * np.count_nonzero(t)
            assert (plan.runs is None) is staged, density
        builders = [ts.trivial_matrix_algebra(m, field) for m in (3, 4, 5)]
        builders += [ts.odd_polynomial_algebra(cap, field) for cap in range(7, 50, 2)]
        assert all(alg._plan.runs is not None for alg in builders)

    def test_solver_grids_stay_staged_and_module_stacks_do_not(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        alg = ts.trivial_matrix_algebra(3)
        mod = ts.self_module(alg)
        eye = ts.LinearMap.identity(alg.dim)
        ts.residual_on_basis(mod, eye, eye, eye, eye)
        ts.solve_exact_derivations(mod, eye, eye, eye)
        assert not calls
        ts.check_module_axioms(mod, 1e-9, samples=10, budget=200)
        assert [len(lead) for lead in calls] == [1, 1, 1]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("name", ["trivial m=4", "odd-poly cap=31"])
    def test_stack_is_bitwise_per_row(self, name, field):
        rng = np.random.default_rng(6)
        t = builder_tensors(field)[name]
        plan = _Plan.of(t)
        a, b, c = (random_array(rng, (40, n), field) for n in t.shape[:3])
        got = _trilinear(plan, a, b, c)
        # a single vector against the stack gives the rows of its broadcast stack
        assert got.tobytes() == _trilinear(plan, a, b, c).tobytes()
        with_one = _trilinear(plan, a, b[0], c)
        assert with_one.tobytes() == _trilinear(plan, a, np.tile(b[0], (40, 1)), c).tobytes()
        for n in range(40):
            assert got[n].tobytes() == _trilinear(plan, a[n], b[n], c[n]).tobytes()
            assert with_one[n].tobytes() == _trilinear(plan, a[n], b[0], c[n]).tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("name", ["trivial m=4", "odd-poly cap=31"])
    def test_chunks_do_not_move_bits(self, name, field, monkeypatch):
        rng = np.random.default_rng(8)
        t = builder_tensors(field)[name]
        plan = _Plan.of(t)
        a, b, c = (random_array(rng, (3, 17, n), field) for n in t.shape[:3])
        whole = _trilinear(plan, a, b, c)
        rows = []
        # chunks of 16 rows (the least) and a last one of 3, of 20 and 11, and one chunk
        for budget_rows in (1, 20, 51):
            monkeypatch.setattr(algebra_mod, "_GATHER_BYTES",
                                budget_rows * np.count_nonzero(t) * t.itemsize)
            assert _trilinear(plan, a, b, c).tobytes() == whole.tobytes()
            rows.append(_trilinear(plan, a[1, 4], b[1, 4], c[1, 4]))
        assert all(row.tobytes() == whole[1, 4].tobytes() for row in rows)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_sums_of_negative_zeros_are_positive(self, field):
        for name, t in builder_tensors(field).items():
            d = t.shape[0]
            a = np.full((2, d), -0.0, t.dtype)
            b, c = np.ones((2, d), t.dtype), np.ones((2, d), t.dtype)
            got, want = planned(t, a, b, c), dense_trilinear(t, a, b, c)
            assert got.tobytes() == want.tobytes() == np.zeros((2, d), t.dtype).tobytes(), name

    def test_values_other_than_one_are_multiplied(self):
        rng = np.random.default_rng(9)
        t = 3.0 * ts.trivial_matrix_algebra(3).structure
        t[t != 0] *= integer_array(rng, np.count_nonzero(t), "real")
        plan = _Plan.of(t)
        assert plan.terms[-1] is not None
        a, b, c = (integer_array(rng, (5, 9), "real") for _ in range(3))
        assert planned(t, a, b, c).tobytes() == dense_trilinear(t, a, b, c).tobytes()
        close(planned(t, a[0], b[0], c[0]), einsum_product(t, a[0], b[0], c[0]))

    def test_module_check_memory_is_bounded(self):
        # the staged first product alone held 20,000 x 1,024 doubles (164 MB)
        mod = ts.self_module(ts.trivial_matrix_algebra(4))
        tracemalloc.start()
        try:
            report = ts.check_module_axioms(mod, 1e-9, samples=20_000, budget=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and peak < 64e6
