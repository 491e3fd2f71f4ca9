import itertools
from pathlib import Path

import numpy as np
import pytest

import ternstab as ts
from ternstab.errors import DimensionMismatch
from ternstab.maps import _canonical_null_basis

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def unit_vec(dim, index, dtype=np.float64):
    v = np.zeros(dim, dtype=dtype)
    v[index] = 1.0
    return v


class TestTwistedBracket:
    def test_scalar_module_commutes_to_zero(self, scalar_algebra):
        mod = ts.self_module(scalar_algebra)
        ident = ts.LinearMap.identity(1)
        out = ts.twisted_bracket(mod, [3.0], [5.0], [7.0], ident, ident, ident)
        np.testing.assert_allclose(out, [0.0])

    def test_zero_module_slot(self, matrix2_module, identity4):
        rng = np.random.default_rng(2)
        b, c = rng.standard_normal((2, 4))
        out = ts.twisted_bracket(
            matrix2_module, np.zeros(4), b, c, identity4, identity4, identity4
        )
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_matrix_unit_example(self, matrix2_module, identity4):
        # E12 E21 I - I E21 E12 = E11 - E22
        e12 = unit_vec(4, 1)
        e21 = unit_vec(4, 2)
        eye = np.eye(2).reshape(-1)
        out = ts.twisted_bracket(
            matrix2_module, e12, e21, eye, identity4, identity4, identity4
        )
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, -1.0], atol=1e-14)

    def test_bracket_scaling_in_module_slot(self, matrix2_module, identity4):
        rng = np.random.default_rng(5)
        x, b, c = rng.standard_normal((3, 4))
        one = ts.twisted_bracket(matrix2_module, x, b, c, identity4, identity4, identity4)
        scaled = ts.twisted_bracket(
            matrix2_module, 2.5 * x, b, c, identity4, identity4, identity4
        )
        np.testing.assert_allclose(scaled, 2.5 * one, atol=1e-12)

    def test_rejects_wrong_map_shape(self, matrix2_module, identity4):
        bad = ts.LinearMap(np.ones((3, 4)))
        with pytest.raises(DimensionMismatch):
            ts.twisted_bracket(
                matrix2_module, np.zeros(4), np.zeros(4), np.zeros(4), bad, identity4, identity4
            )


class TestLieResidual:
    def test_zero_map_gives_zero(self, matrix2_module, identity4):
        zero = ts.LinearMap.zero(4, 4)
        rng = np.random.default_rng(1)
        a, b, c = rng.standard_normal((3, 4))
        res = ts.lie_derivation_residual(
            matrix2_module, zero, a, b, c, identity4, identity4, identity4
        )
        np.testing.assert_array_equal(res, np.zeros(4))

    def test_scalar_module_residual_is_image_of_product(self, scalar_algebra):
        # brackets vanish by commutativity, so the residual is D(abc)
        mod = ts.self_module(scalar_algebra)
        ident = ts.LinearMap.identity(1)
        deriv = ts.LinearMap(np.array([[2.0]]))
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = rng.standard_normal(3)
            res = ts.lie_derivation_residual(
                mod, deriv, [a], [b], [c], ident, ident, ident
            )
            np.testing.assert_allclose(res, [2.0 * a * b * c], atol=1e-14)

    def test_solver_output_has_small_residual_on_random_triples(
        self, oddpoly3_module, oddpoly_derivation, identity2
    ):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c = rng.standard_normal((3, 2))
            res = ts.lie_derivation_residual(
                oddpoly3_module, oddpoly_derivation, a, b, c, identity2, identity2, identity2
            )
            bound = 1e-8 * (
                1
                + oddpoly3_module.algebra.norm_of(a)
                * oddpoly3_module.algebra.norm_of(b)
                * oddpoly3_module.algebra.norm_of(c)
            )
            assert oddpoly3_module.norm_of(res) <= bound

    def test_residual_linear_in_derivation(self, matrix2_module, identity4):
        rng = np.random.default_rng(9)
        d1 = ts.LinearMap(rng.standard_normal((4, 4)))
        d2 = ts.LinearMap(rng.standard_normal((4, 4)))
        dsum = ts.LinearMap(d1.matrix + d2.matrix)
        a, b, c = rng.standard_normal((3, 4))
        r1 = ts.lie_derivation_residual(
            matrix2_module, d1, a, b, c, identity4, identity4, identity4
        )
        r2 = ts.lie_derivation_residual(
            matrix2_module, d2, a, b, c, identity4, identity4, identity4
        )
        rsum = ts.lie_derivation_residual(
            matrix2_module, dsum, a, b, c, identity4, identity4, identity4
        )
        np.testing.assert_allclose(rsum, r1 + r2, atol=1e-10)

    def test_sign_convention_matches_expanded_expression(self, matrix2_module, identity4):
        # signs (+,-,-): residual must equal D([abc]) - Br1 + Br2 + Br3 bitwise
        rng = np.random.default_rng(13)
        deriv = ts.LinearMap(rng.standard_normal((4, 4)))
        a, b, c = rng.standard_normal((3, 4))
        alg = matrix2_module.algebra
        br = lambda x, s, t: ts.twisted_bracket(
            matrix2_module, x, s, t, identity4, identity4, identity4
        )
        expected = deriv(ts.ternary_product(alg, a, b, c))
        expected = expected - br(deriv(a), b, c)
        expected = expected - (-1) * br(deriv(b), a, c)
        expected = expected - (-1) * br(deriv(c), b, a)
        got = ts.lie_derivation_residual(
            matrix2_module, deriv, a, b, c, identity4, identity4, identity4, ts.MIXED_SIGNS
        )
        np.testing.assert_array_equal(got, expected)


class TestJordanResidual:
    def test_zero_map(self, matrix2_module, identity4):
        zero = ts.LinearMap.zero(4, 4)
        res = ts.jordan_residual(
            matrix2_module, zero, np.ones(4), identity4, identity4, identity4
        )
        np.testing.assert_array_equal(res, np.zeros(4))

    def test_zero_point(self, matrix2_module, identity4):
        rng = np.random.default_rng(4)
        deriv = ts.LinearMap(rng.standard_normal((4, 4)))
        res = ts.jordan_residual(
            matrix2_module, deriv, np.zeros(4), identity4, identity4, identity4
        )
        np.testing.assert_array_equal(res, np.zeros(4))

    def test_bitwise_equal_to_diagonal_lie_residual(self, matrix2_module, identity4):
        rng = np.random.default_rng(6)
        deriv = ts.LinearMap(rng.standard_normal((4, 4)))
        a = rng.standard_normal(4)
        jordan = ts.jordan_residual(
            matrix2_module, deriv, a, identity4, identity4, identity4
        )
        lie = ts.lie_derivation_residual(
            matrix2_module, deriv, a, a, a, identity4, identity4, identity4
        )
        np.testing.assert_array_equal(jordan, lie)


class TestDerivationSolver:
    def test_scalar_algebra_space_is_trivial(self, scalar_algebra):
        mod = ts.self_module(scalar_algebra)
        ident = ts.LinearMap.identity(1)
        basis = ts.solve_exact_derivations(mod, ident, ident, ident)
        assert basis == []
        # brute-force cross-check: the 1x1 system has full rank
        res = ts.lie_derivation_residual(
            mod, ts.LinearMap(np.array([[1.0]])), [1.0], [1.0], [1.0], ident, ident, ident
        )
        system = np.array([[res[0]]])
        assert np.linalg.matrix_rank(system) == 1

    def test_oddpoly_space_dimension_and_orthonormality(
        self, oddpoly3_module, identity2
    ):
        basis = ts.solve_exact_derivations(oddpoly3_module, identity2, identity2, identity2)
        assert len(basis) == 2
        flat = np.array([lm.matrix.reshape(-1) for lm in basis])
        np.testing.assert_allclose(flat @ flat.T, np.eye(2), atol=1e-12)
        # every basis element kills the product span (x^3) and is exact
        for lm in basis:
            res = ts.residual_on_basis(
                oddpoly3_module, lm, identity2, identity2, identity2
            )
            assert np.abs(res).max() <= 1e-10

    def test_zero_structure_tensor_gives_full_space(self):
        alg = ts.TernaryAlgebra(2, "real", np.zeros((2, 2, 2, 2)))
        mod = ts.self_module(alg)
        ident = ts.LinearMap.identity(2)
        basis = ts.solve_exact_derivations(mod, ident, ident, ident)
        assert len(basis) == 4

    def test_matrix_algebra_identity_maps_trivial_space(self, matrix2_module, identity4):
        for signs in (ts.LIE_SIGNS, ts.MIXED_SIGNS):
            basis = ts.solve_exact_derivations(
                matrix2_module, identity4, identity4, identity4, signs
            )
            assert basis == []

    def test_residual_on_basis_matches_pointwise(self, oddpoly3_module, identity2):
        rng = np.random.default_rng(21)
        deriv = ts.LinearMap(rng.standard_normal((2, 2)))
        tensor = ts.residual_on_basis(
            oddpoly3_module, deriv, identity2, identity2, identity2, ts.MIXED_SIGNS
        )
        basis = np.eye(2)
        for i, j, k in itertools.product(range(2), repeat=3):
            point = ts.lie_derivation_residual(
                oddpoly3_module,
                deriv,
                basis[i],
                basis[j],
                basis[k],
                identity2,
                identity2,
                identity2,
                ts.MIXED_SIGNS,
            )
            np.testing.assert_allclose(tensor[i, j, k], point, atol=1e-14)

    def test_deterministic_output(self, oddpoly3_module, identity2):
        one = ts.solve_exact_derivations(oddpoly3_module, identity2, identity2, identity2)
        two = ts.solve_exact_derivations(oddpoly3_module, identity2, identity2, identity2)
        for a, b in zip(one, two):
            np.testing.assert_array_equal(a.matrix, b.matrix)


def column_by_column_solver(mod, sigma, tau, xi, signs=ts.LIE_SIGNS, rank_tol=1e-10):
    """The solver before the closed-form Jacobian, kept as the reference: one
    ``residual_on_basis`` column per entry of ``D``, then a dense SVD of the
    whole ``(dA**3 * dX) x (dX * dA)`` system."""
    da, dx = mod.algebra.dim, mod.dim
    dtype = mod.dtype
    cols = []
    for u, v in itertools.product(range(dx), range(da)):
        unit = np.zeros((dx, da), dtype=dtype)
        unit[u, v] = 1.0
        cols.append(
            ts.residual_on_basis(mod, ts.LinearMap(unit), sigma, tau, xi, signs).reshape(-1)
        )
    system = np.column_stack(cols)
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        null_rows = vh
    else:
        null_rows = vh[svals <= rank_tol * svals[0]]
    basis = []
    for row in null_rows[::-1]:
        mat = row.conj().reshape(dx, da)
        anchor = mat.flat[int(np.argmax(np.abs(mat)))]
        if anchor != 0:
            mat = mat * (np.abs(anchor) / anchor)
        if dtype == np.float64:
            mat = mat.real
        basis.append(ts.LinearMap(mat))
    return basis


def subspace_distance(one, two) -> float:
    """Spectral norm of the difference of the orthogonal projectors onto the
    spans of two orthonormal bases of linear maps."""
    def projector(basis):
        flat = np.array([lm.matrix.reshape(-1) for lm in basis], dtype=complex)
        return flat.reshape(len(basis), -1).conj().T @ flat.reshape(len(basis), -1)

    return float(np.linalg.norm(projector(one) - projector(two), 2))


def assert_same_space(mod, sigma, tau, xi, signs=ts.LIE_SIGNS, rank_tol=1e-10):
    new = ts.solve_exact_derivations(mod, sigma, tau, xi, signs, rank_tol)
    old = column_by_column_solver(mod, sigma, tau, xi, signs, rank_tol)
    assert len(new) == len(old) == new.margin["null_dim"]
    if old:
        assert subspace_distance(new, old) <= 1e-10
    return new


def random_twist(rng, dim, field_tag, kind):
    m = rng.standard_normal((dim, dim))
    if field_tag == "complex":
        m = m + 1j * rng.standard_normal((dim, dim))
    return ts.LinearMap(np.diag(np.diag(m)) if kind == "diagonal" else m)


class TestSolverAgainstColumnReference:
    """The closed-form TSQR solver finds the null space of the column-by-column
    system: the same dimension, and spans at most 1e-10 apart."""

    @pytest.mark.parametrize("name", ["oddpoly3_p05", "trivial2x2_p05", "oddpoly3_jordan"])
    def test_bundled_configs(self, name):
        config = ts.load_config(CONFIG_DIR / f"{name}.json")
        mod = ts.self_module(config.algebra)
        for sigma, tau, xi in config.map_candidates:
            assert_same_space(mod, sigma, tau, xi, config.signs, config.rank_tol)

    @pytest.mark.parametrize("builder, size", [("odd", 3), ("odd", 9), ("odd", 15),
                                               ("matrix", 2), ("matrix", 3)])
    @pytest.mark.parametrize("field_tag", ["real", "complex"])
    @pytest.mark.parametrize("signs", [ts.LIE_SIGNS, ts.MIXED_SIGNS], ids=["lie", "mixed"])
    @pytest.mark.parametrize("kind", ["dense", "diagonal"])
    def test_random_twists(self, builder, size, field_tag, signs, kind):
        alg = (ts.odd_polynomial_algebra(size, field_tag) if builder == "odd"
               else ts.trivial_matrix_algebra(size, field_tag))
        assert alg.dim <= 9
        rng = np.random.default_rng([size, len(field_tag), signs.s2 + 1, len(kind)])
        twists = [random_twist(rng, alg.dim, field_tag, kind) for _ in range(3)]
        assert_same_space(ts.self_module(alg), *twists, signs)

    @pytest.mark.parametrize("field_tag", ["real", "complex"])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.1])
    def test_module_of_another_dimension(self, field_tag, density):
        # dX = 2 over a dA = 3 algebra, sparse random module products
        alg = ts.odd_polynomial_algebra(5, field_tag)
        rng = np.random.default_rng([int(100 * density), len(field_tag)])
        shapes = [(2, 3, 3, 2), (3, 2, 3, 2), (3, 3, 2, 2)]
        products = [rng.standard_normal(s) * (rng.random(s) < density) for s in shapes]
        mod = ts.TernaryModule(alg, 2, *products)
        twists = [random_twist(rng, 3, field_tag, "dense") for _ in range(3)]
        assert_same_space(mod, *twists, ts.MIXED_SIGNS)

    def test_rank_deficient_oddpoly3(self, oddpoly3_module, identity2):
        # 2 nonzero rows for 4 columns: the rank deficit is null
        basis = assert_same_space(oddpoly3_module, identity2, identity2, identity2)
        margin = basis.margin
        assert (margin["rows"], margin["nonzero_rows"], margin["columns"]) == (16, 2, 4)
        assert margin["null_dim"] == 2
        assert margin["sigma_null"] == 0.0 and margin["ratio"] == 0.0
        # the canonical basis is [E21, E11], the column solver's order
        units = [np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])]
        for lm, unit in zip(basis, units):
            np.testing.assert_allclose(lm.matrix, unit, atol=1e-15)

    def test_margin_without_null_or_kept_directions(self, scalar_algebra):
        ident = ts.LinearMap.identity(1)
        full = ts.solve_exact_derivations(ts.self_module(scalar_algebra), ident, ident, ident)
        assert full.margin["null_dim"] == 0
        assert full.margin["sigma_null"] is None and full.margin["ratio"] is None
        zero = ts.self_module(ts.TernaryAlgebra(2, "real", np.zeros((2, 2, 2, 2))))
        empty = ts.solve_exact_derivations(zero, *[ts.LinearMap.identity(2)] * 3)
        assert empty.margin["nonzero_rows"] == 0 and empty.margin["null_dim"] == 4
        assert empty.margin["sigma_max"] == 0.0 and empty.margin["sigma_kept"] is None

    @pytest.mark.parametrize("field_tag", ["real", "complex"])
    @pytest.mark.parametrize("k, n", [(1, 5), (2, 4), (3, 16), (6, 9)])
    def test_canonical_basis_ignores_rotation(self, field_tag, k, n):
        rng = np.random.default_rng([k, n, len(field_tag)])

        def draw(rows, cols):
            m = rng.standard_normal((rows, cols))
            return m + 1j * rng.standard_normal((rows, cols)) if field_tag == "complex" else m

        rows = np.linalg.qr(draw(n, k))[0].T  # orthonormal rows
        want = _canonical_null_basis(rows)
        np.testing.assert_allclose(want @ want.conj().T, np.eye(k), atol=1e-12)
        for _ in range(3):
            rotation = np.linalg.qr(draw(k, k))[0]
            got = _canonical_null_basis(rotation @ rows)
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestUnimodularSplit:
    def test_half_n_real(self):
        l1, l2 = ts.unimodular_split(1.0, 2)
        np.testing.assert_allclose(l1, 0.5 + 1j * np.sqrt(3) / 2, atol=1e-15)
        np.testing.assert_allclose(l2, 0.5 - 1j * np.sqrt(3) / 2, atol=1e-15)

    def test_near_limit(self):
        n = 7
        l1, l2 = ts.unimodular_split(0.999 * n, n)
        np.testing.assert_allclose(l1.real, 0.999, atol=1e-12)
        np.testing.assert_allclose(abs(l1.imag), 0.0447, atol=1e-4)
        np.testing.assert_allclose(l1 + l2, 1.998, atol=1e-12)

    def test_property_sweep(self):
        rng = np.random.default_rng(88)
        for _ in range(1000):
            gamma = complex(*rng.standard_normal(2)) * 10 ** rng.uniform(-3, 3)
            n = int(np.ceil(abs(gamma))) + 1
            l1, l2 = ts.unimodular_split(gamma, n)
            assert abs(abs(l1) - 1) <= 1e-12
            assert abs(abs(l2) - 1) <= 1e-12
            assert abs(l1 + l2 - 2 * gamma / n) <= 1e-12

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError):
            ts.unimodular_split(0.0, 5)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ts.unimodular_split(3.0, 3)


class TestLinearMapType:
    def test_apply_and_dims(self):
        lm = ts.LinearMap(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert (lm.in_dim, lm.out_dim) == (2, 3)
        np.testing.assert_allclose(lm([1.0, 1.0]), [3.0, 7.0, 11.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ts.LinearMap(np.array([[np.nan]]))

    def test_rejects_wrong_input_length(self):
        lm = ts.LinearMap.identity(3)
        with pytest.raises(DimensionMismatch):
            lm(np.zeros(2))

    def test_sign_convention_validation(self):
        with pytest.raises(ValueError):
            ts.SignConvention(1, 0, 1)
        with pytest.raises(ValueError):
            ts.SignConvention.from_sequence([1, 1])
        assert ts.SignConvention.from_sequence([1, -1, -1]) == ts.MIXED_SIGNS
