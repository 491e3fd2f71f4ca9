import itertools

import numpy as np
import pytest

import ternstab as ts
from ternstab import algebra
from ternstab.errors import DimensionMismatch


def matrix_units(m):
    units = []
    for i in range(m * m):
        u = np.zeros((m, m))
        u.flat[i] = 1.0
        units.append(u)
    return units


class TestTernaryProduct:
    def test_one_dim_scalars(self, scalar_algebra):
        out = ts.ternary_product(scalar_algebra, [2.0], [3.0], [4.0])
        np.testing.assert_allclose(out, [24.0])

    def test_zero_first_slot(self, matrix2):
        rng = np.random.default_rng(0)
        b, c = rng.standard_normal((2, 4))
        out = ts.ternary_product(matrix2, np.zeros(4), b, c)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_identity_idempotent(self, matrix2):
        eye = np.eye(2).reshape(-1)
        out = ts.ternary_product(matrix2, eye, eye, eye)
        np.testing.assert_allclose(out, eye, atol=1e-15)

    def test_dimension_mismatch(self, matrix2):
        with pytest.raises(DimensionMismatch):
            ts.ternary_product(matrix2, np.zeros(3), np.zeros(4), np.zeros(4))

    def test_matches_matrix_triple_product(self, matrix2):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = rng.standard_normal((3, 2, 2))
            via_tensor = ts.ternary_product(
                matrix2, a.reshape(-1), b.reshape(-1), c.reshape(-1)
            )
            np.testing.assert_allclose(via_tensor, (a @ b @ c).reshape(-1), atol=1e-13)


class TestTrivialMatrixAlgebra:
    def test_m1_is_scalar_multiplication(self):
        alg = ts.trivial_matrix_algebra(1)
        assert alg.dim == 1
        assert alg.structure[0, 0, 0, 0] == 1.0
        assert "associative" in alg.flags

    def test_m2_associativity_bruteforce_oracle(self, matrix2):
        # independent oracle: raw 2x2 matrix products over every basis 5-tuple
        units = matrix_units(2)
        worst = 0.0
        for i, j, k, l, m in itertools.product(range(4), repeat=5):
            lhs = (units[i] @ units[j] @ units[k]) @ units[l] @ units[m]
            rhs = units[i] @ (units[j] @ units[k] @ units[l]) @ units[m]
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst <= 1e-12

        report = ts.check_ternary_associativity(matrix2, 1e-12)
        assert report.passed and report.exhaustive
        assert report.max_residual <= 1e-12
        assert report.checked == 4**5

    def test_m2_norm_submultiplicative_sampled(self, matrix2):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b, c = rng.standard_normal((3, 4))
            lhs = matrix2.norm_of(ts.ternary_product(matrix2, a, b, c))
            rhs = matrix2.norm_of(a) * matrix2.norm_of(b) * matrix2.norm_of(c)
            assert lhs <= rhs * (1 + 1e-12)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            ts.trivial_matrix_algebra(0)


def loop_trivial_matrix_tensor(m, field):
    """``trivial_matrix_algebra``'s tensor as built before: one matrix triple
    product per basis triple."""
    d = m * m
    dt = algebra.dtype_for(field)
    units = np.zeros((d, m, m), dtype=dt)
    for i in range(d):
        units[i].flat[i] = 1.0
    tensor = np.zeros((d, d, d, d), dtype=dt)
    for i, j, k in itertools.product(range(d), repeat=3):
        tensor[i, j, k, :] = (units[i] @ units[j] @ units[k]).reshape(-1)
    return tensor


def loop_odd_polynomial_tensor(cap, field):
    """``odd_polynomial_algebra``'s tensor as built before: one degree sum per
    basis triple."""
    degrees = list(range(1, cap + 1, 2))
    index = {deg: n for n, deg in enumerate(degrees)}
    d = len(degrees)
    tensor = np.zeros((d, d, d, d), dtype=algebra.dtype_for(field))
    for i, j, k in itertools.product(range(d), repeat=3):
        total = degrees[i] + degrees[j] + degrees[k]
        if total <= cap:
            tensor[i, j, k, index[total]] = 1.0
    return tensor


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_builders_match_their_loops(field):
    for m in range(1, 6):
        assert _same(ts.trivial_matrix_algebra(m, field).structure,
                     loop_trivial_matrix_tensor(m, field)), m
    for cap in range(1, 32, 2):
        assert _same(ts.odd_polynomial_algebra(cap, field).structure,
                     loop_odd_polynomial_tensor(cap, field)), cap


class TestCubicMatrices:
    def test_scalar_case(self):
        a = ts.CubicMatrix(1, np.full((1, 1, 1), 2.0))
        b = ts.CubicMatrix(1, np.full((1, 1, 1), 3.0))
        c = ts.CubicMatrix(1, np.full((1, 1, 1), 5.0))
        np.testing.assert_allclose(ts.cubic_product(a, b, c).entries, 30.0)

    def test_all_ones_cube(self):
        ones = ts.CubicMatrix(2, np.ones((2, 2, 2)))
        out = ts.cubic_product(ones, ones, ones)
        np.testing.assert_array_equal(out.entries, np.full((2, 2, 2), 8.0))

    def test_zero_cube(self):
        zero = ts.CubicMatrix(2, np.zeros((2, 2, 2)))
        ones = ts.CubicMatrix(2, np.ones((2, 2, 2)))
        out = ts.cubic_product(zero, ones, ones)
        np.testing.assert_array_equal(out.entries, np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("side", [1, 2, 3])
    def test_against_six_loop_oracle(self, side):
        rng = np.random.default_rng(side)
        a, b, c = (rng.standard_normal((side,) * 3) for _ in range(3))
        expected = np.zeros((side,) * 3)
        for i, j, k in itertools.product(range(side), repeat=3):
            acc = 0.0
            for l, m, n in itertools.product(range(side), repeat=3):
                acc += a[n, i, l] * b[l, j, m] * c[m, k, n]
            expected[i, j, k] = acc
        out = ts.cubic_product(
            ts.CubicMatrix(side, a), ts.CubicMatrix(side, b), ts.CubicMatrix(side, c)
        )
        np.testing.assert_allclose(out.entries, expected, atol=1e-12)

    def test_side_mismatch(self):
        a = ts.CubicMatrix(2, np.ones((2, 2, 2)))
        b = ts.CubicMatrix(3, np.ones((3, 3, 3)))
        with pytest.raises(DimensionMismatch):
            ts.cubic_product(a, b, a)


class TestOddPolynomialAlgebra:
    def test_cap3_cube_of_x(self, oddpoly3):
        x = np.array([1.0, 0.0])
        out = ts.ternary_product(oddpoly3, x, x, x)
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_cap3_truncation(self, oddpoly3):
        x = np.array([1.0, 0.0])
        x3 = np.array([0.0, 1.0])
        out = ts.ternary_product(oddpoly3, x3, x, x)  # degree 5 overflows
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_cap9_nested_products_agree(self):
        alg = ts.odd_polynomial_algebra(9)
        x = np.zeros(5)
        x[0] = 1.0
        inner = ts.ternary_product(alg, x, x, x)
        left = ts.ternary_product(alg, inner, x, x)
        right = ts.ternary_product(alg, x, inner, x)
        expected = np.zeros(5)
        expected[2] = 1.0  # x^5
        np.testing.assert_array_equal(left, expected)
        np.testing.assert_array_equal(right, expected)

    def test_partial_flag(self, oddpoly3):
        assert "partial" in oddpoly3.flags

    @pytest.mark.parametrize("cap", [0, 2, -3])
    def test_rejects_even_or_nonpositive_cap(self, cap):
        with pytest.raises(ValueError):
            ts.odd_polynomial_algebra(cap)


class TestAssociativityChecker:
    def test_zero_tensor_passes(self):
        alg = ts.TernaryAlgebra(2, "real", np.zeros((2, 2, 2, 2)))
        report = ts.check_ternary_associativity(alg, 0.0)
        assert report.passed and report.max_residual == 0.0

    def test_random_tensor_fails(self):
        rng = np.random.default_rng(3)
        alg = ts.TernaryAlgebra(2, "real", rng.uniform(size=(2, 2, 2, 2)))
        report = ts.check_ternary_associativity(alg, 1e-8)
        assert not report.passed and report.max_residual > 1e-8
        # cross-check the reported worst tuple by direct evaluation
        i, j, k, l, m = report.worst
        basis = np.eye(2)
        lhs = ts.ternary_product(
            alg, ts.ternary_product(alg, basis[i], basis[j], basis[k]), basis[l], basis[m]
        )
        rhs = ts.ternary_product(
            alg, basis[i], ts.ternary_product(alg, basis[j], basis[k], basis[l]), basis[m]
        )
        np.testing.assert_allclose(np.linalg.norm(lhs - rhs), report.max_residual)

    def test_sampled_path_matches_exhaustive_verdict(self, matrix2):
        sampled = ts.check_ternary_associativity(matrix2, 1e-12, samples=5000)
        assert sampled.passed and not sampled.exhaustive and sampled.checked == 5000

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"budget": 0}])
    def test_zero_tuples_do_not_pass(self, kwargs):
        report = ts.check_ternary_associativity(ts.trivial_matrix_algebra(2), 1e-12, **kwargs)
        assert report.checked == 0 and not report.passed

    # a fractional seed once ended in numpy's TypeError, and a negative seed
    # passed unnoticed whenever the check was exhaustive
    @pytest.mark.parametrize("kwargs", [{"samples": -3}, {"budget": -3},
                                        {"samples": 5, "budget": -3}, {"seed": -1},
                                        {"seed": 2.5}, {"budget": 100, "seed": -1}])
    def test_negative_counts_rejected_before_any_work(self, monkeypatch, kwargs):
        def no_work(*args, **kw):
            raise AssertionError("checked tuples before rejecting a negative count")

        monkeypatch.setattr(algebra, "_law_residuals", no_work)
        with pytest.raises(ValueError, match="nonnegative"):
            ts.check_ternary_associativity(ts.trivial_matrix_algebra(2), 1e-12, **kwargs)

    def test_m3_exhaustive(self):
        alg = ts.trivial_matrix_algebra(3)
        report = ts.check_ternary_associativity(alg, 1e-12)
        assert report.passed and report.exhaustive and report.checked == 9**5


class TestIdentityReduction:
    @pytest.mark.parametrize("m", [1, 2])
    def test_matrix_identity(self, m):
        alg = ts.trivial_matrix_algebra(m)
        e = np.eye(m).reshape(-1)
        red = ts.verify_identity_and_reduce(alg, e, 1e-12)
        assert red.identity_residual <= 1e-12
        assert red.assoc_residual <= 1e-12
        # the recovered binary product is matrix multiplication
        units = matrix_units(m)
        for i, j in itertools.product(range(m * m), repeat=2):
            np.testing.assert_allclose(
                red.table[i, j], (units[i] @ units[j]).reshape(-1), atol=1e-14
            )

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tol_rejected(self, matrix2, tol):
        # a NaN tol once passed every identity residual
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            ts.verify_identity_and_reduce(matrix2, np.eye(2).reshape(-1), tol)

    def test_zero_identity_fails_with_max_basis_norm(self, matrix2):
        with pytest.raises(ts.IdentityCheckError) as err:
            ts.verify_identity_and_reduce(matrix2, np.zeros(4), 1e-12)
        assert err.value.residual == pytest.approx(1.0)  # basis vectors are unit

    def test_scalar_identity(self, scalar_algebra):
        red = ts.verify_identity_and_reduce(scalar_algebra, [1.0], 1e-12)
        np.testing.assert_allclose(red.table[0, 0], [1.0])


class TestNormRescaling:
    def test_matrix_algebra_already_submultiplicative(self, matrix2):
        rescaled = ts.rescale_norm_submultiplicative(matrix2, samples=500, seed=7)
        assert rescaled.norm_scale == pytest.approx(1.0)

    def test_scaled_one_dim_gets_kappa_ten(self):
        alg = ts.TernaryAlgebra(1, "real", np.full((1, 1, 1, 1), 100.0))
        rescaled = ts.rescale_norm_submultiplicative(alg, samples=50, seed=1)
        assert rescaled.norm_scale == pytest.approx(10.0, rel=1e-12)

    def test_zero_tensor_unchanged(self):
        alg = ts.TernaryAlgebra(2, "real", np.zeros((2, 2, 2, 2)))
        rescaled = ts.rescale_norm_submultiplicative(alg, samples=10)
        assert rescaled.norm_scale == 1.0

    def test_fresh_sample_holds_after_rescale(self):
        rng = np.random.default_rng(11)
        alg = ts.TernaryAlgebra(2, "real", rng.standard_normal((2, 2, 2, 2)))
        rescaled = ts.rescale_norm_submultiplicative(alg, samples=2000, seed=5)
        fresh = np.random.default_rng(999)
        worst = 0.0
        for _ in range(500):
            a, b, c = fresh.standard_normal((3, 2))
            lhs = rescaled.norm_of(ts.ternary_product(rescaled, a, b, c))
            rhs = rescaled.norm_of(a) * rescaled.norm_of(b) * rescaled.norm_of(c)
            worst = max(worst, lhs - rhs)
        assert worst <= 1e-9

    def test_rescale_validates_samples(self, matrix2):
        # a non-integer count once ended in range()'s TypeError
        for samples in (0, -1, 2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="samples must be an integer >= 1"):
                ts.rescale_norm_submultiplicative(matrix2, samples=samples)
        for seed in (-1, 2.5, None):
            with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
                ts.rescale_norm_submultiplicative(matrix2, samples=3, seed=seed)


class TestAlgebraValidation:
    def test_bad_field(self):
        with pytest.raises(ValueError):
            ts.TernaryAlgebra(1, "quaternion", np.ones((1, 1, 1, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ts.TernaryAlgebra(2, "real", np.zeros((2, 2, 2, 3)))

    def test_nonfinite_tensor(self):
        t = np.zeros((1, 1, 1, 1))
        t[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            ts.TernaryAlgebra(1, "real", t)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_norm_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="norm_scale"):
            ts.TernaryAlgebra(1, "real", np.ones((1, 1, 1, 1)), norm_scale=scale)

    def test_structure_is_immutable(self, matrix2):
        with pytest.raises(ValueError):
            matrix2.structure[0, 0, 0, 0] = 5.0

    def test_complex_field_dtype(self):
        alg = ts.trivial_matrix_algebra(2, "complex")
        assert alg.structure.dtype == np.complex128
        out = ts.ternary_product(
            alg, np.eye(2).reshape(-1) * 1j, np.eye(2).reshape(-1), np.eye(2).reshape(-1)
        )
        np.testing.assert_allclose(out, np.eye(2).reshape(-1) * 1j)
