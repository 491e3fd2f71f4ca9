import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ternstab as ts
from ternstab.errors import DimensionMismatch
from ternstab import maps
from ternstab.maps import _bracket, _canonical_null_basis

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


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

    @pytest.mark.parametrize("rank_tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_rank_tol_rejected_before_any_work(self, matrix2_module, identity4,
                                                   monkeypatch, rank_tol):
        # the true space is empty; a NaN rank_tol reported null_dim 16 with
        # an empty basis, inf returned 16 maps and -1 kept every direction
        calls = []
        monkeypatch.setattr(maps, "_bracket_entries", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="rank_tol"):
            ts.solve_exact_derivations(matrix2_module, identity4, identity4, identity4,
                                       rank_tol=rank_tol)
        assert calls == []

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


def bracket_table(mod, sigma, tau, xi) -> np.ndarray:
    """``G[u, b, c, w]``: coordinate ``w`` of the twisted bracket ``[e_u b c]``
    at basis vectors, dense, from the module products' contraction kernel."""
    ex = np.eye(mod.dim, dtype=mod.dtype)[:, None, None, :]
    return _bracket(mod, ex, tau.matrix.T[None, :, None, :], xi.matrix.T[None, None, :, :],
                    sigma.matrix.T[None, None, :, :])


def _jacobian_block(structure, table, i: int, signs) -> np.ndarray:
    """Rows ``(i, j, k, w)`` of the derivation system for one first index ``i``,
    dense: ``J[(i,j,k,w),(u,v)] = delta_wu T[i,j,k,v] - s1 delta_iv G[u,j,k,w]
    - s2 delta_jv G[u,i,k,w] - s3 delta_kv G[u,j,i,w]``."""
    dx, da = table.shape[0], structure.shape[0]
    block = np.zeros((da, da, dx, dx, da), dtype=table.dtype)  # [j, k, w, u, v]
    w, a = np.arange(dx), np.arange(da)
    block[:, :, w, w, :] = structure[i][:, :, None, :]
    block[:, :, :, :, i] -= signs.s1 * table.transpose(1, 2, 3, 0)
    block[a, :, :, :, a] -= signs.s2 * table[:, i].transpose(1, 2, 0)
    block[:, a, :, :, a] -= signs.s3 * table[:, :, i].transpose(1, 2, 0)[None]
    return block.reshape(da * da * dx, dx * da)


def tsqr_solver(mod, sigma, tau, xi, signs=ts.LIE_SIGNS, rank_tol=1e-10):
    """The solver before the sparse assembly, kept as the second reference:
    one dense Jacobian block per first index ``i``, its single-entry rows
    folded into one root-sum-of-squares row per column, the others stacked
    under a running triangular factor and reduced by an R-only QR (a
    tall-skinny QR), then an SVD of the final ``R``.  Returns the canonical
    null basis as flat rows and the system's nonzero row count."""
    da, dx = mod.algebra.dim, mod.dim
    table = bracket_table(mod, sigma, tau, xi)
    columns = dx * da
    r_factor = np.zeros((0, columns), dtype=mod.dtype)
    pending = []
    single_sq = np.zeros(columns)
    nonzero_rows = 0
    for i in range(da):
        block = _jacobian_block(mod.algebra.structure, table, i, signs)
        entries = np.count_nonzero(block, axis=1)
        nonzero_rows += int(np.count_nonzero(entries))
        single_sq += np.sum(np.abs(block[entries == 1]) ** 2, axis=0)
        pending.append(block[entries > 1])
        if sum(map(len, pending)) >= columns:
            r_factor = np.linalg.qr(np.vstack([r_factor, *pending]), mode="r")
            pending = []
    folded = np.diag(np.sqrt(single_sq))[single_sq > 0]
    r_factor = np.linalg.qr(np.vstack([r_factor, *pending, folded]), mode="r")
    _, svals, vh = np.linalg.svd(r_factor)
    sigma_max = float(svals[0]) if svals.size else 0.0
    rank = int(np.count_nonzero(svals > rank_tol * sigma_max))
    null = vh[rank:].conj()
    return (_canonical_null_basis(null) if len(null) else null), nonzero_rows


def subspace_distance(one, two) -> float:
    """Spectral norm of the difference of the orthogonal projectors onto the
    spans of two orthonormal bases of linear maps."""
    def projector(basis):
        flat = np.array([lm.matrix.reshape(-1) for lm in basis], dtype=complex)
        return flat.reshape(len(basis), -1).conj().T @ flat.reshape(len(basis), -1)

    return float(np.linalg.norm(projector(one) - projector(two), 2))


def assert_same_space(mod, sigma, tau, xi, signs=ts.LIE_SIGNS, rank_tol=1e-10, columns=True):
    """The solver's space against the TSQR reference and, unless ``columns``
    is False, the column-by-column one: the same dimension, spans at most
    1e-10 apart."""
    new = ts.solve_exact_derivations(mod, sigma, tau, xi, signs, rank_tol)
    null, nonzero_rows = tsqr_solver(mod, sigma, tau, xi, signs, rank_tol)
    assert len(new) == len(null) == new.margin["null_dim"]
    assert new.margin["nonzero_rows"] == nonzero_rows
    shape = (mod.dim, mod.algebra.dim)
    if len(null):
        assert subspace_distance(new, [ts.LinearMap(row.reshape(shape)) for row in null]) <= 1e-10
    if columns:
        old = column_by_column_solver(mod, sigma, tau, xi, signs, rank_tol)
        assert len(new) == len(old)
        if old:
            assert subspace_distance(new, old) <= 1e-10
    return new


def random_twist(rng, dim, field_tag, kind):
    m = rng.standard_normal((dim, dim))
    if field_tag == "complex":
        m = m + 1j * rng.standard_normal((dim, dim))
    return ts.LinearMap(np.diag(np.diag(m)) if kind == "diagonal" else m)


class TestSolverAgainstColumnReference:
    """The sparse component solver finds the null space of the dense TSQR
    system and of the column-by-column one: the same dimension, and spans
    at most 1e-10 apart."""

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

    @pytest.mark.parametrize("builder, size, kind", [("matrix", 2, "dense"), ("matrix", 3, "diagonal"),
                                                     ("odd", 9, "dense"), ("odd", 15, "identity")])
    @pytest.mark.parametrize("field_tag", ["real", "complex"])
    def test_one_index_per_block(self, monkeypatch, builder, size, kind, field_tag):
        # every first index its own block: the second pass assembles the
        # blocks again instead of keeping the only one
        alg = (ts.odd_polynomial_algebra(size, field_tag) if builder == "odd"
               else ts.trivial_matrix_algebra(size, field_tag))
        rng = np.random.default_rng([size, len(kind), len(field_tag)])
        twists = ([ts.LinearMap.identity(alg.dim, alg.dtype)] * 3 if kind == "identity"
                  else [random_twist(rng, alg.dim, field_tag, kind) for _ in range(3)])
        mod = ts.self_module(alg)
        whole = ts.solve_exact_derivations(mod, *twists, ts.MIXED_SIGNS)
        monkeypatch.setattr(maps, "_BLOCK_TERMS", 1)
        assert len(maps._row_blocks(mod, maps._bracket_entries(mod, *twists))) == alg.dim
        split = assert_same_space(mod, *twists, ts.MIXED_SIGNS, columns=False)
        assert split.margin["nonzero_rows"] == whole.margin["nonzero_rows"]
        assert len(split) == len(whole)
        if whole:
            assert subspace_distance(split, whole) <= 1e-12

    @pytest.mark.parametrize("builder, size", [("matrix", 4), ("odd", 41)])
    def test_larger_ladder_cases(self, builder, size):
        # too large for the column-by-column system; the TSQR blocks still fit
        alg = (ts.odd_polynomial_algebra(size) if builder == "odd"
               else ts.trivial_matrix_algebra(size))
        ident = ts.LinearMap.identity(alg.dim)
        assert_same_space(ts.self_module(alg), ident, ident, ident, columns=False)

    def test_d36_solve_stays_small(self):
        # trivial-matrix m = 6: one dense Jacobian block would hold d**5
        # entries, 484 MB; the sparse assembly stays far below that
        alg = ts.trivial_matrix_algebra(6)
        mod, ident = ts.self_module(alg), ts.LinearMap.identity(36)
        tracemalloc.start()
        try:
            basis = ts.solve_exact_derivations(mod, ident, ident, ident)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis == [] and basis.margin["null_dim"] == 0
        assert (basis.margin["rows"], basis.margin["nonzero_rows"]) == (36**4, 275076)
        assert peak < 150e6, peak

    def test_dense_twists_stay_below_the_dense_reference(self):
        # dense random twists join every column into one component; the
        # Jacobian is assembled one block of rows at a time, so the solve
        # holds less than the TSQR reference, whose peak is set by its
        # dense blocks of d**5 entries and their copies (19 MB against 36)
        alg = ts.trivial_matrix_algebra(4)
        mod = ts.self_module(alg)
        twists = [random_twist(np.random.default_rng(k), 16, "real", "dense") for k in range(3)]
        peaks = []
        for solve in (ts.solve_exact_derivations, tsqr_solver):
            tracemalloc.start()
            try:
                solve(mod, *twists)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.75 * peaks[1], peaks

    def test_solver_imports_numpy_only(self):
        code = ("import sys, ternstab as ts\n"
                "i = ts.LinearMap.identity(9)\n"
                "ts.solve_exact_derivations(ts.self_module(ts.trivial_matrix_algebra(3)), i, i, i)\n"
                "assert 'scipy' not in sys.modules, sorted(sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

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


class TestSignEntries:
    @pytest.mark.parametrize("signs", [(True, True, True), (1, False, 1), (1.0, -1.0, 1),
                                       (1, 1, -1.0), (np.True_, 1, 1), (1.5, 1, 1), ("1", 1, 1)])
    def test_bools_floats_and_strings_are_rejected(self, signs):
        with pytest.raises(ValueError, match="sign entries must be the integers"):
            ts.SignConvention(*signs)

    @pytest.mark.parametrize("seq", [[1.5, 1, 1], [-1.9, True, 1.0], [True, 1, 1], [1, 1, 1.0]])
    def test_from_sequence_does_not_truncate(self, seq):
        with pytest.raises(ValueError, match="sign entries must be the integers"):
            ts.SignConvention.from_sequence(seq)

    def test_integers_are_stored_as_int(self):
        signs = ts.SignConvention(np.int64(1), -1, np.int32(-1))
        assert signs == ts.MIXED_SIGNS and all(type(s) is int for s in signs.as_tuple())
        signs = ts.SignConvention.from_sequence(np.array([1, -1, -1]))
        assert signs == ts.MIXED_SIGNS and all(type(s) is int for s in signs.as_tuple())
