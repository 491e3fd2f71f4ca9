import numpy as np
import pytest

import ternstab as ts
from ternstab import module
from ternstab.errors import DimensionMismatch
from ternstab.module import product_abx, product_axb, product_xab


class TestSelfModule:
    def test_m2_chains_vanish_exhaustively(self, matrix2_module):
        report = ts.check_module_axioms(matrix2_module, 1e-12, samples=1000, seed=3)
        assert report.passed and report.exhaustive
        assert report.max_chain_residual <= 1e-12
        assert set(report.chain_residuals) == {
            "abc_d_x",
            "abc_x_d",
            "xab_c_d",
            "axb_c_d",
            "abx_c_d",
        }

    def test_norm_inequality_on_seeded_samples(self, matrix2_module):
        report = ts.check_module_axioms(matrix2_module, 1e-12, samples=1000, seed=8)
        assert report.norm_violation <= 0.0
        assert report.norm_samples == 1000

    def test_products_match_matrix_arithmetic(self, matrix2_module):
        rng = np.random.default_rng(0)
        a, b, x = rng.standard_normal((3, 2, 2))
        av, bv, xv = a.reshape(-1), b.reshape(-1), x.reshape(-1)
        np.testing.assert_allclose(
            product_xab(matrix2_module, xv, av, bv), (x @ a @ b).reshape(-1), atol=1e-13
        )
        np.testing.assert_allclose(
            product_axb(matrix2_module, av, xv, bv), (a @ x @ b).reshape(-1), atol=1e-13
        )
        np.testing.assert_allclose(
            product_abx(matrix2_module, av, bv, xv), (a @ b @ x).reshape(-1), atol=1e-13
        )


class TestZeroModule:
    def test_chains_pass_trivially(self, matrix2):
        zero = np.zeros((4, 4, 4, 4))
        mod = ts.TernaryModule(
            algebra=matrix2, dim=4, product_xab=zero, product_axb=zero, product_abx=zero
        )
        report = ts.check_module_axioms(mod, 0.0, samples=50)
        assert report.passed and report.max_chain_residual == 0.0


class TestBrokenModule:
    def test_perturbed_product_fails_chains(self, matrix2):
        t = matrix2.structure
        bad = np.array(t)
        bad[0, 1, 2, 3] += 0.5
        mod = ts.TernaryModule(
            algebra=matrix2, dim=4, product_xab=bad, product_axb=t, product_abx=t
        )
        report = ts.check_module_axioms(mod, 1e-12, samples=10)
        assert not report.passed
        assert report.max_chain_residual > 1e-3


class TestSampledModulePath:
    def test_sampled_agrees_with_exhaustive_for_m2(self, matrix2_module):
        report = ts.check_module_axioms(
            matrix2_module, 1e-12, samples=100, seed=4, budget=10
        )
        assert not report.exhaustive
        assert report.passed
        assert report.max_chain_residual <= 1e-12

    def test_no_tuples_checked_does_not_pass(self, matrix2_module):
        report = ts.check_module_axioms(matrix2_module, 1e-12, samples=0, budget=0)
        assert report.tuples_checked == 0 and not report.passed

    def test_no_norm_sample_does_not_pass(self, matrix2_module):
        # the chains hold exhaustively, but the norm inequality saw nothing
        report = ts.check_module_axioms(matrix2_module, 1e-12, samples=0)
        assert report.exhaustive and report.max_chain_residual <= 1e-12
        assert report.norm_samples == 0 and not report.passed

    # a fractional seed once ended in numpy's TypeError
    @pytest.mark.parametrize("kwargs", [{"samples": -3}, {"budget": -3}, {"seed": -1},
                                        {"seed": 2.5}])
    def test_negative_counts_rejected_before_any_work(self, matrix2_module, monkeypatch,
                                                      kwargs):
        def no_work(*args, **kw):
            raise AssertionError("checked tuples before rejecting a negative count")

        monkeypatch.setattr(module, "_law_residuals", no_work)
        monkeypatch.setattr(module, "_random_vector", no_work)
        with pytest.raises(ValueError, match="nonnegative"):
            ts.check_module_axioms(matrix2_module, 1e-12, **kwargs)


class TestModuleValidation:
    def test_shape_mismatch(self, matrix2):
        with pytest.raises(DimensionMismatch):
            ts.TernaryModule(
                algebra=matrix2,
                dim=3,
                product_xab=np.zeros((4, 4, 4, 4)),
                product_axb=np.zeros((4, 3, 4, 3)),
                product_abx=np.zeros((4, 4, 3, 3)),
            )

    def test_mixed_dimension_module(self, scalar_algebra):
        # a 2-dim module over the 1-dim algebra with all products zero
        mod = ts.TernaryModule(
            algebra=scalar_algebra,
            dim=2,
            product_xab=np.zeros((2, 1, 1, 2)),
            product_axb=np.zeros((1, 2, 1, 2)),
            product_abx=np.zeros((1, 1, 2, 2)),
        )
        report = ts.check_module_axioms(mod, 0.0, samples=20)
        assert report.passed

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["product_xab", "product_axb", "product_abx"])
    def test_non_finite_product_rejected_as_by_the_algebra(self, matrix2, name, bad):
        # trivial m = 2's self-module with one entry of one product not
        # finite: the module rejects it as TernaryAlgebra rejects its tensor
        tensor = np.array(matrix2.structure)
        tensor[0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            ts.TernaryAlgebra(matrix2.dim, matrix2.field, tensor)
        products = {key: matrix2.structure
                    for key in ("product_xab", "product_axb", "product_abx")}
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            ts.TernaryModule(algebra=matrix2, dim=matrix2.dim, **{**products, name: tensor})
