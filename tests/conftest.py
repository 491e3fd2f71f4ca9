import numpy as np
import pytest

import ternstab as ts


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}")


@pytest.fixture(scope="session")
def matrix2():
    return ts.trivial_matrix_algebra(2)


@pytest.fixture(scope="session")
def matrix2_module(matrix2):
    return ts.self_module(matrix2)


@pytest.fixture(scope="session")
def oddpoly3():
    return ts.odd_polynomial_algebra(3)


@pytest.fixture(scope="session")
def oddpoly3_module(oddpoly3):
    return ts.self_module(oddpoly3)


@pytest.fixture(scope="session")
def scalar_algebra():
    return ts.TernaryAlgebra(1, "real", np.ones((1, 1, 1, 1)))


@pytest.fixture(scope="session")
def identity4():
    return ts.LinearMap.identity(4)


@pytest.fixture(scope="session")
def identity2():
    return ts.LinearMap.identity(2)


@pytest.fixture(scope="session")
def oddpoly_derivation(oddpoly3_module, identity2):
    basis = ts.solve_exact_derivations(
        oddpoly3_module, identity2, identity2, identity2
    )
    assert basis, "odd-poly cap=3 must have a nontrivial derivation space"
    return basis[0]


def _gamma(n):
    u = np.finfo(np.float64).eps / 2
    return n * u / (1 - n * u)


def _entry_bound(spec, t1, t2):
    """How far each entry of ``np.einsum(spec, t1, t2)`` may lie from its exact
    value, in any order of its sum over q: ``γ_q Σ_q |t1||t2|``, or
    ``γ_{q+2}`` for complex entries (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., §3.1 and §3.6)."""
    q = t1.shape[-1] + (2 if np.iscomplexobj(t1) or np.iscomplexobj(t2) else 0)
    return _gamma(q) * np.einsum(spec, abs(t1), abs(t2))


def _law_bound(exprs, tensors, residual):
    """How far a law residual may move when its sums over q run in another
    order: a difference of two expressions by ``4 γ_q S`` per coordinate, S
    the largest sum of ``_entry_bound``, its 2-norm over the r coordinates
    by ``sqrt(r)`` times that, and the subtraction and the norm add at most
    ``2 γ_{r+2}`` of the residual."""
    worst = max(float(_entry_bound(spec, *(tensors[n] for n in names)).max())
                for spec, names in exprs)
    r = max(tensors[names[1]].shape[-1] for _, names in exprs)
    return 4 * worst * np.sqrt(r) + 2 * _gamma(r + 2) * residual


@pytest.fixture(scope="session")
def entry_bound():
    return _entry_bound


@pytest.fixture(scope="session")
def law_close():
    """Check a law's ``(residual, tuple)`` from the matrix-product evaluator
    against an einsum reference: the residuals agree within the rounding
    bound, and the tuples agree unless, in the reference's per-tuple
    ``norms``, the one found lies within that bound of the maximum."""

    def check(got, want, exprs, tensors, norms=None):
        (got_res, got_at), (want_res, want_at) = got, want
        bound = _law_bound(exprs, tensors, want_res)
        assert abs(got_res - want_res) <= bound, (got_res, want_res, bound)
        if got_at != want_at:
            assert norms is not None and norms[got_at] >= norms[want_at] - bound

    return check
