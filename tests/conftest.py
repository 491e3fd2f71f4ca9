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
