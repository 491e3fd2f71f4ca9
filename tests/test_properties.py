"""Property-based invariants over randomized inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ternstab as ts

finite_scalars = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
nonzero_scalars = finite_scalars.filter(lambda v: abs(v) > 1e-6)


@settings(max_examples=60, deadline=None)
@given(s=finite_scalars, t=finite_scalars, seed=st.integers(0, 2**31 - 1))
def test_ternary_product_trilinear_first_slot(s, t, seed):
    alg = ts.trivial_matrix_algebra(2)
    rng = np.random.default_rng(seed)
    a, a2, b, c = rng.standard_normal((4, 4))
    left = ts.ternary_product(alg, s * a + t * a2, b, c)
    right = s * ts.ternary_product(alg, a, b, c) + t * ts.ternary_product(alg, a2, b, c)
    scale = 1 + np.linalg.norm(left)
    np.testing.assert_allclose(left, right, atol=1e-10 * scale)


@settings(max_examples=60, deadline=None)
@given(s=finite_scalars, t=finite_scalars, seed=st.integers(0, 2**31 - 1), slot=st.sampled_from([1, 2]))
def test_ternary_product_trilinear_other_slots(s, t, seed, slot):
    alg = ts.trivial_matrix_algebra(2)
    rng = np.random.default_rng(seed)
    a, b, b2, c = rng.standard_normal((4, 4))
    if slot == 1:
        left = ts.ternary_product(alg, a, s * b + t * b2, c)
        right = s * ts.ternary_product(alg, a, b, c) + t * ts.ternary_product(alg, a, b2, c)
    else:
        left = ts.ternary_product(alg, a, c, s * b + t * b2)
        right = s * ts.ternary_product(alg, a, c, b) + t * ts.ternary_product(alg, a, c, b2)
    scale = 1 + np.linalg.norm(left)
    np.testing.assert_allclose(left, right, atol=1e-10 * scale)


@settings(max_examples=60, deadline=None)
@given(s=nonzero_scalars, seed=st.integers(0, 2**31 - 1))
def test_bracket_homogeneous_in_module_slot(s, seed):
    alg = ts.trivial_matrix_algebra(2)
    mod = ts.self_module(alg)
    ident = ts.LinearMap.identity(4)
    rng = np.random.default_rng(seed)
    x, b, c = rng.standard_normal((3, 4))
    one = ts.twisted_bracket(mod, x, b, c, ident, ident, ident)
    scaled = ts.twisted_bracket(mod, s * x, b, c, ident, ident, ident)
    np.testing.assert_allclose(scaled, s * one, atol=1e-12 * (1 + abs(s)) * (1 + np.linalg.norm(one)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_residual_additive_in_derivation(seed):
    alg = ts.odd_polynomial_algebra(3)
    mod = ts.self_module(alg)
    ident = ts.LinearMap.identity(2)
    rng = np.random.default_rng(seed)
    d1 = ts.LinearMap(rng.standard_normal((2, 2)))
    d2 = ts.LinearMap(rng.standard_normal((2, 2)))
    a, b, c = rng.standard_normal((3, 2))
    r1 = ts.lie_derivation_residual(mod, d1, a, b, c, ident, ident, ident)
    r2 = ts.lie_derivation_residual(mod, d2, a, b, c, ident, ident, ident)
    rsum = ts.lie_derivation_residual(
        mod, ts.LinearMap(d1.matrix + d2.matrix), a, b, c, ident, ident, ident
    )
    np.testing.assert_allclose(rsum, r1 + r2, atol=1e-10 * (1 + np.linalg.norm(r1) + np.linalg.norm(r2)))


@settings(max_examples=200, deadline=None)
@given(
    re=st.floats(min_value=-100, max_value=100, allow_nan=False),
    im=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_unimodular_split_invariants(re, im):
    gamma = complex(re, im)
    if gamma == 0:
        gamma = 1.0 + 0.0j
    n = int(np.ceil(abs(gamma))) + 1
    l1, l2 = ts.unimodular_split(gamma, n)
    assert abs(abs(l1) - 1.0) <= 1e-12
    assert abs(abs(l2) - 1.0) <= 1e-12
    assert abs(l1 + l2 - 2 * gamma / n) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_recovered_limit_additive_on_dyadic_ray(seed):
    alg = ts.odd_polynomial_algebra(3)
    mod = ts.self_module(alg)
    ident = ts.LinearMap.identity(2)
    truth = ts.solve_exact_derivations(mod, ident, ident, ident)[0]
    spec = ts.PerturbationSpec(theta=0.05, p=0.5, direction="hash", seed=seed)
    f = ts.perturb_map(truth, spec, alg.norm_of, mod.norm_of)
    control = ts.power_control(0.05, 0.5, arity=5, norm=alg.norm_of)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2)
    tol = 1e-8
    at_x, _ = ts.hyers_limit(f, control, x, tol)
    at_2x, _ = ts.hyers_limit(f, control, 2 * x, tol)
    assert np.linalg.norm(at_2x / 2 - at_x) <= 10 * tol
