"""Linear maps, the twisted ternary bracket, derivation residuals and the
exact-derivation solver.

The twisted bracket of a module vector ``x`` against algebra vectors ``b, c``
under three linear maps ``sigma, tau, xi`` on the algebra is

    [x b c]_(sigma,tau,xi) = [x, tau(b), xi(c)] - [sigma(c), tau(b), x]

where the first term uses the module product with the module slot first and
the second the product with the module slot last.  A linear ``D`` from the
algebra into the module is a twisted ternary derivation when

    D([abc]) = s1 [D(a) b c] + s2 [D(b) a c] + s3 [D(c) b a]

holds for all triples, with the bracket slots twisted as above and a sign
convention ``(s1, s2, s3)``.  Published statements of this identity disagree
about the signs, so the convention is an explicit parameter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import _trilinear
from .errors import DimensionMismatch
from .module import TernaryModule, product_abx, product_xab


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A matrix acting on coordinate vectors: ``apply(x) = matrix @ x``."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.dtype.kind not in "fc":
            m = m.astype(np.float64)
        if m.ndim != 2:
            raise DimensionMismatch(f"matrix must be 2-d, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def in_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def out_dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.in_dim,):
            raise DimensionMismatch(
                f"input of shape {x.shape} for map with in_dim {self.in_dim}"
            )
        return self.matrix @ x

    __call__ = apply

    @staticmethod
    def identity(dim: int, dtype=np.float64) -> "LinearMap":
        return LinearMap(np.eye(dim, dtype=dtype))

    @staticmethod
    def zero(out_dim: int, in_dim: int, dtype=np.float64) -> "LinearMap":
        return LinearMap(np.zeros((out_dim, in_dim), dtype=dtype))


@dataclass(frozen=True)
class SignConvention:
    """Signs ``(s1, s2, s3)`` of the three bracket terms in the derivation
    identity ``D([abc]) = s1 [D(a)bc] + s2 [D(b)ac] + s3 [D(c)ba]``."""

    s1: int = 1
    s2: int = 1
    s3: int = 1

    def __post_init__(self):
        for s in (self.s1, self.s2, self.s3):
            if s not in (1, -1):
                raise ValueError("sign entries must be +1 or -1")

    def as_tuple(self):
        return (self.s1, self.s2, self.s3)

    @staticmethod
    def from_sequence(seq) -> "SignConvention":
        seq = list(seq)
        if len(seq) != 3:
            raise ValueError("sign convention needs exactly 3 entries")
        return SignConvention(*(int(s) for s in seq))


#: all-plus convention of the derivation identity
LIE_SIGNS = SignConvention(1, 1, 1)
#: variant with the second and third bracket subtracted
MIXED_SIGNS = SignConvention(1, -1, -1)


def _check_twist_maps(mod: TernaryModule, sigma, tau, xi):
    d = mod.algebra.dim
    for name, m in (("sigma", sigma), ("tau", tau), ("xi", xi)):
        if m.in_dim != d or m.out_dim != d:
            raise DimensionMismatch(
                f"{name} must map the {d}-dim algebra to itself, "
                f"got {m.out_dim}x{m.in_dim}"
            )


def twisted_bracket(
    mod: TernaryModule, x, b, c, sigma: LinearMap, tau: LinearMap, xi: LinearMap
) -> np.ndarray:
    """``[x, tau(b), xi(c)] - [sigma(c), tau(b), x]`` through the module products."""
    _check_twist_maps(mod, sigma, tau, xi)
    tb = tau(mod.algebra.vector(b))
    xc = xi(mod.algebra.vector(c))
    sc = sigma(mod.algebra.vector(c))
    return product_xab(mod, x, tb, xc) - product_abx(mod, sc, tb, x)


def lie_derivation_residual(
    mod: TernaryModule,
    deriv: LinearMap,
    a,
    b,
    c,
    sigma: LinearMap,
    tau: LinearMap,
    xi: LinearMap,
    signs: SignConvention = LIE_SIGNS,
) -> np.ndarray:
    """Defect of the derivation identity at one triple or a stack of them.

    Zero for all triples exactly when ``deriv`` is a twisted ternary
    derivation under the given sign convention.  ``a``, ``b`` and ``c`` are
    algebra vectors whose leading axes broadcast; the result has the
    broadcast leading shape followed by the module dimension.  The
    accumulation order is fixed (first bracket subtracted first) so
    sign-flipped variants are bitwise reproducible.
    """
    _check_twist_maps(mod, sigma, tau, xi)
    alg = mod.algebra
    a, b, c = (np.asarray(v, dtype=alg.dtype) for v in (a, b, c))
    if deriv.matrix.shape != (mod.dim, alg.dim) or any(
        v.shape[-1:] != (alg.dim,) for v in (a, b, c)
    ):
        raise DimensionMismatch(
            f"need a {mod.dim}x{alg.dim} deriv and vectors of length {alg.dim}, got "
            f"{deriv.out_dim}x{deriv.in_dim} and shapes {a.shape}, {b.shape}, {c.shape}"
        )

    def apply(m, v):
        return v @ m.matrix.T

    def bracket(x, b, c):
        # the twisted bracket [x, tau(b), xi(c)] - [sigma(c), tau(b), x]
        tb = apply(tau, b)
        return _trilinear(mod.product_xab, x, tb, apply(xi, c)) - _trilinear(
            mod.product_abx, apply(sigma, c), tb, x
        )

    res = apply(deriv, _trilinear(alg.structure, a, b, c))
    res = res - signs.s1 * bracket(apply(deriv, a), b, c)
    res = res - signs.s2 * bracket(apply(deriv, b), a, c)
    res = res - signs.s3 * bracket(apply(deriv, c), b, a)
    return res


def jordan_residual(
    mod: TernaryModule,
    deriv: LinearMap,
    a,
    sigma: LinearMap,
    tau: LinearMap,
    xi: LinearMap,
    signs: SignConvention = LIE_SIGNS,
) -> np.ndarray:
    """Derivation defect on the diagonal: the identity required at ``a = b = c`` only."""
    return lie_derivation_residual(mod, deriv, a, a, a, sigma, tau, xi, signs)


def residual_on_basis(
    mod: TernaryModule,
    deriv: LinearMap,
    sigma: LinearMap,
    tau: LinearMap,
    xi: LinearMap,
    signs: SignConvention = LIE_SIGNS,
) -> np.ndarray:
    """Residual tensor ``R[i, j, k, :]`` over all basis triples, vectorized."""
    eye = mod.algebra.basis()
    grid = (eye[:, None, None, :], eye[None, :, None, :], eye[None, None, :, :])
    return lie_derivation_residual(mod, deriv, *grid, sigma, tau, xi, signs)


def solve_exact_derivations(
    mod: TernaryModule,
    sigma: LinearMap,
    tau: LinearMap,
    xi: LinearMap,
    signs: SignConvention = LIE_SIGNS,
    rank_tol: float = 1e-10,
) -> list:
    """Orthonormal basis of the space of exact twisted derivations.

    The derivation defect is linear in the entries of ``D``; stacking it
    over all basis triples gives a ``(dA**3 * dX) x (dX * dA)`` system whose
    null space is extracted by SVD.  Directions with singular value at most
    ``rank_tol`` times the largest are counted as null.  The zero map is
    always a solution and is not part of the returned basis; an empty list
    means it is the only one.
    """
    _check_twist_maps(mod, sigma, tau, xi)
    da, dx = mod.algebra.dim, mod.dim
    dtype = mod.dtype
    cols = []
    for u, v in itertools.product(range(dx), range(da)):
        unit = np.zeros((dx, da), dtype=dtype)
        unit[u, v] = 1.0
        cols.append(
            residual_on_basis(mod, LinearMap(unit), sigma, tau, xi, signs).reshape(-1)
        )
    system = np.column_stack(cols)
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        null_rows = vh
    else:
        null_rows = vh[svals <= rank_tol * svals[0]]
    basis = []
    # most-null direction first; orient each vector so its largest entry is
    # positive real, making the basis reproducible
    for row in null_rows[::-1]:
        mat = row.conj().reshape(dx, da)
        anchor = mat.flat[int(np.argmax(np.abs(mat)))]
        if anchor != 0:
            mat = mat * (np.abs(anchor) / anchor)
        if dtype == np.float64:
            mat = mat.real
        basis.append(LinearMap(mat))
    return basis


def unimodular_split(gamma: complex, big_n: int) -> tuple:
    """Write ``2 * gamma / N`` as a sum of two unit-modulus scalars.

    Requires ``gamma != 0`` and integer ``N > |gamma|``.  With
    ``mu = gamma / N``, ``t = |mu|`` and ``u = mu / t`` the pair is
    ``u * (t +- i sqrt(1 - t**2))``; both factors have modulus one and they
    sum to ``2 * mu``.
    """
    gamma = complex(gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero (the zero case is trivial upstream)")
    big_n = int(big_n)
    if big_n <= abs(gamma):
        raise ValueError(f"N must exceed |gamma| = {abs(gamma):.6g}, got {big_n}")
    # bring subnormal inputs into normal range by exact power-of-two scaling
    # before extracting the phase; gamma / N may otherwise underflow and
    # subnormal components carry almost no mantissa
    scaled = gamma
    while max(abs(scaled.real), abs(scaled.imag)) < 2.0**-500:
        scaled *= 2.0**500
    u = scaled / abs(scaled)
    t = abs(gamma) / big_n
    s = np.sqrt(max(0.0, 1.0 - t * t))
    return u * (t + 1j * s), u * (t - 1j * s)
