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

from dataclasses import dataclass

import numpy as np

from .algebra import _trilinear
from .errors import DimensionMismatch
# product_* are only imported here: the traced benchmark wraps them at this module
from .module import TernaryModule, product_abx, product_xab


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A matrix acting on coordinate vectors: ``apply(x) = matrix @ x``.

    ``apply`` also takes an ``(N, in_dim)`` stack and then runs one
    matrix-vector product per row, bitwise equal to each row's alone.
    """

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
        if x.ndim not in (1, 2) or x.shape[-1] != self.in_dim:
            raise DimensionMismatch(
                f"input of shape {x.shape} for map with in_dim {self.in_dim}"
            )
        # ``x @ matrix.T`` on a stack would sum in another order
        return self.matrix @ x if x.ndim == 1 else (self.matrix @ x[:, :, None])[:, :, 0]

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


def _bracket(mod: TernaryModule, x, tb, xc, sc) -> np.ndarray:
    """The twisted bracket ``[x, tb, xc] - [sc, tb, x]`` from the already
    twisted values ``tb = tau(b)``, ``xc = xi(c)`` and ``sc = sigma(c)``;
    leading axes broadcast as in ``_trilinear``."""
    return _trilinear(mod._plans["Pxab"], x, tb, xc) - _trilinear(mod._plans["Pabx"], sc, tb, x)


def twisted_bracket(
    mod: TernaryModule, x, b, c, sigma: LinearMap, tau: LinearMap, xi: LinearMap
) -> np.ndarray:
    """``[x, tau(b), xi(c)] - [sigma(c), tau(b), x]`` through the module products."""
    _check_twist_maps(mod, sigma, tau, xi)
    b, c = mod.algebra.vector(b), mod.algebra.vector(c)
    return _bracket(mod, mod.vector(x), tau(b), xi(c), sigma(c))


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
        return _bracket(mod, x, apply(tau, b), apply(xi, c), apply(sigma, c))

    res = apply(deriv, _trilinear(alg._plan, a, b, c))
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


#: a column of the null rows becomes a pivot of the canonical basis when its
#: part outside the span of the pivots already taken is longer than this
_PIVOT_TOL = 1e-8


class DerivationBasis(list):
    """The solver's basis list, with its rank decision as ``margin``.

    ``margin`` holds the system's ``rows``, its ``nonzero_rows`` and
    ``columns``, the resulting ``null_dim``, ``sigma_max``, the largest
    singular value counted null (``sigma_null``, 0.0 for the directions the
    rank deficit of a short system adds), the smallest one kept
    (``sigma_kept``) and ``ratio = sigma_null / sigma_kept``.  An entry with
    nothing to measure (no null or no kept direction) is ``None``.
    """

    margin: dict


def _twisted_bracket_table(mod: TernaryModule, sigma, tau, xi) -> np.ndarray:
    """``G[u, b, c, w]``: coordinate ``w`` of the twisted bracket ``[e_u b c]``
    at basis vectors, ``sum tau[q,b] xi[r,c] Pxab[u,q,r,w] -
    sum sigma[p,c] tau[q,b] Pabx[p,q,u,w]``."""
    ex = np.eye(mod.dim, dtype=mod.dtype)[:, None, None, :]
    return _bracket(mod, ex, tau.matrix.T[None, :, None, :], xi.matrix.T[None, None, :, :],
                    sigma.matrix.T[None, None, :, :])


def _jacobian_block(structure, table, i: int, signs: SignConvention) -> np.ndarray:
    """Rows ``(i, j, k, w)`` of the derivation system for one first index ``i``.

    Column ``(u, v)`` is the entry ``D[u, v]``; the defect is linear in it:
    ``J[(i,j,k,w),(u,v)] = delta_wu T[i,j,k,v] - s1 delta_iv G[u,j,k,w]
    - s2 delta_jv G[u,i,k,w] - s3 delta_kv G[u,j,i,w]``.
    """
    dx, da = table.shape[0], structure.shape[0]
    block = np.zeros((da, da, dx, dx, da), dtype=table.dtype)  # [j, k, w, u, v]
    w, a = np.arange(dx), np.arange(da)
    block[:, :, w, w, :] = structure[i][:, :, None, :]
    block[:, :, :, :, i] -= signs.s1 * table.transpose(1, 2, 3, 0)
    block[a, :, :, :, a] -= signs.s2 * table[:, i].transpose(1, 2, 0)
    block[:, a, :, :, a] -= signs.s3 * table[:, :, i].transpose(1, 2, 0)[None]
    return block.reshape(da * da * dx, dx * da)


def _canonical_null_basis(rows: np.ndarray) -> np.ndarray:
    """One fixed orthonormal basis of the row span of ``rows``.

    Any rotation of the same span gives the same result.  Pivot columns are
    taken from the last column down: a column is a pivot when its part
    outside the span of the pivots already taken is longer than
    ``_PIVOT_TOL``.  The rows are brought to reduced echelon form on those
    pivots (the identity on the pivot columns) and orthonormalised in pivot
    order, largest pivot column first, each row's pivot entry positive real.
    """
    k = rows.shape[0]
    pivots: list = []
    span = np.zeros((k, 0), dtype=rows.dtype)  # orthonormal, spans the pivot columns
    for col in range(rows.shape[1] - 1, -1, -1):
        if len(pivots) == k:
            break
        part = rows[:, col]
        for _ in range(2):  # a second pass restores orthogonality
            part = part - span @ (span.conj().T @ part)
        length = np.linalg.norm(part)
        if length > _PIVOT_TOL:
            pivots.append(col)
            span = np.column_stack([span, part / length])
    echelon = np.linalg.solve(rows[:, pivots], rows)
    ortho = np.linalg.qr(echelon.T)[0].T
    # Gram-Schmidt would leave each row's pivot entry positive; QR's
    # reflections may flip it, so that sign is restored
    at_pivot = ortho[np.arange(k), pivots]
    return ortho * (np.abs(at_pivot) / at_pivot)[:, None]


def solve_exact_derivations(
    mod: TernaryModule,
    sigma: LinearMap,
    tau: LinearMap,
    xi: LinearMap,
    signs: SignConvention = LIE_SIGNS,
    rank_tol: float = 1e-10,
) -> DerivationBasis:
    """Orthonormal basis of the space of exact twisted derivations.

    The derivation defect over all basis triples is linear in the entries
    of ``D``.  Its Jacobian is written in closed form from the structure
    tensor and the twisted bracket at basis vectors (``_jacobian_block``),
    one row block per first index ``i``, so the whole system never exists
    at once.  Each block loses its all-zero rows and is stacked under the
    running triangular factor, which an R-only QR then replaces: a
    tall-skinny QR (TSQR).  The null space comes from the right singular
    vectors of the final small ``R``.  Directions with singular value at
    most ``rank_tol`` times the largest count as null, and so does the rank
    deficit when fewer nonzero rows than columns remain.

    The null rows then go through ``_canonical_null_basis`` (reduced
    echelon form with pivots taken from the last entry down, orthonormalised
    in that order), so the basis does not depend on which rotation of the
    null space the factorisation returned.  Each vector is oriented so its
    largest entry is positive real.  The zero map is always a solution and
    is not part of the returned basis; an empty list means it is the only
    one.  The list's ``margin`` reports the rank decision
    (``DerivationBasis``).
    """
    _check_twist_maps(mod, sigma, tau, xi)
    da, dx = mod.algebra.dim, mod.dim
    dtype = mod.dtype
    table = _twisted_bracket_table(mod, sigma, tau, xi)
    columns = dx * da
    r_factor = np.zeros((0, columns), dtype=dtype)
    pending: list = []
    single_sq = np.zeros(columns)
    nonzero_rows = 0
    for i in range(da):
        block = _jacobian_block(mod.algebra.structure, table, i, signs)
        entries = np.count_nonzero(block, axis=1)
        nonzero_rows += int(np.count_nonzero(entries))
        # rows with a single nonzero entry fold into one row per column, the
        # root sum of their squares: an exact orthogonal reduction, as any
        # QR step is, and most rows of a sparse structure tensor are such
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

    basis = DerivationBasis()
    for row in _canonical_null_basis(vh[rank:].conj()):
        mat = row.reshape(dx, da)
        anchor = mat.flat[int(np.argmax(np.abs(mat)))]
        if anchor != 0:
            mat = mat * (np.abs(anchor) / anchor)
        if dtype == np.float64:
            mat = mat.real
        basis.append(LinearMap(mat))

    sigma_null = None
    if rank < columns:
        sigma_null = float(svals[rank]) if rank < svals.size else 0.0
    sigma_kept = float(svals[rank - 1]) if rank else None
    basis.margin = {
        "rows": da**3 * dx,
        "nonzero_rows": nonzero_rows,
        "columns": columns,
        "null_dim": columns - rank,
        "sigma_max": sigma_max,
        "sigma_null": sigma_null,
        "sigma_kept": sigma_kept,
        "ratio": None if sigma_null is None or sigma_kept is None else sigma_null / sigma_kept,
    }
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
