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

import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import _check_arguments, _joined, _trilinear
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
        for name in ("s1", "s2", "s3"):
            s = getattr(self, name)
            # an integer, not a bool: True == 1 and 1.0 == 1 would pass the test below
            if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s not in (1, -1):
                raise ValueError(f"sign entries must be the integers +1 or -1, got {s!r}")
            object.__setattr__(self, name, int(s))

    def as_tuple(self):
        return (self.s1, self.s2, self.s3)

    @staticmethod
    def from_sequence(seq) -> "SignConvention":
        seq = list(seq)
        if len(seq) != 3:
            raise ValueError("sign convention needs exactly 3 entries")
        return SignConvention(*seq)


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

    return _residuals(mod, [(deriv, sigma, tau, xi)], a, b, c, signs)


def _residuals(mod: TernaryModule, twists, a, b, c, signs: SignConvention) -> np.ndarray:
    """:func:`lie_derivation_residual` at the triples ``a, b, c`` for each
    ``(deriv, sigma, tau, xi)`` of ``twists``, stacked in that order along
    the first axis: the product ``[abc]`` is taken once, each map is applied
    to the triples on its own, and each bracket runs once over all of them,
    so that each twist's rows keep the bits they have alone."""
    def each(i, v) -> np.ndarray:
        # map i of every twist, (deriv, sigma, tau, xi)[i], applied to v
        return _joined([v @ maps[i].matrix.T for maps in twists])

    res = each(0, _trilinear(mod.algebra._plan, a, b, c))
    for sign, (u, v, w) in zip(signs.as_tuple(), ((a, b, c), (b, a, c), (c, b, a))):
        res = res - sign * _bracket(mod, each(0, u), each(2, v), each(3, w), each(1, w))
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


#: entries of one dense row chunk of a component before an R-only QR step
_CHUNK_ENTRIES = 1 << 16

#: terms of the Jacobian assembled at once: the rows of consecutive first
#: indices are taken together up to this many, one index at least
_BLOCK_TERMS = 1 << 17

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


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Marks the first of each run of equal keys in sorted ``keys``."""
    first = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _bracket_entries(mod: TernaryModule, sigma, tau, xi):
    """The nonzeros ``(u, b, c, w, g)`` of ``G[u, b, c, w]``, coordinate ``w``
    of the twisted bracket ``[e_u b c]`` at basis vectors."""
    ex = np.eye(mod.dim, dtype=mod.dtype)[:, None, None, :]
    table = _bracket(mod, ex, tau.matrix.T[None, :, None, :], xi.matrix.T[None, None, :, :],
                     sigma.matrix.T[None, None, :, :])
    where = np.nonzero(table)
    return (*where, table[where])


def _row_blocks(mod: TernaryModule, bracket) -> list:
    """Ranges ``(lo, hi)`` of first indices ``i`` whose rows ``(i, j, k, w)``
    hold at most ``_BLOCK_TERMS`` terms of ``_jacobian_entries`` together,
    or one index."""
    da, first = mod.algebra.dim, mod.algebra._plan.nonzeros[0]
    _, b, c, _, g = bracket
    if mod.dim * len(first) + 3 * da * len(g) <= _BLOCK_TERMS:  # all terms
        return [(0, da)]
    terms = (mod.dim * np.bincount(first, minlength=da) + len(g)
             + da * (np.bincount(b, minlength=da) + np.bincount(c, minlength=da)))
    blocks, lo, held = [], 0, 0
    for i, n in enumerate(terms.tolist()):
        if held + n > _BLOCK_TERMS and i > lo:
            blocks.append((lo, i))
            lo, held = i, 0
        held += n
    return blocks + [(lo, da)]


def _jacobian_entries(mod: TernaryModule, bracket, signs: SignConvention, lo: int, hi: int):
    """The nonzero rows ``(i, j, k, w)`` of the derivation system with ``lo
    <= i < hi``, in order: the columns and values of their entries, row
    after row and in column order, and the number of entries of each row.

    Row ``(i, j, k, w)``, column ``(u, v)`` (the entry ``D[u, v]``) holds
    ``delta_wu T[i,j,k,v] - s1 delta_iv G[u,j,k,w] - s2 delta_jv G[u,i,k,w]
    - s3 delta_kv G[u,j,i,w]``, assembled from the nonzeros of ``T`` and of
    the bracket table ``G`` (``bracket``, from ``_bracket_entries``).  The
    terms that land on one entry are summed in that order, and entries
    whose sum is zero are dropped.
    """
    da, dx = mod.algebra.dim, mod.dim
    columns = dx * da
    nonzeros = mod.algebra._plan.nonzeros  # in C order, so sorted by i
    start, stop = np.searchsorted(nonzeros[0], (lo, hi))
    i, j, k, v, t = (x[start:stop] for x in nonzeros)
    w = np.arange(dx)
    keys = [((((i * da + j) * da + k) * dx)[:, None] + w) * columns + (w * da + v[:, None])]
    terms = [np.repeat(t, dx)]
    u, b, c, w, g = bracket
    a = np.arange(da)[:, None]  # the index that delta ties to the column
    # the rows of the s2 and s3 terms start with the entry's b, or c
    two, three = ((lo <= x) & (x < hi) if hi - lo < da else slice(None) for x in (b, c))
    mine = a[lo:hi]
    for sign, row, at, tied in ((signs.s1, (mine * da + b) * da + c, slice(None), mine),
                                (signs.s2, (b[two] * da + a) * da + c[two], two, a),
                                (signs.s3, (c[three] * da + b[three]) * da + a, three, a)):
        keys.append((row * dx + w[at]) * columns + u[at] * da + tied)
        terms.append(np.repeat(-sign * g[at][None], len(tied), axis=0))
    flat, values = (np.concatenate([x.ravel() for x in part]) for part in (keys, terms))
    del keys, terms  # a block's peak holds the sorted copies, not these too
    order = flat.argsort(kind="stable")  # equal keys stay in term order
    flat, values = flat[order], values[order]
    first = _run_starts(flat)
    repeats = np.flatnonzero(~first)
    slot = np.cumsum(first)[repeats] - 1
    rank = repeats - np.flatnonzero(first)[slot]
    flat, summed = flat[first], values[first]
    for r in (1, 2, 3):  # the s1, s2 and s3 terms; no key repeats within a term
        later = rank == r
        summed[slot[later]] += values[repeats[later]]
    live = summed != 0
    rows, cols = np.divmod(flat[live], columns)
    return cols, summed[live], np.diff(np.flatnonzero(_run_starts(rows)), append=len(rows))


def _column_components(cols: np.ndarray, counts: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``labels`` with the components that rows connect merged.

    A label is the least column of its component.  ``cols`` holds the
    columns of the rows, row after row, ``counts`` of them per row.  Each
    round points the label of every column in a row at the least label
    among the row's columns, then follows labels to their fixed point.
    """
    if not len(counts):
        return labels
    starts = np.cumsum(counts) - counts
    while True:
        roots = labels[cols]
        new = labels.copy()
        np.minimum.at(new, roots, np.repeat(np.minimum.reduceat(roots, starts), counts))
        while not np.array_equal(hop := new[new], new):
            new = hop
        if np.array_equal(new, labels):
            return labels
        labels = new


def _ranks(groups: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The place of each item among the items of its group, in item order,
    given each item's group and every group's size."""
    order = np.argsort(groups, kind="stable")
    ranks = np.empty(len(groups), np.intp)
    ranks[order] = np.arange(len(groups)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return ranks


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


def _stack_rows(factor: np.ndarray, entries, height: int) -> np.ndarray:
    """The running triangular factors ``factor`` ``(K, top, n)`` of ``K``
    components with ``height`` more rows of each stacked under them.

    ``entries`` are ``(row, component, col, value)``, sorted by row.  The rows
    are stacked in chunks of about ``_CHUNK_ENTRIES`` entries, and of at
    least ``4 * n`` rows so that each QR step is mostly new rows; an R-only
    QR replaces the stack whenever it has more than ``n`` rows.
    """
    rows, comps, cols, values = entries
    count, _, width = factor.shape
    step = max(4 * width, _CHUNK_ENTRIES // (count * width))
    for first in range(0, height, step):
        lo, hi = np.searchsorted(rows, [first, first + step])
        top = factor.shape[1]
        block = np.zeros((count, top + min(step, height - first), width), factor.dtype)
        block[:, :top] = factor
        block[comps[lo:hi], top + rows[lo:hi] - first, cols[lo:hi]] = values[lo:hi]
        factor = np.linalg.qr(block, mode="r") if block.shape[1] > width else block
    return factor


class _Components:
    """The column components of the rows with two or more entries, with one
    running triangular factor per component, those of one width stacked.

    ``labels`` come from ``_column_components``; ``joined`` marks the
    columns in such rows.  Every other column is a component of its own.
    """

    def __init__(self, labels: np.ndarray, joined: np.ndarray, dtype):
        columns = len(labels)
        self.members = np.flatnonzero(joined)
        # a label is a root of its component, labelled by itself
        self.comp = (np.cumsum(joined & (labels == np.arange(columns))) - 1)[labels]
        self.width = np.bincount(self.comp[self.members])
        self.local = np.zeros(columns, np.intp)
        self.local[self.members] = _ranks(self.comp[self.members], self.width)
        widths = np.flatnonzero(np.bincount(self.width))  # np.unique would import numpy.ma
        self.group = np.searchsorted(widths, self.width)
        sizes = np.bincount(self.group, minlength=len(widths))
        self.place = _ranks(self.group, sizes)
        self.factors = [np.zeros((k, 0, n), dtype) for k, n in zip(sizes, widths)]

    def stack(self, *parts):
        """Stacks rows of joined columns under the factors of their
        components; each part is ``(cols, values, counts)``, the entries of
        its rows, row after row, ``counts`` of them per row."""
        cols, values, counts = (np.concatenate(part) for part in zip(*parts))
        if not len(counts):
            return
        row_comp = self.comp[cols[np.cumsum(counts) - counts]]
        ranks = _ranks(row_comp, np.bincount(row_comp, minlength=len(self.width)))
        comp, rows = np.repeat(row_comp, counts), np.repeat(ranks, counts)
        group = self.group[comp]
        order = np.argsort(group * (int(ranks.max()) + 1) + rows, kind="stable")
        bounds = np.searchsorted(group[order], np.arange(len(self.factors) + 1))
        for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                at = order[lo:hi]
                entries = (rows[at], self.place[comp[at]], self.local[cols[at]], values[at])
                self.factors[g] = _stack_rows(self.factors[g], entries, int(rows[at[-1]]) + 1)

    def spectra(self) -> list:
        """One triple per width ``n``: the columns ``(K, n)`` of its ``K``
        components, their singular values ``(K, n)``, padded with zeros for
        the rank deficit of a component with fewer rows than columns, and
        their right singular vectors ``(K, n, n)``."""
        by_comp = self.members[np.argsort(self.comp[self.members], kind="stable")]
        starts = np.cumsum(self.width) - self.width
        found = []
        for g, factor in enumerate(self.factors):
            count, _, n = factor.shape
            _, svals, vh = np.linalg.svd(factor)
            padded = np.zeros((count, n))
            padded[:, :svals.shape[1]] = svals
            comps = np.flatnonzero(self.group == g)
            found.append((by_comp[starts[comps][:, None] + np.arange(n)], padded, vh))
        return found


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
    of ``D``.  Its Jacobian's nonzeros are assembled in coordinate form from
    the nonzeros of the structure tensor and of the twisted bracket at basis
    vectors (``_jacobian_entries``), a block of rows at a time
    (``_row_blocks``); no dense block of it is built.  Rows with a single
    nonzero entry fold into one row per column, the root sum of their
    squares.  The other rows connect columns into components
    (``_column_components``).  A second pass over the blocks, assembled
    again unless there is only one, stacks each component's rows, after the
    folded rows of its columns, under its own dense triangular factor,
    reduced by R-only QRs in bounded row chunks, and ends with an SVD,
    components of one width together (``_Components``).  A column with
    folded rows only has its root as singular value, and a column in no row
    has 0.  The singular values of the whole system are the union of these,
    so the rank is decided globally: directions with singular value at most
    ``rank_tol`` times the largest count as null, and so does the rank
    deficit of a component with fewer rows than columns.

    The null rows then go through ``_canonical_null_basis`` (reduced
    echelon form with pivots taken from the last entry down, orthonormalised
    in that order), so the basis does not depend on how the factorisation
    rotated the null space.  Each vector is oriented so its largest entry
    is positive real.  The zero map is always a solution and is not part of
    the returned basis; an empty list means it is the only one.  The list's
    ``margin`` reports the rank decision (``DerivationBasis``).  A NaN,
    infinite or negative ``rank_tol`` raises ``ValueError`` before any work.
    """
    _check_arguments(rank_tol=rank_tol)
    _check_twist_maps(mod, sigma, tau, xi)
    da, dx = mod.algebra.dim, mod.dim
    dtype = mod.dtype
    columns = dx * da
    bracket = _bracket_entries(mod, sigma, tau, xi)
    ranges = _row_blocks(mod, bracket)
    # rows with a single nonzero entry fold into one row per column, the
    # root sum of their squares: an exact orthogonal reduction, as any QR
    # step is, and most rows of a sparse structure tensor are such
    squares = np.zeros(columns)
    labels, joined = np.arange(columns), np.zeros(columns, bool)
    nonzero_rows = 0
    kept = []  # a single block is kept for the second pass, more are assembled again
    for lo, hi in ranges:
        cols, values, counts = entries = _jacobian_entries(mod, bracket, signs, lo, hi)
        if len(ranges) == 1:
            kept.append(entries)
        nonzero_rows += len(counts)
        single = np.repeat(counts == 1, counts)
        squares += np.bincount(cols[single], np.abs(values[single]) ** 2, minlength=columns)
        labels = _column_components(cols[~single], counts[counts > 1], labels)
        joined[cols[~single]] = True
    folded = np.sqrt(squares)
    spectra = []
    if joined.any():
        components = _Components(labels, joined, dtype)
        extra = np.flatnonzero(joined & (folded > 0))
        first = [(extra, folded[extra], np.ones(len(extra), np.intp))]  # the folded rows
        again = (_jacobian_entries(mod, bracket, signs, lo, hi) for lo, hi in ranges)
        for cols, values, counts in kept or again:
            multi = np.repeat(counts > 1, counts)
            components.stack(*first, (cols[multi], values[multi], counts[counts > 1]))
            first = []
        spectra = components.spectra()
    # every other column is a component of its own, with its folded root,
    # or 0, as singular value
    alone = np.flatnonzero(~joined)
    spectra.append((alone[:, None], folded[alone, None], np.ones((len(alone), 1, 1), dtype)))
    svals = np.sort(np.concatenate([sv.ravel() for _, sv, _ in spectra]))[::-1]
    sigma_max = float(svals[0])
    cut = rank_tol * sigma_max
    rank = int(np.count_nonzero(svals > cut))

    null_rows = []
    for spots, sv, vh in spectra:
        which, at = np.nonzero(sv <= cut)
        embedded = np.zeros((len(which), columns), dtype)
        embedded[np.arange(len(which))[:, None], spots[which]] = vh[which, at].conj()
        null_rows.append(embedded)
    null_rows = np.concatenate(null_rows)

    basis = DerivationBasis()
    for row in (_canonical_null_basis(null_rows) if len(null_rows) else []):
        mat = row.reshape(dx, da)
        anchor = mat.flat[int(np.argmax(np.abs(mat)))]
        if anchor != 0:
            mat = mat * (np.abs(anchor) / anchor)
        if dtype == np.float64:
            mat = mat.real
        basis.append(LinearMap(mat))

    sigma_null = float(svals[rank]) if rank < columns else None
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
