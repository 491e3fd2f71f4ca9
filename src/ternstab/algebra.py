"""Finite-dimensional ternary algebras as structure tensors.

An algebra of dimension ``d`` is a rank-4 tensor ``T`` of shape
``(d, d, d, d)``: the triple product of basis vectors is
``[e_i e_j e_k] = sum_l T[i, j, k, l] e_l``, extended trilinearly to
coordinate vectors.  Norms are callables on coordinate vectors; the default
is the Euclidean 2-norm, scaled by a multiplicative factor so the Banach
condition ``|[abc]| <= |a| |b| |c|`` can be enforced by rescaling.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, IdentityCheckError

REAL = "real"
COMPLEX = "complex"
FIELDS = (REAL, COMPLEX)

# exhaustive basis enumeration is used up to this many tuples, seeded
# subsampling beyond it
DEFAULT_TUPLE_BUDGET = 1_000_000
# sampled tuples are evaluated in chunks of this many, bounding a chunk's
# index arrays, gathered rows and values (n x d each) to a few MB at d = 16
_TUPLE_CHUNK = 20_000
# a plan contracts stacks over its nonzeros when the staged first product
# does more than this many multiply-adds per nonzero.  On the builders'
# tensors the nonzero kernel wins on stacks of a few hundred rows at every
# ratio, and loses up to about 15 us a call on one vector or 40 rows at
# d <= 9; at ratios up to 8 (d <= 4) it wins on no stack under about 100
# rows, which is as large as the stacks of an experiment at that size get
# (CHANGES.md holds the per-call times)
_NONZERO_RATIO = 8
# and when that ratio is also more than a 32nd of the nonzeros per output
# coordinate.  On random-pattern tensors of density 1/16 at d = 25, about 16
# entries per nonzero but 980 nonzeros per output, the staged products win
# by 1.3-1.8x on 1,000-row stacks; every builder's tensor up to d = 25 has a
# ratio of at least 0.66 times its nonzeros per output (CHANGES.md holds the
# table)
_RUN_TERMS = 32
# the nonzero kernel takes a stack's rows in chunks whose rows x nonzeros
# terms fit in this many bytes, or of 16 rows when one row's terms take more
# than a sixteenth of it: temporaries under 128 kB come from the allocator's
# free lists, while larger ones are mapped and faulted in afresh on each call
# (a pass of the axiom checks on trivial-matrix m = 4 and m = 3 complex took
# about 4,000 page faults with 4 MB chunks, 500 with these)
_GATHER_BYTES = 1 << 16


def dtype_for(field_tag):
    """The dtype of a field's coordinates; the one home of the field rule."""
    if field_tag == REAL:
        return np.float64
    if field_tag == COMPLEX:
        return np.complex128
    _choice("field", field_tag, FIELDS)


def _choice(name: str, value, options: tuple) -> None:
    """Raise ValueError unless the argument ``name`` is one of ``options``."""
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number; any other value is not."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


#: the least value of each count that must exceed 0, by argument name
_LEAST = {"dim": 1, "m": 1, "degree_cap": 1, "lambda_grid": 2}


def _check_arguments(*, positive: tuple = (), least: dict | None = None, **values) -> None:
    """Raise ValueError, before an entry point does any work, unless each
    argument of ``values`` keeps the rule its name selects:

    * a tolerance, a name ending in ``tol``, is a finite number, and
      nonnegative, or positive when ``positive`` names it;
    * ``mode`` is ``"lie"`` or ``"jordan"``;
    * any other is a count: an integer, not a bool, of at least what
      ``least`` or ``_LEAST`` give for its name, else 0.

    Each message starts with the argument's name, so that the config loader
    reports the same rule under the field's path.
    """
    least = {**_LEAST, **(least or {})}
    for name, value in values.items():
        if name.endswith("tol"):
            sign = "positive" if name in positive else "nonnegative"
            if not (_finite(value) and (value > 0 if name in positive else value >= 0)):
                raise ValueError(f"{name} must be finite and {sign}, got {value!r}")
        elif name == "mode":
            _choice(name, value, ("lie", "jordan"))
        else:
            low = least.get(name, 0)
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                               and value >= low):
                kind = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
                raise ValueError(f"{name} must be {kind}, got {value!r}")


def l2_norm(v) -> float:
    return float(_row_norms(np.asarray(v).ravel(order="K")))


#: the square root of the least normal double: a row whose 2-norm is below
#: it summed its squares below the normal range
_LEAST_ROOT = 2.0**-511


@np.errstate(over="ignore")  # such rows are recomputed below
def _row_norms(vectors) -> np.ndarray:
    """2-norm along the last axis, each bitwise equal to ``np.linalg.norm`` of
    its row alone: on rows of unit stride (a stack whose last axis is
    strided is copied to C order first) ``vecdot`` sums a row's squares in
    the order of ``norm``'s dot product (``norm(axis=-1)`` and ``einsum``
    reorder them).  Rows of finite entries whose sum of squares overflows,
    or falls below the normal range although some entry is nonzero, are
    recomputed after an exact power-of-two rescale that brings their
    largest entry to [0.5, 1), without a numpy warning.
    """
    v = np.asarray(vectors)
    if not issubclass(v.dtype.type, np.inexact):
        v = v.astype(np.float64)
    if v.ndim == 0 or v.strides[-1] != v.itemsize:
        v = np.ascontiguousarray(v)
    if v.ndim == 1:
        # one vector: the dot product of ``norm``; math.sqrt rounds as
        # np.sqrt does at a fraction of its call cost on a scalar
        square = v.dot(v) if v.dtype.kind != "c" else v.real.dot(v.real) + v.imag.dot(v.imag)
        root = math.sqrt(square)
        if _LEAST_ROOT <= root < math.inf or not v.any():
            return np.float64(root)
        return _row_norms(v[None])[0]
    dot = np.vecdot
    if v.dtype.kind == "c":
        out = np.sqrt(dot(v.real, v.real) + dot(v.imag, v.imag))
    else:
        out = np.sqrt(dot(v, v))
    low, high = out.min(initial=np.inf), out.max(initial=0.0)
    if low >= _LEAST_ROOT and high < np.inf:
        return out
    # the rows left are mostly zero rows, as the differences of an exact law are
    if high < _LEAST_ROOT and not v.any():
        return out
    odd = out < _LEAST_ROOT
    if not high < np.inf:  # an infinite norm, or a NaN that hides one from the maximum
        odd |= out == np.inf
    rows = v[odd]
    if not rows.any():
        return out
    top = np.maximum(abs(rows.real).max(-1), abs(rows.imag).max(-1))
    keep = (top > 0) & (top < np.inf)  # zero rows and infinite entries keep ``out``
    exp = np.frexp(top[keep])[1]
    # ldexp of the entries, real and imaginary parts alike: 2.0**-exp overflows
    # when the largest entry is subnormal
    scaled = np.ldexp(rows[keep].view(rows.real.dtype), -exp[:, None]).view(rows.dtype)
    fixed = out[odd]
    fixed[keep] = np.ldexp(_row_norms(scaled), exp)
    out[odd] = fixed
    return out


def _norms_with(norm, vectors) -> np.ndarray:
    """``norm`` (None for the 2-norm) of each row: one kernel call for the
    2-norm or a space's own ``norm_of``, else one call per row."""
    vectors = np.asarray(vectors)
    if norm is None:
        return _row_norms(vectors)
    owner = getattr(norm, "__self__", None)
    if isinstance(owner, _Space) and norm == owner.norm_of:
        return owner.norms_of(vectors)
    flat = vectors.reshape(-1, vectors.shape[-1])
    return np.array([float(norm(row)) for row in flat]).reshape(vectors.shape[:-1])


class _Space:
    """Vectors of length ``dim``, normed by ``norm`` (None: 2-norm) times ``norm_scale``."""

    norm_scale = 1.0

    def norm_of(self, v) -> float:
        return self.norm_scale * (l2_norm(v) if self.norm is None else float(self.norm(v)))

    def norms_of(self, vectors) -> np.ndarray:
        """Norms along the last axis, each equal to ``norm_of`` of its row."""
        return self.norm_scale * _norms_with(self.norm, vectors)

    def vector(self, coords) -> np.ndarray:
        v = np.asarray(coords, dtype=self.dtype)
        if v.shape != (self.dim,):
            raise DimensionMismatch(
                f"vector of length {v.shape} does not live in a {self.dim}-dim space"
            )
        return v


class _Plan(NamedTuple):
    """A ``(d1, d2, d3, dout)`` tensor with the slabs its contractions run
    over, found once from ``tensor != 0`` by the algebra or module that
    holds the tensor.

    ``pairs`` holds the flat indices ``k * dout + l`` of the live pairs, those
    with a nonzero ``T[i, j, k, l]``, or is None when every pair is live;
    ``stage1`` is the ``(d1, d2 * pairs)`` matrix of ``_trilinear``'s first
    stage over them; ``counts`` is the ``(d1, d2, d3)`` number of nonzeros in
    each row ``T[i, j, k, :]``, which the law evaluator reads; ``nonzeros``
    lists the nonzero entries as index arrays ``(i, j, k, l)`` and values
    ``v``, in C order, for the derivation solver's assembly and the law
    evaluator.

    On a sparse tensor, whose ``stage1`` holds more than ``_NONZERO_RATIO``
    entries per nonzero and more than a ``_RUN_TERMS``-th of the nonzeros
    per output coordinate, ``terms`` and ``runs`` hold the nonzeros sorted by
    ``l`` (C order within a run of equal ``l``) for ``_trilinear``'s nonzero
    kernel: ``terms`` is ``(i, j, pair, k, v)``, where ``i`` and ``j`` list
    the distinct ``(i, j)`` of the nonzeros in C order, ``pair`` gives each
    nonzero's place among them, and ``v`` is None when every value is 1;
    ``runs`` is the start of each run and its ``l``.  Both are None on any
    other tensor.
    """

    tensor: np.ndarray
    pairs: np.ndarray | None
    stage1: np.ndarray
    counts: np.ndarray
    nonzeros: tuple
    terms: tuple | None
    runs: tuple | None

    @classmethod
    def of(cls, tensor: np.ndarray) -> _Plan:
        d1, d2, d3, dout = tensor.shape
        live = tensor != 0
        pairs = np.flatnonzero(live.any(axis=(0, 1)))
        if len(pairs) == d3 * dout:
            pairs, stage1 = None, tensor.reshape(d1, -1)
        else:
            stage1 = tensor.reshape(d1, d2, -1)[:, :, pairs].reshape(d1, -1)
        where = np.nonzero(live)
        nonzeros = (*where, tensor[where])
        row = np.ravel_multi_index(where[:3], (d1, d2, d3))
        counts = np.bincount(row, minlength=d1 * d2 * d3).reshape(d1, d2, d3)
        terms = runs = None
        if stage1.size > _NONZERO_RATIO * len(row):
            i, j, k, out, v = (x[np.argsort(where[3], kind="stable")] for x in nonzeros)
            ij, pair = np.unique(i * d2 + j, return_inverse=True)
            starts = np.flatnonzero(np.diff(out, prepend=-1))
            # one run per output coordinate with a nonzero
            if stage1.size * _RUN_TERMS * len(starts) > len(row) ** 2:
                terms = (ij // d2, ij % d2, pair, k, None if (v == 1).all() else v)
                runs = (starts, out[starts])
        for v in (stage1, counts, *nonzeros, *(terms or ()), *(runs or ())):
            if v is not None:
                v.setflags(write=False)
        return cls(tensor, pairs, stage1, counts, nonzeros, terms, runs)


@dataclass(frozen=True, eq=False)
class TernaryAlgebra(_Space):
    """A coordinatized ternary algebra.

    Parameters
    ----------
    dim : int
        Dimension ``d`` of the underlying vector space.
    field : str
        ``"real"`` or ``"complex"``.
    structure : (d, d, d, d) ndarray
        Structure tensor of the triple product.
    norm : callable or None
        Base norm on coordinate vectors; ``None`` means the 2-norm.
    norm_scale : float
        Multiplicative factor applied on top of the base norm.
    flags : frozenset of str
        Construction guarantees, e.g. ``{"associative"}`` or ``{"partial"}``.
    """

    dim: int
    field: str
    structure: np.ndarray
    norm: object = None
    norm_scale: float = 1.0
    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        _check_arguments(dim=self.dim)
        dtype = dtype_for(self.field)
        if not (_finite(self.norm_scale) and self.norm_scale > 0):
            raise ValueError(f"norm_scale must be finite and positive, got {self.norm_scale!r}")
        t = np.asarray(self.structure, dtype=dtype)
        if t.shape != (self.dim,) * 4:
            raise DimensionMismatch(
                f"structure tensor shape {t.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(t)):
            raise ValueError("structure tensor has non-finite entries")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "structure", t)
        object.__setattr__(self, "_plan", _Plan.of(t))
        object.__setattr__(self, "flags", frozenset(self.flags))

    @property
    def dtype(self):
        return dtype_for(self.field)

    def basis(self) -> np.ndarray:
        return np.eye(self.dim, dtype=self.dtype)


def _trilinear(plan: _Plan, a, b, c) -> np.ndarray:
    """Contract slots 1-3 of a planned ``(d1, d2, d3, dout)`` tensor with ``a, b, c``.

    The leading axes of ``a``, ``b`` and ``c`` broadcast against each other;
    the result has the broadcast leading shape followed by ``dout``.  A
    stack, where some operand has the whole leading shape (one vector, an
    ``(N, d)`` stack, or a stack against single vectors), on a plan with
    ``runs`` takes ``_by_nonzeros``.  Any other call, such as a grid of
    basis vectors, whose leading shape is an outer product of the operands',
    or a call on a dense plan, takes three staged matrix products, one slot
    at a time, over the live slabs of the plan: the first two run over the
    live ``(k, l)`` pairs only and fill their columns of a zero
    ``(d3, dout)`` block before the third (all of it when every pair is
    live).  Fewer columns can move the last bit of an inexact sum, as BLAS
    may order a column's sum by its place among them.  Either kernel gives
    each row of a stack the bits it has alone.
    """
    if plan.runs is not None:
        leads = (a.shape[:-1], b.shape[:-1], c.shape[:-1])
        lead = leads[0] if leads[0] == leads[1] == leads[2] else np.broadcast_shapes(*leads)
        if lead in leads:
            return _by_nonzeros(plan, a, b, c, lead)
    d1, d2, d3, dout = plan.tensor.shape
    out = a[..., None, :] @ plan.stage1
    out = b[..., None, :] @ out.reshape(*out.shape[:-2], d2, plan.stage1.shape[1] // d2)
    if plan.pairs is not None:
        full = np.zeros(out.shape[:-1] + (d3 * dout,), out.dtype)
        full[..., plan.pairs] = out
        out = full
    out = c[..., None, :] @ out.reshape(*out.shape[:-2], d3, dout)
    return out[..., 0, :]


def _by_nonzeros(plan: _Plan, a, b, c, lead: tuple) -> np.ndarray:
    """``_trilinear`` of a stack over the plan's ``terms``, in the manner of
    Gustavson's row-wise sparse product (ACM TOMS 4, 1978).

    Each term is ``((a_i * b_j) * c_k) * v`` (``* v`` left out when every
    value is 1, which is exact), gathered as rows of the transposed
    operands, with each distinct ``a_i * b_j`` taken once; ``np.add.reduceat``
    sums each run of one output coordinate in an order fixed by the run
    alone, and adding 0.0 makes a sum of negative zeros +0, as a BLAS dot
    product gives it.  The rows are taken in chunks of at most
    ``_GATHER_BYTES`` of terms (16 rows at least); a row's sums read that
    row only, so neither the chunks nor the other rows move its bits.
    """
    (i, j, pair, k, v), (starts, outs) = plan.terms, plan.runs
    dtype = np.result_type(a, b, c, plan.tensor)
    rows = math.prod(lead)
    flat = []  # each operand as (rows, d), or one (1, d) row for a single vector
    for x in (a, b, c):
        if x.size == x.shape[-1]:
            flat.append(x.reshape(1, -1))
            continue
        if x.shape[:-1] != lead:
            x = np.broadcast_to(x, lead + x.shape[-1:])
        flat.append(x.reshape(rows, x.shape[-1]))
    out = np.zeros((rows, plan.tensor.shape[3]), dtype)
    step = max(16, _GATHER_BYTES // (len(k) * dtype.itemsize))
    for s in range(0, rows, step):
        at, bt, ct = (np.ascontiguousarray((x if len(x) == 1 else x[s:s + step]).T, dtype)
                      for x in flat)
        terms = (at[i] * bt[j])[pair] * ct[k]
        if v is not None:
            terms *= v[:, None]
        sums = np.add.reduceat(terms, starts, axis=0)
        sums += 0.0
        out[s:s + step, outs] = sums.T
    return out.reshape(lead + out.shape[1:])


def _random_vector(rng, dim, field_tag: str, count: int | None = None):
    """Standard normal coordinates; complex fields draw the imaginary part second.

    With ``count``, a ``(count, dim)`` stack in one draw, in the stream order
    of ``count`` single draws.  A tuple ``dim`` draws one vector of each
    length per item, in turn, and gives one stack per length.
    """
    single = np.ndim(dim) == 0
    dims = [dim] if single else dim
    parts = 2 if field_tag == COMPLEX else 1
    raw = rng.standard_normal((() if count is None else (count,)) + (parts * sum(dims),))
    vectors, end = [], 0
    for n in dims:
        v, end = raw[..., end:end + parts * n], end + parts * n
        # copied: strided slices of ``raw`` cost the d = 16 module check 1.2 MB of RSS
        vectors.append(v.copy() if parts == 1 else v[..., :n] + 1j * v[..., n:])
    return vectors[0] if single else vectors


def ternary_product(alg: TernaryAlgebra, a, b, c) -> np.ndarray:
    """Triple product ``[abc]`` of coordinate vectors, exactly trilinear."""
    return _trilinear(alg._plan, alg.vector(a), alg.vector(b), alg.vector(c))


# ---------------------------------------------------------------------------
# cubic matrices


@dataclass(frozen=True, eq=False)
class CubicMatrix:
    """Rank-3 array with the Cayley-style triple contraction product."""

    side: int
    entries: np.ndarray

    def __post_init__(self):
        if self.side < 1:
            raise ValueError("side must be >= 1")
        e = np.asarray(self.entries)
        if e.dtype.kind not in "fc":
            e = e.astype(np.float64)
        if e.shape != (self.side,) * 3:
            raise DimensionMismatch(
                f"entries shape {e.shape} does not match side {self.side}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError("cubic matrix has non-finite entries")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def cubic_product(a: CubicMatrix, b: CubicMatrix, c: CubicMatrix) -> CubicMatrix:
    """Triple contraction ``{a,b,c}_ijk = sum_{l,m,n} a[n,i,l] b[l,j,m] c[m,k,n]``."""
    if not (a.side == b.side == c.side):
        raise DimensionMismatch(
            f"cubic sides differ: {a.side}, {b.side}, {c.side}"
        )
    out = np.einsum("nil,ljm,mkn->ijk", a.entries, b.entries, c.entries)
    return CubicMatrix(a.side, out)


# ---------------------------------------------------------------------------
# builders


def trivial_matrix_algebra(m: int, field: str = REAL) -> TernaryAlgebra:
    """Ternary algebra induced by m x m matrix multiplication.

    Dimension is ``m**2``; coordinates are row-major flattened matrices, so
    the default 2-norm of coordinates is the Frobenius norm.  The product
    ``[abc] = a @ b @ c`` satisfies the associativity law exactly, hence the
    ``associative`` flag, and the Frobenius norm is submultiplicative for it.
    """
    _check_arguments(m=m)
    d = m * m
    # E_aq E_qr E_rs = E_as: one unit entry per index quadruple, none elsewhere
    a, q, r, s = np.indices((m,) * 4).reshape(4, -1)
    tensor = np.zeros((d, d, d, d), dtype=dtype_for(field))
    tensor[a * m + q, q * m + r, r * m + s, a * m + s] = 1.0
    return TernaryAlgebra(d, field, tensor, flags=frozenset({"associative"}))


def odd_polynomial_algebra(degree_cap: int, field: str = REAL) -> TernaryAlgebra:
    """Truncated algebra of odd-degree polynomials in one variable.

    Basis monomials are ``x, x^3, ..., x^degree_cap``; a product whose degree
    exceeds the cap is truncated to zero.  Flagged ``partial``: the builder
    only guarantees the associativity law on triples whose nested products
    stay below the cap (the checker reports the empirical answer beyond
    that).
    """
    _check_arguments(degree_cap=degree_cap)
    if degree_cap % 2 == 0:
        raise ValueError(f"degree_cap must be odd, got {degree_cap}")
    d = (degree_cap + 1) // 2
    # monomial n is x^(2n + 1), so monomials i, j, k multiply to monomial i + j + k + 1
    i, j, k = np.indices((d,) * 3).reshape(3, -1)
    kept = i + j + k + 1 < d
    i, j, k = i[kept], j[kept], k[kept]
    tensor = np.zeros((d, d, d, d), dtype=dtype_for(field))
    tensor[i, j, k, i + j + k + 1] = 1.0
    return TernaryAlgebra(d, field, tensor, flags=frozenset({"partial"}))


# ---------------------------------------------------------------------------
# axiom checks


@dataclass(frozen=True)
class AssocReport:
    max_residual: float
    tol: float
    passed: bool
    worst: tuple
    checked: int
    exhaustive: bool


# A law is a list of (spec, tensor names) whose values must agree.  Each spec
# is a matrix product of its two tensors over q: the first one's letters end
# in q, the second's hold q and end in r, and the output letters name the
# basis tuple in order, then the output coordinate r.
_ASSOC_LAW = {
    "assoc": [("abcq,qder->abcder", ("T", "T")), ("bcdq,aqer->abcder", ("T", "T"))],
}


def _operands(spec: str, t1, t2, where: int):
    """Slice ``where`` of one law expression as one matrix product over q.

    The lead tuple letter is fixed at ``where`` in whichever operand carries
    it.  Returns the first operand's rows over q, the second operand's
    ``(q, columns)`` matrix, the shape of their product over the letters of
    its rows then its columns, and the axes that put that shape in the
    output's letter order.  Arrays with a unit q axis slice alike.
    """
    ins, out = spec.split("->")
    first, second = ins.split(",")
    q = second.index("q")
    right, rest = t2.transpose(q, *(a for a in range(4) if a != q)), second.replace("q", "")
    lead = out[0]
    if lead in first:
        t1 = t1[(slice(None),) * first.index(lead) + (where,)]
        first = first.replace(lead, "")
    else:
        right = right[(slice(None),) * (1 + rest.index(lead)) + (where,)]
        rest = rest.replace(lead, "")
    axes = [(first[:-1] + rest).index(s) for s in out[1:]]
    shape = t1.shape[:-1] + right.shape[1:]
    return t1.reshape(-1, t1.shape[-1]), right.reshape(len(right), -1), shape, axes


def _law_values(spec: str, p1: _Plan, p2: _Plan, where) -> np.ndarray:
    """One law expression at basis tuples, by BLAS matrix products over q.

    An integer ``where`` fixes the first tuple letter and gives the whole
    slice over the other letters, then r, from one product.  An index array
    of shape ``(letters, n)`` gives n tuples, ``(n, dout)``: the second
    operand becomes a ``(K, q, r)`` table keyed by its other letters.  A
    tuple whose row of the first operand holds one nonzero ``v`` at ``q``
    takes ``v`` times row ``q`` of its key's table; the tuples whose row holds
    more take one product per key; the other tuples are zero.
    """
    if np.ndim(where) == 0:
        left, right, shape, axes = _operands(spec, p1.tensor, p2.tensor, where)
        return (left @ right).reshape(shape).transpose(axes)
    t1, t2 = p1.tensor, p2.tensor
    ins, out = spec.split("->")
    first, second = ins.split(",")
    idx = dict(zip(out, where))
    right = np.moveaxis(t2, second.index("q"), -2)
    table = right.reshape(-1, *right.shape[-2:])
    key = np.ravel_multi_index([idx[s] for s in second[:-1] if s != "q"], right.shape[:-2])
    rows = np.ravel_multi_index([idx[s] for s in first[:-1]], t1.shape[:-1])
    counts = p1.counts.reshape(-1)
    count = counts[rows]
    vals = np.zeros((len(rows), table.shape[-1]), np.result_type(t1, t2))
    one = np.flatnonzero(count == 1)
    if len(one):
        # the nonzeros run in C order, so a row's one nonzero is the last up to it
        at = np.cumsum(counts)[rows[one]] - 1
        vals[one] = p1.nonzeros[4][at, None] * table[key[one], p1.nonzeros[3][at]]
    many = np.flatnonzero(count > 1)
    if len(many):
        # a stable (radix, on the smallest type) sort keeps a key's tuples in draw order
        small = key[many].astype(np.min_scalar_type(len(table) - 1))
        order = many[np.argsort(small, kind="stable")]
        left = np.take(t1.reshape(-1, t1.shape[-1]), rows[order], axis=0)
        stops = np.cumsum(np.bincount(small, minlength=len(table))).tolist()
        for k, (start, stop) in enumerate(itertools.pairwise([0, *stops])):
            if start < stop:
                vals[order[start:stop]] = left[start:stop] @ table[k]
    return vals


class _Expression:
    """One law expression ``spec`` over the plans of its two tensors, with
    what its slices share, found on the first slice of a check."""

    def __init__(self, spec: str, p1: _Plan, p2: _Plan):
        self.spec, self.p1, self.p2 = spec, p1, p2

    def live_rows(self, where) -> np.ndarray:
        """Whether the first operand's row ``(i, j, k)`` is live at each tuple
        of ``where``."""
        ins, out = self.spec.split("->")
        i, j, k = (where[out.index(s)] for s in ins[:3])
        _, d2, d3 = self.p1.counts.shape
        return self.p1.counts.reshape(-1)[(i * d2 + j) * d3 + k] != 0

    @functools.cached_property
    def grid(self) -> tuple | None:
        """Both operands' live entries reduced over q to a unit axis, so that
        ``_operands`` slices them as it slices the tensors; the flat tuple,
        in the output's C order, of each row and column group of r of a
        slice's product; and the shape of the slice's tuples.  None when
        both tensors are nonzero everywhere."""
        p1, p2 = self.p1, self.p2
        if len(p1.nonzeros[4]) == p1.tensor.size and len(p2.nonzeros[4]) == p2.tensor.size:
            return None
        q = self.spec.split(",")[1].index("q")
        live = ((p1.counts != 0)[..., None], (p2.tensor != 0).any(axis=q, keepdims=True))
        rows, _, shape, axes = _operands(self.spec, *live, 0)
        tuple_shape = [shape[a] for a in axes[:-1]]
        flat = np.arange(math.prod(tuple_shape)).reshape(tuple_shape)
        return live, flat.transpose(np.argsort(axes[:-1])).reshape(len(rows), -1), tuple_shape


def _difference_norms(vals, norms_of) -> np.ndarray:
    """Per tuple, the largest norm of a difference of consecutive values;
    ``vals`` may be lazy, so at most two values are alive at a time."""
    return np.max([norms_of(u - v) for u, v in itertools.pairwise(vals)], axis=0)


def _slice_norms(exprs: list, where: int, norms_of):
    """A law's residual norms at slice ``where``, and a map from a norm's
    place to its tuple.

    Each expression is one product over the live rows and live columns of
    its slice.  The residual is taken only on the tuples where some block
    holds a nonzero, in C order: every expression is zero elsewhere.  When
    some expression has every row and column live, each expression takes
    the whole slice's product instead.
    """
    entries = []
    for e in exprs:
        if e.grid is None:
            break
        live, flat, tuple_shape = e.grid
        rows, cols, shape, _ = _operands(e.spec, *live, where)
        if rows.all() and cols.all():
            break
        rows, cols = np.flatnonzero(rows), np.flatnonzero(cols)
        left, right, _, _ = _operands(e.spec, e.p1.tensor, e.p2.tensor, where)
        block = left[rows] @ right[:, cols]
        i, j = np.nonzero(block)
        dout = shape[-1]
        entries.append((flat[rows[i], cols[j] // dout], cols[j] % dout, block[i, j]))
    else:  # every expression has a dead row or column
        covered = np.zeros(flat.size, bool)
        for tuples, _, _ in entries:
            covered[tuples] = True
        covered = np.flatnonzero(covered)
        vals = []
        for tuples, r, v in entries:
            vals.append(np.zeros((len(covered), dout), v.dtype))
            vals[-1][np.searchsorted(covered, tuples), r] = v
        return _difference_norms(vals, norms_of), lambda pos: (
            where, *np.unravel_index(covered[pos], tuple_shape))
    norms = _difference_norms((_law_values(e.spec, e.p1, e.p2, where) for e in exprs), norms_of)
    return norms.ravel(), lambda pos: (where, *np.unravel_index(pos, norms.shape))


def _sampled_norms(exprs: list, where, norms_of):
    """A law's residual norms at the tuples ``where`` whose row of some
    expression's first operand is live, and a map from a norm's place to its
    tuple; every other tuple's residual is zero."""
    if not all(e.p1.counts.all() for e in exprs):
        live = np.logical_or.reduce([e.live_rows(where) for e in exprs])
        where = where.compress(live, axis=1)
    vals = (_law_values(e.spec, e.p1, e.p2, where) for e in exprs)
    return _difference_norms(vals, norms_of), lambda pos: where[:, pos]


def _law_residuals(laws: dict, plans: dict, norms_of, chunks) -> dict:
    """Per law, the largest norm of a difference of consecutive expressions
    over ``chunks`` (each a ``where`` of ``_law_values``) and the tuple where
    it occurs (None while every difference is zero); ``plans`` maps the
    laws' tensor names to their plans.  Only tuples where some expression
    can be nonzero are evaluated: the residual of any other is zero, as
    ``norms_of`` of a zero vector is."""
    found = dict.fromkeys(laws, (0.0, None))
    exprs = {name: [_Expression(spec, plans[a], plans[b]) for spec, (a, b) in law]
             for name, law in laws.items()}
    for where in chunks:
        norms_at = _slice_norms if np.ndim(where) == 0 else _sampled_norms
        for name, law in exprs.items():
            norms, tuple_at = norms_at(law, where, norms_of)
            if norms.size:
                pos = int(np.argmax(norms))
                if norms[pos] > found[name][0]:
                    found[name] = (float(norms[pos]), tuple(map(int, tuple_at(pos))))
    return found


def check_ternary_associativity(
    alg: TernaryAlgebra,
    tol: float,
    budget: int = DEFAULT_TUPLE_BUDGET,
    seed: int = 0,
    samples: int | None = None,
) -> AssocReport:
    """Residual of ``[[abc]de] = [a[bcd]e]`` over basis 5-tuples.

    All ``d**5`` tuples are enumerated when that count is within ``budget``;
    otherwise ``budget`` tuples are drawn with a seeded generator.  Passing
    ``samples`` forces a seeded draw of that many tuples (with replacement)
    regardless of the budget.  The report carries the maximum residual norm,
    the worst tuple and a pass flag against ``tol``.  A ``tol`` that is not
    finite and nonnegative, or a count or ``seed`` that is not a nonnegative
    integer, raises ``ValueError`` before any work.
    """
    _check_arguments(tol=tol, budget=budget, seed=seed, samples=0 if samples is None else samples)
    d = alg.dim
    exhaustive = d**5 <= budget and samples is None
    if exhaustive:
        checked, chunks = d**5, range(d)
    else:
        rng = np.random.default_rng(seed)
        checked = samples if samples is not None else budget
        chunks = (
            rng.integers(0, d, size=(5, min(_TUPLE_CHUNK, checked - done)))
            for done in range(0, checked, _TUPLE_CHUNK)
        )
    found = _law_residuals(_ASSOC_LAW, {"T": alg._plan}, alg.norms_of, chunks)
    max_res, worst = found["assoc"]
    passed = checked > 0 and max_res <= tol
    return AssocReport(max_res, float(tol), passed, worst or (0,) * 5, checked, exhaustive)


@dataclass(frozen=True)
class BinaryReduction:
    """Binary product recovered from a verified identity element.

    ``table[i, j, :]`` holds the coordinates of ``e_i * e_j = [e_i e e_j]``.
    """

    identity: np.ndarray
    table: np.ndarray
    identity_residual: float
    assoc_residual: float


def verify_identity_and_reduce(alg: TernaryAlgebra, e, tol: float) -> BinaryReduction:
    """Check ``a = [aee] = [eae] = [eea]`` on the basis and reduce to a binary product.

    On success returns the product table of ``a * b := [aeb]`` together with
    the residual of ``(a*b)*c = [[aeb]ec] = [ae[bec]] = a*(b*c)`` over basis
    triples.  Raises :class:`IdentityCheckError` naming the worst-violating
    basis vector otherwise.
    """
    _check_arguments(tol=tol)
    e = alg.vector(e)
    t = alg._plan
    eye = alg.basis()
    sides = [_trilinear(t, eye, e, e), _trilinear(t, e, eye, e), _trilinear(t, e, e, eye)]
    per_basis = alg.norms_of(np.stack(sides) - eye).max(axis=0)
    worst = int(np.argmax(per_basis))
    identity_residual = float(per_basis[worst])
    if identity_residual > tol:
        raise IdentityCheckError(
            f"identity equations fail at basis vector {worst}: "
            f"residual {identity_residual:.3e} > tol {tol:.3e}",
            worst_index=worst,
            residual=identity_residual,
        )
    table = _trilinear(t, eye[:, None], e, eye)  # [e_i e e_k]
    # (e_i e_j) e_k - e_i (e_j e_k)
    assoc = _trilinear(t, table[:, :, None], e, eye) - _trilinear(t, eye[:, None, None], e, table)
    assoc_residual = float(alg.norms_of(assoc).max())
    return BinaryReduction(e, table, identity_residual, assoc_residual)


def rescale_norm_submultiplicative(
    alg: TernaryAlgebra, samples: int, seed: int = 0
) -> TernaryAlgebra:
    """Scale the norm so ``|[abc]| <= |a| |b| |c|`` holds.

    Estimates ``c = sup |[abc]| / (|a| |b| |c|)`` from ``samples`` seeded
    random triples; with the default 2-norm the five best sampled triples
    are polished by four rounds of alternating singular-vector ascent, which
    drive the estimate towards a local maximum of the trilinear form.  The
    returned algebra carries ``norm_scale`` multiplied by
    ``max(1, sqrt(c))``, which bounds the product ratio by
    ``c / kappa**2 <= 1`` on the sample.  A zero tensor yields the input
    unchanged.  A ``samples`` that is not an integer of at least 1, or a
    ``seed`` that is not a nonnegative integer, raises ``ValueError``.
    """
    _check_arguments(least={"samples": 1}, samples=samples, seed=seed)
    d = alg.dim
    t = alg._plan
    if not np.any(alg.structure):
        return alg
    rng = np.random.default_rng(seed)

    def ratios(a, b, c) -> list:
        """``|[abc]| / (|a| |b| |c|)`` per row of the stacks, each row's
        value alone, or None where a norm is 0."""
        norms = alg.norms_of(np.stack([a, b, c]))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = alg.norms_of(_trilinear(t, a, b, c)) / (norms[0] * norms[1] * norms[2])
        return [v if live else None for v, live in zip(vals.tolist(), norms.all(axis=0).tolist())]

    a, b, c = _random_vector(rng, (d, d, d), alg.field, count=samples)
    vals = ratios(a, b, c)
    kept = [i for i, val in enumerate(vals) if val is not None]
    best_val = max([0.0] + [vals[i] for i in kept])
    top = sorted(kept, key=lambda i: -vals[i])[:5]

    if alg.norm is None:
        # alternating ascent: with two slots fixed the third enters through a
        # d x d matrix, whose top right singular vector maximizes the 2-norm
        # ratio exactly
        eye = alg.basis()
        for i in top:
            vecs = [a[i], b[i], c[i]]
            for _ in range(4):
                for slot in range(3):
                    mat = _trilinear(t, *(eye if s == slot else vecs[s] for s in range(3))).T
                    _, _, vh = np.linalg.svd(mat)
                    vecs[slot] = vh[0].conj()
            best_val = max(best_val, ratios(*(v[None] for v in vecs))[0])

    kappa = max(1.0, float(np.sqrt(best_val)))
    return replace(alg, norm_scale=alg.norm_scale * kappa)
