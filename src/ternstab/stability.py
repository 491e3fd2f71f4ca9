"""The direct-method stability engine.

Given a map ``f`` whose derivation defect is bounded by a summable control
function, the exact derivation is the limit of the doubling iteration
``f(2**n x) / 2**n``.  ``hyers_limit`` runs that iteration for one point;
``direct_method_stabilize`` runs it over a basis for the four maps
``(f, g, h, k)``, each distinct map evaluated once on one shared stack of
its basis and linearity rays, assembles the recovered linear maps, and
verifies linearity, the distance bounds and the derivation identity.  ``check_hypothesis``
samples the defect inequalities themselves and reports violations as
findings rather than failures.  Each group of seeded samples, the
hypothesis tuples and the linearity, bound and identity points, is drawn in
one pass, into read-only arrays that a sweep's points share, and each map
is evaluated on all of a check's points in one stacked pass.  Both checks
are the one-point case of a core that runs many points, such as a sweep's,
on one draw: each point keeps its own ``phi`` values, map evaluations and
stop searches, while the brackets, divisions, differences, norms and
residuals run once over all points' rows, each point reading its own
segment, with the bits each row has alone.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass, field

import numpy as np

# ternary_product, product_*, cauchy_tail_bound, summed_majorant and
# lie_derivation_residual are only imported: the traced benchmark wraps them here
from .algebra import (COMPLEX, _check_arguments, _joined, _norms_with, _random_vector,
                      _trilinear, l2_norm, ternary_product)
from .control import (ControlFunction, _phis, _tail, cauchy_tail_bound, summed_majorant)
from .errors import DimensionMismatch, DivergentControlError, NonConvergenceError
from .maps import (LinearMap, SignConvention, LIE_SIGNS, _bracket, _residuals,
                   lie_derivation_residual)
from .module import TernaryModule, product_abx, product_xab

#: hard iteration cap: 2**n stays inside double range with headroom
ITERATION_CAP = 1000
#: map kinds whose ``fn`` takes a whole ``(N, in_dim)`` stack
_STACKED_KINDS = ("linear-plus-perturbation", "exact-linear")
#: default threshold of the derivation identity's normalized residual
_IDENTITY_TOL = 1e-8
#: trace rows ``n <= _RATE_ROWS`` are all that ``_rate_estimate`` reads, and
#: all that a run keeps when it writes no trace file
_RATE_ROWS = 10


@dataclass(frozen=True, eq=False)
class EvaluableMap:
    """A deterministic pointwise-evaluable map between coordinate spaces.

    ``map(x)`` evaluates one point and :meth:`evaluate_stack` every row of
    an ``(N, in_dim)`` stack.  A ``linear-plus-perturbation`` map (as built
    by ``perturb_map``) and an ``exact-linear`` one (``LinearMap.apply``,
    one batched matrix-vector product) get the whole stack in one ``fn``
    call, which must return ``(N, out_dim)``; ``tabulated`` and ``custom``
    maps are called once per row.  Stack support goes with ``kind``, so a
    map rebuilt from ``(in_dim, out_dim, fn, kind)`` keeps it.
    """

    in_dim: int
    out_dim: int
    fn: object
    kind: str = "custom"

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.in_dim,):
            raise DimensionMismatch(
                f"input shape {x.shape} for map with in_dim {self.in_dim}"
            )
        out = np.asarray(self.fn(x))
        if out.shape != (self.out_dim,):
            raise DimensionMismatch(
                f"evaluator returned shape {out.shape}, expected ({self.out_dim},)"
            )
        return out

    def evaluate_stack(self, xs) -> np.ndarray:
        """The map on every row of an ``(N, in_dim)`` stack, as ``(N, out_dim)``."""
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.in_dim:
            raise DimensionMismatch(
                f"stack shape {xs.shape} for map with in_dim {self.in_dim}"
            )
        if self.kind not in _STACKED_KINDS:
            if not len(xs):
                return np.empty((0, self.out_dim))
            return np.array([self(row) for row in xs])
        out = np.asarray(self.fn(xs))
        if out.shape != (len(xs), self.out_dim):
            raise DimensionMismatch(
                f"evaluator returned shape {out.shape}, expected ({len(xs)}, {self.out_dim})"
            )
        return out

    @staticmethod
    def from_linear(lm: LinearMap) -> "EvaluableMap":
        return EvaluableMap(lm.in_dim, lm.out_dim, lm.apply, kind="exact-linear")

    @staticmethod
    def tabulated(points, in_dim: int, out_dim: int, dtype=np.float64) -> "EvaluableMap":
        """Lookup-table map: ``points`` is an iterable of ``(x, value)`` pairs."""
        table = {
            np.ascontiguousarray(np.asarray(x, dtype=dtype)).tobytes(): np.asarray(
                v, dtype=dtype
            )
            for x, v in points
        }

        def lookup(x):
            key = np.ascontiguousarray(np.asarray(x, dtype=dtype)).tobytes()
            try:
                return table[key]
            except KeyError:
                raise ValueError("point not tabulated") from None

        return EvaluableMap(in_dim, out_dim, lookup, kind="tabulated")


def hyers_limit(
    f: EvaluableMap,
    control: ControlFunction,
    x,
    tol: float,
    max_iter: int = ITERATION_CAP,
    out_norm=None,
    trace=None,
) -> tuple:
    """Limit of ``f(2**n x) / 2**n`` with a certified stopping rule.

    The iteration stops at the first ``n`` whose Cauchy tail bound ``h
    L**n / (1 - L)`` (see :func:`cauchy_tail_bound`), from the control's
    ratio ``L`` and ``h = phi(x, x, 0, ...) / 2``, is at most ``tol``; for
    ``theta = 0``, a zero custom control or a zero ``x`` that is ``n = 0``.
    That ``n`` is found from one value of ``phi`` before ``f`` is
    evaluated, and one stack of points ``2**k x`` (see
    :meth:`EvaluableMap.evaluate_stack`) holds only the rows that are
    read: ``x``, row ``n`` and the traced rows between, so an untraced call
    evaluates ``f`` at ``x`` and ``2**n x`` alone.  Doubling and scaling by
    ``2**-k`` are exact in binary floating point, so the limit and the
    trace equal those of doubling one step at a time.  If a row of that
    stack is not finite, the whole ray ``k = 1..n`` is evaluated to find
    the first row that is not; otherwise the rows left out are not
    checked.  Returns the scaled iterate and the stopping ``n``.
    ``trace``, if a list, receives a row ``(n, successive_difference,
    tail_bound)`` per iteration, also for the iterations before a failure.
    This is the one-point case of the stacked core that
    :func:`direct_method_stabilize` runs over many points at once.

    Raises :class:`NonConvergenceError` when a row that is evaluated is not
    finite or no ``n`` up to ``min(max_iter, 1000)`` stops; the hard cap
    keeps ``2**n`` inside double-precision range.  Without a stop, row
    ``min(max_iter, 1000)`` is checked the same way as row ``n``.  A custom
    control that breaks its declared ratio at ``(x, x, 0, ...)`` raises
    :class:`DivergentControlError`, and a ``tol`` that is not finite and
    positive or a ``max_iter`` that is not a nonnegative integer
    ``ValueError``, before ``f`` is evaluated.
    """
    _check_arguments(positive=("tol",), tol=tol, max_iter=max_iter)
    x = np.asarray(x)
    if x.shape != (f.in_dim,):
        raise DimensionMismatch(f"input shape {x.shape} for map with in_dim {f.in_dim}")
    layout = _ray_layout(control, x[None], tol, max_iter, [trace is not None])
    (outcome,), rows = _stacked_limits([(f, layout)], out_norm)[0]
    if trace is not None:
        trace.extend(row[1:] for row in rows)
    if isinstance(outcome, NonConvergenceError):
        raise outcome
    return outcome


@dataclass(eq=False)
class _Layout:
    """The rays of one doubling run, laid out before any map is evaluated:
    ray ``r`` reads ``f`` at ``x`` and at ``2**k x`` for each ``k`` of
    ``rows[r]``, rows ``start[r]..last[r]`` of one ``points`` stack whose
    ``2**k`` factors are ``scale``.  Its first ``traced[r]`` rows go to its
    trace, with the tail bounds ``tails[r]``, and ``current`` indexes every
    traced row of the stack, ray by ray.  ``columns`` holds the ray index,
    ``n`` and tail bound of those rows, in that order, which every map's
    trace shares, and ``rated`` indexes the rows with ``3 <= n <=
    _RATE_ROWS``."""

    limit: int
    stops: list
    rows: list
    traced: list
    tails: list
    points: np.ndarray
    scale: np.ndarray
    start: np.ndarray
    last: np.ndarray
    current: np.ndarray
    columns: tuple
    rated: list


def _stack(xs, ks, counts) -> tuple:
    """The points ``2**k x``, for each row ``x`` of ``xs`` repeated its
    entry of ``counts`` times and the ``k`` of ``ks`` in turn, and the
    ``2**k`` column; the four maps of a run share it, so it is read-only."""
    scale = np.ldexp(1.0, np.asarray(ks, dtype=np.intp))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.repeat(xs, counts, axis=0) * scale
    points.flags.writeable = False
    return points, scale


def _heads(controls, xs) -> list:
    """Per control, ``h = phi(x, x, 0, ...) / 2`` at each row of the float
    stack ``xs`` as a list, from :func:`_phis` (the norms of ``xs`` taken
    once), or the :class:`DivergentControlError` of a control that breaks
    its ratio there."""
    zeros = (np.zeros(xs.shape[1], dtype=xs.dtype),) * (controls[0].arity - 2)
    return [phi if isinstance(phi, DivergentControlError) else (phi / 2.0).tolist()
            for phi in _phis(controls, (xs, xs, *zeros), checked=True)]


def _ray_layout(control, xs, tol, max_iter, traced, trace_rows=None, heads=None) -> _Layout:
    """The :class:`_Layout` of the rays at the rows ``x`` of an ``(P, d)``
    stack ``xs``, ray ``r`` traced if ``traced[r]``.  A ray reads ``x``, its
    stop row (or row ``min(max_iter, 1000)`` when no row stops) and its
    traced rows, ``n <= trace_rows`` when that is set.  A ray's bounds depend
    on ``x`` only through ``h = phi(x, x, 0, ...) / 2``, given per ray in
    ``heads`` or else found here by :func:`_heads` (a custom ratio checked),
    so the stop is searched once per distinct ``h``; a zero ``x`` stops at
    0.  The traced rows' ray index, ``n`` and tail bound columns are built
    here, once for every map of the run, and so are the indexes of the rows
    ``_rate_estimate`` reads.  Its callers have checked ``tol`` and
    ``max_iter``."""
    xs = np.asarray(xs)
    xs = np.asarray(xs, dtype=np.result_type(xs.dtype, np.float64))
    if heads is None:
        (heads,) = _heads([control], xs)
        if isinstance(heads, DivergentControlError):
            raise heads
    limit = min(int(max_iter), ITERATION_CAP)
    searched, tails_of = {}, {}
    stops, ends, rows, counts, tails = [], [], [], [], []
    for moved, h, wanted in zip(xs.any(axis=1).tolist(), heads, traced):
        # a zero x is not searched: it stops at 0
        if moved and h not in searched:
            searched[h] = _a_priori_stop(control, h, tol, limit)
        stop = searched[h] if moved else 0
        end = limit if stop is None else stop
        count = 0 if not wanted else end if trace_rows is None else min(end, trace_rows)
        if count and h not in tails_of:
            tails_of[h] = [_tail(control, h, k) for k in range(1, count + 1)]
        stops.append(stop)
        ends.append(end)
        rows.append(range(1, end + 1) if count == end else [*range(1, count + 1), end])
        counts.append(count)
        tails.append(tails_of.get(h))
    sizes = [len(r) + 1 for r in rows]
    last = np.cumsum(sizes) - 1
    start = last - sizes + 1
    # each ray's k: 0 (x itself), its traced rows 1..count, then its end
    ks = np.arange(sum(sizes)) - np.repeat(start, sizes)
    ks[last] = ends
    current = np.flatnonzero((ks >= 1) & (ks <= np.repeat(counts, sizes)))
    columns = ([r for r, c in enumerate(counts) for _ in range(c)],
               [n for c in counts for n in range(1, c + 1)],
               [t for tail, c in zip(tails, counts) if c for t in tail[:c]])
    rated = [j for j, n in enumerate(columns[1]) if 3 <= n <= _RATE_ROWS]
    return _Layout(limit, stops, rows, counts, tails, *_stack(xs, ks, sizes), start, last,
                   current, columns, rated)


def _stacked_limits(members, out_norm=None) -> list:
    """:func:`hyers_limit` for every ray of each ``(f, layout)`` of
    ``members``, from one :meth:`EvaluableMap.evaluate_stack` call per
    member on its layout's stack.

    Returns, per member, per ray ``(limit, n)`` or the
    :class:`NonConvergenceError` that the ray alone raises, and the map's
    trace: rows ``(ray index, n, successive_difference, tail_bound)``, ray
    by ray.  The division by ``2**k`` runs once for all members.  A member
    whose every ray stops and every row is finite reads each limit at the
    ray's last row, its traced differences come from one norm call for all
    such members, and its trace is one ``zip`` of the layout's shared
    columns with them.  Any other member's rays are read alone: a ray with a
    row that is not finite is evaluated again, whole, in one more stack
    shared by such rays, and a ray with no stop fails at the cap; a ray's
    trace then ends before its first row that is not finite.
    """
    sizes = [len(layout.scale) for _, layout in members]
    starts = np.cumsum(sizes) - sizes
    # the norms recompute rows whose squares overflow, and a row that leaves
    # double range is reported or dropped, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (_joined([f.evaluate_stack(layout.points) for f, layout in members])
                  / _joined([layout.scale for _, layout in members]))
    finite = np.logical_and.reduceat(np.isfinite(scaled).all(axis=1), starts)
    fast = [i for i, (_, layout) in enumerate(members) if finite[i] and None not in layout.stops]
    if fast:
        current = _joined([starts[i] + members[i][1].current for i in fast])
        diffs = _norms_with(out_norm, scaled[current] - scaled[current - 1]).tolist()
        limits = scaled[_joined([starts[i] + members[i][1].last for i in fast])]
    out, read, taken = [None] * len(members), 0, 0
    for i in fast:
        layout = members[i][1]
        rays, ns, tails = layout.columns
        count, size = len(layout.current), len(layout.last)
        out[i] = (list(zip(limits[taken : taken + size], layout.stops)),
                  list(zip(rays, ns, diffs[read : read + count], tails)))
        read, taken = read + count, taken + size
    for i, (f, layout) in enumerate(members):
        if out[i] is None:
            out[i] = _ray_outcomes(f, layout, scaled[starts[i] : starts[i] + sizes[i]], out_norm)
    return out


def _ray_outcomes(f, layout: _Layout, scaled, out_norm) -> tuple:
    """:func:`_stacked_limits` of one member read ray by ray, from its
    scaled values ``scaled``."""
    traces = [[] for _ in layout.rows]
    outcomes = [_ray_outcome(layout, r, scaled[i : j + 1], rows, out_norm, traces[r])
                for r, (i, j, rows) in enumerate(zip(layout.start, layout.last, layout.rows))]
    again = [r for r, outcome in enumerate(outcomes) if outcome is None]
    if again:
        ks = [range(1, layout.rows[r][-1] + 1) for r in again]
        # row start[r] of the stack is x itself
        points, scale = _stack(layout.points[layout.start[again]], [k for ray in ks for k in ray],
                               [len(k) for k in ks])
        with np.errstate(over="ignore", invalid="ignore"):
            whole = f.evaluate_stack(points) / scale
        for r, rows, part in zip(again, ks, np.split(whole, np.cumsum([len(k) for k in ks])[:-1])):
            values = np.concatenate([scaled[layout.start[r]][None], part])
            outcomes[r] = _ray_outcome(layout, r, values, rows, out_norm, traces[r])
    return outcomes, [row for trace in traces for row in trace]


def _ray_outcome(layout, r, values, rows, out_norm, trace):
    """Ray ``r``'s outcome from ``f(x)`` and the scaled values at ``rows``,
    ``values`` in that order, or None when the whole ray is to be
    evaluated; its traced rows go to ``trace``."""
    if not np.all(np.isfinite(values[0])):
        return NonConvergenceError("f(x) is not finite", iterations=0)
    stop = layout.stops[r]
    if stop == 0:
        return values[0].copy(), 0
    finite = np.isfinite(values[1:])
    reached = len(rows) if finite.all() else int(np.argmin(finite.all(axis=1)))
    if reached < len(rows) and rows[-1] > len(rows):
        # a row left out may be the first that is not finite
        return None
    read = min(reached, layout.traced[r])
    if read:
        diffs = _norms_with(out_norm, values[1 : read + 1] - values[:read])
        trace.extend(zip([r] * read, range(1, read + 1), diffs.tolist(), layout.tails[r]))
    if reached < len(rows):
        n = int(rows[reached])
        return NonConvergenceError(f"iterate at n={n} overflowed", iterations=n)
    if stop is not None:
        return values[-1].copy(), stop
    reason = (f"hard iteration cap {ITERATION_CAP} reached" if layout.limit == ITERATION_CAP
              else f"max_iter {layout.limit} exceeded")
    return NonConvergenceError(f"doubling iteration did not converge: {reason}",
                               iterations=layout.limit)


def _a_priori_stop(control: ControlFunction, h: float, tol: float, limit: int):
    """First ``n`` in ``0..limit`` whose Cauchy tail bound ``h L**n / (1 -
    L)`` (see :func:`_tail`) is at most ``tol``, or None: a bisection, as
    the bound does not grow with ``n``."""
    n = bisect.bisect_left(range(limit + 1), True, key=lambda k: _tail(control, h, k) <= tol)
    return n if n <= limit else None


@dataclass
class HypothesisReport:
    """Sampled slack of the defect inequalities: findings, not failures."""

    mode: str
    tuples_checked: int
    lambda_count: int
    max_residual: float
    min_slack: float
    violations: int
    worst: dict | None

    def to_dict(self) -> dict:
        """The fields as a dict that shares no mutable object with the report."""
        out = dict(vars(self))
        if self.worst is not None:
            out["worst"] = {**self.worst, "lambda": list(self.worst["lambda"])}
        return out


def _lambda_grid(field_tag: str, count: int):
    if field_tag == COMPLEX:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.exp(1j * angles)
    return np.array([1.0, -1.0])


@dataclass(frozen=True, eq=False)
class _HypothesisPoints:
    """What :func:`check_hypothesis` derives from its draws alone, all
    read-only: the drawn ``(samples, slots, d)`` tuples, the lambda grid, and
    the maps' two stacked inputs.  Sample ``i`` of an input is rows ``x, y,
    u, v, w`` (a Jordan sample repeats ``u`` as ``v`` and ``w``) and then,
    per lambda, ``lam x + lam y + [uvw]`` in ``f_input`` and ``lam x + lam
    y`` in ``shared_input``, which ``g``, ``h`` and ``k`` share."""

    drawn: np.ndarray
    lams: np.ndarray
    f_input: np.ndarray
    shared_input: np.ndarray


def _hypothesis_points(alg, samples: int, seed: int, mode: str,
                       lambda_grid: int) -> _HypothesisPoints:
    """The :class:`_HypothesisPoints` of ``samples`` tuples from the stream
    ``[seed, 0x48]``.  Each tuple takes one ``uniform`` log-scale in
    ``[log 1/4, log 4)`` and then one standard normal draw of all its
    slots' coordinates (see :func:`_random_vector`), in that order, so the
    tuples equal those of drawing them one at a time; the scales and the
    complex parts are applied afterwards, to all tuples at once."""
    lams = _lambda_grid(alg.field, lambda_grid)
    rng = np.random.default_rng([seed, 0x48])
    slots = 5 if mode == "lie" else 3
    parts = 2 if alg.field == COMPLEX else 1
    low, high = np.log(0.25), np.log(4.0)
    logs, raw = np.empty(samples), np.empty((samples, slots, parts * alg.dim))
    for i in range(samples):
        logs[i] = rng.uniform(low, high)
        rng.standard_normal(out=raw[i])
    if parts == 2:
        raw = raw[..., : alg.dim] + 1j * raw[..., alg.dim :]
    drawn = np.exp(logs)[:, None, None] * raw
    points = drawn[:, np.minimum(np.arange(5), slots - 1)]
    lam_col = lams[:, None]
    sums = lam_col * points[:, :1] + lam_col * points[:, 1:2]
    triple = _trilinear(alg._plan, *np.moveaxis(points[:, 2:], 1, 0))[:, None]
    record = _HypothesisPoints(
        drawn, lams,
        np.concatenate([points, sums + triple], axis=1).reshape(-1, alg.dim),
        np.concatenate([points, sums], axis=1).reshape(-1, alg.dim))
    for array in vars(record).values():
        array.flags.writeable = False
    return record


@dataclass(frozen=True, eq=False)
class _CheckPoints:
    """The seeded points of :func:`direct_method_stabilize`'s checks, all
    read-only: ``linearity`` and ``bounds`` are ``(count, d)`` stacks and
    ``identity`` the ``a``, ``b`` and ``c`` stacks of the identity triples."""

    linearity: np.ndarray
    bounds: np.ndarray
    identity: tuple


def _check_points(alg, seed: int, linearity_points: int, bound_points: int,
                  identity_triples: int, mode: str) -> _CheckPoints:
    """The :class:`_CheckPoints` drawn from the streams ``[seed, 0x51]``
    (linearity), ``0x52`` (bounds) and ``0x53`` (identity), each in one
    :func:`_random_vector` call."""
    def draw(stream, count):
        rng = np.random.default_rng([seed, stream])
        points = _random_vector(rng, alg.dim, alg.field, count=count)
        points.flags.writeable = False
        return points

    # drawn a, b, c per triple in turn; a Jordan triple repeats its one draw
    slots = 1 if mode == "jordan" else 3
    stack = draw(0x53, identity_triples * slots).reshape(identity_triples, slots, alg.dim)
    return _CheckPoints(draw(0x51, linearity_points), draw(0x52, bound_points),
                        tuple(stack[:, s % slots] for s in range(3)))


def check_hypothesis(
    f: EvaluableMap,
    g: EvaluableMap,
    h: EvaluableMap,
    k: EvaluableMap,
    control: ControlFunction,
    mod: TernaryModule,
    signs: SignConvention = LIE_SIGNS,
    lambda_grid: int = 16,
    samples: int = 50,
    seed: int = 0,
    mode: str = "lie",
) -> HypothesisReport:
    """Sample the defect inequalities of the four maps.

    The main inequality compares ``f(lam x + lam y + [uvw])`` against the
    additive part and the three twisted brackets, with ``g, h, k``
    substituted pointwise for the twist maps inside the bracket; its defect
    must stay below ``phi(x, y, u, v, w)``.  The three companion
    inequalities bound the additivity defect of ``g, h, k`` by
    ``phi(x, y, 0, ...)``.  In ``jordan`` mode the bracket arguments
    collapse to a single ``u`` and the control has arity 3.  A sample is
    counted as a violation when its defect exceeds the bound by more than a
    rounding allowance of ``1e-12 * (1 + phi)``; the raw worst slack is
    reported either way.

    The points are drawn by :func:`_hypothesis_points`, a scale and then
    ``x, y, u`` (and ``v, w`` in ``lie`` mode) per sample, and evaluated
    together: each distinct map object (``g``, ``h`` and ``k`` may be one)
    and each side of ``phi`` once on one stack, the residuals and slacks as
    ``(samples, lambdas, 4)``.  A ``samples`` or ``seed`` that is not a
    nonnegative integer, a ``lambda_grid`` that is not an integer of at
    least 2, or a ``mode`` other than ``lie`` and ``jordan`` raises
    ``ValueError`` before any map is evaluated.
    """
    return _check_hypotheses([(f, g, h, k, control)], mod, signs, lambda_grid, samples, seed,
                             mode)[0]


def _check_hypotheses(runs, mod: TernaryModule, signs: SignConvention, lambda_grid: int,
                      samples: int, seed: int, mode: str, points=None) -> list:
    """:func:`check_hypothesis` of each ``(f, g, h, k, control)`` of
    ``runs``, all on one draw of the points: the report of each, equal to its
    own call's.  Each control's ``phi`` comes from :func:`_phis`, so equal
    norms of the drawn arguments are taken once, and each distinct map is
    evaluated once per input on its own rows.  The brackets, the residual
    norms and the slacks then run once over all runs' samples stacked, and
    each run's report reads its own segment of them."""
    _check_arguments(mode=mode, samples=samples, seed=seed, lambda_grid=lambda_grid)
    alg = mod.algebra
    if points is None:
        points = _hypothesis_points(alg, samples, seed, mode, lambda_grid)
    lams = points.lams
    lam_col = lams[:, None]
    args = tuple(np.moveaxis(points.drawn, 1, 0))
    zeros = (np.zeros(alg.dim, dtype=alg.dtype),) * (len(args) - 2)
    controls = [run[4] for run in runs]
    main = np.array(_phis(controls, args)).reshape(len(runs), samples)
    side = np.array(_phis(controls, (*args[:2], *zeros))).reshape(len(runs), samples)
    phi = np.stack([main, side, side, side], axis=-1).reshape(-1, 1, 4)
    at = {}  # one evaluation per distinct map and input: g, h and k may be one map
    for run in runs:
        for m, xs in zip(run[:4], (points.f_input,) + (points.shared_input,) * 3):
            if (m, id(xs)) not in at:
                at[m, id(xs)] = m.evaluate_stack(xs).reshape(samples, 5 + len(lams), m.out_dim)
    f_at, g_at, h_at, k_at = (
        _joined([at[run[n], id(points.f_input if n == 0 else points.shared_input)]
                 for run in runs])
        for n in range(4))
    at.clear()  # joined above, when there are several runs
    bracket_sum = (
        signs.s1 * _bracket(mod, f_at[:, 2], h_at[:, 3], k_at[:, 4], g_at[:, 4])
        + signs.s2 * _bracket(mod, f_at[:, 3], h_at[:, 2], k_at[:, 4], g_at[:, 4])
        + signs.s3 * _bracket(mod, f_at[:, 4], h_at[:, 3], k_at[:, 2], g_at[:, 2])
    )
    defects = [at[:, 5:] - lam_col * at[:, :1] - lam_col * at[:, 1:2]
               for at in (f_at, g_at, h_at, k_at)]
    res = np.stack([mod.norms_of(defects[0] - bracket_sum[:, None])]
                   + [alg.norms_of(defect) for defect in defects[1:]], axis=-1)
    slack = phi - res
    # per run, the first strict minimum in C order, as a running minimum
    # finds it: a NaN slack is never one, and the appended inf stands for
    # none at all
    ranked = np.where(np.isnan(slack), np.inf, slack).reshape(len(runs), -1)
    ranked = np.concatenate([ranked, np.full((len(runs), 1), np.inf)], axis=1)
    firsts = np.argmin(ranked, axis=1).tolist()
    maxima = np.fmax.reduce(res.reshape(len(runs), -1), axis=1, initial=0.0).tolist()
    violations = np.count_nonzero((slack < -1e-12 * (1.0 + phi)).reshape(len(runs), -1),
                                  axis=1).tolist()
    reports = []
    for run, first in enumerate(firsts):
        least = float(ranked[run, first])
        worst = None
        if least < np.inf:
            index, j, which = np.unravel_index(first, (samples, len(lams), 4))
            row = run * samples + index
            worst = {
                "inequality": ("main", "g", "h", "k")[which],
                "sample": int(index),
                "lambda": [float(np.real(lams[j])), float(np.imag(lams[j]))],
                "residual": float(res[row, j, which]),
                "phi": float(phi[row, 0, which]),
                "slack": least,
            }
        reports.append(HypothesisReport(
            mode=mode,
            tuples_checked=samples,
            lambda_count=len(lams),
            max_residual=maxima[run],
            min_slack=least,
            violations=violations[run],
            worst=worst,
        ))
    return reports


@dataclass
class StabilizationReport:
    """Everything a stabilization run measured.

    A check with a zero count (``bound_points``, ``identity_triples`` or
    ``linearity_points``) checked nothing and so does not pass.
    """

    derivation: LinearMap
    sigma: LinearMap
    tau: LinearMap
    xi: LinearMap
    mode: str
    tol: float
    identity_tol: float
    iterations: dict
    traces: dict
    convergence_rates: dict
    phi_tilde_values: list
    max_bound_violation: float
    bound_points: int
    max_identity_residual: float
    identity_triples: int
    linearity_max: float
    linearity_points: int
    failures: list = field(default_factory=list)
    hypothesis: HypothesisReport | None = None

    @property
    def bounds_ok(self) -> bool:
        return self.bound_points > 0 and self.max_bound_violation <= 0.0

    @property
    def identity_ok(self) -> bool:
        return self.identity_triples > 0 and self.max_identity_residual <= self.identity_tol

    @property
    def linearity_ok(self) -> bool:
        return self.linearity_points > 0 and self.linearity_max <= 10.0 * self.tol

    @property
    def converged(self) -> bool:
        return not self.failures

    @property
    def all_passed(self) -> bool:
        return self.bounds_ok and self.identity_ok and self.linearity_ok and self.converged


def _rate_estimate(rows) -> float | None:
    """Median successive-error ratio over iterations ``3.._RATE_ROWS`` of a trace."""
    by_basis: dict = {}
    for basis_index, n, err, _tail in rows:
        if 3 <= n <= _RATE_ROWS:
            by_basis.setdefault(basis_index, {})[n] = err
    ratios = []
    for errs in by_basis.values():
        for n in range(3, _RATE_ROWS):
            if n in errs and (n + 1) in errs and errs[n] > 0:
                ratios.append(errs[n + 1] / errs[n])
    return statistics.median(ratios) if ratios else None


def direct_method_stabilize(
    f: EvaluableMap,
    g: EvaluableMap,
    h: EvaluableMap,
    k: EvaluableMap,
    control: ControlFunction,
    mod: TernaryModule,
    signs: SignConvention = LIE_SIGNS,
    tol: float = 1e-10,
    mode: str = "lie",
    max_iter: int = ITERATION_CAP,
    seed: int = 0,
    bound_points: int = 100,
    identity_triples: int = 100,
    linearity_points: int = 5,
    identity_tol: float = _IDENTITY_TOL,
    keep_traces: bool = True,
) -> StabilizationReport:
    """Recover ``(D, sigma, tau, xi)`` from ``(f, g, h, k)`` and verify them.

    Runs the doubling iteration of :func:`hyers_limit` at every basis vector
    of the algebra for each of the four maps and assembles the limits into
    matrices.  The a-priori stop depends on the control, ``tol`` and ``x``,
    not on the map, so one ray layout of the basis and the linearity
    points, built before any map is evaluated, serves all four maps: its
    stops, the rows read and one stack of scaled points (see
    :func:`_ray_layout`).  Every bound comes from the control's ratio ``L``
    and one value of ``phi`` per ray, or per bound point: each distinct
    ``h = phi(x, x, 0, ...) / 2`` is searched once per run (the unit
    vectors of a power control share one search), and its traced tail
    bounds are computed once.  The traced rows'
    ``basis_index``, ``n`` and ``tail_bound`` columns come from that layout
    too, so the four maps' traces share them unless a basis ray failed, and
    ``convergence_rates`` reads only the rows ``3 <= n <= 10``.  Each
    distinct map object is evaluated once on that stack, at the bound points
    and at zero for the ``f(0)`` check: names that share an object and an
    output norm share its outcomes, recovered matrix and gaps, while
    failures and traces stay per name.  A ray with a row that is not finite
    is evaluated again, whole, and fails as it would alone.  A count,
    ``max_iter`` or ``seed`` that is not a nonnegative integer, a ``tol``
    that is not finite and positive, an ``identity_tol`` that is not finite
    and nonnegative, or a ``mode`` other than ``lie`` and ``jordan`` raises
    ``ValueError``, and a custom control that breaks its declared ratio at
    a ray or a bound point :class:`DivergentControlError`, before any map is
    evaluated.  Then:

    * linearity: at seeded non-basis points the recovered matrix must agree
      with a fresh limit to ``10 * tol``; the first failure, in point order
      and then map order, is raised.  The points are drawn and evaluated
      even when a basis vector failed, and their outcomes then dropped;
    * distance bounds: each original map must stay within the majorant
      ``phi(x, x, 0, ...) / (2 (1 - L))`` of its recovered limit at seeded
      points;
    * derivation identity: the recovered maps must satisfy the twisted
      derivation identity (diagonal only in ``jordan`` mode) with residual
      at most ``identity_tol * (1 + |a||b||c|)``.

    A NaN gap makes ``max_bound_violation`` or ``linearity_max`` NaN, and
    that check fails.  Per-basis convergence failures are recorded and mark
    the report as partial instead of aborting the remaining work.  ``traces`` holds every
    doubling of every basis vector, or with ``keep_traces`` false only the
    rows ``n <= 10`` that ``convergence_rates`` reads.  The seeded points
    of the three checks are drawn by :func:`_check_points`, each group in
    one call.
    """
    outcome, = _stabilize([((f, g, h, k), control, tol)], mod, signs, mode, max_iter, seed,
                          bound_points, identity_triples, linearity_points, identity_tol,
                          keep_traces)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _stabilize(runs, mod: TernaryModule, signs: SignConvention, mode: str, max_iter: int,
               seed: int, bound_points: int, identity_triples: int, linearity_points: int,
               identity_tol: float = _IDENTITY_TOL, keep_traces: bool = True,
               points: _CheckPoints | None = None) -> list:
    """:func:`direct_method_stabilize` of each ``((f, g, h, k), control,
    tol)`` of ``runs``, all on one draw of the points.

    Returns, per run, its report or the :class:`DivergentControlError` or
    :class:`NonConvergenceError` that its own call raises; the ``f(0)``
    check raises as the first run's would.  Each run has its own layout,
    stop searches and map evaluations, and ``phi`` comes from
    :func:`_phis`, so equal norms are taken once.  The limits of all runs'
    maps of one output norm (see :func:`_stacked_limits`), the norms of the
    linearity and bound gaps and the identity residuals at the shared
    triples each run once, and each run reads its own segment.
    """
    for _, _, tol in runs:
        _check_arguments(positive=("tol",), tol=tol, identity_tol=identity_tol, mode=mode,
                         max_iter=max_iter, seed=seed, bound_points=bound_points,
                         identity_triples=identity_triples, linearity_points=linearity_points)
    alg = mod.algebra
    if points is None:
        points = _check_points(alg, seed, linearity_points, bound_points, identity_triples,
                               mode)
    xs, bounds = points.linearity, points.bounds
    controls = [control for _, control, _ in runs]
    # the basis rays, traced, then the linearity rays: one layout for the four maps of a run
    rays = np.concatenate([alg.basis(), xs])
    zeros = (np.zeros(alg.dim, dtype=alg.dtype),) * (controls[0].arity - 2)
    traced = [True] * alg.dim + [False] * len(xs)
    outcomes, layouts, majorants, named = [None] * len(runs), {}, {}, {}
    for at, (run, heads, phi) in enumerate(zip(runs, _heads(controls, rays),
                                               _phis(controls, (bounds, bounds, *zeros), True))):
        maps, control, tol = run
        outcomes[at] = next((v for v in (heads, phi) if isinstance(v, DivergentControlError)),
                            None)
        if outcomes[at] is not None:
            continue
        layouts[at] = _ray_layout(control, rays, tol, max_iter, traced,
                                  None if keep_traces else _RATE_ROWS, heads)
        majorants[at] = (phi / (2.0 * (1.0 - control.ratio))).tolist()
        named[at] = tuple(zip("fghk", maps, (mod.norm_of,) + (alg.norm_of,) * 3))
        for m in dict.fromkeys(maps):
            if not l2_norm(m(np.zeros(m.in_dim, dtype=alg.dtype))) <= 1e-12:
                raise ValueError(f"{'fghk'[maps.index(m)]}(0) != 0; the direct method requires it")
    # per run, each distinct map with its output norm: names that share
    # both share its outcomes, recovered matrix and gaps
    keys = {at: [(at, m, out_norm) for m, out_norm in
                 dict.fromkeys((m, out_norm) for _, m, out_norm in maps)]
            for at, maps in named.items()}
    by_norm, limits, recovered, fresh = {}, {}, {}, {}
    for key in (key for mine in keys.values() for key in mine):
        by_norm.setdefault(key[2], []).append(key)
    for out_norm, group in by_norm.items():
        found = _stacked_limits([(m, layouts[at]) for at, m, _ in group], out_norm)
        for (at, m, out_norm), (outcomes_of, rows) in zip(group, found):
            basis, fresh[at, m, out_norm] = outcomes_of[: alg.dim], outcomes_of[alg.dim :]
            failed = [(i, o) for i, o in enumerate(basis) if isinstance(o, NonConvergenceError)]
            # a basis vector whose limit fails gets a zero column
            for i, o in failed:
                basis[i] = np.zeros(m.out_dim, dtype=alg.dtype), o.iterations or 0
            recovered[at, m, out_norm] = LinearMap(np.column_stack([col for col, _ in basis]))
            limits[at, m, out_norm] = rows, failed, [n for _, n in basis]

    # linearity: in a run whose basis converged, the first failure in point
    # order, then map order; a name that repeats a map repeats its outcomes
    gaps = {}
    for at, maps in named.items():
        if any(limits[at, m, out_norm][1] for _, m, out_norm in maps):
            continue
        found = (o for by_map in zip(*(fresh[key] for key in keys[at])) for o in by_map)
        outcomes[at] = next((o for o in found if isinstance(o, NonConvergenceError)), None)
        if outcomes[at] is None:
            gaps[at] = [(key[2], recovered[key].apply(xs) - np.reshape(
                [value for value, _ in fresh[key]], (-1, key[1].out_dim))) for key in keys[at]]
    linearity = {at: np.max(norms, initial=0.0) for at, norms in _split_norms(gaps).items()}
    live = [at for at in named if outcomes[at] is None]
    gaps = {at: [(key[2], key[1].evaluate_stack(bounds) - recovered[key].apply(bounds))
                 for key in keys[at]] for at in live}
    violations = {at: np.max(np.subtract(norms, majorants[at])) if bound_points else 0.0
                  for at, norms in _split_norms(gaps).items()}
    identity = []
    if live:
        a, b, c = points.identity
        twists = [[recovered[at, m, out_norm] for _, m, out_norm in named[at]] for at in live]
        res = mod.norms_of(_residuals(mod, twists, a, b, c, signs)).reshape(len(live), len(a))
        scale = 1.0 + alg.norms_of(a) * alg.norms_of(b) * alg.norms_of(c)
        identity = np.max(res / scale, axis=1, initial=0.0).tolist()

    for at, max_identity in zip(live, identity):
        layout, rates = layouts[at], {}
        for _, m, out_norm in named[at]:
            # a trace as long as the layout's columns has all of their rows;
            # a ray cut short by a row that is not finite leaves a shorter one
            rows = limits[at, m, out_norm][0]
            if (m, out_norm) not in rates:
                rates[m, out_norm] = _rate_estimate([rows[j] for j in layout.rated] if len(rows)
                                                    == len(layout.current) else rows)
        deriv, sigma, tau, xi = (recovered[at, m, out_norm] for _, m, out_norm in named[at])
        outcomes[at] = StabilizationReport(
            derivation=deriv,
            sigma=sigma,
            tau=tau,
            xi=xi,
            mode=mode,
            tol=float(runs[at][2]),
            identity_tol=float(identity_tol),
            iterations={name: list(limits[at, m, o][2]) for name, m, o in named[at]},
            traces={name: list(limits[at, m, o][0]) for name, m, o in named[at]},
            convergence_rates={name: rates[m, o] for name, m, o in named[at]},
            phi_tilde_values=majorants[at],
            max_bound_violation=float(violations[at]),
            bound_points=bound_points,
            max_identity_residual=float(max_identity),
            identity_triples=identity_triples,
            linearity_max=float(linearity.get(at, 0.0)),
            linearity_points=linearity_points,
            failures=[{"map": name, "basis_index": i, "code": o.code, "message": str(o)}
                      for name, m, out_norm in named[at] for i, o in limits[at, m, out_norm][1]],
        )
    return outcomes


def _split_norms(gaps: dict) -> dict:
    """Per run, the norms of its ``(out_norm, rows)`` gaps, in order: the
    rows of each output norm stacked over all runs and normed in one call."""
    grouped = {}
    for at, pairs in gaps.items():
        for j, (out_norm, rows) in enumerate(pairs):
            grouped.setdefault(out_norm, []).append((at, j, rows))
    norms = {at: [None] * len(pairs) for at, pairs in gaps.items()}
    for out_norm, members in grouped.items():
        found, end = _norms_with(out_norm, _joined([rows for _, _, rows in members])), 0
        for at, j, rows in members:
            norms[at][j], end = found[end : end + len(rows)], end + len(rows)
    return norms

