"""Control functions and their damped majorant series.

A control function bounds the defect of an approximate derivation.  The
power family is ``theta * sum_i |arg_i|**p`` with ``p in [0, 1)``; the zero
vector contributes zero to the sum for every ``p``, including ``p = 0``.
The summed majorant is the damped series

    (1/2) * sum_{n>=0} 2**(-n) * phi(2**n * args)

which for the power family telescopes to the closed form
``theta * sum_i |arg_i|**p / (2 * (1 - 2**(p-1)))``.  Numeric summation adds
a geometric tail estimate once the term ratio stabilizes, and raises
:class:`DivergentControlError` instead of returning a silently truncated
value when terms stop decaying.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DivergentControlError
from .algebra import _choice, _finite, _norms_with, l2_norm

#: consecutive non-decreasing terms before the series is declared divergent
_DIVERGENCE_WINDOW = 8
#: trailing ratios that must agree for the geometric tail completion
_RATIO_WINDOW = 5
#: a majorant series stops at a term at most this, or after this many terms
_MAJORANT_TOL, _MAJORANT_TERMS = 1e-14, 256
#: a tail series stops at a term at most this, or past ``k = 1000``
_TAIL_TOL, _TAIL_TERMS = 1e-30, 1001


def _check_power_law(theta, p) -> None:
    """Raise ValueError unless ``theta |x|**p`` is a power law this package
    handles: ``theta`` finite and nonnegative, ``p`` in [0, 1)."""
    if not (_finite(theta) and theta >= 0):
        raise ValueError(f"theta must be finite and nonnegative, got {theta!r}")
    if not (_finite(p) and 0.0 <= p < 1.0):
        raise ValueError(f"p must lie in [0, 1), got {p!r}")


@dataclass(frozen=True)
class ControlFunction:
    kind: str
    arity: int
    theta: float = 0.0
    p: float = 0.0
    fn: object = None
    norm: object = None

    def __post_init__(self):
        _choice("kind", self.kind, ("power", "custom"))
        _choice("arity", self.arity, (3, 5))
        if self.kind == "power":
            _check_power_law(self.theta, self.p)
        elif self.fn is None:
            raise ValueError("custom control needs an evaluator")

    def norm_of(self, v) -> float:
        return l2_norm(v) if self.norm is None else float(self.norm(v))

    def evaluate(self, *args):
        """``phi(*args)``, or one value per row of ``(N, d)`` stacks (single
        vectors broadcast), each bitwise the row's value alone: a power control
        takes the norms of each dtype's arguments in one call and sums
        ``|arg|**p`` per row in argument order as Python floats."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        return self._evaluate(args, any(np.ndim(a) > 1 for a in args))

    __call__ = evaluate

    def _evaluate(self, args, stacked: bool):
        """``evaluate`` on ``arity`` arguments, told whether they are stacked."""
        if self.kind == "custom":
            rows = zip(*np.broadcast_arrays(*args)) if stacked else [args]
            values = [float(self.fn(*row)) for row in rows]
            # inf passes: the majorant series reports it as divergent
            if not all(val >= 0.0 for val in values):
                raise ValueError("custom control returned a negative or NaN value")
            return np.array(values) if stacked else values[0]
        rows = np.broadcast_arrays(*args) if stacked else [np.reshape(a, (1, -1)) for a in args]
        norms: dict = {}
        for key in dict.fromkeys((a.dtype, a.shape) for a in rows):
            where = [i for i, a in enumerate(rows) if (a.dtype, a.shape) == key]
            found = _norms_with(self.norm, np.stack([rows[i] for i in where]))
            norms.update(zip(where, found.tolist()))
        values = []
        for row in zip(*map(norms.get, range(len(rows)))):
            total = 0.0
            for nv in row:
                if nv > 0.0:
                    total += nv**self.p
            values.append(self.theta * total)
        return np.array(values) if stacked else values[0]


def power_control(theta: float, p: float, arity: int = 5, norm=None) -> ControlFunction:
    return ControlFunction(kind="power", arity=arity, theta=theta, p=p, norm=norm)


def custom_control(fn, arity: int = 5, norm=None) -> ControlFunction:
    return ControlFunction(kind="custom", arity=arity, fn=fn, norm=norm)


def _series(control: ControlFunction, args, tail_tol: float, max_terms: int):
    """The terms ``2**-(n+1) phi(2**n args)`` for n = 0.., with divergence
    detection, and the common ratio of the trailing terms.

    Terms are taken until one is at most ``tail_tol``, or for ``max_terms``
    terms.  Divergence (a full window of non-decreasing terms above
    ``tail_tol``, or a term that is not finite) raises.  The ratio is the
    mean of the last ``_RATIO_WINDOW`` term ratios when they agree and lie
    in (0, 1), else None; ``_rest`` completes the series with it.
    """
    # terms are taken in order; double each distinct argument in place, once
    copies: dict = {}
    scaled = [copies.setdefault(id(a), np.array(a, dtype=np.result_type(a.dtype, np.float64)))
              for a in args]
    stacked = any(a.ndim > 1 for a in scaled)  # the doubling keeps every shape
    terms: list = []
    rising = 0  # non-decreasing steps in a row
    for n in range(max_terms):
        if n > 0:
            for a in copies.values():
                a *= 2.0
        t = math.ldexp(control._evaluate(scaled, stacked), -(n + 1))
        if not math.isfinite(t):
            raise DivergentControlError(
                f"series term at n={n} is not finite; control function diverges"
            )
        rising = rising + 1 if terms and t >= terms[-1] else 0
        terms.append(t)
        if t <= tail_tol:
            break
        if rising == _DIVERGENCE_WINDOW - 1:
            raise DivergentControlError(
                f"series terms non-decreasing over {_DIVERGENCE_WINDOW} steps "
                f"(last term {t:.3e}); control function does not decay"
            )
    if len(terms) > _RATIO_WINDOW:
        ratios = [
            terms[i + 1] / terms[i]
            for i in range(len(terms) - _RATIO_WINDOW - 1, len(terms) - 1)
            if terms[i] > 0.0
        ]
        if len(ratios) == _RATIO_WINDOW:
            mean = sum(ratios) / len(ratios)
            spread = max(ratios) - min(ratios)
            if 0.0 < mean < 1.0 and spread <= 1e-6 * mean:
                return terms, mean
    return terms, None


def _rest(terms: list, rate) -> float:
    """The series past its last term, continued at the common ratio
    ``rate``: a geometric estimate, not a bound; 0.0 without a ratio."""
    return terms[-1] * rate / (1.0 - rate) if rate else 0.0


def summed_majorant(control: ControlFunction, args):
    """The damped majorant ``(1/2) sum_n 2**(-n) phi(2**n args)``.

    Power controls use the exact closed form.  A custom control's series is
    summed until a term is at most ``1e-14`` or for 256 terms, then continued
    at the trailing terms' common ratio (an estimate) unless it ended on such
    a term.  Stacked ``args`` give one value per row.
    """
    args = tuple(np.asarray(a) for a in args)
    if len(args) != control.arity:
        raise ValueError(f"expected {control.arity} arguments, got {len(args)}")
    if control.kind == "power":
        denom = 1.0 - 2.0 ** (control.p - 1.0)
        return control.evaluate(*args) / (2.0 * denom)
    if any(a.ndim > 1 for a in args):
        return np.array([summed_majorant(control, row)
                         for row in zip(*np.broadcast_arrays(*args))])

    terms, rate = _series(control, args, _MAJORANT_TOL, _MAJORANT_TERMS)
    total = 0.0
    for t in terms:
        total += t
    if terms[-1] <= _MAJORANT_TOL:  # nothing is added past the tolerance
        rate = None
    return total + _rest(terms, rate)


def cauchy_tail_bound(control: ControlFunction, x, q):
    """Tail majorant ``sum_{k>=q} (1/2) 2**(-k) phi(2**k x, 2**k x, 0, ...)``.

    Bounds the distance between the scaled iterates at steps ``q`` and any
    later step, hence the distance to the limit.  ``q`` may be one step or
    a sequence of steps; the result is then a list with one bound per
    entry.  Power controls use the closed form ``theta |x|**p 2**(q(p-1)) /
    (1 - 2**(p-1))``.  A custom control's series is summed once per call,
    from ``k = 0``, with the divergence detection of
    :func:`summed_majorant`, for ``k <= 1000`` (the rows the direct method
    reaches) and while ``2**k x`` stays below ``2**1000``, or until a term
    is at most ``1e-30``; every ``q`` is read from its suffix sums.  The
    rest past the last term summed, also past a term at most ``1e-30``, is
    a geometric estimate, not a bound: the series continued at the common
    ratio of the trailing terms, for every later ``q`` too, or 0.0 when
    their ratios do not agree.
    """
    many = isinstance(q, Iterable)
    qs = list(q) if many else [q]
    if any(k < 0 for k in qs):
        raise ValueError("q must be nonnegative")
    x = np.asarray(x)
    if control.kind == "power":
        nx = control.norm_of(x)
        if nx == 0.0 or control.theta == 0.0:
            bounds = [0.0] * len(qs)
        else:
            denom = 1.0 - 2.0 ** (control.p - 1.0)
            bounds = [
                control.theta * nx**control.p * 2.0 ** (k * (control.p - 1.0)) / denom
                for k in qs
            ]
    else:
        # 2**k max |x_i| < 2**1000 while k <= 1000 - e, where max |x_i| < 2**e
        _, e = math.frexp(float(np.max(np.abs([x.real, x.imag]), initial=0.0)))
        zeros = (np.zeros_like(x),) * (control.arity - 2)
        found, rate = _series(control, (x, x, *zeros), _TAIL_TOL, min(_TAIL_TERMS, 1001 - e))
        # a term below the tolerance ends the sum, not the series: its rest
        # is completed at the trailing ratio, as past the last term
        rest = _rest(found, rate)
        suffix = list(accumulate(reversed(found), initial=rest))[::-1]
        bounds = [suffix[k] if k <= len(found) else rest * (rate or 0.0) ** (k - len(found))
                  for k in qs]
    return bounds if many else bounds[0]
