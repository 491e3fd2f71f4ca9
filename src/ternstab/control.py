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

import numpy as np

from .errors import DivergentControlError
from .algebra import _norms_with, l2_norm

#: consecutive non-decreasing terms before the series is declared divergent
_DIVERGENCE_WINDOW = 8
#: trailing ratios that must agree for the geometric tail completion
_RATIO_WINDOW = 5


@dataclass(frozen=True)
class ControlFunction:
    kind: str
    arity: int
    theta: float = 0.0
    p: float = 0.0
    fn: object = None
    norm: object = None

    def __post_init__(self):
        if self.kind not in ("power", "custom"):
            raise ValueError("kind must be 'power' or 'custom'")
        if self.arity not in (3, 5):
            raise ValueError("arity must be 3 or 5")
        if self.kind == "power":
            if not (math.isfinite(self.theta) and self.theta >= 0):
                raise ValueError("theta must be finite and nonnegative")
            if not 0.0 <= self.p < 1.0:
                raise ValueError("p must lie in [0, 1)")
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
        stacked = any(np.ndim(a) > 1 for a in args)
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

    __call__ = evaluate


def power_control(theta: float, p: float, arity: int = 5, norm=None) -> ControlFunction:
    return ControlFunction(kind="power", arity=arity, theta=theta, p=p, norm=norm)


def custom_control(fn, arity: int = 5, norm=None) -> ControlFunction:
    return ControlFunction(kind="custom", arity=arity, fn=fn, norm=norm)


def _series_sum(term_at, tail_tol: float, max_terms: int, complete_tail: bool) -> float:
    """Sum ``term_at(n)`` for n = 0.. with divergence detection.

    ``term_at`` must yield nonnegative floats.  Divergence (a full window of
    non-decreasing terms above ``tail_tol``) raises; otherwise the partial
    sum is returned, plus a geometric tail estimate when ``complete_tail``
    and the trailing term ratios agree.
    """
    total = 0.0
    window: list = []
    terms: list = []
    for n in range(max_terms):
        t = term_at(n)
        if not math.isfinite(t):
            raise DivergentControlError(
                f"series term at n={n} is not finite; control function diverges"
            )
        total += t
        terms.append(t)
        window.append(t)
        if len(window) > _DIVERGENCE_WINDOW:
            window.pop(0)
        if t <= tail_tol:
            return total
        if len(window) == _DIVERGENCE_WINDOW and all(
            window[i + 1] >= window[i] for i in range(_DIVERGENCE_WINDOW - 1)
        ):
            raise DivergentControlError(
                f"series terms non-decreasing over {_DIVERGENCE_WINDOW} steps "
                f"(last term {t:.3e}); control function does not decay"
            )
    if complete_tail and len(terms) > _RATIO_WINDOW:
        ratios = [
            terms[i + 1] / terms[i]
            for i in range(len(terms) - _RATIO_WINDOW - 1, len(terms) - 1)
            if terms[i] > 0.0
        ]
        if len(ratios) == _RATIO_WINDOW:
            mean = sum(ratios) / len(ratios)
            spread = max(ratios) - min(ratios)
            if 0.0 < mean < 1.0 and spread <= 1e-6 * mean:
                total += terms[-1] * mean / (1.0 - mean)
    return total


def summed_majorant(
    control: ControlFunction,
    args,
    tail_tol: float = 1e-14,
    max_terms: int = 256,
    method: str = "auto",
):
    """The damped majorant ``(1/2) sum_n 2**(-n) phi(2**n args)``.

    ``method="auto"`` uses the exact closed form for power controls and
    numeric summation otherwise; ``"numeric"`` forces term-by-term summation
    with geometric tail completion; ``"partial"`` returns the raw truncated
    sum.  Stacked ``args`` give one value per row (numeric sums run per row).
    """
    args = tuple(np.asarray(a) for a in args)
    if len(args) != control.arity:
        raise ValueError(f"expected {control.arity} arguments, got {len(args)}")
    if method not in ("auto", "closed", "numeric", "partial"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "closed"):
        if control.kind == "power":
            denom = 1.0 - 2.0 ** (control.p - 1.0)
            return control.evaluate(*args) / (2.0 * denom)
        if method == "closed":
            raise ValueError("closed form only exists for power controls")
    if any(a.ndim > 1 for a in args):
        return np.array([summed_majorant(control, row, tail_tol, max_terms, method)
                         for row in zip(*np.broadcast_arrays(*args))])

    scaled = [np.array(a, dtype=np.result_type(a.dtype, np.float64)) for a in args]

    def term_at(n):
        # terms are consumed in order; double the arguments in place
        if n > 0:
            for a in scaled:
                a *= 2.0
        return math.ldexp(control.evaluate(*scaled), -(n + 1))

    return _series_sum(term_at, tail_tol, max_terms, complete_tail=method != "partial")


def cauchy_tail_bound(
    control: ControlFunction,
    x,
    q,
    terms: int = 256,
    tail_tol: float = 1e-30,
):
    """Tail majorant ``sum_{k>=q} (1/2) 2**(-k) phi(2**k x, 2**k x, 0, ...)``.

    Bounds the distance between the scaled iterates at steps ``q`` and any
    later step, hence the distance to the limit.  Power controls use the
    closed form ``theta |x|**p 2**(q(p-1)) / (1 - 2**(p-1))``; custom
    controls are summed numerically with the same divergence detection as
    :func:`summed_majorant`.  For power controls ``q`` may also be a
    sequence; the result is then a list with one bound per entry.
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
        return bounds if many else bounds[0]
    if many:
        raise ValueError("a sequence of q needs a power control")

    zeros = tuple(np.zeros_like(x) for _ in range(control.arity - 2))
    scaled = np.array(x * 2.0**q, dtype=np.result_type(x.dtype, np.float64))

    def term_at(n):
        if n > 0:
            np.multiply(scaled, 2.0, out=scaled)
        return math.ldexp(control.evaluate(scaled, scaled, *zeros), -(q + n + 1))

    return _series_sum(term_at, tail_tol, terms, complete_tail=True)
