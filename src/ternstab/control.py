"""Control functions and the closed-form bounds of their damped series.

A control function bounds the defect of an approximate derivation.  The
power family is ``theta * sum_i |arg_i|**p`` with ``p in [0, 1)``; the zero
vector contributes zero to the sum for every ``p``, including ``p = 0``.
Every control has a ratio ``L`` in [0, 1) with ``phi(2 args) <= 2 L
phi(args)`` (Cadariu and Radu, J. Inequal. Pure Appl. Math. 4(1), 2003):
``L = 2**(p-1)`` for the power family, declared by a custom control.  Then
the damped majorant ``(1/2) sum_n 2**(-n) phi(2**n args)`` is at most
``phi(args) / (2 (1 - L))``, and its tail from step ``q`` on the ray ``(x,
x, 0, ...)`` at most ``h L**q / (1 - L)`` with ``h = phi(x, x, 0, ...) /
2``; for the power family both are exact sums.  A custom control is checked
against its ``L`` at the arguments each bound is taken at, which can refute
a declared ``L`` but never prove it (:func:`_checked_phi`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DivergentControlError
from .algebra import _choice, _finite, _norms_with


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
    ratio: float | None = None

    def __post_init__(self):
        """Check the arguments; a power control's ratio is ``2**(p-1)``, a
        custom control's must be given, finite and in [0, 1)."""
        _choice("kind", self.kind, ("power", "custom"))
        _choice("arity", self.arity, (3, 5))
        if self.kind == "power":
            _check_power_law(self.theta, self.p)
            object.__setattr__(self, "ratio", 2.0 ** (self.p - 1.0))
            return
        if self.fn is None:
            raise ValueError("custom control needs an evaluator")
        if isinstance(self.ratio, bool) or not (_finite(self.ratio) and 0.0 <= self.ratio < 1.0):
            raise ValueError(f"ratio must lie in [0, 1), got {self.ratio!r}")

    def evaluate(self, *args):
        """``phi(*args)``, or one value per row of ``(N, d)`` stacks (single
        vectors broadcast), each bitwise the row's value alone: a power control
        takes the norms of each dtype's arguments in one call, each argument
        object once, leaving out the arguments that are zero throughout, and
        sums ``|arg|**p`` per row in argument order as Python floats."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        stacked = any(np.ndim(a) > 1 for a in args)
        if self.kind == "custom":
            rows = zip(*np.broadcast_arrays(*args)) if stacked else [args]
            values = [float(self.fn(*row)) for row in rows]
            # inf passes: the ratio check reports it as divergent
            if not all(val >= 0.0 for val in values):
                raise ValueError("custom control returned a negative or NaN value")
            return np.array(values) if stacked else values[0]
        rows = np.broadcast_arrays(*args) if stacked else [np.reshape(a, (1, -1)) for a in args]
        # an argument passed twice, such as x in phi(x, x, 0, ...), is normed
        # once, and a zero argument, such as its zero slots, adds nothing for
        # any p
        ids = [id(a) for a in args]
        first = [ids.index(i) for i in ids]
        distinct = [i for i in dict.fromkeys(first) if np.any(args[i])]
        if not distinct:
            return np.zeros(len(rows[0])) if stacked else 0.0
        norms: dict = {}
        for key in dict.fromkeys((rows[i].dtype, rows[i].shape) for i in distinct):
            where = [i for i in distinct if (rows[i].dtype, rows[i].shape) == key]
            found = _norms_with(self.norm, np.stack([rows[i] for i in where]))
            norms.update(zip(where, found.tolist()))
        values = []
        for row in zip(*(norms[i] for i in first if i in norms)):
            total = 0.0
            for nv in row:
                if nv > 0.0:
                    total += nv**self.p
            values.append(self.theta * total)
        return np.array(values) if stacked else values[0]

    __call__ = evaluate


def power_control(theta: float, p: float, arity: int = 5, norm=None) -> ControlFunction:
    return ControlFunction(kind="power", arity=arity, theta=theta, p=p, norm=norm)


def custom_control(fn, arity: int = 5, norm=None, *, ratio: float) -> ControlFunction:
    """The control ``fn(*args)`` with the declared ratio ``L``: ``fn(2 args)
    <= 2 L fn(args)`` must hold at every ``args``."""
    return ControlFunction(kind="custom", arity=arity, fn=fn, norm=norm, ratio=ratio)


def _checked_phi(control: ControlFunction, args):
    """``control.evaluate(*args)``, one value per row of stacked ``args``.

    A custom control is evaluated at ``2 args`` too, and raises
    :class:`DivergentControlError` unless every value is finite and
    ``phi(2 args) <= 2 L phi(args) (1 + 1e-12)``; the power family meets its
    ratio by construction and is evaluated once.
    """
    values = control.evaluate(*args)
    if control.kind == "custom":
        with np.errstate(over="ignore"):
            doubled = control.evaluate(*(np.multiply(2.0, a) for a in args))
        if not (np.all(np.isfinite(values))
                and np.all(doubled <= 2.0 * control.ratio * values * (1.0 + 1e-12))):
            raise DivergentControlError(f"control breaks its declared ratio {control.ratio!r}: "
                                        "phi is not finite, or phi(2 args) > 2 L phi(args)")
    return values


def _tail(control: ControlFunction, h: float, q) -> float:
    """The Cauchy tail bound ``h L**q / (1 - L)`` at step ``q`` of a ray with
    ``h = phi(x, x, 0, ...) / 2``; the power family's ``L**q`` is ``2**(q
    (p-1))``."""
    decay = 2.0 ** (q * (control.p - 1.0)) if control.kind == "power" else control.ratio**q
    return h * decay / (1.0 - control.ratio)


def summed_majorant(control: ControlFunction, args):
    """The damped majorant ``(1/2) sum_n 2**(-n) phi(2**n args)``, bounded
    by ``phi(args) / (2 (1 - L))`` (the exact sum for a power control).
    Stacked ``args`` give one value per row.  A custom control that breaks
    its ratio at ``args`` raises :class:`DivergentControlError`."""
    return _checked_phi(control, [np.asarray(a) for a in args]) / (2.0 * (1.0 - control.ratio))


def cauchy_tail_bound(control: ControlFunction, x, q):
    """Tail majorant ``sum_{k>=q} (1/2) 2**(-k) phi(2**k x, 2**k x, 0, ...)``.

    Bounds the distance between the scaled iterates at steps ``q`` and any
    later step, hence the distance to the limit, by ``h L**q / (1 - L)``
    with ``h = phi(x, x, 0, ...) / 2`` (see :func:`_tail`): for a power
    control ``theta |x|**p 2**(q(p-1)) / (1 - 2**(p-1))``.  ``q`` may be
    one step or a sequence of steps; the result is then a list with one
    bound per entry.  A custom control that breaks its ratio at ``(x, x,
    0, ...)`` raises :class:`DivergentControlError`.
    """
    many = isinstance(q, Iterable)
    qs = list(q) if many else [q]
    if any(k < 0 for k in qs):
        raise ValueError("q must be nonnegative")
    x = np.asarray(x)
    h = _checked_phi(control, (x, x) + (np.zeros_like(x),) * (control.arity - 2)) / 2.0
    bounds = [_tail(control, h, k) for k in qs]
    return bounds if many else bounds[0]
