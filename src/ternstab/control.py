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
        if not (_finite(self.ratio) and 0.0 <= self.ratio < 1.0):
            raise ValueError(f"ratio must lie in [0, 1), got {self.ratio!r}")

    def evaluate(self, *args):
        """``phi(*args)``, or one value per row of ``(N, d)`` stacks (single
        vectors broadcast), each bitwise the row's value alone; a power
        control's comes from :func:`_phis`."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        if self.kind == "custom":
            stacked = any(np.ndim(a) > 1 for a in args)
            rows = zip(*np.broadcast_arrays(*args)) if stacked else [args]
            values = [float(self.fn(*row)) for row in rows]
            # inf passes: the ratio check reports it as divergent
            if not all(val >= 0.0 for val in values):
                raise ValueError("custom control returned a negative or NaN value")
            return np.array(values) if stacked else values[0]
        return _phis([self], args)[0]

    __call__ = evaluate


def _norm_rows(norm, args, stacked: bool) -> list:
    """Per row of ``args``, the norms of its arguments in argument order, as
    Python floats: each argument object is normed once, and the arguments
    that are zero throughout are left out, as they add nothing for any
    ``p``; such as ``x`` twice and the zero slots of ``phi(x, x, 0, ...)``."""
    shape = np.broadcast_shapes(*map(np.shape, args)) if stacked else (1, -1)
    ids = [id(a) for a in args]
    first = [ids.index(i) for i in ids]
    distinct = [i for i in dict.fromkeys(first) if np.any(args[i])]
    if not distinct:
        return [()] * shape[0]
    rows = {i: np.reshape(args[i], shape) if not stacked
            else np.broadcast_to(args[i], shape) if np.shape(args[i]) != shape
            else np.asarray(args[i]) for i in distinct}
    norms: dict = {}
    for key in dict.fromkeys((rows[i].dtype, rows[i].shape) for i in distinct):
        where = [i for i in distinct if (rows[i].dtype, rows[i].shape) == key]
        found = _norms_with(norm, np.stack([rows[i] for i in where]))
        norms.update(zip(where, found.tolist()))
    return list(zip(*(norms[i] for i in first if i in norms)))


def _power_sums(rows, p: float) -> list:
    """``sum |arg|**p`` over each row of :func:`_norm_rows`, as Python floats."""
    sums = []
    for row in rows:
        total = 0.0
        for nv in row:
            if nv > 0.0:
                total += nv**p
        sums.append(total)
    return sums


def _phis(controls, args, checked: bool = False) -> list:
    """``control.evaluate(*args)`` for each of ``controls``: a power
    control's is computed here, ``theta`` times the sum of ``|arg|**p`` over
    :func:`_norm_rows` per row, as Python floats; power controls of equal
    norms share one :func:`_norm_rows` of ``args``, and those of equal ``p``
    one sum of powers.  Any other control's is its own call.  With
    ``checked``, each value is :func:`_checked_phi`'s, and a control that
    breaks its ratio gets its :class:`DivergentControlError` in place of its
    values."""
    stacked = any(np.ndim(a) > 1 for a in args)
    rows, sums, out = [], {}, []
    for control in controls:
        if control.kind != "power" or len(args) != control.arity:
            try:
                out.append(_checked_phi(control, args) if checked else control.evaluate(*args))
            except DivergentControlError as exc:
                out.append(exc)
            continue
        at = next((i for i, (norm, _) in enumerate(rows) if norm == control.norm), None)
        if at is None:
            at = len(rows)
            rows.append((control.norm, _norm_rows(control.norm, args, stacked)))
        if (at, control.p) not in sums:
            sums[at, control.p] = _power_sums(rows[at][1], control.p)
        values = [control.theta * total for total in sums[at, control.p]]
        out.append(np.array(values) if stacked else values[0])
    return out


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
