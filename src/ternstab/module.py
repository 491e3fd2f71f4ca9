"""Ternary modules over a ternary algebra.

A module ``X`` over ``A`` carries three trilinear products mixing module and
algebra vectors, one per position of the module slot:

* ``[x a b]`` via a tensor of shape ``(dX, dA, dA, dX)``
* ``[a x b]`` via a tensor of shape ``(dA, dX, dA, dX)``
* ``[a b x]`` via a tensor of shape ``(dA, dA, dX, dX)``

The five compatibility chains tie nested module products to the algebra
product; ``check_module_axioms`` measures all of them plus the norm bound
``max(|[xab]|, |[axb]|, |[abx]|) <= |a| |b| |x|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _TUPLE_CHUNK,
    DEFAULT_TUPLE_BUDGET,
    TernaryAlgebra,
    _Plan,
    _Space,
    _check_arguments,
    _law_residuals,
    _random_vector,
    _trilinear,
    dtype_for,
)
from .errors import DimensionMismatch

#: the sampled chain check draws at most this many tuples, whatever the budget
_SAMPLED_CHAIN_CAP = 100_000


@dataclass(frozen=True, eq=False)
class TernaryModule(_Space):
    algebra: TernaryAlgebra
    dim: int
    product_xab: np.ndarray
    product_axb: np.ndarray
    product_abx: np.ndarray
    norm: object = None
    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        _check_arguments(dim=self.dim)
        da, dx = self.algebra.dim, self.dim
        shapes = {
            "product_xab": (dx, da, da, dx),
            "product_axb": (da, dx, da, dx),
            "product_abx": (da, da, dx, dx),
        }
        plans = {}  # keyed by the tensor names of the chain laws below
        for name, shape in shapes.items():
            t = np.asarray(getattr(self, name), dtype=self.dtype)
            if t.shape != shape:
                raise DimensionMismatch(f"{name} has shape {t.shape}, expected {shape}")
            if t is self.algebra.structure:
                # already a frozen, finite copy: shared, with the algebra's plan
                plan = self.algebra._plan
            else:
                if not np.all(np.isfinite(t)):
                    raise ValueError(f"{name} has non-finite entries")
                t = t.copy()
                t.setflags(write=False)
                plan = _Plan.of(t)
            object.__setattr__(self, name, t)
            plans["P" + name[-3:]] = plan
        object.__setattr__(self, "_plans", plans)
        object.__setattr__(self, "flags", frozenset(self.flags))

    @property
    def dtype(self):
        return dtype_for(self.algebra.field)


def self_module(alg: TernaryAlgebra) -> TernaryModule:
    """The algebra acting on itself: all three products are the triple product."""
    t = alg.structure
    return TernaryModule(
        algebra=alg,
        dim=alg.dim,
        product_xab=t,
        product_axb=t,
        product_abx=t,
        norm=alg.norm_of,
        flags=frozenset({"valid"}) if "associative" in alg.flags else frozenset(),
    )


def product_xab(mod: TernaryModule, x, a, b) -> np.ndarray:
    return _trilinear(
        mod._plans["Pxab"], mod.vector(x), mod.algebra.vector(a), mod.algebra.vector(b)
    )


def product_axb(mod: TernaryModule, a, x, b) -> np.ndarray:
    return _trilinear(
        mod._plans["Paxb"], mod.algebra.vector(a), mod.vector(x), mod.algebra.vector(b)
    )


def product_abx(mod: TernaryModule, a, b, x) -> np.ndarray:
    return _trilinear(
        mod._plans["Pabx"], mod.algebra.vector(a), mod.algebra.vector(b), mod.vector(x)
    )


@dataclass(frozen=True)
class ModuleReport:
    chain_residuals: dict
    max_chain_residual: float
    norm_violation: float
    norm_samples: int
    tuples_checked: int
    exhaustive: bool
    tol: float
    passed: bool


# each chain is a law in the format of ``algebra._ASSOC_LAW``, over the
# tuple letters a, b, c, d, x
_CHAINS = {
    "abc_d_x": [
        ("abcq,qdxr->abcdxr", ("TA", "Pabx")),
        ("bcdq,aqxr->abcdxr", ("TA", "Pabx")),
        ("cdxq,abqr->abcdxr", ("Pabx", "Pabx")),
    ],
    "abc_x_d": [
        ("abcq,qxdr->abcdxr", ("TA", "Paxb")),
        ("bcxq,aqdr->abcdxr", ("Pabx", "Paxb")),
        ("cxdq,abqr->abcdxr", ("Paxb", "Pabx")),
    ],
    "xab_c_d": [
        ("xabq,qcdr->abcdxr", ("Pxab", "Pxab")),
        ("abcq,xqdr->abcdxr", ("TA", "Pxab")),
        ("bcdq,xaqr->abcdxr", ("TA", "Pxab")),
    ],
    "axb_c_d": [
        ("axbq,qcdr->abcdxr", ("Paxb", "Pxab")),
        ("xbcq,aqdr->abcdxr", ("Pxab", "Paxb")),
        ("bcdq,axqr->abcdxr", ("TA", "Paxb")),
    ],
    "abx_c_d": [
        ("abxq,qcdr->abcdxr", ("Pabx", "Pxab")),
        ("bxcq,aqdr->abcdxr", ("Paxb", "Paxb")),
        ("xcdq,abqr->abcdxr", ("Pxab", "Pabx")),
    ],
}


def check_module_axioms(
    mod: TernaryModule,
    tol: float,
    samples: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> ModuleReport:
    """Evaluate the five compatibility chains and the norm inequality.

    Chains run over all basis tuples ``(a, b, c, d, x)`` when
    ``dA**4 * dX <= budget``, otherwise over ``min(budget, 100_000)`` seeded
    tuples (the associativity check draws its whole budget).  An exhaustive
    chain whose expressions' first tensors hold at most one nonzero per row,
    as every self-module of a builder's algebra does, joins their nonzeros
    (see ``algebra._law_residuals``); any other walks slices of ``a``.  A
    non-finite chain value gives that chain an infinite residual, which
    fails.  The norm inequality is checked on ``samples`` random tuples; a
    check of no tuple or no sample does not pass.  A ``tol`` that is not
    finite and nonnegative, or a count or ``seed`` that is not a nonnegative
    integer, raises ``ValueError`` before any work.
    """
    _check_arguments(tol=tol, samples=samples, seed=seed, budget=budget)
    alg = mod.algebra
    total = alg.dim**4 * mod.dim
    exhaustive = total <= budget
    if exhaustive:
        tuples_checked, chunks = total, range(alg.dim)
    else:
        rng = np.random.default_rng(seed)
        tuples_checked = min(budget, _SAMPLED_CHAIN_CAP)
        where = np.vstack([rng.integers(0, alg.dim, size=(4, tuples_checked)),
                           rng.integers(0, mod.dim, size=tuples_checked)])
        chunks = (where[:, s:s + _TUPLE_CHUNK] for s in range(0, tuples_checked, _TUPLE_CHUNK))
    found = _law_residuals(_CHAINS, dict(TA=alg._plan, **mod._plans), mod.norms_of, chunks)
    chain_residuals = {name: res for name, (res, _) in found.items()}

    # a, b and x of each sample drawn in turn, evaluated as three stacks
    rng = np.random.default_rng(seed + 1)
    a, b, x = _random_vector(rng, (alg.dim, alg.dim, mod.dim), alg.field, count=samples)
    plans = mod._plans
    products = (_trilinear(plans["Pxab"], x, a, b), _trilinear(plans["Paxb"], a, x, b),
                _trilinear(plans["Pabx"], a, b, x))
    lhs = np.max([mod.norms_of(v) for v in products], axis=0)
    rhs = alg.norms_of(a) * alg.norms_of(b) * mod.norms_of(x)
    violation = float(np.max(lhs - rhs, initial=0.0))

    max_chain = max(chain_residuals.values())
    passed = tuples_checked > 0 and samples > 0 and max_chain <= tol and violation <= tol
    return ModuleReport(
        chain_residuals=chain_residuals,
        max_chain_residual=max_chain,
        norm_violation=violation,
        norm_samples=samples,
        tuples_checked=tuples_checked,
        exhaustive=exhaustive,
        tol=float(tol),
        passed=passed,
    )
