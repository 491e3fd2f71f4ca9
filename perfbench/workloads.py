"""The benchmark's workloads: generated inputs, one op, and its output checks.

Each workload draws every config seed, perturbation seed and checker seed
from the workload seed and builds its inputs once, before the first op.  An
op is one pass over the workload's fixed mix.  ``check`` raises
:class:`CheckFailed` when an op's output is wrong, so that the op counts as
failed.  ``smoke`` shrinks every input to a minimal size for the
benchmark's own tests.

The library is always reached through module attributes (``harness.run_experiment``
and so on), so that the traced run can wrap those functions in place.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path

from ternstab import algebra, harness, module

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "configs"

#: stopping ``n`` of the a-priori rule for theta = 0.1, tol = 1e-10 and unit
#: basis vectors, as reported in each sweep row's ``max_iterations``
SWEEP_ITERATIONS = {
    0.1: 35, 0.2: 39, 0.3: 45, 0.4: 53, 0.5: 64, 0.6: 80, 0.7: 108, 0.8: 165, 0.9: 338,
}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _shipped(name: str) -> dict:
    return json.loads((SHIPPED / f"{name}.json").read_text())


def _reseeded(raw: dict, rng: random.Random) -> dict:
    """A copy of ``raw`` with a fresh config seed and perturbation seeds."""
    cfg = copy.deepcopy(raw)
    cfg["seed"] = _draw_seed(rng)
    for spec in cfg["perturbation"].values():
        spec["seed"] = _draw_seed(rng)
    cfg.pop("out", None)
    return cfg


def _report_digest(path: Path) -> str:
    """sha256 of ``report.json`` with its timestamp line removed."""
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.lstrip().startswith(b'"timestamp"'))
    return hashlib.sha256(kept).hexdigest()


class Experiments:
    """``run_experiment`` on a list of generated configs, reports written to disk."""

    def __init__(self, configs: dict, scratch: Path, time_limit: float):
        self.configs = {name: harness.load_config(raw) for name, raw in configs.items()}
        self.scratch = scratch
        self.time_limit = time_limit
        self.digests: dict = {}

    def op(self):
        return {
            name: harness.run_experiment(cfg, out_dir=self.scratch / name)
            for name, cfg in self.configs.items()
        }

    def check(self, results) -> None:
        for name, result in results.items():
            if not result.all_passed:
                raise CheckFailed(f"{name}: all_passed is false, errors {result.report['errors']}")
            cfg = result.config
            worst = max(result.report["recovered"]["truth_error"].values())
            if worst > 10 * cfg.tol:
                raise CheckFailed(f"{name}: truth_error {worst:.3e} > 10 * tol")
            digest = _report_digest(result.report_path)
            if self.digests.setdefault(name, digest) != digest:
                raise CheckFailed(f"{name}: report.json differs from the run's first op")

    @staticmethod
    def findings(results) -> dict:
        return {
            "hypothesis_violations": sum(
                r.report["hypothesis"]["violations"] for r in results.values()
            )
        }


def bundled(seed: int, smoke: bool, scratch: Path) -> Experiments:
    rng = random.Random(seed)
    names = ("oddpoly3_p05", "trivial2x2_p05", "oddpoly3_jordan")
    return Experiments({n: _reseeded(_shipped(n), rng) for n in names}, scratch, 20.0)


def large_d(seed: int, smoke: bool, scratch: Path) -> Experiments:
    rng = random.Random(seed)
    base = _shipped("trivial2x2_p05")
    algebras = {
        "trivial_m3_real": {"builder": "trivial-matrix", "m": 2 if smoke else 3, "field": "real"},
        "oddpoly13_complex": {"builder": "odd-poly", "cap": 5 if smoke else 13, "field": "complex"},
    }
    configs = {}
    for name, spec in algebras.items():
        cfg = _reseeded(base, rng)
        cfg["algebra"] = spec
        configs[name] = cfg
    return Experiments(configs, scratch, 60.0)


class Sweep:
    """``run_sweep`` over ``p`` on generated configs; writes no files."""

    time_limit = 30.0

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        rng = random.Random(seed)
        spec = "p=0.1:0.5:0.4" if smoke else "p=0.1:0.9:0.1"
        _, self.values = harness.parse_sweep_spec(spec)
        self.configs = {
            n: harness.load_config(_reseeded(_shipped(n), rng))
            for n in ("oddpoly3_p05", "trivial2x2_p05")
        }

    def op(self):
        return {
            name: harness.run_sweep(cfg, "p", self.values) for name, cfg in self.configs.items()
        }

    def check(self, sweeps) -> None:
        for name, rows in sweeps.items():
            for row in rows:
                if not row["all_passed"]:
                    raise CheckFailed(f"{name}: sweep point p={row['value']} did not pass")
                expected = SWEEP_ITERATIONS[round(row["value"], 1)]
                if row["max_iterations"] != expected:
                    raise CheckFailed(
                        f"{name}: p={row['value']} took {row['max_iterations']} "
                        f"iterations, expected {expected}"
                    )

    @staticmethod
    def findings(sweeps) -> dict:
        return {}


class Axioms:
    """The axiom checkers on a sampled d = 16 and an exhaustive d = 9 algebra."""

    time_limit = 60.0
    tol = 1e-9

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        rng = random.Random(seed)
        sampled = algebra.trivial_matrix_algebra(2 if smoke else 4)
        exhaustive = algebra.trivial_matrix_algebra(2 if smoke else 3, "complex")
        self.algebras = (sampled, exhaustive)
        self.modules = (module.self_module(sampled), module.self_module(exhaustive))
        # d**5 exceeds both budgets at d = 16, so both d = 16 checks sample
        self.assoc_budget = 100 if smoke else 200_000
        self.module_budget = 3 if smoke else 200
        self.seeds = [_draw_seed(rng) for _ in range(4)]
        self.first = None

    def op(self):
        s = self.seeds
        return (
            algebra.check_ternary_associativity(
                self.algebras[0], self.tol, budget=self.assoc_budget, seed=s[0]
            ),
            module.check_module_axioms(
                self.modules[0], self.tol, seed=s[1], budget=self.module_budget
            ),
            algebra.check_ternary_associativity(self.algebras[1], self.tol, seed=s[2]),
            module.check_module_axioms(self.modules[1], self.tol, seed=s[3]),
        )

    def check(self, reports) -> None:
        assoc_big, module_big, assoc_small, module_small = reports
        for label, report in zip(("assoc d16", "module d16", "assoc d9", "module d9"), reports):
            if not report.passed:
                raise CheckFailed(f"{label}: trivial-matrix checker verdict failed")
        if assoc_big.exhaustive or assoc_big.checked != self.assoc_budget:
            raise CheckFailed("assoc d16: expected a sampled check of the full budget")
        if module_big.exhaustive or module_big.tuples_checked != self.module_budget:
            raise CheckFailed("module d16: expected a sampled check of the full budget")
        if not (assoc_small.exhaustive and module_small.exhaustive):
            raise CheckFailed("d9 checks: expected exhaustive enumeration")
        if self.first is None:
            self.first = reports
        elif reports != self.first:
            raise CheckFailed("axiom reports differ from the run's first op")

    @staticmethod
    def findings(reports) -> dict:
        return {}


WORKLOADS = {
    "bundled": bundled,
    "psweep": Sweep,
    "large_d": large_d,
    "axioms": Axioms,
}
