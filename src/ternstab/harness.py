"""Experiment harness: ground-truth construction, perturbation, end-to-end
runs and parameter sweeps.

An experiment solves for an exact twisted derivation on a configured
algebra, perturbs it (and the twist maps) by a controlled amount, then runs
the direct method and verifies that the originals are recovered within the
guaranteed bounds.  Everything is seeded; identical configs produce
byte-identical reports up to the timestamp field.
"""

from __future__ import annotations

import copy
import datetime
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .algebra import (
    _TUPLE_CHUNK,
    COMPLEX,
    TernaryAlgebra,
    _check_arguments,
    _choice,
    _norms_with,
    odd_polynomial_algebra,
    trivial_matrix_algebra,
)
from .control import ControlFunction, _check_power_law
from .errors import ConfigError, DimensionMismatch, EmptyDerivationSpaceError
from .maps import LinearMap, SignConvention, _check_twist_maps, solve_exact_derivations
from .module import self_module
from .serialize import (
    _checked,
    _csv_text,
    _integer,
    _number,
    _trace_texts,
    _typed,
    _write_text,
    algebra_from_json,
    control_from_json,
    linear_map_from_json,
    linear_map_to_json,
    read_json,
    write_json,
    write_trace_csv,
)
from .stability import (
    _RATE_ROWS,
    EvaluableMap,
    StabilizationReport,
    _check_points,
    _hypothesis_points,
    _lambda_grid,
)
# the stacked cores, under the public names: the traced benchmark wraps them here
from .stability import _check_hypotheses as check_hypothesis
from .stability import _stabilize as direct_method_stabilize

MAP_NAMES = ("f", "g", "h", "k")
_DIRECTIONS = ("fixed", "hash")


def thread_count() -> int:
    """A sweep runs its points on the calling thread, so always 1.

    Nothing in the library calls this; the benchmark's tracer reads it for a
    sweep span's worker count, and it goes when that tracer stops doing so.
    """
    return 1


@dataclass(frozen=True)
class PerturbationSpec:
    """Defect added around a linear map: ``|b(x)| = theta |x|**p`` exactly.

    ``direction`` is either ``fixed`` (one unit vector for every point,
    ``vector`` normalized, defaulting to all-ones) or ``hash`` (a
    deterministic pseudo-random unit vector, a pure function of the seed and
    the input coordinates rounded to 9 decimals, so evaluation stays pure;
    see :func:`_hash_units`).  A ``vector`` must be a nonzero list of finite
    numbers; its length is checked against the map by :func:`perturb_map`.
    """

    theta: float
    p: float
    direction: str = "fixed"
    vector: object = None
    seed: int = 0

    def __post_init__(self):
        _check_power_law(self.theta, self.p)
        _choice("direction", self.direction, _DIRECTIONS)
        if self.vector is not None:
            try:
                vector = np.asarray(self.vector)
                ok = vector.ndim == 1 and np.isfinite(vector).all() and vector.any()
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"vector must be a nonzero list of finite numbers, "
                                 f"got {self.vector!r}")


def _hash_units(seed: int, xs: np.ndarray, out_dim: int, complex_out: bool, out_norm):
    """Counter-based unit directions, one per row of ``xs``, each a pure
    function of (seed, the row's coordinates rounded to 9 decimals).

    The splitmix64 finaliser ``mix`` folds a row's float64 lanes, one after
    another, into a key that starts at ``seed mod 2**64``.  Output
    coordinate ``c`` (real and imaginary parts counted apart) is
    ``mix(key + c * 0x9E3779B97F4A7C15)``, whose top 53 bits map onto
    [-1, 1).  The rows are then normalized by ``out_norm``.
    """
    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    # + 0.0 turns -0.0 into 0.0, so rows that round to one point share a key
    flat = np.round(np.ascontiguousarray(xs, dtype=np.complex128).view(np.float64), 9) + 0.0
    key = np.full(len(flat), seed % 2**64, dtype=np.uint64)
    for lane in flat.view(np.uint64).T:
        key = mix(key ^ lane)
    counters = np.arange(2 * out_dim if complex_out else out_dim, dtype=np.uint64)
    units = (mix(key[:, None] + counters * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11))
    units = units * 2.0**-52 - 1.0
    if complex_out:
        units = units.view(np.complex128)
    sizes = _norms_with(out_norm, units)
    if not sizes.all():
        units = np.where(sizes[:, None] == 0.0, 1.0, units)
        sizes = _norms_with(out_norm, units)
    return units / sizes[:, None]


def _fixed_unit(base: LinearMap, spec: PerturbationSpec, out_norm):
    """The unit vector of a ``fixed`` direction, None for a ``hash`` one."""
    if spec.direction != "fixed":
        return None
    raw = (
        np.ones(base.out_dim, dtype=base.matrix.dtype)
        if spec.vector is None
        else np.asarray(spec.vector, dtype=base.matrix.dtype)
    )
    if raw.shape != (base.out_dim,):
        raise DimensionMismatch(
            f"fixed direction has shape {raw.shape}, expected ({base.out_dim},)"
        )
    return raw / float(_norms_with(out_norm, raw))


def _parts_at(base: LinearMap, spec: PerturbationSpec, xs, in_norm, out_norm,
              fixed_unit) -> tuple:
    """What the perturbed map reads at the rows of ``xs`` besides ``theta``
    and ``p``: ``base(xs)``, the indexes of the rows with a nonzero ``|x|``,
    those ``|x|`` as a tuple of Python floats, and their unit directions,
    the arrays read-only."""
    sizes = _norms_with(in_norm, xs)
    moved = np.flatnonzero(sizes)
    unit = fixed_unit
    if unit is None and len(moved):
        unit = _hash_units(spec.seed, xs[moved], base.out_dim, np.iscomplexobj(base.matrix),
                           out_norm)
    parts = base.apply(xs), moved, tuple(sizes[moved].tolist()), unit
    for array in (parts[0], moved, unit):
        if array is not None:
            array.flags.writeable = False
    return parts


def perturb_map(
    base: LinearMap,
    spec: PerturbationSpec,
    in_norm=None,
    out_norm=None,
    *,
    _parts=(),
) -> EvaluableMap:
    """Evaluator ``x -> base(x) + theta |x|**p u(x)`` with unit ``u``.

    Maps zero to zero, is deterministic under a fixed seed, and realizes the
    perturbation magnitude exactly in the output norm.  The evaluator takes
    one point or an ``(N, d)`` stack; each row of a stack gets exactly the
    value it would get alone.  ``hash`` directions come from
    :func:`_hash_units`.  ``_parts`` pairs stacks with their
    :func:`_parts_at`, computed once for a sweep: at one of those very
    stacks the evaluator adds ``theta |x|**p u(x)``, a Python float power
    per row, to the stored ``base(x)`` instead of computing it all again.
    """
    fixed_unit = _fixed_unit(base, spec, out_norm)

    def evaluate_rows(x):
        known = next((parts for stack, parts in _parts if stack is x), None)
        if known is None and spec.theta == 0.0:
            return base.apply(x)
        out, moved, sizes, unit = known or _parts_at(base, spec, x, in_norm, out_norm, fixed_unit)
        out = out.copy()
        if spec.theta == 0.0 or not len(moved):
            return out
        # Python float ** per row, as for a single point
        scale = np.array([spec.theta * size**spec.p for size in sizes])[:, None]
        out[moved] = out[moved] + scale * unit
        return out

    # evaluate does not call itself: a closure over its own name is a
    # reference cycle, which would keep the parts alive until a collection
    def evaluate(x):
        x = np.asarray(x)
        return evaluate_rows(x[None])[0] if x.ndim == 1 else evaluate_rows(x)

    return EvaluableMap(base.in_dim, base.out_dim, evaluate, kind="linear-plus-perturbation")


def _map_key(base: LinearMap, spec: PerturbationSpec, in_norm, out_norm, unit) -> tuple:
    """What a perturbed map's :func:`_parts_at` depend on: the base matrix,
    the direction, its normalized vector ``unit`` (see :func:`_fixed_unit`)
    or, for ``hash``, its seed, and the two norms.  Maps with equal keys,
    ``theta`` and ``p`` are one map."""
    m = base.matrix
    return (m.dtype.str, m.shape, m.tobytes(), spec.direction,
            None if unit is None else unit.tobytes(), spec.seed if unit is None else None,
            in_norm, out_norm)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    raw: dict
    algebra: TernaryAlgebra
    map_candidates: list
    signs: SignConvention
    mode: str
    control: ControlFunction
    perturbations: dict
    tol: float
    max_iter: int
    seed: int
    lambda_grid: int
    samples: dict
    rank_tol: float
    pick: int
    on_empty: str
    out_dir: Path | None
    #: directory that input file paths in ``raw`` resolve against
    base_dir: Path


def _read_document(base_dir: Path, file, name: str, decode):
    """Decode the JSON file that ``file`` names, relative to ``base_dir``;
    an error names the config field ``name`` and the file."""
    path = base_dir / _typed(file, name, str)
    if not path.is_file():
        raise ConfigError(f"{name} {path} does not exist or is not a file")
    document = read_json(path)
    try:
        return decode(document)
    except ConfigError as exc:
        raise ConfigError(f"{name} {path}: {exc}") from None


def _build_algebra(spec: dict, base_dir: Path) -> TernaryAlgebra:
    if "file" in _typed(spec, "algebra"):
        return _read_document(base_dir, spec["file"], "algebra.file", algebra_from_json)
    builder, field_tag = spec.get("builder"), spec.get("field", "real")
    if builder == "trivial-matrix":
        m = _integer(spec.get("m", 2), "algebra.m")
        with _checked("algebra."):
            return trivial_matrix_algebra(m, field_tag)
    if builder == "odd-poly":
        cap = _integer(spec.get("cap", 3), "algebra.cap")
        with _checked("algebra.", degree_cap="cap"):
            return odd_polynomial_algebra(cap, field_tag)
    raise ConfigError(f"unknown algebra builder {builder!r}")


def _build_map(spec, alg: TernaryAlgebra, base_dir: Path, name: str) -> LinearMap:
    if spec == "identity":
        return LinearMap.identity(alg.dim, alg.dtype)
    if isinstance(spec, dict):
        if "file" in spec:
            return _read_document(base_dir, spec["file"], f"{name}.file", linear_map_from_json)
        if "matrix" in spec:
            try:
                return linear_map_from_json(
                    {"in_dim": alg.dim, "out_dim": alg.dim, "matrix": spec["matrix"]}
                )
            except ConfigError as exc:
                raise ConfigError(f"{name}.matrix: {exc}") from None
        if "random_seed" in spec:
            seed = _integer(spec["random_seed"], f"{name}.random_seed")
            with _checked(f"{name}.", seed="random_seed"):
                _check_arguments(seed=seed)
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((alg.dim, alg.dim))
            if alg.field == COMPLEX:
                m = m + 1j * rng.standard_normal((alg.dim, alg.dim))
            return LinearMap(m.astype(alg.dtype))
    raise ConfigError(f"cannot interpret map spec {name}: {spec!r}")


def _parse_perturbation(spec: dict, name: str, dim: int) -> PerturbationSpec:
    spec = _typed(spec, name)
    theta, p = (_number(spec.get(key, 0.0), f"{name}.{key}") for key in ("theta", "p"))
    vector = spec.get("vector")
    if vector is not None:
        where = f"{name}.vector"
        vector = [_number(x, where) for x in _typed(vector, where, list)]
        if len(vector) != dim:
            raise ConfigError(f"{where} must hold {dim} numbers, got {spec['vector']!r}")
    seed = _integer(spec.get("seed", 0), f"{name}.seed")
    with _checked(f"{name}."):
        return PerturbationSpec(theta=theta, p=p, direction=spec.get("direction", "fixed"),
                                vector=vector, seed=seed)


# the control of a config without a ``control`` section
DEFAULT_CONTROL = {"kind": "power", "theta": 0.0, "p": 0.0}

DEFAULT_SAMPLES = {
    "bound_points": 100,
    "identity_triples": 100,
    "hypothesis_tuples": 40,
    "linearity_points": 5,
}


def load_config(source) -> ExperimentConfig:
    """Parse an experiment config from a dict or a JSON file path."""
    return _parse_config(*_read_config(source))


def _read_config(source) -> tuple:
    """The raw config dict and the directory its input files resolve against:
    the file's directory for a path, the working directory for a dict."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist or is not a file")
        return _typed(read_json(path), f"config file {path}"), path.parent
    return dict(source), Path.cwd()


def _parse_tol(raw: dict) -> float:
    tol = _number(raw.get("tol", 1e-10), "tol")
    with _checked(""):
        _check_arguments(positive=("tol",), tol=tol)
    return tol


def _parse_control(raw: dict, mode: str, algebra: TernaryAlgebra) -> ControlFunction:
    expected_arity = 5 if mode == "lie" else 3
    spec = _typed(raw.get("control", DEFAULT_CONTROL), "control")
    control = control_from_json({"arity": expected_arity, **spec}, norm=algebra.norm_of)
    if control.arity != expected_arity:
        raise ConfigError(f"{mode} mode needs a control of arity {expected_arity}")
    return control


def _parse_perturbations(raw: dict, dim: int) -> dict:
    spec = _typed(raw.get("perturbation", {}), "perturbation")
    return {name: _parse_perturbation(spec.get(name, {}), f"perturbation.{name}", dim)
            for name in MAP_NAMES}


def _parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    try:
        algebra = _build_algebra(raw["algebra"], base_dir)
    except KeyError:
        raise ConfigError("config needs an 'algebra' section") from None
    mode = raw.get("mode", "lie")
    runs = {key: _integer(raw.get(key, default), key)
            for key, default in (("max_iter", 1000), ("seed", 0), ("lambda_grid", 16))}
    with _checked(""):
        _check_arguments(mode=mode, **runs)
    control = _parse_control(raw, mode, algebra)
    derivation = _typed(raw.get("derivation", {}), "derivation")
    tol = _parse_tol(raw)
    rank_tol = _number(derivation.get("rank_tol", 1e-10), "derivation.rank_tol")
    pick = _integer(derivation.get("pick", 0), "derivation.pick")
    on_empty = derivation.get("on_empty", "zero")
    with _checked("derivation."):
        _check_arguments(rank_tol=rank_tol, pick=pick)
        _choice("on_empty", on_empty, ("zero", "error"))

    fallbacks = _typed(raw.get("fallback_maps", []), "fallback_maps", list)
    candidates = {"maps": raw.get("maps", {})}
    candidates.update((f"fallback_maps.{i}", cand) for i, cand in enumerate(fallbacks))
    map_candidates = []
    for where, cand in candidates.items():
        cand = _typed(cand, where)
        maps = tuple(_build_map(cand.get(n, "identity"), algebra, base_dir, f"{where}.{n}")
                     for n in ("sigma", "tau", "xi"))
        with _checked(f"{where}."):
            _check_twist_maps(algebra, *maps)
        map_candidates.append(maps)

    perturbations = _parse_perturbations(raw, algebra.dim)
    samples = {**DEFAULT_SAMPLES, **_typed(raw.get("samples", {}), "samples")}
    samples = {key: _integer(samples[key], f"samples.{key}") for key in DEFAULT_SAMPLES}
    with _checked("samples."):
        _check_arguments(**samples)
    entries = raw.get("signs", [1, 1, 1])
    try:
        signs = SignConvention.from_sequence(
            _integer(s, "signs") for s in _typed(entries, "signs", list))
    except ValueError:
        raise ConfigError(f"signs must be three entries of +1 or -1, got {entries!r}") from None
    # input files resolve against the config's directory, output paths
    # against the working directory
    out_spec = _typed(raw.get("out", {}), "out")
    out_dir = Path(_typed(out_spec["dir"], "out.dir", str)) if "dir" in out_spec else None

    return ExperimentConfig(
        raw=raw,
        algebra=algebra,
        map_candidates=map_candidates,
        signs=signs,
        mode=mode,
        control=control,
        perturbations=perturbations,
        tol=tol,
        **runs,
        samples=samples,
        rank_tol=rank_tol,
        pick=pick,
        on_empty=on_empty,
        out_dir=out_dir,
        base_dir=base_dir,
    )


# ---------------------------------------------------------------------------
# experiment run


@dataclass
class RunResult:
    config: ExperimentConfig
    report: dict
    all_passed: bool
    report_path: Path | None
    trace_paths: dict
    stabilization: object = None


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _ground_truth(config: ExperimentConfig) -> tuple:
    """The self-module, the exact derivation used as ground truth (None when
    there is none), the twist maps it was solved for, the solver's margin,
    and the errors and notes of the solve.  None of it reads ``p``,
    ``theta`` or ``tol``, so a sweep builds it once."""
    mod = self_module(config.algebra)
    errors, notes, truth = [], [], None
    for chosen in config.map_candidates:
        basis = solve_exact_derivations(mod, *chosen, config.signs, config.rank_tol)
        if basis:
            if config.pick >= len(basis):
                errors.append({"code": "CONFIG_INVALID",
                               "message": f"derivation pick {config.pick} out of range "
                                          f"(space dimension {len(basis)})"})
            else:
                truth = basis[config.pick]
            break
    if truth is None and not errors:
        if config.on_empty == "error":
            exc = EmptyDerivationSpaceError(
                "no nonzero exact derivation for the configured maps and signs"
            )
            errors.append({"code": exc.code, "message": str(exc)})
        else:
            notes.append({"code": EmptyDerivationSpaceError.code,
                          "message": "derivation space is trivial; using the zero map "
                                     "as ground truth"})
            truth = LinearMap.zero(mod.dim, config.algebra.dim, config.algebra.dtype)
    return mod, truth, chosen, basis.margin, errors, notes


def _draw_points(config: ExperimentConfig) -> tuple:
    """The seeded samples of the hypothesis check (None when it samples no
    tuple) and of the direct method's linearity, bound and identity checks.
    None of them reads ``p``, ``theta`` or ``tol``, so a sweep draws them
    once; the arrays are read-only."""
    alg, samples = config.algebra, config.samples
    hypothesis = None
    if samples["hypothesis_tuples"] > 0:
        hypothesis = _hypothesis_points(alg, samples["hypothesis_tuples"], config.seed,
                                        config.mode, config.lambda_grid)
    checks = _check_points(alg, config.seed, samples["linearity_points"],
                           samples["bound_points"], samples["identity_triples"], config.mode)
    return hypothesis, checks


def _bases(config: ExperimentConfig, mod, truth: LinearMap, chosen: tuple) -> list:
    """``(name, base map, output norm, fixed unit, map key)`` of the four
    perturbed maps of ``config``; none of it reads ``p``, ``theta`` or
    ``tol`` (see :func:`_map_key`)."""
    norm, bases = mod.algebra.norm_of, []
    for name, base, out_norm in (("f", truth, mod.norm_of),
                                 *((name, base, norm) for name, base in zip("ghk", chosen))):
        spec = config.perturbations[name]
        unit = _fixed_unit(base, spec, out_norm)
        key = _map_key(base, spec, config.algebra.norm_of, out_norm, unit)
        bases.append((name, base, out_norm, unit, key))
    return bases


def _map_parts(config: ExperimentConfig, bases: list, hypothesis, checks) -> dict:
    """Per map key, the pairs of ``perturb_map``'s ``_parts`` of each
    distinct map of ``bases``: its parts at the hypothesis input it is
    evaluated at and at the bound points, none of which reads ``p``,
    ``theta`` or ``tol``; the arrays read-only."""
    in_norm, parts = config.algebra.norm_of, {}
    for name, base, out_norm, unit, key in bases:
        spec = config.perturbations[name]
        inputs = [] if hypothesis is None else [
            hypothesis.f_input if name == "f" else hypothesis.shared_input]
        for xs in inputs + [checks.bounds]:
            if all(stack is not xs for stack, _ in parts.get(key, ())):
                parts[key] = parts.get(key, ()) + ((xs, _parts_at(
                    base, spec, xs, in_norm, out_norm, unit)),)
    return parts


def _perturbed_maps(config: ExperimentConfig, bases: list, parts: dict) -> list:
    """The four perturbed maps of ``config``, one evaluator per distinct
    map: maps with equal keys, ``theta`` and ``p`` share it."""
    in_norm, maps, made = config.algebra.norm_of, [], {}
    for name, base, out_norm, _, key in bases:
        spec = config.perturbations[name]
        if (key, spec.theta, spec.p) not in made:
            made[key, spec.theta, spec.p] = perturb_map(
                base, spec, in_norm=in_norm, out_norm=out_norm, _parts=parts.get(key, ()))
        maps.append(made[key, spec.theta, spec.p])
    return maps


def _run_points(configs: list, keep_traces: bool = False) -> list:
    """The :class:`RunResult` of each of ``configs``, none written to a file.

    The configs differ in nothing but ``p``, ``theta`` and ``tol``, which
    no shared part reads: one ground truth is solved (see
    :func:`_ground_truth`), the seeded samples are drawn once (see
    :func:`_draw_points`), and each distinct perturbed map's parts at the
    hypothesis inputs and bound points are computed once (see
    :func:`_map_parts`), all left unmodified.  Each config then gets its own
    maps, and each check runs once for all configs, in one stacked pass.  A
    fatal error (empty derivation space with ``on_empty: error``, divergent
    control, nonconvergent iteration) is recorded in its report under its
    code and forces ``all_passed`` to false.
    """
    config, samples = configs[0], configs[0].samples
    mod, truth, chosen, margin, errors, notes = _ground_truth(config)
    hypos, outcomes = [None] * len(configs), [None] * len(configs)
    if not errors:
        hypothesis, checks = _draw_points(config)
        bases = _bases(config, mod, truth, chosen)
        parts = _map_parts(config, bases, hypothesis, checks)
        runs = [(_perturbed_maps(c, bases, parts), c) for c in configs]
        if hypothesis is not None:
            hypos = check_hypothesis([(*maps, c.control) for maps, c in runs], mod, config.signs,
                                     config.lambda_grid, samples["hypothesis_tuples"],
                                     config.seed, config.mode, hypothesis)
        outcomes = direct_method_stabilize(
            [(maps, c.control, c.tol) for maps, c in runs], mod, config.signs, config.mode,
            config.max_iter, config.seed, samples["bound_points"], samples["identity_triples"],
            samples["linearity_points"], keep_traces=keep_traces, points=checks)
    return [_result(config, (margin, errors, notes), truth, chosen, hypo, outcome)
            for config, hypo, outcome in zip(configs, hypos, outcomes)]


def _result(config: ExperimentConfig, solve: tuple, truth, chosen: tuple, hypo,
            outcome) -> RunResult:
    """The unwritten :class:`RunResult` of ``config`` from its solve's
    margin, errors and notes, its ground truth and twist maps, its
    hypothesis report and its stabilization report or fatal error."""
    margin, errors, notes = solve
    # the points of a sweep share one ground truth, but no report shares a list
    errors, notes = copy.deepcopy(errors), copy.deepcopy(notes)
    report: dict = {
        "config_echo": config.raw,
        "derivation": dict(margin),
        "recovered": None,
        "bounds": None,
        "hypothesis": None,
        "identity_residuals": None,
        "errors": errors,
        "notes": notes,
        "all_passed": False,
    }
    stab = outcome if isinstance(outcome, StabilizationReport) else None
    if outcome is not None and stab is None:
        errors.append({"code": outcome.code, "message": str(outcome)})
    if stab is not None:
        stab.hypothesis = hypo
        sigma, tau, xi = chosen
        truth_error = {
            "D": _max_abs(stab.derivation.matrix - truth.matrix),
            "sigma": _max_abs(stab.sigma.matrix - sigma.matrix),
            "tau": _max_abs(stab.tau.matrix - tau.matrix),
            "xi": _max_abs(stab.xi.matrix - xi.matrix),
        }
        report["recovered"] = {
            "D": linear_map_to_json(stab.derivation),
            "sigma": linear_map_to_json(stab.sigma),
            "tau": linear_map_to_json(stab.tau),
            "xi": linear_map_to_json(stab.xi),
            "iterations": stab.iterations,
            "convergence_rates": stab.convergence_rates,
            "linearity_max": stab.linearity_max,
            "truth_error": truth_error,
            "failures": stab.failures,
        }
        report["bounds"] = {
            "max_violation": stab.max_bound_violation,
            "points": stab.bound_points,
            "phi_tilde_values": stab.phi_tilde_values,
            "passed": stab.bounds_ok,
        }
        report["identity_residuals"] = {
            "mode": stab.mode,
            "max_normalized": stab.max_identity_residual,
            "threshold": stab.identity_tol,
            "triples": stab.identity_triples,
            "passed": stab.identity_ok,
        }
        report["hypothesis"] = hypo.to_dict() if hypo is not None else None
        report["all_passed"] = stab.all_passed and not errors
    return RunResult(config=config, report=report, all_passed=bool(report["all_passed"]),
                     report_path=None, trace_paths={}, stabilization=stab)


def run_experiment(config, out_dir=None, write_files: bool = True) -> RunResult:
    """Full pipeline: solve ground truth, perturb, stabilize, verify, emit.

    The report is written as JSON (plus one convergence CSV per map) when
    ``write_files`` is set and an output directory is known.  Fatal errors
    (empty derivation space with ``on_empty: error``, divergent control,
    nonconvergent iteration) are recorded in the report under their codes
    instead of propagating, and force ``all_passed`` to false.  A run that
    writes no files keeps only the trace rows ``n <= 10`` (see
    :func:`direct_method_stabilize`).  The report's ``derivation`` entry is
    the solver's rank margin for the map candidate used.  One evaluator is
    built per distinct perturbed map: maps with equal base matrices,
    ``theta``, ``p``, directions, normalized vectors, norms and, for
    ``hash``, seeds (see :func:`_map_key`) share it, so that the checks
    evaluate it once.  This is the one-point case of a sweep's
    :func:`_run_points`.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    target_dir = Path(out_dir) if out_dir is not None else config.out_dir
    writes = write_files and target_dir is not None
    (result,) = _run_points([config], keep_traces=writes)
    if writes:
        report_with_stamp = dict(result.report)
        report_with_stamp["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
        result.report_path = write_json(target_dir / "report.json", report_with_stamp)
        stab = result.stabilization
        # the four traces share their columns, so they are rendered together
        texts = ([None] * len(MAP_NAMES) if stab is None
                 else _trace_texts([stab.traces[name] for name in MAP_NAMES]))
        for name, text in zip(MAP_NAMES, texts):
            trace_path = target_dir / f"trace_{name}.csv"
            if text is not None:
                result.trace_paths[name] = write_trace_csv(trace_path, text)
            else:  # a previous run's traces must not pass for this run's
                trace_path.unlink(missing_ok=True)
    return result


# ---------------------------------------------------------------------------
# parameter sweep

#: most points one sweep spec may name
_MAX_SWEEP_POINTS = 10_000

SWEEP_HEADER = (
    "param",
    "value",
    "all_passed",
    "max_iterations",
    "max_bound_violation",
    "max_identity_residual",
)


def _sweep_config(raw: dict, param: str, value: float) -> dict:
    """``raw`` with ``param`` set to ``value`` and no ``out``; the sections
    it sets are copied, the others shared with ``raw``."""
    clone = dict(raw)
    if param in ("p", "theta"):
        clone["control"] = {**raw.get("control", DEFAULT_CONTROL), param: value}
        spec = raw.get("perturbation", {})
        clone["perturbation"] = {**spec, **{name: {**spec.get(name, {}), param: value}
                                            for name in MAP_NAMES}}
    elif param == "tol":
        clone["tol"] = value
    else:
        raise ConfigError(f"sweepable parameters are p, theta, tol; got {param!r}")
    clone.pop("out", None)
    return clone


def _sweep_point(config: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    """``config`` with ``param`` set to ``value``: the control, the
    perturbations and ``tol`` are parsed again, in ``_parse_config``'s
    order and by its validators, and the rest is shared."""
    raw = _sweep_config(config.raw, param, value)
    return replace(config, raw=raw, control=_parse_control(raw, config.mode, config.algebra),
                   tol=_parse_tol(raw), perturbations=_parse_perturbations(raw, config.algebra.dim),
                   out_dir=None)


def _point_rows(config: ExperimentConfig) -> int:
    """The rows a point adds to the largest stack of a stacked check: its
    hypothesis inputs, bound points, identity triples or ray rows, which a
    run that writes no trace keeps to ``_RATE_ROWS + 2`` per ray."""
    alg, samples = config.algebra, config.samples
    lambdas = len(_lambda_grid(alg.field, config.lambda_grid))
    return max(samples["hypothesis_tuples"] * (5 + lambdas), samples["bound_points"],
               samples["identity_triples"],
               (alg.dim + samples["linearity_points"]) * (_RATE_ROWS + 2))


def _groups(points: list) -> list:
    """``[start, end]`` of each run of consecutive points whose rows (see
    :func:`_point_rows`) stay within ``_TUPLE_CHUNK`` together; a point
    with more runs alone."""
    groups, held = [], 0
    for at, point in enumerate(points):
        rows = _point_rows(point)
        if groups and held + rows <= _TUPLE_CHUNK:
            groups[-1][1], held = at + 1, held + rows
        else:
            groups.append([at, at + 1])
            held = rows
    return groups


def run_sweep(config, param: str, values, out_csv=None) -> list:
    """One experiment per parameter value; one result row per point.

    Every point's config is built, and validated, before the first point
    runs, so a bad value raises its ``ConfigError`` before any work.  The
    points then run in groups of consecutive points, in the order of
    ``values``, whose stacked rows stay within ``_TUPLE_CHUNK`` (see
    :func:`_groups`), each group in one :func:`_run_points` call on the
    calling thread, writing no file.  A group shares what no swept
    parameter reads: the algebra, the twist maps, the self-module, solved
    ground truth and solver margin of one solve per map candidate tried,
    one draw of the seeded samples of the hypothesis, linearity, bound and
    identity checks, and each distinct perturbed map's ``base(x)``, ``|x|``
    and unit directions at the hypothesis inputs and bound points (see
    :func:`_parts_at`), so that a point's evaluator adds only ``theta
    |x|**p u(x)`` there.  Its points run each check as one stacked pass, and
    each point's result equals the standalone run of its config.  Nothing
    outlives a group but its rows.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    values = [float(v) for v in values]
    points = [_sweep_point(config, param, v) for v in values]
    rows = []
    for start, end in _groups(points):
        for value, result in zip(values[start:end], _run_points(points[start:end])):
            stab = result.stabilization
            iterations = (
                max(max(its) for its in stab.iterations.values()) if stab is not None else -1
            )
            rows.append(
                {
                    "param": param,
                    "value": value,
                    "all_passed": result.all_passed,
                    "max_iterations": iterations,
                    "max_bound_violation": stab.max_bound_violation if stab else float("nan"),
                    "max_identity_residual": stab.max_identity_residual if stab else float("nan"),
                }
            )

    if out_csv is not None:
        lines = ([str(row[key]) for key in SWEEP_HEADER] for row in rows)
        _write_text(out_csv, _csv_text(SWEEP_HEADER, lines), newline="")
    return rows


def parse_sweep_spec(spec: str):
    """Parse ``name=start:stop:step`` into a name and an inclusive value list
    of at most ``_MAX_SWEEP_POINTS`` values (each one is a full experiment)."""
    try:
        name, rest = spec.split("=", 1)
        start, stop, step = (float(part) for part in rest.split(":"))
    except ValueError:
        raise ConfigError(
            f"sweep spec must look like p=0.1:0.9:0.1, got {spec!r}"
        ) from None
    if not all(map(math.isfinite, (start, stop, step))) or start > stop:
        raise ConfigError(f"sweep start, stop and step must be finite with start <= stop, "
                          f"got {spec!r}")
    if step <= 0:
        raise ConfigError("sweep step must be positive")
    values = []
    v = start
    while v <= stop + 1e-12:
        if len(values) == _MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep spec {spec!r} has more than {_MAX_SWEEP_POINTS} points")
        values.append(round(v, 12))
        v += step
    return name.strip(), values
