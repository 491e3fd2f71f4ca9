"""One rule at both entry points: each config field that holds a library
argument is rejected by ``load_config`` exactly when the library call
rejects the argument.

Every case names a config field (its path in ``oddpoly3_p05.json``), a
library call of the same argument, values on the wrong side of the rule and
values on its boundary.  A bad value must end in ``CONFIG_INVALID`` naming
the field's path, and in ``ValueError`` from the library; when the config
holds a value of the right JSON type, both messages state the rule in the
same words.  A boundary value must load, run and pass the library call.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import ternstab as ts
from ternstab.errors import ConfigError
from ternstab.serialize import algebra_to_json, linear_map_from_json

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "oddpoly3_p05.json"
ALG = ts.odd_polynomial_algebra(3)
MOD = ts.self_module(ALG)
IDENTITY = ts.LinearMap.identity(ALG.dim)
TRUTH = ts.solve_exact_derivations(MOD, IDENTITY, IDENTITY, IDENTITY)[0]
# exact maps under a zero control: every ray stops at n = 0, so no
# boundary value makes a valid call fail for want of iterations
MAPS = (ts.EvaluableMap.from_linear(TRUTH), *[ts.EvaluableMap.from_linear(IDENTITY)] * 3)
ZERO = ts.power_control(0.0, 0.5)


def stabilize(**kwargs):
    counts = {"bound_points": 3, "identity_triples": 3, "linearity_points": 2}
    return ts.direct_method_stabilize(*MAPS, ZERO, MOD, **{**counts, **kwargs})


def hypothesis(**kwargs):
    return ts.check_hypothesis(*MAPS, ZERO, MOD, **{"samples": 3, **kwargs})


def limit(**kwargs):
    return ts.hyers_limit(MAPS[0], ZERO, np.ones(ALG.dim), **{"tol": 1e-10, **kwargs})


def twists(tau):
    """Identity ``sigma`` and ``xi`` around the ``tau`` that a config's map spec holds."""
    return IDENTITY, linear_map_from_json({"in_dim": ALG.dim, "out_dim": ALG.dim, **tau}), IDENTITY


#: every library entry point that takes twist maps
TWISTED = [
    lambda v: ts.twisted_bracket(MOD, np.ones(ALG.dim), np.ones(ALG.dim), np.ones(ALG.dim),
                                 *twists(v)),
    lambda v: ts.lie_derivation_residual(MOD, TRUTH, *np.ones((3, ALG.dim)), *twists(v)),
    lambda v: ts.jordan_residual(MOD, TRUTH, np.ones(ALG.dim), *twists(v)),
    lambda v: ts.residual_on_basis(MOD, TRUTH, *twists(v)),
    lambda v: ts.solve_exact_derivations(MOD, *twists(v)),
]
#: a complex twist of the real odd-poly cap 3 algebra
COMPLEX_TWIST = {"matrix": [[[1, 0.5], [0, 0]], [[0, 0], [1, -0.5]]]}


def algebra_document(norm_scale):
    return {**algebra_to_json(ALG), "norm_scale": norm_scale}


FRACTIONS = [2.5, math.nan, math.inf]

# (config path, library calls of the value, bad values, boundary values)
RULES = [
    (("tol",), [lambda v: stabilize(tol=v), lambda v: limit(tol=v)],
     [0.0, -1.0, math.nan, math.inf, True], [5e-324]),
    (("derivation", "rank_tol"),
     [lambda v: ts.solve_exact_derivations(MOD, IDENTITY, IDENTITY, IDENTITY, rank_tol=v)],
     [-1e-300, math.nan, math.inf, True], [0.0]),
    (("max_iter",), [lambda v: stabilize(max_iter=v), lambda v: limit(max_iter=v)],
     [-1, *FRACTIONS], [0]),
    (("lambda_grid",), [lambda v: hypothesis(lambda_grid=v)], [1, 0, -1, *FRACTIONS], [2]),
    (("seed",), [lambda v: stabilize(seed=v), lambda v: hypothesis(seed=v)],
     [-1, *FRACTIONS], [0]),
    (("samples", "bound_points"), [lambda v: stabilize(bound_points=v)], [-1, *FRACTIONS], [0]),
    (("samples", "identity_triples"), [lambda v: stabilize(identity_triples=v)],
     [-1, *FRACTIONS], [0]),
    (("samples", "linearity_points"), [lambda v: stabilize(linearity_points=v)],
     [-1, *FRACTIONS], [0]),
    (("samples", "hypothesis_tuples"), [lambda v: hypothesis(samples=v)], [-1, *FRACTIONS],
     [0]),
    (("control", "theta"), [lambda v: ts.power_control(v, 0.5)],
     [-0.1, math.nan, math.inf, True], [0.0]),
    (("control", "p"), [lambda v: ts.power_control(0.1, v)],
     [1.0, -0.1, math.nan, math.inf, False], [0.0]),
    (("perturbation", "f", "theta"), [lambda v: ts.PerturbationSpec(theta=v, p=0.5)],
     [-0.1, math.nan, math.inf, True], [0.0]),
    (("perturbation", "g", "p"), [lambda v: ts.PerturbationSpec(theta=0.1, p=v)],
     [1.0, -0.1, math.nan, False], [0.0]),
    (("perturbation", "h", "direction"),
     [lambda v: ts.PerturbationSpec(theta=0.1, p=0.5, direction=v)], ["random", "", None],
     ["fixed", "hash"]),
    (("control", "arity"), [lambda v: ts.power_control(0.1, 0.5, arity=v)], [4, 0], [5]),
    (("algebra", "field"), [lambda v: ts.odd_polynomial_algebra(3, v)],
     ["quaternion", "", None], ["real", "complex"]),
    (("mode",), [lambda v: stabilize(mode=v), lambda v: hypothesis(mode=v)], ["skew", ""],
     ["lie"]),
    (("maps", "tau"), TWISTED, [COMPLEX_TWIST], [{"matrix": [[1, 0.5], [0, 1]]}]),
]
IDS = [".".join(path) for path, *_ in RULES]


def configured(path, value) -> dict:
    raw = json.loads(CONFIG.read_text())
    raw.pop("out")
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return raw


def config_error(raw) -> str:
    with pytest.raises(ConfigError) as caught:
        ts.load_config(raw)
    return str(caught.value)


def assert_same_rule(config_message: str, where: str, library_message: str) -> None:
    """The loader's message names the field; unless the value failed the
    loader's JSON typing (a fraction or NaN where an integer belongs, a bool
    where a number does), it then states the library's rule word for word."""
    assert config_message.startswith(where + " "), config_message
    if not any(f" must be {kind}, got " in config_message for kind in ("an integer", "a number")):
        assert config_message.split(" ", 1)[1] == library_message.split(" ", 1)[1]


@pytest.mark.parametrize("path, calls, bad, good", RULES, ids=IDS)
def test_bad_values_are_rejected_at_both_entry_points(path, calls, bad, good):
    where = ".".join(path)
    for value in bad:
        message = config_error(configured(path, value))
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call(value)
            assert_same_rule(message, where, str(caught.value))


@pytest.mark.parametrize("path, calls, bad, good", RULES, ids=IDS)
def test_boundary_values_load_and_run(path, calls, bad, good):
    for value in good:
        result = ts.run_experiment(ts.load_config(configured(path, value)), write_files=False)
        assert result.report is not None
        for call in calls:
            call(value)


@pytest.mark.parametrize("builder, size, bad, good",
                         [("trivial-matrix", "m", [0, -1, 2.5], [1, 2]),
                          ("odd-poly", "cap", [0, -1, 4, 2.5], [1, 3])])
def test_builder_sizes_share_the_builders_rule(builder, size, bad, good):
    build = {"m": ts.trivial_matrix_algebra, "cap": ts.odd_polynomial_algebra}[size]
    for value in bad:
        message = config_error(configured(("algebra",), {"builder": builder, size: value}))
        with pytest.raises(ValueError) as caught:
            build(value)
        # the library names the argument degree_cap; the loader names the field cap
        assert_same_rule(message, f"algebra.{size}", str(caught.value))
    for value in good:
        ts.load_config(configured(("algebra",), {"builder": builder, size: value}))
        build(value)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_norm_scale_of_an_algebra_file_is_the_algebras_rule(value, tmp_path):
    (tmp_path / "algebra.json").write_text(json.dumps(algebra_document(value)))
    raw = configured(("algebra",), {"file": str(tmp_path / "algebra.json")})
    message = config_error(raw)
    with pytest.raises(ValueError) as caught:
        ts.TernaryAlgebra(ALG.dim, "real", ALG.structure, norm_scale=value)
    assert message.startswith("algebra.file ") and message.endswith(str(caught.value))


def test_zero_rank_tol_loads_and_runs():
    # the loader once required rank_tol > 0, the solver >= 0
    config = ts.load_config(configured(("derivation", "rank_tol"), 0))
    assert config.rank_tol == 0.0
    assert ts.run_experiment(config, write_files=False).all_passed


@pytest.mark.parametrize("value", [True, False, np.True_])
@pytest.mark.parametrize("call", [
    lambda v: ts.TernaryAlgebra(ALG.dim, "real", ALG.structure, norm_scale=v),
    lambda v: ts.check_ternary_associativity(ALG, v),
], ids=["norm_scale", "associativity tol"])
def test_a_bool_is_no_number(call, value):
    # float arguments that no config row reaches: one rule with the rows
    # above, and with the counts and signs
    with pytest.raises(ValueError, match=f"got {value!r}$"):
        call(value)


def test_a_complex_fallback_twist_is_named_by_its_path():
    raw = configured(("fallback_maps",), [{"xi": COMPLEX_TWIST}])
    assert config_error(raw) == (
        "fallback_maps.0.xi must be a real map on the real algebra, got a complex one")


def test_real_twists_on_a_complex_algebra_stay_allowed():
    alg = ts.odd_polynomial_algebra(5, "complex")
    mod = ts.self_module(alg)
    rng = np.random.default_rng(3)
    real = [ts.LinearMap(rng.standard_normal((alg.dim, alg.dim))) for _ in range(3)]
    cast = [ts.LinearMap(m.matrix.astype(alg.dtype)) for m in real]
    got, want = (ts.solve_exact_derivations(mod, *maps) for maps in (real, cast))
    assert [m.matrix.tobytes() for m in got] == [m.matrix.tobytes() for m in want]
    raw = configured(("algebra",), {"builder": "odd-poly", "cap": 3, "field": "complex"})
    raw["maps"]["tau"] = {"matrix": [[1, 0.5], [0, 1]]}
    assert ts.run_experiment(ts.load_config(raw), write_files=False).report is not None
