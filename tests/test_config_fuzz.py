"""Fuzzed experiment configs, algebra documents and map documents: every
one either loads or is a coded error.

The generated values mix plausible values for every field with arbitrary
JSON-like values in their place.  Algebra sizes stay small (m <= 3,
cap <= 9, dim <= 2), so a config that loads builds its algebra quickly.

The library's own entry points get junk numbers in their numeric
arguments: each call returns or raises ``ValueError``, never ``TypeError``
or ``OverflowError``.  A string or a bool at any numeric field of a config
or document is a coded error that names the field.
"""

import copy
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ternstab as ts
from ternstab.errors import ConfigError
from ternstab.serialize import algebra_from_json, linear_map_from_json, register_custom_control

register_custom_control("fuzz-zero", lambda *args: 0.0, 0.5)

WORDS = ["lie", "jordan", "real", "complex", "odd-poly", "trivial-matrix", "octonion",
         "fixed", "hash", "random", "zero", "error", "power", "custom", "identity", ""]
KEYS = ["kind", "theta", "p", "arity", "matrix", "random_seed", "direction", "seed",
        "vector", "dir", "rank_tol", "pick", "on_empty", "file", "sigma"]

# arbitrary JSON values; integers and strings stay small, so no count or size
# read from them can make the loader build a large algebra
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(WORDS),
    st.text(alphabet="ax-.", max_size=3),
)
junk = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                 max_size=3),
    max_leaves=8,
)


def field(plausible):
    return st.one_of(plausible, junk)


small_float = st.floats(-0.5, 1.5)
algebra = field(st.fixed_dictionaries(
    {"builder": field(st.sampled_from(["odd-poly", "trivial-matrix", "octonion"]))},
    optional={
        "cap": field(st.integers(-1, 9)),
        "m": field(st.integers(-1, 3)),
        "field": field(st.sampled_from(["real", "complex", "quaternion"])),
    },
))
linear_map = field(st.one_of(
    st.just("identity"),
    st.fixed_dictionaries({"random_seed": field(st.integers(-1, 5))}),
    st.fixed_dictionaries({"matrix": field(st.lists(st.lists(small_float, max_size=3),
                                                    max_size=3))}),
))
maps = field(st.fixed_dictionaries({}, optional={n: linear_map for n in ("sigma", "tau", "xi")}))
power_law = {"theta": field(small_float), "p": field(small_float)}
perturbation = field(st.fixed_dictionaries({}, optional={
    **power_law,
    "direction": field(st.sampled_from(["fixed", "hash", "random"])),
    "seed": field(st.integers(-2, 2**70)),
    "vector": field(st.lists(st.one_of(small_float, st.floats(), st.integers(-2, 2),
                                       st.sampled_from(["1", "abc", True])), max_size=9)),
}))
configs = st.fixed_dictionaries({}, optional={
    "algebra": algebra,
    "maps": maps,
    "fallback_maps": field(st.lists(maps, max_size=2)),
    "signs": field(st.lists(st.sampled_from([1, -1, 2, 0.5, math.inf]), max_size=4)),
    "mode": field(st.sampled_from(["lie", "jordan", "x"])),
    "control": field(st.fixed_dictionaries({}, optional={
        "kind": field(st.sampled_from(["power", "custom", "foo"])),
        "name": field(st.sampled_from(["fuzz-zero", "unregistered"])),
        "arity": field(st.sampled_from([3, 5, 4, "5"])),
        **power_law,
    })),
    "perturbation": field(st.fixed_dictionaries({}, optional={n: perturbation for n in "fghk"})),
    "tol": field(st.floats(-1.0, 1.0)),
    "max_iter": field(st.integers(-2, 2000)),
    "seed": field(st.integers(-2, 2**70)),
    "lambda_grid": field(st.integers(0, 20)),
    "samples": field(st.dictionaries(
        st.sampled_from(["bound_points", "identity_triples", "hypothesis_tuples",
                         "linearity_points"]),
        field(st.integers(-2, 200)),
    )),
    "derivation": field(st.fixed_dictionaries({}, optional={
        "rank_tol": field(st.floats(-1.0, 1.0)),
        "pick": field(st.integers(-2, 3)),
        "on_empty": field(st.sampled_from(["zero", "error", "explode"])),
    })),
    "out": field(st.fixed_dictionaries({}, optional={"dir": field(st.just("run"))})),
})


@pytest.fixture(scope="module")
def empty_cwd(tmp_path_factory):
    # input files resolve against the working directory; in an empty one
    # every generated file name is missing
    old = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("fuzz"))
    yield
    os.chdir(old)


@settings(max_examples=300, deadline=None)
@given(raw=configs)
def test_config_loads_or_is_a_coded_error(empty_cwd, raw):
    try:
        config = ts.load_config(raw)
    except ConfigError:
        return
    assert config.algebra.dim <= 9
    assert config.mode in ("lie", "jordan")
    assert config.on_empty in ("zero", "error")
    # the control is decoded before work starts: a loaded config holds it built
    control = config.control
    assert control.arity == (5 if config.mode == "lie" else 3)
    assert control.kind == "custom" or (
        math.isfinite(control.theta) and control.theta >= 0 and 0 <= control.p < 1
    )
    for spec in config.perturbations.values():
        vector = spec.vector
        assert vector is None or (
            len(vector) == config.algebra.dim
            and all(isinstance(x, float) and math.isfinite(x) for x in vector)
            and any(vector)
        )
        # the vector is checked before work starts: building the map cannot fail
        ts.perturb_map(ts.LinearMap.identity(config.algebra.dim, config.algebra.dtype), spec)


def nested(shape, entry):
    """Nested lists of the given shape with ``entry`` at the leaves."""
    for size in reversed(shape):
        entry = st.lists(entry, min_size=size, max_size=size)
    return entry


def array(shapes):
    """A plausible array of one of ``shapes``, or one with junk at some leaves."""
    shape = st.sampled_from(shapes)
    return st.one_of(shape.flatmap(lambda s: nested(s, small_float)),
                     shape.flatmap(lambda s: nested(s, st.one_of(small_float, leaves))))


algebra_document = field(st.fixed_dictionaries(
    {
        "dim": field(st.integers(-1, 3)),
        "field": field(st.sampled_from(["real", "complex", "quaternion"])),
        "structure": field(array([(1,) * 4, (2,) * 4, (1,) * 4 + (2,), (2,) * 4 + (2,)])),
    },
    optional={
        "norm_scale": field(st.floats()),
        "flags": field(st.lists(st.sampled_from(["associative", "partial"]), max_size=2)),
    },
))
map_document = field(st.fixed_dictionaries({}, optional={
    "in_dim": field(st.integers(-1, 3)),
    "out_dim": field(st.integers(-1, 3)),
    "matrix": field(array([(2, 2), (1, 2), (2, 2, 2), (3,)])),
}))


@settings(max_examples=300, deadline=None)
@given(document=algebra_document)
def test_algebra_document_decodes_or_is_a_coded_error(document):
    try:
        alg = algebra_from_json(document)
    except ConfigError:
        return
    assert alg.dim == document["dim"] and alg.field == document["field"]
    assert math.isfinite(alg.norm_scale) and alg.norm_scale > 0
    assert all(isinstance(flag, str) for flag in alg.flags)


@settings(max_examples=300, deadline=None)
@given(document=map_document)
def test_map_document_decodes_or_is_a_coded_error(document):
    try:
        lm = linear_map_from_json(document)
    except ConfigError:
        return
    assert (lm.out_dim, lm.in_dim) == (document["out_dim"], document["in_dim"])


# the library entry points' numeric arguments, each called with one junk
# number in its place; exact maps under a zero control stop every ray at
# n = 0, so a valid value returns
_ALG = ts.odd_polynomial_algebra(3)
_MOD = ts.self_module(_ALG)
_ID = ts.LinearMap.identity(2)
_MAPS = (ts.EvaluableMap.from_linear(ts.solve_exact_derivations(_MOD, _ID, _ID, _ID)[0]),
         *[ts.EvaluableMap.from_linear(_ID)] * 3)
_ZERO = ts.power_control(0.0, 0.5)
_SMALL_COUNTS = {"bound_points": 2, "identity_triples": 2, "linearity_points": 1}
ENTRY_POINTS = {
    "hyers_limit": lambda **kw: ts.hyers_limit(_MAPS[0], _ZERO, np.ones(2),
                                               **{"tol": 1e-10, **kw}),
    "direct_method_stabilize": lambda **kw: ts.direct_method_stabilize(
        *_MAPS, _ZERO, _MOD, **{**_SMALL_COUNTS, **kw}),
    "check_hypothesis": lambda **kw: ts.check_hypothesis(*_MAPS, _ZERO, _MOD,
                                                         **{"samples": 2, **kw}),
    "check_ternary_associativity": lambda **kw: ts.check_ternary_associativity(
        _ALG, **{"tol": 1e-9, **kw}),
    "check_module_axioms": lambda **kw: ts.check_module_axioms(
        _MOD, **{"tol": 1e-9, "samples": 2, **kw}),
    "solve_exact_derivations": lambda **kw: ts.solve_exact_derivations(_MOD, _ID, _ID, _ID,
                                                                       **kw),
    "rescale_norm_submultiplicative": lambda **kw: ts.rescale_norm_submultiplicative(
        _ALG, **{"samples": 2, **kw}),
    "verify_identity_and_reduce": lambda **kw: ts.verify_identity_and_reduce(
        ts.trivial_matrix_algebra(1), np.ones(1), **kw),
    "power_control": lambda **kw: ts.power_control(**{"theta": 0.1, "p": 0.5, **kw}),
    "custom_control": lambda **kw: ts.custom_control(lambda *args: 0.0, **kw),
    "PerturbationSpec": lambda **kw: ts.PerturbationSpec(**{"theta": 0.1, "p": 0.5, **kw}),
    "TernaryAlgebra": lambda **kw: ts.TernaryAlgebra(2, "real", _ALG.structure, **kw),
    "trivial_matrix_algebra": lambda **kw: ts.trivial_matrix_algebra(**kw),
    "odd_polynomial_algebra": lambda **kw: ts.odd_polynomial_algebra(**kw),
}
# a count may be any integer up to 5: a larger one is real work, as asking
# for 10**20 sampled tuples is
NUMERIC_ARGUMENTS = [
    *[("hyers_limit", name, False) for name in ("tol", "max_iter")],
    *[("direct_method_stabilize", name, name in _SMALL_COUNTS)
      for name in ("tol", "identity_tol", "max_iter", "seed", *_SMALL_COUNTS)],
    *[("check_hypothesis", name, name != "seed") for name in ("samples", "seed", "lambda_grid")],
    *[(checker, name, name == "samples") for checker in ("check_ternary_associativity",
                                                          "check_module_axioms")
      for name in ("tol", "samples", "budget", "seed")],
    ("solve_exact_derivations", "rank_tol", False),
    ("rescale_norm_submultiplicative", "samples", True),
    ("rescale_norm_submultiplicative", "seed", False),
    ("verify_identity_and_reduce", "tol", False),
    ("power_control", "theta", False),
    ("power_control", "p", False),
    ("power_control", "arity", False),
    ("custom_control", "ratio", False),
    ("PerturbationSpec", "theta", False),
    ("PerturbationSpec", "p", False),
    ("TernaryAlgebra", "norm_scale", False),
    ("trivial_matrix_algebra", "m", True),
    ("odd_polynomial_algebra", "degree_cap", True),
]
junk_numbers = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                         st.sampled_from([0, 1, 2, 3, -1, 0.5, 5e-324, 1e308, True]),
                         st.integers(-10**400, 10**400))


@settings(max_examples=400, deadline=None)
@given(argument=st.sampled_from(NUMERIC_ARGUMENTS), value=junk_numbers)
def test_library_numbers_return_or_are_a_value_error(argument, value):
    entry, name, counted = argument
    if counted and isinstance(value, int) and value > 5:
        value = 5
    try:
        ENTRY_POINTS[entry](**{name: value})
    except ValueError:
        pass


CONFIG = Path(__file__).resolve().parent.parent / "configs" / "oddpoly3_p05.json"
# every numeric field of a config, as a path into it; an integer step picks
# an entry of a list, and the field is named up to its last key
NUMERIC_FIELDS = [
    ("algebra", "cap"), ("algebra", "m"), ("tol",), ("max_iter",), ("seed",), ("lambda_grid",),
    ("control", "theta"), ("control", "p"), ("control", "arity"),
    *[("perturbation", "f", key) for key in ("theta", "p", "seed")],
    ("perturbation", "g", "vector", 1),
    *[("samples", key) for key in ("bound_points", "identity_triples", "hypothesis_tuples",
                                   "linearity_points")],
    ("derivation", "rank_tol"), ("derivation", "pick"), ("signs", 0), ("signs", 2),
    ("maps", "sigma", "random_seed"), ("maps", "tau", "matrix", 1, 0),
    ("fallback_maps", 0, "xi", "random_seed"),
]
NOT_NUMBERS = ["1", "0.5", "abc", True, False]


def _full_config(path) -> dict:
    """The bundled odd-poly config (d = 2) with every numeric field present,
    or on the trivial-matrix builder (d = 1) when ``path`` is ``algebra.m``."""
    raw = json.loads(CONFIG.read_text())
    raw.pop("out")
    matrix = [[1, 0], [0.0, 1.0]]
    if path == ("algebra", "m"):
        raw["algebra"], matrix = {"builder": "trivial-matrix", "m": 1}, [[1]]
    raw["perturbation"]["g"]["vector"] = [1.0] + [0.0] * (len(matrix) - 1)
    raw["maps"] = {"sigma": {"random_seed": 1}, "tau": {"matrix": matrix}}
    raw["fallback_maps"] = [{"xi": {"random_seed": 2}}]
    return raw


@pytest.mark.parametrize("path", NUMERIC_FIELDS, ids=lambda path: ".".join(map(str, path)))
def test_string_or_bool_at_a_numeric_field_is_a_coded_error(path):
    assert ts.load_config(_full_config(path)).algebra.dim >= 1
    named = max(i for i, step in enumerate(path) if isinstance(step, str))
    name = ".".join(map(str, path[: named + 1]))
    for value in NOT_NUMBERS:
        raw = copy.deepcopy(_full_config(path))
        *outer, last = path
        node = raw
        for step in outer:
            node = node[step]
        node[last] = value
        with pytest.raises(ConfigError) as err:
            ts.load_config(raw)
        assert err.value.code == "CONFIG_INVALID"
        assert name in str(err.value), (value, str(err.value))


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_string_or_bool_in_a_document_is_a_coded_error(value):
    algebra = {"dim": 1, "field": "real", "structure": [[[[1.0]]]], "norm_scale": 1.0}
    linear = {"in_dim": 1, "out_dim": 1, "matrix": [[1.0]]}
    algebra_from_json(algebra)
    linear_map_from_json(linear)
    for decode, document, key, name in (
            (algebra_from_json, algebra, "dim", "algebra dim"),
            (algebra_from_json, algebra, "norm_scale", "algebra norm_scale"),
            (algebra_from_json, algebra, "structure", "algebra structure"),
            (linear_map_from_json, linear, "in_dim", "map in_dim"),
            (linear_map_from_json, linear, "out_dim", "map out_dim"),
            (linear_map_from_json, linear, "matrix", "map matrix")):
        # a list field gets the value at its one leaf
        bad = [[[[value]]]] if key == "structure" else [[value]] if key == "matrix" else value
        with pytest.raises(ConfigError, match=name):
            decode({**document, key: bad})


def test_integral_floats_still_load():
    raw = _full_config(())
    raw["algebra"]["cap"] = 3.0
    raw["max_iter"], raw["signs"] = 1000.0, [1.0, -1, 1]
    config = ts.load_config(raw)
    assert config.algebra.dim == 2 and config.max_iter == 1000 and type(config.max_iter) is int
    assert config.signs.as_tuple() == (1, -1, 1)
    assert all(type(s) is int for s in config.signs.as_tuple())
