"""JSON and CSV interchange.

Conventions: complex entries are encoded as two-element ``[re, im]`` lists,
real entries as plain numbers.  Algebras carry their field tag; matrices and
cubic arrays are decoded by probing the nesting depth against the declared
shape.  Reports are written with sorted keys and fixed separators so that a
rerun with the same seed is byte-identical (the timestamp field aside).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .algebra import COMPLEX, REAL, CubicMatrix, TernaryAlgebra
from .control import ControlFunction, custom_control, power_control
from .errors import ConfigError
from .maps import LinearMap
from .module import TernaryModule

#: registry for named custom control functions usable from config files
CUSTOM_CONTROLS: dict = {}


def register_custom_control(name: str, factory) -> None:
    CUSTOM_CONTROLS[name] = factory


def _typed(value, name: str, kind: type = dict):
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _int_at_least(value, name: str, minimum: int | None) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (isinstance(value, float) and number != value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {number}")
    return number


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def encode_array(arr: np.ndarray):
    """Nested lists; complex leaves become [re, im] pairs."""
    if np.iscomplexobj(arr):
        paired = np.stack([arr.real, arr.imag], axis=-1)
        return paired.tolist()
    return np.asarray(arr, dtype=np.float64).tolist()


def _finite_array(data, name: str) -> np.ndarray:
    """``data`` as a float array whose entries are all finite numbers."""
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be a nested list of finite numbers")
    return arr


def decode_array(data, shape, field_tag):
    arr = _finite_array(data, "array")
    if field_tag == COMPLEX:
        if arr.shape != tuple(shape) + (2,):
            raise ConfigError(
                f"complex array of shape {shape} must nest [re, im] pairs, "
                f"got shape {arr.shape}"
            )
        return (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)
    if arr.shape != tuple(shape):
        raise ConfigError(f"array shape {arr.shape} does not match expected {shape}")
    return arr


def algebra_to_json(alg: TernaryAlgebra) -> dict:
    return {
        "dim": alg.dim,
        "field": alg.field,
        "structure": encode_array(alg.structure),
        "norm_scale": alg.norm_scale,
        "flags": sorted(alg.flags),
    }


def algebra_from_json(data: dict) -> TernaryAlgebra:
    data = _typed(data, "algebra document")
    try:
        dim = _int_at_least(data["dim"], "algebra dim", 1)
        field_tag = data["field"]
        structure = data["structure"]
    except KeyError as missing:
        raise ConfigError(f"algebra document lacks key {missing}") from None
    if field_tag not in (REAL, COMPLEX):
        raise ConfigError(f"unknown field tag {field_tag!r}")
    norm_scale = _number(data.get("norm_scale", 1.0), "algebra norm_scale")
    if not (math.isfinite(norm_scale) and norm_scale > 0):
        raise ConfigError(f"algebra norm_scale must be positive and finite, got {norm_scale}")
    flags = _typed(data.get("flags", []), "algebra flags", list)
    if not all(isinstance(flag, str) for flag in flags):
        raise ConfigError(f"algebra flags must be strings, got {flags!r}")
    return TernaryAlgebra(
        dim=dim,
        field=field_tag,
        structure=decode_array(structure, (dim,) * 4, field_tag),
        norm_scale=norm_scale,
        flags=frozenset(flags),
    )


def module_to_json(mod: TernaryModule) -> dict:
    return {
        "algebra": algebra_to_json(mod.algebra),
        "dim": mod.dim,
        "products": {
            "xab": encode_array(mod.product_xab),
            "axb": encode_array(mod.product_axb),
            "abx": encode_array(mod.product_abx),
        },
    }


def module_from_json(data: dict) -> TernaryModule:
    alg = algebra_from_json(data["algebra"])
    dx, da = int(data["dim"]), alg.dim
    prods = data["products"]
    return TernaryModule(
        algebra=alg,
        dim=dx,
        product_xab=decode_array(prods["xab"], (dx, da, da, dx), alg.field),
        product_axb=decode_array(prods["axb"], (da, dx, da, dx), alg.field),
        product_abx=decode_array(prods["abx"], (da, da, dx, dx), alg.field),
        norm=alg.norm_of,
    )


def cubic_to_json(cube: CubicMatrix) -> dict:
    return {"side": cube.side, "entries": encode_array(cube.entries)}


def cubic_from_json(data: dict) -> CubicMatrix:
    side = int(data["side"])
    raw = np.asarray(data["entries"], dtype=np.float64)
    if raw.shape == (side,) * 3:
        return CubicMatrix(side, raw)
    if raw.shape == (side,) * 3 + (2,):
        return CubicMatrix(side, raw[..., 0] + 1j * raw[..., 1])
    raise ConfigError(f"cubic entries shape {raw.shape} does not match side {side}")


def linear_map_to_json(lm: LinearMap) -> dict:
    return {
        "in_dim": lm.in_dim,
        "out_dim": lm.out_dim,
        "matrix": encode_array(lm.matrix),
    }


def linear_map_from_json(data: dict) -> LinearMap:
    data = _typed(data, "map document")
    try:
        out_dim, in_dim, raw = data["out_dim"], data["in_dim"], data["matrix"]
    except KeyError as missing:
        raise ConfigError(f"map document lacks key {missing}") from None
    out_dim = _int_at_least(out_dim, "map out_dim", 1)
    in_dim = _int_at_least(in_dim, "map in_dim", 1)
    raw = _finite_array(raw, "map matrix")
    if raw.shape == (out_dim, in_dim):
        return LinearMap(raw)
    if raw.shape == (out_dim, in_dim, 2):
        return LinearMap(raw[..., 0] + 1j * raw[..., 1])
    raise ConfigError(
        f"matrix shape {raw.shape} does not match {out_dim}x{in_dim} (real or [re,im])"
    )


def control_from_json(data: dict, norm=None) -> ControlFunction:
    kind = data.get("kind")
    if kind == "power":
        return power_control(
            theta=float(data["theta"]),
            p=float(data["p"]),
            arity=int(data.get("arity", 5)),
            norm=norm,
        )
    if kind == "custom":
        name = data.get("name")
        if name not in CUSTOM_CONTROLS:
            raise ConfigError(f"custom control {name!r} is not registered")
        fn = CUSTOM_CONTROLS[name]
        return custom_control(fn, arity=int(data.get("arity", 5)), norm=norm)
    raise ConfigError(f"control kind must be 'power' or 'custom', got {kind!r}")


def control_to_json(control: ControlFunction, name: str | None = None) -> dict:
    if control.kind == "power":
        return {
            "kind": "power",
            "theta": control.theta,
            "p": control.p,
            "arity": control.arity,
        }
    return {"kind": "custom", "name": name, "arity": control.arity}


def dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_json(path, data: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_json(data))
    return path


def read_json(path) -> dict:
    """The JSON value in the file at ``path``; text that is not JSON (or not
    UTF-8) is a ``ConfigError``."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


TRACE_HEADER = ("basis_index", "n", "error", "tail_bound")


def write_trace_csv(path, rows) -> Path:
    """Convergence trace: one row per (basis vector, iteration)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for basis_index, n, error, tail in rows:
            writer.writerow([basis_index, n, repr(float(error)), repr(float(tail))])
    return path
