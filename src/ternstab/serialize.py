"""JSON and CSV interchange.

Conventions: complex entries are encoded as two-element ``[re, im]`` lists,
real entries as plain numbers.  Algebras carry their field tag; matrices and
cubic arrays are decoded by probing the nesting depth against the declared
shape.  Reports are written with sorted keys and fixed separators so that a
rerun with the same seed is byte-identical (the timestamp field aside).
"""

from __future__ import annotations

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


def _power_law(spec: dict, name: str, default) -> tuple:
    """``theta`` (finite, nonnegative) and ``p`` (in [0, 1)) of ``spec``."""
    theta = _number(spec.get("theta", default), f"{name}.theta")
    p = _number(spec.get("p", default), f"{name}.p")
    if not (math.isfinite(theta) and theta >= 0):
        raise ConfigError(f"{name}.theta must be finite and nonnegative, got {theta}")
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"{name}.p must lie in [0, 1), got {p}")
    return theta, p


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


def _real_or_pairs(data, shape: tuple, name: str) -> np.ndarray:
    """``data`` as a real array of ``shape``, or as a complex one when it
    nests ``[re, im]`` pairs; anything else is a ``ConfigError``."""
    raw = _finite_array(data, name)
    if raw.shape == shape:
        return raw
    if raw.shape == shape + (2,):
        return raw[..., 0] + 1j * raw[..., 1]
    raise ConfigError(f"{name} shape {raw.shape} does not match {shape} (real or [re, im])")


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
    data = _typed(data, "module document")
    try:
        alg = algebra_from_json(data["algebra"])
        dx, da = _int_at_least(data["dim"], "module dim", 1), alg.dim
        prods = _typed(data["products"], "module products")
        xab, axb, abx = prods["xab"], prods["axb"], prods["abx"]
    except KeyError as missing:
        raise ConfigError(f"module document lacks key {missing}") from None
    return TernaryModule(
        algebra=alg,
        dim=dx,
        product_xab=decode_array(xab, (dx, da, da, dx), alg.field),
        product_axb=decode_array(axb, (da, dx, da, dx), alg.field),
        product_abx=decode_array(abx, (da, da, dx, dx), alg.field),
        norm=alg.norm_of,
    )


def cubic_to_json(cube: CubicMatrix) -> dict:
    return {"side": cube.side, "entries": encode_array(cube.entries)}


def cubic_from_json(data: dict) -> CubicMatrix:
    data = _typed(data, "cubic document")
    try:
        side, entries = data["side"], data["entries"]
    except KeyError as missing:
        raise ConfigError(f"cubic document lacks key {missing}") from None
    side = _int_at_least(side, "cubic side", 1)
    return CubicMatrix(side, _real_or_pairs(entries, (side,) * 3, "cubic entries"))


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
    return LinearMap(_real_or_pairs(raw, (out_dim, in_dim), "map matrix"))


def control_from_json(data: dict, norm=None) -> ControlFunction:
    data = _typed(data, "control")
    arity = _int_at_least(data.get("arity", 5), "control.arity", None)
    if arity not in (3, 5):
        raise ConfigError(f"control.arity must be 3 or 5, got {arity}")
    kind = data.get("kind")
    if kind == "power":
        return power_control(*_power_law(data, "control", None), arity=arity, norm=norm)
    if kind == "custom":
        name = data.get("name")
        if not isinstance(name, str) or name not in CUSTOM_CONTROLS:
            raise ConfigError(f"custom control {name!r} is not registered")
        return custom_control(CUSTOM_CONTROLS[name], arity=arity, norm=norm)
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


def _write_text(path, text: str, newline=None) -> Path:
    """``text`` at ``path``, parent directories made first; the one writer
    behind reports, traces and the sweep CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline=newline)
    return path


def write_json(path, data: dict) -> Path:
    """``data`` as :func:`dump_json` text at ``path``."""
    return _write_text(path, dump_json(data))


def read_json(path) -> dict:
    """The JSON value in the file at ``path``; text that is not JSON (or not
    UTF-8) is a ``ConfigError``."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


TRACE_HEADER = ("basis_index", "n", "error", "tail_bound")


def _float_reprs(values) -> list:
    """``repr(float(v))`` of every value, printed once per distinct value.

    Values are keyed by bit pattern, so ``0.0`` and ``-0.0`` stay apart and
    every NaN prints ``nan``.  Trace columns repeat a lot: fixed-direction
    errors and all tail bounds depend only on ``n`` and ``|x|``.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = repr(keys.view(np.float64).tolist())[1:-1].split(", ")
    return [text[i] for i in inverse.tolist()]


def _csv_text(header, rows) -> str:
    """What ``csv.writer`` writes for ``header`` and the string ``rows``,
    CRLF line ends included, when no field needs quoting."""
    return "\r\n".join([",".join(header), *map(",".join, rows), ""])


def _trace_texts(traces) -> list:
    """The CSV text of each trace of integer ``basis_index`` and ``n``: what
    ``csv.writer`` writes for ``(basis_index, n, repr(error), repr(tail))``
    under :data:`TRACE_HEADER`, CRLF line ends included.

    When every trace's ``basis_index``, ``n`` and ``tail_bound`` columns
    equal the first's, tails by bit pattern, as a run's do unless a basis
    ray failed, the ``"i,n,"`` prefixes and ``",tail\\r\\n"`` suffixes are
    built once, all errors go through one :func:`_float_reprs` call, and
    each text is one join over the interleaved strings.  Otherwise each
    trace is rendered alone.
    """
    columns = [list(zip(*rows)) or [()] * 4 for rows in traces]
    if not columns:
        return []
    basis, ns, _, tails = columns[0]
    bits = np.asarray(tails, dtype=np.float64).view(np.int64)
    if any(c[0] != basis or c[1] != ns
           or not np.array_equal(np.asarray(c[3], dtype=np.float64).view(np.int64), bits)
           for c in columns[1:]):
        return [_trace_texts([rows])[0] for rows in traces]
    size = len(basis)
    parts = [""] * (3 * size)
    parts[::3] = [f"{i},{n}," for i, n in zip(basis, ns)]
    parts[2::3] = [f",{tail}\r\n" for tail in _float_reprs(tails)]
    errors = _float_reprs([error for c in columns for error in c[2]])
    head = ",".join(TRACE_HEADER) + "\r\n"
    texts = []
    for k in range(len(columns)):
        parts[1::3] = errors[k * size : (k + 1) * size]
        texts.append(head + "".join(parts))
    return texts


def write_trace_csv(path, text: str) -> Path:
    """Convergence trace at ``path``: one row per (basis vector, iteration).

    ``text`` is a trace as :func:`_trace_texts` renders it; a run renders
    its four traces together and writes each text here.
    """
    return _write_text(path, text, newline="")
