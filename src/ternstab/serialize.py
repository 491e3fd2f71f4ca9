"""JSON and CSV interchange.

Conventions: complex entries are encoded as two-element ``[re, im]`` lists,
real entries as plain numbers.  Algebras carry their field tag; arrays are
decoded by probing the nesting depth against the declared shape.  Reports
are written with sorted keys and fixed separators so that a rerun with the
same seed is byte-identical (the timestamp field aside).

Decoders only type what they read and check what the document alone can
know (keys, shapes, registered names); every range rule is the library's,
reported as a ``ConfigError`` under the field's name (:func:`_checked`).
"""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .algebra import COMPLEX, TernaryAlgebra
from .control import ControlFunction
from .errors import ConfigError, TernstabError
from .maps import LinearMap

#: registry for named custom control functions usable from config files:
#: each name holds the function and its declared ratio
CUSTOM_CONTROLS: dict = {}


def register_custom_control(name: str, fn, ratio: float) -> None:
    """``fn``, with the ratio it declares (see :func:`custom_control`), as the
    config control ``{"kind": "custom", "name": name}``."""
    CUSTOM_CONTROLS[name] = (fn, ratio)


def _typed(value, name: str, kind: type = dict):
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number: a real number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """``value`` as an int: an integer, or a float with an integral value."""
    if not (_is_number(value)
            and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    try:
        if _is_number(value):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


@contextmanager
def _checked(prefix: str, **renamed):
    """Turn a ``ValueError`` raised inside into a ``ConfigError`` prefixed
    with ``prefix``, the path of the section whose values the library
    checked.  A library message starts with the argument's name, so the
    prefix ``control.`` and the message ``p must ...`` give ``control.p must
    ...``; ``renamed`` maps an argument to the field that holds it where
    their names differ.  Every ``TernstabError`` passes unchanged."""
    try:
        yield
    except TernstabError:
        raise
    except ValueError as exc:
        message = str(exc)
        for argument, name in renamed.items():
            if message.startswith(argument + " "):
                message = name + message[len(argument):]
        raise ConfigError(prefix + message) from None


def encode_array(arr: np.ndarray):
    """Nested lists; complex leaves become [re, im] pairs."""
    if np.iscomplexobj(arr):
        paired = np.stack([arr.real, arr.imag], axis=-1)
        return paired.tolist()
    return np.asarray(arr, dtype=np.float64).tolist()


def _real_or_pairs(data, shape: tuple, name: str) -> np.ndarray:
    """``data`` as a real array of ``shape``, or as a complex one when it
    nests ``[re, im]`` pairs; anything else, also a leaf that is not a
    finite number (a string or a bool too), is a ``ConfigError``."""
    def numbers_only(node) -> bool:
        return all(map(numbers_only, node)) if isinstance(node, list) else _is_number(node)

    try:
        raw = np.asarray(data, dtype=np.float64) if numbers_only(data) else None
    except (TypeError, ValueError, OverflowError):
        raw = None
    if raw is None or not np.all(np.isfinite(raw)):
        raise ConfigError(f"{name} must be a nested list of finite numbers")
    if raw.shape == shape:
        return raw
    if raw.shape == shape + (2,):
        return raw[..., 0] + 1j * raw[..., 1]
    raise ConfigError(f"{name} shape {raw.shape} does not match {shape} (real or [re, im])")


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
        dim = _integer(data["dim"], "algebra dim")
        field_tag = data["field"]
        structure = _real_or_pairs(data["structure"], (dim,) * 4, "algebra structure")
    except KeyError as missing:
        raise ConfigError(f"algebra document lacks key {missing}") from None
    if np.iscomplexobj(structure) != (field_tag == COMPLEX):
        raise ConfigError(f"algebra structure must nest [re, im] pairs exactly when the "
                          f"field is complex, got field {field_tag!r}")
    norm_scale = _number(data.get("norm_scale", 1.0), "algebra norm_scale")
    flags = _typed(data.get("flags", []), "algebra flags", list)
    if not all(isinstance(flag, str) for flag in flags):
        raise ConfigError(f"algebra flags must be strings, got {flags!r}")
    with _checked("algebra "):
        return TernaryAlgebra(dim=dim, field=field_tag, structure=structure,
                              norm_scale=norm_scale, flags=frozenset(flags))


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
    shape = (_integer(out_dim, "map out_dim"), _integer(in_dim, "map in_dim"))
    return LinearMap(_real_or_pairs(raw, shape, "map matrix"))


def control_from_json(data: dict, norm=None) -> ControlFunction:
    data = _typed(data, "control")
    arity = _integer(data.get("arity", 5), "control.arity")
    kind, theta, p, fn, ratio = data.get("kind"), 0.0, 0.0, None, None
    if kind == "power":
        theta, p = (_number(data.get(key), f"control.{key}") for key in ("theta", "p"))
    elif kind == "custom":
        name = data.get("name")
        if not isinstance(name, str) or name not in CUSTOM_CONTROLS:
            raise ConfigError(f"custom control {name!r} is not registered")
        fn, ratio = CUSTOM_CONTROLS[name]
    with _checked("control."):
        return ControlFunction(kind=kind, arity=arity, theta=theta, p=p, fn=fn, norm=norm,
                               ratio=ratio)


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
