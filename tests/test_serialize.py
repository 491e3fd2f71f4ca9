import csv
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import ternstab as ts
from ternstab.errors import ConfigError
from ternstab.serialize import (
    TRACE_HEADER,
    _float_reprs,
    _trace_texts,
    algebra_from_json,
    algebra_to_json,
    control_from_json,
    control_to_json,
    dump_json,
    linear_map_from_json,
    linear_map_to_json,
    register_custom_control,
    write_json,
    write_trace_csv,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestAlgebraRoundTrip:
    def test_real(self, matrix2):
        doc = algebra_to_json(matrix2)
        assert doc["dim"] == 4 and doc["field"] == "real"
        assert doc["flags"] == ["associative"]
        back = algebra_from_json(doc)
        np.testing.assert_array_equal(back.structure, matrix2.structure)
        assert back.norm_scale == matrix2.norm_scale

    def test_complex(self):
        rng = np.random.default_rng(0)
        tensor = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
        alg = ts.TernaryAlgebra(2, "complex", tensor, norm_scale=1.5)
        back = algebra_from_json(algebra_to_json(alg))
        np.testing.assert_array_equal(back.structure, alg.structure)
        assert back.norm_scale == 1.5

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            algebra_from_json({"dim": 2, "field": "real"})

    def test_wrong_shape(self):
        with pytest.raises(ConfigError):
            algebra_from_json({"dim": 2, "field": "real", "structure": [[0.0]]})

    def test_bad_field_tag(self):
        with pytest.raises(ConfigError):
            algebra_from_json({"dim": 1, "field": "rational", "structure": [[[[1.0]]]]})


class TestLinearMapRoundTrip:
    def test_real(self):
        lm = ts.LinearMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
        doc = linear_map_to_json(lm)
        assert doc == {"in_dim": 2, "out_dim": 2, "matrix": [[1.0, 2.0], [3.0, 4.0]]}
        back = linear_map_from_json(doc)
        np.testing.assert_array_equal(back.matrix, lm.matrix)

    def test_complex(self):
        lm = ts.LinearMap(np.array([[1.0 + 2.0j]]))
        back = linear_map_from_json(linear_map_to_json(lm))
        np.testing.assert_array_equal(back.matrix, lm.matrix)

    def test_rectangular(self):
        lm = ts.LinearMap(np.ones((3, 2)))
        back = linear_map_from_json(linear_map_to_json(lm))
        assert (back.out_dim, back.in_dim) == (3, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            linear_map_from_json({"in_dim": 2, "out_dim": 2, "matrix": [[1.0]]})


class TestControlConfig:
    def test_power(self):
        c = control_from_json({"kind": "power", "theta": 0.5, "p": 0.25, "arity": 5})
        assert c.kind == "power" and c.theta == 0.5 and c.p == 0.25
        assert control_to_json(c) == {"kind": "power", "theta": 0.5, "p": 0.25, "arity": 5}

    def test_unregistered_custom(self):
        with pytest.raises(ConfigError, match="not registered"):
            control_from_json({"kind": "custom", "name": "nope", "arity": 5})

    def test_registered_custom(self):
        register_custom_control("always-two", lambda *args: 2.0, 0.5)
        c = control_from_json({"kind": "custom", "name": "always-two", "arity": 3})
        assert c.evaluate(np.zeros(1), np.zeros(1), np.zeros(1)) == 2.0
        assert c.ratio == 0.5
        assert control_to_json(c, "always-two") == {"kind": "custom", "name": "always-two",
                                                    "arity": 3}

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -0.5, 1.0, 2.0, True, None,
                                       "0.5"])
    def test_registered_custom_with_a_bad_ratio(self, ratio):
        register_custom_control("bad-ratio", lambda *args: 0.0, ratio)
        with pytest.raises(ConfigError, match="control.ratio must lie in") as err:
            control_from_json({"kind": "custom", "name": "bad-ratio", "arity": 5})
        assert err.value.code == "CONFIG_INVALID"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            control_from_json({"kind": "exponential"})


    @pytest.mark.parametrize(
        "document",
        [
            [],
            {"kind": "power", "p": 0.5},
            {"kind": "power", "theta": 0.5},
            {"kind": "power", "theta": "abc", "p": 0.5},
            {"kind": "power", "theta": float("inf"), "p": 0.5},
            {"kind": "power", "theta": float("nan"), "p": 0.5},
            {"kind": "power", "theta": 0.5, "p": float("nan")},
            {"kind": "power", "theta": 0.5, "p": 0.5, "arity": 4},
            {"kind": "power", "theta": 0.5, "p": 0.5, "arity": "x"},
            {"kind": "custom", "name": ["always-two"]},
            {"kind": "custom"},
            {},
        ],
    )
    def test_malformed_document_is_a_config_error(self, document):
        with pytest.raises(ConfigError):
            control_from_json(document)


def _csv_writer_reference(path, rows) -> Path:
    """The row-by-row ``csv.writer`` version of a trace file, which the
    one-write versions replaced."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for basis_index, n, error, tail in rows:
            writer.writerow([basis_index, n, repr(float(error)), repr(float(tail))])
    return path


def _write_rows(path, rows) -> Path:
    """One trace written as a run writes it: rendered, then written."""
    return write_trace_csv(path, _trace_texts([rows])[0])


EXTREMES = (math.nan, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072009e-308, math.inf,
            -math.inf, 1.7976931348623157e308, 0.1)


def _run_trace(scale, tail=None):
    """A direct-method trace of 4 basis vectors, 30 rows each: the errors
    depend on ``n`` and the basis vector, the tails on ``n`` alone, so the
    traces of one run share them."""
    return [(i, n, scale * 0.5 ** (n / 2) * (1 + i % 3),
             0.6 * 0.5 ** (n / 2) if tail is None else tail)
            for i in range(4) for n in range(1, 31)]


class TestWriters:
    def test_dump_json_is_stable(self):
        a = dump_json({"b": 1, "a": [1.5, 2.25]})
        b = dump_json({"a": [1.5, 2.25], "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_trace_csv(self, tmp_path):
        path = _write_rows(tmp_path / "t.csv", [(0, 1, 0.5, 0.25), (1, 1, 0.125, float("nan"))])
        lines = path.read_text().splitlines()
        assert lines[0] == "basis_index,n,error,tail_bound"
        assert lines[1] == "0,1,0.5,0.25"
        assert lines[2].startswith("1,1,0.125,nan")

    @pytest.mark.parametrize("rows", [
        [],
        [(0, 1, 0.5, 0.25), (1, 1, 0.125, math.nan), (1, 2, math.nan, math.nan)],
        [(0, n, 2.0**-n * 0.3, math.nan) for n in range(1, 40)],
        [(2, 1, 5e-324, 2.2250738585072014e-308), (2, 2, 1e-310, -0.0),
         (3, 3, 1.7976931348623157e308, math.inf), (3, 4, -math.inf, 1e300),
         (10, 1000, 0.1 + 0.2, 1.0 / 3.0), (0, 0, 0.0, 1e22), (0, 0, 1e16, 123456789.0)],
        # numpy scalars, as a caller may pass them
        [(np.int64(4), np.int64(7), np.float64(0.1), np.float32(0.1)),
         (5, 8, np.float64(-0.0), np.float64("nan"))],
        # a direct-method trace: errors and tails depend on n and |x| only
        [(i, n, 0.3 * 0.5 ** (n / 2) * (1 + i % 3), 0.6 * 0.5 ** (n / 2) * (1 + i % 3))
         for i in range(16) for n in range(1, 65)],
    ], ids=["empty", "nan-tails", "long", "extremes", "numpy-scalars", "repetitive"])
    def test_trace_csv_equals_csv_writer(self, tmp_path, rows):
        _csv_writer_reference(tmp_path / "want.csv", rows)
        got = _write_rows(tmp_path / "got.csv", rows).read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == len(rows) + 1

    @pytest.mark.parametrize("traces", [
        [_run_trace(errors) for errors in (0.5, 0.25, 0.125, 3.0)],
        # g's ray of basis vector 0 overflowed at n = 3, so its rows differ
        [_run_trace(0.5), [row for row in _run_trace(0.25) if row[0] or row[1] <= 2],
         _run_trace(0.125), _run_trace(3.0)],
        # the same tails but for the sign of a zero, which prints apart
        [_run_trace(0.5, tail=0.0), _run_trace(0.25, tail=0.0),
         _run_trace(0.125, tail=-0.0), _run_trace(3.0, tail=0.0)],
        [[(i, n, EXTREMES[(j + k) % len(EXTREMES)], EXTREMES[j % len(EXTREMES)])
          for j, (i, n, _, _) in enumerate(_run_trace(0.5))] for k in range(4)],
        # a custom control: each ray sums its own tail series
        [[(i, n, error * 2.0**-n, (1 + i) * 0.7**n) for i in range(3) for n in range(1, 20)]
         for error in (0.5, 0.25, 0.125, 3.0)],
        [[], [], [], []],
        [],
    ], ids=["shared", "fallback", "signed-zero-tails", "extreme-errors", "custom-tails",
            "empty", "no-maps"])
    def test_run_traces_equal_csv_writer(self, tmp_path, traces):
        texts = _trace_texts(traces)
        assert len(texts) == len(traces)
        for k, (rows, text) in enumerate(zip(traces, texts)):
            want = _csv_writer_reference(tmp_path / f"want{k}.csv", rows).read_bytes()
            assert text.encode() == want
            assert write_trace_csv(tmp_path / f"got{k}.csv", text).read_bytes() == want


def _nan(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


class TestFloatReprs:
    @pytest.mark.parametrize("values", [
        (),
        [0.1 * k for k in range(64)] * 64,
        [0.0, -0.0, 0.0, -0.0, 1.0],
        [math.nan, -math.nan, _nan(0x7FF0000000000001), _nan(0xFFF8000000000123),
         _nan(0x7FFFFFFFFFFFFFFF), math.nan],
        [math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
         2.2250738585072014e-308, 1.7976931348623157e308],
        [np.float32(0.1), np.float64(0.1), np.float32(-0.0), np.float64(1e16),
         np.float32(3.4028235e38), np.float64(123456789.0)],
    ], ids=["empty", "64-distinct-over-4096", "signed-zeros", "nan-payloads",
            "inf-and-subnormals", "numpy-scalars"])
    def test_equals_repr_of_each_value(self, values):
        assert _float_reprs(values) == [repr(float(v)) for v in values]


def _json_or_trace(path: Path, data) -> Path:
    return write_json(path, data) if isinstance(data, dict) else _write_rows(path, data)


class TestRewrites:
    LONG = {"values": [0.1 * k for k in range(500)]}
    SHORT = {"values": [1.5]}

    @pytest.mark.parametrize("long, short", [
        (LONG, SHORT),
        ([(0, n, 0.5**n, 0.25**n) for n in range(1, 300)], [(0, 1, 0.5, math.nan)]),
    ], ids=["json", "trace"])
    def test_shorter_rewrite_leaves_only_the_new_bytes(self, tmp_path, long, short):
        _json_or_trace(tmp_path / "want", short)
        path = _json_or_trace(tmp_path / "got", long)
        _json_or_trace(path, short)
        assert path.read_bytes() == (tmp_path / "want").read_bytes()

    def test_write_through_a_symlink_updates_the_target(self, tmp_path):
        target = write_json(tmp_path / "target.json", self.LONG)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        write_json(link, self.SHORT)
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text() == dump_json(self.SHORT)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_matches_write_text(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            ours = write_json(tmp_path / "sub" / "ours.json", self.SHORT)
            theirs = tmp_path / "theirs.json"
            theirs.write_text(dump_json(self.SHORT))
        finally:
            os.umask(previous)
        assert stat.S_IMODE(ours.stat().st_mode) == stat.S_IMODE(theirs.stat().st_mode)
        assert stat.S_IMODE(ours.stat().st_mode) == 0o666 & ~umask

    def test_rerun_into_a_used_directory_equals_a_fresh_one(self, tmp_path):
        # the first run into "used" has a smaller tol: longer traces
        raw = json.loads((CONFIG_DIR / "trivial2x2_p05.json").read_text())
        longer = dict(raw, tol=raw["tol"] * 1e-3)
        ts.run_experiment(longer, out_dir=tmp_path / "used")
        ts.run_experiment(raw, out_dir=tmp_path / "used")
        ts.run_experiment(raw, out_dir=tmp_path / "fresh")

        def contents(run_dir):
            return {path.name: [line for line in path.read_bytes().splitlines(keepends=True)
                                if b'"timestamp"' not in line]
                    for path in sorted(run_dir.iterdir())}

        fresh = contents(tmp_path / "fresh")
        assert sorted(fresh) == ["report.json", *(f"trace_{n}.csv" for n in "fghk")]
        assert contents(tmp_path / "used") == fresh
