import json
from pathlib import Path

import numpy as np
import pytest

import ternstab as ts
from ternstab import harness
from ternstab.cli import cli_main
from ternstab.serialize import algebra_to_json, write_json

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestAlgebraCheck:
    def test_trivial_matrix_builder_passes(self, capsys):
        code = cli_main(["algebra", "check", "--builder", "trivial-matrix", "--m", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "associativity: max residual 0.000e+00" in out
        assert "pass" in out

    @pytest.mark.parametrize("m, line", [
        (2, "module chains: over 1024 exhaustive tuples"),
        # d = 16: d**5 exceeds the budget, and the chains draw at most 100,000 tuples
        (4, "module chains: over 100000 sampled tuples"),
    ])
    def test_prints_the_module_tuples_and_mode_once(self, m, line, capsys):
        code = cli_main(["algebra", "check", "--builder", "trivial-matrix", "--m", str(m)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [s for s in out if s.startswith("module chains:")] == [line]
        # the line heads the chains' residuals
        assert out[out.index(line) + 1].startswith("module chain abc_d_x:")

    def test_odd_poly_cap3_passes(self, capsys):
        code = cli_main(["algebra", "check", "--builder", "odd-poly", "--cap", "3"])
        assert code == 0

    def test_odd_poly_cap5_fails_norm_inequality(self, capsys):
        # the unscaled 2-norm is not submultiplicative for the truncated
        # product once degree-5 coefficient pileup appears
        code = cli_main(["algebra", "check", "--builder", "odd-poly", "--cap", "5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "norm inequality" in out and "FAIL" in out

    def test_algebra_file_target(self, tmp_path, capsys):
        alg = ts.trivial_matrix_algebra(2)
        path = tmp_path / "alg.json"
        write_json(path, algebra_to_json(alg))
        assert cli_main(["algebra", "check", str(path)]) == 0

    def test_random_tensor_fails(self, tmp_path):
        rng = np.random.default_rng(0)
        alg = ts.TernaryAlgebra(2, "real", rng.uniform(size=(2, 2, 2, 2)))
        path = tmp_path / "bad.json"
        write_json(path, algebra_to_json(alg))
        assert cli_main(["algebra", "check", str(path)]) == 1

    def test_no_target_usage_error(self, capsys):
        assert cli_main(["algebra", "check"]) == 2

    @pytest.mark.parametrize("argv, field", [
        (["--builder", "odd-poly", "--cap", "4"], "algebra.cap"),
        (["--builder", "odd-poly", "--cap", "-1"], "algebra.cap"),
        (["--builder", "trivial-matrix", "--m", "0"], "algebra.m"),
    ])
    def test_bad_builder_size_is_a_coded_error(self, argv, field, capsys):
        code = cli_main(["algebra", "check", *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert "CONFIG_INVALID" in err and field in err


@pytest.mark.parametrize("argv", [
    ["stabilize", "FILE"],
    ["derive", "solve", "FILE"],
    ["experiment", "sweep", "FILE", "--param", "p=0.3:0.5:0.2"],
    ["algebra", "check", "FILE"],
])
def test_file_that_is_not_json_is_a_coded_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli_main([str(bad) if arg == "FILE" else arg for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "CONFIG_INVALID" in err and "not valid JSON" in err


def _with_input_file(tmp_path, key, document):
    """The odd-poly config with its algebra (``key`` "algebra") or its sigma
    map (``key`` "sigma") read from a file holding ``document``."""
    (tmp_path / "input.json").write_text(json.dumps(document))
    raw = json.loads((CONFIG_DIR / "oddpoly3_p05.json").read_text())
    if key == "algebra":
        raw["algebra"] = {"file": "input.json"}
    else:
        raw["maps"]["sigma"] = {"file": "input.json"}
    raw.pop("out")
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    return str(tmp_path / "cfg.json")


def _coded_failure(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "CONFIG_INVALID" in captured.err and "Traceback" not in captured.err
    return captured


def test_complex_twist_on_a_real_algebra_is_a_coded_error(tmp_path, capsys):
    raw = json.loads((CONFIG_DIR / "oddpoly3_p05.json").read_text())
    raw["maps"]["tau"] = {"matrix": [[[1, 0.5], [0, 0]], [[0, 0], [1, -0.5]]]}
    raw.pop("out")
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    captured = _coded_failure(["stabilize", str(tmp_path / "cfg.json"),
                               "--out", str(tmp_path / "out")], capsys)
    assert "maps.tau must be a real map on the real algebra" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("document", [[], 5, "text", None])
@pytest.mark.parametrize("argv", [
    ["stabilize", "CONFIG"],
    ["derive", "solve", "CONFIG"],
    ["experiment", "sweep", "CONFIG", "--param", "p=0.3:0.5:0.2"],
    ["algebra", "check", "CONFIG"],
    ["stabilize", "ALGEBRA"],
    ["stabilize", "SIGMA"],
])
def test_document_that_is_not_an_object_is_a_coded_error(argv, document, tmp_path, capsys):
    paths = {"CONFIG": tmp_path / "doc.json", "ALGEBRA": None, "SIGMA": None}
    paths["CONFIG"].write_text(json.dumps(document))
    paths["ALGEBRA"] = _with_input_file(tmp_path, "algebra", document)
    paths["SIGMA"] = _with_input_file(tmp_path, "sigma", document)
    _coded_failure([str(paths[arg]) if arg in paths else arg for arg in argv], capsys)


GOOD_ALGEBRA = algebra_to_json(ts.odd_polynomial_algebra(3))


@pytest.mark.parametrize("patch", [
    {"dim": "x"},
    {"dim": 1.5, "structure": [[[[1.0]]]]},
    {"dim": 0},
    {"dim": None},
    {"norm_scale": "x"},
    {"norm_scale": -1},
    {"norm_scale": float("inf")},
    {"flags": 5},
    {"flags": "associative"},
    {"flags": [1]},
    {"structure": "abc"},
    {"structure": [[[[1.0, None], [0.0, 0.0]]] * 2] * 2},
    {"structure": {"a": 1}},
    {"field": ["real"]},
])
@pytest.mark.parametrize("route", ["algebra check", "config algebra.file"])
def test_malformed_algebra_document_is_a_coded_error(patch, route, tmp_path, capsys):
    document = {**GOOD_ALGEBRA, **patch}
    if route == "algebra check":
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(document))
        argv = ["algebra", "check", str(path)]
    else:
        argv = ["stabilize", _with_input_file(tmp_path, "algebra", document)]
    _coded_failure(argv, capsys)


@pytest.mark.parametrize("patch, drop", [
    ({"out_dim": "two"}, None),
    ({"in_dim": 2.5}, None),
    ({}, "matrix"),
    ({}, "out_dim"),
    ({"matrix": "x"}, None),
    ({"matrix": [[1.0, None], [0.0, 1.0]]}, None),
    ({"matrix": [[1.0, 0.0], [0.0]]}, None),
])
def test_malformed_map_document_is_a_coded_error(patch, drop, tmp_path, capsys):
    document = {"in_dim": 2, "out_dim": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]], **patch}
    document.pop(drop, None)
    captured = _coded_failure(["stabilize", _with_input_file(tmp_path, "sigma", document)], capsys)
    assert "maps.sigma.file" in captured.err


@pytest.mark.parametrize("option, value", [
    ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
    ("--samples", "0"), ("--samples", "-1"), ("--seed", "-5"),
])
def test_algebra_check_rejects_bad_tol_and_samples(option, value, capsys):
    argv = ["algebra", "check", "--builder", "odd-poly", option, value]
    captured = _coded_failure(argv, capsys)
    assert option in captured.err
    assert captured.out == ""


class TestDeriveSolve:
    def test_prints_basis(self, capsys):
        code = cli_main(["derive", "solve", str(CONFIG_DIR / "oddpoly3_p05.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "derivation space dimension: 2" in out
        assert "rank margin: rows=16, nonzero_rows=2, columns=4, null_dim=2" in out
        assert "basis[0]" in out

    def test_sign_override(self, capsys):
        code = cli_main(
            ["derive", "solve", str(CONFIG_DIR / "oddpoly3_p05.json"), "--sign", "1,-1,-1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(1, -1, -1)" in out

    @pytest.mark.parametrize("command", ["derive", "stabilize"])
    @pytest.mark.parametrize("sign", ["1,2,1", "a"])
    def test_bad_sign_is_a_coded_error(self, command, sign, capsys):
        argv = ["solve"] if command == "derive" else []
        code = cli_main([command, *argv, str(CONFIG_DIR / "oddpoly3_p05.json"), "--sign", sign])
        assert code == 1
        assert "CONFIG_INVALID" in capsys.readouterr().err


class TestStabilize:
    def test_bundled_config_exits_zero(self, tmp_path, capsys):
        code = cli_main(
            ["stabilize", str(CONFIG_DIR / "trivial2x2_p05.json"), "--out", str(tmp_path / "run")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all_passed: True" in out
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["all_passed"] is True

    def test_exit_matches_all_passed(self, tmp_path):
        # forcing an error mode on the empty-space config flips the exit code
        raw = json.loads((CONFIG_DIR / "trivial2x2_p05.json").read_text())
        raw["derivation"]["on_empty"] = "error"
        cfg = tmp_path / "err.json"
        cfg.write_text(json.dumps(raw))
        code = cli_main(["stabilize", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 1
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["all_passed"] is False
        assert report["errors"][0]["code"] == "EMPTY_DERIVATION_SPACE"

    def test_tol_and_seed_overrides(self, tmp_path):
        code = cli_main(
            [
                "stabilize",
                str(CONFIG_DIR / "oddpoly3_p05.json"),
                "--out",
                str(tmp_path / "run"),
                "--tol",
                "1e-8",
                "--seed",
                "99",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config_echo"]["tol"] == 1e-8
        assert report["config_echo"]["seed"] == 99

    def test_missing_config(self, capsys):
        assert cli_main(["stabilize", "nope.json"]) == 1
        assert "CONFIG_INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("perturbation", "g", "theta"), -0.1),
            (("perturbation", "g", "theta"), float("inf")),
            (("perturbation", "g", "theta"), float("nan")),
            (("perturbation", "f", "theta"), "big"),
            (("perturbation", "h", "p"), 1.0),
            (("perturbation", "h", "p"), -0.5),
            (("perturbation", "k", "p"), float("nan")),
            (("control", "theta"), -1.0),
            (("control", "theta"), float("inf")),
            (("control", "p"), 1.0),
            (("control", "p"), -0.1),
            (("control", "p"), None),
            (("max_iter",), -1),
            (("max_iter",), 2.5),
            (("max_iter",), "many"),
        ],
    )
    def test_invalid_field_is_a_coded_error(self, path, value, tmp_path, capsys):
        raw = json.loads((CONFIG_DIR / "oddpoly3_p05.json").read_text())
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        code = cli_main(["stabilize", str(cfg), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert "CONFIG_INVALID" in err and ".".join(path[-2:]) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({("perturbation", "f", "direction"): "random"}, "perturbation.f.direction"),
            ({("perturbation", "f", "seed"): "abc"}, "perturbation.f.seed"),
            ({("algebra", "cap"): 4}, "algebra.cap"),
            ({("algebra", "cap"): "x"}, "algebra.cap"),
            ({("algebra", "builder"): "trivial-matrix", ("algebra", "m"): 0}, "algebra.m"),
            ({("algebra", "field"): "quaternion"}, "algebra.field"),
            ({("control", "arity"): "five"}, "control.arity"),
            ({("maps", "sigma"): {"random_seed": "q"}}, "maps.sigma.random_seed"),
            ({("maps", "sigma"): {"matrix": [[1, 2], [3]]}}, "maps.sigma.matrix"),
            ({("samples",): [1, 2]}, "samples"),
            ({("algebra",): "odd-poly"}, "algebra"),
            ({("derivation", "on_empty"): "explode"}, "derivation.on_empty"),
            ({("fallback_maps",): [{"tau": {"matrix": "x"}}]}, "fallback_maps.0.tau.matrix"),
            ({("out",): {"dir": 5}}, "out.dir"),
            ({("signs",): [float("inf"), 1, 1]}, "signs"),
            ({("perturbation", "f", "vector"): "abc"}, "perturbation.f.vector"),
            ({("perturbation", "f", "vector"): ["a", 1.0]}, "perturbation.f.vector"),
            ({("perturbation", "g", "vector"): [1.0, 2.0, 3.0]}, "perturbation.g.vector"),
            ({("perturbation", "h", "vector"): [1.0, float("inf")]}, "perturbation.h.vector"),
            ({("perturbation", "k", "vector"): [0.0, 0.0]}, "perturbation.k.vector"),
        ],
    )
    def test_malformed_field_is_a_coded_error(self, patch, field, tmp_path, capsys):
        raw = json.loads((CONFIG_DIR / "oddpoly3_p05.json").read_text())
        for path, value in patch.items():
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        code = cli_main(["stabilize", str(cfg), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert "CONFIG_INVALID" in err and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_zero_max_iter_is_valid(self):
        raw = json.loads((CONFIG_DIR / "oddpoly3_p05.json").read_text())
        raw["max_iter"] = 0
        assert ts.load_config(raw).max_iter == 0


    @pytest.mark.parametrize(
        "control, field",
        [
            ({"kind": "foo"}, "control.kind"),
            ({"kind": "custom", "name": "unregistered"}, "not registered"),
            ({"kind": "custom"}, "not registered"),
            ({"kind": "custom", "name": ["a"]}, "not registered"),
            ([], "control must be a dict"),
            ({"kind": "power", "p": 0.5}, "control.theta"),
            ({"kind": "power", "theta": "abc", "p": 0.5}, "control.theta"),
            ({"kind": "power", "theta": float("nan"), "p": 0.5}, "control.theta"),
        ],
    )
    @pytest.mark.parametrize("command", [["stabilize"], ["derive", "solve"]])
    def test_bad_control_fails_before_the_solve(self, control, field, command, tmp_path,
                                                capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the derivation solve ran")

        monkeypatch.setattr("ternstab.cli.solve_exact_derivations", no_solve)
        monkeypatch.setattr("ternstab.harness.solve_exact_derivations", no_solve)
        raw = json.loads((CONFIG_DIR / "oddpoly3_p05.json").read_text())
        raw["control"] = control
        raw["out"] = {"dir": str(tmp_path / "run")}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        code = cli_main([*command, str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "CONFIG_INVALID" in err and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main(
            [
                "experiment",
                "sweep",
                str(CONFIG_DIR / "oddpoly3_p05.json"),
                "--param",
                "p=0.3:0.7:0.2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,value,all_passed")
        assert len(lines) == 4

    def test_bad_param_spec(self, capsys):
        code = cli_main(
            ["experiment", "sweep", str(CONFIG_DIR / "oddpoly3_p05.json"), "--param", "p=bad"]
        )
        assert code == 1

    def test_bad_value_fails_before_the_first_point(self, tmp_path, capsys, monkeypatch):
        # p = 0.4 and 0.7 are valid, 1.0 is not: no point runs
        def no_run(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        out = tmp_path / "sweep.csv"
        code = cli_main(["experiment", "sweep", str(CONFIG_DIR / "oddpoly3_p05.json"),
                         "--param", "p=0.4:1.0:0.3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and "CONFIG_INVALID" in captured.err
        assert "control.p must lie in [0, 1), got 1.0" in captured.err
        assert captured.out == "" and not out.exists()


    @pytest.mark.parametrize(
        "spec",
        ["p=0.9:0.1:0.1", "p=nan:1:0.1", "p=0.1:nan:0.1", "p=0.1:inf:0.5",
         "p=-inf:0.5:0.1", "p=0.1:0.9:inf", "p=0:1:1e-300", "p=0:10000:1"],
    )
    def test_empty_or_unbounded_spec_is_a_coded_error(self, spec, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main(["experiment", "sweep", str(CONFIG_DIR / "oddpoly3_p05.json"),
                         "--param", spec, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and "CONFIG_INVALID" in err and spec in err
        assert not out.exists()


class TestRelativeInputFiles:
    """Overrides and sweep points keep resolving input files against the
    config's directory when the command runs from elsewhere."""

    @pytest.fixture
    def config_in_subdir(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfgdir"
        write_json(cfg_dir / "alg.json", algebra_to_json(ts.odd_polynomial_algebra(3)))
        raw = json.loads((CONFIG_DIR / "oddpoly3_p05.json").read_text())
        raw["algebra"] = {"file": "alg.json"}
        raw.pop("out")
        write_json(cfg_dir / "cfg.json", raw)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        return cfg_dir / "cfg.json"

    def test_stabilize_with_overrides(self, config_in_subdir, tmp_path, capsys):
        code = cli_main(
            [
                "stabilize", str(config_in_subdir), "--seed", "3", "--tol", "1e-9",
                "--sign", "1,1,1", "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config_echo"]["seed"] == 3
        assert report["config_echo"]["tol"] == 1e-9

    def test_sweep_with_seed(self, config_in_subdir, capsys):
        code = cli_main(
            ["experiment", "sweep", str(config_in_subdir), "--param", "p=0.3:0.5:0.2",
             "--seed", "4"]
        )
        assert code == 0, capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand(self):
        assert cli_main(["conjugate"]) == 2

    def test_no_arguments(self):
        assert cli_main([]) == 2

    def test_missing_required_positional(self):
        assert cli_main(["stabilize"]) == 2
