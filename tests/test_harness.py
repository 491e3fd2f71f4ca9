import copy
import csv
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

import ternstab as ts
from ternstab import harness, stability
from ternstab.errors import ConfigError, DimensionMismatch
from ternstab.harness import parse_sweep_spec
from ternstab.serialize import register_custom_control

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_raw(name):
    return json.loads((CONFIG_DIR / name).read_text())


class TestPerturbMap:
    def test_zero_theta_is_identity_on_base(self, oddpoly_derivation):
        spec = ts.PerturbationSpec(theta=0.0, p=0.5)
        f = ts.perturb_map(oddpoly_derivation, spec)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.standard_normal(2)
            np.testing.assert_array_equal(f(x), oddpoly_derivation(x))

    def test_magnitude_example(self, oddpoly_derivation):
        # |x| = 4, p = 0.5, theta = 0.1 -> offset norm 0.2
        spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="fixed")
        f = ts.perturb_map(oddpoly_derivation, spec)
        x = np.array([4.0, 0.0])
        assert np.linalg.norm(f(x) - oddpoly_derivation(x)) == pytest.approx(0.2, abs=1e-14)

    def test_magnitude_exact_for_hash_direction(self, oddpoly_derivation):
        spec = ts.PerturbationSpec(theta=0.3, p=0.25, direction="hash", seed=42)
        f = ts.perturb_map(oddpoly_derivation, spec)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(2)
            got = np.linalg.norm(f(x) - oddpoly_derivation(x))
            want = 0.3 * np.linalg.norm(x) ** 0.25
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_maps_to_zero(self, oddpoly_derivation):
        for direction in ("fixed", "hash"):
            spec = ts.PerturbationSpec(theta=0.5, p=0.1, direction=direction)
            f = ts.perturb_map(oddpoly_derivation, spec)
            np.testing.assert_array_equal(f(np.zeros(2)), np.zeros(2))

    def test_same_seed_bitwise_identical(self, oddpoly_derivation):
        spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=7)
        f1 = ts.perturb_map(oddpoly_derivation, spec)
        f2 = ts.perturb_map(oddpoly_derivation, spec)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(2)
            np.testing.assert_array_equal(f1(x), f2(x))

    def test_different_seeds_differ(self, oddpoly_derivation):
        a = ts.perturb_map(
            oddpoly_derivation, ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=1)
        )
        b = ts.perturb_map(
            oddpoly_derivation, ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=2)
        )
        x = np.array([1.0, 2.0])
        assert not np.array_equal(a(x), b(x))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ts.PerturbationSpec(theta=-0.1, p=0.5)
        with pytest.raises(ValueError):
            ts.PerturbationSpec(theta=0.1, p=1.0)
        with pytest.raises(ValueError):
            ts.PerturbationSpec(theta=0.1, p=0.5, direction="sideways")

    @pytest.mark.parametrize("vector", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0], [],
                                        [[1.0, 0.0]], ["a", 1.0], 3.0])
    def test_spec_rejects_a_bad_vector(self, vector):
        # [nan, 1] once gave [nan, nan] and [inf, 1] gave [nan, 1] from
        # perturb_map, and [0, 0] failed only there
        with pytest.raises(ValueError, match="vector must be a nonzero list of finite numbers"):
            ts.PerturbationSpec(theta=0.1, p=0.5, vector=vector)

    def test_vector_whose_squares_underflow_gets_its_direction(self):
        # its 2-norm rounds to 0; it once raised ConfigError from perturb_map
        spec = ts.PerturbationSpec(theta=0.5, p=0.0, vector=[5e-324, 0.0])
        f = ts.perturb_map(ts.LinearMap.identity(2), spec)
        np.testing.assert_array_equal(f(np.array([1.0, 2.0])), [1.5, 2.0])

    def test_wrong_vector_length_is_a_dimension_mismatch(self):
        spec = ts.PerturbationSpec(theta=0.1, p=0.5, vector=[1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch, match="fixed direction has shape"):
            ts.perturb_map(ts.LinearMap.identity(2), spec)

    def test_complex_base_map(self):
        base = ts.LinearMap(np.eye(2, dtype=np.complex128))
        spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=3)
        f = ts.perturb_map(base, spec)
        x = np.array([1.0 + 1.0j, 0.0])
        out = f(x)
        assert out.dtype == np.complex128
        assert np.linalg.norm(out - x) == pytest.approx(
            0.1 * np.linalg.norm(x) ** 0.5, rel=1e-12
        )


class TestRunExperiment:
    def test_bundled_oddpoly_config_passes(self):
        result = ts.run_experiment(CONFIG_DIR / "oddpoly3_p05.json", write_files=False)
        assert result.all_passed
        report = result.report
        assert report["errors"] == []
        assert report["recovered"]["truth_error"]["D"] <= 1e-9
        assert report["bounds"]["max_violation"] <= 0.0
        assert report["identity_residuals"]["passed"]

    def test_bundled_trivial_config_uses_zero_fallback(self):
        result = ts.run_experiment(CONFIG_DIR / "trivial2x2_p05.json", write_files=False)
        assert result.all_passed
        notes = result.report["notes"]
        assert any(n["code"] == "EMPTY_DERIVATION_SPACE" for n in notes)

    def test_zero_perturbation_recovers_exactly(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["control"] = {"kind": "power", "theta": 0.0, "p": 0.5, "arity": 5}
        for name in "fghk":
            raw["perturbation"][name]["theta"] = 0.0
        result = ts.run_experiment(raw, write_files=False)
        assert result.all_passed
        truth = result.report["recovered"]["truth_error"]
        assert max(truth.values()) <= 1e-12
        iters = result.report["recovered"]["iterations"]
        assert all(n == 0 for seq in iters.values() for n in seq)

    def test_iteration_counts_follow_apriori_formula(self):
        counts = {}
        for p in (0.1, 0.9):
            raw = load_raw("oddpoly3_p05.json")
            raw["control"]["p"] = p
            for name in "fghk":
                raw["perturbation"][name]["p"] = p
            raw["tol"] = 1e-8
            raw["samples"] = {
                "bound_points": 5,
                "identity_triples": 5,
                "hypothesis_tuples": 0,
                "linearity_points": 1,
            }
            result = ts.run_experiment(raw, write_files=False)
            n_used = max(result.report["recovered"]["iterations"]["f"])
            denom = 1 - 2 ** (p - 1)
            apriori = math.ceil(math.log2(0.1 / (1e-8 * denom)) / (1 - p))
            assert n_used <= apriori
            assert n_used >= apriori - 1
            counts[p] = n_used
        assert counts[0.9] > counts[0.1]

    @pytest.mark.parametrize(
        "count, verdict",
        [("bound_points", "bounds"), ("identity_triples", "identity_residuals"),
         ("linearity_points", None)],
    )
    def test_zero_count_does_not_pass(self, count, verdict):
        raw = load_raw("oddpoly3_p05.json")
        raw["samples"] = {
            "bound_points": 3,
            "identity_triples": 3,
            "hypothesis_tuples": 0,
            "linearity_points": 1,
        }
        assert ts.run_experiment(raw, write_files=False).all_passed
        raw["samples"][count] = 0
        result = ts.run_experiment(raw, write_files=False)
        assert not result.all_passed
        assert result.report["all_passed"] is False
        assert not result.report["errors"] and not result.report["recovered"]["failures"]
        if verdict is not None:
            assert result.report[verdict]["passed"] is False

    def test_empty_space_error_mode(self):
        raw = load_raw("trivial2x2_p05.json")
        raw["derivation"]["on_empty"] = "error"
        result = ts.run_experiment(raw, write_files=False)
        assert not result.all_passed
        assert result.report["errors"][0]["code"] == "EMPTY_DERIVATION_SPACE"
        assert result.report["recovered"] is None

    def test_nonconvergence_recorded_per_basis(self):
        # max_iter far below the a-priori requirement: every basis vector
        # fails with the NONCONVERGENT code and the run is marked failed
        raw = load_raw("oddpoly3_p05.json")
        raw["max_iter"] = 5
        raw["samples"]["hypothesis_tuples"] = 0
        result = ts.run_experiment(raw, write_files=False)
        assert not result.all_passed
        failures = result.report["recovered"]["failures"]
        assert failures and all(f["code"] == "NONCONVERGENT" for f in failures)

    def test_divergent_control_reported(self):
        register_custom_control(
            "test-divergent", lambda *args: float(sum(np.linalg.norm(a) ** 2 for a in args)), 0.9
        )
        raw = load_raw("oddpoly3_p05.json")
        raw["control"] = {"kind": "custom", "name": "test-divergent", "arity": 5}
        result = ts.run_experiment(raw, write_files=False)
        assert not result.all_passed
        assert result.report["errors"][0]["code"] == "CONTROL_DIVERGENT"

    def test_report_files_and_traces(self, tmp_path):
        result = ts.run_experiment(
            CONFIG_DIR / "oddpoly3_p05.json", out_dir=tmp_path / "run"
        )
        assert result.report_path.exists()
        report = json.loads(result.report_path.read_text())
        for key in ("config_echo", "recovered", "bounds", "hypothesis",
                    "identity_residuals", "all_passed", "timestamp"):
            assert key in report
        for name in "fghk":
            trace = tmp_path / "run" / f"trace_{name}.csv"
            assert trace.exists()
            header = trace.read_text().splitlines()[0]
            assert header == "basis_index,n,error,tail_bound"

    def test_failed_rerun_removes_stale_traces(self, tmp_path):
        raw = load_raw("trivial2x2_p05.json")
        first = ts.run_experiment(raw, out_dir=tmp_path)
        assert sorted(p.name for p in first.trace_paths.values()) == [
            f"trace_{name}.csv" for name in "fghk"]
        traces = {name: path.read_bytes() for name, path in first.trace_paths.items()}
        raw["derivation"]["on_empty"] = "error"
        failed = ts.run_experiment(raw, out_dir=tmp_path)
        assert failed.report["errors"][0]["code"] == "EMPTY_DERIVATION_SPACE"
        assert failed.trace_paths == {}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        # a successful rerun writes the same traces again
        raw["derivation"]["on_empty"] = "zero"
        again = ts.run_experiment(raw, out_dir=tmp_path)
        assert {name: path.read_bytes() for name, path in again.trace_paths.items()} == traces

    def test_determinism_byte_identical_reports(self, tmp_path):
        ts.run_experiment(CONFIG_DIR / "oddpoly3_p05.json", out_dir=tmp_path / "a")
        ts.run_experiment(CONFIG_DIR / "oddpoly3_p05.json", out_dir=tmp_path / "b")
        lines_a = (tmp_path / "a" / "report.json").read_text().splitlines()
        lines_b = (tmp_path / "b" / "report.json").read_text().splitlines()
        stripped_a = [l for l in lines_a if '"timestamp"' not in l]
        stripped_b = [l for l in lines_b if '"timestamp"' not in l]
        assert stripped_a == stripped_b

    def test_jordan_mode_run(self):
        result = ts.run_experiment(CONFIG_DIR / "oddpoly3_jordan.json", write_files=False)
        assert result.all_passed
        assert result.report["identity_residuals"]["mode"] == "jordan"
        assert result.report["hypothesis"]["mode"] == "jordan"

    def test_complex_field_run(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["algebra"]["field"] = "complex"
        result = ts.run_experiment(raw, write_files=False)
        assert result.all_passed
        assert result.report["recovered"]["truth_error"]["D"] <= 1e-9
        # the scalar grid switches to 16 unit-circle points over the
        # complex field
        assert result.report["hypothesis"]["lambda_count"] == 16


class TestConfigLoading:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            ts.load_config("no/such/config.json")

    def test_bad_tolerance(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["tol"] = 0.0
        with pytest.raises(ConfigError, match="tol must be finite and positive"):
            ts.load_config(raw)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("samples", "bound_points"), -3),
            (("samples", "identity_triples"), -1),
            (("samples", "hypothesis_tuples"), -1),
            (("samples", "linearity_points"), -2),
            (("derivation", "pick"), -1),
            (("lambda_grid",), 1),
            (("seed",), -1),
            (("seed",), "abc"),
            (("tol",), float("nan")),
            (("tol",), float("inf")),
            (("derivation", "rank_tol"), float("nan")),
            (("signs",), [1, 2, 1]),
        ],
    )
    def test_invalid_field(self, path, value):
        raw = load_raw("oddpoly3_p05.json")
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=path[-1]):
            ts.load_config(raw)

    def test_zero_counts_keep_their_meaning(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["samples"] = {key: 0 for key in raw["samples"]}
        cfg = ts.load_config(raw)
        assert set(cfg.samples.values()) == {0}

    def test_mode_arity_mismatch(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["mode"] = "jordan"  # control still has arity 5
        with pytest.raises(ConfigError, match="arity"):
            ts.load_config(raw)

    @pytest.mark.parametrize(
        "control",
        [
            {"kind": "foo", "arity": 5},
            {"kind": "custom", "name": "unregistered", "arity": 5},
            {"arity": 5},
            [],
            {"kind": "power", "p": 0.5},
            {"kind": "power", "theta": 0.1},
            {"kind": "power", "theta": "abc", "p": 0.5},
            {"kind": "power", "theta": math.nan, "p": 0.5},
            {"kind": "power", "theta": 0.1, "p": math.nan},
            {"kind": "power", "theta": 0.1, "p": 0.5, "arity": 4},
        ],
    )
    def test_bad_control_is_reported_on_load(self, control):
        raw = load_raw("oddpoly3_p05.json")
        raw["control"] = control
        with pytest.raises(ConfigError):
            ts.load_config(raw)

    def test_loaded_control_is_built(self):
        register_custom_control("test-zero", lambda *args: 0.0, 0.5)
        raw = load_raw("oddpoly3_p05.json")
        cfg = ts.load_config(raw)
        assert (cfg.control.kind, cfg.control.arity) == ("power", 5)
        assert (cfg.control.theta, cfg.control.p) == (raw["control"]["theta"],
                                                      raw["control"]["p"])
        assert cfg.control.norm == cfg.algebra.norm_of
        raw["control"] = {"kind": "custom", "name": "test-zero"}
        raw["mode"] = "jordan"
        cfg = ts.load_config(raw)
        assert (cfg.control.kind, cfg.control.arity) == ("custom", 3)

    def test_unknown_builder(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["algebra"] = {"builder": "octonion"}
        with pytest.raises(ConfigError):
            ts.load_config(raw)

    def test_missing_map_file(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["maps"] = {"sigma": {"file": "missing_map.json"}, "tau": "identity", "xi": "identity"}
        with pytest.raises(ConfigError, match="does not exist"):
            ts.load_config(raw)

    def test_random_seeded_maps(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["maps"] = {
            "sigma": {"random_seed": 5},
            "tau": "identity",
            "xi": {"matrix": [[1.0, 0.0], [0.0, 2.0]]},
        }
        cfg = ts.load_config(raw)
        sigma, tau, xi = cfg.map_candidates[0]
        assert not np.array_equal(sigma.matrix, np.eye(2))
        np.testing.assert_array_equal(xi.matrix, [[1.0, 0.0], [0.0, 2.0]])

    def test_fallback_maps_are_tried_in_order(self, monkeypatch):
        # no shipped builder has an empty space under one twist and a
        # nonempty one under another (odd-poly spaces never are empty,
        # trivial-matrix ones always are), so the first candidate's solve is
        # made to find nothing: the run must then solve the fallback and
        # recover the fallback's twists
        raw = load_raw("oddpoly3_p05.json")
        raw["maps"] = {"sigma": {"random_seed": 9}, "tau": {"random_seed": 10}, "xi": {"random_seed": 11}}
        raw["fallback_maps"] = [{"sigma": "identity", "tau": "identity", "xi": "identity"}]
        config = ts.load_config(raw)
        first, fallback = config.map_candidates
        solve, tried = harness.solve_exact_derivations, []

        def first_finds_nothing(mod, sigma, tau, xi, *args):
            tried.append((sigma, tau, xi))
            basis = solve(mod, sigma, tau, xi, *args)
            if len(tried) > 1:
                return basis
            assert len(basis) == 1  # the space the stub hides is not empty
            empty = type(basis)()
            empty.margin = dict(basis.margin, null_dim=0)
            return empty

        monkeypatch.setattr(harness, "solve_exact_derivations", first_finds_nothing)
        result = ts.run_experiment(config, write_files=False)
        assert [[id(m) for m in maps] for maps in tried] == [
            [id(m) for m in maps] for maps in (first, fallback)]
        assert result.all_passed
        assert result.report["notes"] == [] and result.report["errors"] == []
        stab = result.stabilization
        for got, want, other in zip((stab.sigma, stab.tau, stab.xi), fallback, first):
            assert np.max(np.abs(got.matrix - want.matrix)) <= 10 * config.tol
            assert np.max(np.abs(got.matrix - other.matrix)) > 0.1


class TestSweep:
    def test_monotone_iterations_in_p(self):
        raw = load_raw("oddpoly3_p05.json")
        raw["samples"] = {
            "bound_points": 10,
            "identity_triples": 10,
            "hypothesis_tuples": 0,
            "linearity_points": 1,
        }
        rows = ts.run_sweep(raw, "p", [0.2, 0.5, 0.8])
        assert all(row["all_passed"] for row in rows)
        iters = [row["max_iterations"] for row in rows]
        assert iters == sorted(iters)

    def test_csv_output(self, tmp_path):
        raw = load_raw("oddpoly3_p05.json")
        raw["samples"] = {
            "bound_points": 5,
            "identity_triples": 5,
            "hypothesis_tuples": 0,
            "linearity_points": 1,
        }
        out = tmp_path / "sweep.csv"
        ts.run_sweep(raw, "theta", [0.0, 0.1], out_csv=out)
        lines = out.read_text().splitlines()
        assert lines[0] == "param,value,all_passed,max_iterations,max_bound_violation,max_identity_residual"
        assert len(lines) == 3

    @pytest.mark.parametrize("on_empty", ["zero", "error"])
    def test_csv_equals_csv_writer(self, tmp_path, on_empty):
        # with on_empty "error" every point fails: False, -1 and nan rows
        raw = load_raw("trivial2x2_p05.json")
        raw["derivation"]["on_empty"] = on_empty
        raw["samples"] = {"bound_points": 3, "identity_triples": 3,
                          "hypothesis_tuples": 0, "linearity_points": 1}
        out = tmp_path / "sweep.csv"
        out.write_text("a previous, longer file\n" * 40)
        rows = ts.run_sweep(raw, "p", [0.3, 0.5], out_csv=out)
        with (tmp_path / "want.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(harness.SWEEP_HEADER)
            for row in rows:
                writer.writerow([row[key] for key in harness.SWEEP_HEADER])
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert [row["all_passed"] for row in rows] == [on_empty == "zero"] * 2
        assert all(math.isnan(row["max_bound_violation"]) for row in rows) == (on_empty == "error")

    def test_parse_sweep_spec(self):
        name, values = parse_sweep_spec("p=0.1:0.9:0.2")
        assert name == "p"
        np.testing.assert_allclose(values, [0.1, 0.3, 0.5, 0.7, 0.9])
        with pytest.raises(ConfigError):
            parse_sweep_spec("p=1:2")
        with pytest.raises(ConfigError):
            parse_sweep_spec("p=0.1:0.9:-0.1")

    @pytest.mark.parametrize(
        "spec",
        ["p=0.9:0.1:0.1", "p=nan:1:0.1", "p=0.1:nan:0.1", "p=0.1:0.9:nan", "p=0.1:inf:0.5",
         "p=-inf:0.5:0.1", "p=0.1:0.9:inf", "p=0:1:1e-300", "p=0:1e300:1e-300"],
    )
    def test_parse_sweep_spec_rejects_empty_or_unbounded(self, spec):
        with pytest.raises(ConfigError):
            parse_sweep_spec(spec)

    def test_parse_sweep_spec_point_limit(self):
        assert parse_sweep_spec("p=0:9999:1")[1] == [float(v) for v in range(10_000)]
        with pytest.raises(ConfigError, match="more than 10000 points"):
            parse_sweep_spec("p=0:10000:1")
        assert parse_sweep_spec("tol=0.5:0.5:1") == ("tol", [0.5])

    def test_unknown_sweep_param(self):
        raw = load_raw("oddpoly3_p05.json")
        with pytest.raises(ConfigError):
            ts.run_sweep(raw, "m", [1.0])

    @pytest.mark.parametrize(
        "param, values, message",
        [("p", [0.3, 0.6, 1.0], "control.p must lie in [0, 1), got 1.0"),
         ("theta", [0.1, -0.5], "control.theta must be finite and nonnegative, got -0.5"),
         ("tol", [1e-8, -1.0], "tol must be finite and positive, got -1.0")],
    )
    def test_bad_value_raises_before_any_point(self, monkeypatch, param, values, message):
        # the standalone parse of the bad point's config gives the same error
        raw = load_raw("oddpoly3_p05.json")
        with pytest.raises(ConfigError) as alone:
            harness.load_config(harness._sweep_config(raw, param, values[-1]))
        assert str(alone.value) == message

        def no_work(*args, **kwargs):
            raise AssertionError("the sweep started work")

        monkeypatch.setattr(harness, "_run_points", no_work)
        monkeypatch.setattr(harness, "solve_exact_derivations", no_work)
        with pytest.raises(ConfigError) as swept:
            ts.run_sweep(raw, param, values)
        assert str(swept.value) == message

    @pytest.mark.parametrize(
        "name, fallback, solves",
        [("oddpoly3_p05.json", False, 1), ("trivial2x2_p05.json", False, 1),
         ("trivial2x2_p05.json", True, 2)],
    )
    def test_one_solve_per_map_candidate_per_sweep(self, monkeypatch, name, fallback, solves):
        # trivial-matrix m = 2 has an empty space under random and identity
        # twists, so with the fallback both candidates are tried: two solves
        # per sweep, as in one standalone run
        raw = load_raw(name)
        raw["samples"] = {"bound_points": 3, "identity_triples": 3,
                          "hypothesis_tuples": 0, "linearity_points": 1}
        if fallback:
            raw["maps"] = {"sigma": {"random_seed": 9}, "tau": {"random_seed": 10},
                           "xi": {"random_seed": 11}}
            raw["fallback_maps"] = [{"sigma": "identity", "tau": "identity", "xi": "identity"}]
        solve, calls = harness.solve_exact_derivations, []

        def counting(*args, **kwargs):
            calls.append(args[1:4])
            return solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_exact_derivations", counting)
        ts.run_experiment(raw, write_files=False)
        assert len(calls) == solves
        calls.clear()
        rows = ts.run_sweep(raw, "p", [0.2, 0.4, 0.6, 0.8])
        assert len(calls) == solves and all(row["all_passed"] for row in rows)

    def test_one_draw_of_the_samples_per_sweep(self, monkeypatch):
        # the hypothesis tuples and the linearity, bound and identity points
        # read no swept parameter: a sweep draws them once, as does one
        # standalone run, and its points share them read-only
        raw = load_raw("oddpoly3_p05.json")
        raw["samples"] = {"bound_points": 3, "identity_triples": 3,
                          "hypothesis_tuples": 4, "linearity_points": 1}
        records = {}

        def counting(name):
            draw, records[name] = getattr(stability, name), []

            def recording(*args, **kwargs):
                records[name].append(draw(*args, **kwargs))
                return records[name][-1]

            return recording

        for name in ("_hypothesis_points", "_check_points"):
            recording = counting(name)
            monkeypatch.setattr(harness, name, recording)
            monkeypatch.setattr(stability, name, recording)
        ts.run_experiment(raw, write_files=False)
        assert [len(drawn) for drawn in records.values()] == [1, 1]
        for drawn in records.values():
            drawn.clear()
        rows = ts.run_sweep(raw, "p", [round(0.1 * i, 1) for i in range(1, 10)])
        assert len(rows) == 9 and all(row["all_passed"] for row in rows)
        assert [len(drawn) for drawn in records.values()] == [1, 1]
        (hypothesis,), (checks,) = records.values()
        arrays = [*vars(hypothesis).values(), checks.linearity, checks.bounds, *checks.identity]
        assert len(arrays) == 9
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0


def _small_raw():
    """``oddpoly3_p05`` (hash directions for g, h and k) with small samples."""
    raw = load_raw("oddpoly3_p05.json")
    raw["samples"] = {
        "bound_points": 10,
        "identity_triples": 10,
        "hypothesis_tuples": 10,
        "linearity_points": 1,
    }
    return raw


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


def _recording_points(monkeypatch) -> list:
    """Patch ``harness._run_points`` so that the results of every point it
    runs are appended, in order, to the list returned."""
    run_points, results = harness._run_points, []

    def recording(configs, *args, **kwargs):
        found = run_points(configs, *args, **kwargs)
        results.extend(found)
        return found

    monkeypatch.setattr(harness, "_run_points", recording)
    return results


def _assert_points_equal_standalone_runs(monkeypatch, raw, param, values):
    """Each point of a sweep of ``param`` over ``values``: its row, recovered
    matrices, traces and report, equal to the standalone run of its config."""
    with monkeypatch.context() as patch:
        results = _recording_points(patch)
        rows = ts.run_sweep(raw, param, values)
    run = harness.run_experiment
    assert len(results) == len(rows) == len(values)
    for value, row, result in zip(values, rows, results):
        alone = run(harness._sweep_config(raw, param, value), write_files=False)
        assert row["value"] == value and result.config.raw == alone.config.raw
        stab, swept = alone.stabilization, result.stabilization
        assert row["all_passed"] == alone.all_passed
        if stab is None:
            # a fatal error, such as a linearity ray that does not converge
            assert swept is None and row["max_iterations"] == -1
            assert math.isnan(row["max_bound_violation"])
            assert math.isnan(row["max_identity_residual"])
        else:
            assert row["max_iterations"] == max(max(its) for its in stab.iterations.values())
            assert row["max_bound_violation"] == stab.max_bound_violation
            assert row["max_identity_residual"] == stab.max_identity_residual
            for name in ("derivation", "sigma", "tau", "xi"):
                assert _bits(getattr(swept, name).matrix) == _bits(getattr(stab, name).matrix)
            assert swept.traces.keys() == stab.traces.keys()
            for name, trace in stab.traces.items():
                assert _bits(swept.traces[name]) == _bits(trace)
        assert json.dumps(result.report) == json.dumps(alone.report)
    # no point's report shares a margin, error or note list with another's
    for key in ("derivation", "errors", "notes"):
        assert len({id(result.report[key]) for result in results}) == len(results)


class TestSweepHashMemo:
    """A sweep point, hash directions included, equals the standalone run of
    its config.  The points share the algebra, the twist maps and one solved
    ground truth, which no swept parameter reads and no point modifies;
    everything else is the point's own."""

    VALUES = [0.2, 0.5, 0.8]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_points_equal_standalone_runs(self, monkeypatch, threads):
        # TERNSTAB_THREADS left in the environment is not read
        monkeypatch.setenv("TERNSTAB_THREADS", threads)
        _assert_points_equal_standalone_runs(monkeypatch, _small_raw(), "p", self.VALUES)

    @pytest.mark.parametrize("param, values", [("theta", [0.0, 0.05, 0.3]),
                                               ("tol", [1e-6, 1e-9, 1e-12])])
    def test_theta_and_tol_points_equal_standalone_runs(self, monkeypatch, param, values):
        _assert_points_equal_standalone_runs(monkeypatch, _small_raw(), param, values)

    @pytest.mark.parametrize("shape", ["jordan", "complex", "no-hypothesis-or-linearity"])
    def test_points_of_other_draw_shapes_equal_standalone_runs(self, monkeypatch, shape):
        # jordan: 3-slot tuples, a repeated identity draw and an arity-3
        # control; complex: the two-part draw and the 16-point lambda grid;
        # and a sweep that draws no hypothesis tuple and no linearity point
        raw = _small_raw()
        if shape == "jordan":
            raw = {**load_raw("oddpoly3_jordan.json"), "samples": raw["samples"]}
        elif shape == "complex":
            raw["algebra"]["field"] = "complex"
        else:
            raw["samples"].update(hypothesis_tuples=0, linearity_points=0)
        _assert_points_equal_standalone_runs(monkeypatch, raw, "p", self.VALUES)

    @pytest.mark.parametrize("param, values", [("p", [0.2, 0.5, 0.8]),
                                               ("theta", [0.0, 0.05, 0.3]),
                                               ("tol", [1e-6, 1e-9, 1e-12])])
    def test_points_without_a_control_section_equal_standalone_runs(self, monkeypatch, param,
                                                                     values):
        # the default control is swept like a written one, and the sweep
        # leaves the raw config as it was
        raw = _small_raw()
        del raw["control"], raw["out"]
        before = copy.deepcopy(raw)
        _assert_points_equal_standalone_runs(monkeypatch, raw, param, values)
        assert raw == before

    def test_points_of_a_failing_truth_equal_standalone_runs(self, monkeypatch):
        # on_empty "error": every point reports the solve's error, none runs
        raw = _small_raw()
        raw["algebra"] = {"builder": "trivial-matrix", "m": 2}
        raw["derivation"]["on_empty"] = "error"
        with monkeypatch.context() as patch:
            results = _recording_points(patch)
            ts.run_sweep(raw, "p", self.VALUES)
        run = harness.run_experiment
        for value, result in zip(self.VALUES, results):
            alone = run(harness._sweep_config(raw, "p", value), write_files=False)
            assert result.report["errors"][0]["code"] == "EMPTY_DERIVATION_SPACE"
            assert json.dumps(result.report) == json.dumps(alone.report)
        assert len({id(result.report["errors"]) for result in results}) == len(results)


class TestSweepIsSerial:
    def test_points_run_in_order_on_the_calling_thread(self, monkeypatch):
        # TERNSTAB_THREADS left in the environment is not read
        monkeypatch.setenv("TERNSTAB_THREADS", "6")
        raw = load_raw("oddpoly3_p05.json")
        raw["samples"] = {
            "bound_points": 2,
            "identity_triples": 2,
            "hypothesis_tuples": 0,
            "linearity_points": 0,
        }
        run_points, calls = harness._run_points, []

        def recording(configs, *args, **kwargs):
            calls.extend((config.raw["control"]["p"], threading.get_ident())
                         for config in configs)
            return run_points(configs, *args, **kwargs)

        def no_start(thread):
            raise AssertionError(f"run_sweep started thread {thread.name}")

        monkeypatch.setattr(harness, "_run_points", recording)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        rows = ts.run_sweep(raw, "p", [0.6, 0.3, 0.45])
        assert [row["value"] for row in rows] == [0.6, 0.3, 0.45]
        assert calls == [(v, threading.get_ident()) for v in (0.6, 0.3, 0.45)]


SHIPPED = ("oddpoly3_p05", "trivial2x2_p05", "oddpoly3_jordan")


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("param, values", [("p", [0.2, 0.5, 0.8]),
                                           ("theta", [0.0, 0.05, 0.3]),
                                           ("tol", [1e-6, 1e-9, 1e-12])])
def test_shipped_sweep_points_equal_standalone_runs(monkeypatch, name, param, values):
    _assert_points_equal_standalone_runs(monkeypatch, load_raw(f"{name}.json"), param, values)


P_GRID = [round(0.1 * i, 1) for i in range(1, 10)]


class TestStackedSweep:
    """A sweep runs its points through each check as one stacked pass, in
    groups whose stacked rows stay within ``_TUPLE_CHUNK``; every point
    still equals its standalone run."""

    @pytest.mark.parametrize("max_iter, outcomes", [(40, "PPFFFFFFF"), (39, "PEFFFFFFF")])
    def test_points_that_fail_to_converge_equal_standalone_runs(self, monkeypatch, max_iter,
                                                                 outcomes):
        # P passes; F has basis rays that do not stop by max_iter, which its
        # report lists as failures; E converges on the basis but not on a
        # linearity ray, whose error ends that point alone
        raw = _small_raw()
        raw["max_iter"] = max_iter
        raw["samples"]["linearity_points"] = 5
        _assert_points_equal_standalone_runs(monkeypatch, raw, "p", P_GRID)
        with monkeypatch.context() as patch:
            results = _recording_points(patch)
            ts.run_sweep(raw, "p", P_GRID)
        seen = "".join("P" if result.all_passed else "E" if result.report["errors"] else "F"
                       for result in results)
        assert seen == outcomes
        for result in results:
            if result.report["errors"]:
                assert result.report["errors"][0]["code"] == "NONCONVERGENT"
                assert result.stabilization is None
            elif not result.all_passed:
                assert {f["code"] for f in result.report["recovered"]["failures"]} == {
                    "NONCONVERGENT"}

    @pytest.mark.parametrize("per_group", [1, 2, 4])
    def test_groups_under_a_small_chunk_equal_one_group(self, monkeypatch, per_group):
        raw = _small_raw()
        with monkeypatch.context() as patch:
            whole = _recording_points(patch)
            rows = ts.run_sweep(raw, "p", P_GRID)
        groups, run_points = [], harness._run_points

        def recording(configs, *args, **kwargs):
            groups.append(len(configs))
            return run_points(configs, *args, **kwargs)

        point = harness.load_config(harness._sweep_config(raw, "p", 0.5))
        monkeypatch.setattr(harness, "_TUPLE_CHUNK", per_group * harness._point_rows(point))
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_run_points", recording)
            chunked = _recording_points(patch)
            assert json.dumps(ts.run_sweep(raw, "p", P_GRID)) == json.dumps(rows)
        assert groups == [per_group] * (9 // per_group) + [9 % per_group] * (9 % per_group > 0)
        assert len(chunked) == len(whole) == 9
        for one, other in zip(chunked, whole):
            assert json.dumps(one.report) == json.dumps(other.report)
            for name in ("derivation", "sigma", "tau", "xi"):
                assert (_bits(getattr(one.stabilization, name).matrix)
                        == _bits(getattr(other.stabilization, name).matrix))
            for name, trace in other.stabilization.traces.items():
                assert _bits(one.stabilization.traces[name]) == _bits(trace)

    def test_a_point_larger_than_the_chunk_runs_alone(self, monkeypatch):
        raw = _small_raw()
        with monkeypatch.context() as patch:
            whole = _recording_points(patch)
            rows = ts.run_sweep(raw, "p", [0.2, 0.5, 0.8])
        monkeypatch.setattr(harness, "_TUPLE_CHUNK", 1)
        assert harness._groups([harness.load_config(raw)] * 3) == [[0, 1], [1, 2], [2, 3]]
        with monkeypatch.context() as patch:
            alone = _recording_points(patch)
            assert json.dumps(ts.run_sweep(raw, "p", [0.2, 0.5, 0.8])) == json.dumps(rows)
        assert [json.dumps(r.report) for r in alone] == [json.dumps(r.report) for r in whole]

    def test_memory_of_a_long_sweep_stays_that_of_one_group(self):
        # 300 hypothesis tuples make a point 2,100 rows, so that nine points
        # fill a group: a 90-point sweep runs ten groups one after another,
        # and no group's arrays outlive it
        import tracemalloc

        raw = _small_raw()
        raw["samples"]["hypothesis_tuples"] = 300
        config = harness.load_config(raw)
        assert harness._TUPLE_CHUNK // harness._point_rows(config) == 9
        ts.run_sweep(config, "p", P_GRID)  # imports and caches outside the measure
        peaks = {}
        for count in (9, 90):
            values = [round(0.1 + 0.8 * i / (count - 1), 6) for i in range(count)]
            tracemalloc.start()
            try:
                rows = ts.run_sweep(config, "p", values)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(rows) == count
        assert peaks[90] < 1.5 * peaks[9]


def _counting_maps(monkeypatch):
    """Patch ``harness.perturb_map`` so that every evaluator it builds
    counts its calls; returns the list of evaluators built and a counter of
    their calls by the check that made them."""
    built, calls, phase = [], {}, ["other"]
    perturb = harness.perturb_map

    def counting(*args, **kwargs):
        m = perturb(*args, **kwargs)
        built.append(m)

        def fn(x):
            calls[phase[0]] = calls.get(phase[0], 0) + 1
            return m.fn(x)

        return ts.EvaluableMap(m.in_dim, m.out_dim, fn, m.kind)

    def in_phase(name, check):
        def wrapped(*args, **kwargs):
            phase[0] = name
            try:
                return check(*args, **kwargs)
            finally:
                phase[0] = "other"

        return wrapped

    monkeypatch.setattr(harness, "perturb_map", counting)
    for name, attr in (("hypothesis", "check_hypothesis"),
                       ("direct", "direct_method_stabilize")):
        monkeypatch.setattr(harness, attr, in_phase(name, getattr(harness, attr)))
    return built, calls


def _run_outputs(raw, out_dir):
    """A run's report, without its timestamp, and its trace files' bytes."""
    result = ts.run_experiment(raw, out_dir=out_dir)
    report = json.loads(result.report_path.read_text())
    del report["timestamp"]
    return report, {name: path.read_bytes() for name, path in result.trace_paths.items()}


class TestCoincidingMaps:
    """A run builds one evaluator per distinct perturbed map, and the checks
    evaluate each once per stack: four evaluations per map and run (the
    hypothesis sample, then the ``f(0)`` check, the rays and the bound
    points).  Its outputs equal those of four distinct evaluators."""

    @staticmethod
    def _raw(perturbation=None, **maps):
        raw = load_raw("trivial2x2_p05.json")
        raw["samples"] = {"bound_points": 10, "identity_triples": 10,
                          "hypothesis_tuples": 10, "linearity_points": 2}
        for name, spec in (perturbation or {}).items():
            raw["perturbation"][name].update(spec)
        raw["maps"].update(maps)
        raw.pop("out")
        return raw

    CASES = {
        # fixed directions ignore their seeds, which differ in the config
        "fixed seeds differ": ({}, {}, 2),
        "fixed vectors normalize alike": ({"g": {"vector": [2.0, 2.0, 2.0, 2.0]}}, {}, 2),
        "hash seeds equal": (dict.fromkeys("ghk", {"direction": "hash", "seed": 5}), {}, 2),
        "hash seeds differ": (dict.fromkeys("ghk", {"direction": "hash"}), {}, 4),
        "vectors differ": ({"g": {"vector": [1.0, 0.0, 0.0, 0.0]}}, {}, 3),
        "twist matrices differ": ({}, {"tau": {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0],
                                                         [0, 0, 1, 0], [0, 0, 0, -1]]}}, 3),
        "theta differs": ({"h": {"theta": 0.05}}, {}, 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_coinciding_maps_are_built_and_evaluated_once(self, monkeypatch, tmp_path, case):
        perturbation, maps, distinct = self.CASES[case]
        raw = self._raw(perturbation, **maps)
        with monkeypatch.context() as patch:
            built, calls = _counting_maps(patch)
            shared = _run_outputs(raw, tmp_path / "shared")
        assert len(built) == distinct
        assert calls == {"hypothesis": distinct, "direct": 3 * distinct}
        # every name its own evaluator: the same report and traces
        monkeypatch.setattr(harness, "_map_key", lambda *args: object())
        built, calls = _counting_maps(monkeypatch)
        assert _run_outputs(raw, tmp_path / "apart") == shared
        assert len(built) == 4 and calls == {"hypothesis": 4, "direct": 12}

    def test_one_object_is_evaluated_once_by_each_check(self, oddpoly3, oddpoly3_module,
                                                        oddpoly_derivation, identity2):
        evaluations = []

        def counted(base, spec, out_norm):
            m = ts.perturb_map(base, spec, oddpoly3.norm_of, out_norm)

            def fn(x):
                evaluations.append(len(x))
                return m.fn(x)

            return ts.EvaluableMap(m.in_dim, m.out_dim, fn, m.kind)

        spec = ts.PerturbationSpec(theta=0.1, p=0.5, direction="hash", seed=3)
        f = counted(oddpoly_derivation, spec, oddpoly3_module.norm_of)
        g = counted(identity2, spec, oddpoly3.norm_of)
        apart = [counted(identity2, spec, oddpoly3.norm_of) for _ in "hk"]
        control = ts.power_control(0.1, 0.5, norm=oddpoly3.norm_of)
        kwargs = dict(bound_points=6, identity_triples=4, linearity_points=2, seed=4)
        reports = []
        for maps in ((f, g, g, g), (f, g, *apart)):
            evaluations.clear()
            hypothesis = ts.check_hypothesis(*maps, control, oddpoly3_module, samples=5, seed=4)
            assert len(evaluations) == len(set(map(id, maps)))
            evaluations.clear()
            stab = ts.direct_method_stabilize(*maps, control, oddpoly3_module, **kwargs)
            assert len(evaluations) == 3 * len(set(map(id, maps)))
            reports.append((hypothesis, stab))
        (hypo_one, one), (hypo_apart, apart) = reports
        assert hypo_one == hypo_apart
        assert one.sigma is one.tau is one.xi
        for name in ("derivation", "sigma", "tau", "xi"):
            assert _bits(getattr(one, name).matrix) == _bits(getattr(apart, name).matrix)
        for name in ("iterations", "traces", "convergence_rates", "phi_tilde_values",
                     "max_bound_violation", "max_identity_residual", "linearity_max", "failures"):
            assert getattr(one, name) == getattr(apart, name), name
        # names share outcomes, not the lists a report holds
        assert one.traces["g"] is not one.traces["h"]
        assert one.iterations["g"] is not one.iterations["h"]


class TestSweepParts:
    """A sweep computes each distinct map's parameter-free parts once,
    before its first point, at the hypothesis inputs and the bound points,
    into read-only arrays; nothing is kept between sweeps or runs."""

    @staticmethod
    def _recorded(monkeypatch):
        made, parts_at, map_parts = [], [], harness._map_parts
        original = harness._parts_at

        def recording_shared(config, bases, hypothesis, checks):
            made.append(((hypothesis, checks), map_parts(config, bases, hypothesis, checks)))
            return made[-1][1]

        def recording_parts(base, spec, xs, *args):
            parts_at.append(xs)
            return original(base, spec, xs, *args)

        monkeypatch.setattr(harness, "_map_parts", recording_shared)
        monkeypatch.setattr(harness, "_parts_at", recording_parts)
        return made, parts_at

    @pytest.mark.parametrize("name, distinct", [("oddpoly3_p05", (1, 3)),
                                                ("trivial2x2_p05", (1, 1))])
    def test_each_sweep_computes_its_parts_once(self, monkeypatch, name, distinct):
        made, parts_at = self._recorded(monkeypatch)
        raw = _small_raw() if name == "oddpoly3_p05" else load_raw(f"{name}.json")
        for values in ([0.2, 0.5, 0.8], [round(0.1 * i, 1) for i in range(1, 10)]):
            made.clear()
            parts_at.clear()
            rows = ts.run_sweep(raw, "p", values)
            assert len(rows) == len(values) and all(row["all_passed"] for row in rows)
            ((points, parts),) = made
            hypothesis, checks = points
            stacks = {"f": hypothesis.f_input, "shared": hypothesis.shared_input,
                      "bounds": checks.bounds}
            # f at its input and the bounds, each distinct twist map at the
            # shared input and the bounds, whatever the number of points
            counts = {key: sum(xs is stack for xs in parts_at) for key, stack in stacks.items()}
            f_maps, twist_maps = distinct
            assert counts == {"f": f_maps, "shared": twist_maps,
                              "bounds": f_maps + twist_maps}
            assert len(parts) == f_maps + twist_maps
            for pairs in parts.values():
                for stack, (out, moved, sizes, unit) in pairs:
                    assert isinstance(sizes, tuple)
                    for array in (out, moved, unit):
                        with pytest.raises(ValueError, match="read-only"):
                            array[(0,) * array.ndim] = 1

    def test_identical_runs_make_equal_calls(self, monkeypatch):
        # no cache outlives a run or a sweep: the second of two identical
        # calls computes everything the first did
        calls = {"apply": 0, "hash": 0}
        apply, hash_units = ts.LinearMap.apply, harness._hash_units

        def counting_apply(self, x):
            calls["apply"] += 1
            return apply(self, x)

        def counting_hash(*args):
            calls["hash"] += 1
            return hash_units(*args)

        monkeypatch.setattr(ts.LinearMap, "apply", counting_apply)
        monkeypatch.setattr(harness, "_hash_units", counting_hash)
        raw = _small_raw()
        for call in (lambda: ts.run_experiment(raw, write_files=False),
                     lambda: ts.run_sweep(raw, "p", [0.3, 0.6])):
            seen = []
            for _ in range(2):
                calls.update(apply=0, hash=0)
                call()
                seen.append(dict(calls))
            assert seen[0] == seen[1] and seen[0]["hash"] > 0 and seen[0]["apply"] > 0
