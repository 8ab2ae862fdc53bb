"""CLI behavior: subcommands, exit codes, report shape, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gaugemods import circle, derham, glrep, groebner
from gaugemods.cli import main
from gaugemods.linalg import BudgetExceededError
from gaugemods.parser import parse_poly
from gaugemods.polyring import PolyRing, lex
from gaugemods.scenario import (
    ScenarioError,
    load_scenario,
    run_scenario,
    validate_scenario,
)

from test_packed import widest_cap

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"
SCENARIOS = SRC / "gaugemods" / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_bundled_sphere_scenario_passes(self, capsys):
        code, out = run_cli(capsys, "run", str(SCENARIOS / "sphere_gauge_flat.json"),
                            "--samples", "5", "--no-timing")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "1" and report["status"] == "pass"

    def test_broken_gauge_fails_with_witness(self, capsys):
        code, out = run_cli(capsys, "gauge", "verify", str(DATA / "broken_gauge.json"),
                            "--no-timing")
        assert code == 1
        report = json.loads(out)
        (validate,) = [c for c in report["checks"] if c["name"] == "gauge.validate"]
        assert validate["status"] == "fail"
        assert "(1,2)" in validate["witness"]["axiom3_flatness"]

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "1", "kind": "nonsense"}))
        code, _ = run_cli(capsys, "run", str(bad))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run_cli(capsys, "run", "/nonexistent/path.json")
        assert code == 2

    def test_run_without_scenarios_exits_2(self, capsys):
        code, _ = run_cli(capsys, "run")
        assert code == 2

    def test_budget_overflow_exits_3(self, capsys):
        code, _ = run_cli(capsys, "casimir", "table", "7")
        assert code == 3

    def test_negative_samples_flag_exits_2(self, capsys):
        code = main(["run", str(SCENARIOS / "sphere_gauge_flat.json"), "--samples", "-3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "samples: expected at least 1, got -3" in captured.err

    def test_zero_samples_in_scenario_exits_2(self, capsys, tmp_path):
        scn = json.loads((SCENARIOS / "derham_affine2.json").read_text())
        scn["samples"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(scn))
        code, _ = run_cli(capsys, "run", str(path))
        assert code == 2

    def test_negative_grid_exits_2(self, capsys):
        code, out = run_cli(capsys, "circle", "verify", "--grid", "-1")
        assert code == 2 and out == ""

    def test_negative_max_degree_exits_2(self, capsys):
        code = main(["derham", "verify", str(SCENARIOS / "derham_sphere.json"),
                     "--max-degree", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "maxDegree: expected at least 0, got -1" in captured.err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_casimir_table_below_one_exits_2(self, capsys, n):
        code, out = run_cli(capsys, "casimir", "table", n)
        assert code == 2 and out == ""

    def test_exponent_above_degree_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"schema": "1", "kind": "variety",
                                    "variety": {"variables": ["x"],
                                                "generators": ["x - 2^65"]}}))
        code, _ = run_cli(capsys, "run", str(path))
        assert code == 3

    @pytest.mark.parametrize("n", [1, 3])
    def test_module_rank_other_than_chart_exits_2(self, capsys, tmp_path, n):
        scn = json.loads((SCENARIOS / "affine2_gauge.json").read_text())
        scn["module"]["N"] = n
        path = tmp_path / "rank.json"
        path.write_text(json.dumps(scn))
        code = main(["run", str(path), "--no-timing"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"gl_{n} module, but the chart has 2 parameters" in captured.err

    @pytest.mark.parametrize("file, path, value", [
        ("derham_affine2.json", ["samples"], True),
        ("derham_affine2.json", ["seed"], True),
        ("derham_affine2.json", ["maxDegree"], False),
        ("derham_sphere.json", ["chart"], True),
        ("circle.json", ["grid"], True),
        ("casimir_n2.json", ["N"], True),
        ("affine2_gauge.json", ["module", "N"], True),
        ("affine2_gauge.json", ["module", "k"], True),
        ("affine2_gauge.json", ["B"], [{"num": "y", "hpower": True}, "x"]),
    ], ids=["samples", "seed", "maxDegree", "chart", "grid", "N", "module.N", "module.k",
            "hpower"])
    def test_boolean_for_an_integer_exits_2(self, capsys, tmp_path, file, path, value):
        # JSON true/false load as Python bools, which are ints
        scn = json.loads((SCENARIOS / file).read_text())
        target = scn
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario = tmp_path / "bool.json"
        scenario.write_text(json.dumps(scn))
        code = main(["run", str(scenario), "--no-timing"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "expected" in captured.err

    @pytest.mark.parametrize("entry, code", [
        (0.1, 2), (True, 2), (None, 2), (2, 0), ("1/2", 0), ("-3", 0),
    ], ids=["float", "bool", "null", "int", "rational", "negative"])
    def test_custom_matrix_entries_are_integers_or_rational_strings(
            self, capsys, tmp_path, entry, code):
        # a float would enter as 3602879701896397/36028797018963968 and true as 1
        scn = json.loads((SCENARIOS / "affine1_gauge.json").read_text())
        scn["module"] = {"N": 1, "kind": "custom", "matrices": [[[entry]]]}
        scn["samples"] = 2
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(scn))
        assert main(["run", str(path), "--no-timing"]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert f"{path}.module.matrices[0][0][0]: expected an integer or a " \
                   f"rational string, got {type(entry).__name__}" in err

    def test_max_degree_zero_exits_0_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaugemods.cli", "derham", "verify",
             str(SCENARIOS / "derham_affine2.json"), "--max-degree", "0", "--no-timing"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        (record,) = [r for r in json.loads(proc.stdout)["checks"]
                     if r["name"] == "derham.obstruction"]
        assert record["status"] == "pass"
        assert record["witness"] == {"gaussian": "INFEASIBLE_UP_TO_D", "maxDegree": 0,
                                     "control": "FEASIBLE"}

    @pytest.mark.parametrize("name, hint", [
        ("gauge.lie_actoin", "did you mean 'gauge.lie_action'?"),
        ("circle.witt", "expected one of ['variety.smooth', 'gauge.validate', "),
    ], ids=["misspelled", "other-kind"])
    def test_unknown_check_name_exits_2(self, capsys, tmp_path, name, hint):
        scn = json.loads((SCENARIOS / "sphere_gauge_grad.json").read_text())
        scn["checks"] = [name]
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(scn))
        code = main(["run", str(path), "--no-timing"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{path}.checks[0]: unknown gauge check {name!r}; {hint}" in captured.err

    def test_empty_check_list_passes_vacuously(self, capsys, tmp_path):
        scn = json.loads((SCENARIOS / "sphere_gauge_flat.json").read_text())
        scn["checks"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(scn))
        code, out = run_cli(capsys, "run", str(path), "--no-timing")
        assert code == 0
        report = json.loads(out)
        assert report["scenarios"][0]["checks"] == []
        assert report["status"] == "pass"


class TestSubcommands:
    def test_variety_check(self, capsys):
        code, out = run_cli(capsys, "variety", "check",
                            str(SCENARIOS / "sphere_variety.json"), "--no-timing")
        assert code == 0
        names = {c["name"] for c in json.loads(out)["checks"]}
        assert {"variety.smooth", "variety.charts", "variety.proper"} <= names

    def test_variety_charts(self, capsys):
        code, out = run_cli(capsys, "variety", "charts",
                            str(SCENARIOS / "sphere_variety.json"), "--no-timing")
        assert code == 0
        (charts,) = json.loads(out)["checks"]
        assert charts["witness"]["minors"] == ["x", "y", "z"]

    def test_casimir_table_2(self, capsys):
        code, out = run_cli(capsys, "casimir", "table", "2", "--no-timing")
        assert code == 0
        (table,) = json.loads(out)["checks"]
        rows = table["witness"]["rows"]
        assert [r["omega"] for r in rows] == [["0", "0"], ["1", "2"], ["2", "2"]]

    def test_casimir_table_1(self, capsys):
        code, out = run_cli(capsys, "casimir", "table", "1", "--no-timing")
        assert code == 0
        (table,) = json.loads(out)["checks"]
        assert [r["omega"] for r in table["witness"]["rows"]] == [["0"], ["1"]]

    def test_casimir_table_3(self, capsys):
        code, out = run_cli(capsys, "casimir", "table", "3", "--no-timing")
        assert code == 0
        (table,) = json.loads(out)["checks"]
        rows = table["witness"]["rows"]
        assert len(rows) == 4
        assert all(r["P"] == {"2": "0", "3": "0"} for r in rows)
        assert all(r["verdict"] == "possibly exceptional" for r in rows)

    def test_circle_verify_custom_alpha(self, capsys):
        code, out = run_cli(capsys, "circle", "verify", "--alpha", "2/7",
                            "--grid", "2", "--no-timing")
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["circle.p_operator"] == "computed"
        assert statuses["circle.witt"] == "pass"

    def test_circle_verify_defaults_are_the_scenario_defaults(self, capsys):
        """Without --alpha and --grid the CLI passes neither, and the report
        is the one of a circle scenario without them, and of the defaults
        given explicitly."""
        code, out = run_cli(capsys, "circle", "verify", "--no-timing")
        report = json.loads(out)
        assert code == 0 and report == run_scenario(validate_scenario(
            {"schema": "1", "kind": "circle", "name": "circle"}), timing=False)
        witnesses = {c["name"]: c.get("witness") for c in report["checks"]}
        assert witnesses["circle.witt"].startswith("n,m in [-3,3] ")
        assert witnesses["circle.casimir"] == "alphas ['0', '1', '1/2', '5/3']"
        explicit = [arg for a in ("0", "1", "1/2", "5/3") for arg in ("--alpha", a)]
        assert run_cli(capsys, "circle", "verify", *explicit, "--grid", "3",
                       "--no-timing") == (code, out)

    def test_derham_verify(self, capsys):
        code, out = run_cli(capsys, "derham", "verify",
                            str(SCENARIOS / "derham_affine2.json"),
                            "--samples", "5", "--no-timing")
        assert code == 0
        names = {c["name"] for c in json.loads(out)["checks"]}
        assert "derham.obstruction" in names

    def test_text_output(self, capsys):
        code, out = run_cli(capsys, "casimir", "table", "2", "--text", "--no-timing")
        assert code == 0
        assert "glrep.table" in out and "PASS" in out

    def test_flags_before_subcommand(self, capsys):
        code, out = run_cli(capsys, "--no-timing", "casimir", "table", "1")
        assert code == 0
        assert "elapsed_ms" not in out and "setup_ms" not in out


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, capsys):
        args = ["run", "--bundled", "--no-timing", "--samples", "5", "--seed", "3"]
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_timing_fields_present_by_default(self, capsys):
        code, out = run_cli(capsys, "casimir", "table", "2")
        assert code == 0
        report = json.loads(out)
        (table,) = report["checks"]
        assert "elapsed_ms" in table
        assert isinstance(report["setup_ms"], float)


class TestScenarioValidation:
    def test_unknown_kind(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"schema": "1", "kind": "mystery"})

    def test_wrong_schema_version(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"schema": "99", "kind": "circle"})

    def test_bad_alpha(self):
        with pytest.raises(ScenarioError):
            validate_scenario({"schema": "1", "kind": "circle", "alphas": ["x/y"]})

    def test_empty_alphas_exit_2(self, capsys, tmp_path):
        # every circle check once passed on no alpha at all
        scn = json.loads((SCENARIOS / "circle.json").read_text())
        scn["alphas"] = []
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(scn))
        code = main(["run", str(path), "--no-timing"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"input error: {path}.alphas: expected at least one rational\n"

    def test_gauge_requires_module(self):
        with pytest.raises(ScenarioError):
            validate_scenario({
                "schema": "1", "kind": "gauge",
                "variety": {"variables": ["x"], "generators": []},
                "chart": 0,
            })

    def test_bad_generator_expression(self, tmp_path):
        scn = {
            "schema": "1", "kind": "variety",
            "variety": {"variables": ["x"], "generators": ["x +* 2"]},
        }
        with pytest.raises(ScenarioError):
            run_scenario(validate_scenario(scn))

    def test_unknown_chart_name(self):
        scn = validate_scenario({
            "schema": "1", "kind": "gauge",
            "variety": {"variables": ["x", "y", "z"],
                        "generators": ["x^2+y^2+z^2-1"]},
            "chart": "w",
            "module": {"N": 2, "kind": "exterior", "k": 1},
        })
        with pytest.raises(ScenarioError):
            run_scenario(scn)

    def test_load_scenario_round_trip(self):
        scn = load_scenario(SCENARIOS / "circle.json")
        assert scn["kind"] == "circle"

    def test_matrix_gauge_field_from_json(self):
        # a 2x2 matrix gauge field over gl_1 validates through the loader
        from gaugemods.scenario import build_gauge_field, build_module, build_variety, select_chart
        scn = validate_scenario({
            "schema": "1", "kind": "gauge",
            "variety": {"variables": ["t", "s"], "generators": ["t*s-1"]},
            "chart": "t",
            "module": {"N": 1, "kind": "custom",
                       "matrices": [[["1/2", "0"], ["0", "1/2"]]]},
            "B": [[["0", "t"], ["1", "0"]]],
        })
        v = build_variety(scn["variety"])
        chart = select_chart(v, scn["chart"])
        module = build_module(scn["module"])
        field = build_gauge_field(scn, chart, module.dim)
        assert all(r.ok for r in field.validate(module))

    def test_localized_entry_with_hpower(self):
        from gaugemods.scenario import build_scalar_gauge, build_variety, select_chart
        scn = validate_scenario({
            "schema": "1", "kind": "derham",
            "variety": {"variables": ["x", "y", "z"],
                        "generators": ["x^2+y^2+z^2-1"]},
            "chart": "z",
            "B": [{"num": "x", "hpower": 1}, {"num": "y", "hpower": 1}],
        })
        v = build_variety(scn["variety"])
        chart = select_chart(v, scn["chart"])
        B = build_scalar_gauge(scn, chart)
        assert B[0] == chart.localization.element(v.ring.var("x"), 1)


class TestBareVarietyFile:
    def test_variety_check_accepts_bare_schema(self, capsys, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({
            "variables": ["x", "y", "z"],
            "generators": ["x^2+y^2+z^2-1"],
        }))
        code, out = run_cli(capsys, "variety", "check", str(bare), "--no-timing")
        assert code == 0
        names = {c["name"] for c in json.loads(out)["checks"]}
        assert "variety.smooth" in names

    def test_singular_cone_fails_smoothness(self, capsys, tmp_path):
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({
            "variables": ["x", "y", "z"],
            "generators": ["x^2+y^2-z^2"],
        }))
        code, out = run_cli(capsys, "variety", "check", str(cone), "--no-timing")
        assert code == 1
        checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert checks["variety.smooth"] == "fail"


class TestChartsWithoutAFrame:
    """On a reducible or non-reduced variety Cramer's rule can give a chart
    no tangent frame; that once escaped as an ArithmeticError traceback."""

    def test_variety_check_fails_frames_with_the_chart(self, capsys, tmp_path):
        lines = tmp_path / "lines.json"
        lines.write_text(json.dumps({"variables": ["x", "y", "z"], "generators": ["x*y"]}))
        code = main(["variety", "check", str(lines), "--no-timing"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        assert checks["variety.smooth"]["status"] == "fail"
        assert checks["variety.frames"] == {
            "name": "variety.frames", "status": "fail",
            "witness": {"chart": "y", "message": "tangent-frame solve failed: "
                                                 "minor not invertible?"}}

    @pytest.mark.parametrize("file", ["sphere_gauge_flat.json", "derham_sphere.json"])
    def test_a_run_on_a_frameless_chart_exits_2_and_names_it(self, capsys, tmp_path, file):
        scn = json.loads((SCENARIOS / file).read_text())
        scn.update(variety={"variables": ["x", "y", "z"], "generators": ["x*y"]}, chart="y")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scn))
        code = main(["run", str(path), "--no-timing"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("input error: scenario.chart: chart 'y': tangent-frame "
                                "solve failed: minor not invertible?\n")


class TestNoChart:
    def test_two_disjoint_lines_compute_charts_and_frames_and_fail_smooth(self, capsys,
                                                                        tmp_path):
        """With no chart, the chart and frame checks once passed on nothing."""
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({"variables": ["x", "y", "z"],
                                    "generators": ["x^2-x", "x*z", "(x-1)*y", "y*z"]}))
        code = main(["variety", "check", str(path), "--no-timing"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
        assert checks["variety.charts"] == {"name": "variety.charts", "status": "computed",
                                            "witness": {"count": 0, "minors": []}}
        assert checks["variety.frames"] == {"name": "variety.frames", "status": "computed",
                                            "witness": "no charts: nothing to check"}
        assert checks["variety.smooth"]["status"] == "fail"


class TestOneBudget:
    """Every resource budget raises ``BudgetExceededError``, which exits 3."""

    @pytest.mark.parametrize("argv, message", [
        (["variety", "check", "{degree}"], "exponent 65 exceeds the ring cap 64"),
        (["circle", "verify", "--grid", "20"],
         "index -22 outside the support window [-16, 16]"),
        (["casimir", "table", "5"], "N^k*k! = 375000 exceeds the term budget 200000"),
        (["derham", "verify", str(SCENARIOS / "derham_affine2.json"), "--max-degree", "3000"],
         "obstruction for N=2, D=3000 needs 40608103542006 matrix entries; budget 2000000"),
    ], ids=["degree cap", "index window", "word terms", "obstruction entries"])
    def test_each_budget_exits_3_with_its_message(self, capsys, tmp_path, argv, message):
        degree = tmp_path / "degree.json"
        degree.write_text(json.dumps({"variables": ["x"], "generators": ["x - 2^65"]}))
        code = main([a.format(degree=degree) for a in argv] + ["--no-timing"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"resource budget exceeded: {message}\n"

    def test_each_raise_site_raises_the_one_error(self):
        cap = widest_cap(2)
        ring = PolyRing(("x", "y"), cap)
        x, y = ring.var("x"), ring.var("y")
        for make, message in [
            (lambda: x ** (cap + 1), f"total degree {cap + 1} exceeds the ring cap {cap}"),
            (lambda: parse_poly(f"2^{cap + 1}", ring), f"exponent {cap + 1} exceeds the ring"),
            # under lex, x - y^cap takes x^2 to y^(2 cap), past y's exponent field
            (lambda: groebner.GroebnerBasis(ring, lex(ring), [x - y ** cap]).reduce(x ** 2),
             "exceeds the exponent fields"),
            (lambda: circle.basis_v(0, 17), "index 17 outside the support window"),
            (lambda: glrep.check_term_budget(5, 5), "375000 exceeds the term budget"),
            (lambda: derham.gaussian_obstruction(2, 3000), "needs 40608103542006 matrix"),
        ]:
            with pytest.raises(BudgetExceededError, match=re.escape(message)):
                make()
