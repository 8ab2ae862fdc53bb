"""Scenario check tables: their names, their sample streams, vacuous checks."""

import json
import re
from pathlib import Path

import pytest

from gaugemods import scenario
from gaugemods.scenario import ScenarioError, run_scenario, validate_scenario

BUNDLED_REPORT = Path(__file__).parents[1] / "perfbench" / "references" / "bundled_report.json"


def test_each_kind_has_exactly_the_checks_its_bundled_scenarios_report():
    reported: dict[str, set] = {}
    for report in json.loads(BUNDLED_REPORT.read_text())["scenarios"]:
        reported.setdefault(report["kind"], set()).update(c["name"] for c in report["checks"])
    tables = {kind: set(checks) for kind, (_, checks) in scenario._TABLES.items()}
    assert tables == reported


@pytest.mark.parametrize("bundled, name", [
    ("affine1_gauge.json", "gauge.lie_actoin"), ("affine1_gauge.json", "circle.witt"),
    ("derham_affine2.json", "gauge.validate"), ("circle.json", ""),
    ("casimir_n2.json", "glrep.tables"),
])
def test_a_check_name_outside_the_kind_table_is_rejected(bundled, name):
    scn = dict(scenario.load_bundled(bundled), checks=[name])
    pattern = rf"checks\[0\]: unknown \w+ check {re.escape(repr(name))}"
    with pytest.raises(ScenarioError, match=pattern):
        validate_scenario(scn)


# -- sample streams: the first failing sample shows which draws a check saw -----

AFFINE2_DRIFT = {
    "schema": "1", "kind": "derham",
    "variety": {"variables": ["x", "y"], "generators": []},
    "chart": 0, "B": ["y", "0"], "seed": 4, "samples": 6,
}


def _witnesses(checks):
    report = run_scenario(validate_scenario(dict(AFFINE2_DRIFT, checks=checks)), timing=False)
    return {r["name"]: (r["status"], r["witness"]) for r in report["checks"]}


def test_complex_and_morphism_draw_from_one_stream_in_that_order():
    assert _witnesses(["derham.morphism", "derham.complex"]) == {
        "derham.complex": ("fail", "sample 0: d(d(x)) = ((x*y - 3*x)/1)*e(1,2)"),
        "derham.morphism": (
            "fail",
            "sample 1: d(eta.x)=(3*x*y^4 + 6*y^3 - 11/6*y)*e(1,2) "
            "eta.d(x)=(3*x*y^4 + 6*y^3 - 11/3*y)*e(1,2)"),
    }


def test_morphism_alone_draws_the_stream_from_its_start():
    assert _witnesses(["derham.morphism"]) == {
        "derham.morphism": (
            "fail",
            "sample 0: d(eta.x)=((-3/2*x*y^3 + 9/2*x*y^2 + 1/2*x*y - 3*y^2 + 9*y + 1/2)/1^2)"
            "*e(1) + ((-3*x*y + 9/2*x - 3/2)/1^2)*e(2) "
            "eta.d(x)=((-3/2*x*y^3 + 9/2*x*y^2 + x*y - 3*y^2 - 3/2*x + 9*y + 1/2)/1^2)"
            "*e(1) + ((-3/2*x*y - 3/2)/1^2)*e(2)"),
    }


# -- vacuous checks ------------------------------------------------------------------

def test_complex_on_a_one_parameter_chart_is_computed_not_passed():
    line = validate_scenario({
        "schema": "1", "kind": "derham",
        "variety": {"variables": ["t"], "generators": []}, "chart": 0,
        "checks": ["derham.complex", "derham.morphism"], "samples": 3,
    })
    report = run_scenario(line, timing=False)
    assert report["checks"] == [
        {"name": "derham.complex", "status": "computed",
         "witness": "no degrees below N-1; vacuous"},
        {"name": "derham.morphism", "status": "pass", "witness": "3 samples"},
    ]
    assert report["status"] == "pass"


def test_an_empty_check_list_runs_no_setup():
    # the chart does not exist, so any setup would raise
    scn = validate_scenario({
        "schema": "1", "kind": "derham",
        "variety": {"variables": ["t"], "generators": []}, "chart": "nowhere",
        "checks": [],
    })
    report = run_scenario(scn)
    assert report["checks"] == [] and report["status"] == "pass"
    with pytest.raises(ScenarioError, match="scenario.chart"):
        run_scenario(dict(scn, checks=["derham.obstruction"]))
