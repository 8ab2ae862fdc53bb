"""Fuzzed command lines and scenario files: the exit code is always 0, 1, 2
or 3, and nothing ever escapes as a traceback.

``main`` runs in process.  An exception other than argparse's ``SystemExit``
would print a traceback from the real command, so the properties let it
fail the test.  Samples stay at 1 or 2 so that every run is short.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugemods.cli import main
from gaugemods.scenario import ScenarioError, bundled_scenario_names, load_scenario

SCENARIOS = resources.files("gaugemods").joinpath("scenarios")
BUNDLED = {name: json.loads(SCENARIOS.joinpath(name).read_text(encoding="utf-8"))
           for name in bundled_scenario_names()}

HUGE = 10**9
INTS = (-HUGE, -2, -1, 0, 1, 2, 3, 7, HUGE)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv):
    code, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


# -- command lines -----------------------------------------------------------------

FILE, VALUE = object(), object()
COMMANDS = [
    ["variety", "check", FILE], ["variety", "charts", FILE], ["gauge", "verify", FILE],
    ["derham", "verify", FILE], ["casimir", "table", VALUE], ["circle", "verify"],
    ["run", FILE], ["run", FILE, FILE], ["run", "--bundled"], ["run"], ["variety"],
    ["nonsense"], [],
]
FLAGS = [["--json"], ["--text"], ["--no-timing"], ["--bundled"], ["--help"],
         ["--seed", VALUE], ["--samples", VALUE], ["--max-degree", VALUE],
         ["--alpha", VALUE], ["--grid", VALUE], ["--unknown"]]

values = st.one_of(
    st.sampled_from(INTS).map(str),
    st.sampled_from(["x", "", "1/2", "-1/3", "1/0", "nan", "true", "false", "-", "--",
                     "1e3", "0x10", " 7", "5/3"]),
    st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
            max_size=6))


@st.composite
def command_lines(draw, files):
    def fill(parts):
        return [draw(values) if p is VALUE else draw(st.sampled_from(files)) if p is FILE
                else p for p in parts]

    argv = fill(draw(st.sampled_from(COMMANDS)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = fill(draw(st.sampled_from(FLAGS)))
    # last wins: a bad --samples earlier still exits 2, a good one keeps runs short
    return argv + ["--samples", draw(st.sampled_from(["1", "2"]))]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_command_lines_keep_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp, "scenario.json")
        good.write_text(json.dumps(BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))]))
        junk = Path(tmp, "junk.json")
        junk.write_text(data.draw(st.sampled_from(["", "[]", "{", "null", '{"kind": 3}'])))
        files = [str(good), str(junk), str(Path(tmp, "missing.json")), tmp]
        assert_contract(data.draw(command_lines(files)))


# -- scenario files ----------------------------------------------------------------

def _paths(obj, prefix=()):
    """Every key path into nested dicts and lists."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


OTHER_TYPES = [None, True, False, "x", "1/2", "", 2.5, [], {}, ["x"], {"N": 1}, [[1]]]


@st.composite
def mutated_scenarios(draw):
    scn = json.loads(json.dumps(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(scn))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        target = scn
        for p in parents:
            target = target[p]
        action = draw(st.sampled_from(["drop", "retype", "range"]))
        if action == "drop":
            del target[key]
        elif action == "retype":
            target[key] = json.loads(json.dumps(draw(st.sampled_from(OTHER_TYPES))))
        else:
            target[key] = draw(st.sampled_from(INTS))
    return scn


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_scenarios())
def test_mutated_scenario_files_keep_the_exit_code_contract(scn):
    argv = ["run", "--no-timing"]
    samples = scn.get("samples") if isinstance(scn, dict) else None
    if not (type(samples) is int and samples <= 2):
        argv += ["--samples", "2"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scenario.json")
        path.write_text(json.dumps(scn))
        assert_contract(argv + [str(path)])


# -- varieties: products of linear factors and squares are reducible or non-reduced,
# so Cramer's rule can leave a chart without a tangent frame.  A square is of at
# most two factors: two squares of three (degree 6 each) take the smoothness
# check's Groebner basis and the chart frame a minute or more (ROADMAP item 6).

linear_factors = st.tuples(*[st.integers(-2, 2)] * 4).map(
    lambda c: "({}*x+{}*y+{}*z+{})".format(*c))


def products(max_factors):
    return st.lists(linear_factors, min_size=1, max_size=max_factors).map("*".join)


generator_lists = st.lists(st.one_of(
    products(3),
    st.one_of(products(2), st.sampled_from(["x^2+y^2-1", "x*y-z", "x^2-y"])).map(
        lambda p: f"({p})^2"),
    st.sampled_from(["x^2+y^2+z^2-1", "x*y-1", "x-y"])), min_size=1, max_size=2)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generator_lists)
def test_fuzzed_varieties_keep_the_exit_code_contract(generators):
    """``variety check`` on the bare variety, and a de Rham run on its first
    chart, which builds that chart's frame."""
    variety = {"variables": ["x", "y", "z"], "generators": generators}
    derham = dict(BUNDLED["derham_sphere.json"], variety=variety, chart=0)
    with tempfile.TemporaryDirectory() as tmp:
        bare, scn = Path(tmp, "variety.json"), Path(tmp, "derham.json")
        bare.write_text(json.dumps(variety))
        scn.write_text(json.dumps(derham))
        assert_contract(["variety", "check", str(bare), "--no-timing"])
        assert_contract(["run", "--no-timing", "--samples", "1", str(scn)])


# -- inputs found by fuzzing: each crashed, hung or passed vacuously before its check

def _with(name, edit):
    scn = json.loads(json.dumps(BUNDLED[name]))
    edit(scn)
    return scn


FOUND = {
    "chart index -1 picked the last chart": (
        _with("sphere_gauge_flat.json", lambda s: s.update(chart=-1)), 2),
    "duplicate variable names raised ValueError": (
        _with("sphere_variety.json", lambda s: s["variety"].update(variables=["x", "x", "z"])),
        2),
    "a variety spec that is not an object raised TypeError": (
        _with("sphere_variety.json", lambda s: s.update(variety=None)), 2),
    "a matrix gauge field with a number for a row raised TypeError": (
        _with("affine1_gauge.json", lambda s: s.update(B=[[1]])), 2),
    "a huge module rank built the module first": (
        _with("sphere_gauge_flat.json", lambda s: s["module"].update(N=HUGE, kind="trivial")),
        2),
    "a huge grid built every grid pair first": (
        _with("circle.json", lambda s: s.update(grid=HUGE)), 3),
    "a huge maxDegree built the whole obstruction system": (
        _with("derham_affine2.json", lambda s: s.update(maxDegree=HUGE)), 3),
    "a misspelled check name ran no check and passed": (
        _with("sphere_gauge_grad.json", lambda s: s.update(checks=["gauge.lie_actoin"])), 2),
    "a de Rham chart with no parameters raised in the checks": (
        _with("derham_affine2.json", lambda s: s.update(
            variety={"variables": ["x"], "generators": ["x"]}, chart=0)), 2),
    "a custom module entry 1/0 raised ZeroDivisionError": (
        _with("affine1_gauge.json", lambda s: s.update(
            module={"N": 1, "kind": "custom", "matrices": [[["1/0"]]]})), 2),
    "a 0-dimensional custom module crashed the sampled checks": (
        _with("affine1_gauge.json", lambda s: s.update(
            module={"N": 1, "kind": "custom", "matrices": [[]]})), 2),
    "a superscript digit in a generator raised ValueError": (
        _with("sphere_variety.json", lambda s: s["variety"].update(
            generators=["2\u00b2*x+y-1"])), 2),
    "a number of more than 4,300 digits raised ValueError": (
        _with("sphere_variety.json", lambda s: s["variety"].update(
            generators=["1" * 5000 + "*x+y-1"])), 2),
    "an exponent of more than 4,300 digits raised ValueError": (
        _with("sphere_variety.json", lambda s: s["variety"].update(
            generators=["x^" + "1" * 5000 + "+y-1"])), 2),
    "an entry over h^3000 recursed once per power of h": (
        _with("sphere_gauge_flat.json", lambda s: s.update(
            B=[{"num": "1", "hpower": 3000}, "0"])), 3),
    "an entry over h^(10^9) with h = 1 recursed once per power of h": (
        _with("affine2_gauge.json", lambda s: s.update(
            B=[{"num": "1", "hpower": HUGE}, "0"])), 0),
    "an entry over h^(10^9) with h = x on x^2 = 2 built powers without end": (
        _with("affine1_gauge.json", lambda s: s.update(
            variety={"variables": ["x", "y"], "generators": ["x^2-2"]},
            B=[{"num": "1", "hpower": HUGE}])), 3),
}
for generators in (["x*y"], ["x*z", "(x-1)*y"], ["x^2*y"], ["(x^2+y^2-1)^2"],
                   ["x^2+y^2+z^2-1", "x*y"]):
    FOUND[f"a chart of {generators} without a tangent frame raised ArithmeticError"] = (
        _with("sphere_variety.json", lambda s: s["variety"].update(generators=generators)),
        1)


def test_inputs_found_by_fuzzing(tmp_path):
    for why, (scn, want) in FOUND.items():
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scn))
        code, err = run(["run", "--no-timing", "--samples", "1", str(path)])
        assert (code, "Traceback" in err) == (want, False), why


@pytest.mark.parametrize("raw", [
    b'{"schema": "1", "kind": "variety", "name": "\xff"}',
    b'{"schema": "1", "kind": "gauge", "seed": ' + b"1" * 5000 + b"}",
], ids=["not UTF-8", "an integer of 5,000 digits"])
def test_a_file_that_json_dumps_cannot_write_exits_2(tmp_path, raw):
    """``load_scenario`` and the variety command, which both read through
    ``read_scenario``, once raised UnicodeDecodeError or ValueError on these
    bytes.  ``json.dumps`` writes neither, so ``FOUND`` cannot hold them.
    Every command reports the same text."""
    path = tmp_path / "scenario.json"
    path.write_bytes(raw)
    with pytest.raises(ScenarioError, match="cannot load scenario"):
        load_scenario(path)
    for argv in (["run"], ["variety", "check"], ["gauge", "verify"]):
        code, err = run(argv + [str(path)])
        assert (code, "Traceback" in err) == (2, False), argv
        assert err.startswith(f"input error: cannot load scenario {path}: "), argv


def test_a_zero_generator_exits_2_and_names_it(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        _with("sphere_variety.json", lambda s: s["variety"].update(generators=["x-x"]))))
    code, err = run(["run", "--no-timing", str(path)])
    assert code == 2 and "zero generator" in err and "Traceback" not in err


def test_a_huge_casimir_rank_exits_3_without_counting_terms():
    code, err = run(["casimir", "table", str(HUGE)])
    assert code == 3 and "needs more than 200000 expansion terms" in err
