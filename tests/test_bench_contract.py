"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` looks functions, methods and module globals up
by name; a refactor that drops one, or that calls a function through a
reference taken before the tracer swapped the name, would break only the
benchmark.  These install the tracer in a fresh interpreter and run one
small scenario.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer
tracer = Tracer()
tracer.install()
from gaugemods import cli
code = cli.main(["run", sys.argv[3], "--no-timing", "--samples", "2"])
summary = tracer.summary()
for metric, least in zip(sys.argv[4::2], sys.argv[5::2]):
    seen = summary[metric]
    assert seen >= int(least), f"tracer saw {seen} {metric}, not {least}"
sys.exit(code)
"""


def _run_traced(scenario: str, metric: str, least: int,
                *more: str | int) -> subprocess.CompletedProcess:
    """Run a bundled scenario under the tracer; each (metric, least) pair
    must have been counted at least ``least`` times."""
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(ROOT / "src" / "gaugemods" / "scenarios" / scenario),
         metric, str(least), *map(str, more)],
        capture_output=True, text=True, timeout=120)


def test_tracer_installs_and_casimir_scenario_runs():
    proc = _run_traced("casimir_n2.json", "glrep.evaluate.calls", 1)
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_p_poly_matrix_on_the_casimir_scenario():
    proc = _run_traced("casimir_n2.json", "glrep.p_poly_matrix.calls", 1)
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_the_checks_that_a_check_table_calls():
    # two av_compat and two lie_action samples, ten twist_roundtrip samples
    proc = _run_traced("affine1_gauge.json", "gauge.check.calls", 14)
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_every_action_and_the_products_inside_it():
    # at two samples affine1_gauge acts 84 times; the action's products must
    # pass through the localized product the tracer wraps
    proc = _run_traced("affine1_gauge.json", "gauge.act.calls", 84,
                       "groebner.loc_mul.calls", 1)
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_the_obstruction_equations_it_solves():
    # derham_affine2 (N = 2, max degree 4) solves a 21-equation system and a
    # 10-equation control through derham._solve_exact, the name it wraps
    proc = _run_traced("derham_affine2.json", "derham.obstruction.equations", 31)
    assert proc.returncode == 0, proc.stderr
