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
seen = tracer.summary()[sys.argv[4]]
assert seen >= int(sys.argv[5]), f"tracer saw {seen} {sys.argv[4]}, not {sys.argv[5]}"
sys.exit(code)
"""


def _run_traced(scenario: str, metric: str, least: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(ROOT / "src" / "gaugemods" / "scenarios" / scenario), metric, str(least)],
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
