"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` looks functions, methods and module globals up
by name; a refactor that drops one would break only the benchmark.  This
installs the tracer in a fresh interpreter and runs one small scenario.
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
code = cli.main(["run", sys.argv[3], "--no-timing"])
assert tracer.summary()["glrep.evaluate.calls"] > 0, "tracer saw no glrep.evaluate"
sys.exit(code)
"""


def test_tracer_installs_and_casimir_scenario_runs():
    scenario = ROOT / "src" / "gaugemods" / "scenarios" / "casimir_n2.json"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(scenario)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
