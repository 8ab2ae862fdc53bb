"""The gaugemods benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload bundled --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 0

Each pass of a workload runs in a fresh single-threaded worker process
(``worker.py``); passes repeat until ``--seconds`` have gone by.  Every
verdict a pass produces is checked against the references in
``references/``.  ``--trace 0`` reports the end-to-end metrics as medians
over the passes, with ``wall_s`` and ``setup_s`` rescaled by a host speed
probe that runs beside each worker; ``--trace 1`` alternates untraced and
traced passes on identical inputs and reports the per-layer metrics, the
tracing overhead, and an error if any count differs between two traced
passes.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("bundled", "groebner_bases", "exact_linalg")

# A run must end within 180 s: no pass starts that could end past this.
RUN_LIMIT_S = 165
WORKER_TIMEOUT_S = 150


def load_references() -> dict:
    refs = json.loads((HERE / "references" / "expected.json").read_text(encoding="utf-8"))
    refs["bundled_report"] = (HERE / "references" / "bundled_report.json").read_text(
        encoding="utf-8")
    return refs


def make_input(workload: str, seed: int, index: int, size: str, refs: dict) -> dict:
    if workload == "bundled":
        return inputs.bundled_input(seed, index, size)
    if workload == "groebner_bases":
        return inputs.groebner_input(seed, index, size, refs)
    return inputs.exact_linalg_input(seed, index, size)


# -- checking ----------------------------------------------------------------------

def _checks_by_key(report: dict) -> dict:
    return {(s["name"], c["name"]): c for s in report["scenarios"] for c in s["checks"]}


def check_bundled(inp: dict, out: dict, refs: dict) -> list[bool]:
    """One verdict per reference check, plus one for the exit code and bytes.

    At the scenarios' own seeds and sample counts the report must equal the
    recorded one byte for byte; otherwise each check's status must match.
    """
    exact = inp["seed"] is None and inp["samples"] is None
    ref = refs["bundled_report"]
    want = _checks_by_key(json.loads(ref))
    try:
        got = _checks_by_key(json.loads(out.get("report", "")))
    except (ValueError, KeyError):
        got = {}
    verdicts = [out.get("exit") == 0 and (not exact or out.get("report") == ref)]
    for key, rec in want.items():
        mine = got.get(key)
        verdicts.append(mine is not None and (mine == rec if exact
                                              else mine["status"] == rec["status"]))
    verdicts += [False] * len(got.keys() - want.keys())
    return verdicts


def check_groebner(inp: dict, out: dict, refs: dict) -> list[bool]:
    """The basis equals the recorded one; each normal form is the expected one."""
    verdicts = []
    for system in inp["systems"]:
        mine = out.get(system["name"], {})
        verdicts.append(mine.get("basis") == refs["bases"][system["name"]])
        remainders = mine.get("remainders", [])
        for k, query in enumerate(system["queries"]):
            verdicts.append(k < len(remainders) and remainders[k] == query["expected"])
    return verdicts


def check_exact_linalg(inp: dict, out: dict, refs: dict) -> list[bool]:
    want = refs["obstruction"]
    verdicts = [out.get("obstruction") == want["verdict"],
                out.get("control") == want["control"]]
    table = out.get("table", [])
    for k, row in enumerate(refs["tables"][str(inp["table_n"])]):
        verdicts.append(k < len(table) and table[k] == row)
    circle = inp["circle"]
    exact = circle["seed"] == 0 and circle["grid"] == refs["circle_grid"]
    want_checks = {c["name"]: c for c in refs["circle"]["checks"]}
    got_checks = {c["name"]: c for c in out.get("circle", {}).get("checks", [])}
    for name, rec in want_checks.items():
        mine = got_checks.get(name)
        verdicts.append(mine is not None and (mine == rec if exact
                                              else mine["status"] == rec["status"]))
    verdicts += [False] * len(got_checks.keys() - want_checks.keys())
    return verdicts


CHECKS = {"bundled": check_bundled, "groebner_bases": check_groebner,
          "exact_linalg": check_exact_linalg}


# -- host speed probe --------------------------------------------------------------
#
# The machine's speed swings by up to 1.8x for seconds to minutes at a time
# (other tenants share its cores), which moves whole runs.  While a worker
# runs, this process times a fixed unit of pure-Python Fraction polynomial
# arithmetic every PROBE_INTERVAL_S on the other core, about 8% of one core.
# Its mean time over a pass tracks how slowly the worker ran, so wall_s and
# setup_s are rescaled to the speed at which one unit takes PROBE_REF_S.

PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.001
_PROBE_POLYS = inputs.cyclic(5)[1][1:4]


def probe_unit() -> float:
    a, b, c = _PROBE_POLYS
    began = time.perf_counter()
    for _ in range(2):
        inputs.p_mul(inputs.p_mul(b, c), a)
    return time.perf_counter() - began


# -- passes ------------------------------------------------------------------------

def spawn(workload: str, inp: dict, trace: bool, trace_file: Path | None) -> dict:
    """Run one pass in a fresh worker, probing host speed until it exits.

    Returns the worker's result with the mean probe time added as
    ``probe_s``, or {"error": ...}.
    """
    payload = json.dumps({"root": str(ROOT), "workload": workload, "input": inp,
                          "trace": trace, "trace_file": str(trace_file) if trace_file else None})
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(HERE / "worker.py")]
    OUT.mkdir(exist_ok=True)
    # files, not pipes: a worker that fills a pipe nobody reads would stall
    with tempfile.TemporaryFile("w+", dir=OUT) as out, \
            tempfile.TemporaryFile("w+", dir=OUT) as err:
        proc = subprocess.Popen(argv + [repr(time.monotonic())], stdin=subprocess.PIPE,
                                stdout=out, stderr=err, env=env, cwd=ROOT, text=True)
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker has exited; its status says why
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        probes = []
        try:
            while proc.poll() is None and time.monotonic() < deadline:
                probes.append(probe_unit())
                time.sleep(PROBE_INTERVAL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
                return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"worker exit {proc.returncode}: {last[0]}"}
    result = json.loads(stdout.strip().splitlines()[-1])
    result["probe_s"] = statistics.mean(probes) if probes else probe_unit()
    return result


class Tally:
    """Verdicts attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, verdicts: list[bool]) -> None:
        self.attempted += len(verdicts)
        self.failed += verdicts.count(False)

    def record(self, workload: str, inp: dict, result: dict, refs: dict) -> None:
        if "error" in result:
            # every verdict the pass would have given counts as failed
            print(f"{workload}: {result['error']}", file=sys.stderr)
            self.add([False] * len(CHECKS[workload](inp, {}, refs)))
            return
        verdicts = CHECKS[workload](inp, result["outputs"], refs)
        if not all(verdicts):
            print(f"{workload}: {verdicts.count(False)} of {len(verdicts)} verdicts wrong",
                  file=sys.stderr)
        self.add(verdicts)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def _keep_going(started: float, seconds: int, durations: list[float]) -> bool:
    """Start another pass if it is due to end within half a pass of ``seconds``.

    Runs then last ``seconds`` give or take half a pass, rather than
    overrunning by up to a whole one.
    """
    elapsed = time.monotonic() - started
    typical = statistics.median(durations)
    return (elapsed + typical / 2 < seconds
            and elapsed + 1.5 * max(durations) < RUN_LIMIT_S)


def measure(workload: str, seed: int, seconds: int, size: str, refs: dict) -> dict:
    """Untraced passes on fresh inputs until the time is up; medians.

    ``wall_s`` and ``setup_s`` are each pass's times rescaled by the host
    speed probe; ``raw_wall_s`` and ``raw_setup_s`` are as the clock read.

    A pass whose input is marked ``"timed": False`` is checked but left out
    of the medians, because its cost differs by design from the others'.
    """
    tally, passes, durations = Tally(), [], []
    started = time.monotonic()
    index = timed = 0
    while timed == 0 or _keep_going(started, seconds, durations):
        began = time.monotonic()
        inp = make_input(workload, seed, index, size, refs)
        timed += inp.get("timed", True)
        result = spawn(workload, inp, False, None)
        durations.append(time.monotonic() - began)
        tally.record(workload, inp, result, refs)
        if "error" not in result and inp.get("timed", True):
            passes.append(result)
        index += 1
    metrics = {}
    if passes:
        for name in ("wall_s", "setup_s"):
            metrics[name] = statistics.median(p[name] * PROBE_REF_S / p["probe_s"]
                                              for p in passes)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        for name in ("wall_s", "setup_s"):
            metrics["raw_" + name] = statistics.median(p[name] for p in passes)
        metrics["probe_ms"] = statistics.median(p["probe_s"] * 1000 for p in passes)
    walls = [p["wall_s"] for p in passes]
    return {"tally": tally, "metrics": metrics, "passes": index, "walls": walls,
            "elapsed": time.monotonic() - started}


def trace_value(name: str, summary: dict) -> float:
    if name.startswith("scenario.") and name.endswith("_s"):
        return summary.get(f"{name[:-2]}.total_s", 0.0)
    return summary.get(name, 0)


def measure_traced(workload: str, seed: int, seconds: int, size: str, refs: dict,
                   layer_metrics: list[dict]) -> dict:
    """Untraced and traced passes alternate on the same inputs.

    Counts must repeat exactly between traced passes; a difference is one
    failed verdict, and the differing counts are printed.
    """
    tally, durations = Tally(), []
    untraced, traced = [], []
    inp = make_input(workload, seed, 1, size, refs)
    trace_file = OUT / f"{workload}.trace.json"
    started = time.monotonic()
    schedule = itertools.chain([False, True, True], itertools.cycle([False, True]))
    for n, is_traced in enumerate(schedule):
        if n >= 3 and not _keep_going(started, seconds, durations):
            break
        began = time.monotonic()
        result = spawn(workload, inp, is_traced, trace_file if is_traced else None)
        durations.append(time.monotonic() - began)
        tally.record(workload, inp, result, refs)
        if "error" not in result:
            (traced if is_traced else untraced).append(result)

    metrics: dict[str, float] = {}
    if traced:
        summaries = [r["trace"] for r in traced]
        counts = {k for s in summaries for k in s if not k.endswith("_s")}
        differing = sorted(k for k in counts if len({s.get(k, 0) for s in summaries}) > 1)
        if differing:
            print(f"{workload}: counts differ between traced passes: {differing}",
                  file=sys.stderr)
        tally.add([not differing])
        for m in layer_metrics:
            values = [trace_value(m["name"], s) for s in summaries]
            # counts are equal across passes (or reported above); times vary
            metrics[m["name"]] = statistics.median(values) if m["unit"] == "s" else values[0]
    if traced and untraced:
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in untraced))
    return {"tally": tally, "metrics": metrics,
            "passes": f"{len(untraced)} untraced and {len(traced)} traced",
            "elapsed": time.monotonic() - started}


# -- reporting ---------------------------------------------------------------------

def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(workload: str, run: dict, units: dict[str, str]) -> None:
    tally = run["tally"]
    print(f"== {workload}: {run['passes']} passes in {run['elapsed']:.1f} s")
    if "walls" in run and run["walls"]:
        walls = run["walls"]
        print(f"   pass wall_s: {' '.join(f'{w:.3f}' for w in walls)}")
    for name, value in run["metrics"].items():
        print(f"   {name:34s} {_fmt(value):>14s} {units.get(name, '')}")
    print(f"   {'fail_ratio':34s} {_fmt(tally.fail_ratio):>14s} ratio "
          f"({tally.failed} of {tally.attempted} verdicts failed)")


def main(argv: list[str] | None = None, references: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="tiny keeps every code path but runs in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gaugemods" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'gaugemods'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or declared["run_seconds"]
    table = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    refs = references or load_references()
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    units = {m["name"]: m["unit"] for m in table["end_to_end"] + table["per_layer"]}
    result_names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = Tally()
    metrics = {}
    for workload in workloads:
        if args.trace:
            run = measure_traced(workload, args.seed, seconds, args.size, refs,
                                 table["per_layer"])
        else:
            run = measure(workload, args.seed, seconds, args.size, refs)
        report(workload, run, units)
        total.attempted += run["tally"].attempted
        total.failed += run["tally"].failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for name in result_names:
            if name in run["metrics"]:
                metrics[prefix + name] = {"value": run["metrics"][name], "unit": units[name]}
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
