"""Smoke test of the benchmark itself, at tiny sizes (about 30 s).

    python3 perfbench/smoke.py

Checks that every metric in ``metrics.json`` is printed with its unit by
the untraced and the traced run of every workload, that the result line
carries every metric ``BENCHMARK.json`` declares, that a corrupted
reference drives ``fail_ratio`` above 0 on each workload, that the
benchmark refuses to run without the package source, and, when sympy is
installed, that the recorded bases still match sympy's.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = run.HERE
ROOT = run.ROOT
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def printed(stdout: str, workload: str) -> dict[str, str]:
    """Metric name -> unit, from the table printed for one workload."""
    section = stdout.split(f"== {workload}:")[1].split("\n== ")[0]
    return {m.group(1): m.group(2)
            for m in re.finditer(r"^   (\S+)\s+\S+ (\S+)", section, re.MULTILINE)}


def check_printed(trace: int, table: dict, declared: dict) -> None:
    proc = run_cli("--workload", "all", "--size", "tiny", "--seconds", "1",
                   "--trace", str(trace))
    expect(proc.returncode == 0, f"--trace {trace} exits 0 ({proc.stderr.strip()[-300:]})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0, f"--trace {trace}: every verdict right")
    kind = "per_layer" if trace else "end_to_end"
    for workload in run.WORKLOADS:
        shown = printed(proc.stdout, workload)
        for m in table[kind]:
            expect(shown.get(m["name"]) == m["unit"],
                   f"--trace {trace} {workload}: prints {m['name']} in {m['unit']}")
        for m in declared[kind]:
            got = result["metrics"].get(f"{workload}.{m['name']}", {})
            expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                   f"--trace {trace} {workload}: result line has {m['name']}")


def corrupt(refs: dict, workload: str) -> dict:
    bad = copy.deepcopy(refs)
    if workload == "bundled":
        bad["bundled_report"] = bad["bundled_report"].replace('"pass"', '"fail"', 1)
    elif workload == "groebner_bases":
        bad["bases"]["cyclic4"][0][0][1] = "2"
    else:
        bad["tables"]["2"][1]["omega"][0] = "7"
    return bad


def check_corrupted(refs: dict) -> None:
    for workload in run.WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", workload, "--size", "tiny", "--seconds", "1"],
                     references=corrupt(refs, workload))
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        ratio = re.search(r"fail_ratio\s+(\S+)", out.getvalue())
        expect(result["failed"] > 0 and not result["correct"] and ratio is not None
               and float(ratio.group(1)) > 0,
               f"{workload}: a corrupted reference gives fail_ratio > 0")


def check_without_source() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_cli("--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


def check_declared(table: dict, declared: dict) -> None:
    for kind in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in table[kind]}
        for m in declared[kind]:
            expect(units.get(m["name"]) == m["unit"],
                   f"BENCHMARK.json {m['name']} is in metrics.json with unit {m['unit']}")


def check_sympy(refs: dict) -> None:
    try:
        import sympy  # noqa: F401
    except ImportError:
        print("skip sympy is not installed; bases not cross-checked")
        return
    import make_references
    for name, basis in refs["bases"].items():
        expect(make_references.sympy_basis(name) == basis, f"{name}: basis equals sympy's")


def main() -> int:
    table = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    refs = run.load_references()
    check_declared(table, declared)
    check_printed(0, table, declared)
    check_printed(1, table, declared)
    check_corrupted(refs)
    check_without_source()
    check_sympy(refs)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
