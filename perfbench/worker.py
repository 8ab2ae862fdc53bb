"""One pass of one workload, in a fresh process.

``run.py`` starts it with the ``time.monotonic()`` reading taken just
before the start as its one argument, and the pass description as JSON
on stdin.  It writes one JSON object on stdout: the outputs to be
checked, the time from its start to the last verdict, peak memory, and
either the set-up time (untraced passes) or the trace summary (traced
passes).
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SETUP_REPEATS = 3


def poly_terms(poly, order) -> list:
    key = order.key(poly.ring)
    return [[list(e), str(poly.terms[e])] for e in sorted(poly.terms, key=key, reverse=True)]


# -- bundled ---------------------------------------------------------------------

def run_bundled(spec: dict) -> dict:
    from gaugemods import cli

    argv = ["run", "--bundled", "--no-timing"]
    if spec["seed"] is not None:
        argv += ["--seed", str(spec["seed"])]
    if spec["samples"] is not None:
        argv += ["--samples", str(spec["samples"])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit": code, "report": out.getvalue()}


def setup_bundled(spec: dict) -> None:
    """Load and validate every bundled scenario and build what its checks use."""
    from gaugemods import circle, glrep
    from gaugemods import scenario as S
    from gaugemods.gauge import GaugeModule

    for name in S.bundled_scenario_names():
        scn = S.load_bundled(name)
        kind = scn["kind"]
        if kind == "variety":
            for chart in S.build_variety(scn.get("variety", scn)).charts:
                chart.frame
        elif kind in ("gauge", "derham"):
            chart = S.select_chart(S.build_variety(scn["variety"]), scn["chart"])
            chart.frame
            if kind == "gauge":
                module = S.build_module(scn["module"])
                GaugeModule(chart, module, S.build_gauge_field(scn, chart, module.dim))
            else:
                S.build_scalar_gauge(scn, chart)
        elif kind == "circle":
            for a in scn["alphas"]:
                circle.circle_gauge(Fraction(a))
        elif kind == "casimir_table":
            for k in range(scn["N"] + 1):
                glrep.exterior_power(scn["N"], k)


# -- groebner_bases ----------------------------------------------------------------

def _parse_system(system: dict):
    from gaugemods import Ideal, PolyRing, parse_poly

    ring = PolyRing(tuple(system["variables"]))
    ideal = Ideal(ring, tuple(parse_poly(g, ring) for g in system["generators"]))
    queries = [parse_poly(q["text"], ring) for q in system["queries"]]
    return ideal, queries


def run_groebner(spec: dict) -> dict:
    from gaugemods import buchberger

    out = {}
    for system in spec["systems"]:
        ideal, queries = _parse_system(system)
        gb = buchberger(ideal)
        out[system["name"]] = {
            "basis": [poly_terms(g, gb.order) for g in gb.basis],
            "remainders": [poly_terms(gb.reduce(q), gb.order) for q in queries],
        }
    return out


def setup_groebner(spec: dict) -> None:
    for system in spec["systems"]:
        _parse_system(system)


# -- exact_linalg ------------------------------------------------------------------

def run_exact_linalg(spec: dict) -> dict:
    from gaugemods import gaussian_obstruction
    from gaugemods import scenario as S

    n, d = spec["obstruction"]
    verdict = gaussian_obstruction(n, d)
    control = gaussian_obstruction(n, d, 0)
    table = S.central_character_table(spec["table_n"])
    circle = S.run_scenario(S.validate_scenario(spec["circle"]), timing=False)
    return {"obstruction": verdict.status, "control": control.status,
            "table": table, "circle": circle}


def setup_exact_linalg(spec: dict) -> None:
    from gaugemods import circle, glrep
    from gaugemods import scenario as S

    scn = S.validate_scenario(spec["circle"])
    for a in scn["alphas"]:
        circle.circle_gauge(Fraction(a))
    n = spec["table_n"]
    for k in range(n + 1):
        glrep.exterior_power(n, k)


WORKLOADS = {
    "bundled": (run_bundled, setup_bundled),
    "groebner_bases": (run_groebner, setup_groebner),
    "exact_linalg": (run_exact_linalg, setup_exact_linalg),
}


def main() -> None:
    spawned_at = float(sys.argv[1])
    spec = json.load(sys.stdin)
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    run, setup = WORKLOADS[spec["workload"]]

    begin = time.perf_counter()
    import gaugemods.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import_s = time.perf_counter() - begin
    if not Path(gaugemods.cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported gaugemods from {gaugemods.cli.__file__}, not {root}/src")

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    outputs = run(spec["input"])
    done = time.monotonic()
    result = {
        "outputs": outputs,
        "wall_s": done - spawned_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is None:
        times = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            setup(spec["input"])
            times.append(time.perf_counter() - begin)
        result["setup_s"] = import_s + statistics.median(times)
    else:
        result["trace"] = tracer.summary()
        if spec.get("trace_file"):
            with open(spec["trace_file"], "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
