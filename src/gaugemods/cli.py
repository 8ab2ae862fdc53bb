"""Command-line entry point for batch verification.

Subcommands:

    variety check <file>      smoothness, rank, charts of a variety file
    variety charts <file>     list charts with minors and parameters
    gauge verify <scenario>   gauge-field axioms and module properties
    casimir table <N>         central characters of the exterior powers
    derham verify <scenario>  chain/morphism checks and the image obstruction
    circle verify             the explicit circle-module checks
    run <scenario> [...]      execute scenario files (or --bundled)

Exit codes: 0 all checks pass, 1 at least one check failed, 2 input or
schema error, 3 a resource budget was exceeded.  Reports are JSON by
default (deterministic key order; ``--no-timing`` drops the elapsed
fields so reports are byte-comparable) or ``--text`` for a summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import scenario as scenario_mod
from .linalg import BudgetExceededError
from .scenario import ScenarioError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _add_common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # flags live on the top parser (with real defaults) and on every leaf
    # subparser (defaulting to SUPPRESS), so they are accepted in either
    # position on the command line
    suppress = argparse.SUPPRESS
    parser.add_argument("--json", action="store_true",
                        default=True if top else suppress, dest="json_out",
                        help="emit a JSON report (default)")
    parser.add_argument("--text", action="store_false",
                        default=True if top else suppress, dest="json_out",
                        help="emit a plain-text summary instead of JSON")
    parser.add_argument("--no-timing", action="store_true",
                        default=False if top else suppress,
                        help="omit elapsed-time fields from the report")
    parser.add_argument("--seed", type=int, default=None if top else suppress,
                        help="override the scenario seed")
    parser.add_argument("--samples", type=int, default=None if top else suppress,
                        help="override the scenario sample count")
    parser.add_argument("--max-degree", type=int, default=None if top else suppress,
                        help="override the scenario degree bound")


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gaugemods",
                                  description="exact verification of gauge-module algebra")
    _add_common_flags(top, top=True)
    sub = top.add_subparsers(dest="command", required=True)

    def leaf(group, name: str, help_text: str) -> argparse.ArgumentParser:
        parser = group.add_parser(name, help=help_text)
        _add_common_flags(parser, top=False)
        return parser

    variety = sub.add_parser("variety", help="variety-level commands")
    vsub = variety.add_subparsers(dest="subcommand", required=True)
    leaf(vsub, "check", "smoothness and chart certificate").add_argument("file")
    leaf(vsub, "charts", "list the charts").add_argument("file")

    gauge = sub.add_parser("gauge", help="gauge-module commands")
    gsub = gauge.add_subparsers(dest="subcommand", required=True)
    leaf(gsub, "verify", "verify a gauge scenario").add_argument("file")

    casimir = sub.add_parser("casimir", help="Casimir commands")
    csub = casimir.add_subparsers(dest="subcommand", required=True)
    leaf(csub, "table", "central characters of exterior powers").add_argument("N", type=int)

    derham = sub.add_parser("derham", help="de Rham commands")
    dsub = derham.add_subparsers(dest="subcommand", required=True)
    leaf(dsub, "verify", "verify a de Rham scenario").add_argument("file")

    circle = sub.add_parser("circle", help="circle-module commands")
    osub = circle.add_subparsers(dest="subcommand", required=True)
    overify = leaf(osub, "verify", "run the circle-module checks")
    overify.add_argument("--alpha", action="append", dest="alphas", help=(
        f"rational a/b; repeatable (default: {' '.join(scenario_mod.CIRCLE_ALPHAS)})"))
    overify.add_argument("--grid", type=int,
                         help=f"Witt grid half-width (default: {scenario_mod.CIRCLE_GRID})")

    run = leaf(sub, "run", "execute scenario files")
    run.add_argument("files", nargs="*")
    run.add_argument("--bundled", action="store_true",
                     help="also run every bundled scenario")
    return top


def _scenario_for(args: argparse.Namespace) -> dict:
    if args.command == "variety":
        raw = scenario_mod.read_scenario(args.file)
        # accept both a full scenario and the bare {variables, generators} form
        if isinstance(raw, dict) and raw.get("kind") != "variety":
            raw = {"schema": "1", "kind": "variety",
                   "variety": raw.get("variety", raw),
                   "name": raw.get("name", "variety")}
        scn = scenario_mod.validate_scenario(raw, args.file)
        if args.subcommand == "charts":
            scn = dict(scn)
            scn["checks"] = ["variety.charts"]
        return scn
    if args.command in ("gauge", "derham"):
        scn = scenario_mod.load_scenario(args.file)
        if scn["kind"] != args.command:
            raise ScenarioError(
                f"{args.file}: expected a {args.command} scenario, got {scn['kind']!r}")
        return scn
    if args.command == "casimir":
        return scenario_mod.validate_scenario(
            {"schema": "1", "kind": "casimir_table", "N": args.N,
             "name": f"casimir_table_{args.N}"})
    if args.command == "circle":
        # only what the user gave: the scenario holds the defaults
        given = {key: getattr(args, key) for key in ("alphas", "grid")
                 if getattr(args, key) is not None}
        return scenario_mod.validate_scenario(
            {"schema": "1", "kind": "circle", "name": "circle", **given})
    raise AssertionError(f"unhandled command {args.command}")


def _emit(report: dict, json_out: bool) -> None:
    if json_out:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    scenarios = report.get("scenarios", [report])
    for scn in scenarios:
        print(f"== {scn['name']} [{scn['status']}]")
        for rec in scn["checks"]:
            elapsed = f" ({rec['elapsed_ms']} ms)" if "elapsed_ms" in rec else ""
            print(f"  {rec['status'].upper():8s} {rec['name']}{elapsed}")
            witness = rec.get("witness")
            if rec["status"] != "pass" and witness is not None:
                if not isinstance(witness, str):
                    witness = json.dumps(witness, sort_keys=True)
                print(f"           witness: {witness}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    timing = not args.no_timing
    try:
        if args.command == "run":
            reports = []
            scenarios: list[dict] = []
            if args.bundled:
                for name in scenario_mod.bundled_scenario_names():
                    scenarios.append(scenario_mod.load_bundled(name))
            for path in args.files:
                scenarios.append(scenario_mod.load_scenario(path))
            if not scenarios:
                raise ScenarioError("run: no scenario files given (use paths or --bundled)")
            for scn in scenarios:
                reports.append(scenario_mod.run_scenario(
                    scn, seed=args.seed, samples=args.samples,
                    max_degree=args.max_degree, timing=timing))
            status = "fail" if any(r["status"] == "fail" for r in reports) else "pass"
            report = {"schema": scenario_mod.SCHEMA_VERSION,
                      "scenarios": reports, "status": status}
        else:
            scn = _scenario_for(args)
            report = scenario_mod.run_scenario(
                scn, seed=args.seed, samples=args.samples,
                max_degree=args.max_degree, timing=timing)
            status = report["status"]
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET

    _emit(report, args.json_out)
    return EXIT_PASS if status == "pass" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
