"""Record the answers the benchmark checks every pass against.

Run from the repository root, on the commit whose behaviour is the
reference:

    python3 perfbench/make_references.py

It writes ``perfbench/references/bundled_report.json`` (the exact stdout
of ``gaugemods run --bundled --no-timing``) and
``perfbench/references/expected.json`` (reduced grevlex bases, Casimir
tables and the circle report).  Each basis is also computed with sympy,
independently of the package, and the script stops if the two disagree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402


def sympy_basis(system: str) -> list:
    """The reduced grevlex basis from sympy, in the ``inputs.terms`` form.

    Each element is made monic by its grevlex leading coefficient (sympy's
    ``Poly.monic`` would use the lex one) and the basis is sorted by
    decreasing grevlex leading monomial, as the package sorts it.
    """
    import sympy

    names, gens = inputs.SYSTEMS[system]()
    syms = sympy.symbols(names)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator) *
                 sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                 for e, c in g.items()) for g in gens]
    basis = []
    for p in sympy.groebner(exprs, *syms, order="grevlex").exprs:
        poly = sympy.Poly(p, *syms)
        terms = {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}
        lead = max(terms, key=inputs.grevlex_key)
        basis.append({e: c / terms[lead] for e, c in terms.items()})
    basis.sort(key=lambda g: inputs.grevlex_key(max(g, key=inputs.grevlex_key)), reverse=True)
    return [inputs.terms(g) for g in basis]


def main() -> int:
    from gaugemods import Ideal, PolyRing, buchberger, parse_poly
    from gaugemods import scenario as S

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    report = subprocess.run(
        [sys.executable, "-m", "gaugemods.cli", "run", "--bundled", "--no-timing"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout

    bases = {}
    for name in inputs.SYSTEMS:
        names, gens = inputs.SYSTEMS[name]()
        ring = PolyRing(names)
        gb = buchberger(Ideal(ring, tuple(parse_poly(inputs.render(g, names), ring)
                                          for g in gens)))
        key = gb.order.key(ring)
        bases[name] = [[[list(e), str(g.terms[e])]
                        for e in sorted(g.terms, key=key, reverse=True)] for g in gb.basis]
        if bases[name] != sympy_basis(name):
            print(f"{name}: the package's basis differs from sympy's", file=sys.stderr)
            return 1

    circle_grid = inputs.SIZES["full"]["circle_grid"]
    expected = {
        "bases": bases,
        "obstruction": {"verdict": "INFEASIBLE_UP_TO_D", "control": "FEASIBLE"},
        "tables": {str(n): S.central_character_table(n)
                   for n in sorted({s["table_n"] for s in inputs.SIZES.values()})},
        "circle": S.run_scenario(S.validate_scenario(
            inputs.exact_linalg_input(inputs.DEFAULT_SEED, 0, "full")["circle"]),
            timing=False),
        "circle_grid": circle_grid,
    }
    refs = HERE / "references"
    refs.mkdir(exist_ok=True)
    (refs / "bundled_report.json").write_text(report, encoding="utf-8")
    (refs / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
