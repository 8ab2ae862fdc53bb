"""Spans and counters around the package's public functions, from outside.

``Tracer.install`` wraps the functions and methods listed in ``LAYERS``.
A module-level function is replaced under every name that refers to it
in any ``gaugemods`` module, because modules such as ``scenario`` and
``variety`` import functions with ``from ... import`` and look them up
in their own namespace.  A method is replaced under every alias in its
class, so ``__rmul__ = __mul__`` is covered as well.

Each call records one span (name, parent, start, end) in flat in-memory
arrays; nothing is written until ``Tracer.summary`` is asked for.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # four int64 per span: name id, parent span index, start ns, end ns
        self.spans = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` is a string or a function of the args."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        fixed = self._id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = fixed if fixed is not None else self._id(name(args))
            idx = len(spans)
            spans.extend((sid, stack[-1] if stack else -1, clock(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx + 3] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, fn, after):
        """Wrap fn with a counting hook only, for work inside a traced span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    # -- hooks -----------------------------------------------------------

    def _raise(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _after_reduce(self, args, result) -> None:
        self.counts["groebner.reduce.terms_in"] += len(args[1].terms)
        self.counts["groebner.reduce.terms_out"] += len(result.terms)
        self._raise("groebner.coeff_bits_max", _coeff_bits(result))

    def _after_buchberger(self, args, result) -> None:
        self.counts["groebner.basis_terms"] += sum(len(g.terms) for g in result.basis)
        for g in result.basis:
            self._raise("groebner.coeff_bits_max", _coeff_bits(g))

    def _after_spoly(self, args, result) -> None:
        self._raise("groebner.coeff_bits_max", _coeff_bits(result))

    def _after_localized(self, args, result) -> None:
        self._raise("groebner.max_hpower", result.hpower)
        self._raise("groebner.max_num_terms", len(result.num.rep.terms))

    def _after_solve(self, args, result) -> None:
        matrix = args[0]
        self.counts["derham.obstruction.equations"] += len(matrix)
        self.counts["derham.obstruction.unknowns"] += len(matrix[0]) if matrix else 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from gaugemods import (circle, derham, gauge, glrep, groebner, parser,
                               polyring, scenario, variety)

        P, G, L = polyring.Polynomial, groebner.GroebnerBasis, groebner.LocalizedElement
        loc = self._after_localized
        methods = [
            (P, "__mul__", "polyring.mul", None),
            (P, "__add__", "polyring.add", None),
            (P, "partial", "polyring.partial", None),
            (G, "reduce", "groebner.reduce", self._after_reduce),
            (L, "__mul__", "groebner.loc_mul", loc),
            (L, "__add__", "groebner.loc_add", loc),
            (L, "__eq__", "groebner.loc_eq", None),
            (groebner.TauDerivation, "__call__", "variety.tau", loc),
            (variety.Variety, "__init__", "variety.build", None),
            (variety.Variety, "smoothness_check", "variety.smoothness", None),
            (gauge.GaugeModule, "act", "gauge.act", None),
        ]
        functions = [
            (groebner.buchberger, "groebner.buchberger", self._after_buchberger),
            (groebner.s_polynomial, "groebner.spoly", self._after_spoly),
            (variety.solve_tau, "variety.build", None),
            (gauge.check_av_compat, "gauge.check", None),
            (gauge.check_lie_action, "gauge.check", None),
            (derham.d, "derham.d", None),
            (derham.act_form, "derham.act_form", None),
            (derham.gaussian_obstruction, "derham.obstruction", None),
            (glrep.evaluate, "glrep.evaluate", None),
            (glrep.central_character, "glrep.central_character", None),
            (glrep.p_poly_matrix, "glrep.p_poly_matrix", None),
            (glrep.exceptional_check, "glrep.exceptional_check", None),
            (circle.act_e, "circle.act_e", None),
            (circle.apply_word, "circle.apply_word", None),
            (circle.gauge_crosscheck, "circle.crosscheck", None),
            (parser.parse_poly, "parser.parse", None),
            (scenario.run_scenario, lambda args: f"scenario.{args[0].get('name')}", None),
        ]
        for cls, attr, name, after in methods:
            original = cls.__dict__[attr]
            wrapped = self.span(name, original, after)
            for alias, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, alias, wrapped)
        charts = variety.Variety.__dict__["charts"]
        variety.Variety.charts = property(self.span("variety.build", charts.fget))
        for fn, name, after in functions:
            _replace_everywhere(fn, self.span(name, fn, after))
        _replace_everywhere(derham._solve_exact, self.counter(derham._solve_exact,
                                                              self._after_solve))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus the counters."""
        n = len(self.names)
        calls, total, child = [0] * n, [0] * n, [0] * n
        spans = self.spans
        for idx in range(0, len(spans), 4):
            sid, parent, start, end = spans[idx:idx + 4]
            dur = end - start
            calls[sid] += 1
            total[sid] += dur
            if parent >= 0:
                child[spans[parent]] += dur
        out = {}
        for sid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[sid]
            out[f"{name}.total_s"] = total[sid] / 1e9
            out[f"{name}.self_s"] = (total[sid] - child[sid]) / 1e9
        out.update(self.counts)
        out.update(self.maxima)
        return out

    def dump(self) -> dict:
        """The raw spans, for writing out once the pass is over."""
        return {"names": self.names, "fields": ["name", "parent", "start_ns", "end_ns"],
                "spans": self.spans.tolist()}


def _replace_everywhere(original, wrapped) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "gaugemods" and not mod_name.startswith("gaugemods."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
