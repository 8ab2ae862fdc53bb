"""Recursive-descent parser for polynomial expressions.

Grammar (standard precedence, ``^`` strongest, unary minus in between):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-'* power
    power  := atom ('^' INT)?
    atom   := NUMBER | NAME | '(' expr ')'

``NUMBER`` is an integer of ASCII digits or a rational literal ``a/b``;
``/`` is only valid between integer literals.  A name starts with a letter
or ``_`` and goes on with letters, digits and ``_``.  Variable names must
belong to the target ring, and an exponent above its degree cap raises
``BudgetExceededError``.  Parentheses nest at most ``MAX_NESTING`` deep.
Errors carry the offending position in the input.

Every value met while parsing is a term map from packed exponents (see
``polyring``) to int or ``Fraction`` coefficients: a variable is its packed
unit and a number the constant term.  Sums accumulate in place, and
products and powers check the degree cap where ``Polynomial`` arithmetic
does, so an overflow raises at the same point and with the same text.
``parse_poly`` builds one ``Polynomial`` from the final map.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import BudgetExceededError, int_form
from .polyring import Polynomial, PolyRing, _check_degree, _power, _product


MAX_NESTING = 100  # five Python frames a level: well inside the recursion limit


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# \s is str.isspace and \w is str.isalnum or "_", so findall skips exactly
# the whitespace.  A \w run never starts with an ASCII digit, which starts a
# number instead; one that starts with neither a letter nor "_" (a non-ASCII
# digit, say) is a stray character, as is any other non-operator.
_TOKEN = re.compile(r"[0-9]+|\w+|\S")
_OPS = frozenset("+-*^()/")

Terms = dict[int, int | Fraction]


def _position(text: str, i: int) -> int:
    """Where token i of text starts; the end token starts at len(text)."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end."""
    tokens = _TOKEN.findall(text)
    for i, t in enumerate(tokens):
        c = t[0]
        if not (c in _OPS or c.isalpha() or c == "_" or "0" <= c <= "9"):
            raise ParseError(f"unexpected character {c!r}", _position(text, i))
    tokens.append("")
    return tokens


class _Parser:
    """A token is a number (all digits), a name, an operator, or "" at the end."""

    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.tokens = _tokenize(text)
        self.ring = ring
        self.units = dict(zip(ring.variables, ring._units))
        self.i = 0
        self.depth = 0  # parentheses open around token i

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, _position(self.text, i))

    def integer(self, i: int) -> int:
        """Token i, an integer literal; one longer than int() takes is an error."""
        try:
            return int(self.tokens[i])
        except ValueError:
            raise self.error("integer literal too long", i) from None

    def expect_op(self, op: str) -> None:
        if self.tokens[self.i] != op:
            raise self.error(f"expected {op!r}, found {self.tokens[self.i]!r}", self.i)
        self.i += 1

    def parse(self) -> Terms:
        value = self.expr()
        if self.tokens[self.i]:
            raise self.error(f"unexpected trailing input {self.tokens[self.i]!r}", self.i)
        return value

    def expr(self) -> Terms:
        value = self.term()
        while (op := self.tokens[self.i]) == "+" or op == "-":
            self.i += 1
            for e, c in self.term().items():
                old = value.get(e)
                if old is None:
                    value[e] = c if op == "+" else -c
                else:
                    c = old + c if op == "+" else old - c
                    if c:
                        value[e] = c
                    else:
                        del value[e]
        return value

    def term(self) -> Terms:
        value = self.unary()
        while self.tokens[self.i] == "*":
            self.i += 1
            value = _product(self.ring, value, self.unary())
        return value

    def unary(self) -> Terms:
        signs = 0  # counted in a loop, so that a chain of any length parses
        while self.tokens[self.i] == "-":
            self.i += 1
            signs += 1
        value = self.power()
        if signs % 2:
            for e, c in value.items():
                value[e] = -c
        return value

    def power(self) -> Terms:
        base = self.atom()
        if self.tokens[self.i] == "^":
            if not self.tokens[self.i + 1].isdigit():
                raise self.error("exponent must be an integer literal", self.i + 1)
            exponent = self.integer(self.i + 1)
            self.i += 2
            if exponent > self.ring.degree_cap:
                # bounds constant powers too, whose coefficients the cap misses
                raise BudgetExceededError(
                    f"exponent {exponent} exceeds the ring cap {self.ring.degree_cap}")
            return _power(self.ring, base, exponent)
        return base

    def atom(self) -> Terms:
        i = self.i
        text = self.tokens[i]
        self.i += 1
        if text.isdigit():
            value: int | Fraction = self.integer(i)
            if self.tokens[self.i] == "/":
                if not self.tokens[self.i + 1].isdigit():
                    raise self.error("'/' is only valid between integer literals", self.i + 1)
                den = self.integer(self.i + 1)
                self.i += 2
                if not den:
                    raise self.error("zero denominator", i)
                value = Fraction(value, den)
            terms = {0: value} if value else {}
        elif text == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", i)
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        elif text == "/":
            raise self.error("'/' is only valid between integer literals", i)
        elif text in _OPS or not text:
            raise self.error(f"unexpected token {text!r}", i)
        elif text in self.units:
            terms = {self.units[text]: 1}
        else:
            raise self.error(f"unknown variable {text!r}", i)
        if self.ring.degree_cap < 1:
            # a cap of 0 admits no variable, and a negative one no constant
            _check_degree(self.ring, terms)
        return terms


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression string into an exact polynomial of ``ring``."""
    num, den = int_form(_Parser(text, ring).parse())
    return Polynomial._own(ring, num, den)
