"""The expression parser as it was before it parsed into packed terms: one
``Polynomial`` per factor, combined with ``Polynomial`` arithmetic.  It is
the reference that ``tests/test_parser.py`` checks ``parse_poly`` against.

Powers square and multiply with ``*`` as ``Polynomial.__pow__`` did.  One
change from that parser: only ASCII ``0-9`` are digits, as in
``gaugemods.parser``.  It took any character for which ``str.isdigit``
holds, and ``int`` then raised ``ValueError`` on a superscript digit.
It raises the package's ``ParseError`` and ``BudgetExceededError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from gaugemods.linalg import BudgetExceededError
from gaugemods.parser import ParseError
from gaugemods.polyring import Polynomial, PolyRing


class _Token(NamedTuple):
    kind: str  # "int", "name", "op", "end"
    text: str
    pos: int


_OPS = set("+-*^()/")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        elif ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _power(base: Polynomial, n: int) -> Polynomial:
    """``Polynomial.__pow__`` as it was: square and multiply with ``*``."""
    result = base.ring.one()
    while n:
        if n & 1:
            result = result * base
        base_needed = n >> 1
        if base_needed:
            base = base * base
        n = base_needed
    return result


class _Parser:
    def __init__(self, tokens: list[_Token], ring: PolyRing):
        self.tokens = tokens
        self.ring = ring
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect_op(self, text: str) -> None:
        if self.tok.kind != "op" or self.tok.text != text:
            raise ParseError(f"expected {text!r}, found {self.tok.text!r}", self.tok.pos)
        self.advance()

    def at_op(self, *texts: str) -> bool:
        return self.tok.kind == "op" and self.tok.text in texts

    def parse(self) -> Polynomial:
        value = self.expr()
        if self.tok.kind != "end":
            raise ParseError(f"unexpected trailing input {self.tok.text!r}", self.tok.pos)
        return value

    def expr(self) -> Polynomial:
        value = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.unary()
        while self.at_op("*"):
            self.advance()
            value = value * self.unary()
        return value

    def unary(self) -> Polynomial:
        if self.at_op("-"):
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            if self.tok.kind != "int":
                raise ParseError("exponent must be an integer literal", self.tok.pos)
            exponent = int(self.advance().text)
            if exponent > self.ring.degree_cap:
                # bounds constant powers too, whose coefficients the cap misses
                raise BudgetExceededError(
                    f"exponent {exponent} exceeds the ring cap {self.ring.degree_cap}")
            return _power(base, exponent)
        return base

    def atom(self) -> Polynomial:
        t = self.tok
        if t.kind == "int":
            self.advance()
            num = int(t.text)
            if self.at_op("/"):
                self.advance()
                if self.tok.kind != "int":
                    raise ParseError(
                        "'/' is only valid between integer literals", self.tok.pos
                    )
                den = int(self.advance().text)
                if den == 0:
                    raise ParseError("zero denominator", t.pos)
                return self.ring.const(Fraction(num, den))
            return self.ring.const(num)
        if t.kind == "name":
            self.advance()
            if t.text not in self.ring.variables:
                raise ParseError(f"unknown variable {t.text!r}", t.pos)
            return self.ring.var(t.text)
        if self.at_op("("):
            self.advance()
            value = self.expr()
            self.expect_op(")")
            return value
        if self.at_op("/"):
            raise ParseError("'/' is only valid between integer literals", t.pos)
        raise ParseError(f"unexpected token {t.text!r}", t.pos)


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression string into an exact polynomial of ``ring``."""
    return _Parser(_tokenize(text), ring).parse()
