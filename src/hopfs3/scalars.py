"""Exact scalar arithmetic for the whole package.

Three coefficient domains, all exact: arbitrary-precision rationals
(stdlib ``Fraction``, with plain ints accepted everywhere), multivariate
polynomials with rational coefficients in named commuting variables, and
the quadratic extension generated by a primitive cube root of unity
(``w`` with ``w**2 + w + 1 == 0``).

No floating point anywhere.  Values are immutable after construction and
safe to share between workers.  Mixing incompatible domains raises
:class:`ScalarKindError`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


class ScalarKindError(TypeError):
    """Raised when scalars of incompatible kinds are combined."""


class NeedsSpecialization(ArithmeticError):
    """Raised when an exact operation would need to invert a nonconstant
    polynomial; callers must specialize the parameters first."""


def _is_rat(x) -> bool:
    return isinstance(x, (int, Fraction))


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient.

    Coefficients are ints or Fractions.  Arithmetic with plain numbers
    coerces them to constants; arithmetic with a polynomial in different
    variables raises.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: tuple, terms: dict):
        self.names = names
        self.terms = terms

    @classmethod
    def const(cls, names, c) -> "MultiPoly":
        if c == 0:
            return cls(names, {})
        return cls(names, {(0,) * len(names): c})

    @classmethod
    def gen(cls, names, i: int) -> "MultiPoly":
        e = [0] * len(names)
        e[i] = 1
        return cls(names, {tuple(e): 1})

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.names != self.names:
                raise ScalarKindError(
                    f"polynomials in {self.names} and {other.names} cannot mix")
            return other
        if _is_rat(other):
            return MultiPoly.const(self.names, other)
        raise ScalarKindError(f"cannot combine MultiPoly with {type(other).__name__}")

    # __add__ and __mul__ prune zero terms inline rather than through
    # linalg.add_into: they are the coefficient ring's arithmetic, not
    # vector arithmetic, and linalg imports this module.  Values are
    # immutable, so adding 0 or multiplying by 1 returns self itself.
    def __add__(self, other):
        if _is_rat(other) and not other:
            return self
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return MultiPoly(self.names, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if _is_rat(other):
            if other == 1:
                return self
            if other == 0:
                return MultiPoly(self.names, {})
            return MultiPoly(self.names, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        return MultiPoly(self.names, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise NeedsSpecialization("negative power of a polynomial")
        result = MultiPoly.const(self.names, 1)
        for _ in range(n):
            result = result * self
        return result

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.names == other.names and self.terms == other.terms
        if _is_rat(other):
            return self.terms == MultiPoly.const(self.names, other).terms
        return NotImplemented

    def __hash__(self):
        # equal to a rational exactly when constant, so hash like one
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.names, frozenset(self.terms.items())))

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 if empty)."""
        if not self.is_constant():
            raise NeedsSpecialization(f"{self} is not constant")
        return Fraction(sum(self.terms.values())) if self.terms else Fraction(0)

    # -- evaluation and printing ----------------------------------------

    def evaluate(self, point) -> Fraction:
        if len(point) != len(self.names):
            raise ScalarKindError(
                f"need {len(self.names)} values, got {len(point)}")
        total = Fraction(0)
        for e, c in self.terms.items():
            m = Fraction(c)
            for x, k in zip(point, e):
                m *= Fraction(x) ** k
            total += m
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [f"{n}^{k}" if k > 1 else n
                       for n, k in zip(self.names, e) if k]
            mono = "*".join(factors)
            if not mono:
                parts.append((c, str(abs(c))))
            elif abs(c) == 1:
                parts.append((c, mono))
            else:
                parts.append((c, f"{abs(c)}*{mono}"))
        out = ""
        for c, text in parts:
            if not out:
                out = f"-{text}" if c < 0 else text
            else:
                out += f" - {text}" if c < 0 else f" + {text}"
        return out

    __repr__ = __str__


class PolyRing:
    """A polynomial ring with a fixed ordered variable list."""

    def __init__(self, *names: str):
        self.names = tuple(names)

    def gens(self) -> tuple:
        return tuple(MultiPoly.gen(self.names, i) for i in range(len(self.names)))

    def const(self, c) -> MultiPoly:
        return MultiPoly.const(self.names, c)

    @property
    def zero(self) -> MultiPoly:
        return MultiPoly(self.names, {})

    @property
    def one(self) -> MultiPoly:
        return MultiPoly.const(self.names, 1)

    def __repr__(self):
        return f"PolyRing{self.names}"


class Cyclotomic3:
    """p + q*w with w a primitive cube root of unity: w**2 = -1 - w."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=0):
        self.p = Fraction(p)
        self.q = Fraction(q)

    def _coerce(self, other) -> "Cyclotomic3":
        if isinstance(other, Cyclotomic3):
            return other
        if _is_rat(other):
            return Cyclotomic3(other)
        raise ScalarKindError(f"cannot combine Cyclotomic3 with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        return Cyclotomic3(self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic3(-self.p, -self.q)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        # (p1 + q1 w)(p2 + q2 w), w^2 = -1 - w
        return Cyclotomic3(self.p * other.p - self.q * other.q,
                           self.p * other.q + self.q * other.p - self.q * other.q)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = Cyclotomic3(1)
        x = self
        if n < 0:
            x = field_invert(self)
            n = -n
        for _ in range(n):
            result = result * x
        return result

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic3):
            return self.p == other.p and self.q == other.q
        if _is_rat(other):
            return self.q == 0 and self.p == other
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        if self.p == 0:
            return f"{self.q}*w" if self.q != 1 else "w"
        sign = "+" if self.q > 0 else "-"
        qa = abs(self.q)
        wterm = "w" if qa == 1 else f"{qa}*w"
        return f"{self.p} {sign} {wterm}"

    __repr__ = __str__


OMEGA = Cyclotomic3(0, 1)


def field_invert(x):
    """Multiplicative inverse of a nonzero rational or Cyclotomic3 element."""
    if _is_rat(x):
        if x == 0:
            raise ZeroDivisionError("inverting zero")
        return Fraction(1, 1) / x
    if isinstance(x, Cyclotomic3):
        n = x.p * x.p - x.p * x.q + x.q * x.q
        if n == 0:
            raise ZeroDivisionError("inverting zero")
        return Cyclotomic3((x.p - x.q) / n, -x.q / n)
    if isinstance(x, MultiPoly):
        if x.is_constant():
            c = x.constant_value()
            if c == 0:
                raise ZeroDivisionError("inverting zero")
            return MultiPoly.const(x.names, Fraction(1) / c)
        raise NeedsSpecialization(f"cannot invert nonconstant polynomial {x}")
    raise ScalarKindError(f"no inverse for {type(x).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational."""
    return Fraction(text.strip())


def format_rational(x: Rat) -> str:
    return str(Fraction(x))
