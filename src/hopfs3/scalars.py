"""Exact scalar arithmetic for the whole package.

Three coefficient domains, all exact: arbitrary-precision rationals
(stdlib ``Fraction``, with plain ints accepted everywhere), multivariate
polynomials with rational coefficients in named commuting variables, and
the quadratic extension generated by a primitive cube root of unity
(``w`` with ``w**2 + w + 1 == 0``).  The CLI's exhaustive sweeps run on
plain ints: :class:`Kronecker` packs the graded integer polynomials of
A_[a1, a2] into single ints at (a1, a2) = (2^B, 1), one way, with a
bound that keeps a packed value 0 only where the polynomial is, and
:class:`Rescale` clears the denominators of a rational point by a
diagonal change of basis, applied once to a rule system
(rewrite.rescaled).  A sweep over values of any other kind, ungraded
polynomials among them, runs on them exactly as they are.

No floating point anywhere.  Values are immutable after construction and
safe to share between workers.  Mixing incompatible domains raises
:class:`ScalarKindError`.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction


class ScalarKindError(TypeError):
    """Raised when scalars of incompatible kinds are combined."""


class NeedsSpecialization(ArithmeticError):
    """Raised when an exact operation would need to invert a nonconstant
    polynomial; callers must specialize the parameters first."""


def _is_rat(x) -> bool:
    t = type(x)
    if t is int or t is Fraction:
        return True
    # answered here, not by Fraction's abc instance check, on the
    # polynomial operands of every MultiPoly sum and product
    if t is MultiPoly or t is Cyclotomic3:
        return False
    return isinstance(x, (int, Fraction))


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient.

    Coefficients are ints or Fractions.  Arithmetic with plain numbers
    coerces them to constants; arithmetic with a polynomial in different
    variables raises.
    """

    __slots__ = ("names", "terms", "_hash")

    def __init__(self, names: tuple, terms: dict):
        self.names = names
        self.terms = terms

    @classmethod
    def const(cls, names, c) -> "MultiPoly":
        if c == 0:
            return cls(names, {})
        return cls(names, {(0,) * len(names): c})

    @classmethod
    def gens(cls, *names: str) -> tuple:
        """The generators of the polynomial ring in the names given."""
        n = len(names)
        return tuple(cls(names, {(0,) * i + (1,) + (0,) * (n - 1 - i): 1})
                     for i in range(n))

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
        # equal to a rational exactly when constant, so hash like one;
        # taken on the first call, as terms never change
        if not hasattr(self, "_hash"):
            self._hash = hash(self.constant_value()) if self.is_constant() \
                else hash((self.names, frozenset(self.terms.items())))
        return self._hash

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


class Kronecker:
    """Graded Kronecker substitution: polynomials in the parameters
    (a1, a2) packed into one int.

    ``encode`` evaluates an integer polynomial at (a1, a2) = (2^B, 1).
    Evaluation is a ring map Z[a1, a2] -> Z, so the sum and the product
    of packed values are exactly the packed sum and product.  A value of
    A_[a1, a2] (Rescale) is homogeneous of degree weight/2, and so are
    the sums and products a sweep forms of such values, at the sum of
    their weights.  The monomial a1^i a2^j lands in slot i, B bits wide;
    of known weight, a homogeneous polynomial is fixed by the
    coefficients of those slots, so the map is injective on the ones
    whose coefficients are all < 2^(B-1) in absolute value (a balanced
    base-2^B expansion is unique).  Nothing unpacks: a sweep only tests
    packed values for 0, and forms a witness from the unpacked maps.

    ``fit`` measures the values a sweep starts from and sizes B so that
    everything the sweep forms stays in that domain.  Each value it
    compares is an accumulator of at most S products of at most f
    measured values (S summands, f factors); two accumulators are
    compared through their difference.  With N the largest l1-norm (sum
    of absolute coefficients) of a measured value, such a difference
    has coefficients <= 2*S*N^f in absolute value.  So the least B with
    2*S*N^f < 2^(B-1) makes packed equality, and the zero test of a
    packed sum, exact polynomial equality.  Only ring operations
    (+, *, ==) may run on packed values.
    """

    __slots__ = ("names", "bits")

    def __init__(self, names: tuple, bits: int):
        self.names = names
        self.bits = bits

    @classmethod
    def fit(cls, weighted, factors: int, summands: int):
        """The layout for a sweep over the (value, weight) pairs given
        when every value is graded: an integer polynomial in the same two
        variables, homogeneous of degree weight/2, or an integer that is
        0 at every nonzero weight, and some value is a polynomial; else
        None.  Each distinct (type, value, weight) is read once: the type
        keeps a constant MultiPoly, with its names, apart from its int."""
        names = None
        norm = 0
        for _t, v, n in dict.fromkeys((type(v), v, n) for v, n in weighted):
            if isinstance(v, MultiPoly):
                if len(v.names) != 2 or names not in (None, v.names) or any(
                        2 * sum(e) != n or not _is_int(c)
                        for e, c in v.terms.items()):
                    return None
                names = v.names
                norm = max(norm, sum(abs(c) for c in v.terms.values()))
            elif _is_int(v) and not (n and v):
                norm = max(norm, abs(v))
            else:
                return None
        if names is None:
            return None
        bound = 2 * summands * norm ** factors
        return cls(names, bound.bit_length() + 1)

    def __str__(self):
        return f"kronecker B={self.bits} graded"

    __repr__ = __str__

    def encode(self, x) -> int:
        """The packed value of an integer or integer polynomial; raises
        ScalarKindError outside the injective domain."""
        if isinstance(x, MultiPoly):
            if x.names != self.names:
                raise ScalarKindError(
                    f"layout for {self.names} cannot pack {x.names}")
            terms = x.terms.items()
        elif _is_rat(x):
            terms = (((0, 0), x),)
        else:
            raise ScalarKindError(f"cannot pack a {type(x).__name__}")
        if len({sum(e) for e, _c in terms}) > 1:
            raise ScalarKindError(f"{x} is not homogeneous, as {self} needs")
        half = 1 << (self.bits - 1)
        total = 0
        for e, c in terms:
            if not _is_int(c) or not -half < c < half:
                raise ScalarKindError(f"{x} lies outside {self}")
            total += int(c) << (self.bits * e[0])
        return total


class Rescale:
    """The diagonal change of basis e -> D^|e| e at a rational point.

    A structure-map coefficient c of weight n (the grade of its source
    less that of its target: |e_i| + |e_k| - |e_l| for e_l in e_i e_k,
    |lhs| - |w| for a term w of a rule) becomes c * D^n.  The change is
    an isomorphism, so a sweep finds the same equalities and failures in
    either basis.  When c is homogeneous of weight twice its degree in
    the parameters, as in A_[a1, a2] with the word-length grading
    (x_t -> D x_t carries A_[a] onto A_[D^2 a]), the fitted D makes it an
    int; otherwise it stays an exact Fraction.  The CLI rescales a rule
    system once (rewrite.rescaled), so at a rational point the table, the
    structure maps and every check run on the ints of A_[D^2 a], and
    reports decode what they print by the rules' scale.
    """

    __slots__ = ("base",)

    def __init__(self, base: int):
        self.base = base

    @classmethod
    def fit(cls, weighted) -> "Rescale":
        """D for the rational (value, weight) pairs given: weight by
        weight, lowest first, the lcm L_n of the denominators at weight
        n > 0 joins D unless L_n already divides D^n.  Raises
        ScalarKindError on a value that is not rational."""
        lcms: dict = {}
        for c, n in weighted:
            if type(c) is not int:
                if not _is_rat(c):
                    raise ScalarKindError(
                        f"cannot rescale a {type(c).__name__}")
                if n > 0:
                    lcms[n] = math.lcm(lcms.get(n, 1), c.denominator)
        base = 1
        for n in sorted(lcms):
            if base ** n % lcms[n]:
                base = math.lcm(base, lcms[n])
        return cls(base)

    def __str__(self):
        return f"rescaled D={self.base}"

    __repr__ = __str__

    def encode(self, x, weight: int):
        """x * D^weight: an int when it is whole, else an exact Fraction."""
        if weight >= 0:
            v = x * self.base ** weight
        else:
            v = Fraction(x, self.base ** -weight)
        return v if type(v) is int or v.denominator != 1 else v.numerator

    def decode(self, x, weight: int) -> Fraction:
        """The value whose rescaled value at this weight is x."""
        return Fraction(x) / Fraction(self.base) ** weight


def encoder(layout):
    """layout.encode, each distinct value encoded once: a packing reads
    thousands of coefficients but few distinct values."""
    return functools.cache(layout.encode)


def _is_int(x) -> bool:
    return type(x) is int or (_is_rat(x) and x.denominator == 1)


class Cyclotomic3:
    """p + q*w with w a primitive cube root of unity: w**2 = -1 - w; a
    part given as a Fraction is kept, not rebuilt."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=0):
        self.p = p if type(p) is Fraction else Fraction(p)
        self.q = q if type(q) is Fraction else Fraction(q)

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
        # a rational hashes as itself, as it compares equal to it
        return hash((self.p, self.q)) if self.q else hash(self.p)

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        sign = "+" if self.q > 0 else "-"
        qa = abs(self.q)
        wterm = "w" if qa == 1 else f"{qa}*w"
        if self.p == 0:
            return wterm if sign == "+" else f"-{wterm}"
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
