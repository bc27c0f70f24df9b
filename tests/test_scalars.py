"""Exact scalar domains: rationals, multivariate polynomials, and the
cube-root-of-unity extension."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hopfs3.rewrite import (check_associativity, default_rules,
                            structure_constants)
from hopfs3.scalars import (Cyclotomic3, Kronecker, MultiPoly,
                            NeedsSpecialization, OMEGA, Rescale,
                            ScalarKindError, _is_rat, encoder, field_invert)

A1, A2 = MultiPoly.gens("a1", "a2")


def const(c) -> MultiPoly:
    """The constant c of Q[a1, a2]."""
    return MultiPoly.const(A1.names, c)


ZERO, ONE = const(0), const(1)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def rand_poly(draw_coeffs):
    # small dense-ish polynomial from a coefficient list
    p = ZERO
    monos = [ONE, A1, A2, A1 * A2, A1 * A1, A2 * A2]
    for c, m in zip(draw_coeffs, monos):
        p = p + m * c
    return p


poly_st = st.lists(rationals, min_size=6, max_size=6).map(rand_poly)


class TestMultiPoly:
    def test_ring_identities(self):
        p = A1 * A1 - A2
        assert p + ZERO == p
        assert p * ONE == p
        assert p - p == ZERO
        assert not (p - p)

    def test_known_product(self):
        assert (A1 + A2) * (A1 - A2) == A1 * A1 - A2 * A2
        assert (A1 - A2) ** 2 == A1 * A1 - 2 * A1 * A2 + A2 * A2

    def test_int_and_fraction_coercion(self):
        assert 2 * A1 == A1 + A1
        assert A1 * Fraction(1, 2) + A1 * Fraction(1, 2) == A1
        assert 1 - A1 == -(A1 - 1)

    def test_rational_fast_paths(self):
        p = A1 * A1 - 2 * A2 + Fraction(1, 3)
        for got, want in ((p * 1, p * ONE), (p * Fraction(1), p * ONE),
                          (1 * p, ONE * p), (-1 * p, const(-1) * p),
                          (p * 0, p * ZERO), (p + 0, p + ZERO),
                          (0 + p, ZERO + p)):
            assert got == want
            assert got.names == A1.names
        assert p * 0 == ZERO and not p * 0

    def test_fast_paths_keep_kind_errors(self):
        other = MultiPoly.gens("b1", "b2")[0]
        with pytest.raises(ScalarKindError):
            A1 * other
        with pytest.raises(ScalarKindError):
            A1 + other
        with pytest.raises(ScalarKindError):
            A1 * "x"
        with pytest.raises(ScalarKindError):
            A1 + "x"

    def test_hash_agrees_with_eq(self):
        one = MultiPoly.const(A1.names, 1)
        assert one == 1 and len({one, 1}) == 1
        assert ZERO == 0 and len({ZERO, 0}) == 1
        half = const(Fraction(1, 2))
        assert len({half, Fraction(1, 2)}) == 1
        assert A1 != 1 and len({A1, 1}) == 2
        assert hash(A1 + 0) == hash(A1 * 1) == hash(A1)

    def test_str(self):
        assert str(A1 - A2) in ("a1 - a2", "-a2 + a1")
        assert str(ZERO) == "0"

    def test_mixed_rings_raise(self):
        other = MultiPoly.gens("b")[0]
        with pytest.raises(ScalarKindError):
            A1 + other

    def test_negative_power_needs_specialization(self):
        with pytest.raises(NeedsSpecialization):
            A1 ** -1

    @given(poly_st, poly_st, poly_st)
    def test_ring_axioms(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p * q == q * p

    @given(poly_st, st.lists(rationals, min_size=2, max_size=2))
    def test_evaluation_is_a_homomorphism(self, p, pt):
        q = A1 * A2 - 3
        pt = tuple(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)

    def test_constant_value(self):
        assert const(Fraction(5, 3)).constant_value() == Fraction(5, 3)
        assert (A1 * 0).constant_value() == 0
        assert A1.is_constant() is False


class TestCyclotomic3:
    def test_minimal_polynomial(self):
        assert OMEGA ** 2 + OMEGA + 1 == 0
        assert OMEGA ** 3 == 1

    def test_inverse(self):
        w = OMEGA
        assert field_invert(w) * w == 1
        z = Cyclotomic3(Fraction(2), Fraction(-5, 3))
        assert field_invert(z) * z == 1

    @given(st.lists(rationals, min_size=4, max_size=4))
    def test_field_axioms(self, cs):
        x = Cyclotomic3(cs[0], cs[1])
        y = Cyclotomic3(cs[2], cs[3])
        assert x * y == y * x
        assert (x + y) * (x - y) == x * x - y * y
        if x:
            assert field_invert(x) * x == 1

    def test_no_mixing_with_polys(self):
        with pytest.raises(ScalarKindError):
            OMEGA + A1

    def test_negative_power_inverts(self):
        assert OMEGA ** -1 == OMEGA * OMEGA

    @pytest.mark.parametrize("value", [2, Fraction(1, 2), 0])
    def test_rational_hashes_as_itself(self, value):
        # equal values hash equal: Cyclotomic3(c) == c, so it finds c's key
        z = Cyclotomic3(value)
        assert z == value and hash(z) == hash(value)
        assert {value: "x"}.get(z) == "x" and len({z, value}) == 1

    @pytest.mark.parametrize("pq, text", [
        ((0, 1), "w"), ((0, 2), "2*w"), ((1, -1), "1 - w"),
        ((Fraction(1, 2), 3), "1/2 + 3*w"), ((0, -1), "-w"), ((3, 0), "3"),
        ((-2, Fraction(-1, 3)), "-2 - 1/3*w")])
    def test_text(self, pq, text):
        # a unit coefficient of w is dropped, as MultiPoly prints -a1
        assert str(Cyclotomic3(*pq)) == text


class TestHelpers:
    def test_field_invert_rationals(self):
        assert field_invert(Fraction(3, 7)) == Fraction(7, 3)
        assert field_invert(4) == Fraction(1, 4)
        with pytest.raises(ZeroDivisionError):
            field_invert(0)

    def test_field_invert_nonconstant_poly(self):
        with pytest.raises(NeedsSpecialization):
            field_invert(A1)
        assert field_invert(const(2)) == Fraction(1, 2)


@pytest.mark.parametrize("x, want", [
    (3, True), (True, True), (Fraction(-2, 3), True),
    (A1 - A2, False), (OMEGA, False)])
def test_is_rat_kinds(x, want):
    assert _is_rat(x) is want


def homogeneous(degree: int, coeffs) -> MultiPoly:
    """The integer polynomial sum_i c_i a1^i a2^(degree - i) of the first
    degree + 1 coefficients, homogeneous of degree ``degree``, so graded
    at weight 2 * degree."""
    p = ZERO
    for i, c in enumerate(coeffs[:degree + 1]):
        p = p + A1 ** i * A2 ** (degree - i) * c
    return p


coeffs_st = st.lists(st.integers(-9, 9), min_size=4, max_size=4)
TIGHT = [0, 0, 0, 3]       # 3 a1^3 at degree 3, weight 6


class TestKronecker:
    def test_fraction_coefficient_raises(self):
        # encode refuses a non-integer, as a coefficient or a constant
        layout = Kronecker.fit([(A1 - A2, 2)], 2, 1)
        with pytest.raises(ScalarKindError, match="outside"):
            layout.encode(A1 * Fraction(1, 2))
        with pytest.raises(ScalarKindError, match="outside"):
            layout.encode(Fraction(1, 3))

    def test_unbounded_values_raise(self):
        layout = Kronecker.fit([(A1, 2)], 2, 1)
        with pytest.raises(ScalarKindError, match="outside"):
            layout.encode(2 ** layout.bits * A2)
        with pytest.raises(ScalarKindError, match=r"cannot pack \('b',\)"):
            layout.encode(MultiPoly.gens("b")[0])
        with pytest.raises(ScalarKindError, match="cannot pack a Cyclotomic3"):
            layout.encode(OMEGA)

    def test_rational_values_need_no_layout(self):
        assert Kronecker.fit([(1, 0), (-2, 0), (Fraction(1, 3), 0)], 4,
                             100) is None

    def test_fit_reads_each_distinct_pair_once(self):
        # a stream with repeats fits as its distinct pairs do
        distinct = [(9 * A1 ** 3 - A1 * A2 ** 2, 6), (A1 - A2, 2), (2, 0),
                    (-1, 0), (Fraction(3), 0)]
        stream = distinct * 3
        random.Random(7).shuffle(stream)
        got, want = (Kronecker.fit(pairs, 2, 5) for pairs in (stream,
                                                               distinct))
        assert (got.names, got.bits) == (want.names, want.bits)
        # a constant MultiPoly equals its int and hashes as it, but has
        # names of its own, which differ from (a1, a2): no layout
        assert Kronecker.fit([(1, 0), (MultiPoly.const(("x", "y"), 1), 0),
                              (A1, 2)], 2, 1) is None

    def test_size(self):
        # N = 9 + 1, f = 2, S = 5: 2*5*10^2 = 1000 < 2^10
        layout = Kronecker.fit([(9 * A1 ** 3 - A1 * A2 ** 2, 6), (2, 0)],
                               2, 5)
        assert layout.bits == 11
        assert str(layout) == "kronecker B=11 graded"

    @given(st.integers(0, 3), st.integers(0, 3), coeffs_st, coeffs_st,
           coeffs_st, coeffs_st)
    @example(3, 3, TIGHT, TIGHT, [-c for c in TIGHT], TIGHT)
    def test_ring_map(self, d, e, cp, cq, cr, cs):
        # p and r of degree d, q and s of degree e, each at its weight;
        # at most f = 2 factors and one summand per accumulator; the
        # example is a difference at the bound 2*S*N^f = 18 a1^6
        p, r = homogeneous(d, cp), homogeneous(d, cr)
        q, s = homogeneous(e, cq), homogeneous(e, cs)
        layout = Kronecker.fit([(p, 2 * d), (q, 2 * e), (r, 2 * d),
                                (s, 2 * e)], 2, 1)
        # the packing is one way: the sums and products a sweep forms of
        # packed values are the packed sums and products, and equal
        # exactly when the polynomials are
        ep, eq, er, es = map(layout.encode, (p, q, r, s))
        assert ep + er == layout.encode(p + r)
        assert ep * eq == layout.encode(p * q)
        assert ep * eq - er * es == layout.encode(p * q - r * s)
        assert (ep * eq == er * es) == (p * q == r * s)

    def test_graded_layout(self):
        # values homogeneous of degree weight/2 pack at (a1, a2) =
        # (2^B, 1): N = 3, 2*3^2 < 2^5; the packed sum, product and
        # difference of products are those of the polynomials
        p, q = A1 - A2, A1 * A2 - 2 * A2 ** 2
        weighted = [(p, 2), (q, 4), (3, 0)]
        layout = Kronecker.fit(weighted, 2, 1)
        assert str(layout) == "kronecker B=6 graded"
        for v, _n in weighted:
            assert layout.encode(v) == (A1 ** 0 * v).evaluate((2 ** 6, 1))
        ep, eq, e3 = map(layout.encode, (p, q, 3))
        assert ep + ep == layout.encode(p + p)
        assert ep * eq == layout.encode(p * q)
        assert ep * ep - e3 * eq == layout.encode(p * p - 3 * q)
        with pytest.raises(ScalarKindError, match="not homogeneous"):
            layout.encode(A1 - A2 ** 2)

    @pytest.mark.parametrize("weighted", [
        [(A1 - A2, 4), (3, 0)],              # a1 - a2 at weight 4
        [(A1 - A2, 2), (3, 2)],              # a constant at weight 2
        [(A1 - A2 ** 2, 2), (3, 0)],         # not homogeneous
        [(MultiPoly.gens("b")[0], 2), (3, 0)],   # one variable
        [(MultiPoly.gens("a1", "a2", "a3")[0], 2)],   # three variables
        [(A1 - A2, 2), (A1 * Fraction(1, 2), 2)],    # not an integer
        [(Fraction(1, 3), 0), (A1, 2)],      # a non-integer constant
        [(A1, 2), (MultiPoly.gens("b1", "b2")[0], 2)],   # two rings
        [(A1, 2), ("a1", 0)],                # not a scalar
    ])
    def test_ungraded_values_need_no_layout(self, weighted):
        # fit packs no sweep that holds a value it cannot pack graded,
        # before the polynomials or after them: the sweep runs on the
        # values as they are
        assert Kronecker.fit(weighted, 2, 1) is None
        assert Kronecker.fit(weighted[::-1], 2, 1) is None


class TestRescale:
    def test_fit_lowest_weight_first(self):
        # a1 = 1/3, a2 = -1/2: weight 2 gives D = 6, and 6^4 already
        # clears the weight-4 denominator 36
        half, third = Fraction(-1, 2), Fraction(1, 3)
        weighted = [(third, 2), (half, 2), (third * half, 4), (third, 0)]
        layout = Rescale.fit(weighted)
        assert str(layout) == "rescaled D=6"
        assert [layout.encode(c, n) for c, n in weighted] == \
            [12, -18, -216, Fraction(1, 3)]
        # a weight-4 denominator that 6^4 does not clear joins D
        assert Rescale.fit(weighted + [(Fraction(1, 5), 4)]).base == 30
        assert Rescale.fit([(7, 2), (Fraction(1, 2), 0)]).base == 1

    def test_identity_and_composition(self):
        # D = 1 leaves every int as it is and makes a whole Fraction an
        # int; a rescale by 6 after one by 7 is the rescale by 42
        one = Rescale(1)
        assert [one.encode(c, n) for c, n in [(12, 2), (-1, 0)]] == [12, -1]
        assert type(one.encode(Fraction(12), 2)) is int
        for c, n in [(Fraction(1, 3), 2), (Fraction(-5, 7), -1), (3, 4)]:
            assert Rescale(6).encode(Rescale(7).encode(c, n), n) == \
                Rescale(42).encode(c, n)
        assert Rescale(42).decode(-42 * 42, 2) == -1

    @given(rationals, st.integers(-3, 8), st.integers(1, 60))
    def test_decode_inverts_encode(self, c, weight, base):
        layout = Rescale(base)
        v = layout.encode(c, weight)
        assert layout.decode(v, weight) == c
        assert type(v) is int or v.denominator != 1

    def test_sweep_layout(self):
        # a sweep packs when some value is a polynomial and every value
        # is graded; otherwise it runs on the values as they are
        assert isinstance(Kronecker.fit([(A1, 2), (3, 0)], 2, 1), Kronecker)
        assert str(Kronecker.fit([(2, 0), (-3, 0), (A1, 2)], 2, 1)) == \
            str(Kronecker.fit([(A1, 2), (2, 0), (-3, 0)], 2, 1))
        assert Kronecker.fit([(Fraction(1, 2), 0), (3, 0)], 2, 1) is None
        assert Kronecker.fit([(Fraction(1, 2), 0), (A1, 2)], 2, 1) is None

    @pytest.mark.parametrize("weighted", [
        [(OMEGA, 0), (A1, 2)],
        [(1, 0), (Fraction(1, 2), 2), (A1, 2), (OMEGA, 1)],
        [(OMEGA, 1), (A1, 2)],
        [(A1, 2), (OMEGA, 1)],
    ])
    def test_sweep_layout_refuses_other_scalars(self, weighted):
        # a value neither rational nor a polynomial, beside a polynomial,
        # whether before it or after it: no packing takes it, nor does a
        # rescale, which takes rationals only
        assert Kronecker.fit(weighted, 2, 1) is None
        with pytest.raises(ScalarKindError):
            Rescale.fit(weighted)

    def test_sweep_over_omega_and_polynomials_raises(self):
        # nothing packs a table that holds w beside polynomials, and the
        # unpacked sweep's own arithmetic refuses to mix them
        table = structure_constants(default_rules(A1, A2))
        table.rows = [[dict(e) for e in row] for row in table.rows]
        i, k, l = next((i, k, l) for i, row in enumerate(table.rows)
                       for k, e in enumerate(row) for l, c in e.items()
                       if c == A1 - A2)
        table.rows[i][k][l] = OMEGA
        with pytest.raises(ScalarKindError):
            check_associativity(table)

    @pytest.mark.parametrize("values", [[OMEGA], [1, Fraction(1, 2), OMEGA]])
    def test_nothing_to_pack_without_a_polynomial(self, values):
        # the sweep then runs exactly on these values, over Q(w) here
        assert Kronecker.fit([(v, 0) for v in values], 2, 1) is None

    def test_encoder_encodes_each_distinct_value_once(self):
        seen = []

        class Counted(Kronecker):
            __slots__ = ()

            def encode(self, x):
                seen.append(x)
                return super().encode(x)

        layout = Counted.fit([(A1, 2), (A2, 2)], 2, 1)
        encode = encoder(layout)
        values = [A1, A1, 2, A1 - A2, 2]
        assert [encode(c) for c in values] == \
            [Kronecker.encode(layout, c) for c in values]
        assert seen == [A1, 2, A1 - A2]
