"""Permutations, subgroup utilities, and the built-in irreducible
representations."""

import pytest
from hypothesis import given, strategies as st

from hopfs3 import groups
from hopfs3.groups import (S3_STANDARD, GroupError, Irrep, Perm,
                           builtin_irreps, centralizer, conjugacy_class,
                           conjugate, coset_representatives, identity,
                           mat_mult, parse_perm, symmetric_group,
                           transposition, transpositions)
from hopfs3.scalars import Cyclotomic3

S3 = symmetric_group(3)
S4 = symmetric_group(4)

perm4 = st.permutations(range(1, 5)).map(Perm)


class TestPerm:
    def test_composition_right_to_left(self):
        t12 = parse_perm("(12)", 3)
        c123 = parse_perm("(123)", 3)
        # (p*q)(i) = p(q(i))
        assert t12 * c123 == parse_perm("(23)", 3)
        assert c123 * t12 == parse_perm("(13)", 3)

    def test_inverse_and_sign(self):
        c = parse_perm("(123)", 3)
        assert c.inv() == parse_perm("(132)", 3)
        assert c.sign() == 1
        assert parse_perm("(12)", 3).sign() == -1
        assert identity(3).sign() == 1

    def test_str_parse_roundtrip(self):
        for g in S4:
            assert parse_perm(str(g), 4) == g

    def test_conjugate(self):
        # conjugate(g, by) = by g by^-1
        t13 = transposition(3, 1, 3)
        t12 = transposition(3, 1, 2)
        assert conjugate(t13, t12) == transposition(3, 2, 3)
        for g in S3:
            assert conjugate(g, identity(3)) == g

    def test_element_order_of_s3(self):
        # lex order on image tuples: e first, then (23), (12), ...
        names = [str(g) for g in sorted(S3)]
        assert names == ["e", "(23)", "(12)", "(123)", "(132)", "(13)"]

    def test_bad_images(self):
        with pytest.raises(GroupError):
            Perm((1, 1, 3))

    @pytest.mark.parametrize("text, message", [
        ("12", "bad cycle notation"), ("(1 2", "bad cycle notation"),
        # a character that is not a digit, inside a cycle
        ("(1a)", "bad cycle notation"), ("( 12)", "bad cycle notation"),
        # an empty cycle
        ("(12)()", "bad cycle notation"),
        ("(14)", "bad cycle '14' for n=3"),
        # cycles that share a point: a product, not a disjoint form
        ("(12)(12)", "bad cycle notation"),
        ("(123)(132)", "bad cycle notation"),
        ("(12)(23)", "bad cycle notation")])
    def test_bad_cycle_notation(self, text, message):
        with pytest.raises(GroupError, match=message):
            parse_perm(text, 3)

    @pytest.mark.parametrize("elems", [S3, S4], ids=["S3", "S4"])
    def test_stored_products_match_images(self, elems):
        # twice, so the second pass reads every product from the store
        for _ in range(2):
            for p in elems:
                inverse = [0] * p.n
                for i in range(1, p.n + 1):
                    inverse[p(i) - 1] = i
                assert tuple(p.inv()) == tuple(inverse)
                for q in elems:
                    assert tuple(p * q) == tuple(p(q(i))
                                                 for i in range(1, p.n + 1))
        n = elems[0].n
        assert len([k for k in groups._PRODUCTS if k[0].n == n]) <= \
            len(elems) ** 2

    def test_errors_after_warm_store(self):
        for p in S3:
            for q in S3:
                p * q
        with pytest.raises(GroupError):
            S3[1] * S4[1]
        with pytest.raises(GroupError):
            Perm((1, 1, 2))
        assert S3[1].__mul__((1, 2, 3)) is NotImplemented

    @given(perm4, perm4, perm4)
    def test_group_axioms(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * p.inv() == identity(4)
        assert p.sign() * q.sign() == (p * q).sign()
        assert conjugate(p, q).sign() == p.sign()

    @given(perm4, perm4)
    def test_composition_pointwise(self, p, q):
        for i in range(1, 5):
            assert (p * q)(i) == p(q(i))


class TestSubgroupTools:
    def test_symmetric_group_sizes(self):
        assert [len(symmetric_group(n)) for n in (1, 2, 3, 4)] == [1, 2, 6, 24]
        with pytest.raises(GroupError):
            symmetric_group(6)

    def test_conjugacy_classes_s3(self):
        sizes = sorted(len(conjugacy_class(g, S3)) for g in
                       (identity(3), transposition(3, 1, 2), parse_perm("(123)", 3)))
        assert sizes == [1, 2, 3]

    def test_centralizer_orders(self):
        assert len(centralizer(identity(3), S3)) == 6
        assert len(centralizer(transposition(3, 1, 2), S3)) == 2
        assert len(centralizer(parse_perm("(123)", 3), S3)) == 3

    def test_transpositions_by_name(self):
        assert [str(t) for t in transpositions(3)] == ["(12)", "(13)", "(23)"]
        assert [str(t) for t in transpositions(4)] == [
            "(12)", "(13)", "(14)", "(23)", "(24)", "(34)"]
        # every transposition once, and the one tuple per n
        assert set(transpositions(4)) == {
            g for g in S4 if sorted(len(c) for c in g.cycles()) == [2]}
        assert transpositions(4) is transpositions(4)

    def test_coset_representatives(self):
        cent = centralizer(transposition(3, 1, 2), S3)
        reps = coset_representatives(S3, cent)
        assert len(reps) == 3
        assert reps[0].is_identity()
        # reps cover all cosets
        covered = {g for r in reps for g in (r * h for h in cent)}
        assert covered == set(S3)


class TestIrreps:
    def test_builtin_irreps_complete(self):
        irreps = builtin_irreps(S3)
        dims = sorted(r.dim for r in irreps)
        assert dims == [1, 1, 2]
        assert sum(d * d for d in dims) == 6

    def test_representation_property(self):
        for r in builtin_irreps(S3):
            assert r(identity(3)) == tuple(
                tuple(int(i == j) for j in range(r.dim)) for i in range(r.dim))
            for g in S3:
                for h in S3:
                    assert r(g * h) == mat_mult(r(g), r(h))

    def test_characters(self):
        irreps = {r.name: r for r in builtin_irreps(S3)}
        std = irreps["standard"]
        tr = lambda m: sum(m[i][i] for i in range(len(m)))
        assert tr(std(identity(3))) == 2
        assert tr(std(transposition(3, 1, 2))) == 0
        assert tr(std(parse_perm("(123)", 3))) == -1

    def test_s3_standard(self):
        # the standard irrep of builtin_irreps, pinned on the generators
        assert S3_STANDARD.name == "standard" and S3_STANDARD.dim == 2
        assert S3_STANDARD(transposition(3, 1, 2)) == ((0, 1), (1, 0))
        assert S3_STANDARD(parse_perm("(123)", 3)) == ((0, 1), (-1, -1))

    def test_sign_irrep(self):
        sgn = next(r for r in builtin_irreps(S3) if r.dim == 1
                   and r(transposition(3, 1, 2))[0][0] == -1)
        for g in S3:
            assert sgn(g)[0][0] == g.sign()

    def test_trivial_group_is_unsupported(self):
        with pytest.raises(GroupError, match="unsupported group of order 1"):
            builtin_irreps([identity(3)])

    def test_z3_character_values(self):
        z3 = sorted([identity(3), parse_perm("(123)", 3), parse_perm("(132)", 3)])
        irreps = builtin_irreps(z3)
        assert len(irreps) == 3
        vals = {r(parse_perm("(123)", 3))[0][0] for r in irreps}
        w = Cyclotomic3(0, 1)
        assert vals == {Cyclotomic3(1, 0), w, w * w}
