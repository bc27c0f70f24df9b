"""Braided tensor algebra of the transposition module: word braiding,
the quantum-shuffle comultiplication, and the quadratic relation space."""

from itertools import combinations

import pytest

from hopfs3.braidedtensor import (WordTooLong, braided_square_mult, comult,
                                  degree2_primitive_basis, is_primitive,
                                  quadratic_relations, tensor_elt, word_cross)
from hopfs3.coalg import FinCoalgebra
from hopfs3.groups import transposition
from hopfs3.linalg import span_equal, vec_add, vec_scale
from hopfs3.ydmod import v3

T12 = transposition(3, 1, 2)
T13 = transposition(3, 1, 3)
T23 = transposition(3, 2, 3)
C3 = v3().braiding()


def truncated_tensor_coalgebra(c: dict, max_len: int = 4) -> FinCoalgebra:
    """T(V) cut to the words of length <= max_len, a subcoalgebra: Delta
    from comult under the braiding c, and eps(w) = [w == ()]."""
    words = [()]
    for n in range(max_len):
        words += [w + (t,) for w in words if len(w) == n
                  for t in (T12, T13, T23)]
    return FinCoalgebra(words, {w: comult(tensor_elt(w), c) for w in words},
                        {w: int(w == ()) for w in words})


class TestWordCross:
    def test_empty_words(self):
        assert word_cross(C3, (), (T12,)) == {((T12,), ()): 1}
        assert word_cross(C3, (T12,), ()) == {((), (T12,)): 1}

    def test_single_crossing(self):
        # c(x12 (x) x13) = -x23 (x) x12
        assert word_cross(C3, (T12,), (T13,)) == {((T23,), (T12,)): -1}

    def test_length_two(self):
        # crossing two letters past one: signs compose
        out = word_cross(C3, (T12, T12), (T13,))
        assert out == {((T13,), (T12, T12)): 1}

    def test_hexagon_identities(self):
        # c_{AB,C} = (c_AC x 1)(1 x c_BC) and c_{A,BC} = (1 x c_AB)... on
        # words: cross(b1+b2, d) must agree with iterating letterwise
        letters = (T12, T13, T23)
        for b1 in letters:
            for b2 in letters:
                for d in letters:
                    whole = word_cross(C3, (b1, b2), (d,))
                    steps: dict = {}
                    for (d2, r2), c1 in word_cross(C3, (b2,), (d,)).items():
                        for (d3, h2), c2 in word_cross(C3, (b1,), d2).items():
                            k = (d3, h2 + r2)
                            steps[k] = steps.get(k, 0) + c1 * c2
                    steps = {k: v for k, v in steps.items() if v}
                    assert whole == steps

    def test_yang_baxter_on_words(self):
        # braiding of a 2-letter word past a 2-letter word, both ways of
        # decomposing, must agree; exercised on a sample
        out1 = word_cross(C3, (T12, T13), (T23, T12))
        total = sum(abs(c) for c in out1.values())
        assert total >= 1
        for (d2, b2), _ in out1.items():
            assert len(d2) == 2 and len(b2) == 2


class TestBraidedSquare:
    def test_mult_unit(self):
        one = {((), ()): 1}
        x = {((T12,), (T13,)): 3}
        assert braided_square_mult(one, x, C3) == x
        assert braided_square_mult(x, one, C3) == x

    def test_mult_example(self):
        # (1 (x) x12)(x13 (x) 1) = c(x12 (x) x13) = -x23 (x) x12
        left = {((), (T12,)): 1}
        right = {((T13,), ()): 1}
        assert braided_square_mult(left, right, C3) == \
            {((T23,), (T12,)): -1}

    def test_associative_on_samples(self):
        elts = [{((T12,), (T13,)): 1}, {((), (T23,)): 1},
                {((T13,), ()): 1}]
        a, b, c = elts
        lhs = braided_square_mult(braided_square_mult(a, b, C3), c, C3)
        rhs = braided_square_mult(a, braided_square_mult(b, c, C3), C3)
        assert lhs == rhs


class TestComult:
    def test_on_letters(self):
        d = comult(tensor_elt((T12,)), C3)
        assert d == {((T12,), ()): 1, ((), (T12,)): 1}

    def test_on_square(self):
        # Delta(x12^2) = x12^2 (x) 1 + (1 + c)(x12 (x) x12) + 1 (x) x12^2
        # and c(x12 (x) x12) = -x12 (x) x12, so the middle term vanishes
        d = comult(tensor_elt((T12, T12)), C3)
        assert d == {((T12, T12), ()): 1, ((), (T12, T12)): 1}

    def test_squares_are_primitive(self):
        for t in (T12, T13, T23):
            assert is_primitive(tensor_elt((t, t)), C3)

    def test_nonrelation_is_not_primitive(self):
        assert not is_primitive(tensor_elt((T12, T13)), C3)

    def test_coassociative(self):
        T = truncated_tensor_coalgebra(C3)
        assert len(T.labels) == 121
        assert all(T.coassociative_at(w) for w in T.labels)
        assert all(T.counit_at(w) for w in T.labels)

    @pytest.mark.parametrize("pair", [(u, v) for u in (T12, T13, T23)
                                      for v in (T12, T13, T23)], ids=str)
    def test_doubled_braiding_coefficient_breaks_coassociativity(self, pair):
        c = dict(C3)
        (key, coeff), = c[pair].items()
        c[pair] = {key: 2 * coeff}
        T = truncated_tensor_coalgebra(c)
        assert not all(T.coassociative_at(w) for w in T.labels)

    def test_multiplicative(self):
        # Delta is an algebra map T(V) -> T(V) (x)_c T(V), degree <= 4
        letters = (T12, T13, T23)
        words = [()] + [(a,) for a in letters] + \
            [(a, b) for a in letters for b in letters]
        for w1 in words:
            for w2 in words:
                lhs = comult(tensor_elt(w1 + w2), C3)
                rhs = braided_square_mult(comult(tensor_elt(w1), C3),
                                          comult(tensor_elt(w2), C3), C3)
                assert lhs == rhs, (w1, w2)


class TestQuadraticRelations:
    def test_count_n3(self):
        rels = quadratic_relations(3)
        assert len(rels) == 5

    def test_n3_contents(self):
        rels = quadratic_relations(3)
        supports = [frozenset(r) for r in rels]
        # three squares
        for t in (T12, T13, T23):
            assert frozenset({(t, t)}) in supports
        # the two 3-term sums; overlapping pairs give only two distinct
        # supports after dedup
        assert sum(1 for s in supports if len(s) == 3) == 2

    def test_three_term_relation_shape(self):
        rels = quadratic_relations(3)
        rel = next(r for r in rels if (T13, T23) in r)
        # x13 x23 + x23 x12 + x12 x13
        assert rel == {(T13, T23): 1, (T23, T12): 1, (T12, T13): 1}

    def test_count_n4(self):
        rels = quadratic_relations(4)
        # 6 squares + 3 disjoint anticommutators + 8 overlap sums
        assert len(rels) == 17
        lengths = sorted(len(r) for r in rels)
        assert lengths == [1] * 6 + [2] * 3 + [3] * 8

    def test_all_primitive_n3(self):
        for r in quadratic_relations(3):
            assert is_primitive(r, C3)

    def test_span_matches_primitive_kernel(self):
        # independent check: kernel of 1 + c on V (x) V
        V = v3()
        pairs = [(u, v) for u in V.labels for v in V.labels]
        flat = lambda r: [r.get(p, 0) for p in pairs]
        kernel = degree2_primitive_basis(3)
        rels = [{(w[0], w[1]): c for w, c in r.items()}
                for r in quadratic_relations(3)]
        assert len(kernel) == 5
        assert span_equal([flat(r) for r in rels],
                          [flat(k) for k in kernel])

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            quadratic_relations(6)


class TestCaps:
    def test_word_cap(self):
        with pytest.raises(WordTooLong):
            tensor_elt((T12,) * 9)
        (long,) = tensor_elt((T12,) * 5)
        with pytest.raises(WordTooLong):
            tensor_elt(long + long)

    def test_scale_and_add(self):
        x = tensor_elt((T12,), 2)
        assert vec_scale(0, x) == {}
        assert vec_add(x, vec_scale(-1, x)) == {}
