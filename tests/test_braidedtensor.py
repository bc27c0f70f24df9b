"""Degree 2 of T(V) for the transposition module: the quadratic relation
space, primitivity as (1 + c)(r) = 0, and the kernel of 1 + c."""

import pytest

from hopfs3.braidedtensor import (degree2_primitive_basis, is_primitive,
                                  quadratic_relations)
from hopfs3.groups import transposition
from hopfs3.linalg import span_equal
from hopfs3.ydmod import v3

T12 = transposition(3, 1, 2)
T13 = transposition(3, 1, 3)
T23 = transposition(3, 2, 3)
C3 = v3().braiding()


class TestPrimitivity:
    def test_squares_are_primitive(self):
        for t in (T12, T13, T23):
            assert is_primitive({(t, t): 1}, C3)

    def test_nonrelation_is_not_primitive(self):
        assert not is_primitive({(T12, T13): 1}, C3)

    @pytest.mark.parametrize("pair", [(u, v) for u in (T12, T13, T23)
                                      for v in (T12, T13, T23)], ids=str)
    def test_doubled_braiding_coefficient_breaks_primitivity(self, pair):
        c = dict(C3)
        (key, coeff), = c[pair].items()
        c[pair] = {key: 2 * coeff}
        assert not all(is_primitive(r, c) for r in quadratic_relations(3))

    def test_degree_other_than_two_rejected(self):
        # (1 + c) characterizes primitivity in degree 2 only
        for x in ({(T12,): 1}, {(T12, T12, T12): 1},
                  {(T12, T12): 1, (T12, T13, T23): 1}):
            with pytest.raises(ValueError):
                is_primitive(x, C3)


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

    @pytest.mark.parametrize("n, dim", [(3, 5), (4, 17)])
    def test_span_matches_primitive_kernel(self, n, dim):
        # independent check: kernel of 1 + c on V (x) V
        V = v3(n)
        pairs = [(u, v) for u in V.labels for v in V.labels]
        flat = lambda r: [r.get(p, 0) for p in pairs]
        kernel = degree2_primitive_basis(n)
        rels = [{(w[0], w[1]): c for w, c in r.items()}
                for r in quadratic_relations(n)]
        assert len(kernel) == dim
        assert span_equal([flat(r) for r in rels],
                          [flat(k) for k in kernel])

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            quadratic_relations(6)
