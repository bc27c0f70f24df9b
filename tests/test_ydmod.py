"""Yetter-Drinfeld modules over kS3 and over its dual, and the transport
of structure between the two sides."""

import pytest

from hopfs3.groups import parse_perm, symmetric_group, transposition
from hopfs3.ydmod import (YDError, braid_relation_holds, dual_braiding,
                          dualize, induce, simples_list, undualize, v3)

S3 = symmetric_group(3)
T12 = transposition(3, 1, 2)
T13 = transposition(3, 1, 3)
T23 = transposition(3, 2, 3)


class TestV3:
    def test_shape(self):
        V = v3()
        assert V.dim == 3
        assert sorted(map(str, V.labels)) == ["(12)", "(13)", "(23)"]
        assert all(V.degree[t] == t for t in V.labels)

    def test_axioms(self):
        assert v3().axiom_failures() == []

    def test_signed_conjugation_action(self):
        V = v3()
        assert V.act_label(T12, T13) == {T23: -1}
        assert V.act_label(T12, T12) == {T12: -1}
        c123 = parse_perm("(123)", 3)
        assert V.act_label(c123, T12) == {T23: 1}

    def test_braiding(self):
        c = v3().braiding()
        # c(x12 (x) x13) = (12).x13 (x) x12 = -x23 (x) x12
        assert c[(T12, T13)] == {(T23, T12): -1}
        assert c[(T12, T12)] == {(T12, T12): -1}

    def test_braid_relation(self):
        assert braid_relation_holds(v3())


class TestInducedSimples:
    def test_all_eight_simples(self):
        simples = simples_list(S3)
        assert len(simples) == 8
        dims = [M.dim for _, _, M in simples]
        # identity class: 1, 1, 2; 3-cycles: 2, 2, 2; transpositions: 3, 3
        assert dims == [1, 1, 2, 2, 2, 2, 3, 3]
        assert sum(dims) == 16

    def test_every_simple_is_yd(self):
        for g, irr, M in simples_list(S3):
            assert M.axiom_failures() == [], (g, irr.name)
            assert braid_relation_holds(M), (g, irr.name)

    def test_v3_is_the_sign_induction(self):
        # M((12), sgn) is v3 up to relabeling: same degrees, same braiding
        cent = sorted({g for g in S3 if g * T12 == T12 * g})
        from hopfs3.groups import builtin_irreps
        sgn = next(r for r in builtin_irreps(cent)
                   if r.dim == 1 and any(r(g)[0][0] == -1 for g in cent))
        M = induce(T12, sgn, S3)
        assert M.dim == 3
        assert sorted(str(M.degree[l]) for l in M.labels) == \
            ["(12)", "(13)", "(23)"]
        V = v3()
        relabel = {l: M.degree[l] for l in M.labels}

        # isomorphic via a diagonal sign change b_l -> eps_l x_{deg l};
        # the sign pattern depends on the coset representative choice
        def matches(eps):
            for g in S3:
                for l in M.labels:
                    img = {relabel[o]: c * eps[o] * eps[l]
                           for o, c in M.act_label(g, l).items()}
                    if img != V.act_label(g, relabel[l]):
                        return False
            return True

        from itertools import product
        assert any(matches(dict(zip(M.labels, signs)))
                   for signs in product((1, -1), repeat=3))

    def test_wrong_centralizer_rejected(self):
        from hopfs3.groups import builtin_irreps
        trivial_s3 = next(r for r in builtin_irreps(S3) if r.dim == 1
                          and all(r(g)[0][0] == 1 for g in S3))
        with pytest.raises(YDError):
            induce(T12, trivial_s3, S3)


class TestDualSide:
    def test_dualize_v3_structure(self):
        W = dualize(v3())
        # dual degree of x_t is t^-1 = t for transpositions
        assert all(W.dual_degree[t] == t for t in W.labels)
        # coaction lambda(x_t) = sum_g sgn(g) delta_g (x) x_{g^-1 t g}
        lam = W.coaction[T12]
        assert len(lam) == 6
        assert lam[(parse_perm("e", 3), T12)] == 1
        assert lam[(T13, T23)] == -1
        c123 = parse_perm("(123)", 3)
        # g = (123): g^-1 (12) g = (13)
        assert lam[(c123, T13)] == 1

    def test_act_delta_projects(self):
        W = dualize(v3())
        x = {T12: 2, T13: 5}
        assert W.act_delta(T12, x) == {T12: 2}
        assert W.act_delta(parse_perm("e", 3), x) == {}

    def test_dual_axioms(self):
        for _, _, M in simples_list(S3):
            W = dualize(M)
            assert W.coaction_coassociative()
            assert W.yd_compatible()

    def test_roundtrip(self):
        for _, _, M in simples_list(S3):
            M2 = undualize(dualize(M))
            assert M2.labels == M.labels
            assert M2.degree == M.degree
            assert M2.action == M.action

    def test_transported_braiding_matches(self):
        V = v3()
        assert dual_braiding(dualize(V)) == V.braiding()
