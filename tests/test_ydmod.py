"""Yetter-Drinfeld modules over k^{S3}: the coaction, the action and the
braiding read from it, the braiding at a position of a tensor word, the
braid relation, the induced simples, and the axiom checker."""

from itertools import product

import pytest

from hopfs3.groups import parse_perm, symmetric_group, transposition
from hopfs3.ydmod import (YDError, braid_at, braid_relation_failures, induce,
                          simples_list, v3)

S3 = symmetric_group(3)
T12 = transposition(3, 1, 2)
T13 = transposition(3, 1, 3)
T23 = transposition(3, 2, 3)
E = parse_perm("e", 3)
C123 = parse_perm("(123)", 3)


class TestV3:
    def test_shape(self):
        V = v3()
        assert V.dim == 3
        assert sorted(map(str, V.labels)) == ["(12)", "(13)", "(23)"]
        assert all(V.dual_degree[t] == t for t in V.labels)

    def test_axioms(self):
        assert v3().axiom_failures() == []

    def test_signed_conjugation_action(self):
        V = v3()
        assert V.act(T12, {T13: 1}) == {T23: -1}
        assert V.act(T12, {T12: 1}) == {T12: -1}
        assert V.act(C123, {T12: 1}) == {T23: 1}
        assert V.act(T12, {T12: 2, T13: 5}) == {T12: -2, T23: -5}

    def test_coaction(self):
        # lambda(x_t) = sum_g sgn(g) delta_g (x) x_{g^-1 t g}
        lam = v3().coaction[T12]
        assert len(lam) == 6
        assert lam[(E, T12)] == 1
        assert lam[(T13, T23)] == -1
        # g = (123): g^-1 (12) g = (13)
        assert lam[(C123, T13)] == 1

    def test_braiding(self):
        c = v3().braiding()
        # c(x12 (x) x13) = (12).x13 (x) x12 = -x23 (x) x12
        assert c[(T12, T13)] == {(T23, T12): -1}
        assert c[(T12, T12)] == {(T12, T12): -1}

    def test_braid_at_inner_positions(self):
        # c at letters j, j+1 of a length-4 word; the other letters fixed
        c = v3().braiding()
        assert braid_at(c, {(T12, T12, T13, T23): 2}, 1) == \
            {(T12, T23, T12, T23): -2}
        for w in product((T12, T13, T23), repeat=4):
            a, b, d, f = w
            assert braid_at(c, {w: 1}, 1) == \
                {(a, p, q, f): x for (p, q), x in c[(b, d)].items()}
            assert braid_at(c, {w: 1}, 2) == \
                {(a, b, p, q): x for (p, q), x in c[(d, f)].items()}

    def test_braid_relation(self):
        assert braid_relation_failures(v3()) == []


class TestAxiomControls:
    """Each perturbation of v3 breaks an axiom that axiom_failures or
    braid_relation_failures checks."""

    def test_negated_coefficient_breaks_coassociativity(self):
        V = v3()
        V.coaction[T12][(T13, T23)] *= -1
        assert V.axiom_failures() == [
            f"coaction not coassociative on {t}" for t in V.labels]

    def test_wrong_dual_degree_breaks_yd_condition(self):
        V = v3()
        V.dual_degree[T12] = C123
        bad = V.axiom_failures()
        assert len(bad) == 9
        assert all("leaves dual degree" in b for b in bad)

    def test_identity_dual_degree_breaks_braid_relation(self):
        V = v3()
        V.dual_degree[T12] = E
        assert len(braid_relation_failures(V)) == 12

    def test_negated_coefficient_breaks_braid_relation(self):
        V = v3()
        V.coaction[T12][(T13, T23)] *= -1
        assert len(braid_relation_failures(V)) == 6

    def test_identity_coefficient_breaks_counit(self):
        V = v3()
        V.coaction[T12][(E, T12)] = 2
        assert V.axiom_failures()[0] == "counit fails on (12)"


class TestInducedSimples:
    def test_all_eight_simples(self):
        simples = simples_list(S3)
        assert len(simples) == 8
        dims = [M.dim for _, _, M in simples]
        # identity class: 1, 1, 2; 3-cycles: 2, 2, 2; transpositions: 3, 3
        assert dims == [1, 1, 2, 2, 2, 2, 3, 3]
        assert sum(dims) == 16

    def test_every_simple_is_yd(self):
        # counit, coassociativity and the YD condition, on every label
        for g, irr, M in simples_list(S3):
            assert M.axiom_failures() == [], (g, irr.name)
            assert braid_relation_failures(M) == [], (g, irr.name)

    def test_braiding_from_the_action(self):
        # c(u (x) v) = deg(u).v (x) u, deg(u) = dual_degree(u)^-1
        for g, irr, M in simples_list(S3):
            expect = {(u, v): {(o, u): x for o, x in
                               M.act(M.dual_degree[u].inv(), {v: 1}).items()}
                      for u in M.labels for v in M.labels}
            assert M.braiding() == expect, (g, irr.name)

    def test_v3_is_the_sign_induction(self):
        # M((12), sgn) is v3 up to relabeling: same degrees, same braiding
        cent = sorted({g for g in S3 if g * T12 == T12 * g})
        from hopfs3.groups import builtin_irreps
        sgn = next(r for r in builtin_irreps(cent)
                   if r.dim == 1 and any(r(g)[0][0] == -1 for g in cent))
        M = induce(T12, sgn, S3)
        assert M.dim == 3
        assert sorted(str(M.dual_degree[l]) for l in M.labels) == \
            ["(12)", "(13)", "(23)"]
        V = v3()
        relabel = {l: M.dual_degree[l] for l in M.labels}

        # isomorphic via a diagonal sign change b_l -> eps_l x_{deg l};
        # the sign pattern depends on the coset representative choice
        def matches(eps):
            for g in S3:
                for l in M.labels:
                    img = {relabel[o]: c * eps[o] * eps[l]
                           for o, c in M.act(g, {l: 1}).items()}
                    if img != V.act(g, {relabel[l]: 1}):
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
