"""The matrix coefficients of S3, the skew-primitive solver and the
coalgebra-axiom controls of verify_hopf_axioms, on the F_0 of the CLI's
algebra at (1/3, -1/2)."""

from collections import Counter
from fractions import Fraction

import pytest

import hopfs3.coalg
import hopfs3.hopf72
from conftest import cli_algebra
from hopfs3.coalg import (DUAL_E, matrix_coefficients,
                          skew_primitive_closed_form, skew_primitive_defect,
                          skew_primitive_space)
from hopfs3.groups import builtin_irreps, parse_perm, symmetric_group
from hopfs3.hopf72 import (Hopf72, build, coradical_certificate,
                           verify_hopf_axioms)
from hopfs3.linalg import linear, rank, span_equal, vec_add, vec_tensor
from hopfs3.rewrite import X12, X13, X23
from hopfs3.scalars import MultiPoly

S3 = sorted(symmetric_group(3))
POINT = (Fraction(1, 3), Fraction(-1, 2))
G12 = parse_perm("(12)", 3)


@pytest.fixture(scope="module")
def H():
    return Hopf72(cli_algebra(*POINT))


def on_f0(H, v: dict) -> dict:
    """A vector over S3 as the same combination of the delta_g of H."""
    return {H.index[((), g)]: c for g, c in v.items()}


def top_elements(H) -> list:
    """The six x13x12x23x12 delta_g, the basis elements of top length."""
    return [H.index[((X13, X12, X23, X12), g)] for g in H.group]


class TestConstructions:
    def test_dual_group_coalgebra(self, H):
        # F_0 of the algebra, the span of the delta_g, is a coalgebra:
        # Delta is coassociative and counital on every delta_g
        f0 = [H.index[((), g)] for g in S3]
        for i in f0:
            d = H.comult[i]
            left = linear(lambda pq: {(p1, p2, pq[1]): c for (p1, p2), c
                                      in H.comult[pq[0]].items()}, d)
            right = linear(lambda pq: {(pq[0], q1, q2): c for (q1, q2), c
                                       in H.comult[pq[1]].items()}, d)
            assert left == right
            assert linear(lambda pq: {pq[1]: H.counit[pq[0]]}, d) == {i: 1}
            assert linear(lambda pq: {pq[0]: H.counit[pq[1]]}, d) == {i: 1}
        # delta_g splits over all factorizations g = t (t^-1 g)
        g = parse_perm("(123)", 3)
        d = H.delta(H.delta_elt(g))
        assert len(d) == 6
        for (p, q), c in d.items():
            (v, t), (w, u) = H.labels[p], H.labels[q]
            assert c == 1 and v == w == () and t * u == g
        # the counit is the coefficient at the identity
        assert [H.counit[i] for i in f0] == [int(h.is_identity()) for h in S3]


class TestAxiomControls:
    """verify_hopf_axioms rejects a broken Delta or eps of H exactly where
    the broken basis element is a leg."""

    def test_dropped_comult_term(self):
        # the term [x13x12 d(12), x12x23 d(12)] of Delta(x13x12x23x12 de)
        # dropped: coassociativity breaks there and at the other five top
        # elements, whose Delta has the top element x13x12x23x12 de as a leg
        H = Hopf72(cli_algebra(*POINT))
        top = top_elements(H)
        pq = (H.index[((X13, X12), G12)], H.index[((X12, X23), G12)])
        assert pq in H.comult[top[0]]
        H.comult[top[0]] = {k: c for k, c in H.comult[top[0]].items()
                            if k != pq}
        failures = verify_hopf_axioms(H)["failures"]
        assert [f for f in failures if f[0] != "comult_mult"] == [
            ("coassoc", top[0]), ("antipode", top[0])] + [
            ("coassoc", i) for i in top[1:]]
        assert Counter(f[0] for f in failures)["comult_mult"] == 32

    def test_wrong_counit(self):
        # eps(x13x12x23x12 de) = 1 breaks the counit law wherever that
        # element is a leg of Delta: at the six top elements
        H = Hopf72(cli_algebra(*POINT))
        top = top_elements(H)
        H.counit[top[0]] = 1
        assert verify_hopf_axioms(H)["failures"] == [
            ("counit", top[0]), ("antipode", top[0])] + [
            ("counit", i) for i in top[1:]]


def solves(H, ys) -> bool:
    """Is the pair (y_1, y_2) over S3, placed on F_0, skew-primitive?"""
    return not any(skew_primitive_defect(H, [on_f0(H, y) for y in ys]))


def flat(ys) -> list:
    return [ys[i].get(g, 0) for i in range(2) for g in S3]


class TestSkewPrimitiveSolver:
    def test_rank2_solution_space(self, H):
        basis = skew_primitive_space(H)
        assert len(basis) == 2
        # every basis pair really solves the defining equation
        assert all(solves(H, ys) for ys in basis)

    def test_matches_closed_form(self, H):
        # the span of the closed forms at a = (1, 0) and (0, 1), on the
        # CLI's algebra and on the parameter-free one alike
        closed = [skew_primitive_closed_form(a) for a in ((1, 0), (0, 1))]
        for alg in (H, Hopf72(build(0, 0))):
            assert span_equal([flat(ys) for ys in skew_primitive_space(alg)],
                              [flat(ys) for ys in closed])

    def test_closed_form_solves(self, H):
        # for every a at once: y_i = a_i 1 - sum_j a_j e_ij over Q[a1, a2]
        a = MultiPoly.gens("a1", "a2")
        assert solves(H, skew_primitive_closed_form(a))
        assert solves(H, skew_primitive_closed_form((Fraction(2), -1)))

    def test_transposed_e_rejected(self, H, monkeypatch):
        # e_ji in place of e_ij: no pair is skew-primitive
        e = hopfs3.coalg.DUAL_E
        monkeypatch.setattr(hopfs3.coalg, "DUAL_E",
                            {(i, j): e[j, i] for i, j in e})
        assert skew_primitive_space(H) == []

    def test_flipped_term_of_delta_rejected(self):
        # one term of Delta(d(13)) negated: the space drops to dimension 1
        H = Hopf72(cli_algebra(*POINT))
        g = H.index[((), parse_perm("(13)", 3))]
        pq = next(iter(H.comult[g]))
        H.comult[g] = {**H.comult[g], pq: -H.comult[g][pq]}
        assert len(skew_primitive_space(H)) == 1


class TestMatrixCoefficients:
    def test_simple_subcoalgebras_of_dual_s3(self, H):
        # the certificate splits F_0 by the irreps; the coefficients of
        # each span a simple subcoalgebra of dimension dim^2: 1 + 1 + 4
        assert coradical_certificate(H)["failures"] == []
        f0 = [H.index[((), g)] for g in S3]
        dims = []
        for r in builtin_irreps(S3):
            fs = [on_f0(H, f) for f in matrix_coefficients(r).values()]
            dims.append(rank([[f.get(i, 0) for i in f0] for f in fs]))
        assert sorted(dims) == [1, 1, 4]

    def test_standard_f11(self):
        std = next(r for r in builtin_irreps(S3) if r.dim == 2)
        fs = matrix_coefficients(std)
        f11 = fs[(1, 1)]
        expect = {parse_perm("e", 3): 1, parse_perm("(13)", 3): 1,
                  parse_perm("(23)", 3): -1, parse_perm("(132)", 3): -1}
        assert f11 == expect

    def test_dual_basis_multiplicative_identities(self, H):
        # e_ij e_kl = [j == k] e_il would need the algebra structure; here
        # check the coalgebra identity Delta(e_ij) = sum_k e_ik (x) e_kj
        # through the algebra's Delta on F_0
        es = {ij: on_f0(H, e) for ij, e in DUAL_E.items()}
        for i in (1, 2):
            for j in (1, 2):
                want = vec_add(vec_tensor(es[(i, 1)], es[(1, j)]),
                               vec_tensor(es[(i, 2)], es[(2, j)]))
                assert H.delta(es[(i, j)]) == want

    def test_incomplete_irrep_list_rejected(self, H, monkeypatch):
        # without the standard irrep the coefficients span 2 of 6 dims
        monkeypatch.setattr(hopfs3.hopf72, "builtin_irreps", lambda G: [
            r for r in builtin_irreps(G) if r.dim == 1])
        assert coradical_certificate(H)["failures"] == [
            ("F0-decomposition", "span")]
