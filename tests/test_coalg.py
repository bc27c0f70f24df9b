"""Finite-dimensional coalgebra toolkit: constructions, the
skew-primitive solver, and the matrix coefficients of S3 on the F_0 of
the CLI's algebra at (1/3, -1/2)."""

from fractions import Fraction

import pytest

import hopfs3.hopf72
from conftest import cli_algebra
from hopfs3.coalg import (CoalgError, FinCoalgebra, MatrixCoalgebra,
                          dual_basis_e, matrix_coefficients,
                          skew_primitive_closed_form, skew_primitive_space,
                          vec_add, vec_scale, vec_tensor)
from hopfs3.groups import builtin_irreps, parse_perm, symmetric_group
from hopfs3.hopf72 import coradical_certificate
from hopfs3.linalg import rank, span_equal

S3 = sorted(symmetric_group(3))


@pytest.fixture(scope="module")
def H():
    return cli_algebra(Fraction(1, 3), Fraction(-1, 2))


def on_f0(H, v: dict) -> dict:
    """A vector over S3 as the same combination of the delta_g of H."""
    return {H.index[((), g)]: c for g, c in v.items()}


def axiom_failures(C: FinCoalgebra) -> list:
    """(check, label) for every basis element failing an axiom."""
    return ([("coassoc", l) for l in C.labels if not C.coassociative_at(l)]
            + [("counit", l) for l in C.labels if not C.counit_at(l)])


class TestConstructions:
    def test_matrix_coalgebra_axioms(self):
        for n in (1, 2, 3):
            E = MatrixCoalgebra(n)
            assert len(E.labels) == n * n
            assert axiom_failures(E) == []

    def test_dual_group_coalgebra(self, H):
        # F_0 of the algebra, the span of the delta_g, is a coalgebra
        f0 = [H.index[((), g)] for g in S3]
        C = FinCoalgebra(f0, {i: H.comult[i] for i in f0}, H.counit)
        assert axiom_failures(C) == []
        # delta_g splits over all factorizations g = t (t^-1 g)
        g = parse_perm("(123)", 3)
        d = H.delta(H.delta_elt(g))
        assert len(d) == 6
        for (p, q), c in d.items():
            (v, t), (w, u) = H.labels[p], H.labels[q]
            assert c == 1 and v == w == () and t * u == g
        # the counit is the coefficient at the identity
        assert [H.counit[i] for i in f0] == [int(h.is_identity()) for h in S3]

    def test_direct_sum(self):
        # the ambient of the skew-primitive solver: kg + M_2(k)*
        C, _ = skew_primitive_space("g", MatrixCoalgebra(2))
        assert C.labels[0] == "g" and len(C.labels) == 5
        assert axiom_failures(C) == []
        with pytest.raises(CoalgError):
            skew_primitive_space(("e", 1, 1), MatrixCoalgebra(2))


class TestAxiomControls:
    """The per-label checks reject a broken Delta or eps at that label."""

    def test_dropped_comult_term(self):
        # Delta(e12) = e12 (x) e22 with e11 (x) e12 dropped; coassociativity
        # also breaks at e11 and e22, whose Delta has a leg e12
        E = MatrixCoalgebra(2)
        e = E.e
        E.comult[e(1, 2)] = {(e(1, 2), e(2, 2)): 1}
        assert not E.coassociative_at(e(1, 2))
        assert axiom_failures(E) == [
            ("coassoc", e(1, 1)), ("coassoc", e(1, 2)), ("coassoc", e(2, 2)),
            ("counit", e(1, 2))]

    def test_wrong_counit(self):
        # eps(e22) = 2 breaks the counit law wherever e22 is a leg of Delta
        E = MatrixCoalgebra(2)
        e = E.e
        E.counit[e(2, 2)] = 2
        assert not E.counit_at(e(2, 2))
        assert axiom_failures(E) == [("counit", e(1, 2)), ("counit", e(2, 1)),
                                     ("counit", e(2, 2))]


def _skew_defect(ambient, g_label, E, xs):
    """Delta(x_i) - x_i (x) g - sum_j e_ij (x) x_j for each i."""
    n = E.rank_n
    out = []
    for i in range(n):
        d = ambient.delta(xs[i])
        d = vec_add(d, vec_scale(-1, vec_tensor(xs[i], {g_label: 1})))
        for j in range(n):
            d = vec_add(d, vec_scale(-1, vec_tensor({E.e(i + 1, j + 1): 1},
                                                    xs[j])))
        out.append(d)
    return out


class TestSkewPrimitiveSolver:
    def test_rank2_solution_space(self):
        E = MatrixCoalgebra(2)
        ambient, basis = skew_primitive_space("g", E)
        assert len(ambient.labels) == 5
        assert len(basis) == 2
        # every basis tuple really solves the defining equation
        for xs in basis:
            for d in _skew_defect(ambient, "g", E, xs):
                assert d == {}

    def test_matches_closed_form(self):
        E = MatrixCoalgebra(2)
        ambient, basis = skew_primitive_space("g", E)
        labels = ambient.labels
        flat = lambda xs: [xs[i].get(l, 0) for i in range(2) for l in labels]
        closed = [skew_primitive_closed_form("g", E, a)
                  for a in ((1, 0), (0, 1))]
        assert span_equal([flat(xs) for xs in basis],
                          [flat(xs) for xs in closed])

    def test_closed_form_solves(self):
        E = MatrixCoalgebra(3)
        ambient, _ = skew_primitive_space("g", E)
        xs = skew_primitive_closed_form("g", E, (Fraction(2), -1, Fraction(1, 3)))
        for d in _skew_defect(ambient, "g", E, xs):
            assert d == {}

    def test_rank1(self):
        E = MatrixCoalgebra(1)
        _, basis = skew_primitive_space("g", E)
        assert len(basis) == 1
        # the (g, h)-skew-primitive line g - h
        (xs,) = basis
        x = xs[0]
        vals = sorted(x.values())
        assert vals == [-1, 1] or vals == [Fraction(-1), Fraction(1)]


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
        std = next(r for r in builtin_irreps(S3) if r.dim == 2)
        es = {ij: on_f0(H, e)
              for ij, e in dual_basis_e(matrix_coefficients(std)).items()}
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
