"""The 72-dimensional Hopf algebra: structure maps, axiom certificates,
Hopf-ideal property, filtration lemmas, and the coradical."""

import collections
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hopfs3.groups import conjugate, parse_perm
from hopfs3.hopf72 import (adjoint_isotypics, axiom_layout, build, c_identity,
                           coideal_elements, coradical_certificate,
                           dump_tables, gr_check, lemma31_suite,
                           verify_hopf_axioms, verify_hopf_ideal)
from hopfs3.linalg import add_into, vec_add, vec_scale, vec_tensor
from hopfs3.hopf72 import Hopf72, Joined
from hopfs3.rewrite import (S3, X12, X13, X23, Rule, RuleSystem, _full_tail,
                            default_rules, structure_constants)
from hopfs3.scalars import PolyRing, Rescale, ScalarKindError

R = PolyRing("a1", "a2")
A1, A2 = R.gens()

G = {s: parse_perm(s, 3) for s in ("e", "(12)", "(13)", "(23)", "(123)",
                                   "(132)")}


POINT = (Fraction(1, 3), Fraction(-1, 2))

# sha256 of repr(sorted(failures)) of the hopf.graded control below
GRADED_CONTROL_DIGEST = (
    "04022193133f59f7bc655b5ad37e98abae9e6b5dbd9a0398da6940ce843e6950")

WRONG_SIGN_DIGEST = (
    "3b64bdbec3aea27361e90d5915d05ee7a0f1dac945b6836c9b09addfbf4fdac6")


def unjoined_product(alg, x: dict, y: dict) -> dict:
    """x y in A (x) A summed over every pair of terms of x and y, each
    product e_p e_r (x) e_q e_s read from the table."""
    rows = alg.table.rows
    out: dict = {}
    for ((p, q), c1), ((r, s), c2) in itertools.product(x.items(), y.items()):
        for key, c in vec_tensor(rows[p][r], rows[q][s]).items():
            add_into(out, key, c1 * c2 * c)
    return out


@pytest.fixture(scope="module")
def H():
    return build(A1, A2)


@pytest.fixture(scope="module")
def Hnum():
    return build(Fraction(2), Fraction(-3))


class TestStructureMaps:
    def test_dimension(self, H):
        assert H.dim == 72

    def test_unit_and_counit(self, H):
        def eps(x):
            return sum(H.counit[i] * c for i, c in x.items())
        assert eps(H.unit()) == 1
        assert eps(H.delta_elt(G["e"])) == 1
        assert eps(H.delta_elt(G["(12)"])) == 0
        for t in (X12, X13, X23):
            assert eps(H.x_elt(t)) == 0

    def test_comult_of_delta(self, H):
        g = G["(123)"]
        expect = {(H.index[((), t)], H.index[((), t.inv() * g)]): 1
                  for t in S3}
        assert H.delta(H.delta_elt(g)) == expect

    def test_comult_of_generator(self, H):
        # Delta(x_t) = x_t (x) 1 + sum_h sgn(h) delta_h (x) x_{h^-1 t h}
        for t in (X12, X13, X23):
            expect = vec_tensor(H.x_elt(t), H.unit())
            for h in S3:
                c = conjugate(t, h.inv())
                for k, v in vec_tensor(H.delta_elt(h), H.x_elt(c)).items():
                    s = expect.get(k, 0) + h.sign() * v
                    if s:
                        expect[k] = s
                    else:
                        expect.pop(k, None)
            assert H.delta(H.x_elt(t)) == expect

    def test_antipode_of_delta(self, H):
        g = G["(123)"]
        assert H.S(H.delta_elt(g)) == H.delta_elt(g.inv())

    def test_antipode_of_generator(self, H):
        # S(x_t) = -sum_h sgn(h) delta_{h^-1} x_{h^-1 t h}
        for t in (X12, X13, X23):
            expect: dict = {}
            for h in S3:
                c = conjugate(t, h.inv())
                term = H.mult(H.delta_elt(h.inv()), H.x_elt(c))
                for k, v in term.items():
                    s = expect.get(k, 0) - h.sign() * v
                    if s:
                        expect[k] = s
                    else:
                        expect.pop(k, None)
            assert H.S(H.x_elt(t)) == expect

    def test_antipode_crosses_isotypic_pieces(self, H):
        # the antipode does not preserve the left-adjoint grading: it maps
        # x12 d(23) (left piece (12)) to x13 d(132) (left piece (13))
        i = H.index[((X12,), G["(23)"])]
        assert H.S({i: 1}) == {H.index[((X13,), G["(132)"])]: 1}

    def test_antipode_antimultiplicative(self, H):
        rng = random.Random(3)
        for _ in range(60):
            i = rng.randrange(H.dim)
            k = rng.randrange(H.dim)
            lhs = H.S(H.mult({i: 1}, {k: 1}))
            rhs = H.mult(H.S({k: 1}), H.S({i: 1}))
            assert lhs == rhs, (i, k)

    def test_tensor_mult_matches_unjoined_sum(self, H):
        # the joined product against the sum over every pair of terms, on
        # 8 pairs (i, k) with e_i e_k != 0 at (0, 0) and 8 incompatible
        # ones: symbolically, at (0, 0), and on the packed copy, whose
        # Delta(e_i) are Joined
        H0 = build(0, 0)
        rng = random.Random(12)
        pairs = []
        for i in rng.sample(range(H.dim), 8):
            followers = H.table.compatible_followers(i)
            pairs += [(i, rng.choice([k for k in followers
                                      if H0.table.rows[i][k]])),
                      (i, rng.choice([k for k in range(H.dim)
                                      if k not in followers]))]
        packed = H.packed(axiom_layout(H))
        assert isinstance(packed.comult[0], Joined)
        for alg in (H, H0, packed):
            nonzero = []
            for i, k in pairs:
                x, y = alg.comult[i], alg.comult[k]
                expected: dict = {}
                for ((p, q), c1), ((r, s), c2) in itertools.product(
                        x.items(), y.items()):
                    for key, c in vec_tensor(alg.mult({p: 1}, {r: 1}),
                                             alg.mult({q: 1}, {s: 1})).items():
                        add_into(expected, key, c1 * c2 * c)
                assert alg.tensor_mult(x, y) == expected, (i, k)
                nonzero.append(bool(expected))
            # Delta(e_i) Delta(e_k) = Delta(e_i e_k)
            assert nonzero == [True, False] * 8

    def test_packed_tensor_mult_on_every_follower(self, H):
        # the packed copy's product against the unjoined sum on 48 pairs:
        # every compatible follower k of four seeded i, with Delta(e_i)
        # Joined on the whole table and as a plain dict, whose own rows
        # are compiled in the call
        packed = H.packed(axiom_layout(H))
        pairs = [(i, k) for i in random.Random(17).sample(range(H.dim), 4)
                 for k in H.table.compatible_followers(i)]
        assert len(pairs) == 48
        for i, k in pairs:
            x, y = packed.comult[i], packed.comult[k]
            expected = unjoined_product(packed, x, y)
            assert packed.tensor_mult(x, y) == expected, (i, k)
            assert packed.tensor_mult(dict(x), y) == expected, (i, k)

    @pytest.mark.parametrize("point", ["symbolic", "(1/3,-1/2)", "(0,0)"])
    def test_comult_is_product_of_letters(self, point):
        # Delta(w delta_g), built once per suffix, against the memo-free
        # product Delta(x_t1) ... Delta(x_tn) Delta(delta_g), unjoined
        a = {"symbolic": (A1, A2), "(1/3,-1/2)": POINT, "(0,0)": (0, 0)}
        alg = build(*a[point])
        for i, (w, g) in enumerate(alg.labels):
            expected = {(alg.index[((), t)], alg.index[((), t.inv() * g)]): 1
                        for t in S3}
            for t in reversed(w):
                expected = unjoined_product(alg, alg._gen_comult[t], expected)
            assert alg.comult[i] == expected, (w, g)
        # one product per Delta(x_t v delta_g), v a suffix of a basis word
        assert alg.stats == {"tensor_mults": 11 * 6}

    def test_wrong_sign_changes_every_word_with_x13(self, wrong_sign_point):
        # the control of conftest rebuilds Delta through word_comult, a
        # memo per call; here the same once more, with one memo for the
        # whole rebuild, made after the sign change.  Both must differ
        # from the unperturbed Delta on every basis word holding x13 (at
        # some tail: the negated term is x13 de (x) de) and on no other
        H = build(*POINT)
        H1 = build(*POINT)
        gen = H1._gen_comult[X13]
        key = next(iter(gen))
        gen[key] = -gen[key]
        memo: dict = {}
        rebuilt = [H1.word_comult(w, g, memo) for (w, g) in H1.labels]
        assert rebuilt == wrong_sign_point.comult
        changed = {w for (w, _g), d, e in zip(H.labels, rebuilt, H.comult)
                   if d != e}
        assert changed == {w for w in H.table.words if X13 in w}
        assert len(changed) == 6

    def test_tensor_mult_componentwise(self, H):
        rng = random.Random(9)
        for _ in range(20):
            a, b, c, d = ({rng.randrange(H.dim): 1} for _ in range(4))
            lhs = H.tensor_mult(vec_tensor(a, b), vec_tensor(c, d))
            rhs = vec_tensor(H.mult(a, c), H.mult(b, d))
            assert lhs == rhs

    def test_axioms_call_tensor_mult_once_per_pair(self, Hnum, monkeypatch):
        calls = []
        tensor_mult = Hopf72.tensor_mult

        def counted(self, x, y):
            calls.append(1)
            return tensor_mult(self, x, y)

        monkeypatch.setattr(Hopf72, "tensor_mult", counted)
        assert verify_hopf_axioms(Hnum)["ok"]
        assert len(calls) == 72 * 72

    @pytest.mark.parametrize("n", [2, 3])
    def test_word_maps_match_tables(self, H, n):
        # Delta and S of an arbitrary (also reducible) word, taken along its
        # letters, agree with the tables applied to its normal form
        for w in itertools.product((X12, X13, X23), repeat=n):
            for g in S3:
                x = H.from_smash({(w, g): 1})
                assert H.word_comult(w, g) == H.delta(x), (w, g)
                assert H.word_antipode(w, g) == H.S(x), (w, g)

    def test_from_smash(self, H):
        x = {((X13, X13), G["(23)"]): 1, ((), G["(23)"]): -A1}
        assert H.from_smash(x) == {}


class TestAxioms:
    def test_exhaustive_symbolic(self, H):
        rep = verify_hopf_axioms(H)
        assert rep["ok"], rep["failures"][:5]
        assert rep["basis_checked"] == 72
        assert rep["pairs_checked"] == 72 * 72
        assert (rep["delta_terms"], rep["terms_compared"]) == (2310, 29053)
        # d = 3, N = 3, D = 94, R = 2: K = 4*3 + 1, 2*94^2*2^2*3^4 < 2^23
        assert rep["scalars"] == "kronecker B=24 K=13"
        assert rep["witness"] is None

    def test_packed_coefficients_decode(self, H):
        layout = axiom_layout(H)
        values = [c for row in H.table.rows for e in row for c in e.values()]
        values += [c for d in H.comult for c in d.values()]
        values += [c for a in H.antipode for c in a.values()]
        assert len(values) == 3353
        for c in values:
            assert layout.decode(layout.encode(c)) == c

    def test_numeric_point(self, Hnum):
        rep = verify_hopf_axioms(Hnum)
        assert rep["ok"], rep["failures"][:5]
        assert rep["scalars"] == "rescaled D=1"
        assert isinstance(axiom_layout(Hnum), Rescale)

    def test_rescaled_point(self):
        # at (1/3, -1/2) the sweep runs in the basis D^|w| e_(w,g), D = 6;
        # it must pass with the counts of the symbolic sweep
        rep = verify_hopf_axioms(build(Fraction(1, 3), Fraction(-1, 2)))
        assert rep["ok"], rep["failures"][:5]
        assert rep["scalars"] == "rescaled D=6"
        assert (rep["delta_terms"], rep["terms_compared"]) == (2310, 29053)
        assert rep["witness"] is None

    def test_degenerate_point(self):
        rep = verify_hopf_axioms(build(0, 0))
        assert rep["ok"], rep["failures"][:5]
        assert (rep["delta_terms"], rep["terms_compared"]) == (2148, 14196)

    def test_wrong_sign_in_comult_fails(self):
        # negate one term of Delta(x13) and rebuild the tables from it
        H0 = build(0, 0)
        gen = H0._gen_comult[X13]
        key = next(iter(gen))
        gen[key] = -gen[key]
        H0.comult = [H0.word_comult(w, g) for (w, g) in H0.labels]
        H0.antipode = [H0.word_antipode(w, g) for (w, g) in H0.labels]
        rep = verify_hopf_axioms(H0)
        assert not rep["ok"]
        assert {f[0] for f in rep["failures"]} == {
            "coassoc", "counit", "antipode", "comult_mult"}
        assert len(rep["failures"]) == 176

    def test_wrong_sign_symbolic(self, wrong_sign_symbolic):
        # the same control over Q[a1, a2], packed; the failure list is
        # the one the unpacked MultiPoly sweep gives (measured before
        # packing: 219 failures, this digest)
        H1 = wrong_sign_symbolic
        rep = verify_hopf_axioms(H1)
        failures = rep["failures"]
        assert rep["scalars"].startswith("kronecker")
        assert len(failures) == 219
        assert collections.Counter(f[0] for f in failures) == {
            "comult_mult": 153, "coassoc": 56, "counit": 7, "antipode": 3}
        assert failures[:3] == [("coassoc", 7), ("coassoc", 9),
                                ("coassoc", 12)]
        assert hashlib.sha256(repr(failures).encode()).hexdigest() == \
            WRONG_SIGN_DIGEST
        # the witness is the first failing pair's difference, decoded
        i, k = 7, 54
        assert [f for f in failures if f[0] == "comult_mult"][0] == \
            ("comult_mult", i, k)
        diff = vec_add(H1.delta(H1.table.mult_basis(i, k)),
                       vec_scale(-1, H1.tensor_mult(H1.comult[i],
                                                    H1.comult[k])))
        assert diff and any(not c.is_constant() for c in diff.values())
        assert rep["witness"] == \
            "Delta(e7 e54) - Delta(e7) Delta(e54) = " + " + ".join(
                f"({c})*[{p},{q}]" for (p, q), c in sorted(diff.items()))

    def test_vanishing_at_evaluation_point_fails(self):
        # a1 - 2^B is zero at a1 = 2^B, where the unperturbed inputs would
        # be evaluated; fit measures the perturbed inputs and widens B
        H1 = build(A1, A2)
        layout = axiom_layout(H1)
        bump = A1 - 2 ** layout.bits
        with pytest.raises(ScalarKindError):
            layout.encode(bump)
        key = next(iter(H1.comult[0]))
        H1.comult[0][key] = H1.comult[0][key] + bump
        assert axiom_layout(H1).bits > layout.bits
        rep = verify_hopf_axioms(H1)
        assert not rep["ok"]
        assert ("counit", 0) in rep["failures"]
        assert rep["witness"] is not None


    def test_wrong_sign_at_point(self, wrong_sign_point):
        # the same control at (1/3, -1/2), in the rescaled basis: the
        # failures and the witness, in the original coordinates, are those
        # of the unrescaled Fraction sweep
        rep = verify_hopf_axioms(wrong_sign_point)
        failures = rep["failures"]
        assert rep["scalars"] == "rescaled D=6"
        assert len(failures) == 219
        assert collections.Counter(f[0] for f in failures) == {
            "comult_mult": 153, "coassoc": 56, "counit": 7, "antipode": 3}
        assert failures[:3] == [("coassoc", 7), ("coassoc", 9),
                                ("coassoc", 12)]
        assert hashlib.sha256(repr(failures).encode()).hexdigest() == \
            WRONG_SIGN_DIGEST
        assert rep["witness"] == (
            "Delta(e7 e54) - Delta(e7) Delta(e54) = (1)*[12,6] + "
            "(2)*[12,60] + (-2)*[24,24] + (-2/3)*[30,0] + (-2/3)*[36,0] + "
            "(-2)*[54,12]")

    def test_non_homogeneous_perturbation_at_point(self):
        # 1/7 [x13 de, x13 d(13)] added to Delta(x13 de) has weight -1, so
        # it stays a Fraction after rescaling; the sweep still finds the
        # failures and witness of the unrescaled Fraction sweep
        H1 = build(Fraction(1, 3), Fraction(-1, 2))
        i = H1.index[((X13,), G["e"])]
        q = H1.index[((X13,), G["(13)"])]
        assert (i, q) not in H1.comult[i]
        H1.comult[i] = {**H1.comult[i], (i, q): Fraction(1, 7)}
        layout = axiom_layout(H1)
        assert str(layout) == "rescaled D=6"
        assert H1.packed(layout).comult[i][(i, q)] == Fraction(1, 42)
        rep = verify_hopf_axioms(H1)
        failures = rep["failures"]
        assert len(failures) == 74
        assert collections.Counter(f[0] for f in failures) == {
            "coassoc": 52, "comult_mult": 22}
        assert failures[:3] == [("coassoc", 7), ("coassoc", 9),
                                ("coassoc", 12)]
        assert hashlib.sha256(repr(failures).encode()).hexdigest() == (
            "f2ee4f53109796cb0e19deb50c71e07d823044ef536e916d26c45908715d0be8")
        assert rep["witness"] == \
            "Delta(e10 e24) - Delta(e10) Delta(e24) = (1/14)*[12,17]"

    @pytest.mark.parametrize("height", [9, 999, 10 ** 6])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_rescaled_coefficients_round_trip(self, height, data):
        # at a generic point of each height the benchmark's point sweep
        # draws from, every rescaled coefficient of the table, Delta and S
        # is an int, and decoding gives back all 3353 original values
        def rational():
            return st.builds(Fraction,
                             st.integers(-height, height).filter(bool),
                             st.integers(1, height))
        a1, a2 = data.draw(rational()), data.draw(rational())
        # the coefficients factor over a1, a2, a1 - a2 and a1 - 2 a2
        assume(a1 != a2 and a1 != 2 * a2)
        H1 = build(a1, a2)
        layout = axiom_layout(H1)
        packed = H1.packed(layout)
        original = list(H1.table.graded()) + list(H1.graded())
        rescaled = list(packed.table.graded()) + list(packed.graded())
        assert len(original) == len(rescaled) == 3353
        for (*key, c, weight), (*key2, v, weight2) in zip(original, rescaled):
            assert (key2, weight2) == (key, weight)
            assert type(v) is int
            assert layout.decode(v, weight) == c


class TestHopfIdeal:
    def test_eight_rule_relations(self):
        rels = default_rules(A1, A2).relations()
        assert [n for n, _ in rels] == [
            "x13x13", "x23x23", "x12x12", "x13x23", "x23x13",
            "x12x13x12", "x23x12x23", "x23x12x13"]
        # x13^2 - (a1 - a2)(d(12) + d(123)) - a1 (d(23) + d(132))
        sq13 = _full_tail(((X13, X13), 1))
        sq13.update({((), G["(12)"]): -(A1 - A2), ((), G["(123)"]): -(A1 - A2),
                     ((), G["(23)"]): -A1, ((), G["(132)"]): -A1})
        assert rels[0][1] == sq13

    def test_three_coideal_elements(self):
        assert [n for n, _ in coideal_elements(A1, A2)] == [
            "c1-rel", "c2-rel", "sum_squares"]

    def test_symbolic_certificate(self, H):
        rep = verify_hopf_ideal(H)
        assert rep["ok"], rep["failures"]

    def test_wrong_parameters_fail(self):
        # the rule relations are those of the table at (1, 2); the
        # c-relations at (1, 0) do not hold in that algebra
        rep = verify_hopf_ideal(Hopf72(Fraction(1), Fraction(0),
                                       build(1, 2).table))
        assert not rep["ok"]
        assert rep["failures"] == [
            (name, what)
            for name in ("c1-rel", "c2-rel")
            for what in ("not in kernel", "comult not in I(x)A + A(x)I",
                         "antipode not in I")]

    def test_relations_vanish_in_quotient(self, H):
        for name, r in (default_rules(A1, A2).relations()
                        + coideal_elements(A1, A2)):
            assert H.from_smash(r) == {}, name

    def test_perturbed_relation_does_not_vanish(self, H):
        _, sq13 = default_rules(A1, A2).relations()[0]
        wrong = vec_add(sq13, {((), G["(12)"]): 1})
        assert H.from_smash(wrong) != {}

    def test_perturbed_rule_leaves_the_coideal(self):
        # rule 4 as x13x23 -> -2 x23x12 - x12x13 at (1/3, -1/2): every
        # relation still vanishes in its own table, but Delta and S of the
        # mixed and cubic ones leave I (x) A + A (x) I and I
        rules = default_rules(*POINT).rules
        rules[3] = Rule((X13, X23), _full_tail(((X23, X12), -2),
                                               ((X12, X13), -1)))
        H1 = Hopf72(*POINT, structure_constants(RuleSystem(rules)))
        assert verify_hopf_ideal(H1)["failures"] == [
            (name, what)
            for name in ("x13x23", "x23x13", "x12x13x12", "x23x12x23",
                         "x23x12x13")
            for what in ("comult not in I(x)A + A(x)I", "antipode not in I")]


class TestCIdentity:
    def test_certificate(self, H):
        rep = c_identity(H)
        assert rep["ok"], rep["failures"]

    def test_wrong_parameter_rejected(self):
        # the table of (1, 0), read as if a2 were 2
        H = build(1, 0)
        H.a2 = 2
        assert c_identity(H)["failures"] == [("c1", "value"), ("c2", "value")]

    def test_wrong_comult_rejected(self):
        # one coefficient of Delta(delta_(12)) doubled
        H = build(1, 0)
        comult = H.comult[H.index[((), G["(12)"])]]
        comult[next(iter(comult))] = 2
        assert c_identity(H)["failures"] == [("c1", "comult shape"),
                                             ("c2", "comult shape")]

    def test_delta23_coefficient(self, H):
        # coefficient of delta_(23) in x13^2 - x12^2 is 2 a1
        c1 = H.mult(H.x_elt(X13), H.x_elt(X13))
        for k, c in H.mult(H.x_elt(X12), H.x_elt(X12)).items():
            s = c1.get(k, 0) - c
            if s:
                c1[k] = s
            else:
                c1.pop(k, None)
        assert c1.get(H.index[((), G["(23)"])], 0) == 2 * A1


class TestFiltration:
    def test_f0_isotypics(self, H):
        pieces, failures = adjoint_isotypics(H, 0)
        assert failures == []
        assert len(pieces) == 1
        assert pieces[0].g == G["e"]
        assert len(pieces[0].members) == 6

    def test_f1_isotypics(self, H):
        pieces, failures = adjoint_isotypics(H, 1)
        assert failures == []
        assert sorted(str(p.g) for p in pieces) == \
            ["(12)", "(13)", "(23)", "e"]
        assert sum(len(p.members) for p in pieces) == 24
        by_g = {str(p.g): len(p.members) for p in pieces}
        assert by_g == {"e": 6, "(12)": 6, "(13)": 6, "(23)": 6}

    def test_lemma_suite(self, H):
        rep = lemma31_suite(H)
        assert rep["ok"], rep["failures"][:5]
        assert rep["antipode_invertible"] is True

    def test_coradical(self, H):
        rep = coradical_certificate(H)
        assert rep["ok"], rep["failures"]
        assert "k^{S3}" in rep["conclusion"]

    def test_graded(self, H):
        rep = gr_check(H)
        assert rep["ok"], rep["failures"][:5]


class TestControls:
    """Each certificate of the filtration rejects a control at (1/3, -1/2)."""

    def test_coradical_rejects_short_coproduct_term(self):
        # [x12 de, x12 de] has length 2, too long for Delta of x12 de
        H = build(*POINT)
        p = H.table.grading.index(1)
        H.comult[p] = {**H.comult[p], (p, p): 1}
        rep = coradical_certificate(H)
        assert rep["failures"] == [
            ("filtration", "Delta(F_1) leaves the allowed span at (6, 6)")]

    def test_graded_rejects_perturbed_rule(self):
        # x13 x23 -> -2 x23 x12 - x12 x13 changes top parts of products
        rules = default_rules(*POINT).rules
        assert rules[3].lhs == (X13, X23)
        rules[3] = Rule((X13, X23), _full_tail(((X23, X12), -2),
                                               ((X12, X13), -1)))
        H = Hopf72(*POINT, structure_constants(RuleSystem(rules)))
        failures = gr_check(H)["failures"]
        assert len(failures) == 48
        assert {f[0] for f in failures} == {"top-part"}
        assert hashlib.sha256(repr(sorted(failures)).encode()).hexdigest() \
            == GRADED_CONTROL_DIGEST

    def test_structure_rejects_added_row_term(self, extra_row_term):
        rep = lemma31_suite(extra_row_term)
        assert rep["failures"] == [("right-adjoint", 1, "e"),
                                   ("right-adjoint", 1, "(23)")]

    def test_isotypics_reports_every_failure(self, extra_row_term):
        # both failing pairs of the left grading, with their images
        pieces, failures = adjoint_isotypics(extra_row_term, 1)
        assert sum(len(p.members) for p in pieces) == 24
        assert failures == [
            "ad delta_e not diagonal on basis 1: image {1: 1, 0: 1}",
            "ad delta_(23) not diagonal on basis 1: image {0: 1}"]

    def test_antipode_rank_rejects_copied_column(self):
        # S(x12 d(23)) := S(x12 de), a column copied within length 1
        H = build(*POINT)
        i = H.index[((X12,), G["e"])]
        j = H.index[((X12,), G["(23)"])]
        H.antipode[j] = dict(H.antipode[i])
        rep = lemma31_suite(H)
        assert rep["failures"] == [("antipode-rank",)]
        assert rep["antipode_invertible"] is False

    def test_antipode_rank_open_when_length_rises(self):
        # S(delta_e) := delta_e + x12 de raises word length, so S is not
        # block triangular and its diagonal blocks decide nothing
        H = build(*POINT)
        H.antipode[0] = {**H.antipode[0], H.index[((X12,), G["e"])]: 1}
        rep = lemma31_suite(H)
        assert ("antipode-piece", 0) in rep["failures"]
        assert rep["antipode_invertible"] is None


class TestDump:
    def test_deterministic(self, Hnum):
        d1 = dump_tables(Hnum)
        d2 = dump_tables(build(Fraction(2), Fraction(-3)))
        assert d1 == d2
        assert d1.startswith("basis 0:")
        assert "mult " in d1 and "comult " in d1 and "antipode " in d1
