"""The 72-dimensional Hopf algebra: structure maps, axiom certificates,
Hopf-ideal property, filtration lemmas, and the coradical."""

import collections
import copy
import functools
import hashlib
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import hopfs3.classify
from conftest import WrongSign, cli_algebra
from hopfs3.groups import conjugate, parse_perm
from hopfs3.hopf72 import (adjoint_isotypics, axiom_layout, build,
                           build_check, c_identity, coideal_elements,
                           coradical_certificate,
                           dump_tables, gr_check, lemma31_suite,
                           verify_hopf_axioms, verify_hopf_ideal)
from hopfs3.linalg import add_into, vec_add, vec_scale, vec_tensor
from hopfs3.hopf72 import (Algebra, Hopf72, Joined,
                           adjoint_grading_failures)
from hopfs3.rewrite import (S3, X12, X13, X23, Rule, RuleSystem, Tails,
                            _full_tail, check_associativity, default_rules,
                            overlap_ambiguities, resolve_ambiguity, sigma,
                            structure_constants)
from hopfs3.scalars import Kronecker, MultiPoly, ScalarKindError

A1, A2 = MultiPoly.gens("a1", "a2")

G = {s: parse_perm(s, 3) for s in ("e", "(12)", "(13)", "(23)", "(123)",
                                   "(132)")}


POINT = (Fraction(1, 3), Fraction(-1, 2))

# sha256 of repr(sorted(failures)) of the hopf.graded control below
GRADED_CONTROL_DIGEST = (
    "18370fb9a0907d7b8acf5aa76c37cd4b92d5d9fbf7d1073e2267e50a11aa6de2")

WRONG_SIGN_DIGEST = (
    "3b64bdbec3aea27361e90d5915d05ee7a0f1dac945b6836c9b09addfbf4fdac6")

# sha256 of repr(failures) of -a1 a2 in place of -a1 at [2, 20] of
# Delta(e_48)
INHOMOGENEOUS_DELTA_DIGEST = (
    "abf5513bfa31a0fb2ec0a765aa5efb2c32c48bb8147f041e24ebe5b05a7e8906")


def benchmark_points(seed: int) -> dict:
    """The first point of each class in the seeded stream of the
    benchmark's point sweep (perfbench/workloads.py point_inputs):
    generic at each height, a partner, and each degenerate shape."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    stream = workloads.point_inputs(SimpleNamespace(classify=hopfs3.classify),
                                    seed)
    shapes = {(0, 0): "(0,0)", (1, 0): "(a,0)", (0, 1): "(0,a)"}
    out: dict = {}
    for p in stream:
        kind = {"generic": f"generic-{p.height}", "partner": "partner",
                "degenerate": shapes.get((bool(p.a1), bool(p.a2)), "(a,a)")}
        out.setdefault(kind[p.kind], (p.a1, p.a2))
        if len(out) == 8:
            return out


BENCHMARK_POINTS = benchmark_points(2026)


def unjoined_product(alg, x: dict, y: dict) -> dict:
    """x y in A (x) A summed over every pair of terms of x and y, each
    product e_p e_r (x) e_q e_s read from the table."""
    rows = alg.table.rows
    out: dict = {}
    for ((p, q), c1), ((r, s), c2) in itertools.product(x.items(), y.items()):
        for key, c in vec_tensor(rows[p][r], rows[q][s]).items():
            add_into(out, key, c1 * c2 * c)
    return out


def graded(alg):
    """Every coefficient of the table, Delta and S as (key, c, weight),
    its weight in the word-length grading: |w_i| + |w_k| - |w_l| for e_l
    in e_i e_k, |w_i| - |w_p| - |w_q| for [p, q] in Delta(e_i) and
    |w_i| - |w_l| for e_l in S(e_i)."""
    n = alg.table.grading
    for i, row in enumerate(alg.table.rows):
        for k, e in enumerate(row):
            for l, c in e.items():
                yield ("mult", i, k, l), c, n[i] + n[k] - n[l]
    for i, d in enumerate(alg.comult):
        for (p, q), c in d.items():
            yield ("comult", i, p, q), c, n[i] - n[p] - n[q]
    for i, a in enumerate(alg.antipode):
        for l, c in a.items():
            yield ("antipode", i, l), c, n[i] - n[l]


def naive_comult_mult(alg) -> tuple:
    """The comult_mult failures and witness of a plain loop over every
    basis pair in alg's own scalars, with no packing and no join hoisted
    to the row: Delta(e_i e_k) against tensor_mult(Delta e_i, Delta e_k).
    The witness is decoded by the rules' scale, if they were rescaled."""
    scale, n = alg.table.rules.scale, alg.table.grading
    failures, witness = [], None
    for i in range(alg.dim):
        left = alg.joined(alg.comult[i])
        for k in range(alg.dim):
            lhs = alg.delta(alg.table.mult_basis(i, k))
            rhs = alg.tensor_mult(left, alg.comult[k])
            if lhs == rhs:
                continue
            failures.append(("comult_mult", i, k))
            if witness is None:
                diff = vec_add(lhs, vec_scale(-1, rhs))
                if scale is not None:
                    diff = {(p, q): scale.decode(c, n[i] + n[k] - n[p] - n[q])
                            for (p, q), c in diff.items()}
                witness = f"Delta(e{i} e{k}) - Delta(e{i}) Delta(e{k}) = " \
                    + " + ".join(f"({c})*[{p},{q}]"
                                 for (p, q), c in sorted(diff.items()))
    return failures, witness


@pytest.fixture(scope="module")
def H():
    return Hopf72(build(A1, A2))


@pytest.fixture(scope="module")
def Hnum():
    return Hopf72(build(Fraction(2), Fraction(-3)))


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
        H0 = Hopf72(build(0, 0))
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
        alg = Hopf72(build(*a[point]))
        for i, (w, g) in enumerate(alg.labels):
            expected = {(alg.index[((), t)], alg.index[((), t.inv() * g)]): 1
                        for t in S3}
            for t in reversed(w):
                expected = unjoined_product(alg, alg._gen_comult[t], expected)
            assert alg.comult[i] == expected, (w, g)
        # one product per Delta(x_t v delta_g), v a suffix of a basis word:
        # a fresh memo holds only these, under (v, g), as many as stats
        memo: dict = {}
        for w, g in alg.labels:
            alg.word_comult(w, g, memo)
        assert set(memo) == {(w[k:], g) for (w, g) in alg.labels
                             for k in range(len(w))}
        assert alg.stats == {"tensor_mults": len(memo)} == \
            {"tensor_mults": 11 * 6}

    @pytest.mark.parametrize("reader", ["comult", "delta(de)", "delta(x13)",
                                        "stats", "packed"])
    def test_delta_is_built_by_the_constructor(self, reader, monkeypatch):
        # the 66 products on A (x) A that Delta takes are all taken when
        # Hopf72 is constructed, and no reader of Delta takes one
        calls = []
        real = Hopf72.tensor_mult
        monkeypatch.setattr(Hopf72, "tensor_mult",
                            lambda *args: calls.append(1) or real(*args))
        H = Hopf72(build(*POINT))
        assert len(calls) == 66
        read = {"comult": lambda: H.comult,
                "delta(de)": lambda: H.delta(H.delta_elt(H.e)),
                "delta(x13)": lambda: H.delta(H.x_elt(X13)),
                "stats": lambda: H.stats,
                "packed": lambda: H.packed(None)}
        read[reader]()
        assert len(calls) == 66 and H.stats == {"tensor_mults": 66}

    def test_construction_builds_no_antipode(self, monkeypatch):
        # Hopf72 shares the S of the Algebra it is given: constructing it
        # takes no S(w delta_g)
        A = build(*POINT)
        calls = []
        real = Algebra.word_antipode
        monkeypatch.setattr(Algebra, "word_antipode",
                            lambda *args: calls.append(1) or real(*args))
        H = Hopf72(A)
        assert calls == []
        assert H.antipode is A.antipode and H.table is A.table

    def test_no_structure_map_is_a_property(self):
        # every map of Algebra and Hopf72 is an attribute set by the
        # constructor, not computed on a read
        for cls in (Algebra, Hopf72):
            assert not [name for name, v in vars(cls).items()
                        if isinstance(v, (property,
                                          functools.cached_property))], cls

    def test_wrong_sign_changes_every_word_with_x13(self, wrong_sign_point):
        # the control of conftest negates a term of Delta(x13) as it is
        # built, so its Delta is its word maps' on a fresh memo; it must
        # differ from the unperturbed Delta on every basis word holding x13
        # (at some tail: the negated term is x13 de (x) de) and on no other
        H = Hopf72(build(*POINT))
        H1 = wrong_sign_point
        assert [H1.word_comult(w, g, {}) for (w, g) in H1.labels] == \
            H1.comult
        changed = {w for (w, _g), d, e in zip(H.labels, H1.comult, H.comult)
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_word_maps_match_tables(self, H, n):
        # Delta and S of an arbitrary (also reducible) word, taken along its
        # letters, agree with the tables applied to its normal form
        for w in itertools.product((X12, X13, X23), repeat=n):
            for g in S3:
                x = H.from_smash({(w, g): 1})
                assert H.word_comult(w, g, {}) == H.delta(x), (w, g)
                assert H.word_antipode(w, g) == H.S(x), (w, g)

    def test_from_smash(self, H):
        x = {((X13, X13), G["(23)"]): 1, ((), G["(23)"]): -A1}
        assert H.from_smash(x) == {}


class TestBuildCheck:
    @pytest.mark.parametrize("point", ["symbolic", "(1/3,-1/2)", "cli",
                                       "(0,0)"])
    def test_built_maps_pass(self, point, request):
        alg = {"symbolic": lambda: request.getfixturevalue("H"),
               "(1/3,-1/2)": lambda: Hopf72(build(*POINT)),
               "cli": lambda: Hopf72(cli_algebra(*POINT)),
               "(0,0)": lambda: Hopf72(build(0, 0))}[point]()
        assert build_check(alg) == {"failures": [], "ok": True}

    def test_rejects_a_negated_term_of_delta_e(self, H):
        # one term of Delta(delta_e) negated: Delta(1) is no longer 1 (x) 1,
        # and nothing else of the check moves
        e = H.index[((), G["e"])]
        H1 = copy.copy(H)
        H1.comult = list(H.comult)
        key = next(iter(H.comult[e]))
        H1.comult[e] = {**H.comult[e], key: -H.comult[e][key]}
        assert build_check(H1) == {"failures": [("comult_unit",)],
                                   "ok": False}

    def test_rejects_an_emptied_row(self):
        # delta_e delta_e = delta_e emptied: an empty product has counit
        # 0, but eps(delta_e)^2 = 1, so exactly that pair fails
        H1 = Hopf72(build(*POINT))
        e = H1.index[((), G["e"])]
        H1.table = copy.copy(H1.table)
        H1.table.rows = [list(row) for row in H1.table.rows]
        H1.table.rows[e][e] = {}
        assert build_check(H1)["failures"] == [("counit_mult", e, e)]

    def test_rejects_an_added_row_term(self, extra_row_term):
        # delta_(23) delta_(23) = delta_(23) + delta_e has counit 1, but
        # eps(delta_(23))^2 = 0: exactly that pair fails
        d = extra_row_term.index[((), G["(23)"])]
        assert build_check(Hopf72(extra_row_term))["failures"] == [
            ("counit_mult", d, d)]


class TestAxioms:
    def test_exhaustive_symbolic(self, H):
        rep = verify_hopf_axioms(H)
        assert rep["ok"], rep["failures"][:5]
        assert rep["basis_checked"] == 72
        assert rep["pairs_checked"] == 72 * 72
        assert (rep["delta_terms"], rep["terms_compared"]) == (2310, 29053)
        # N = 3, D = 94, R = 2: 2*94^2*2^2*3^4 < 2^23; every value is
        # homogeneous at its weight, so (a1, a2) is packed at (2^24, 1)
        assert rep["scalars"] == "kronecker B=24 graded"
        assert rep["witness"] is None
        # 12 joined pairs per row, the other 60 settled by an empty row
        assert rep["stats"] == {"pairs_joined": 864, "pairs_by_row": 4320}

    @pytest.mark.parametrize("point", ["symbolic", "(1/3,-1/2)"])
    def test_packing_encodes_each_distinct_value_once(self, point, request,
                                                      monkeypatch):
        # 3353 coefficients: over Q[a1, a2] they hold 28 distinct values
        # in the table and 11 in Delta and S, each encoded once by its
        # map's packing; on the CLI's ints at a point nothing is packed,
        # so nothing is encoded and the table is the algebra's own
        alg = {"symbolic": lambda: request.getfixturevalue("H"),
               "(1/3,-1/2)": lambda: Hopf72(cli_algebra(*POINT))}[point]()
        layout = axiom_layout(alg)
        seen = []
        encode = Kronecker.encode
        monkeypatch.setattr(Kronecker, "encode", lambda self, c: (
            seen.append(c), encode(self, c))[1])
        packed = alg.packed(layout)
        values = [c for _key, c, _n in graded(alg)]
        assert len(values) == 3353
        assert len(seen) == {"symbolic": 28 + 11, "(1/3,-1/2)": 0}[point]
        assert set(seen) == {"symbolic": set(values),
                             "(1/3,-1/2)": set()}[point]
        assert (packed.table is alg.table) == (layout is None)
        for (key, c, n), (key2, v, n2) in zip(graded(alg), graded(packed)):
            assert (key2, n2) == (key, n)
            assert v == (c if layout is None else encode(layout, c))

    def test_packed_copy_owns_its_empty_products(self, H):
        # the empty products, 4320 structurally zero and 158 that
        # vanish, are copied as fresh {}: a write into one reaches no
        # other product of the copy and nothing of the source; every
        # other product is encoded entry by entry
        layout = axiom_layout(H)
        source = H.table
        before = [[dict(e) for e in row] for row in source.rows]
        packed = source.packed(layout)
        products = [(i, k) for i in range(72) for k in range(72)]
        empty = [(i, k) for i, k in products if not source.rows[i][k]]
        assert len(empty) == 4320 + 158
        owned = {id(packed.rows[i][k]) for i, k in empty}
        assert len(owned) == len(empty)
        assert owned.isdisjoint(id(e) for row in source.rows for e in row)
        for i, k in products:
            e = source.rows[i][k]
            assert packed.rows[i][k] == {l: layout.encode(c)
                                         for l, c in e.items()}
        i, k = empty[0]
        packed.rows[i][k][0] = 1
        assert source.rows == before
        assert all(packed.rows[j][m] == {} for j, m in empty[1:])
        del packed.rows[i][k][0]

    @pytest.mark.parametrize("point", ["symbolic", "(1/3,-1/2)"])
    def test_weighted_maps_spell_the_grading(self, point, request):
        # the (key, c, weight) that packing and dump_tables read from the
        # table, Delta and S are those graded() spells out
        alg = {"symbolic": lambda: request.getfixturevalue("H"),
               "(1/3,-1/2)": lambda: Hopf72(cli_algebra(*POINT))}[point]()
        ours = list(itertools.chain(alg.table.weighted(), alg.weighted()))
        assert ours == [(key[1:], c, n) for key, c, n in graded(alg)]
        assert len(ours) == 3353

    def test_packed_coefficients_are_injective(self, H):
        # the graded packing forgets a2, so it is injective weight by
        # weight: at each weight, distinct values encode to distinct ints
        layout = axiom_layout(H)
        assert str(layout) == "kronecker B=24 graded"
        values = list(graded(H))
        assert len(values) == 3353
        by_weight: dict = {}
        for _key, c, weight in values:
            by_weight.setdefault(weight, set()).add(c)
        for weight, cs in by_weight.items():
            assert len(set(map(layout.encode, cs))) == len(cs), weight

    def test_packed_copy_has_no_word_maps(self, H):
        # the copy's tables are encoded, the generators' maps are not, so
        # the copy keeps none and its word maps cannot run
        packed = H.packed(axiom_layout(H))
        assert not hasattr(packed, "_gen_comult")
        assert not hasattr(packed, "_gen_antipode")
        w, g = H.labels[-1]
        with pytest.raises(AttributeError):
            packed.word_comult(w, g, {})
        with pytest.raises(AttributeError):
            packed.word_antipode(w, g)
        assert H.word_comult(w, g, {}) == H.comult[-1]

    def test_inhomogeneous_delta_term_runs_unpacked(self):
        # -a1 a2 in place of a -a1 of Delta(e_48) agrees with it at
        # a2 = 1, where the graded packing evaluates; the value is not
        # homogeneous at its weight, so nothing is packed and the sweep
        # runs exactly on the polynomials themselves: 46 failures (this
        # digest), the first pair's witness read off unpacked
        H1 = Hopf72(build(A1, A2))
        pq = (2, 20)
        assert H1.comult[48][pq] == -A1
        H1.comult[48][pq] = -A1 * A2
        assert (-A1 * A2).evaluate((5, 1)) == (-A1).evaluate((5, 1))
        assert axiom_layout(H1) is None
        rep = verify_hopf_axioms(H1)
        assert rep["scalars"] == "polynomial"
        assert len(rep["failures"]) == 46
        assert hashlib.sha256(repr(rep["failures"]).encode()).hexdigest() \
            == INHOMOGENEOUS_DELTA_DIGEST
        assert rep["witness"] == \
            "Delta(e10 e42) - Delta(e10) Delta(e42) = (-a1*a2 + a1)*[2,20]"

    def test_numeric_point(self):
        # the CLI's algebra at (2, -3): rules rescaled by D = 1, on ints,
        # which the sweep runs on as they are
        H1 = Hopf72(cli_algebra(2, -3))
        rep = verify_hopf_axioms(H1)
        assert rep["ok"], rep["failures"][:5]
        assert rep["scalars"] == "rescaled D=1"
        assert axiom_layout(H1) is None

    @pytest.mark.parametrize("a", [(0, 0), POINT])
    def test_rescaled_rules_fit_no_packing(self, a, monkeypatch):
        # on rescaled rules every value is a number, so neither sweep
        # fits a packing; both reports still name the rules' scale
        H = Hopf72(cli_algebra(*a))
        calls = []
        monkeypatch.setattr(Kronecker, "fit", lambda *args: calls.append(1))
        scale = str(H.table.rules.scale)
        assert axiom_layout(H) is None
        assert check_associativity(H.table)["scalars"] == scale
        assert verify_hopf_axioms(H)["scalars"] == scale
        assert calls == [] and scale.startswith("rescaled D=")

    def test_rescaled_point(self):
        # at (1/3, -1/2) the CLI's rules are rescaled by D = 6 and the
        # sweep runs in the basis D^|w| e_(w,g); it must pass with the
        # counts of the symbolic sweep
        rep = verify_hopf_axioms(Hopf72(cli_algebra(*POINT)))
        assert rep["ok"], rep["failures"][:5]
        assert rep["scalars"] == "rescaled D=6"
        assert (rep["delta_terms"], rep["terms_compared"]) == (2310, 29053)
        assert rep["witness"] is None
        assert rep["stats"] == {"pairs_joined": 864, "pairs_by_row": 4320}

    def test_degenerate_point(self):
        rep = verify_hopf_axioms(Hopf72(build(0, 0)))
        assert rep["ok"], rep["failures"][:5]
        assert (rep["delta_terms"], rep["terms_compared"]) == (2148, 14196)
        assert rep["stats"] == {"pairs_joined": 864, "pairs_by_row": 4320}

    def test_wrong_sign_in_comult_fails(self):
        # one term of Delta(x13) negated as the tables are built from it
        rep = verify_hopf_axioms(WrongSign(build(0, 0)))
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
        assert rep["scalars"] == "kronecker B=24 graded"
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
        # a1 - 2^B a2 is graded and zero at (2^B, 1), where the unperturbed
        # inputs would be evaluated; added to the -a1 at [2, 20] of
        # Delta(e_48), fit measures the perturbed inputs and widens B
        H1 = Hopf72(build(A1, A2))
        layout = axiom_layout(H1)
        bump = A1 - 2 ** layout.bits * A2
        with pytest.raises(ScalarKindError):
            layout.encode(bump)
        pq = (2, 20)
        assert H1.comult[48][pq] == -A1
        H1.comult[48][pq] = -A1 + bump
        assert str(axiom_layout(H1)) == "kronecker B=114 graded"
        rep = verify_hopf_axioms(H1)
        assert rep["scalars"] == "kronecker B=114 graded"
        assert not rep["ok"]
        assert len(rep["failures"]) == 46
        assert rep["witness"] is not None

    def test_wrong_sign_at_point(self, wrong_sign_point,
                                 wrong_sign_rescaled):
        # the same control at (1/3, -1/2), on the plain Fraction sweep and
        # on the CLI's algebra rescaled by D = 6: the same failures, and
        # the same witness once decoded to the original coordinates
        for alg, scalars in ((wrong_sign_point, "rational"),
                             (wrong_sign_rescaled, "rescaled D=6")):
            rep = verify_hopf_axioms(alg)
            failures = rep["failures"]
            assert rep["scalars"] == scalars
            assert len(failures) == 219
            assert collections.Counter(f[0] for f in failures) == {
                "comult_mult": 153, "coassoc": 56, "counit": 7,
                "antipode": 3}
            assert failures[:3] == [("coassoc", 7), ("coassoc", 9),
                                    ("coassoc", 12)]
            assert hashlib.sha256(repr(failures).encode()).hexdigest() == \
                WRONG_SIGN_DIGEST
            assert rep["witness"] == (
                "Delta(e7 e54) - Delta(e7) Delta(e54) = (1)*[12,6] + "
                "(2)*[12,60] + (-2)*[24,24] + (-2/3)*[30,0] + "
                "(-2/3)*[36,0] + (-2)*[54,12]")

    def test_non_homogeneous_perturbation_at_point(self):
        # 1/7 [x13 de, x13 d(13)] added to Delta(x13 de) has weight -1, so
        # it is the Fraction 1/42 in the CLI's algebra rescaled by D = 6;
        # that sweep and the plain Fraction one find the same failures
        # and witness
        H0, H1 = Hopf72(build(*POINT)), Hopf72(cli_algebra(*POINT))
        i = H0.index[((X13,), G["e"])]
        q = H0.index[((X13,), G["(13)"])]
        assert (i, q) not in H0.comult[i]
        assert H1.table.rules.scale.encode(Fraction(1, 7), -1) == \
            Fraction(1, 42)
        for alg, added in ((H0, Fraction(1, 7)), (H1, Fraction(1, 42))):
            alg.comult[i] = {**alg.comult[i], (i, q): added}
            rep = verify_hopf_axioms(alg)
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
        # draws from, every coefficient of the table, Delta and S of the
        # CLI's rescaled algebra is an int, and decoding it by the rules'
        # scale gives back all 3353 values of the Fraction algebra
        def rational():
            return st.builds(Fraction,
                             st.integers(-height, height).filter(bool),
                             st.integers(1, height))
        a1, a2 = data.draw(rational()), data.draw(rational())
        # the coefficients factor over a1, a2, a1 - a2 and a1 - 2 a2
        assume(a1 != a2 and a1 != 2 * a2)
        H0, H1 = Hopf72(build(a1, a2)), Hopf72(cli_algebra(a1, a2))
        scale = H1.table.rules.scale
        original, rescaled = list(graded(H0)), list(graded(H1))
        assert len(original) == len(rescaled) == 3353
        for (key, c, weight), (key2, v, weight2) in zip(original, rescaled):
            assert (key2, weight2) == (key, weight)
            assert type(v) is int
            assert scale.decode(v, weight) == c


class TestAxiomsAgainstNaiveLoop:
    """The sweep's comult_mult failures and witness against
    naive_comult_mult, on the unpacked algebra in its own scalars."""

    def assert_matches_naive(self, alg):
        rep = verify_hopf_axioms(alg)
        failures, witness = naive_comult_mult(alg)
        assert [f for f in rep["failures"]
                if f[0] == "comult_mult"] == failures
        assert rep["witness"] == witness
        assert rep["pairs_checked"] == 72 * 72
        return rep

    def test_unperturbed_symbolic(self, H):
        assert self.assert_matches_naive(H)["ok"]

    def test_unperturbed_at_point(self):
        assert self.assert_matches_naive(Hopf72(cli_algebra(*POINT)))["ok"]

    def test_wrong_sign(self, wrong_sign_rescaled):
        rep = self.assert_matches_naive(wrong_sign_rescaled)
        assert rep["witness"].startswith("Delta(e7 e54) - ")

    def test_wrong_sign_symbolic(self, wrong_sign_symbolic):
        self.assert_matches_naive(wrong_sign_symbolic)

    def test_planted_term_in_a_structurally_zero_row(self):
        # delta_e x12 de = 0 (the tail e of delta_e is not the tag (12)
        # of x12 de); planting e_0 in it breaks Delta(e_i e_k) =
        # Delta(e_i) Delta(e_k) at a pair that no join meets, which the
        # row-level branch must report; planted in the CLI's algebra at
        # (1/3, -1/2) as 6 = D^1 (weight |x12| + 0 - 0 - 0 = 1)
        alg = Hopf72(cli_algebra(*POINT))
        i = alg.index[((), G["e"])]
        k = alg.index[((X12,), G["e"])]
        assert k not in alg.table.compatible_followers(i)
        assert not alg.table.rows[i][k]
        alg.table.rows[i][k] = {0: 6}
        rep = self.assert_matches_naive(alg)
        assert ("comult_mult", i, k) in rep["failures"]
        assert rep["witness"] == \
            f"Delta(e{i} e{k}) - Delta(e{i}) Delta(e{k}) = " + " + ".join(
                f"(1)*[{p},{q}]" for (p, q) in sorted(alg.comult[0]))
        assert rep["stats"] == {"pairs_joined": 864, "pairs_by_row": 4320}


def naive_adjoint_failures(H, tags: dict, right: bool = False) -> list:
    """The adjoint gradings by the plain formula: the image of e_i under
    ad delta_h is sum H.mult(H.mult(a, e_i), b) over the legs (a, b) of
    Delta(delta_h), (e_p, S(e_q)), or (S(e_p), e_q) on the right."""
    out = []
    for i, tag in tags.items():
        for h in H.group:
            legs = [(H.S({p: c}), {q: 1}) if right else ({p: c}, H.S({q: 1}))
                    for (p, q), c in H.delta(H.delta_elt(h)).items()]
            img = functools.reduce(vec_add, (H.mult(H.mult(a, {i: 1}), b)
                                             for a, b in legs), {})
            if img != ({i: 1} if h == tag else {}):
                out.append((i, h, img))
    return out


def negated_commutation_row():
    """The algebra at (1/3, -1/2) with d(12) x13 d(123) negated: one
    delta_h x_t product, a control both adjoint gradings must reject."""
    H = build(*POINT)
    i = H.index[((), G["(12)"])]
    k = H.index[((X13,), X13 * G["(12)"])]
    H.table.rows[i][k] = {l: -c for l, c in H.table.rows[i][k].items()}
    return Hopf72(H)


class TestAdjointGradingsAgainstNaive:
    """adjoint_grading_failures, which sums each image from the table's
    rows, against naive_adjoint_failures: left on F_1, right on all 72."""

    def assert_matches_naive(self, alg) -> tuple:
        n = alg.table.grading
        left = {i: sigma(w).inv() for i, (w, _g) in enumerate(alg.labels)
                if n[i] <= 1}
        right = {i: g.inv() * sigma(w) * g
                 for i, (w, g) in enumerate(alg.labels)}
        got = (adjoint_grading_failures(alg, left),
               adjoint_grading_failures(alg, right, right=True))
        assert got == (naive_adjoint_failures(alg, left),
                       naive_adjoint_failures(alg, right, right=True))
        return got

    def test_symbolic(self, H):
        assert self.assert_matches_naive(H) == ([], [])

    def test_at_point(self):
        assert self.assert_matches_naive(Hopf72(build(*POINT))) == ([], [])

    def test_added_row_term(self, extra_row_term):
        left, right = self.assert_matches_naive(Hopf72(extra_row_term))
        assert [f[:2] for f in left] == [(1, G["e"]), (1, G["(23)"])]
        assert [f[:2] for f in right] == [(1, G["e"]), (1, G["(23)"])]

    def test_negated_commutation_row(self):
        # e_15 = x13 d(123), whose image under its own delta_h is -e_15
        left, right = self.assert_matches_naive(negated_commutation_row())
        assert left == [(15, G["(13)"], {15: -1})]
        assert right == [(15, G["(23)"], {15: -1})]


class TestRescaledAlgebra:
    """At a rational point the CLI rescales the rules once and builds
    A_[a] as A_[D^2 a], on ints; the library's algebra on Fraction tables
    is the reference."""

    @pytest.mark.parametrize("kind", sorted(BENCHMARK_POINTS))
    def test_isomorphic_to_the_fraction_algebra(self, kind):
        a1, a2 = BENCHMARK_POINTS[kind]
        H0, H1 = Hopf72(build(a1, a2)), Hopf72(cli_algebra(a1, a2))
        D = H1.table.rules.scale.base
        assert (H1.a1, H1.a2) == (D * D * a1, D * D * a2)
        # every entry of the table, Delta and S is the Fraction entry
        # times D^weight, and an int
        old = {key: (c, n) for key, c, n in graded(H0)}
        new = {key: (c, n) for key, c, n in graded(H1)}
        assert new.keys() == old.keys()
        for key, (c, n) in old.items():
            assert new[key] == (c * D ** n, n), key
            assert type(new[key][0]) is int, key

    def test_sweeps_match_the_fraction_sweeps(self):
        # the sweeps count and find the same on both, and differ only in
        # the scalars they name
        H0, H1 = Hopf72(build(*POINT)), Hopf72(cli_algebra(*POINT))
        for rep0, rep1 in ((check_associativity(H0.table),
                            check_associativity(H1.table)),
                           (verify_hopf_axioms(H0), verify_hopf_axioms(H1))):
            assert (rep0.pop("scalars"), rep1.pop("scalars")) == \
                ("rational", "rescaled D=6")
            assert rep0 == rep1

    def test_points_cover_the_stream(self):
        assert sorted(BENCHMARK_POINTS) == [
            "(0,0)", "(0,a)", "(a,0)", "(a,a)", "generic-large",
            "generic-medium", "generic-small", "partner"]
        assert max(max(abs(a.numerator), a.denominator)
                   for a in BENCHMARK_POINTS["generic-large"]) > 999


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
        rep = verify_hopf_ideal(Hopf72(build(Fraction(1), Fraction(0),
                                             build(1, 2).table)))
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
        rules[3] = Rule((X13, X23), {**rules[3].words, (X23, X12): -2})
        H1 = Hopf72(build(*POINT, structure_constants(RuleSystem(rules))))
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
        H = Hopf72(build(1, 0))
        H.a2 = 2
        assert c_identity(H)["failures"] == [("c1", "value"), ("c2", "value")]

    def test_wrong_comult_rejected(self):
        # one coefficient of Delta(delta_(12)) doubled
        H = Hopf72(build(1, 0))
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
        rep = gr_check(H, structure_constants(default_rules(0, 0)))
        assert rep["ok"], rep["failures"][:5]


class TestControls:
    """Each certificate of the filtration rejects a control at (1/3, -1/2)."""

    def test_coradical_rejects_short_coproduct_term(self):
        # [x12 de, x12 de] has length 2, too long for Delta of x12 de
        H = Hopf72(build(*POINT))
        p = H.table.grading.index(1)
        H.comult[p] = {**H.comult[p], (p, p): 1}
        rep = coradical_certificate(H)
        assert rep["failures"] == [
            ("filtration", "Delta(F_1) leaves the allowed span at (6, 6)")]

    def test_graded_rejects_perturbed_rule(self):
        # x13 x23 -> -2 x23 x12 - x12 x13 changes top parts of products
        rules = default_rules(*POINT).rules
        assert rules[3].lhs == (X13, X23)
        rules[3] = Rule((X13, X23), {**rules[3].words, (X23, X12): -2})
        rules = RuleSystem(rules)
        # 15 of its 23 ambiguities do not resolve, so a product's normal
        # form depends on the order of reduction, and the counts below on
        # the table build's (each product as a letter times the rest)
        ambs = overlap_ambiguities(rules)
        assert sum(resolve_ambiguity(amb, rules)[0] for amb in ambs) == 8
        assert len(ambs) == 23
        H = Hopf72(build(*POINT, structure_constants(rules)))
        table0 = structure_constants(default_rules(0, 0))
        failures = gr_check(H, table0)["failures"]
        assert len(failures) == 54
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

    def test_antipode_rank_rejects_copied_column_on_ints(self):
        # the same control on the CLI's rescaled algebra, whose blocks of
        # S are ints and whose ranks are taken fraction-free
        H = cli_algebra(*POINT)
        assert all(type(c) is int for a in H.antipode for c in a.values())
        assert lemma31_suite(H)["antipode_invertible"] is True
        i = H.index[((X12,), G["e"])]
        j = H.index[((X12,), G["(23)"])]
        H.antipode[j] = dict(H.antipode[i])
        rep = lemma31_suite(H)
        assert rep["failures"] == [("antipode-rank",)]
        assert rep["antipode_invertible"] is False

    def test_antipode_rank_undecided_is_a_failure(self, H):
        # the length-1 block of S over Q[a1, a2] scaled by a1 + 1: no
        # pivot of that block is a constant, so its rank is undecided
        n = H.table.grading
        H1 = copy.copy(H)
        H1.antipode = [{l: c * (A1 + 1) for l, c in a.items()} if n[i] == 1
                       else a for i, a in enumerate(H.antipode)]
        rep = lemma31_suite(H1)
        assert rep["failures"] == [("antipode-rank", "undecided")]
        assert rep["antipode_invertible"] is None

    def test_ideal_rejects_a_delta_e_tail(self):
        # x13 x13 -> ... + d(e): that rule's relation has counit -1
        rules = default_rules(*POINT).rules
        assert rules[0].lhs == (X13, X13)
        rules[0] = Rule((X13, X13),
                        {(): rules[0].words[()] + Tails({G["e"]: 1})})
        H = Hopf72(build(*POINT, structure_constants(RuleSystem(rules))))
        failures = verify_hopf_ideal(H)["failures"]
        assert [f for f in failures if f[1] == "counit"] == [
            ("x13x13", "counit")]

    def test_structure_rejects_a_long_term_in_a_delta_row(self):
        # d(23) d(23) = d(23) + x12 d(23): the planted term has length 1
        # and ad-delta eigenvalue (12), not e
        H = build(*POINT)
        d = H.index[((), G["(23)"])]
        H.table.rows[d][d] = {d: 1, H.index[((X12,), G["(23)"])]: 1}
        assert lemma31_suite(H)["failures"] == [
            ("filtration-product", d, d), ("isotypic-product", d, d),
            ("right-adjoint", d, "e")]

    def test_structure_rejects_a_changed_commutation_row(self):
        # d(12) x13 d(123) (basis 15) doubled: d(12) x13 != x13 d(13 . 12)
        H = build(*POINT)
        i = H.index[((), G["(12)"])]
        k = H.index[((X13,), X13 * G["(12)"])]
        H.table.rows[i][k] = {l: 2 * c for l, c in H.table.rows[i][k].items()}
        assert lemma31_suite(H)["failures"] == [
            ("commutation", "(12)", "(13)"), ("right-adjoint", k, "(23)")]

    def test_coradical_rejects_a_flipped_term_of_delta_on_f0(self):
        # one term of Delta(d(13)) negated: F_0 is not k^{S3} as a coalgebra
        H = Hopf72(build(*POINT))
        g = H.index[((), G["(13)"])]
        pq = next(iter(H.comult[g]))
        H.comult[g] = {**H.comult[g], pq: -H.comult[g][pq]}
        assert coradical_certificate(H)["failures"] == [
            ("F0-decomposition", "trivial", (1, 1)),
            ("F0-decomposition", "sign", (1, 1)),
            ("F0-decomposition", "standard", (1, 1)),
            ("F0-decomposition", "standard", (2, 1)),
            ("F0-decomposition", "standard", (2, 2))]

    def test_coradical_rejects_a_flipped_term_of_delta_e(self, H):
        # over Q[a1, a2], the term [de, de] of Delta(de) negated: exactly
        # the f_ij with a term at de, the diagonal ones, comultiply wrongly
        e = H.index[((), G["e"])]
        H1 = copy.copy(H)
        H1.comult = list(H.comult)
        H1.comult[e] = {**H.comult[e], (e, e): -1}
        assert coradical_certificate(H1)["failures"] == [
            ("F0-decomposition", "trivial", (1, 1)),
            ("F0-decomposition", "sign", (1, 1)),
            ("F0-decomposition", "standard", (1, 1)),
            ("F0-decomposition", "standard", (2, 2))]

    def test_coradical_rejects_a_dropped_irrep(self, monkeypatch):
        # without the sign irrep the coefficients span 5 of 6 dims
        import hopfs3.hopf72
        from hopfs3.groups import builtin_irreps

        H = Hopf72(cli_algebra(*POINT))
        monkeypatch.setattr(hopfs3.hopf72, "builtin_irreps", lambda G: [
            r for r in builtin_irreps(G) if r.name != "sign"])
        assert coradical_certificate(H)["failures"] == [
            ("F0-decomposition", "span")]

    def test_graded_rejects_an_ungraded_reference(self):
        # the reference rules of gr_check with x12x13x12 -> x13x12x13 + x23,
        # whose table is not graded
        rules = default_rules(0, 0).rules
        assert rules[5].lhs == (X12, X13, X12)
        rules[5] = Rule(rules[5].lhs, {**rules[5].words, (X23,): 1})
        ungraded = structure_constants(RuleSystem(rules))
        H = build(*POINT)
        failures = gr_check(H, ungraded)["failures"]
        assert ("graded0", (X12, X13), (X12,), "(23)") in failures
        assert {f[0] for f in failures} == {"graded0"}

    def test_graded_rejects_a_reference_with_reordered_labels(self):
        reference = structure_constants(default_rules(0, 0))
        reference.labels = reference.labels[::-1]
        assert gr_check(build(*POINT), reference)["failures"] == [("labels",)]

    def test_structure_rejects_a_length_two_word_in_f1(self):
        # x12 x13 de graded as length 1 puts its piece (132) into supp F_1
        H = build(*POINT)
        H.table.grading[H.index[((X12, X13), G["e"])]] = 1
        assert ("supp-F1", ["e", "(23)", "(12)", "(132)", "(13)"]) in \
            lemma31_suite(H)["failures"]

    def test_structure_rejects_delta_e_outside_f1(self):
        # de graded as length 2 leaves F_1^e short of k^{S3}
        H = build(*POINT)
        H.table.grading[H.index[((), G["e"])]] = 2
        assert lemma31_suite(H)["failures"] == [("F1e",)]

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
        d2 = dump_tables(Hopf72(build(Fraction(2), Fraction(-3))))
        assert d1 == d2
        assert d1.startswith("basis 0:")
        assert "mult " in d1 and "comult " in d1 and "antipode " in d1
