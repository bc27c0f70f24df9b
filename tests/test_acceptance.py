"""End-to-end acceptance suite.

Each criterion records a single PASS/FAIL line (echoed in the terminal
summary after the run, see conftest) and enforces its runtime budget.
"""

import random
import time
from fractions import Fraction

import pytest

import conftest
from hopfs3.scalars import MultiPoly

A1, A2 = MultiPoly.gens("a1", "a2")


def _emit(num: int, ok: bool, label: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {label} ({elapsed:.2f}s)"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


class _Timed:
    def __init__(self, num, label, budget):
        self.num = num
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        ok = exc_type is None and elapsed < self.budget
        _emit(self.num, ok, self.label, elapsed)
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.num} exceeded budget: {elapsed:.1f}s "
                f">= {self.budget}s")
        return False


@pytest.fixture(scope="module")
def sym_rules():
    from hopfs3.rewrite import default_rules
    return default_rules(A1, A2)


@pytest.fixture(scope="module")
def sym_table(sym_rules):
    from hopfs3.rewrite import structure_constants
    return structure_constants(sym_rules)


@pytest.fixture(scope="module")
def H(sym_table):
    from hopfs3.hopf72 import Hopf72, build
    return Hopf72(build(A1, A2, sym_table))


def test_criterion_01_nichols_dimension():
    from hopfs3.rewrite import default_rules, hilbert_series, irreducible_words
    with _Timed(1, "Nichols algebra basis at (0,0): 12 words, dim 72", 1.0):
        words = irreducible_words(default_rules(0, 0))
        assert len(words) == 12
        assert hilbert_series(words) == [1, 3, 4, 3, 1]
        assert len(words) * 6 == 72


def test_criterion_02_family_dimension(sym_rules, sym_table):
    from hopfs3.rewrite import (check_associativity, irreducible_words,
                                overlap_ambiguities, resolve_ambiguity)
    with _Timed(2, "dim A = 72 over Q[a1,a2]: ambiguities + associativity",
                600.0):
        ambs = overlap_ambiguities(sym_rules)
        assert len(ambs) == 23
        for amb in ambs:
            ok, trace = resolve_ambiguity(amb, sym_rules)
            assert ok, (amb, trace)
        assert len(irreducible_words(sym_rules)) == 12
        assert sym_table.dim == 72
        rep = check_associativity(sym_table)
        assert rep["ok"] and rep["checked"] == 72 * 144


def test_criterion_03_hopf_axioms(H):
    from hopfs3.hopf72 import verify_hopf_axioms
    with _Timed(3, "Hopf axioms symbolic, exhaustive basis and pairs", 300.0):
        rep = verify_hopf_axioms(H)
        assert rep["ok"], rep["failures"][:5]
        assert rep["basis_checked"] == 72
        assert rep["pairs_checked"] == 72 * 72


def test_criterion_04_hopf_ideal(H):
    from hopfs3.hopf72 import verify_hopf_ideal
    from hopfs3.rewrite import GENERATORS, S3
    with _Timed(4, "Hopf-ideal certificate + six R relations + sum squares",
                10.0):
        rep = verify_hopf_ideal(H)
        assert rep["ok"], rep["failures"]
        # all six ordered overlapping-pair relations x_t x_s + x_s x_u +
        # x_u x_t with u = tst, and the sum of squares, vanish in A
        for t in GENERATORS:
            for s in GENERATORS:
                if t == s:
                    continue
                u = t * s * t
                rel = {}
                for w in ((t, s), (s, u), (u, t)):
                    for g in S3:
                        rel[(w, g)] = rel.get((w, g), 0) + 1
                assert H.from_smash(rel) == {}, (t, s)
        sq = {}
        for t in GENERATORS:
            for g in S3:
                sq[((t, t), g)] = sq.get(((t, t), g), 0) + 1
        assert H.from_smash(sq) == {}


def test_criterion_05_c_identity(H):
    from hopfs3.hopf72 import c_identity
    with _Timed(5, "matrix-coefficient identities for x_ij^2 differences",
                1.0):
        rep = c_identity(H)
        assert rep["ok"], rep["failures"]


def test_criterion_06_coradical(H):
    from hopfs3.hopf72 import coradical_certificate
    with _Timed(6, "coalgebra filtration F_0..F_4 and F_0 = k^{S3} (1+1+4)",
                1.0):
        rep = coradical_certificate(H)
        assert rep["ok"], rep["failures"]


def test_criterion_07_structure_lemmas(H):
    from hopfs3.hopf72 import adjoint_isotypics, lemma31_suite
    with _Timed(7, "degree-filtration lemma suite incl. supp F_1 and F_1^e",
                30.0):
        rep = lemma31_suite(H)
        assert rep["ok"], rep["failures"][:5]
        assert rep["antipode_invertible"] is True
        pieces, failures = adjoint_isotypics(H, 1)
        assert failures == []
        assert sorted(str(p.g) for p in pieces) == \
            ["(12)", "(13)", "(23)", "e"]


def test_criterion_08_skew_primitive_solver(H, monkeypatch):
    import copy

    import hopfs3.coalg
    from hopfs3.coalg import (skew_primitive_closed_form,
                              skew_primitive_defect, skew_primitive_space)
    from hopfs3.groups import parse_perm
    from hopfs3.linalg import span_equal
    with _Timed(8, "skew-primitive pairs in F_0 of A: dim 2, closed form, "
                "controls rejected", 1.0):
        basis = skew_primitive_space(H)
        assert len(basis) == 2
        # each solution, placed on F_0, has zero defect under H's Delta;
        # the spans agree with the closed form at a = (1, 0) and (0, 1)
        group = sorted(H.group)
        for ys in basis:
            assert not any(skew_primitive_defect(
                H, [{H.index[((), g)]: c for g, c in y.items()} for y in ys]))
        flat = lambda ys: [ys[i].get(g, 0) for i in range(2) for g in group]
        closed = [skew_primitive_closed_form(a) for a in ((1, 0), (0, 1))]
        assert span_equal([flat(x) for x in basis],
                          [flat(x) for x in closed])
        # controls: one term of Delta(d(13)) negated leaves dimension 1,
        # e_ji in place of e_ij leaves none
        H1 = copy.copy(H)
        H1.comult = list(H.comult)
        g = H.index[((), parse_perm("(13)", 3))]
        pq = next(iter(H.comult[g]))
        H1.comult[g] = {**H.comult[g], pq: -H.comult[g][pq]}
        assert len(skew_primitive_space(H1)) == 1
        e = hopfs3.coalg.DUAL_E
        monkeypatch.setattr(hopfs3.coalg, "DUAL_E",
                            {(i, j): e[j, i] for i, j in e})
        assert skew_primitive_space(H) == []


def test_criterion_09_yetter_drinfeld():
    from hopfs3.braidedtensor import (degree2_primitive_basis, is_primitive,
                                      quadratic_relations)
    from hopfs3.groups import parse_perm, symmetric_group
    from hopfs3.linalg import span_equal
    from hopfs3.ydmod import braid_relation_failures, simples_list, v3
    with _Timed(9, "8 simples, braid relation, coaction, J_3^2 primitive",
                10.0):
        simples = simples_list(symmetric_group(3))
        assert len(simples) == 8
        assert sum(M.dim ** 2 for _, _, M in simples) == 36
        for _, _, M in simples:
            assert M.axiom_failures() == []
            assert braid_relation_failures(M) == []
        V = v3()
        assert all(V.dual_degree[t] == t for t in V.labels)
        t12 = parse_perm("(12)", 3)
        t13 = parse_perm("(13)", 3)
        t23 = parse_perm("(23)", 3)
        assert V.coaction[t12][(parse_perm("e", 3), t12)] == 1
        assert V.coaction[t12][(t13, t23)] == -1
        rels = quadratic_relations(3)
        assert len(rels) == 5
        c = V.braiding()
        for r in rels:
            assert is_primitive(r, c)
        pairs = [(u, v) for u in V.labels for v in V.labels]
        flat = lambda r: [r.get(p, 0) for p in pairs]
        kernel = degree2_primitive_basis(3)
        rels2 = [{(w[0], w[1]): cf for w, cf in r.items()} for r in rels]
        assert span_equal([flat(r) for r in rels2],
                          [flat(k) for k in kernel])


def test_criterion_10_classification():
    from hopfs3.classify import act, orbit_eq, verify_iso
    from hopfs3.groups import symmetric_group
    with _Timed(10, "orbit action, equivalence properties, verify_iso", 30.0):
        S3 = symmetric_group(3)
        # well-definedness: act is mu (a rho(theta)), rho the standard
        # irrep, and it is a right action
        rng = random.Random(1)
        pts = [(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
               for _ in range(12)]
        gammas = [(Fraction(rng.randint(1, 4)), t) for t in S3]
        for a in pts:
            for g1 in gammas:
                for g2 in gammas:
                    lhs = act(act(a, g1), g2)
                    rhs = act(a, (g1[0] * g2[0], g1[1] * g2[1]))
                    assert lhs == rhs
        # equivalence-relation properties on seeded samples
        for a in pts:
            assert orbit_eq(a, a)
            for b in pts:
                assert orbit_eq(a, b) == orbit_eq(b, a)
                for c in pts:
                    if orbit_eq(a, b) and orbit_eq(b, c):
                        assert orbit_eq(a, c)
        assert orbit_eq((1, 0), (1, 1))
        assert not orbit_eq((1, 0), (1, 2))
        for theta in ("(12)", "(123)"):
            rep = verify_iso(theta)
            assert rep["ok"], rep["failures"]


def test_criterion_11_n4_completion():
    from hopfs3.braidedtensor import degree2_primitive_basis
    from hopfs3.rewrite import (RuleSystem, complete, hilbert_series,
                                irreducible_words, uniform_rule, word_key)
    with _Timed(11, "n=4 completion at a=0: 576 irreducible words", 1800.0):
        # the quadratic relations are ker(1 + c) on V (x) V, computed
        rels = degree2_primitive_basis(4)
        assert len(rels) == 17

        word_rules = {}
        for r in rels:
            lead = max(r, key=word_key)
            inv = Fraction(1) / Fraction(r[lead])
            word_rules[lead] = {w: -c * inv for w, c in r.items()
                                if w != lead}
        rules = RuleSystem([uniform_rule(l, rhs)
                            for l, rhs in word_rules.items()])
        done = complete(rules, maxdeg=13, fuel=10 ** 7)
        assert len(done.rules) == 25
        words = irreducible_words(done, maxlen=13)
        assert len(words) == 576
        profile = hilbert_series(words)
        assert profile == [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1]
