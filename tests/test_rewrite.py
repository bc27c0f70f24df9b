"""The rewriting system for the 72-dimensional family: normal forms,
ambiguity resolution, the multiplication table, and completion."""

import copy
import hashlib
import random
from fractions import Fraction

import pytest

from hopfs3.braidedtensor import degree2_primitive_basis
from hopfs3.groups import parse_perm
from hopfs3.rewrite import (GENERATORS, GrowthError, NonterminationError,
                            Rule, RuleSystem, S3, Tails, X12, X13, X23,
                            check_associativity, complete, default_rules,
                            find_redex, hilbert_series, irreducible_words,
                            overlap_ambiguities, resolve_ambiguity,
                            sigma, smash_mult, structure_constants,
                            uniform_rule, word_key)
from hopfs3.linalg import add_into, vec_add
from hopfs3.scalars import PolyRing, Rescale

R = PolyRing("a1", "a2")
A1, A2 = R.gens()

G = {s: parse_perm(s, 3) for s in ("e", "(12)", "(13)", "(23)", "(123)",
                                   "(132)")}


def sym_rules():
    return default_rules(A1, A2)


def s4_rules() -> RuleSystem:
    """The quadratic relations of the S4 Nichols algebra, ker(1 + c) in
    degree 2, each oriented towards its deglex-largest word."""
    rules = []
    for r in degree2_primitive_basis(4):
        lead = max(r, key=word_key)
        inv = Fraction(1) / Fraction(r[lead])
        rules.append(uniform_rule(lead, {w: -c * inv for w, c in r.items()
                                         if w != lead}))
    return RuleSystem(rules)


def coxeter_rules() -> RuleSystem:
    """kS3 as x_t^2 = 1, x12 x13 x12 = x23 = x13 x12 x13, deglex-oriented."""
    return RuleSystem([uniform_rule((t, t), {(): 1}) for t in GENERATORS] +
                      [uniform_rule((X12, X13, X12), {(X23,): 1}),
                       uniform_rule((X13, X12, X13), {(X23,): 1})])


@pytest.fixture(scope="module")
def s4_done():
    return complete(s4_rules(), maxdeg=13, fuel=10 ** 7)


class TestSigmaAndSmash:
    def test_sigma(self):
        assert sigma(()) == G["e"]
        assert sigma((X12,)) == G["(12)"]
        # sigma(x12 x13) = (13)(12) = (123)
        assert sigma((X12, X13)) == G["(123)"]
        assert sigma((X12, X13, X23)) == G["(13)"]

    def test_sigma_identity_per_size(self):
        # the stored identity of each size survives warm calls of both
        x12 = parse_perm("(12)", 4)
        for _ in range(2):
            assert sigma((X12, X13)) == G["(123)"]
            assert sigma((x12, x12)) == parse_perm("e", 4)
            assert sigma(()) == G["e"] and sigma(()).n == 3
            assert sigma((), 4) == parse_perm("e", 4)
            assert sigma((), 4).n == 4

    def test_delta_delta(self):
        dg = {((), G["(12)"]): 1}
        dh = {((), G["(13)"]): 1}
        assert smash_mult(dg, dg) == dg
        assert smash_mult(dg, dh) == {}

    def test_tail_compatibility(self):
        # (x13 dg)(x23 dh) survives only when h = (23) g
        x = {((X13,), G["e"]): 1}
        y_good = {((X23,), G["(23)"]): 1}
        y_bad = {((X23,), G["e"]): 1}
        assert smash_mult(x, y_good) == {((X13, X23), G["(23)"]): 1}
        assert smash_mult(x, y_bad) == {}

    def test_reduced_square(self):
        # x13^2 collapses onto deltas; the tail picks out one coefficient
        rules = sym_rules()
        sq = smash_mult({((X13,), G["(132)"]): 1},
                        {((X13,), G["(23)"]): 1}, rules)
        assert sq == {((), G["(23)"]): A1}  # tail (23) keeps the a1 term

    def test_squares_sum_to_zero(self):
        # x12^2 + x13^2 + x23^2 = 0 in the algebra, any parameters
        rules = sym_rules()
        total: dict = {}
        for t in GENERATORS:
            x = {((t,), g): 1 for g in S3}
            total = vec_add(total, smash_mult(x, x, rules))
        assert total == {}


class TestRuleSystem:
    def test_default_lhs_set(self):
        lhss = {r.lhs for r in sym_rules().rules}
        assert lhss == {(X13, X13), (X23, X23), (X12, X12),
                        (X13, X23), (X23, X13),
                        (X12, X13, X12), (X23, X12, X23), (X23, X12, X13)}

    def test_sigma_changing_rule_rejected(self):
        # rule 4 with an extra tail 1 delta_e: sigma(()) = e differs from
        # sigma(x13 x23); the system would still give 12 irreducible
        # words and 23 ambiguities, but not a presentation over k^{S3}
        rules = sym_rules().rules
        rules[3] = Rule(rules[3].lhs, {**rules[3].rhs, ((), G["e"]): 1})
        with pytest.raises(ValueError, match="changes sigma"):
            RuleSystem(rules)

    def test_sigma_changed_after_acceptance_fails_table_build(self):
        # the same extra tail, put into the compiled rule 4 after
        # RuleSystem accepted it: the table build refuses the normal
        # form, also under python -O
        rules = sym_rules()
        rules.word_rules[X13, X23][()] = Tails({G["e"]: 1})
        with pytest.raises(ValueError, match="leaves the basis"):
            structure_constants(rules)

    def test_compiled_rules(self):
        # a term is stored as a scalar when it has one value under every
        # tail, else as its Tails (a scalar never equals a dict)
        def tails(spec):
            return Tails({G[h]: c for h, c in spec.items()})

        store = sym_rules().word_rules
        assert store == {
            (X13, X13): {(): tails({"(12)": A1 - A2, "(123)": A1 - A2,
                                    "(23)": A1, "(132)": A1})},
            (X23, X23): {(): tails({"(13)": A2, "(123)": A2,
                                    "(12)": A2 - A1, "(132)": A2 - A1})},
            (X12, X12): {(): tails({"(23)": -A1, "(123)": -A1,
                                    "(13)": -A2, "(132)": -A2})},
            (X13, X23): {(X23, X12): -1, (X12, X13): -1},
            (X23, X13): {(X12, X23): -1, (X13, X12): -1},
            (X12, X13, X12): {(X13, X12, X13): 1, (X23,): A1},
            (X23, X12, X23): {(X12, X23, X12): 1, (X13,): -A2},
            (X23, X12, X13): {(X13, X12, X23): 1, (X12,): tails(
                {"(12)": A2 - A1, "e": A1 - A2, "(13)": A1,
                 "(132)": -A1, "(23)": -A2, "(123)": A2})}}
        # at (0, 0) the squares and the x12 term vanish; all else is scalar
        zero = default_rules(0, 0).word_rules
        assert sum(map(len, zero.values())) == 7
        assert all(type(c) is int for rhs in zero.values()
                   for c in rhs.values())

    @pytest.mark.parametrize("point", ["symbolic", "(1/3,-1/2)"])
    def test_table_build_leaves_compiled_rules_unchanged(self, point):
        # a word's first rewrite pushes the rule's own Tails, unscaled, so
        # normal forms share them: nothing may change one in place
        a = {"symbolic": (A1, A2),
             "(1/3,-1/2)": (Fraction(1, 3), Fraction(-1, 2))}[point]
        rules = default_rules(*a)
        before = copy.deepcopy(rules.word_rules)
        table = structure_constants(rules)
        assert rules.word_rules == before
        shared = {id(c) for rhs in rules.word_rules.values()
                  for c in rhs.values() if type(c) is Tails}
        assert any(id(c) in shared for nf in rules._normal_forms.values()
                   for c in nf.values())
        assert table.stats == {"reductions": 144, "rewrite_steps": 220}

    def test_inclusion_ambiguity_rejected(self):
        with pytest.raises(ValueError):
            RuleSystem([Rule((X12, X12), {}), Rule((X12, X12, X13), {})])

    def test_irreducible_word_reduces_to_itself(self):
        rules = sym_rules()
        for g in S3:
            assert rules.reduce_term((X13, X12), g) == {((X13, X12), g): 1}

    def test_fuel_exhaustion(self):
        rules = default_rules(1, 2, fuel=2)
        with pytest.raises(NonterminationError) as exc:
            rules.reduce_term((X23, X12, X23, X12, X23), G["e"])
        # one term per rewrite step, the one that ran out last
        assert len(exc.value.trace) == 2
        assert exc.value.trace[0] == ((X23, X12, X23, X12, X23), G["e"])

    def test_trace_is_bounded(self):
        rules = default_rules(1, 2, fuel=60)
        with pytest.raises(NonterminationError) as exc:
            rules.reduce_term((X13, X23, X12) * 4, G["e"])
        assert len(exc.value.trace) == 50

    def test_termination_on_random_words(self):
        rules = default_rules(Fraction(1), Fraction(-2))
        rng = random.Random(20260825)
        for _ in range(1000):
            w = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 6)))
            g = rng.choice(S3)
            nf = rules.reduce_term(w, g)
            for (w2, h), _c in nf.items():
                assert rules._find_redex(w2) is None
                assert h == g


def naive_redex(word, rules: RuleSystem):
    """Leftmost (position, rule index) by trying every lhs everywhere."""
    for p in range(len(word)):
        for i, r in enumerate(rules.rules):
            if word[p:p + len(r.lhs)] == r.lhs:
                return p, i
    return None


def naive_normal_form(word, g, rules: RuleSystem) -> dict:
    """w dg reduced term by term under the one tail g, always at the
    leftmost redex: no memo and no tail vectors."""
    out: dict = {}
    stack = [(tuple(word), 1)]
    while stack:
        w, c = stack.pop()
        redex = naive_redex(w, rules)
        if redex is None:
            add_into(out, (w, g), c)
            continue
        p, i = redex
        rule = rules.rules[i]
        u, v = w[:p], w[p + len(rule.lhs):]
        # (u lhs v) dg keeps the rhs terms with tail sigma(v)^-1 g
        target = sigma(v, g.n).inv() * g
        for (wi, hi), ci in rule.rhs.items():
            if hi == target:
                stack.append((u + wi + v, c * ci))
    return out


class TestAgainstNaiveRewriter:
    """Word-keyed normal forms, sliced per tail, against the naive
    per-(word, g) rewriter above."""

    @pytest.mark.parametrize("point", ["symbolic", "(1/3,-1/2)", "(0,0)"])
    def test_reduce_term_on_random_words(self, point):
        a = {"symbolic": (A1, A2), "(1/3,-1/2)": (Fraction(1, 3),
                                                  Fraction(-1, 2)),
             "(0,0)": (0, 0)}[point]
        rules = default_rules(*a)
        rng = random.Random(20261019)
        for _ in range(300):
            w = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 7)))
            for g in S3:
                assert rules.reduce_term(w, g) == naive_normal_form(w, g, rules)

    def test_table_rows(self):
        rules = default_rules(Fraction(1, 3), Fraction(-1, 2))
        table = structure_constants(rules)
        rows = [[{} for _ in table.labels] for _ in table.labels]
        for i, (w1, g1) in enumerate(table.labels):
            for k, (w2, g2) in enumerate(table.labels):
                if sigma(w2) * g1 == g2:
                    rows[i][k] = {table.index[lab]: c for lab, c in
                                  naive_normal_form(w1 + w2, g2, rules).items()}
        assert table.rows == rows


class TestEngine:
    @pytest.mark.parametrize("system", ["S3", "S4"])
    def test_finder_matches_naive_scan(self, system, request):
        rules = (sym_rules() if system == "S3"
                 else request.getfixturevalue("s4_done"))
        letters = sorted({t for r in rules.rules for t in r.lhs}, key=str)
        rng = random.Random(20261018)
        found = 0
        for _ in range(2000):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
            assert rules._find_redex(w) == naive_redex(w, rules), w
            found += rules._find_redex(w) is not None
        assert 0 < found < 2000

    def test_s4_irreducible_words_avoid_every_lhs(self, s4_done):
        assert len(s4_done.rules) == 25
        for w in irreducible_words(s4_done, maxlen=13):
            assert naive_redex(w, s4_done) is None

    @pytest.mark.parametrize("system", ["S3", "zero", "S4"])
    def test_irreducible_words_match_redex_filter(self, system, request):
        # the suffix test equals filtering each extension by find_redex
        # from position 0
        rules = {"S3": sym_rules, "zero": lambda: default_rules(0, 0),
                 "S4": lambda: request.getfixturevalue("s4_done")}[system]()
        maxlen = 13 if system == "S4" else 8
        letters = sorted({t for r in rules.rules for t in r.lhs}, key=str)
        words, layer = [()], [()]
        while layer:
            layer = [w + (t,) for w in layer for t in letters
                     if find_redex(w + (t,), rules._by_len) is None]
            words.extend(layer)
        got = irreducible_words(rules, maxlen=maxlen)
        assert got == sorted(words, key=word_key)
        assert len(got) == (576 if system == "S4" else 12)

    def test_completion_fuel_exhaustion(self):
        with pytest.raises(NonterminationError) as exc:
            complete(s4_rules(), maxdeg=13, fuel=5)
        assert 0 < len(exc.value.trace) <= 50


class TestBasis:
    def test_twelve_words(self):
        words = irreducible_words(sym_rules())
        assert len(words) == 12
        assert hilbert_series(words) == [1, 3, 4, 3, 1]

    def test_top_word(self):
        words = irreducible_words(sym_rules())
        assert max(words, key=len) == (X13, X12, X23, X12)

    def test_letters_absent_from_every_lhs_are_free(self):
        # k<x12, x13, x23>/(x12^2) is infinite: x13 and x23 are free
        with pytest.raises(GrowthError):
            irreducible_words(RuleSystem([uniform_rule((X12, X12), {})]))

    def test_against_naive_enumeration(self):
        # independent oracle: brute-force subword avoidance on strings
        rules = sym_rules()
        lhss = [r.lhs for r in rules.rules]
        key = {X12: "a", X13: "b", X23: "c"}
        bad = ["".join(key[t] for t in l) for l in lhss]
        letters = "abc"
        words = [""]
        layer = [""]
        for _ in range(8):
            layer = [w + a for w in layer for a in letters
                     if not any(b in w + a for b in bad)]
            words.extend(layer)
        got = {"".join(key[t] for t in w)
               for w in irreducible_words(rules)}
        assert got == set(words)


class TestAmbiguities:
    def test_count(self):
        assert len(overlap_ambiguities(sym_rules())) == 23

    def test_known_overlaps_present(self):
        words = {w for _, _, w in overlap_ambiguities(sym_rules())}
        assert (X13, X13, X13) in words
        assert (X23, X12, X13, X13) in words
        assert (X12, X12, X13, X12) in words

    def test_all_resolve_symbolically(self):
        rules = sym_rules()
        for amb in overlap_ambiguities(rules):
            ok, trace = resolve_ambiguity(amb, rules)
            assert ok, trace

    def test_corrupted_rule_fails_to_resolve(self):
        # flip one sign in the omega coefficient table; the diamond
        # property must break somewhere
        rules = sym_rules()
        broken = []
        for r in rules.rules:
            if r.lhs == (X23, X12, X13):
                rhs = dict(r.rhs)
                k = ((X12,), G["(13)"])
                rhs[k] = -rhs[k]
                broken.append(Rule(r.lhs, rhs))
            else:
                broken.append(r)
        bad = RuleSystem(broken)
        results = [resolve_ambiguity(a, bad)[0]
                   for a in overlap_ambiguities(bad)]
        assert not all(results)

    def test_every_perturbed_coefficient_fails_to_resolve(self):
        # adding 1 to any one of the 72 rhs coefficients at (1/3, -1/2)
        # must leave some ambiguity unresolved
        rules = default_rules(Fraction(1, 3), Fraction(-1, 2)).rules
        assert sum(len(r.rhs) for r in rules) == 72
        missed = []
        for i, r in enumerate(rules):
            for k in r.rhs:
                rhs = dict(r.rhs)
                rhs[k] += 1
                bad = RuleSystem(rules[:i] + [Rule(r.lhs, rhs)] + rules[i + 1:])
                ambs = overlap_ambiguities(bad)
                assert len(ambs) == 23
                if all(resolve_ambiguity(a, bad)[0] for a in ambs):
                    missed.append((r, k))
        assert missed == []


def _resolved(rules: RuleSystem) -> tuple:
    """(overlaps that resolve, overlaps) of a rule system."""
    ambs = overlap_ambiguities(rules)
    return sum(resolve_ambiguity(a, rules)[0] for a in ambs), len(ambs)


class TestS4Ambiguities:
    """The diamond check over S4: tails run over the group of the rules,
    so an S4 system is compared under all 24 tails, not under none."""

    def test_completed_system_resolves(self, s4_done):
        assert _resolved(s4_done) == (108, 108)

    def test_uncompleted_system_fails(self):
        rules = s4_rules()
        results = [resolve_ambiguity(a, rules)
                   for a in overlap_ambiguities(rules)]
        assert (len(rules.rules), len(results)) == (17, 34)
        assert sum(ok for ok, _trace in results) == 26
        # each failure names the S4 tails where the two sides part
        assert all(g.n == 4 for _ok, trace in results for g, _diff in trace)

    def test_negated_rule_fails(self, s4_done):
        rules = list(s4_done.rules)
        r = rules[3]
        assert r.lhs == (parse_perm("(23)", 4), parse_perm("(12)", 4))
        rules[3] = Rule(r.lhs, {k: -c for k, c in r.rhs.items()})
        assert _resolved(RuleSystem(rules)) == (96, 108)


def _point_table():
    """The table at (1/3, -1/2), with rows that can be perturbed."""
    table = copy.copy(structure_constants(default_rules(Fraction(1, 3),
                                                        Fraction(-1, 2))))
    table.rows = [[dict(e) for e in row] for row in table.rows]
    return table


def _x13_x13_d12(table) -> tuple:
    """(i, k, l): e_i e_k = x13 x13 d(12) = (a1 - a2) e_l."""
    return (table.index[((X13,), G["(123)"])],
            table.index[((X13,), G["(12)"])],
            table.index[((), G["(12)"])])


class TestMultTable:
    def test_dimension(self):
        table = structure_constants(sym_rules())
        assert table.dim == 72

    def test_unit(self):
        table = structure_constants(sym_rules())
        one = {table.index[((), g)]: 1 for g in S3}
        for i in range(table.dim):
            assert table.mult(one, {i: 1}) == {i: 1}
            assert table.mult({i: 1}, one) == {i: 1}

    def test_rows_are_normal_forms(self):
        rules = sym_rules()
        table = structure_constants(rules)
        for i, (w1, g1) in enumerate(table.labels):
            for k, (w2, g2) in enumerate(table.labels):
                nf = smash_mult({(w1, g1): 1}, {(w2, g2): 1}, rules)
                row = table.rows[i][k]
                assert row == {table.index[lab]: c for lab, c in nf.items()}
                assert all(row.values())
                assert table.mult_basis(i, k) is row

    def test_exhaustive_associativity_symbolic(self):
        table = structure_constants(sym_rules())
        rep = check_associativity(table)
        assert rep["ok"]
        assert rep["checked"] == 72 * 12 * 12
        # d = 3, N = 3, R = 2: K = 2*3 + 1, 2*2^2*3^2 = 72 < 2^7
        assert rep["scalars"] == "kronecker B=8 K=7"

    def test_associativity_perturbed_at_evaluation_point_fails(self):
        # a1 - 2^B vanishes at a1 = 2^B, the point the unperturbed table
        # is packed at; the packed sweep must still see it
        table = copy.copy(structure_constants(sym_rules()))
        table.rows = [[dict(e) for e in row] for row in table.rows]
        i, k, l = _x13_x13_d12(table)
        assert table.rows[i][k] == {l: A1 - A2}
        table.rows[i][k][l] = A1 - A2 + A1 - 2 ** 8
        rep = check_associativity(table)
        assert not rep["ok"]
        assert rep["checked"] == 72 * 12 * 12
        assert rep["scalars"] != "kronecker B=8 K=7"

    def test_associativity_non_integral_perturbation_at_point(self):
        # +1/7 on x13 x13 d(12) = (a1 - a2) d(12) at (1/3, -1/2): the
        # weight-2 denominators grow to 42, so D = 42, and the sweep finds
        # the failures of the unrescaled Fraction sweep (35, this digest)
        table = _point_table()
        i, k, l = _x13_x13_d12(table)
        assert table.rows[i][k] == {l: Fraction(5, 6)}
        table.rows[i][k][l] += Fraction(1, 7)
        rep = check_associativity(table)
        assert rep["scalars"] == "rescaled D=42"
        assert rep["checked"] == 72 * 12 * 12
        assert len(rep["failures"]) == 35
        assert rep["failures"][:3] == [(8, 15, 14), (14, 15, 14), (15, 7, 26)]
        assert hashlib.sha256(repr(rep["failures"]).encode()).hexdigest() == (
            "97197b7fc7b9cea90687c5259be909476643af7fee3196829ee9b7fd1b1d9d56")

    def test_associativity_non_homogeneous_perturbation_at_point(self):
        # 1/7 x13 de added to de de = de: weight -1, so it stays the
        # Fraction 1/42 after rescaling, and the sweep still finds the
        # failures of the unrescaled Fraction sweep (7, this digest)
        table = _point_table()
        e = table.index[((), G["e"])]
        x = table.index[((X13,), G["e"])]
        assert table.rows[e][e] == {e: 1}
        table.rows[e][e][x] = Fraction(1, 7)
        assert table.packed(Rescale(6)).rows[e][e] == {e: 1,
                                                       x: Fraction(1, 42)}
        rep = check_associativity(table)
        assert rep["scalars"] == "rescaled D=6"
        assert len(rep["failures"]) == 7
        assert rep["failures"][:3] == [(0, 0, 0), (0, 0, 8), (0, 0, 19)]
        assert hashlib.sha256(repr(rep["failures"]).encode()).hexdigest() == (
            "b03a195fd130afa96562884a7841eda5609d8d28768d1946863f111c795bf300")

    def test_associativity_at_a_point_is_rational(self):
        rep = check_associativity(structure_constants(default_rules(2, -3)))
        assert rep["ok"] and rep["scalars"] == "rescaled D=1"

    def test_specialization_commutes(self):
        # evaluating the symbolic table at a point equals building the
        # table at that point
        sym = structure_constants(sym_rules())
        rng = random.Random(42)
        for _ in range(5):
            pt = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            num = structure_constants(default_rules(*pt))
            assert num.labels == sym.labels
            for i, k, l, c, _weight in sym.graded():
                ev = c.evaluate(pt) if not isinstance(c, (int, Fraction)) \
                    else Fraction(c)
                assert num.rows[i][k].get(l, 0) == ev, (i, k, l)
            # and no term of the point table is missing from the symbolic
            for i, k, l, _c, _weight in num.graded():
                assert l in sym.rows[i][k], (i, k, l)

    def test_graded_at_zero(self):
        table = structure_constants(default_rules(0, 0))
        for *_ikl, _c, weight in table.graded():
            assert weight == 0


class TestCompletion:
    def test_already_complete_at_zero(self):
        rules = default_rules(0, 0)
        done = complete(rules, maxdeg=8)
        assert {r.lhs for r in done.rules} == {r.lhs for r in rules.rules}
        assert len(irreducible_words(done)) == 12

    def test_single_square(self):
        # x13 and x23 stay free, so no completion is finite
        rules = RuleSystem([uniform_rule((X12, X12), {})])
        with pytest.raises(GrowthError):
            complete(rules, maxdeg=8)

    def test_coxeter_presentation_of_kS3(self):
        # x_t^2 = 1, x12 x13 x12 = x23 = x13 x12 x13: the group algebra
        rules = coxeter_rules()
        done = complete(rules, maxdeg=8)
        assert len(done.rules) == 7
        assert len(irreducible_words(done)) == 6
        # both cubic left-hand sides become reducible during completion;
        # their relations are reduced and re-inserted, so they still hold
        lhss = {r.lhs for r in done.rules}
        assert (X12, X13, X12) not in lhss and (X13, X12, X13) not in lhss
        for _name, rel in rules.relations():
            assert done.reduce(rel) == {}

    @pytest.mark.parametrize("break_tail", ["changed", "missing"])
    def test_rejects_one_broken_tail(self, break_tail):
        rules = coxeter_rules().rules
        rhs = dict(rules[3].rhs)
        key = ((X23,), G["(13)"])
        if break_tail == "changed":
            rhs[key] = 2
        else:
            del rhs[key]
        rules[3] = Rule(rules[3].lhs, rhs)
        with pytest.raises(ValueError,
                           match="completion needs tail-uniform rules"):
            complete(RuleSystem(rules), maxdeg=8)

    def test_rejects_tail_dependent_rules(self):
        with pytest.raises(ValueError):
            complete(default_rules(1, 0), maxdeg=8)
