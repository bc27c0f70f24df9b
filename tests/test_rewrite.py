"""The rewriting system for the 72-dimensional family: normal forms,
ambiguity resolution, the multiplication table, and completion."""

import copy
import hashlib
import random
import re
from fractions import Fraction

import pytest

from hopfs3.braidedtensor import degree2_primitive_basis
from hopfs3 import rewrite
from hopfs3.groups import parse_perm, transpositions
from hopfs3.rewrite import (GENERATORS, GrowthError, NonterminationError,
                            Redexes, Rule, RuleSystem, S3, Tails, X12, X13,
                            X23, check_associativity, complete, default_rules,
                            find_redex, hilbert_series, irreducible_words,
                            overlap_ambiguities, rescaled,
                            resolve_ambiguity, sigma, smash_mult, structure_constants,
                            sweep_scalars, uniform_rule, word_key)
from hopfs3.linalg import add_into, vec_add
from hopfs3.scalars import Cyclotomic3, Kronecker, MultiPoly, OMEGA, Rescale

A1, A2 = MultiPoly.gens("a1", "a2")

G = {s: parse_perm(s, 3) for s in ("e", "(12)", "(13)", "(23)", "(123)",
                                   "(132)")}

# sha256 of repr(failures) of the 35 broken triples of x13 x13 d(12),
# perturbed at a point or by an inhomogeneous polynomial
PERTURBED_ENTRY_DIGEST = (
    "97197b7fc7b9cea90687c5259be909476643af7fee3196829ee9b7fd1b1d9d56")


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


def broken_coxeter_rules(break_tail: str) -> list:
    """coxeter_rules with x12 x13 x12 -> x23 changed to 2 x23, or
    dropped, under the one tail (13)."""
    rules = coxeter_rules().rules
    x23 = Tails.fromkeys(S3, rules[3].words[X23,])
    if break_tail == "changed":
        x23[G["(13)"]] = 2
    else:
        del x23[G["(13)"]]
    rules[3] = Rule(rules[3].lhs, {(X23,): x23})
    return rules


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
        rules[3] = Rule(rules[3].lhs,
                        {**rules[3].words, (): Tails({G["e"]: 1})})
        with pytest.raises(ValueError, match="changes sigma"):
            RuleSystem(rules)

    def test_rhs_word_longer_than_lhs_rejected(self):
        with pytest.raises(ValueError, match="rhs word longer than lhs"):
            RuleSystem([Rule((X13, X13), {(X12, X12, X12): 1})])

    def test_reducible_same_length_rhs_word_rejected(self):
        # x23 x12 -> x13 x13, with x13 x13 itself the lhs of a rule
        with pytest.raises(ValueError, match="reducible same-length rhs word"):
            RuleSystem([Rule((X13, X13), {(): 1}),
                        Rule((X23, X12), {(X13, X13): 1})])

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
        assert table.stats == {"reductions": 180, "rewrite_steps": 47}

    def test_memo_hits_take_no_unit_products(self, monkeypatch):
        # a memoized normal form reached with the unit coefficient is
        # added as it is: no Tails product against the unit of k^{S3}
        rules = default_rules(Fraction(999, 1000), Fraction(-123, 77))
        one, mul, units = rules.group, Tails.__mul__, []

        def counted(f, h):
            if type(h) is Tails and one in (f, h):
                units.append((f, h))
            return mul(f, h)

        monkeypatch.setattr(Tails, "__mul__", counted)
        table = structure_constants(rules)
        assert table.stats == {"reductions": 180, "rewrite_steps": 47}
        assert units == []

    def test_rescaled_rules(self):
        # at (1/3, -1/2) the weight-2 coefficients have denominator 6, so
        # D = 6 and the rescaled system is default_rules(12, -18), on ints
        rules = default_rules(Fraction(1, 3), Fraction(-1, 2))
        big = rescaled(rules)
        assert str(big.scale) == "rescaled D=6" and rules.scale is None
        assert big.word_rules == default_rules(12, -18).word_rules
        assert all(type(c) is int for r in big.rules for c in r.rhs.values())
        # the perturbed control keeps its perturbation, scaled by D^2
        first, *rest = rules.rules
        square = Tails(first.words[()])
        h = next(iter(square))
        square[h] += 1
        bumped = RuleSystem([Rule(first.lhs, {(): square})] + rest)
        key = ((), h)
        assert rescaled(bumped).rules[0].rhs[key] == \
            big.rules[0].rhs[key] + 36
        # D is the least that clears the weight-2 denominators; an integer
        # point needs no rescale
        for a, base in (((Fraction(1, 6), Fraction(5, 4)), 12),
                        ((0, Fraction(7, 10)), 10), ((2, -3), 1)):
            got = rescaled(default_rules(*a))
            assert got.scale.base == base
            assert got.word_rules == default_rules(
                *(base ** 2 * x for x in a)).word_rules
        # the table of the rescaled rules is all ints: a sweep packs
        # nothing and runs on the table itself, named by the rules' scale
        table = structure_constants(big)
        values = [c for row in table.rows for e in row for c in e.values()]
        assert all(type(c) is int for c in values)
        assert Kronecker.fit(((c, 0) for c in values), 2, 1) is None
        assert table.packed(None) is table
        assert check_associativity(table)["scalars"] == "rescaled D=6"

    def test_inclusion_ambiguity_rejected(self):
        with pytest.raises(ValueError):
            RuleSystem([Rule((X12, X12), {}), Rule((X12, X12, X13), {})])

    @pytest.mark.parametrize("outer", [(X13, X12, X12, X23), (X13, X12, X12),
                                       (X12, X12)],
                             ids=["middle", "end", "twice"])
    def test_inclusion_ambiguity_rejected_anywhere(self, outer):
        # x12^2 inside another lhs, in either rule order; a second rule
        # with the same lhs is an inclusion too
        inner = (X12, X12)
        text = re.escape(f"inclusion ambiguity: lhs {inner} inside lhs {outer}")
        for rules in ([Rule(inner, {}), Rule(outer, {})],
                      [Rule(outer, {}), Rule(inner, {})]):
            with pytest.raises(ValueError, match=text):
                RuleSystem(rules)

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

    @pytest.mark.parametrize("g", ["e", "(12)"])
    def test_fuel_exhaustion_on_scalars(self, g):
        # at (0, 0) no rule holds a Tails, so words reduce on scalars; the
        # trace still names each rewritten word with its least tail, e;
        # the word takes 3 rewrites, so fuel 2 runs out
        rules = default_rules(0, 0, fuel=2)
        assert rules.one == 1
        with pytest.raises(NonterminationError) as exc:
            rules.reduce_term((X12, X13, X12, X23), G[g])
        assert exc.value.trace == [((X12, X13, X12, X23), G["e"]),
                                   ((X13, X12, X13, X23), G["e"])]

    @pytest.mark.parametrize("a, steps", [((1, 2), 20), ((A1, A2), 20),
                                          ((0, 0), 12)],
                             ids=["rational", "symbolic", "scalars"])
    def test_fuel_boundary(self, a, steps):
        # fuel N allows exactly N rewrites, on Tails and on scalars alike:
        # x13x23x23x13 takes 20 rewrites on Tails and 12 at a = 0
        word = (X13, X23, X23, X13)
        rules = default_rules(*a, fuel=steps)
        assert (rules.one == 1) == (a == (0, 0))
        rules.reduce_term(word, G["e"])
        assert rules.rewrite_steps == steps
        with pytest.raises(NonterminationError,
                           match=f"fuel of {steps - 1} rewrite steps"):
            default_rules(*a, fuel=steps - 1).reduce_term(word, G["e"])

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
                assert find_redex(w2, rules._redexes) is None
                assert h == g


def naive_redex(word, rules: RuleSystem):
    """Leftmost (position, rule index) by trying every lhs everywhere."""
    lhss = [r.lhs for r in rules.rules]
    redex = naive_lhs_redex(word, lhss)
    return redex and (redex[0], lhss.index(redex[1]))


def naive_lhs_redex(word, lhss):
    """Leftmost (position, lhs) of the left-hand sides in word, or None."""
    for p in range(len(word)):
        for lhs in lhss:
            if word[p:p + len(lhs)] == lhs:
                return p, lhs
    return None


def _inclusion_free(lhss) -> bool:
    return not any(a != b and naive_lhs_redex(b, [a]) for a in lhss
                   for b in lhss)


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
        lhss = [r.lhs for r in rules.rules]
        rng = random.Random(20261018)
        found = 0
        for _ in range(2000):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
            redex = find_redex(w, rules._redexes)
            assert redex == naive_lhs_redex(w, lhss), w
            found += redex is not None
        assert 0 < found < 2000

    def test_automaton_through_completion_changes(self, s4_done):
        # one automaton, reset through a seeded run of the changes that
        # complete makes to its store, on the S4 left-hand sides: a lead
        # that holds no lhs comes in and every lhs holding it leaves, or
        # an lhs leaves; stale transitions would show against the naive
        # scan
        start = {r.lhs for r in s4_rules().rules}
        pool = sorted(start | {r.lhs for r in s4_done.rules}, key=word_key)
        letters = transpositions(4)
        store, redexes = set(start), Redexes(start)
        rng = random.Random(20261020)
        found = checked = 0
        for _ in range(60):
            if rng.random() < 0.25:
                store.discard(rng.choice(sorted(store, key=word_key)))
            else:
                lead = rng.choice(pool)
                if naive_lhs_redex(lead, store):
                    continue
                store = {l for l in store if not naive_lhs_redex(l, [lead])}
                store.add(lead)
            assert _inclusion_free(store)
            redexes.reset(store)
            for _ in range(100):
                w = tuple(rng.choice(letters)
                          for _ in range(rng.randint(0, 12)))
                redex = find_redex(w, redexes)
                assert redex == naive_lhs_redex(w, store), w
                found += redex is not None
                checked += 1
        assert 0 < found < checked

    def test_completed_s4_system_pinned(self, s4_done):
        text = "\n".join(sorted(map(repr, s4_done.rules)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "592d159f41b640f26029075d2640e18f826385f9619bcc71ae05b29c85929e59")

    def test_s4_irreducible_words_avoid_every_lhs(self, s4_done):
        assert len(s4_done.rules) == 25
        for w in irreducible_words(s4_done, maxlen=13):
            assert naive_redex(w, s4_done) is None

    @pytest.mark.parametrize("system", ["S3", "zero", "S4"])
    def test_irreducible_words_match_redex_filter(self, system, request):
        # the automaton's one step per extension equals filtering each
        # extension by the naive scan from position 0
        rules = {"S3": sym_rules, "zero": lambda: default_rules(0, 0),
                 "S4": lambda: request.getfixturevalue("s4_done")}[system]()
        maxlen = 13 if system == "S4" else 8
        letters = sorted({t for r in rules.rules for t in r.lhs}, key=str)
        words, layer = [()], [()]
        while layer:
            layer = [w + (t,) for w in layer for t in letters
                     if naive_redex(w + (t,), rules) is None]
            words.extend(layer)
        got = irreducible_words(rules, maxlen=maxlen)
        assert got == sorted(words, key=word_key)
        assert len(got) == (576 if system == "S4" else 12)

    def test_irreducible_words_are_memoized_per_maxlen(self, s4_done):
        # one enumeration per system and maxlen, each call a list of its own
        rules = RuleSystem(s4_done.rules)
        words = irreducible_words(rules, maxlen=13)
        words.reverse()
        words.pop()
        again = irreducible_words(rules, maxlen=13)
        assert again is not words and len(again) == 576
        assert again == sorted(again, key=word_key) == \
            irreducible_words(s4_done, maxlen=13)
        # words of length 12 remain, so maxlen 8 still fails
        with pytest.raises(GrowthError):
            irreducible_words(rules, maxlen=8)

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

    @pytest.mark.parametrize("system", ["S3", "S4"])
    def test_overlaps_match_brute_force(self, system, request):
        # every ordered pair of left-hand sides, self-pairs included; the
        # first-letter test rules out no overlap
        rules = {"S3": sym_rules,
                 "S4": lambda: request.getfixturevalue("s4_done")}[system]()
        lhss = [r.lhs for r in rules.rules]
        for L1 in lhss:
            for L2 in lhss:
                assert rewrite._overlaps(L1, L2) == [
                    k for k in range(1, min(len(L1), len(L2)))
                    if L1[-k:] == L2[:k]]

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
                omega = Tails(r.words[X12,])
                omega[G["(13)"]] = -omega[G["(13)"]]
                broken.append(Rule(r.lhs, {**r.words, (X12,): omega}))
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
                # the coefficient of the word, with 1 added at the tail
                w, h = k
                c = r.words[w]
                tails = Tails(c) if type(c) is Tails else Tails.fromkeys(S3, c)
                tails[h] += 1
                if not tails[h]:
                    del tails[h]
                rule = Rule(r.lhs, {**r.words, w: tails})
                bad = RuleSystem(rules[:i] + [rule] + rules[i + 1:])
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
        rules[3] = Rule(r.lhs, {w: -c for w, c in r.words.items()})
        assert _resolved(RuleSystem(rules)) == (96, 108)


class TestScalarPath:
    """A tail-uniform system reduces on scalars; the same rules reduced
    on Tails are the reference."""

    def test_s4_words_agree_with_tails(self, s4_done):
        rules = RuleSystem(s4_done.rules, fuel=s4_done.fuel)
        group = rules.group
        assert rules.one == 1
        memo, steps = {}, 0
        rng = random.Random(20261021)
        letters = transpositions(4)
        for _ in range(1000):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
            # memoized by word, as RuleSystem.normal_form does
            ref, spent = rewrite._normal_form({w: group}, rules.word_rules,
                                              rules._redexes, memo,
                                              rules.fuel, one=group)
            memo[w] = ref
            steps += spent
            assert not any(type(c) is Tails
                           for c in rules.normal_form(w).values())
            for g in group:
                assert rules.reduce_term(w, g) == rewrite._slice(ref, g)
        assert rules.rewrite_steps == steps > 0

    def test_table_at_zero_agrees_with_tails(self):
        scalars, tails = default_rules(0, 0), default_rules(0, 0)
        tails.one = tails.group
        got, ref = structure_constants(scalars), structure_constants(tails)
        assert got.rows == ref.rows and got.stats == ref.stats
        assert scalars.one == 1 and not any(
            type(c) is Tails for nf in scalars._normal_forms.values()
            for c in nf.values())

    def test_constant_tails_is_read_as_a_scalar(self):
        # a Tails with one value under every tail is that scalar, so the
        # system reduces on scalars and its normal forms are those of the
        # scalar rule; a Tails with two values stays a Tails
        given = RuleSystem([Rule((X12, X12), {(): Tails.fromkeys(S3, 1)})])
        scalar = RuleSystem([Rule((X12, X12), {(): 1})])
        assert given.one == 1 and given.word_rules == scalar.word_rules
        words = layer = [()]
        for _ in range(5):
            layer = [w + (t,) for w in layer for t in GENERATORS]
            words = words + layer
        for w in words:
            assert given.normal_form(w) == scalar.normal_form(w)
        assert given.normal_form((X12, X12, X12)) == {(X12,): 1}
        two = Tails({**Tails.fromkeys(S3, 1), G["e"]: 2})
        rules = RuleSystem([Rule((X12, X12), {(): two})])
        assert rules.one is rules.group

    @pytest.mark.parametrize("break_tail", ["changed", "missing"])
    def test_one_broken_tail_stays_on_tails(self, break_tail):
        rules = RuleSystem(broken_coxeter_rules(break_tail))
        assert rules.one is rules.group
        word = (X12, X13, X12)
        nf = rules.normal_form(word)
        assert list(nf) == [(X23,)] and type(nf[X23,]) is Tails
        assert rules.reduce_term(word, G["e"]) == {((X23,), G["e"]): 1}
        assert rules.reduce_term(word, G["(13)"]) == (
            {((X23,), G["(13)"]): 2} if break_tail == "changed" else {})

    def test_uniform_rules_expand_on_demand(self, s4_done):
        # rhs expands a uniform rule's words over S4, and the system rewrites
        # by the words themselves; completion leaves the S4 coefficients
        # as ints
        group = s4_done.group
        for r in s4_done.rules:
            assert r.rhs == rewrite._full_tail(*r.words.items(), group=group)
            assert r.words == s4_done.word_rules[r.lhs]
            assert all(type(c) is int for c in r.words.values())


def _point_tables() -> list:
    """The tables at (1/3, -1/2), with rows that can be perturbed: the
    library's on Fractions, then the CLI's, whose rules are rescaled by
    D = 6 (rewrite.rescaled), on ints."""
    rules = default_rules(Fraction(1, 3), Fraction(-1, 2))
    return [_perturbable(structure_constants(r))
            for r in (rules, rescaled(rules))]


def _perturbable(table):
    table = copy.copy(table)
    table.rows = [[dict(e) for e in row] for row in table.rows]
    return table


def _entries(table):
    """((i, k), e_i e_k) for every product of basis elements."""
    return (((i, k), e) for i, row in enumerate(table.rows)
            for k, e in enumerate(row))


def _x13_x13_d12(table) -> tuple:
    """(i, k, l): e_i e_k = x13 x13 d(12) = (a1 - a2) e_l."""
    return (table.index[((X13,), G["(123)"])],
            table.index[((X13,), G["(12)"])],
            table.index[((), G["(12)"])])


def per_triple_associativity(table) -> tuple:
    """(checked, failures) of the sweep check_associativity ran before it
    fused the triples of a pair (i, j): one difference per triple
    (i, j, k), on the same packing of polynomial constants."""
    most = max(len(e) for row in table.rows for e in row)
    layout = Kronecker.fit(((c, n) for _key, c, n in table.weighted()),
                           factors=2, summands=most * most)
    table = table.packed(layout)
    items = [[tuple(e.items()) for e in row] for row in table.rows]
    followers = table.followers
    failures = []
    checked = 0
    for i, row_i in enumerate(items):
        for j in followers[i]:
            for k in followers[j]:
                diff: dict = {}
                for l, c in row_i[j]:
                    for m, c2 in items[l][k]:
                        diff[m] = diff.get(m, 0) + c * c2
                for l, c in items[j][k]:
                    for m, c2 in row_i[l]:
                        diff[m] = diff.get(m, 0) - c * c2
                checked += 1
                if any(diff.values()):
                    failures.append((i, j, k))
    return checked, failures


def _perturbed_tables():
    """(name, table) for each table the associativity tests perturb, and
    one whose added terms break the structural-zero rule."""
    sym = _perturbable(structure_constants(sym_rules()))
    i, k, l = _x13_x13_d12(sym)
    sym.rows[i][k][l] = A1 - A2 + A1 - 2 ** 8 * A2
    yield "symbolic, at the packing's point", sym
    for n, table in enumerate(_point_tables()):
        i, k, l = _x13_x13_d12(table)
        table.rows[i][k][l] += (table.rules.scale or Rescale(1)).encode(
            Fraction(1, 7), 2)
        yield f"x13 x13 d(12) + 1/7, table {n}", table
    for n, table in enumerate(_point_tables()):
        e = table.index[((), G["e"])]
        table.rows[e][e][table.index[((X13,), G["e"])]] = Fraction(1, 7)
        yield f"de de + x13 de / 7, table {n}", table
    q_omega = _perturbable(structure_constants(
        default_rules(OMEGA, Cyclotomic3(1, 2))))
    i, k, l = _x13_x13_d12(q_omega)
    q_omega.rows[i][k][l] += OMEGA
    yield "Q(w), x13 x13 d(12) + w", q_omega
    # terms at structurally zero products: de de gains d(12), whose tail
    # is not that of de, d(12) de = d(12) and de x12 de = de; the fused
    # difference of (i, j) then holds keys of k that are no followers
    # of j, which must not be read
    table = _point_tables()[1]
    e, d12 = table.index[((), G["e"])], table.index[((), G["(12)"])]
    x12 = table.index[((X12,), G["e"])]
    assert d12 not in table.followers[e]
    assert e not in table.followers[d12]
    assert x12 not in table.followers[e]
    table.rows[e][e][d12] = 1
    table.rows[d12][e] = {d12: 1}
    table.rows[e][x12] = {e: 1}
    yield "structural zeros broken", table


PERTURBED_TABLES = dict(_perturbed_tables())


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

    @pytest.mark.parametrize("a", [
        (A1, A2), (0, 0), (1, 0), (Fraction(1, 3), Fraction(-1, 2)),
        (Fraction(-739182, 104729), Fraction(999331, 611953)),
        (Fraction(482017, 999983), Fraction(-10007, 1000003)),
    ], ids=["symbolic", "(0,0)", "(1,0)", "(1/3,-1/2)", "height-1e6-a",
            "height-1e6-b"])
    def test_rows_equal_products_reduced_whole(self, a):
        # the build takes nf(t w1' w2) from the letter t times nf(w1' w2);
        # the reference reduces each word w1 w2 whole, on rules of its own,
        # and slices it at the tail g2 = sigma(w2) g1 of the pair
        table = structure_constants(default_rules(*a))
        rules = default_rules(*a)
        for i, (w1, g1) in enumerate(table.labels):
            for k, (w2, g2) in enumerate(table.labels):
                ref = {}
                if g2 == sigma(w2) * g1:
                    nf = rules.normal_form(w1 + w2)
                    ref = {table.index[lab]: c
                           for lab, c in rewrite._slice(nf, g2).items()}
                assert table.rows[i][k] == ref, (i, k)

    def test_exhaustive_associativity_symbolic(self):
        table = structure_constants(sym_rules())
        rep = check_associativity(table)
        assert rep["ok"]
        assert rep["checked"] == 72 * 12 * 12
        # N = 3, R = 2: 2*2^2*3^2 = 72 < 2^7; every constant is
        # homogeneous at its weight, so (a1, a2) is packed at (2^8, 1)
        assert rep["scalars"] == "kronecker B=8 graded"

    def test_inhomogeneous_entry_runs_unpacked(self):
        # a1 - a2^2 in place of x13 x13 d(12) = a1 - a2 agrees with it at
        # a2 = 1, where the graded packing evaluates; it is not
        # homogeneous at weight 2, so nothing is packed and the sweep runs
        # on the polynomials themselves; it finds the 35 broken triples
        # of the same entry perturbed at a point (this digest)
        table = _perturbable(structure_constants(sym_rules()))
        i, k, l = _x13_x13_d12(table)
        assert table.rows[i][k] == {l: A1 - A2}
        table.rows[i][k][l] = A1 - A2 ** 2
        assert (A1 - A2 ** 2).evaluate((7, 1)) == (A1 - A2).evaluate((7, 1))
        rep = check_associativity(table)
        assert rep["scalars"] == "polynomial"
        assert rep["checked"] == 72 * 12 * 12
        assert len(rep["failures"]) == 35
        assert hashlib.sha256(repr(rep["failures"]).encode()).hexdigest() \
            == PERTURBED_ENTRY_DIGEST

    def test_associativity_perturbed_at_evaluation_point_fails(self):
        # a1 - 2^B a2, B = 8, is graded and vanishes at (2^B, 1), the point
        # the unperturbed table is packed at; fit measures the perturbed
        # table and widens B, so the packed sweep still sees it
        table = copy.copy(structure_constants(sym_rules()))
        table.rows = [[dict(e) for e in row] for row in table.rows]
        i, k, l = _x13_x13_d12(table)
        assert table.rows[i][k] == {l: A1 - A2}
        table.rows[i][k][l] = A1 - A2 + A1 - 2 ** 8 * A2
        rep = check_associativity(table)
        assert not rep["ok"]
        assert rep["checked"] == 72 * 12 * 12
        assert rep["scalars"] == "kronecker B=21 graded"
        assert len(rep["failures"]) == 35

    def test_associativity_non_integral_perturbation_at_point(self):
        # +1/7 on x13 x13 d(12) = (a1 - a2) d(12) at (1/3, -1/2), a
        # weight-2 entry, so 36/7 in the CLI's table rescaled by D = 6:
        # both sweeps find the same 35 failures (this digest)
        for table, scalars in zip(_point_tables(),
                                  ["rational", "rescaled D=6"]):
            i, k, l = _x13_x13_d12(table)
            scale = table.rules.scale or Rescale(1)
            assert table.rows[i][k] == {l: scale.encode(Fraction(5, 6), 2)}
            table.rows[i][k][l] += scale.encode(Fraction(1, 7), 2)
            rep = check_associativity(table)
            assert rep["scalars"] == scalars
            assert rep["checked"] == 72 * 12 * 12
            assert len(rep["failures"]) == 35
            assert rep["failures"][:3] == [(8, 15, 14), (14, 15, 14),
                                           (15, 7, 26)]
            assert hashlib.sha256(
                repr(rep["failures"]).encode()).hexdigest() == \
                PERTURBED_ENTRY_DIGEST

    def test_associativity_non_homogeneous_perturbation_at_point(self):
        # 1/7 x13 de added to de de = de: weight -1, so the Fraction 1/42
        # in the CLI's table rescaled by D = 6; both sweeps find the same
        # 7 failures (this digest)
        for table, added in zip(_point_tables(),
                                [Fraction(1, 7), Fraction(1, 42)]):
            e = table.index[((), G["e"])]
            x = table.index[((X13,), G["e"])]
            assert table.rows[e][e] == {e: 1}
            assert (table.rules.scale or Rescale(1)).encode(
                Fraction(1, 7), -1) == added
            table.rows[e][e][x] = added
            rep = check_associativity(table)
            assert len(rep["failures"]) == 7
            assert rep["failures"][:3] == [(0, 0, 0), (0, 0, 8), (0, 0, 19)]
            assert hashlib.sha256(
                repr(rep["failures"]).encode()).hexdigest() == (
                "b03a195fd130afa96562884a7841eda5609d8d28768d1946863f111c795bf300")

    @pytest.mark.parametrize("name", list(PERTURBED_TABLES))
    def test_fused_sweep_equals_per_triple_loop(self, name):
        # one difference per pair (i, j), over all followers k of j, finds
        # the same failing triples, in the same order, as one per triple
        table = PERTURBED_TABLES[name]
        checked, failures = per_triple_associativity(table)
        rep = check_associativity(table)
        assert checked == rep["checked"] == 72 * 12 * 12
        assert failures and rep["failures"] == failures

    def test_associativity_over_q_omega(self):
        # no polynomial, so nothing is packed: the sweep runs on the
        # Cyclotomic3 constants as they are, exactly, and sees a term of
        # w added to x13 x13 d(12)
        table = _perturbable(structure_constants(
            default_rules(OMEGA, Cyclotomic3(1, 2))))
        rep = check_associativity(table)
        assert rep["ok"] and rep["scalars"] == "cyclotomic3"
        i, k, l = _x13_x13_d12(table)
        table.rows[i][k][l] += OMEGA
        assert not check_associativity(table)["ok"]

    def test_associativity_at_a_point_is_rational(self):
        rep = check_associativity(structure_constants(default_rules(2, -3)))
        assert rep["ok"] and rep["scalars"] == "rational"

    def test_sweep_scalars(self):
        # the packing, else the rules' scale, else Q[a1, a2], Q(w) or Q
        # as the table's values lie
        table = structure_constants(default_rules(2, -3))
        assert sweep_scalars(None, table) == "rational"
        layout = Kronecker(("a1", "a2"), 8)
        assert sweep_scalars(layout, table) == "kronecker B=8 graded"
        point = structure_constants(rescaled(default_rules(
            Fraction(1, 3), Fraction(-1, 2))))
        assert sweep_scalars(None, point) == "rescaled D=6"
        assert sweep_scalars(layout, point) == "kronecker B=8 graded"
        assert sweep_scalars(None, structure_constants(sym_rules())) == \
            "polynomial"
        q_omega = _perturbable(table)
        q_omega.rows[0][0] = {0: OMEGA}
        assert sweep_scalars(None, q_omega) == "cyclotomic3"

    def test_tails_and_tags(self):
        # e_i e_k is structurally zero unless g_i = sigma(w_k)^-1 g_k
        table = structure_constants(sym_rules())
        group = list(table.rules.group)
        for i, (w, g) in enumerate(table.labels):
            assert group[table.tails[i]] == g
            assert group[table.tags[i]] == sigma(w).inv() * g
            assert table.followers[i] == [
                table.index[(w2, sigma(w2) * g)] for w2 in table.words]
            assert all(not e for k, e in enumerate(table.rows[i])
                       if k not in table.followers[i])

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
            for (i, k), e in _entries(sym):
                for l, c in e.items():
                    ev = c.evaluate(pt) if not isinstance(c, (int, Fraction)) \
                        else Fraction(c)
                    assert num.rows[i][k].get(l, 0) == ev, (i, k, l)
            # and no term of the point table is missing from the symbolic
            for (i, k), e in _entries(num):
                assert e.keys() <= sym.rows[i][k].keys(), (i, k)

    def test_graded_at_zero(self):
        # every entry of e_i e_k has weight |w_i| + |w_k| - |w_l| = 0
        table = structure_constants(default_rules(0, 0))
        n = table.grading
        for (i, k), e in _entries(table):
            assert all(n[i] + n[k] == n[l] for l in e), (i, k)


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

    def test_inhomogeneous_overlap_beyond_maxdeg_raises(self):
        # x_t^2 = 1 overlaps itself in x_t^3, of length 3 > maxdeg; the
        # rules are not homogeneous, so the overlap cannot be skipped
        rules = RuleSystem([uniform_rule((t, t), {(): 1}) for t in GENERATORS])
        with pytest.raises(GrowthError, match="overlap exceeds maxdeg"):
            complete(rules, maxdeg=2)

    def test_homogeneous_overlaps_beyond_maxdeg_are_checked_at_the_end(self):
        # the S4 system is homogeneous, so overlaps longer than 4 are
        # skipped; the final check then finds irreducible words of length 4
        with pytest.raises(GrowthError, match="still appearing at length 4"):
            complete(s4_rules(), maxdeg=4)

    def test_lhss_holding_a_new_lead_leave_together(self, monkeypatch):
        # x23^2 = 1 and x23 x12^2 = 0 give the new rule x12^2 = 0, which
        # lies inside two old left-hand sides; both leave the store before
        # either is reduced back in, so no reduction sees one lhs inside
        # another, and both relations still hold in the completed system
        lhs1, lhs2 = (X23, X12, X12), (X13, X12, X12)
        rules = RuleSystem([
            uniform_rule((X23, X23), {(): 1}), uniform_rule(lhs1, {}),
            uniform_rule(lhs2, {(X12, X13, X23): 1}),
            uniform_rule((X23, X13), {(X12, X23): -1, (X13, X12): -1})])
        stores, normal_form = [], rewrite._normal_form

        def spy(x, word_rules, redexes, *args):
            stores.append(frozenset(redexes.lhss))
            return normal_form(x, word_rules, redexes, *args)

        monkeypatch.setattr(rewrite, "_normal_form", spy)
        done = complete(rules, maxdeg=8)
        assert any(lhs1 in s and lhs2 in s for s in stores)
        assert all(_inclusion_free(s) for s in stores)
        lhss = {r.lhs for r in done.rules}
        assert (X12, X12) in lhss and not {lhs1, lhs2} & lhss
        assert (len(lhss), len(irreducible_words(done))) == (7, 6)
        for _name, rel in rules.relations():
            assert done.reduce(rel) == {}

    @pytest.mark.parametrize("break_tail", ["changed", "missing"])
    def test_rejects_one_broken_tail(self, break_tail):
        with pytest.raises(ValueError,
                           match="completion needs tail-uniform rules"):
            complete(RuleSystem(broken_coxeter_rules(break_tail)), maxdeg=8)

    def test_lead_of_two_divides_exactly(self):
        # x23 x12 = x12 x13 + 2 x13 x23, x23 x13 = 0, the squares 0: the
        # overlap x23 x12 x12 gives x12 x13 x12 + 2 x13 x12 x13 = 0, lead
        # coefficient 2, so x13 x12 x13 -> -1/2 x12 x13 x12, exactly, and
        # every integral coefficient stays an int
        base = [uniform_rule((t, t), {}) for t in GENERATORS] + [
            uniform_rule((X23, X12), {(X12, X13): 1, (X13, X23): 2}),
            uniform_rule((X23, X13), {})]
        done = complete(RuleSystem(base), maxdeg=8)
        half = done.word_rules[X13, X12, X13][X12, X13, X12]
        assert type(half) is Fraction and half == Fraction(-1, 2)
        assert all(type(c) is int or c.denominator > 1
                   for rhs in done.word_rules.values() for c in rhs.values())
        # the relation given at lead 1 yields the same basis
        lead1 = complete(RuleSystem(base + [uniform_rule(
            (X13, X12, X13), {(X12, X13, X12): Fraction(-1, 2)})]), maxdeg=8)
        words = irreducible_words(done)
        assert words == irreducible_words(lead1)
        assert hilbert_series(words) == [1, 3, 4, 3, 1]

    def test_rejects_tail_dependent_rules(self):
        with pytest.raises(ValueError):
            complete(default_rules(1, 0), maxdeg=8)
