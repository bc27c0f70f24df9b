"""Noncommutative rewriting over x-words with dual-group tails.

Elements are finite sums of w * delta_g, w a word in letters x_t (t a
transposition of S_n; x12, x13, x23 for the 72-dimensional algebra) and
g in S_n; a RuleSystem reads n, and its group, from its rules' letters.
delta_g x_t = x_t delta_{t g} is built in, so rules act on x-words only.
A Rule, and RuleSystem after it, holds its rhs as {word: coeff}: coeff
is a scalar when the term has one value under every tail, otherwise a
Tails, a function on S_n (the ring k^{S_n}).  One rewrite step, at a
redex u lhs v, moves only Tails coefficients, from h to sigma(v) h; it
serves normal forms, ambiguity resolution and completion.  So one
rewrite of w serves every tail, and the normal form of w delta_g is the
g-slice of the normal form of w; a system with no Tails reduces on
scalars, each its own g-slice.
Redexes are matched by one Aho-Corasick automaton over the left-hand
sides, one lookup per letter; with no lhs inside another, the first
redex to end in a word is its leftmost.

No monomial order is assumed to terminate reduction.  Instead the system
is certified three ways: fuel-bounded termination, resolution of every
overlap ambiguity, and exhaustive associativity of the resulting
multiplication table.  Every rule here maps a word to terms with the
same permutation image sigma(w), which RuleSystem enforces and which
makes the structural zero-filter in the associativity sweep rigorous.
"""

from __future__ import annotations

import copy
import functools
from collections import deque
from fractions import Fraction

from .groups import Perm, identity, parse_perm, symmetric_group, transpositions
from .linalg import add_into, linear, vec_add, vec_scale
from .scalars import Cyclotomic3, Kronecker, MultiPoly, Rescale, encoder

FUEL_DEFAULT = 10 ** 6
TRACE_TAIL = 50
WORD_CAP = 8

X12, X13, X23 = transpositions(3)
GENERATORS = (X12, X13, X23)

S3 = symmetric_group(3)


_cycle_name = functools.cache(str)     # Perm -> its name, once per letter


def word_key(w: tuple):
    """Deglex, letters ordered by cycle name: x12 < x13 < x23 on S3."""
    return (len(w), tuple(map(_cycle_name, w)))


_identity = functools.cache(identity)      # the start of every sigma


def sigma(word: tuple, n: int = 3) -> Perm:
    """sigma(x_{t1}...x_{tn}) = t_n o ... o t_1."""
    g = _identity(word[0].n if word else n)
    for t in word:
        g = t * g
    return g


class NonterminationError(RuntimeError):
    def __init__(self, msg, trace=None):
        super().__init__(msg)
        self.trace = trace or []


class GrowthError(RuntimeError):
    pass


class Tails(dict):
    """A function on S_n as {g: value}, never storing a zero: the
    coefficient of a word, sum_g value(g) w delta_g.  Sum and product are
    pointwise, so Tails form the ring k^{S_n}; a scalar factor is the
    constant function, and an int factor 1 or -1 costs no product."""

    __slots__ = ()

    def __add__(self, other: "Tails") -> "Tails":
        out = Tails(self)
        for g, c in other.items():
            add_into(out, g, c)
        return out

    def __radd__(self, zero) -> "Tails":
        """0 + f, where add_into starts a sum."""
        return self

    def __mul__(self, other) -> "Tails":
        if type(other) is not Tails:
            if type(other) is int and other in (1, -1):
                return self if other == 1 else Tails(
                    {g: -c for g, c in self.items()})
            return Tails({g: c * other for g, c in self.items()})
        if len(other) < len(self):
            self, other = other, self
        return Tails({g: c * other[g] for g, c in self.items() if g in other})


@functools.cache
def _unit(n: int, c: int = 1) -> Tails:
    """The unit of k^{S_n}, 1 at every g; with c = -1 its negation."""
    return Tails.fromkeys(symmetric_group(n), c)


def _scalar(c, order: int):
    """The one value of a Tails that holds it under all order tails, else c."""
    values = list(c.values()) if type(c) is Tails else []
    return values[0] if values and values.count(values[0]) == order else c


def _slice(x: dict, g: Perm) -> dict:
    """The g-slice {(w, g): f(g)} of a word vector {w: f}, f a Tails or a
    scalar, the same value under every tail."""
    return {(w, g): f[g] if type(f) is Tails else f
            for w, f in x.items() if type(f) is not Tails or g in f}


# -- SmashElt helpers (plain dicts {(word, g): coeff}) ----------------------

def format_smash(x: dict) -> str:
    """sum c w delta_g as text, ordered by word_key, then by g."""
    items = sorted(x.items(), key=lambda kv: (word_key(kv[0][0]), kv[0][1]))
    return " + ".join(f"({c})*{_word_name(w) or '1'}.d{g}"
                      for (w, g), c in items) or "0"


def _word_name(w) -> str:
    """x13x23 for the word (X13, X23): each letter named by the points it
    moves."""
    return "".join("x" + "".join(str(i) for i in range(1, t.n + 1)
                                 if t(i) != i) for t in w)


def smash_mult(x: dict, y: dict, rules=None) -> dict:
    """(w dg)(w' dh) = [sigma(w') g == h] (ww') dh, bilinearly; reduced
    to normal form when a rule system is supplied."""
    out: dict = {}
    for (w1, g), c1 in x.items():
        for (w2, h), c2 in y.items():
            if sigma(w2, g.n) * g != h:
                continue
            w = w1 + w2
            coeff = c1 * c2
            if rules is None:
                if len(w) > WORD_CAP:
                    raise GrowthError(f"word length {len(w)} exceeds cap")
                add_into(out, (w, h), coeff)
            else:
                for k, c in rules.reduce_term(w, h).items():
                    add_into(out, k, coeff * c)
    return out


# -- rules ------------------------------------------------------------------

class Rule:
    """lhs -> rhs, held as words {w: coeff}: coeff is a scalar when the
    term has one value under every tail of S_n, otherwise a zero-free
    Tails.  A Tails given with one value under every tail is stored as
    that scalar.  rhs reads them back, expanded over S_n."""
    __slots__ = ("lhs", "words")

    def __init__(self, lhs, words: dict):
        self.lhs = tuple(lhs)
        order = len(_unit(self.lhs[0].n))
        self.words = {w: _scalar(c, order) for w, c in words.items() if c}

    @property
    def rhs(self) -> dict:
        one = _unit(self.lhs[0].n)
        return {(w, h): x for w, c in self.words.items() for h, x in
                (c if type(c) is Tails else dict.fromkeys(one, c)).items()}

    def __repr__(self):
        return f"Rule({_word_name(self.lhs)} -> {format_smash(self.rhs)})"


class RuleSystem:
    def __init__(self, rules, fuel: int = FUEL_DEFAULT):
        self.rules = list(rules)
        self.fuel = fuel
        # the Rescale the coefficients were given in (see rescaled)
        self.scale = None
        self._normal_forms: dict = {}      # word -> {word: coeff}
        self._words: dict = {}             # maxlen -> irreducible words
        # word normal forms asked for, and the fuel their rewrites spent
        self.reductions = 0
        self.rewrite_steps = 0
        lhss = [r.lhs for r in self.rules]
        rule_of = {lhs: i for i, lhs in enumerate(lhss)}
        # a subword of an lhs that is another rule's lhs, or a copy of it
        inside = next(((b[p:q], b) for i, b in enumerate(lhss)
                       for p in range(len(b)) for q in range(p + 1, len(b) + 1)
                       if rule_of.get(b[p:q], i) != i), None)
        if inside:
            raise ValueError("inclusion ambiguity: lhs %s inside lhs %s"
                             % inside)
        # no lhs lies inside another, so the first redex to end is leftmost
        self._redexes = Redexes(lhss)
        # n, read from the letters, and the group S_n as the unit of k^{S_n}
        self.n = lhss[0][0].n
        self.group = _unit(self.n)
        # each rule once as lhs -> {word: coeff}, read by every rewrite
        self.word_rules = {r.lhs: dict(r.words) for r in self.rules}
        # the unit of the coefficients: scalars when no rule holds a Tails
        self.one = self.group if any(
            type(c) is Tails for rhs in self.word_rules.values()
            for c in rhs.values()) else 1
        for r in self.rules:
            s = sigma(r.lhs)
            for w in self.word_rules[r.lhs]:
                if len(w) > len(r.lhs):
                    raise ValueError(f"rhs word longer than lhs in {r!r}")
                if len(w) == len(r.lhs) and find_redex(w, self._redexes):
                    raise ValueError(f"reducible same-length rhs word in {r!r}")
                # the rules then hold in the smash product over k^{S_n},
                # and the table's zero-filter is sound
                if sigma(w, self.n) != s:
                    raise ValueError(f"rhs word changes sigma in {r!r}")

    def relations(self) -> list:
        """The defining relation of each rule, named by its lhs word:
        lhs delta_g summed over every g in S_n, minus the rhs."""
        return [(_word_name(r.lhs), _full_tail((r.lhs, 1), group=self.group)
                 | {k: -c for k, c in r.rhs.items()}) for r in self.rules]

    def normal_form(self, word: tuple) -> dict:
        """Normal form of the word under every tail, as {word: coeff}
        (coeff in the ring of self.one); its g-slice is the normal form
        of word delta_g.  Memoized per system, by word.  One unit of
        fuel is one rewrite of a word, under every tail; a nontermination
        trace names each rewritten word with the least tail of its
        coefficient, a scalar's being the group's."""
        self.reductions += 1
        nf = self._normal_forms.get(word)
        if nf is None:
            try:
                nf, steps = _normal_form({word: self.one}, self.word_rules,
                                         self._redexes, self._normal_forms,
                                         self.fuel, self.one)
            except NonterminationError as exc:
                exc.trace = [(w, min(c if type(c) is Tails else self.group))
                             for w, c in exc.trace]
                raise
            self._normal_forms[word] = nf
            self.rewrite_steps += steps
        return nf

    def reduce_term(self, word, g: Perm) -> dict:
        """Normal form of w dg: the g-slice of normal_form(w)."""
        return _slice(self.normal_form(tuple(word)), g)

    def reduce(self, x: dict) -> dict:
        return linear(lambda wg: self.reduce_term(*wg), x)

    def decode(self, c, weight: int):
        """c, a coefficient at weight (the word length its term lost to
        rewriting), in the unrescaled basis: c when not rescaled."""
        return c if self.scale is None else self.scale.decode(c, weight)


def rescaled(rules: RuleSystem) -> RuleSystem:
    """The rule system, with rational coefficients, in the basis
    e_(w,g) -> D^|w| e_(w,g): each term w of a rule gains D^(|lhs| - |w|),
    D fitted to those (coefficient, weight) pairs (scalars.Rescale), so
    default_rules(a1, a2) becomes default_rules(D^2 a1, D^2 a2), on ints.
    The Rescale is kept as the system's scale, for reports to decode."""
    def weight(rule, w):
        return len(rule.lhs) - len(w)

    def encode(c, n):
        return (Tails({h: scale.encode(x, n) for h, x in c.items()})
                if type(c) is Tails else scale.encode(c, n))

    scale = Rescale.fit(
        (x, weight(r, w)) for r in rules.rules for w, c in r.words.items()
        for x in (c.values() if type(c) is Tails else (c,)))
    out = RuleSystem([Rule(r.lhs, {w: encode(c, weight(r, w))
                                   for w, c in r.words.items()})
                      for r in rules.rules], fuel=rules.fuel)
    out.scale = scale
    return out


class Redexes:
    """The Aho-Corasick automaton of left-hand sides, none inside
    another.  State i is states[i], the longest suffix read that is a
    prefix of some lhs; rows[i][t] is (next state, the lhs ending at t
    or None), filled in by step(i, t) on first use."""

    def __init__(self, lhss):
        self.reset(lhss)

    def reset(self, lhss):
        self.lhss = set(lhss)
        self.states = sorted({lhs[:k] for lhs in self.lhss
                              for k in range(len(lhs) + 1)} | {()}, key=len)
        self._ids = {u: i for i, u in enumerate(self.states)}
        self.rows = [{} for _ in self.states]

    def step(self, i: int, t) -> tuple:
        u = self.states[i] + (t,)
        while u not in self._ids:
            u = u[1:]
        lhs = next((u[k:] for k in range(len(u)) if u[k:] in self.lhss), None)
        return self.rows[i].setdefault(t, (self._ids[u], lhs))


def find_redex(word, redexes: Redexes):
    """(position, lhs) of the leftmost redex of the word, or None: one
    walk of the automaton, up to the first lhs to end."""
    rows, i = redexes.rows, 0
    for end, t in enumerate(word, 1):
        i, lhs = rows[i].get(t) or redexes.step(i, t)
        if lhs:
            return end - len(lhs), lhs
    return None


def rewrite(word, word_rules: dict, redexes: Redexes, redex=None):
    """One rewrite of the word at the redex (position, lhs), by default
    its leftmost one, as {word: coeff}; None without a redex.
    u lhs v becomes the terms u w v of word_rules[lhs]: a scalar stays
    (it holds under every tail), and a Tails moves from h to sigma(v) h,
    as u w delta_h v = u w v delta_{sigma(v) h}."""
    if redex is None:
        redex = find_redex(word, redexes)
        if redex is None:
            return None
    p, lhs = redex
    u, v = word[:p], word[p + len(lhs):]
    out = {}
    for w, c in word_rules[lhs].items():
        if v and type(c) is Tails:
            s = sigma(v)
            c = Tails({s * h: x for h, x in c.items()})
        out[u + w + v] = c
    return out


def _normal_form(x: dict, word_rules: dict, redexes: Redexes, memo: dict,
                 fuel: int, one=1) -> tuple:
    """Normal form of the vector {word: coeff} x under word_rules, and the
    rewrite steps it took; irreducible words are memoized as {word: one}.
    The coefficients lie in a commutative ring with unit one: numbers
    for completion, Tails for RuleSystem.  Each rewrite spends one unit
    of fuel; one more, with none left, raises NonterminationError with
    the last TRACE_TAIL rewritten terms (word, coefficient), last last."""
    acc: dict = {}
    stack = list(x.items())
    trace = deque(maxlen=TRACE_TAIL)
    budget = fuel
    while stack:
        key, coeff = stack.pop()
        hit = memo.get(key)
        if hit is not None:
            for k, c in hit.items():
                if coeff is not one:
                    c = coeff if c is one else coeff * c
                add_into(acc, k, c)
            continue
        out = rewrite(key, word_rules, redexes)
        if out is None:
            add_into(acc, key, coeff)
            memo[key] = {key: one}
            continue
        if fuel <= 0:
            raise NonterminationError(
                f"fuel of {budget} rewrite steps exhausted", list(trace))
        fuel -= 1
        trace.append((key, coeff))
        for k, c in out.items():
            # one * c is c, but a scalar c must still become a Tails
            if coeff is not one or type(c) is not type(one):
                c = coeff * c
            if c:
                stack.append((k, c))
    if type(one) is Tails:
        # (-1)(-1) on a Tails makes a fresh Tails of ones: a unit, or its
        # negation, is returned as the one shared object
        minus = _unit(next(iter(one)).n, -1)
        for k, c in acc.items():
            acc[k] = one if c == one else minus if c == minus else c
    return acc, budget - fuel


def _full_tail(*terms, group=S3) -> dict:
    """sum of c * w delta_g over every g in the group, for the (w, c)
    pairs given, zero coefficients skipped; no caller gives a word twice."""
    return {(tuple(w), g): c for w, c in terms if c for g in group}


def default_rules(a1, a2, fuel: int = FUEL_DEFAULT) -> RuleSystem:
    """The eight oriented rules presenting the 72-dimensional algebra with
    parameters (a1, a2); scalars may be numbers or polynomial generators."""
    g = {s: parse_perm(s, 3) for s in ("e", "(12)", "(13)", "(23)", "(123)", "(132)")}

    def tails(spec: dict) -> Tails:
        return Tails({g[name]: c for name, c in spec.items() if c})

    omega = {"(12)": a2 - a1, "e": a1 - a2, "(13)": a1, "(132)": -a1,
             "(23)": -a2, "(123)": a2}

    rules = [
        Rule((X13, X13), {(): tails({"(12)": a1 - a2, "(123)": a1 - a2,
                                     "(23)": a1, "(132)": a1})}),
        Rule((X23, X23), {(): tails({"(13)": a2, "(123)": a2,
                                     "(12)": a2 - a1, "(132)": a2 - a1})}),
        Rule((X12, X12), {(): tails({"(23)": -a1, "(123)": -a1,
                                     "(13)": -a2, "(132)": -a2})}),
        Rule((X13, X23), {(X23, X12): -1, (X12, X13): -1}),
        Rule((X23, X13), {(X12, X23): -1, (X13, X12): -1}),
        Rule((X12, X13, X12), {(X13, X12, X13): 1, (X23,): a1}),
        Rule((X23, X12, X23), {(X12, X23, X12): 1, (X13,): -a2}),
        Rule((X23, X12, X13), {(X13, X12, X23): 1, (X12,): tails(omega)}),
    ]
    return RuleSystem(rules, fuel=fuel)


# -- enumeration and ambiguities --------------------------------------------

def irreducible_words(rules: RuleSystem, maxlen: int = WORD_CAP) -> list:
    """The words in the letters x_t, t in transpositions(n) (name order),
    that avoid every lhs, in word_key order: each layer extends the last,
    in order, letter by letter.  Raises GrowthError if any reach maxlen.
    Memoized per system and maxlen; each call gets a list of its own."""
    if maxlen in rules._words:
        return list(rules._words[maxlen])
    n = rules.n
    letters = transpositions(n)
    rows, step = rules._redexes.rows, rules._redexes.step
    out = [()]
    layer = [((), 0)]       # (word, its automaton state)
    for _ in range(maxlen):
        nxt = []
        for w, i in layer:
            for t in letters:
                # w is irreducible, so a redex of w + (t,) ends at t
                j, lhs = rows[i].get(t) or step(i, t)
                if lhs is None:
                    nxt.append((w + (t,), j))
        out.extend(w for w, _ in nxt)
        layer = nxt
        if not layer:
            break
    if layer:
        raise GrowthError(
            f"irreducible words still appearing at length {maxlen}; "
            "possibly infinite")
    rules._words[maxlen] = out
    return list(rules._words[maxlen])


def overlap_ambiguities(rules: RuleSystem) -> list:
    """All proper overlaps: (i, j, word) with lhs_i = XY a prefix of word,
    lhs_j = YZ a suffix, X, Y, Z nonempty."""
    return [(i, j, r1.lhs + r2.lhs[k:])
            for i, r1 in enumerate(rules.rules)
            for j, r2 in enumerate(rules.rules)
            for k in _overlaps(r1.lhs, r2.lhs)]


def _overlaps(L1, L2) -> list:
    """The lengths k, 0 < k < len(L1), len(L2), with the last k letters
    of L1 the first k of L2; none unless L2[0] occurs in L1[1:]."""
    if L2[0] not in L1[1:]:
        return []
    return [k for k in range(1, min(len(L1), len(L2)))
            if L1[len(L1) - k:] == L2[:k]]


def resolve_ambiguity(amb, rules: RuleSystem):
    """Rewrite the overlap word both ways (left redex first, right redex
    first), each once under every tail, and compare the reductions of
    the two tail by tail, over the group of the rules; returns
    (resolved, trace), with one entry (g, left - right) per tail g where
    they part, decoded by the rules' scale to the unrescaled basis."""
    i, j, word = amb
    lhs_i, lhs_j = rules.rules[i].lhs, rules.rules[j].lhs
    left, right = (rewrite(word, rules.word_rules, rules._redexes, redex)
                   for redex in ((0, lhs_i), (len(word) - len(lhs_j), lhs_j)))
    trace = []
    for g in rules.group:
        lg = rules.reduce(_slice(left, g))
        rg = rules.reduce(_slice(right, g))
        if lg != rg:
            diff = vec_add(lg, vec_scale(-1, rg))
            trace.append((g, format_smash({
                (w, h): rules.decode(c, len(word) - len(w))
                for (w, h), c in diff.items()})))
    return not trace, trace


# -- the multiplication table -----------------------------------------------

class MultTable:
    """Structure constants of the 72-dimensional algebra over the rule
    system's scalars.  Basis labels are (word, g) pairs ordered deglex
    then by group element.  Each product w1 w2 of basis words is formed
    once, under every tail, as the letter w1[0] times nf(w1[1:] w2), so
    only products of a letter and a basis word are reduced: it is nf(w1
    w2) where every ambiguity resolves (diamond lemma).  It fills the six
    rows (w1, g1) * (w2, sigma(w2) g1) from its slices.  e_p e_r is
    structurally zero unless the tail g_p of p is the tag sigma(w_r)^-1
    g_r of r: tails and tags hold both, as positions in the rules' group."""

    def __init__(self, rules: RuleSystem):
        self.rules = rules
        self.words = irreducible_words(rules)
        self.labels = [(w, g) for w in self.words for g in rules.group]
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.dim = len(self.labels)
        self.grading = [len(w) for (w, _g) in self.labels]
        self.sigmas = {w: sigma(w, rules.n) for w in self.words}
        code = {g: pos for pos, g in enumerate(rules.group)}
        self.tails = [code[g] for (_w, g) in self.labels]
        self.tags = [code[self.sigmas[w].inv() * g]
                     for (w, g) in self.labels]
        # followers[i]: the k with a structurally nonzero e_i e_k, one
        # shared list per tail
        by_tag = [[] for _ in code]
        for k, tag in enumerate(self.tags):
            by_tag[tag].append(k)
        self.followers = [by_tag[tail] for tail in self.tails]
        # rows[i][k] = e_i e_k as {index: coeff}; w1 dg1 * w2 dg2 is zero
        # unless g2 = sigma(w2) g1, and then it is the g2-slice of the
        # normal form of w1 w2, whose words must lie in the basis with
        # sigma(w1 w2); (w, g) is at at[w] + code[g], and after[s] holds
        # (code[s g], s g) for each g, in the group's order
        reductions, steps = rules.reductions, rules.rewrite_steps
        self.rows = [[{} for _ in range(self.dim)] for _ in range(self.dim)]
        at = {w: pos * len(code) for pos, w in enumerate(self.words)}
        after = {s: [(code[s * g], s * g) for g in code]
                 for s in set(self.sigmas.values())}
        one, nfs = rules.one, {}
        for w1 in self.words:
            for w2 in self.words:
                s2 = self.sigmas[w2]
                s12 = s2 * self.sigmas[w1]
                # nf(t w1' w2) = sum c nf(t u) over the terms c u of
                # nf(w1' w2), as functions of the tail of w2; a unit factor
                # (normal forms hold the one unit) takes no product
                nf = {} if w1 else {w2: one}
                for u, c in (nfs[w1[1:], w2] if w1 else {}).items():
                    for w, d in rules.normal_form(w1[:1] + u).items():
                        add_into(nf, w, d if c is one else
                                 c if d is one else c * d)
                nfs[w1, w2] = nf
                for w in nf:
                    if self.sigmas.get(w) != s12:
                        raise ValueError(f"normal form leaves the basis: {w}")
                terms = [(at[w], c) for w, c in nf.items()]
                for p1, (p2, g2) in enumerate(after[s2]):
                    row = self.rows[at[w1] + p1][at[w2] + p2]
                    for base, c in terms:
                        if type(c) is not Tails:
                            row[base + p2] = c
                        elif g2 in c:
                            row[base + p2] = c[g2]
        # what the build spent: word normal forms asked for, rewrites
        self.stats = {"reductions": rules.reductions - reductions,
                      "rewrite_steps": rules.rewrite_steps - steps}

    def packed(self, layout) -> "MultTable":
        """A copy whose rows hold layout-encoded coefficients, each
        distinct one encoded once; the table itself when there is no
        layout (Kronecker.fit found a value it cannot pack)."""
        if layout is None:
            return self
        encode = encoder(layout)
        out = copy.copy(self)
        out.rows = [[{l: encode(c) for l, c in e.items()} if e else {}
                     for e in row] for row in self.rows]
        return out

    def weighted(self):
        """Each structure constant as ((i, k, l), c, weight): c the
        coefficient of e_l in e_i e_k, at weight |w_i| + |w_k| - |w_l|,
        the grade it lowers, as a packing is fitted to it (Kronecker.fit)
        and the rules' scale decodes it."""
        n = self.grading
        return (((i, k, l), c, n[i] + n[k] - n[l])
                for i, row in enumerate(self.rows)
                for k, e in enumerate(row) for l, c in e.items())

    def mult_basis(self, i: int, k: int) -> dict:
        """Product of basis elements i and k as {index: coeff}."""
        return self.rows[i][k]

    def mult(self, x: dict, y: dict) -> dict:
        """Product of {index: coeff} vectors."""
        out: dict = {}
        for i, c1 in x.items():
            for k, c2 in y.items():
                for l, c in self.mult_basis(i, k).items():
                    add_into(out, l, c1 * c2 * c)
        return out


def structure_constants(rules: RuleSystem) -> MultTable:
    return MultTable(rules)


def check_associativity(table: MultTable) -> dict:
    """(xy)z == x(yz) over all basis triples, exact.  Triples whose tails
    make both sides structurally zero are skipped, which is sound because
    every rule preserves sigma.

    Each structurally nonzero pair (i, j) sums one difference on int
    keys k * dim + m, for all followers k of j at once: (e_i e_j) e_k
    from the flattened rows l of e_i e_j, e_i (e_j e_k) from the nonzero
    e_j e_k only.  Failing k are read back in follower order.

    Graded polynomial structure constants are compared Kronecker-packed,
    each constant at its weight (MultTable.weighted), each key summing
    at most R^2 products of two constants a side, R the most terms of a
    product of basis elements; the difference vanishes exactly when the
    packed sides are equal: the bounds are those of each side.  Where
    Kronecker.fit finds a value it cannot pack, or the rules are rescaled
    (ints at a point of the CLI: see rescaled) and nothing is fitted, the
    values are compared as they are, exactly.  The report names its
    scalars by sweep_scalars."""
    rows = table.rows
    layout = None if table.rules.scale else Kronecker.fit(
        ((c, n) for _key, c, n in table.weighted()), factors=2,
        summands=max(len(e) for row in rows for e in row) ** 2)
    table = table.packed(layout)
    dim, rows = table.dim, table.rows
    nonzero = [[(k * dim, tuple(e.items())) for k, e in enumerate(row) if e]
               for row in rows]
    flat = [[(base + m, c) for base, e in row for m, c in e]
            for row in nonzero]
    followers = table.followers
    failures = []
    checked = 0
    for i, row_i in enumerate(rows):
        for j in followers[i]:
            diff: dict = {}
            get = diff.get
            for l, c in row_i[j].items():
                for key, c2 in flat[l]:
                    diff[key] = get(key, 0) + c * c2
            for base, e in nonzero[j]:
                for l, c in e:
                    for m, c2 in row_i[l].items():
                        diff[base + m] = get(base + m, 0) - c * c2
            checked += len(followers[j])
            if any(diff.values()):
                bad = {key // dim for key, c in diff.items() if c}
                failures += [(i, j, k) for k in followers[j] if k in bad]
    return {"checked": checked, "failures": failures, "ok": not failures,
            "scalars": sweep_scalars(layout, table)}


def sweep_scalars(layout, table: MultTable) -> str:
    """The scalars a sweep of the table ran on: its packing, else the
    rules' scale, else Q[a1, a2], Q(w) or Q, as the table's values lie."""
    if layout or table.rules.scale:
        return str(layout or table.rules.scale)
    kinds = {type(c) for row in table.rows for e in row for c in e.values()}
    return ("polynomial" if MultiPoly in kinds else
            "cyclotomic3" if Cyclotomic3 in kinds else "rational")


def hilbert_series(words) -> list:
    """Counts of basis words per length, as a list indexed by degree."""
    out = [0] * (max(map(len, words), default=-1) + 1)
    for w in words:
        out[len(w)] += 1
    return out


# -- completion (numeric coefficients, tail-uniform rules) ------------------

def uniform_rule(lhs, word_rhs: dict) -> Rule:
    """A rule whose rhs has the same word combination under every tail."""
    return Rule(lhs, word_rhs)


def _integral(x: dict) -> dict:
    """The vector with each integral Fraction read as an int."""
    return {w: c.numerator if type(c) is Fraction and c.denominator == 1
            else c for w, c in x.items()}


def complete(rules: RuleSystem, maxdeg: int, fuel: int = FUEL_DEFAULT):
    """Buchberger-style completion for tail-uniform numeric systems:
    insert deglex-oriented normal-form differences of unresolved overlaps,
    smallest overlap first, until the pair queue drains.  Rules whose lhs
    becomes reducible are reduced and re-inserted, never discarded.
    Returns a RuleSystem."""
    import heapq

    if type(rules.one) is Tails:
        raise ValueError("completion needs tail-uniform rules")
    # lhs -> {word: coeff}, integral coefficients as ints
    word_rules = {lhs: _integral(rhs) for lhs, rhs in rules.word_rules.items()}
    homog = all(len(w) == len(lhs)
                for lhs, rhs in word_rules.items() for w in rhs)
    redexes = Redexes(word_rules)
    memo: dict = {}     # irreducible words under the current rules

    def reduce(x: dict) -> dict:
        return _normal_form(x, word_rules, redexes, memo, fuel)[0]

    pairs = []          # heap of (overlap length, tiebreak, L1, L2, k)
    counter = 0

    def push_overlaps(L1, L2):
        nonlocal counter
        for k in _overlaps(L1, L2):
            n = len(L1) + len(L2) - k
            if n > maxdeg:
                if not homog:
                    raise GrowthError("overlap exceeds maxdeg")
                # safe to skip when homogeneous: the difference lives in
                # degree > maxdeg, and the final check below certifies no
                # irreducible words survive there
                continue
            counter += 1
            heapq.heappush(pairs, (n, counter, L1, L2, k))

    def insert(elt: dict):
        """Reduce an element and turn it into a rule if nonzero."""
        elt = reduce(elt)
        if not elt:
            return
        lead = max(elt, key=word_key)
        if len(lead) > maxdeg:
            raise GrowthError("new rule exceeds maxdeg")
        # a lead of 1 or -1 is its own inverse; any other divides exactly
        inv = elt.pop(lead)
        if inv not in (1, -1):
            inv = 1 / Fraction(inv)
        word_rules[lead] = _integral({w: -c * inv for w, c in elt.items()})
        # rules with a now-reducible lhs all leave before any is reduced
        # back in, so that no lhs lies inside another while reducing
        olds = {old: word_rules.pop(old) for old in list(word_rules)
                if old != lead and any(old[i:i + len(lead)] == lead
                                       for i in range(len(old)))}
        redexes.reset(word_rules)
        memo.clear()
        for old, old_rhs in olds.items():
            insert(vec_add({old: 1}, vec_scale(-1, old_rhs)))
        for other in list(word_rules):
            push_overlaps(lead, other)
            if other != lead:
                push_overlaps(other, lead)

    for L1 in list(word_rules):
        for L2 in list(word_rules):
            push_overlaps(L1, L2)
    while pairs:
        _n, _c, L1, L2, k = heapq.heappop(pairs)
        if L1 not in word_rules or L2 not in word_rules:
            continue
        word = L1 + L2[k:]
        left, right = (reduce(rewrite(word, word_rules, redexes, redex))
                       for redex in ((0, L1), (len(L1) - k, L2)))
        insert(vec_add(left, vec_scale(-1, right)))

    # interreduce: later rules may have made earlier right-hand sides
    # reducible
    done = RuleSystem([Rule(lhs, _integral(reduce(rhs)))
                       for lhs, rhs in word_rules.items()], fuel=fuel)
    # skipped overlaps above resolve only if nothing irreducible remains
    # at length maxdeg; irreducible_words raises GrowthError otherwise
    irreducible_words(done, maxlen=maxdeg)
    return done
