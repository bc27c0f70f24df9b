"""Noncommutative rewriting over x-words with dual-group tails.

Elements are finite sums of w * delta_g, w a word in letters x_t (t a
transposition of S_n; x12, x13, x23 for the 72-dimensional algebra) and
g in S_n; a RuleSystem reads n, and its group, from its rules' letters.
delta_g x_t = x_t delta_{t g} is built in, so rules act on x-words only.
RuleSystem compiles each rule once into {lhs: {word: coeff}}: coeff is
a scalar when the term has one value under every tail, otherwise a
Tails, a function on S_n (the ring k^{S_n}).  One rewrite step, at a
redex u lhs v, moves only Tails coefficients, from h to sigma(v) h; it
serves normal forms, ambiguity resolution and completion (scalar-only,
tail-uniform systems).  So one rewrite of w serves every tail, and the
normal form of w delta_g is the g-slice of the normal form of w.

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

from .groups import Perm, identity, parse_perm, symmetric_group, transposition
from .linalg import add_into, linear, vec_add, vec_scale
from .scalars import sweep_layout

FUEL_DEFAULT = 10 ** 6
TRACE_TAIL = 50
WORD_CAP = 8

X12 = transposition(3, 1, 2)
X13 = transposition(3, 1, 3)
X23 = transposition(3, 2, 3)
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
def _unit(n: int) -> Tails:
    """The unit of k^{S_n}: 1 at every g."""
    return Tails.fromkeys(symmetric_group(n), 1)


def _slice(x: dict, g: Perm) -> dict:
    """The g-slice {(w, g): f(g)} of a word vector {w: f}."""
    return {(w, g): f[g] for w, f in x.items() if g in f}


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
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs: dict):
        self.lhs = tuple(lhs)
        self.rhs = {k: c for k, c in rhs.items() if c}

    def __repr__(self):
        return f"Rule({_word_name(self.lhs)} -> {format_smash(self.rhs)})"


class RuleSystem:
    def __init__(self, rules, fuel: int = FUEL_DEFAULT):
        self.rules = list(rules)
        self.fuel = fuel
        self._normal_forms: dict = {}      # word -> {word: Tails}
        # word normal forms asked for, and the fuel their rewrites spent
        self.reductions = 0
        self.rewrite_steps = 0
        lhss = [r.lhs for r in self.rules]
        for i, a in enumerate(lhss):
            for j, b in enumerate(lhss):
                if i != j and _contains(b, a):
                    raise ValueError(
                        f"inclusion ambiguity: lhs {a} inside lhs {b}")
        # no lhs lies inside another, so at most one matches at a position
        self._by_len = _by_length(lhss)
        self._rule_of = {lhs: i for i, lhs in enumerate(lhss)}
        # the group S_n of the letters, as the unit of k^{S_n}
        self.group = _unit(lhss[0][0].n)
        # each rule once as lhs -> {word: coeff}, read by every rewrite
        self.word_rules = {r.lhs: _compile(r.rhs, self.group)
                           for r in self.rules}
        for r in self.rules:
            s = sigma(r.lhs)
            for w in self.word_rules[r.lhs]:
                if len(w) > len(r.lhs):
                    raise ValueError(f"rhs word longer than lhs in {r!r}")
                if len(w) == len(r.lhs) and self._find_redex(w) is not None:
                    raise ValueError(f"reducible same-length rhs word in {r!r}")
                # the rules then hold in the smash product over k^{S_n},
                # and the table's zero-filter is sound
                if sigma(w, s.n) != s:
                    raise ValueError(f"rhs word changes sigma in {r!r}")

    def relations(self) -> list:
        """The defining relation of each rule, named by its lhs word:
        lhs delta_g summed over every g in S_n, minus the rhs."""
        out = []
        for lhs, rhs in self.word_rules.items():
            elt = _full_tail((lhs, 1), group=self.group)
            for w, c in rhs.items():        # no rhs word is the lhs
                elt.update(((w, g), -x) for g, x in (self.group * c).items())
            out.append((_word_name(lhs), elt))
        return out

    def _find_redex(self, word):
        """(position, rule index) of the leftmost redex, or None."""
        redex = find_redex(word, self._by_len)
        return redex and (redex[0], self._rule_of[redex[1]])

    def normal_form(self, word: tuple) -> dict:
        """Normal form of the word under every tail, as {word: Tails};
        its g-slice is the normal form of word delta_g.  Memoized per
        system, by word.  One unit of fuel is one rewrite of a word,
        under every tail; a nontermination trace names each rewritten
        word with the least tail of its coefficient."""
        self.reductions += 1
        nf = self._normal_forms.get(word)
        if nf is None:
            try:
                nf, steps = _normal_form({word: self.group}, self.word_rules,
                                         self._by_len, self._normal_forms,
                                         self.fuel, self.group)
            except NonterminationError as exc:
                exc.trace = [(w, min(tails)) for w, tails in exc.trace]
                raise
            self._normal_forms[word] = nf
            self.rewrite_steps += steps
        return nf

    def reduce_term(self, word, g: Perm) -> dict:
        """Normal form of w dg: the g-slice of normal_form(w)."""
        return _slice(self.normal_form(tuple(word)), g)

    def reduce(self, x: dict) -> dict:
        return linear(lambda wg: self.reduce_term(*wg), x)


def _compile(rhs: dict, one: Tails) -> dict:
    """A rule's rhs {(w, h): c} as {w: coeff}: coeff is a scalar when the
    term has one value under every tail of the group `one`, otherwise
    its Tails."""
    out: dict = {}
    for (w, h), c in rhs.items():
        out.setdefault(w, Tails())[h] = c
    for w, f in out.items():
        c = next(iter(f.values()))
        out[w] = c if f == dict.fromkeys(one, c) else f
    return out


def _by_length(lhss) -> dict:
    """{length: set of left-hand sides}, the index find_redex searches."""
    out: dict = {}
    for lhs in lhss:
        out.setdefault(len(lhs), set()).add(lhs)
    return out


def find_redex(word, by_len: dict):
    """(position, lhs) of the leftmost occurrence in word of a left-hand
    side in by_len, or None; at one position the lengths are tried in
    the order by_len holds them."""
    n = len(word)
    for p in range(n):
        for L, lhss in by_len.items():
            if p + L <= n and word[p:p + L] in lhss:
                return p, word[p:p + L]
    return None


def rewrite(word, word_rules: dict, by_len: dict, redex=None):
    """One rewrite of the word at the redex (position, lhs), by default
    its leftmost one in by_len, as {word: coeff}; None without a redex.
    u lhs v becomes the terms u w v of word_rules[lhs]: a scalar stays
    (it holds under every tail), and a Tails moves from h to sigma(v) h,
    as u w delta_h v = u w v delta_{sigma(v) h}."""
    if redex is None:
        redex = find_redex(word, by_len)
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


def _normal_form(x: dict, word_rules: dict, by_len: dict, memo: dict,
                 fuel: int, one=1) -> tuple:
    """Normal form of the vector {word: coeff} x under word_rules, and the
    rewrite steps it took; irreducible words are memoized as {word: one}.
    The coefficients lie in a commutative ring with unit one: numbers
    for completion, Tails for RuleSystem.  Each rewrite spends one unit
    of fuel; running out raises NonterminationError with the last
    TRACE_TAIL rewritten terms (word, coefficient), the last one last."""
    acc: dict = {}
    stack = list(x.items())
    trace = deque(maxlen=TRACE_TAIL)
    budget = fuel
    while stack:
        key, coeff = stack.pop()
        hit = memo.get(key)
        if hit is not None:
            for k, c in hit.items():
                add_into(acc, k, coeff if c is one else coeff * c)
            continue
        out = rewrite(key, word_rules, by_len)
        if out is None:
            add_into(acc, key, coeff)
            memo[key] = {key: one}
            continue
        trace.append((key, coeff))
        fuel -= 1
        if fuel <= 0:
            raise NonterminationError(
                f"fuel of {budget} rewrite steps exhausted", list(trace))
        for k, c in out.items():
            # one * c is c, but a scalar c must still become a Tails
            if coeff is not one or type(c) is not type(one):
                c = coeff * c
            if c:
                stack.append((k, c))
    return acc, budget - fuel


def _contains(haystack, needle) -> bool:
    n = len(needle)
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def _full_tail(*terms, group=S3) -> dict:
    """sum of c * w delta_g over every g in the group, for the (w, c)
    pairs given, zero coefficients skipped; no caller gives a word twice."""
    return {(tuple(w), g): c for w, c in terms if c for g in group}


def default_rules(a1, a2, fuel: int = FUEL_DEFAULT) -> RuleSystem:
    """The eight oriented rules presenting the 72-dimensional algebra with
    parameters (a1, a2); scalars may be numbers or polynomial generators."""
    g = {s: parse_perm(s, 3) for s in ("e", "(12)", "(13)", "(23)", "(123)", "(132)")}

    def tails(word, spec: dict) -> dict:
        return {(tuple(word), g[name]): c for name, c in spec.items() if c}

    omega = {"(12)": a2 - a1, "e": a1 - a2, "(13)": a1, "(132)": -a1,
             "(23)": -a2, "(123)": a2}

    rules = [
        Rule((X13, X13), tails((), {"(12)": a1 - a2, "(123)": a1 - a2,
                                    "(23)": a1, "(132)": a1})),
        Rule((X23, X23), tails((), {"(13)": a2, "(123)": a2,
                                    "(12)": a2 - a1, "(132)": a2 - a1})),
        Rule((X12, X12), tails((), {"(23)": -a1, "(123)": -a1,
                                    "(13)": -a2, "(132)": -a2})),
        Rule((X13, X23), _full_tail(((X23, X12), -1), ((X12, X13), -1))),
        Rule((X23, X13), _full_tail(((X12, X23), -1), ((X13, X12), -1))),
        Rule((X12, X13, X12), _full_tail(((X13, X12, X13), 1), ((X23,), a1))),
        Rule((X23, X12, X23), _full_tail(((X12, X23, X12), 1), ((X13,), -a2))),
        Rule((X23, X12, X13), vec_add(_full_tail(((X13, X12, X23), 1)),
                                      tails((X12,), omega))),
    ]
    return RuleSystem(rules, fuel=fuel)


# -- enumeration and ambiguities --------------------------------------------

def irreducible_words(rules: RuleSystem, maxlen: int = WORD_CAP) -> list:
    """All words in the letters x_t, t every transposition of S_n, that
    avoid every lhs, by breadth-first extension.  Raises GrowthError if
    irreducible words still appear at maxlen."""
    n = rules.rules[0].lhs[0].n
    letters = sorted((transposition(n, i, j) for j in range(2, n + 1)
                      for i in range(1, j)), key=str)
    by_len = rules._by_len.items()
    out = [()]
    layer = [()]
    for _ in range(maxlen):
        nxt = []
        for w in layer:
            for t in letters:
                # w is irreducible, so a redex of w + (t,) ends at t
                cand = w + (t,)
                if not any(cand[-L:] in lhss for L, lhss in by_len):
                    nxt.append(cand)
        out.extend(nxt)
        layer = nxt
        if not layer:
            break
    if layer:
        raise GrowthError(
            f"irreducible words still appearing at length {maxlen}; "
            "possibly infinite")
    return sorted(out, key=word_key)


def overlap_ambiguities(rules: RuleSystem) -> list:
    """All proper overlaps: (i, j, word) with lhs_i = XY a prefix of word,
    lhs_j = YZ a suffix, X, Y, Z nonempty."""
    return [(i, j, r1.lhs + r2.lhs[k:])
            for i, r1 in enumerate(rules.rules)
            for j, r2 in enumerate(rules.rules)
            for k in _overlaps(r1.lhs, r2.lhs)]


def _overlaps(L1, L2) -> list:
    """The lengths k of the proper overlaps of L1 then L2: the last k
    letters of L1 are the first k of L2, with 0 < k < len(L1), len(L2)."""
    return [k for k in range(1, min(len(L1), len(L2)))
            if L1[len(L1) - k:] == L2[:k]]


def resolve_ambiguity(amb, rules: RuleSystem):
    """Rewrite the overlap word both ways (left redex first, right redex
    first), each once under every tail, and compare the reductions of
    the two tail by tail, over the group of the rules; returns
    (resolved, trace), with one entry (g, left - right) per tail g where
    they part."""
    i, j, word = amb
    one = rules.group
    lhs_i, lhs_j = rules.rules[i].lhs, rules.rules[j].lhs
    left, right = ({w: one * c for w, c in rewrite(
        word, rules.word_rules, rules._by_len, redex).items()}
        for redex in ((0, lhs_i), (len(word) - len(lhs_j), lhs_j)))
    trace = []
    for g in one:
        lg = rules.reduce(_slice(left, g))
        rg = rules.reduce(_slice(right, g))
        if lg != rg:
            trace.append((g, format_smash(vec_add(lg, vec_scale(-1, rg)))))
    return not trace, trace


# -- the multiplication table -----------------------------------------------

class MultTable:
    """Structure constants of the 72-dimensional algebra over the rule
    system's scalars.  Basis labels are (word, g) pairs ordered deglex
    then by group element.  Each product w1 w2 of basis words is reduced
    once, under every tail, and fills the six rows (w1, g1) * (w2,
    sigma(w2) g1) from its slices."""

    def __init__(self, rules: RuleSystem):
        self.rules = rules
        self.words = irreducible_words(rules)
        self.labels = [(w, g) for w in self.words for g in rules.group]
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.dim = len(self.labels)
        self.grading = [len(w) for (w, _g) in self.labels]
        n = rules.rules[0].lhs[0].n
        self._word_sigma = {w: sigma(w, n) for w in self.words}
        # rows[i][k] = e_i e_k as {index: coeff}; w1 dg1 * w2 dg2 is zero
        # unless g2 = sigma(w2) g1, and then it is the g2-slice of the
        # normal form of w1 w2, whose words must lie in the basis with
        # sigma(w1 w2)
        reductions, steps = rules.reductions, rules.rewrite_steps
        self.rows = [[{} for _ in range(self.dim)] for _ in range(self.dim)]
        for w1 in self.words:
            for w2 in self.words:
                s2 = self._word_sigma[w2]
                s12 = s2 * self._word_sigma[w1]
                nf = rules.normal_form(w1 + w2)
                for w in nf:
                    if self._word_sigma.get(w) != s12:
                        raise ValueError(f"normal form leaves the basis: {w}")
                for g1 in rules.group:
                    g2 = s2 * g1
                    row = self.rows[self.index[(w1, g1)]][self.index[(w2, g2)]]
                    for w, tails in nf.items():
                        if g2 in tails:
                            row[self.index[(w, g2)]] = tails[g2]
        # what the build spent: word normal forms asked for, rewrites
        self.stats = {"reductions": rules.reductions - reductions,
                      "rewrite_steps": rules.rewrite_steps - steps}

    def graded(self):
        """Every structure constant as (i, k, l, c, weight): c is the
        coefficient of e_l in e_i e_k, and its weight in the word-length
        grading is |w_i| + |w_k| - |w_l|."""
        n = self.grading
        for i, row in enumerate(self.rows):
            for k, e in enumerate(row):
                for l, c in e.items():
                    yield i, k, l, c, n[i] + n[k] - n[l]

    def packed(self, layout) -> "MultTable":
        """A copy whose rows hold layout-encoded coefficients, each at
        its weight; see scalars.sweep_layout."""
        out = copy.copy(self)
        out.rows = [[{} for _ in row] for row in self.rows]
        for i, k, l, c, weight in self.graded():
            out.rows[i][k][l] = layout.encode(c, weight)
        return out

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

    def compatible_followers(self, i: int) -> list:
        """Indices k with a structurally nonzero product i * k."""
        (_w1, g1) = self.labels[i]
        return [self.index[(w2, self._word_sigma[w2] * g1)]
                for w2 in self.words]


def structure_constants(rules: RuleSystem) -> MultTable:
    return MultTable(rules)


def check_associativity(table: MultTable) -> dict:
    """(xy)z == x(yz) over all basis triples, exact.  Triples whose tails
    make both sides structurally zero are skipped, which is sound because
    every rule preserves sigma.

    The sweep runs on ints (scalars.sweep_layout): polynomial structure
    constants are compared Kronecker-packed, each side summing at most
    R^2 products of two constants, R the most terms of a product of
    basis elements; at a rational point the basis is rescaled.  Both
    sides are summed, over the rows' items, into one difference, which
    vanishes exactly when the packed sides are equal: the bounds are
    those of each side."""
    most = max(len(e) for row in table.rows for e in row)
    layout = sweep_layout(((c, n) for *_, c, n in table.graded()),
                          factors=2, summands=most * most)
    table = table.packed(layout)
    items = [[tuple(e.items()) for e in row] for row in table.rows]
    followers = [table.compatible_followers(i) for i in range(table.dim)]
    failures = []
    checked = 0
    for i, row_i in enumerate(items):
        for j in followers[i]:
            for k in followers[j]:
                diff: dict = {}
                get = diff.get
                for l, c in row_i[j]:
                    for m, c2 in items[l][k]:
                        diff[m] = get(m, 0) + c * c2
                for l, c in items[j][k]:
                    for m, c2 in row_i[l]:
                        diff[m] = get(m, 0) - c * c2
                checked += 1
                if any(diff.values()):
                    failures.append((i, j, k))
    return {"checked": checked, "failures": failures, "ok": not failures,
            "scalars": str(layout)}


def hilbert_series(words) -> list:
    """Counts of basis words per length, as a list indexed by degree."""
    out = [0] * (max(map(len, words), default=-1) + 1)
    for w in words:
        out[len(w)] += 1
    return out


# -- completion (numeric coefficients, tail-uniform rules) ------------------

def uniform_rule(lhs, word_rhs: dict) -> Rule:
    """A rule whose rhs has the same word combination under every tail."""
    lhs = tuple(lhs)
    return Rule(lhs, _full_tail(*word_rhs.items(), group=_unit(lhs[0].n)))


def complete(rules: RuleSystem, maxdeg: int = 8, fuel: int = FUEL_DEFAULT):
    """Buchberger-style completion for tail-uniform numeric systems:
    insert deglex-oriented normal-form differences of unresolved overlaps,
    smallest overlap first, until the pair queue drains.  Rules whose lhs
    becomes reducible are reduced and re-inserted, never discarded.
    Returns a RuleSystem."""
    import heapq

    if any(type(c) is Tails
           for rhs in rules.word_rules.values() for c in rhs.values()):
        raise ValueError("completion needs tail-uniform rules")
    word_rules = dict(rules.word_rules)     # lhs -> {word: coeff}
    homog = all(len(w) == len(lhs)
                for lhs, rhs in word_rules.items() for w in rhs)
    by_len = _by_length(word_rules)
    memo: dict = {}     # irreducible words under the current rules

    def reduce(x: dict) -> dict:
        return _normal_form(x, word_rules, by_len, memo, fuel)[0]

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
        inv = Fraction(1) / Fraction(elt[lead])
        word_rules[lead] = {w: -c * inv for w, c in elt.items() if w != lead}
        by_len.setdefault(len(lead), set()).add(lead)
        memo.clear()
        # rules with a now-reducible lhs get reduced back in
        for old in list(word_rules):
            if old != lead and _contains(old, lead):
                old_rhs = word_rules.pop(old)
                by_len[len(old)].discard(old)
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
        left = reduce({wi + L2[k:]: c for wi, c in word_rules[L1].items()})
        right = reduce({L1[:len(L1) - k] + wi: c
                        for wi, c in word_rules[L2].items()})
        insert(vec_add(left, vec_scale(-1, right)))

    # interreduce: later rules may have made earlier right-hand sides
    # reducible
    done = RuleSystem([uniform_rule(lhs, reduce(rhs))
                       for lhs, rhs in word_rules.items()], fuel=fuel)
    # skipped overlaps above resolve only if nothing irreducible remains
    # at length maxdeg; irreducible_words raises GrowthError otherwise
    irreducible_words(done, maxlen=maxdeg)
    return done
