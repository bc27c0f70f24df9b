"""The 72-dimensional Hopf algebra family A_[a1,a2].

Multiplication comes from the certified rewrite table; the
comultiplication, counit and antipode are defined on the generators
delta_g and x_ij and extended (anti)multiplicatively along any word.
Nothing is taken on faith: the Hopf axioms, the Hopf-ideal
property of the defining relations, the coradical filtration, and the
structural lemmas of the degree filtration are all verified
symbolically by the operations below.

Elements of A are {basis index: coeff} dicts over the 72 labels (w, g);
elements of A (x) A are {(index, index): coeff} dicts.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from functools import reduce
from itertools import chain, product

from .coalg import (DualGroupCoalgebra, FinCoalgebra, dual_basis_e,
                    matrix_coefficients, simple_subcoalgebras_of_dual_group)
from .groups import Perm, builtin_irreps, identity, symmetric_group
from .linalg import (add_into, linear, pruned, rank, vec_add, vec_scale,
                     vec_tensor)
from .rewrite import (GENERATORS, MultTable, S3, X12, X13, X23,
                      _full_tail, default_rules, format_smash, sigma,
                      structure_constants)
from .scalars import NeedsSpecialization, sweep_layout
from .ydmod import v3

E3 = identity(3)


class Hopf72:
    def __init__(self, a1, a2, table: MultTable):
        self.a1 = a1
        self.a2 = a2
        self.table = table
        self.labels = table.labels
        self.index = table.index
        self.dim = table.dim
        # e_p e_r is structurally zero unless the tail g of p is the
        # tail-compat tag sigma(w)^-1 g of r; both as positions in S3
        code = {g: n for n, g in enumerate(S3)}
        self._tail = [code[g] for (_w, g) in self.labels]
        self._tag = [code[sigma(w).inv() * g] for (w, g) in self.labels]
        self.counit = [1 if (not w and g == E3) else 0
                       for (w, g) in self.labels]
        # lambda(x_t) = sum c delta_h (x) x_u, the coaction of V over k^{S3}
        coaction = v3().coaction
        self._gen_comult = {t: self._comult_generator(t, coaction[t])
                            for t in GENERATORS}
        self._gen_antipode = {t: self._antipode_generator(coaction[t])
                              for t in GENERATORS}
        memo: dict = {}
        self.comult = [self.word_comult(w, g, memo) for (w, g) in self.labels]
        self.antipode = [self.word_antipode(w, g) for (w, g) in self.labels]
        self.stats = {"tensor_mults": _products(memo)}

    # -- element helpers -------------------------------------------------

    def unit(self) -> dict:
        return {self.index[((), g)]: 1 for g in S3}

    def delta_elt(self, g: Perm) -> dict:
        return {self.index[((), g)]: 1}

    def x_elt(self, t: Perm) -> dict:
        return {self.index[((t,), g)]: 1 for g in S3}

    def from_smash(self, x: dict) -> dict:
        return {self.index[wg]: c
                for wg, c in self.table.rules.reduce(x).items()}

    def mult(self, x: dict, y: dict) -> dict:
        return self.table.mult(x, y)

    def delta(self, x: dict) -> dict:
        return linear(self.comult.__getitem__, x)

    def S(self, x: dict) -> dict:
        return linear(self.antipode.__getitem__, x)

    def graded(self):
        """Every coefficient of Delta and S as (map, i, key, c, weight): c
        is the coefficient of key in comult[i] or antipode[i], and its
        weight in the word-length grading is |w_i| - |w_p| - |w_q| for a
        key (p, q) of Delta and |w_i| - |w_l| for a key l of S."""
        n = self.table.grading
        for i, d in enumerate(self.comult):
            for pq, c in d.items():     # the key itself, not a copy
                yield "comult", i, pq, c, n[i] - n[pq[0]] - n[pq[1]]
        for i, a in enumerate(self.antipode):
            for l, c in a.items():
                yield "antipode", i, l, c, n[i] - n[l]

    def packed(self, layout) -> "Hopf72":
        """A copy whose product table, Delta and S hold layout-encoded
        coefficients, each at its weight (see scalars.sweep_layout); each
        Delta(e_i) is Joined on every row of the table, compiled once."""
        out = copy.copy(self)
        out.table = self.table.packed(layout)
        out.comult = [{} for _ in self.comult]
        out.antipode = [{} for _ in self.antipode]
        for name, i, key, c, weight in self.graded():
            getattr(out, name)[i][key] = layout.encode(c, weight)
        every = range(self.dim)
        rows = out._compiled(every, self.dim), out._compiled(every, 1)
        out.comult = [out.joined(d, rows) for d in out.comult]
        return out

    # -- tensor square arithmetic ----------------------------------------

    def _grouped(self, x: dict, code: list) -> dict:
        """The terms (p, q, c) of x in A (x) A grouped by code[p], code[q]."""
        out: dict = {}
        for (p, q), c in x.items():
            out.setdefault(code[p] * len(S3) + code[q], []).append((p, q, c))
        return out

    def _compiled(self, legs, scale: int) -> dict:
        """{p: [e_p e_r as a tuple of (l * scale, c), for every r]}."""
        return {p: [tuple([(l * scale, c) for l, c in e.items()]) if e
                    else () for e in self.table.rows[p]] for p in legs}

    def joined(self, x: dict, rows=None) -> "Joined":
        """x as a factor of tensor_mult; rows, its legs' compiled rows (left
        scaled by dim, right by 1), default to those of its own legs only."""
        left, right = rows or (self._compiled({p for p, _ in x}, self.dim),
                               self._compiled({q for _, q in x}, 1))
        out = Joined(x)
        out.by_tails = {key: [(left[p], right[q], c) for p, q, c in terms]
                        for key, terms in self._grouped(x, self._tail).items()}
        out.by_tags = self._grouped(x, self._tag)
        return out

    def tensor_mult(self, x: dict, y: dict) -> dict:
        """Componentwise product on A (x) A, as a join: the terms of x,
        grouped by the tails of their two legs, meet only the terms of y
        whose legs carry the same tail-compat tags, which are exactly the
        pairs of terms whose product can be non-zero.  Each term of x
        brings its legs' compiled rows (joined), from which e_p e_r (x)
        e_q e_s is summed on int keys l * dim + m, pruned once at the end."""
        xb = (x if isinstance(x, Joined) else self.joined(x)).by_tails
        yb = y.by_tags if isinstance(y, Joined) else self._grouped(y, self._tag)
        acc: dict = {}
        get = acc.get
        for key in xb.keys() & yb.keys():
            ys = yb[key]
            for left_row, right_row, c1 in xb[key]:
                for r, s, c2 in ys:
                    left, right = left_row[r], right_row[s]
                    if not (left and right):
                        continue
                    c = c1 * c2
                    for base, cl in left:
                        ccl = c * cl
                        for m, cm in right:
                            acc[base + m] = get(base + m, 0) + ccl * cm
        return pruned(acc, self.dim)

    # -- generator structure maps ----------------------------------------

    def _comult_generator(self, t: Perm, coaction: dict) -> dict:
        """Delta(x_t) = x_t (x) 1 + x_(-1) (x) x_(0), the bosonization of
        the coaction sum c delta_h (x) x_u of x_t."""
        out = vec_tensor(self.x_elt(t), self.unit())
        for (h, u), c in coaction.items():
            out.update(vec_tensor({self.index[((), h)]: c}, self.x_elt(u)))
        return out

    def _antipode_generator(self, coaction: dict) -> dict:
        """S(x_t) = -S(x_(-1)) x_(0) = -sum c delta_{h^-1} x_u, and
        delta_{h^-1} x_u = x_u delta_{u h^-1}."""
        out: dict = {}
        for (h, u), c in coaction.items():
            add_into(out, self.index[((u,), u * h.inv())], -c)
        return out

    def word_comult(self, w, g: Perm, memo: dict = None) -> dict:
        """Delta(w delta_g) = Delta(x_t1) Delta(x_t2 ... x_tn delta_g) in
        A (x) A, for any word w = x_t1 ... x_tn, reduced or not.  memo, for
        one build or verify_hopf_ideal run (by default this call), keeps
        Delta(v delta_g) of each suffix v under (v, g), and Delta(x_t),
        joined, under t."""
        if not w:
            return {(self.index[((), t)], self.index[((), t.inv() * g)]): 1
                    for t in S3}
        memo = {} if memo is None else memo
        if (w, g) not in memo:
            if w[0] not in memo:
                memo[w[0]] = self.joined(self._gen_comult[w[0]])
            memo[w, g] = self.tensor_mult(memo[w[0]],
                                          self.word_comult(w[1:], g, memo))
        return memo[w, g]

    def word_antipode(self, w, g: Perm) -> dict:
        """S(w delta_g) = delta_{g^-1} S(x_tn) ... S(x_t1) in A, for any
        word w = x_t1 ... x_tn, reduced or not."""
        acc = self.delta_elt(g.inv())
        for t in reversed(w):
            acc = self.mult(acc, self._gen_antipode[t])
        return acc


class Joined(dict):
    """An A (x) A element grouped for tensor_mult by Hopf72.joined, by its
    legs' tails (with their rows) and tags.  Not to be changed after."""
    __slots__ = ("by_tails", "by_tags")


def _products(memo: dict) -> int:
    """The products on A (x) A a word_comult memo took: its (w, g) keys."""
    return sum(type(key) is tuple for key in memo)


def build(a1, a2, table: MultTable = None) -> Hopf72:
    """The algebra at (a1, a2) on the given product table, by default the
    table of default_rules(a1, a2)."""
    if table is None:
        table = structure_constants(default_rules(a1, a2))
    return Hopf72(a1, a2, table)


# -- axiom verification -----------------------------------------------------

def axiom_layout(H: Hopf72):
    """The layout of verify_hopf_axioms, fitted to the product table,
    Delta, S and the constant 1 (unit, counit, basis vectors): a
    Kronecker packing over Q[a1, a2], a Rescale at a rational point.

    With D, R and A the most terms of a Delta(e_i), a product e_i e_k and
    an S(e_i): a product in tensor_mult has four factors, and its
    accumulator at most D^2 R^2 summands (the join only skips products
    that are structurally zero, and only final sums are tested for 0);
    the antipode convolutions sum at most D A R products of four factors
    (c, S, 1, row); coassociativity (D^2 summands) and Delta of a product
    (R D) stay below both."""
    rows = H.table.rows
    most_d = max(map(len, H.comult))
    most_r = max(len(e) for row in rows for e in row)
    most_a = max(map(len, H.antipode))
    weighted = chain(((c, n) for *_, c, n in H.table.graded()),
                     ((c, n) for *_, c, n in H.graded()), ((1, 0),))
    summands = max(most_d * most_d * most_r * most_r,
                   most_d * most_a * most_r)
    return sweep_layout(weighted, factors=4, summands=summands)


def verify_hopf_axioms(H: Hopf72) -> dict:
    """Coassociativity, counit, antipode and multiplicativity of Delta,
    all by exact scalar comparison on every basis element and every
    basis pair.  The sweep runs on ints, exactly (axiom_layout):
    Kronecker-packed over Q[a1, a2], in a rescaled basis at a rational
    point.  Coassociativity and the counit are checked by
    coalg.FinCoalgebra.  The first comult_mult failure keeps its
    difference Delta(e_i e_k) - Delta(e_i) Delta(e_k), decoded."""
    layout = axiom_layout(H)
    H = H.packed(layout)
    coalgebra = FinCoalgebra(range(H.dim), H.comult, H.counit)
    failures = []
    witness = None

    for i in range(H.dim):
        d = H.comult[i]
        if not coalgebra.coassociative_at(i):
            failures.append(("coassoc", i))
        if not coalgebra.counit_at(i):
            failures.append(("counit", i))

        conv_l = linear(lambda pq: H.mult(H.antipode[pq[0]], {pq[1]: 1}), d)
        conv_r = linear(lambda pq: H.mult({pq[0]: 1}, H.antipode[pq[1]]), d)
        expected = vec_scale(H.counit[i], H.unit())
        if conv_l != expected or conv_r != expected:
            failures.append(("antipode", i))

    checked_pairs = terms_compared = 0
    for i, k in product(range(H.dim), repeat=2):
        lhs = H.delta(H.table.mult_basis(i, k))
        rhs = H.tensor_mult(H.comult[i], H.comult[k])
        checked_pairs += 1
        terms_compared += len(rhs)
        if lhs != rhs:
            failures.append(("comult_mult", i, k))
            if witness is None:
                witness = (i, k, vec_add(lhs, vec_scale(-1, rhs)))

    return {"basis_checked": H.dim, "pairs_checked": checked_pairs,
            "delta_terms": sum(map(len, H.comult)),
            "terms_compared": terms_compared,
            "scalars": str(layout),
            "witness": witness and _format_witness(layout, H.table.grading,
                                                 *witness),
            "failures": failures, "ok": not failures}


def _format_witness(layout, grading, i: int, k: int, diff: dict) -> str:
    """The difference in the original coordinates: its coefficient at
    [p, q] has weight |w_i| + |w_k| - |w_p| - |w_q|."""
    n = grading
    diff = {(p, q): layout.decode(c, n[i] + n[k] - n[p] - n[q])
            for (p, q), c in diff.items()}
    terms = " + ".join(f"({c})*[{p},{q}]"
                       for (p, q), c in sorted(diff.items()))
    return f"Delta(e{i} e{k}) - Delta(e{i}) Delta(e{k}) = {terms}"


def _dual_e() -> dict:
    """The dual basis e_ij of the standard-representation coefficients."""
    elems = symmetric_group(3)
    std = [r for r in builtin_irreps(elems) if r.name == "standard"][0]
    return dual_basis_e(matrix_coefficients(std), elems)


def coideal_elements(a1, a2) -> list:
    """The relations in the paper's form that no rule states verbatim:
    the two c-relations and the sum of squares."""
    e = _dual_e()
    a = (a1, a2)
    out = []
    for i, t in enumerate((X13, X23)):
        # c_i - a_i + sum_j a_j e_ij, with c_i = x_t^2 - x12^2
        elt = _full_tail(((t, t), 1), ((X12, X12), -1), ((), -a[i]))
        for j in range(2):
            for g, c in e[(i + 1, j + 1)].items():
                add_into(elt, ((), g), a[j] * c)
        out.append((f"c{i + 1}-rel", elt))
    out.append(("sum_squares",
                _full_tail(*(((t, t), 1) for t in GENERATORS))))
    return out


def verify_hopf_ideal(H: Hopf72) -> dict:
    """Certificate that the defining ideal I, spanned as an ideal by the
    relations of the table's rules, is a Hopf ideal: every rule relation
    and every coideal element has counit 0, vanishes in A, comultiplies
    into I (x) A + A (x) I and has antipode in I.

    (pi (x) pi) Delta_T is an algebra map T -> A (x) A and pi S_T an
    anti-algebra map T -> A, each fixed by its values on the generators;
    so Delta and S of a relation are pushed through Hopf72.word_comult and
    word_antipode, the maps that build the tables, and must vanish."""
    failures = []
    memo: dict = {}
    elements = H.table.rules.relations() + coideal_elements(H.a1, H.a2)
    for name, r in elements:
        if r.get(((), E3), 0):
            failures.append((name, "counit"))
        if H.from_smash(r):
            failures.append((name, "not in kernel"))
        if linear(lambda wg: H.word_comult(*wg, memo), r):
            failures.append((name, "comult not in I(x)A + A(x)I"))
        if linear(lambda wg: H.word_antipode(*wg), r):
            failures.append((name, "antipode not in I"))
    return {"elements": len(elements), "failures": failures,
            "ok": not failures, "stats": {"word_comults": _products(memo)}}


def c_identity(H: Hopf72) -> dict:
    """The matrix-coefficient identities pinning the parameters:
    x13^2 - x12^2 = a1 - a1 e11 - a2 e12 and
    x23^2 - x12^2 = a2 - a1 e21 - a2 e22 in A, plus the comultiplication
    shape Delta(cb_i) = cb_i (x) 1 + sum_j e_ij (x) cb_j."""
    e = _dual_e()
    failures = []
    values = coideal_elements(H.a1, H.a2)[:2]
    for i, (_name, rel) in enumerate(values):
        if H.from_smash(rel):
            failures.append((f"c{i + 1}", "value"))
    cbar = [H.from_smash(_full_tail(((t, t), 1), ((X12, X12), -1)))
            for t in (X13, X23)]
    for i in range(len(cbar)):
        rhs = vec_tensor(cbar[i], H.unit())
        for j in range(2):
            e_ij = {H.index[((), g)]: c for g, c in e[(i + 1, j + 1)].items()}
            rhs = vec_add(rhs, vec_tensor(e_ij, cbar[j]))
        if H.delta(cbar[i]) != rhs:
            failures.append((f"c{i + 1}", "comult shape"))
    return {"values": len(values), "comult_shapes": len(cbar),
            "failures": failures, "ok": not failures}


# -- filtration, adjoint pieces, structural lemmas --------------------------

# the basis indices of F_n whose ad-delta eigenvalue is g
IsotypicPiece = namedtuple("IsotypicPiece", "g n members")


def adjoint_action(H: Hopf72, y: dict, right: bool = False):
    """x -> sum y1 x S(y2), the adjoint action of y, or on the right
    x -> sum S(y1) x y2; Delta(y) and S are applied once, here."""
    legs = [(H.S({p: c}), {q: 1}) if right else ({p: c}, H.S({q: 1}))
            for (p, q), c in H.delta(y).items()]
    return lambda x: reduce(vec_add, (H.mult(H.mult(a, x), b)
                                      for a, b in legs), {})


def adjoint_grading_failures(H: Hopf72, tags: dict, right: bool = False):
    """Every (i, h, image) over the basis indices i in tags where the
    adjoint action of delta_h (on the right when right is set) is not
    [h == tags[i]] times the identity on e_i."""
    ads = {h: adjoint_action(H, H.delta_elt(h), right) for h in S3}
    return [(i, h, img) for i, tag in tags.items() for h, ad in ads.items()
            if (img := ad({i: 1})) != ({i: 1} if h == tag else {})]


def adjoint_isotypics(H: Hopf72, n: int) -> tuple:
    """Decompose F_n = span{w delta_g : |w| <= n} into the ad-delta
    eigencomponents, e_i in the piece of sigma(w_i)^-1.  Returns the
    pieces and, as text, every (i, h) where applying ad delta_h to the
    member e_i breaks the grading."""
    tags = {i: sigma(w).inv() for i, (w, _g) in enumerate(H.labels)
            if H.table.grading[i] <= n}
    pieces: dict = {}
    for i, tag in tags.items():
        pieces.setdefault(tag, []).append(i)
    failures = [f"ad delta_{h} not diagonal on basis {i}: image {img}"
                for i, h, img in adjoint_grading_failures(H, tags)]
    return ([IsotypicPiece(g, n, members)
             for g, members in sorted(pieces.items())], failures)


def lemma31_suite(H: Hopf72) -> dict:
    """The structural property suite of the degree filtration."""
    failures = []
    n = H.table.grading
    tags = {i: sigma(w).inv() for i, (w, g) in enumerate(H.labels)}

    # (a) F_n^g . F_m^h lands in F_{n+m}^{gh}, term by term
    for i in range(H.dim):
        for k in range(H.dim):
            for l in H.table.mult_basis(i, k):
                if n[l] > n[i] + n[k]:
                    failures.append(("filtration-product", i, k))
                if tags[l] != tags[i] * tags[k]:
                    failures.append(("isotypic-product", i, k))

    # (b) delta_h x_t = x_t delta_{t^-1 h} for every pair
    for h in S3:
        for t in (X12, X13, X23):
            lhs = H.mult(H.delta_elt(h), H.x_elt(t))
            rhs = H.mult(H.x_elt(t), H.delta_elt(t.inv() * h))
            if lhs != rhs:
                failures.append(("commutation", str(h), str(t)))

    # antipode: S is an algebra anti-homomorphism, so it carries the
    # left-adjoint piece F_n^g onto the right-adjoint piece for g^-1;
    # both gradings are verified honestly via the table
    rtags = {i: g.inv() * sigma(w) * g for i, (w, g) in enumerate(H.labels)}
    failures += [("right-adjoint", i, str(h)) for i, h, _img
                 in adjoint_grading_failures(H, rtags, right=True)]
    raises_length = False
    for i in range(H.dim):
        for l in H.antipode[i]:
            raises_length |= n[l] > n[i]
            if n[l] > n[i] or rtags[l] != tags[i].inv():
                failures.append(("antipode-piece", i))
    # S never raises word length, so it is block triangular and
    # invertible exactly when its length-preserving diagonal blocks are
    blocks: dict = {}
    for i, m in enumerate(n):
        blocks.setdefault(m, []).append(i)
    try:
        inv_ok = None if raises_length else all(
            rank([[H.antipode[i].get(l, 0) for i in b] for l in b]) == len(b)
            for b in blocks.values())
    except NeedsSpecialization:
        inv_ok = None
    if inv_ok is False:
        failures.append(("antipode-rank",))

    # (d) supp F_1 and (e) F_1^e = k^{S3}
    supp = sorted({tags[i] for i in range(H.dim) if n[i] <= 1})
    if supp != sorted({E3, *GENERATORS}):
        failures.append(("supp-F1", [str(s) for s in supp]))
    f1e = [i for i in range(H.dim) if n[i] <= 1 and tags[i] == E3]
    if sorted(f1e) != sorted(H.index[((), g)] for g in S3):
        failures.append(("F1e",))

    return {"failures": failures, "ok": not failures,
            "antipode_invertible": inv_ok}


def coradical_certificate(H: Hopf72) -> dict:
    """Filtration certificate: F_n = span{w delta_g : |w| <= n}, nested
    and exhausting A, is a coalgebra filtration, and F_0 is a
    subcoalgebra isomorphic to k^{S3} splitting into simple pieces of
    ranks (1,1,2).  Together these pin the coradical."""
    failures = []
    # Delta(F_n) <= sum_i F_i (x) F_{n-i}: |w_p| + |w_q| <= |w_i| for every
    # term [p, q] of Delta(e_i); the first offending term is the witness
    n = H.table.grading
    bad = next(((i, pq) for i, d in enumerate(H.comult) for pq in d
                if n[pq[0]] + n[pq[1]] > n[i]), None)
    if bad:
        i, pq = bad
        failures.append(("filtration", f"Delta(F_{n[i]}) leaves the "
                                       f"allowed span at {pq}"))

    # F_0 carries exactly the dual-group comultiplication
    kG = DualGroupCoalgebra(S3)
    idx = H.index
    for g in kG.elems:
        expect = {(idx[((), t)], idx[((), u)]): c
                  for (t, u), c in kG.comult[g].items()}
        if H.comult[idx[((), g)]] != expect:
            failures.append(("F0-comult", str(g)))

    pieces = simple_subcoalgebras_of_dual_group(kG.elems,
                                                builtin_irreps(kG.elems))
    dims = sorted(d * d for (_name, d, _fs) in pieces)
    if dims != [1, 1, 4]:
        failures.append(("F0-decomposition", dims))

    return {"failures": failures, "ok": not failures,
            "conclusion": "coradical = k^{S3} (inside F_0 by the filtration "
                          "bound, all of F_0 by cosemisimplicity)"}


def gr_check(H: Hopf72) -> dict:
    """The associated graded algebra of the length filtration equals the
    parameter-free algebra: the top-length part of every product e_i e_k
    (length |w_i| + |w_k|) is e_i e_k in the table of default_rules(0, 0),
    which must be graded."""
    table = H.table
    table0 = structure_constants(default_rules(0, 0))
    if table0.labels != table.labels:
        return {"products": 0, "failures": [("labels",)], "ok": False}
    n = table.grading
    failures = []
    pairs = [(i, k) for i in range(table.dim)
             for k in table.compatible_followers(i)]
    for i, k in pairs:
        (w1, _g1), (w2, h) = table.labels[i], table.labels[k]
        top = n[i] + n[k]
        row0 = table0.rows[i][k]
        if any(n[l] != top for l in row0):
            failures.append(("graded0", w1, w2, str(h)))
        if ({l: c for l, c in table.rows[i][k].items() if n[l] == top}
                != {l: c for l, c in row0.items() if n[l] == top}):
            failures.append(("top-part", w1, w2, str(h)))
    return {"products": len(pairs), "failures": failures,
            "ok": not failures}


def dump_tables(H: Hopf72) -> str:
    """Deterministic text dump of the three structure tables."""
    lines = []
    for i, (w, g) in enumerate(H.labels):
        name = format_smash({(w, g): 1})
        lines.append(f"basis {i}: {name}")
    # e_i e_k, keyed and ordered by (w_i, w_k, g_k) as text
    table = H.table
    products = sorted(((str(w1), *map(str, table.labels[k])), i, k)
                      for i, (w1, _g1) in enumerate(table.labels)
                      for k in table.compatible_followers(i))
    for _key, i, k in products:
        (w1, _g1), (w2, h) = table.labels[i], table.labels[k]
        row = {table.labels[l]: c for l, c in table.rows[i][k].items()}
        lines.append(f"mult {format_smash({(w1, h): 1})} * "
                     f"{format_smash({(w2, h): 1})} = {format_smash(row)}")
    for i in range(H.dim):
        items = sorted(H.comult[i].items())
        lines.append("comult %d: %s" % (
            i, " + ".join(f"({c})*[{p},{q}]" for (p, q), c in items) or "0"))
        sitems = sorted(H.antipode[i].items())
        lines.append("antipode %d: %s" % (
            i, " + ".join(f"({c})*[{l}]" for l, c in sitems) or "0"))
    return "\n".join(lines)
