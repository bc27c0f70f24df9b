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
from itertools import chain
from operator import countOf

from .coalg import (matrix_coefficients, skew_primitive_closed_form,
                    skew_primitive_defect)
from .groups import Perm, builtin_irreps, identity
from .linalg import add_into, linear, rank, vec_add, vec_scale, vec_tensor
# sigma is not called here, but perfbench's tracer test pins this import
from .rewrite import (GENERATORS, MultTable, X12, X13, X23, _full_tail,
                      default_rules, format_smash, sigma, structure_constants,
                      sweep_scalars)
from .scalars import Kronecker, NeedsSpecialization, encoder
from .ydmod import v3


class Algebra:
    """A_[a1,a2] as an algebra: the product table and its basis, the
    rules' group S_n, V, the counit and S, all built here, and Delta on
    F_0 = k^{S_n}.  What the lemma checks read; Hopf72 adds Delta."""

    def __init__(self, a1, a2, table: MultTable):
        self.a1 = a1
        self.a2 = a2
        self.table = table
        self.labels = table.labels
        self.index = table.index
        self.dim = table.dim
        # the rules' group S_n, its identity, and V = v3(n) on the x_t
        self.n = table.rules.n
        self.group = list(table.rules.group)
        self.e = identity(self.n)
        self.V = V = v3(self.n)
        self.counit = [1 if (not w and g == self.e) else 0
                       for (w, g) in self.labels]
        # lambda(x_t) = sum c delta_h (x) x_u, the coaction of V over k^{S_n}
        self._gen_antipode = {t: self._antipode_generator(V.coaction[t])
                              for t in V.labels}
        self.antipode = [self.word_antipode(w, g) for (w, g) in self.labels]

    # -- element helpers -------------------------------------------------

    def unit(self) -> dict:
        return {self.index[((), g)]: 1 for g in self.group}

    def delta_elt(self, g: Perm) -> dict:
        return {self.index[((), g)]: 1}

    def x_elt(self, t: Perm) -> dict:
        return {self.index[((t,), g)]: 1 for g in self.group}

    def from_smash(self, x: dict) -> dict:
        return {self.index[wg]: c
                for wg, c in self.table.rules.reduce(x).items()}

    def mult(self, x: dict, y: dict) -> dict:
        return self.table.mult(x, y)

    def S(self, x: dict) -> dict:
        return linear(self.antipode.__getitem__, x)

    def group_comult(self, g: Perm) -> dict:
        """Delta(delta_g) = sum_t delta_t (x) delta_{t^-1 g}, the Delta of
        F_0 = k^{S_n}, which takes no product on A (x) A."""
        return {(self.index[((), t)], self.index[((), t.inv() * g)]): 1
                for t in self.group}

    # -- the antipode on words -------------------------------------------

    def _antipode_generator(self, coaction: dict) -> dict:
        """S(x_t) = -S(x_(-1)) x_(0) = -sum c delta_{h^-1} x_u, and
        delta_{h^-1} x_u = x_u delta_{u h^-1}."""
        out: dict = {}
        for (h, u), c in coaction.items():
            add_into(out, self.index[((u,), u * h.inv())], -c)
        return out

    def word_antipode(self, w, g: Perm) -> dict:
        """S(w delta_g) = delta_{g^-1} S(x_tn) ... S(x_t1) in A, for any
        word w = x_t1 ... x_tn, reduced or not."""
        acc = self.delta_elt(g.inv())
        for t in reversed(w):
            acc = self.mult(acc, self._gen_antipode[t])
        return acc


class Hopf72(Algebra):
    """A_[a1,a2] as a Hopf algebra: the given Algebra, whose table,
    counit, V and S it shares, with Delta(e_i) of every basis element,
    all built here from the generators' Delta through one word_comult
    memo."""

    def __init__(self, algebra: Algebra):
        vars(self).update(vars(algebra))
        # every row of the table compiled for the join: left legs scaled
        # by dim, right legs by 1
        self._rows = self._compiled(self.dim), self._compiled(1)
        self._gen_comult = {t: self.joined(self._comult_generator(t, c))
                            for t, c in self.V.coaction.items()}
        memo: dict = {}
        self.comult = [self.word_comult(w, g, memo) for (w, g) in self.labels]
        # the products on A (x) A that building Delta took
        self.stats = {"tensor_mults": len(memo)}

    def delta(self, x: dict) -> dict:
        return linear(self.comult.__getitem__, x)

    def weighted(self):
        """As MultTable.weighted for the table: ((i, p, q), c,
        |w_i| - |w_p| - |w_q|) for [p, q] in Delta(e_i), then ((i, l), c,
        |w_i| - |w_l|) for e_l in S(e_i)."""
        n = self.table.grading
        return chain((((i, p, q), c, n[i] - n[p] - n[q])
                      for i, d in enumerate(self.comult)
                      for (p, q), c in d.items()),
                     (((i, l), c, n[i] - n[l])
                      for i, a in enumerate(self.antipode)
                      for l, c in a.items()))

    def packed(self, layout) -> "Hopf72":
        """A copy whose product table, Delta and S on the basis hold
        layout-encoded coefficients, each distinct one encoded once, or
        its own when there is no layout (Kronecker.fit found a value it
        cannot pack); each Delta(e_i) is Joined on the rows of the copy's
        own table.  The copy has no word maps, which would read the
        generators' maps unencoded."""
        out = copy.copy(self)
        del out._gen_comult, out._gen_antipode
        if layout is not None:
            out.table = self.table.packed(layout)
            out._rows = out._compiled(out.dim), out._compiled(1)
            encode = encoder(layout)
            out.comult, out.antipode = (
                [{key: encode(c) for key, c in x.items()} for x in maps]
                for maps in (self.comult, self.antipode))
        out.comult = [out.joined(d) for d in out.comult]
        return out

    # -- tensor square arithmetic ----------------------------------------

    def _grouped(self, x: dict, code: list) -> dict:
        """The terms (p, q, c) of x by code[p], code[q]: tails or tags."""
        out: dict = {}
        order = len(self.group)
        for (p, q), c in x.items():
            out.setdefault(code[p] * order + code[q], []).append((p, q, c))
        return out

    def _compiled(self, scale: int) -> list:
        """[e_p e_r as a tuple of (l * scale, c), for every r] for every p."""
        return [[tuple([(l * scale, c) for l, c in e.items()]) if e else ()
                 for e in row] for row in self.table.rows]

    def joined(self, x: dict) -> "Joined":
        """x as a factor of tensor_mult, its legs on the compiled rows."""
        left, right = self._rows
        out = Joined(x)
        tails = self.table.tails
        out.by_tails = {key: [(left[p], right[q], c) for p, q, c in terms]
                        for key, terms in self._grouped(x, tails).items()}
        out.by_tags = self._grouped(x, self.table.tags)
        return out

    def join_into(self, acc: dict, x: dict, y: dict) -> dict:
        """Add the product x y on A (x) A into acc, as a join, and return
        acc: the terms of x, grouped by the tails of their two legs, meet
        only the terms of y whose legs carry the same tail-compat tags,
        which are exactly the pairs of terms whose product can be
        non-zero.  Each term of x brings its legs' compiled rows (joined),
        from which e_p e_r (x) e_q e_s is summed on int keys l * dim + m;
        acc is left unpruned, so sums that cancel keep their key."""
        xb = (x if isinstance(x, Joined) else self.joined(x)).by_tails
        yb = (y.by_tags if isinstance(y, Joined)
              else self._grouped(y, self.table.tags))
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
        return acc

    def tensor_mult(self, x: dict, y: dict) -> dict:
        """Componentwise product on A (x) A: the join of join_into, its
        zero sums pruned once at the end, keyed (p, q) again."""
        return {divmod(pq, self.dim): c
                for pq, c in self.join_into({}, x, y).items() if c}

    # -- generator structure maps ----------------------------------------

    def _comult_generator(self, t: Perm, coaction: dict) -> dict:
        """Delta(x_t) = x_t (x) 1 + x_(-1) (x) x_(0), the bosonization of
        the coaction sum c delta_h (x) x_u of x_t."""
        out = vec_tensor(self.x_elt(t), self.unit())
        for (h, u), c in coaction.items():
            out.update(vec_tensor({self.index[((), h)]: c}, self.x_elt(u)))
        return out

    def word_comult(self, w, g: Perm, memo: dict) -> dict:
        """Delta(w delta_g) = Delta(x_t1) Delta(x_t2 ... x_tn delta_g) in
        A (x) A, for any word w = x_t1 ... x_tn, reduced or not.  memo, for
        one build or verify_hopf_ideal run, keeps Delta(v delta_g) of each
        suffix v under (v, g); Delta(x_t) is the algebra's own, joined,
        and Delta(delta_g) is group_comult."""
        if not w:
            return self.group_comult(g)
        if (w, g) not in memo:
            memo[w, g] = self.tensor_mult(self._gen_comult[w[0]],
                                          self.word_comult(w[1:], g, memo))
        return memo[w, g]


class Joined(dict):
    """An A (x) A element grouped for tensor_mult by Hopf72.joined, by its
    legs' tails (with their rows) and tags.  Not to be changed after."""
    __slots__ = ("by_tails", "by_tags")


def build(a1, a2, table: MultTable = None) -> Algebra:
    """The algebra at (a1, a2) on the given product table, by default the
    table of default_rules(a1, a2)."""
    if table is None:
        table = structure_constants(default_rules(a1, a2))
    return Algebra(a1, a2, table)


def build_check(H: Hopf72) -> dict:
    """The built maps on the unit and through the counit: Delta(1) =
    1 (x) 1, eps(1) = 1, S(1) = 1, and eps(e_i e_k) = eps(e_i) eps(e_k)
    on every basis pair (i, k), a bialgebra axiom that the Hopf-axiom
    sweep does not test."""
    one = H.unit()

    def counit(x):
        return sum(c * H.counit[l] for l, c in x.items() if H.counit[l])

    failures = [(what,) for what, ok in (
        ("comult_unit", H.delta(one) == vec_tensor(one, one)),
        ("counit_unit", counit(one) == 1),
        ("antipode_unit", H.S(one) == one)) if not ok]
    failures += [("counit_mult", i, k) for i, row in enumerate(H.table.rows)
                 for k, e in enumerate(row)
                 if (counit(e) if e else 0) != H.counit[i] * H.counit[k]]
    return {"failures": failures, "ok": not failures}


# -- axiom verification -----------------------------------------------------

def axiom_layout(H: Hopf72):
    """The layout of verify_hopf_axioms, fitted to the product table,
    Delta, S and the constant 1 (unit, counit), each at its weight
    (Hopf72.weighted): a Kronecker packing over Q[a1, a2] when every
    value is graded (Kronecker.fit), else None, as on rescaled rules
    (rewrite.rescaled), whose values are numbers and go unfitted.

    With D, R and A the most terms of a Delta(e_i), a product e_i e_k and
    an S(e_i): a product in Delta(e_i) Delta(e_k) has four factors, and
    the difference of a basis pair sums at most D^2 R^2 of them (the
    join only skips products that are structurally zero, and only final
    sums are tested for 0) and R D two-factor terms of -Delta(e_i e_k),
    within the bound of a difference of two accumulators of D^2 R^2
    summands; the antipode convolutions sum at most D A R products of
    three factors (c, S, row); coassociativity (D^2 summands) stays
    below both."""
    if H.table.rules.scale:
        return None
    rows = H.table.rows
    most_d = max(map(len, H.comult))
    most_r = max(len(e) for row in rows for e in row)
    most_a = max(map(len, H.antipode))
    weighted = [(c, n) for _key, c, n in chain(H.table.weighted(),
                                                H.weighted())]
    summands = max(most_d * most_d * most_r * most_r,
                   most_d * most_a * most_r)
    return Kronecker.fit(weighted + [(1, 0)], 4, summands)


def verify_hopf_axioms(H: Hopf72) -> dict:
    """Coassociativity, counit, antipode and multiplicativity of Delta,
    all by exact scalar comparison on every basis element and every
    basis pair.  The sweep is exact: Kronecker-packed over Q[a1, a2]
    when every value is graded (axiom_layout), otherwise on the values
    as they are (at a rational point, ints on the CLI's rules, rescaled
    once by rewrite.rescaled).

    Coassociativity and the counit are read off the rows flat[l] of
    Delta(e_l) on int keys p * dim + q (_coassociative, _counital), the
    antipode off the table's rows (_antipodal), one e_i at a time.

    Each basis pair (i, k) gives one difference on the same int keys,
    seeded with -Delta(e_i e_k) from the Delta(e_l) compiled once, to
    which Hopf72.join_into adds Delta(e_i) Delta(e_k); the pair passes
    when every sum is 0.  The join is hoisted to the row: from an index
    of the tag keys of every Delta(e_k), each i finds once the k whose
    Delta(e_k) meets Delta(e_i).  For every other k each term product
    of Delta(e_i) Delta(e_k) is structurally zero (as in join_into), so
    the pair is settled by e_i e_k alone, which must then be 0.
    terms_compared counts the terms of every Delta(e_i e_k), which is
    those of Delta(e_i) Delta(e_k) wherever the pair passes; stats
    counts the pairs joined and those settled by the row.  The first
    comult_mult failure (i, k) is kept, and its witness formed by H's
    own maps (_format_witness), not read back from the packing.  The
    report names its scalars by sweep_scalars, as check_associativity."""
    layout = axiom_layout(H)
    P = H.packed(layout)
    dim = P.dim
    flat = [tuple([(p * dim + q, c) for (p, q), c in d.items()])
            for d in P.comult]
    failures = []
    first = None

    for i in range(dim):
        if not _coassociative(flat, i, dim):
            failures.append(("coassoc", i))
        if not _counital(flat, P.counit, i, dim):
            failures.append(("counit", i))
        if not _antipodal(P, i):
            failures.append(("antipode", i))

    by_tag: dict = {}
    for k, d in enumerate(P.comult):
        for key in d.by_tags:
            by_tag.setdefault(key, []).append(k)
    joined = by_row = terms_compared = 0
    for i, (d, row) in enumerate(zip(P.comult, P.table.rows)):
        met = set(chain.from_iterable(by_tag.get(key, ())
                                      for key in d.by_tails))
        joined += len(met)
        by_row += dim - len(met)
        for k, e in enumerate(row):
            if not e and k not in met:
                continue
            diff: dict = {}
            get = diff.get
            for l, c in e.items():
                for pq, cd in flat[l]:
                    diff[pq] = get(pq, 0) - c * cd
            terms_compared += len(diff) - countOf(diff.values(), 0)
            if k in met:
                P.join_into(diff, d, P.comult[k])
            if any(diff.values()):
                failures.append(("comult_mult", i, k))
                first = first or (i, k)

    return {"basis_checked": dim, "pairs_checked": joined + by_row,
            "delta_terms": sum(map(len, P.comult)),
            "terms_compared": terms_compared,
            "scalars": sweep_scalars(layout, P.table),
            "witness": first and _format_witness(H, *first),
            "failures": failures, "ok": not failures,
            "stats": {"pairs_joined": joined, "pairs_by_row": by_row}}


def _coassociative(flat: list, i: int, dim: int) -> bool:
    """(Delta (x) id) Delta == (id (x) Delta) Delta on e_i, from the rows
    flat[l] of Delta(e_l) on int keys p * dim + q: both sides are summed
    on the keys (p * dim + q) * dim + r of [p, q, r] into one difference,
    which must vanish."""
    diff: dict = {}
    get = diff.get
    for pq, c in flat[i]:
        p, q = divmod(pq, dim)
        for left, c2 in flat[p]:
            key = left * dim + q
            diff[key] = get(key, 0) + c * c2
        base = p * dim * dim
        for right, c2 in flat[q]:
            diff[base + right] = get(base + right, 0) - c * c2
    return not any(diff.values())


def _counital(flat: list, counit: list, i: int, dim: int) -> bool:
    """(eps (x) id) Delta == id == (id (x) eps) Delta on e_i, from the
    rows of Delta on int keys p * dim + q."""
    left: dict = {}
    right: dict = {}
    for pq, c in flat[i]:
        p, q = divmod(pq, dim)
        if counit[p]:
            add_into(left, q, counit[p] * c)
        if counit[q]:
            add_into(right, p, counit[q] * c)
    return left == right == {i: 1}


def _antipodal(H: Hopf72, i: int) -> bool:
    """sum c S(e_p) e_q == eps(e_i) 1 == sum c e_p S(e_q) over the terms
    c [p, q] of Delta(e_i), each side summed from the table's rows into
    one difference, seeded with -eps(e_i) 1, which must vanish."""
    rows, antipode = H.table.rows, H.antipode
    left = dict.fromkeys(H.unit(), -H.counit[i])
    right = dict(left)
    for (p, q), c in H.comult[i].items():
        for l, cs in antipode[p].items():
            for m, cm in rows[l][q].items():
                left[m] = left.get(m, 0) + c * cs * cm
        for l, cs in antipode[q].items():
            for m, cm in rows[p][l].items():
                right[m] = right.get(m, 0) + c * cs * cm
    return not (any(left.values()) or any(right.values()))


def _format_witness(H: Hopf72, i: int, k: int) -> str:
    """Delta(e_i e_k) - Delta(e_i) Delta(e_k) by H's own delta and
    tensor_mult, decoded by the table's rules: its coefficient at [p, q]
    at weight |w_i| + |w_k| - |w_p| - |w_q|."""
    n, decode = H.table.grading, H.table.rules.decode
    diff = vec_add(H.delta(H.table.rows[i][k]),
                   vec_scale(-1, H.tensor_mult(H.comult[i], H.comult[k])))
    terms = " + ".join(f"({decode(c, n[i] + n[k] - n[p] - n[q])})*[{p},{q}]"
                       for (p, q), c in sorted(diff.items()))
    return f"Delta(e{i} e{k}) - Delta(e{i}) Delta(e{k}) = {terms}"


def coideal_elements(a1, a2) -> list:
    """The relations in the paper's form that no rule states verbatim:
    the two c-relations and the sum of squares."""
    out = []
    for i, (t, y) in enumerate(zip((X13, X23),
                                   skew_primitive_closed_form((a1, a2)))):
        # c_i - y_i, with c_i = x_t^2 - x12^2 and y_i the closed form
        elt = _full_tail(((t, t), 1), ((X12, X12), -1))
        for g, c in y.items():
            add_into(elt, ((), g), -c)
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
        if r.get(((), H.e), 0):
            failures.append((name, "counit"))
        if H.from_smash(r):
            failures.append((name, "not in kernel"))
        if linear(lambda wg: H.word_comult(*wg, memo), r):
            failures.append((name, "comult not in I(x)A + A(x)I"))
        if linear(lambda wg: H.word_antipode(*wg), r):
            failures.append((name, "antipode not in I"))
    return {"elements": len(elements), "failures": failures,
            "ok": not failures, "stats": {"word_comults": len(memo)}}


def c_identity(H: Hopf72) -> dict:
    """The matrix-coefficient identities pinning the parameters:
    x13^2 - x12^2 = a1 - a1 e11 - a2 e12 and
    x23^2 - x12^2 = a2 - a1 e21 - a2 e22 in A, plus the comultiplication
    shape Delta(cb_i) = cb_i (x) 1 + sum_j e_ij (x) cb_j."""
    failures = []
    values = coideal_elements(H.a1, H.a2)[:2]
    for i, (_name, rel) in enumerate(values):
        if H.from_smash(rel):
            failures.append((f"c{i + 1}", "value"))
    cbar = [H.from_smash(_full_tail(((t, t), 1), ((X12, X12), -1)))
            for t in (X13, X23)]
    for i, defect in enumerate(skew_primitive_defect(H, cbar)):
        if defect:
            failures.append((f"c{i + 1}", "comult shape"))
    return {"values": len(values), "comult_shapes": len(cbar),
            "failures": failures, "ok": not failures}


# -- filtration, adjoint pieces, structural lemmas --------------------------

# the basis indices of F_n whose ad-delta eigenvalue is g
IsotypicPiece = namedtuple("IsotypicPiece", "g n members")


def adjoint_grading_failures(H: Algebra, tags: dict, right: bool = False):
    """Every (i, h, image) over the basis indices i in tags where the
    adjoint action of delta_h, x -> sum y1 x S(y2) (x -> sum S(y1) x y2
    when right is set), is not [h == tags[i]] times the identity on e_i.
    Delta(delta_h) is Algebra.group_comult, which takes no product on
    A (x) A.  Each image sums c e_p e_i e_m, over the terms of its legs
    a (x) b, from the table's rows into one dict, pruned of its zeros."""
    rows, failures = H.table.rows, []
    legs = {h: [(p, ca * cb, m)
                for (x, y), c in H.group_comult(h).items()
                for a, b in [(H.S({x: c}), {y: 1}) if right
                             else ({x: c}, H.S({y: 1}))]
                for p, ca in a.items() for m, cb in b.items()]
            for h in H.group}
    for i, tag in tags.items():
        for h, terms in legs.items():
            img: dict = {}
            for p, c, m in terms:
                for l, c1 in rows[p][i].items():
                    for r, c2 in rows[l][m].items():
                        img[r] = img.get(r, 0) + c * c1 * c2
            img = {r: c for r, c in img.items() if c}
            if img != ({i: 1} if h == tag else {}):
                failures.append((i, h, img))
    return failures


def adjoint_isotypics(H: Algebra, n: int) -> tuple:
    """Decompose F_n = span{w delta_g : |w| <= n} into the ad-delta
    eigencomponents, e_i in the piece of sigma(w_i)^-1.  Returns the
    pieces and, as text, every (i, h) where applying ad delta_h to the
    member e_i breaks the grading."""
    tags = {i: H.table.sigmas[w].inv() for i, (w, _g) in enumerate(H.labels)
            if H.table.grading[i] <= n}
    pieces: dict = {}
    for i, tag in tags.items():
        pieces.setdefault(tag, []).append(i)
    failures = [f"ad delta_{h} not diagonal on basis {i}: image {img}"
                for i, h, img in adjoint_grading_failures(H, tags)]
    return ([IsotypicPiece(g, n, members)
             for g, members in sorted(pieces.items())], failures)


def lemma31_suite(H: Algebra) -> dict:
    """The structural property suite of the degree filtration."""
    failures = []
    n = H.table.grading
    sig = H.table.sigmas
    tags = {i: sig[w].inv() for i, (w, g) in enumerate(H.labels)}

    # (a) F_n^g . F_m^h lands in F_{n+m}^{gh}, term by term of e_i e_k
    for i, row in enumerate(H.table.rows):
        for k, e in enumerate(row):
            top, tag = (n[i] + n[k], tags[i] * tags[k]) if e else (0, None)
            for l in e:
                if n[l] > top:
                    failures.append(("filtration-product", i, k))
                if tags[l] != tag:
                    failures.append(("isotypic-product", i, k))

    # (b) delta_h x_t = x_t delta_{t^-1 h} for every pair
    for h in H.group:
        for t in H.V.labels:
            lhs = H.mult(H.delta_elt(h), H.x_elt(t))
            rhs = H.mult(H.x_elt(t), H.delta_elt(t.inv() * h))
            if lhs != rhs:
                failures.append(("commutation", str(h), str(t)))

    # antipode: S is an algebra anti-homomorphism, so it carries the
    # left-adjoint piece F_n^g onto the right-adjoint piece for g^-1;
    # both gradings are verified honestly via the table
    rtags = {i: g.inv() * sig[w] * g for i, (w, g) in enumerate(H.labels)}
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
        failures.append(("antipode-rank", "undecided"))
    if inv_ok is False:
        failures.append(("antipode-rank",))

    # (d) supp F_1 and (e) F_1^e = k^{S_n}
    supp = sorted({tags[i] for i in range(H.dim) if n[i] <= 1})
    if supp != sorted({H.e, *H.V.labels}):
        failures.append(("supp-F1", [str(s) for s in supp]))
    f1e = [i for i in range(H.dim) if n[i] <= 1 and tags[i] == H.e]
    if sorted(f1e) != sorted(H.index[((), g)] for g in H.group):
        failures.append(("F1e",))

    return {"failures": failures, "ok": not failures,
            "antipode_invertible": inv_ok}


def coradical_certificate(H: Hopf72) -> dict:
    """Filtration certificate: F_n = span{w delta_g : |w| <= n}, nested
    and exhausting A, is a coalgebra filtration, and F_0, through H's own
    Delta, is a subcoalgebra isomorphic to k^{S3} splitting into simple
    pieces of ranks (1,1,2).  Together these pin the coradical."""
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

    # F_0 splits as k^G: the matrix coefficients f_ij = sum_g
    # rho(g)_ij delta_g of the irreps rho of G comultiply as
    # Delta(f_ij) = sum_k f_ik (x) f_kj under H's Delta and are a basis
    # of F_0, which fixes Delta on F_0 as that of k^G
    coefficients = []
    for rho in builtin_irreps(H.group):
        f = {ij: {H.index[((), g)]: c for g, c in fij.items()}
             for ij, fij in matrix_coefficients(rho).items()}
        for (i, j), fij in f.items():
            want: dict = {}
            for k in range(1, rho.dim + 1):
                want = vec_add(want, vec_tensor(f[i, k], f[k, j]))
            if H.delta(fij) != want:
                failures.append(("F0-decomposition", rho.name, (i, j)))
        coefficients.extend(f.values())
    f0 = [H.index[((), g)] for g in H.group]
    if len(coefficients) != len(f0) or rank(
            [[f.get(i, 0) for i in f0] for f in coefficients]) != len(f0):
        failures.append(("F0-decomposition", "span"))

    return {"failures": failures, "ok": not failures,
            "conclusion": "coradical = k^{S3} (inside F_0 by the filtration "
                          "bound, all of F_0 by cosemisimplicity)"}


def gr_check(H: Algebra, reference: MultTable) -> dict:
    """The associated graded algebra of the length filtration equals the
    parameter-free algebra: the top-length part of every product e_i e_k
    (length |w_i| + |w_k|) is e_i e_k in reference, the table of
    default_rules(0, 0), which must be graded."""
    table = H.table
    if reference.labels != table.labels:
        return {"products": 0, "failures": [("labels",)], "ok": False}
    n = table.grading
    failures = []
    pairs = [(i, k) for i in range(table.dim)
             for k in table.followers[i]]
    for i, k in pairs:
        (w1, _g1), (w2, h) = table.labels[i], table.labels[k]
        top = n[i] + n[k]
        row0 = reference.rows[i][k]
        if any(n[l] != top for l in row0):
            failures.append(("graded0", w1, w2, str(h)))
        if ({l: c for l, c in table.rows[i][k].items() if n[l] == top}
                != {l: c for l, c in row0.items() if n[l] == top}):
            failures.append(("top-part", w1, w2, str(h)))
    return {"products": len(pairs), "failures": failures,
            "ok": not failures}


def dump_tables(H: Hopf72) -> str:
    """Deterministic text dump of the three structure tables, in the
    basis of the unrescaled rules: a coefficient of the rules' scale
    is decoded at its weight."""
    table = H.table
    value = table.rules.decode
    # (i, k, l) of the table; (i, p, q) of Delta and (i, l) of S
    mult = {key: value(c, n) for key, c, n in table.weighted()}
    maps = {key: value(c, n) for key, c, n in H.weighted()}
    names = [format_smash({label: 1}) for label in table.labels]
    lines = [f"basis {i}: {name}" for i, name in enumerate(names)]
    # e_i e_k, each factor by its basis name, ordered by (w_i, w_k, g_k)
    products = sorted(((str(w1), *map(str, table.labels[k])), i, k)
                      for i, (w1, _g1) in enumerate(table.labels)
                      for k in table.followers[i])
    for _key, i, k in products:
        row = {table.labels[l]: mult[i, k, l] for l in table.rows[i][k]}
        lines.append(f"mult {names[i]} * {names[k]} = {format_smash(row)}")
    for i in range(H.dim):
        lines.append("comult %d: %s" % (i, " + ".join(
            f"({maps[i, p, q]})*[{p},{q}]"
            for p, q in sorted(H.comult[i])) or "0"))
        lines.append("antipode %d: %s" % (i, " + ".join(
            f"({maps[i, l]})*[{l}]" for l in sorted(H.antipode[i])) or "0"))
    return "\n".join(lines)
