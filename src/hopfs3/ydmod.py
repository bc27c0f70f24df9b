"""Yetter-Drinfeld modules over a group algebra and over its dual.

Over kG a module here is a G-graded G-module: basis labels carry a degree
in G (the coaction) and each group element acts by an exact matrix, with
the compatibility deg(g.v) = g deg(v) g^-1.  The induced simple modules
are built from a conjugacy-class element and an irrep of its centralizer.

Dualization to k^G follows the pairing with the antipode twist: the k^G
action picks out the inverse degree, the coaction spreads the group
action over the Dirac basis.  The braiding exposed on a dualized module
is the transport of the group-side braiding through this equivalence.
"""

from __future__ import annotations

from .groups import (Perm, centralizer, conjugacy_class, conjugate,
                     coset_representatives, builtin_irreps, identity,
                     symmetric_group, transposition)
from .linalg import linear


class YDError(ValueError):
    pass


class YDModuleOverGroup:
    def __init__(self, elems, labels, degree: dict, action: dict):
        self.elems = sorted(elems)
        self.labels = list(labels)
        self.degree = degree          # label -> Perm
        self.action = action          # Perm -> {(out_label, in_label): coeff}
        self.dim = len(self.labels)

    def act(self, g: Perm, v: dict) -> dict:
        mat = self.action[g]
        return linear(lambda lbl: {o: m for (o, i), m in mat.items()
                                   if i == lbl}, v)

    def act_label(self, g: Perm, lbl) -> dict:
        return self.act(g, {lbl: 1})

    def axiom_failures(self) -> list:
        """Representation property and g.V_h <= V_{ghg^-1}, exhaustively."""
        bad = []
        e = identity(self.elems[0].n)
        for lbl in self.labels:
            if self.act_label(e, lbl) != {lbl: 1}:
                bad.append(f"identity acts nontrivially on {lbl}")
        for g in self.elems:
            for h in self.elems:
                for lbl in self.labels:
                    lhs = self.act(g, self.act_label(h, lbl))
                    rhs = self.act_label(g * h, lbl)
                    if lhs != rhs:
                        bad.append(f"rho({g})rho({h}) != rho({g}{h}) on {lbl}")
        for g in self.elems:
            for lbl in self.labels:
                target = conjugate(self.degree[lbl], g)
                for o, c in self.act_label(g, lbl).items():
                    if c and self.degree[o] != target:
                        bad.append(
                            f"{g}.{lbl} leaves the degree-{target} component")
        return bad

    def braiding(self) -> dict:
        """c(u (x) v) = (deg u).v (x) u on basis pairs; sparse map."""
        c = {}
        for u in self.labels:
            gu = self.degree[u]
            for v in self.labels:
                c[(u, v)] = {(o, u): x for o, x in self.act_label(gu, v).items()}
        return c


def braid_relation_holds(V: YDModuleOverGroup) -> bool:
    """(c x 1)(1 x c)(c x 1) == (1 x c)(c x 1)(1 x c) on all basis triples."""
    c = V.braiding()

    def apply(pos, vec):
        def on_triple(abd):
            a, b, d = abd
            if pos == 0:
                return {(p, q, d): x for (p, q), x in c[(a, b)].items()}
            return {(a, p, q): x for (p, q), x in c[(b, d)].items()}
        return linear(on_triple, vec)

    for a in V.labels:
        for b in V.labels:
            for d in V.labels:
                v = {(a, b, d): 1}
                lhs = apply(0, apply(1, apply(0, v)))
                rhs = apply(1, apply(0, apply(1, v)))
                if lhs != rhs:
                    return False
    return True


def induce(g: Perm, irrep, elems) -> YDModuleOverGroup:
    """M(g, rho): induced from an irrep of the centralizer of g.

    Basis (h_j, i) with h_j the fixed coset representatives (minimal in the
    element order) and i indexing the irrep basis; degree of (h_j, i) is
    t_j = h_j g h_j^-1.
    """
    elems = sorted(elems)
    C = centralizer(g, elems)
    if sorted(irrep.elems) != C:
        raise YDError("irrep is not over the centralizer of g")
    reps = coset_representatives(elems, C)
    rep_of = {}
    for hj in reps:
        for s in C:
            rep_of[hj * s] = hj
    labels = [(hj, i) for hj in reps for i in range(irrep.dim)]
    degree = {(hj, i): conjugate(g, hj) for hj in reps for i in range(irrep.dim)}
    action = {}
    for h in elems:
        mat: dict = {}
        for hj in reps:
            hk = rep_of[h * hj]
            gt = hk.inv() * h * hj          # h h_j = h_k gt, gt in C
            rho = irrep(gt)
            for i in range(irrep.dim):
                for o in range(irrep.dim):
                    coeff = rho[o][i]
                    if coeff:
                        mat[((hk, o), (hj, i))] = coeff
        action[h] = mat
    return YDModuleOverGroup(elems, labels, degree, action)


def v3(n: int = 3) -> YDModuleOverGroup:
    """The module with basis x_ij over the transpositions of S_n:
    degree (ij) and action g.x_ij = sgn(g) x_{g(ij)g^-1}."""
    elems = symmetric_group(n)
    transpositions = sorted(
        {transposition(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)},
        key=str)
    labels = list(transpositions)
    degree = {t: t for t in labels}
    action = {}
    for g in elems:
        sg = g.sign()
        action[g] = {(conjugate(t, g), t): sg for t in labels}
    return YDModuleOverGroup(elems, labels, degree, action)


# -- dual side --------------------------------------------------------------

class YDModuleOverDualGroup:
    """Module over k^G: delta_h acts as the projection onto labels with
    dual degree h; the coaction spreads the kG-action over the deltas."""

    def __init__(self, elems, labels, dual_degree: dict, coaction: dict):
        self.elems = sorted(elems)
        self.labels = list(labels)
        self.dual_degree = dual_degree   # label -> Perm (the h with delta_h.v = v)
        self.coaction = coaction         # label -> {(Perm, label): coeff}
        self.dim = len(self.labels)

    def act_delta(self, h: Perm, v: dict) -> dict:
        return {lbl: c for lbl, c in v.items() if self.dual_degree[lbl] == h}

    def coaction_coassociative(self) -> bool:
        """(Delta (x) id) lambda == (id (x) lambda) lambda, Delta of k^G."""
        for lbl in self.labels:
            lam = self.coaction[lbl]
            lhs = linear(lambda gl: {(t, t.inv() * gl[0], gl[1]): 1
                                     for t in self.elems}, lam)
            rhs = linear(lambda gl: {(gl[0], h, l3): d for (h, l3), d
                                     in self.coaction[gl[1]].items()}, lam)
            if lhs != rhs:
                return False
        return True

    def yd_compatible(self) -> bool:
        """Left-left Yetter-Drinfeld condition over the commutative Hopf
        algebra k^G, checked on every (delta_h, basis vector) pair:
        f_(1) v_(-1) (x) f_(2).v_(0) == (f_(1).v)_(-1) f_(2) (x) (f_(1).v)_(0)."""
        for h in self.elems:
            for lbl in self.labels:
                # f = delta_h, Delta(delta_h) = sum_t delta_t (x) delta_{t^-1 h};
                # pointwise products collapse both sides to projections
                lhs = linear(lambda gl: {
                    (gl[0], l3): d for l3, d
                    in self.act_delta(gl[0].inv() * h, {gl[1]: 1}).items()},
                    self.coaction[lbl])
                t = self.dual_degree[lbl]          # only delta_t keeps v
                rhs = {(g, l2): c
                       for (g, l2), c in self.coaction[lbl].items()
                       if g == t.inv() * h}
                if lhs != rhs:
                    return False
        return True


def dualize(V: YDModuleOverGroup) -> YDModuleOverDualGroup:
    """Turn a kG Yetter-Drinfeld module into one over k^G:
    delta_h . v = [h == deg(v)^-1] v  and  lambda(v) = sum_g delta_g (x) g^-1.v."""
    dual_degree = {lbl: V.degree[lbl].inv() for lbl in V.labels}
    coaction = {}
    for lbl in V.labels:
        coaction[lbl] = {(g, o): c for g in V.elems
                         for o, c in V.act_label(g.inv(), lbl).items()}
    return YDModuleOverDualGroup(V.elems, V.labels, dual_degree, coaction)


def undualize(W: YDModuleOverDualGroup) -> YDModuleOverGroup:
    """Recover the kG-side structure from a dualized module."""
    degree = {lbl: W.dual_degree[lbl].inv() for lbl in W.labels}
    action = {g: {} for g in W.elems}
    for lbl in W.labels:
        for (g, o), c in W.coaction[lbl].items():
            action[g.inv()][(o, lbl)] = c
    return YDModuleOverGroup(W.elems, W.labels, degree, action)


def dual_braiding(W: YDModuleOverDualGroup) -> dict:
    """The braiding carried by a dualized module: the transport of the
    group-side braiding through the (braided) equivalence."""
    return undualize(W).braiding()


def simples_list(elems) -> list:
    """All simple Yetter-Drinfeld modules over kG for G = S3: one per
    (conjugacy class representative, centralizer irrep).  Returns tuples
    (g, irrep, module)."""
    elems = sorted(elems)
    if len(elems) != 6 or elems != symmetric_group(3):
        raise YDError("simples_list supports S3 only")
    seen = set()
    class_reps = []
    for g in sorted(elems, key=str):
        cls = frozenset(conjugacy_class(g, elems))
        if cls not in seen:
            seen.add(cls)
            class_reps.append(min(cls, key=str))
    class_reps.sort(key=lambda g: (len(conjugacy_class(g, elems)), str(g)))
    out = []
    for g in class_reps:
        C = centralizer(g, elems)
        for irr in builtin_irreps(C):
            out.append((g, irr, induce(g, irr, elems)))
    return out
