"""Yetter-Drinfeld modules over the dual group algebra k^G.

A module here is a k^G-module given by a dual degree in G on each basis
label (delta_h acts as the projection onto the labels of dual degree h)
and a coaction lambda(v) = sum_g delta_g (x) g^-1.v, exact and sparse.
The G-action and the braiding are read off the coaction; `braid_at` is
the one action of the braiding on words of V^(x)n, at one position.  The
induced simple modules are built from a conjugacy-class element and an
irrep of its centralizer.
"""

from __future__ import annotations

from itertools import product

from .groups import (Perm, centralizer, conjugacy_class, conjugate,
                     coset_representatives, builtin_irreps, identity,
                     symmetric_group, transpositions)
from .linalg import linear


class YDError(ValueError):
    pass


class YDModule:
    def __init__(self, elems, labels, dual_degree: dict, coaction: dict):
        self.elems = sorted(elems)
        self.labels = list(labels)
        self.dual_degree = dual_degree   # label -> Perm (the h with delta_h.v = v)
        self.coaction = coaction         # label -> {(Perm, label): coeff}
        self.dim = len(self.labels)

    def act(self, g: Perm, v: dict) -> dict:
        """g.v, the delta_{g^-1} part of lambda(v)."""
        gi = g.inv()
        return linear(lambda lbl: {o: c for (h, o), c
                                   in self.coaction[lbl].items() if h == gi}, v)

    def axiom_failures(self) -> list:
        """Counit, coassociativity of lambda over
        Delta(delta_h) = sum_t delta_t (x) delta_{t^-1 h}, and the YD
        condition on the dual degrees, on every basis label."""
        bad = []
        e = identity(self.elems[0].n)
        for lbl in self.labels:
            lam = self.coaction[lbl]
            if self.act(e, {lbl: 1}) != {lbl: 1}:
                bad.append(f"counit fails on {lbl}")
            lhs = linear(lambda go: {(t, t.inv() * go[0], go[1]): 1
                                     for t in self.elems}, lam)
            rhs = linear(lambda go: {(go[0], h, o): d for (h, o), d
                                     in self.coaction[go[1]].items()}, lam)
            if lhs != rhs:
                bad.append(f"coaction not coassociative on {lbl}")
            for (g, o), c in lam.items():
                target = conjugate(self.dual_degree[lbl], g.inv())
                if c and self.dual_degree[o] != target:
                    bad.append(f"delta_{g} (x) {o} in lambda({lbl}) "
                               f"leaves dual degree {target}")
        return bad

    def braiding(self) -> dict:
        """c(u (x) v) = deg(u).v (x) u with deg(u) = dual_degree(u)^-1,
        i.e. the delta_{dual_degree(u)} part of lambda(v); sparse map."""
        c = {}
        for u in self.labels:
            gu = self.dual_degree[u].inv()
            for v in self.labels:
                c[(u, v)] = {(o, u): x for o, x in self.act(gu, {v: 1}).items()}
        return c


def braid_at(c: dict, x: dict, j: int) -> dict:
    """c applied to letters j and j+1 of every word of x in V^(x)n, the
    other letters fixed; the one action of the braiding on tensor words."""
    return linear(lambda w: {w[:j] + pq + w[j + 2:]: coeff
                             for pq, coeff in c[w[j:j + 2]].items()}, x)


def braid_relation_failures(V: YDModule) -> list:
    """Every basis triple on which (c x 1)(1 x c)(c x 1) and
    (1 x c)(c x 1)(1 x c) differ."""
    c = V.braiding()
    bad = []
    for abd in product(V.labels, repeat=3):
        lhs = rhs = {abd: 1}
        for j in (0, 1, 0):
            lhs = braid_at(c, lhs, j)
            rhs = braid_at(c, rhs, 1 - j)
        if lhs != rhs:
            bad.append(abd)
    return bad


def induce(g: Perm, irrep, elems) -> YDModule:
    """M(g, rho): induced from an irrep of the centralizer of g.

    Basis (h_j, i) with h_j the fixed coset representatives (minimal in the
    element order) and i indexing the irrep basis; its degree is
    t_j = h_j g h_j^-1, its dual degree t_j^-1, and h.(h_j, i) =
    sum_o rho(gt)[o][i] (h_k, o) where h h_j = h_k gt, gt in the centralizer.
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
    dual_degree = {(hj, i): conjugate(g, hj).inv()
                   for hj in reps for i in range(irrep.dim)}
    coaction = {}
    for hj, i in labels:
        lam = coaction[(hj, i)] = {}
        for h in elems:              # the term delta_h (x) h^-1.(h_j, i)
            hk = rep_of[h.inv() * hj]
            rho = irrep(hk.inv() * h.inv() * hj)
            for o in range(irrep.dim):
                if rho[o][i]:
                    lam[(h, (hk, o))] = rho[o][i]
    return YDModule(elems, labels, dual_degree, coaction)


def v3(n: int = 3) -> YDModule:
    """The module with basis x_ij over the transpositions of S_n: dual
    degree (ij) and lambda(x_t) = sum_g sgn(g) delta_g (x) x_{g^-1 t g}."""
    elems = symmetric_group(n)
    labels = list(transpositions(n))
    dual_degree = {t: t for t in labels}
    coaction = {t: {(g, conjugate(t, g.inv())): g.sign() for g in elems}
                for t in labels}
    return YDModule(elems, labels, dual_degree, coaction)


def simples_list(elems) -> list:
    """All simple Yetter-Drinfeld modules over k^G for G = S3: one per
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
