"""Degree 2 of the tensor algebra T(V) of the transposition module.

Elements of V (x) V are linear combinations of words (u, v) of two basis
labels (the transpositions themselves).  Since
Delta(uv) = uv (x) 1 + (1 + c)(u (x) v) + 1 (x) uv in T(V), an element r
of V (x) V is primitive exactly when (1 + c)(r) = 0; the braiding acts
through `ydmod.braid_at`.
"""

from __future__ import annotations

from itertools import combinations, product

from .groups import transpositions
from .linalg import nullspace, vec_add
from .ydmod import braid_at, v3


def is_primitive(x: dict, c: dict) -> bool:
    """Delta(x) == x (x) 1 + 1 (x) x for x in V (x) V, i.e. (1 + c)(x) == 0."""
    if any(len(w) != 2 for w in x):
        raise ValueError("is_primitive reads degree 2 only")
    return not vec_add(x, braid_at(c, x, 0))


def quadratic_relations(n: int) -> list:
    """Spanning set of the degree-2 relations of the transposition module
    over S_n: squares, anticommutators of disjoint transpositions, and the
    three-term sums over overlapping pairs.  Deduplicated by monomial
    support; every element is primitive."""
    if n not in (3, 4, 5):
        raise ValueError(f"unsupported n={n}")
    letters = transpositions(n)
    out = []
    seen = set()

    def push(rel: dict):
        key = frozenset(rel)
        if key not in seen:
            seen.add(key)
            out.append(rel)

    def overlap(t, s):
        return any(t(i) != i and s(i) != i for i in range(1, n + 1))

    for t in letters:
        push({(t, t): 1})
    for t, s in combinations(letters, 2):
        if not overlap(t, s):
            push({(t, s): 1, (s, t): 1})
    for t in letters:
        for s in letters:
            if t != s and overlap(t, s):
                u = t * s * t
                push({(t, s): 1, (s, u): 1, (u, t): 1})
    return out


def degree2_primitive_basis(n: int = 3) -> list:
    """Solve the primitivity condition in degree 2 directly: a basis of
    the kernel of 1 + c on V (x) V, as {(u, v): coeff} dicts.  Independent
    of quadratic_relations; the two spans must agree."""
    V = v3(n)
    c = V.braiding()
    pairs = list(product(V.labels, repeat=2))
    images = [vec_add({p: 1}, braid_at(c, {p: 1}, 0)) for p in pairs]
    # column i of the matrix of 1 + c is the image of pairs[i]
    matrix = [[image.get(q, 0) for image in images] for q in pairs]
    return [{pairs[i]: x for i, x in enumerate(vec) if x}
            for vec in nullspace(matrix, len(pairs))]
