"""The braided tensor algebra on a Yetter-Drinfeld module.

Elements of T(V) are finite linear combinations of words in the V-basis
labels; the tensor square T(V) (x) T(V) carries the product twisted by
the braiding, and the comultiplication is the algebra map sending every
generator v to v (x) 1 + 1 (x) v.  The handedness of the twist is not
taken on faith: the degree-2 primitivity span check in the test suite
fails if it is flipped.

Words are tuples of basis labels (for the transposition module, the
transpositions themselves).  Length is capped; nothing here needs more
than length 5 but the cap leaves headroom.
"""

from __future__ import annotations

from itertools import combinations

from .groups import symmetric_group, transposition
from .linalg import add_into, linear, nullspace, vec_add, vec_tensor
from .ydmod import v3

WORD_CAP = 8


class WordTooLong(ValueError):
    pass


def _check_cap(word):
    if len(word) > WORD_CAP:
        raise WordTooLong(f"word of length {len(word)} exceeds cap {WORD_CAP}")


def tensor_elt(word, coeff=1) -> dict:
    """A one-term element of T(V)."""
    word = tuple(word)
    _check_cap(word)
    return {word: coeff} if coeff else {}


# -- word-level braiding ----------------------------------------------------

def _cross_letter(c: dict, u, dword: tuple) -> dict:
    """Move the single letter u past the word dword: returns
    {(dword', u'): coeff}."""
    if not dword:
        return {(dword, u): 1}
    out: dict = {}
    head, rest = dword[0], dword[1:]
    for (h2, u2), coeff in c[(u, head)].items():
        for (r2, u3), coeff2 in _cross_letter(c, u2, rest).items():
            add_into(out, ((h2,) + r2, u3), coeff * coeff2)
    return out


def word_cross(c: dict, bword: tuple, dword: tuple) -> dict:
    """The braiding of words: c(b (x) d) = sum coeff d' (x) b'.
    Built from len(b)*len(d) elementary crossings."""
    if not bword:
        return {(dword, bword): 1}
    out: dict = {}
    head, rest = bword[0], bword[1:]
    for (d2, r2), coeff in word_cross(c, rest, dword).items():
        for (d3, h2), coeff2 in _cross_letter(c, head, d2).items():
            add_into(out, (d3, (h2,) + r2), coeff * coeff2)
    return out


# -- the braided tensor square ----------------------------------------------

def braided_square_mult(x: dict, y: dict, c: dict) -> dict:
    """(a (x) b)(d (x) e) = sum a d' (x) b' e over c(b (x) d) = sum d' (x) b'."""
    out: dict = {}
    for (a, b), c1 in x.items():
        for (d, e), c2 in y.items():
            for (d2, b2), coeff in word_cross(c, b, d).items():
                left = a + d2
                right = b2 + e
                _check_cap(left)
                _check_cap(right)
                add_into(out, (left, right), c1 * c2 * coeff)
    return out


def comult(x: dict, c: dict) -> dict:
    """The braided-multiplicative extension of v -> v (x) 1 + 1 (x) v."""
    def on_word(word):
        term = {((), ()): 1}
        for letter in word:
            gen = {((letter,), ()): 1, ((), (letter,)): 1}
            term = braided_square_mult(term, gen, c)
        return term
    return linear(on_word, x)


def is_primitive(x: dict, c: dict) -> bool:
    """Delta(x) == x (x) 1 + 1 (x) x, exactly."""
    expected = vec_add(vec_tensor(x, {(): 1}), vec_tensor({(): 1}, x))
    return comult(x, c) == expected


# -- the quadratic relation space -------------------------------------------

def quadratic_relations(n: int) -> list:
    """Spanning set of the degree-2 relations of the transposition module
    over S_n: squares, anticommutators of disjoint transpositions, and the
    three-term sums over overlapping pairs.  Deduplicated by monomial
    support; every element is primitive."""
    if n not in (3, 4, 5):
        raise ValueError(f"unsupported n={n}")
    symmetric_group(n)  # validates n against the group cap
    transpositions = sorted(
        {transposition(n, i, j) for i in range(1, n + 1)
         for j in range(i + 1, n + 1)}, key=str)
    out = []
    seen = set()

    def push(rel: dict):
        key = frozenset(rel)
        if key not in seen:
            seen.add(key)
            out.append(rel)

    for t in transpositions:
        push(tensor_elt((t, t)))
    for t, s in combinations(transpositions, 2):
        moved_t = {i for i in range(1, n + 1) if t(i) != i}
        moved_s = {i for i in range(1, n + 1) if s(i) != i}
        if moved_t & moved_s:
            continue
        push(vec_add(tensor_elt((t, s)), tensor_elt((s, t))))
    for t in transpositions:
        for s in transpositions:
            if t == s:
                continue
            moved_t = {i for i in range(1, n + 1) if t(i) != i}
            moved_s = {i for i in range(1, n + 1) if s(i) != i}
            if not (moved_t & moved_s):
                continue
            u = t * s * t
            push(vec_add(vec_add(tensor_elt((t, s)), tensor_elt((s, u))),
                         tensor_elt((u, t))))
    return out


def degree2_primitive_basis(n: int = 3):
    """Solve the primitivity condition in degree 2 directly: the kernel of
    1 + c on V (x) V, as a list of TensorAlgElt.  Independent of
    quadratic_relations; the two spans must agree."""
    V = v3(n)
    c = V.braiding()
    pairs = [(u, v) for u in V.labels for v in V.labels]
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    rows = []
    for i, p in enumerate(pairs):
        row = [0] * m
        row[i] += 1
        for q, coeff in c[p].items():
            row[index[q]] += coeff
        rows.append(row)
    # columns index the domain; rows of (1+c) transposed act on coefficient
    # vectors, and 1+c is symmetric in this basis pairing anyway
    cols = [[rows[i][j] for i in range(m)] for j in range(m)]
    basis = []
    for vec in nullspace(cols, m):
        basis.append({pairs[i]: coeff for i, coeff in enumerate(vec) if coeff})
    return basis
