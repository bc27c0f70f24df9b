"""Small symmetric-group machinery.

Permutations are tuples of images (1-based): ``p[i-1]`` is the image of
``i``.  Composition is right-to-left: ``(p * q)(i) = p(q(i))``, the right
factor acts first.  Elements carry the lexicographic total order of their
image tuples, so every set-valued function below returns a deterministic
sorted list.

Hardcoded irreducible representations are provided for S3 and for its
centralizer subgroups (Z2 and Z3); the Z3 characters live over the
cyclotomic scalars.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations as _itpermutations

from .scalars import OMEGA, Cyclotomic3


class GroupError(ValueError):
    pass


# Every product p * q and inverse p^-1 computed so far, each validated by
# Perm.__new__ once.  They are facts about S_n, not results of a check:
# at most 36 products for S3 and 576 for S4.
_PRODUCTS: dict = {}
_INVERSES: dict = {}


class Perm(tuple):
    """A permutation of {1..n} as its image tuple."""

    def __new__(cls, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise GroupError(f"not a bijection of 1..{len(images)}: {images}")
        return super().__new__(cls, images)

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        prod = _PRODUCTS.get((self, other))
        if prod is None:
            if len(self) != len(other):
                raise GroupError("size mismatch in composition")
            prod = _PRODUCTS[self, other] = Perm(
                self[other[i] - 1] for i in range(len(self)))
        return prod

    def inv(self) -> "Perm":
        inverse = _INVERSES.get(self)
        if inverse is None:
            images = [0] * len(self)
            for i, j in enumerate(self):
                images[j - 1] = i + 1
            inverse = _INVERSES[self] = Perm(images)
        return inverse

    def sign(self) -> int:
        return (-1) ** sum(len(c) - 1 for c in self.cycles())

    def is_identity(self) -> bool:
        return all(self[i] == i + 1 for i in range(len(self)))

    def cycles(self) -> list:
        seen = [False] * len(self)
        out = []
        for i in range(len(self)):
            if seen[i] or self[i] == i + 1:
                seen[i] = True
                continue
            cyc, j = [], i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self[j] - 1
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "e"
        return "".join("(" + "".join(str(i) for i in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return str(self)


def identity(n: int) -> Perm:
    return Perm(range(1, n + 1))


def transposition(n: int, i: int, j: int) -> Perm:
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return Perm(images)


@cache
def transpositions(n: int) -> tuple:
    """The transpositions of S_n, sorted by name: (12), (13), ..."""
    return tuple(sorted((transposition(n, i, j) for j in range(2, n + 1)
                         for i in range(1, j)), key=str))


def parse_perm(text: str, n: int) -> Perm:
    """Parse cycle notation: "e", "(12)", "(123)", "(12)(34)"; the cycles
    must be disjoint."""
    text = text.strip()
    if text in ("e", "()", ""):
        return identity(n)
    images = list(range(1, n + 1))
    cycles = text[1:-1].split(")(")
    if text[0] + text[-1] != "()" or not all(map(str.isdecimal, cycles)):
        raise GroupError(f"bad cycle notation: {text!r}")
    seen = set()
    for cyc in cycles:
        pts = [int(ch) for ch in cyc]
        if len(set(pts)) != len(pts) or any(p < 1 or p > n for p in pts):
            raise GroupError(f"bad cycle {cyc!r} for n={n}")
        if seen & set(pts):
            raise GroupError(f"bad cycle notation: {text!r}")
        seen.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return Perm(images)


def conjugate(g: Perm, by: Perm) -> Perm:
    """by * g * by^-1."""
    return by * g * by.inv()


def symmetric_group(n: int) -> list:
    if n > 5:
        raise GroupError("only S_n with n <= 5 supported")
    return sorted(Perm(p) for p in _itpermutations(range(1, n + 1)))


def conjugacy_class(g: Perm, elems) -> list:
    return sorted({conjugate(g, h) for h in elems})


def centralizer(g: Perm, elems) -> list:
    return sorted(h for h in elems if h * g == g * h)


def coset_representatives(elems, sub) -> list:
    """One representative per left coset gH, minimal in the element order;
    the identity coset comes first."""
    reps, covered = [], set()
    for g in sorted(elems):
        if g not in covered:
            reps.append(g)
            covered.update(g * h for h in sub)
    assert reps[0].is_identity()
    return reps


# ---------------------------------------------------------------------------
# matrices and irreducible representations

class Irrep:
    """An irreducible representation given by explicit matrices."""

    def __init__(self, name: str, elems, matrices: dict):
        self.name = name
        self.elems = sorted(elems)
        self.matrices = matrices
        self.dim = len(next(iter(matrices.values())))

    def __call__(self, g: Perm):
        return self.matrices[g]

    def __repr__(self):
        return f"Irrep({self.name}, dim={self.dim})"


def builtin_irreps(elems) -> list:
    """Irreps for S3, Z2 (any order-2 subgroup) and Z3 (cyclic of order
    3), as permutation subgroups of some S_n."""
    elems = sorted(elems)
    order = len(elems)
    e = next((g for g in elems if g.is_identity()), None)
    if e is None:
        raise GroupError("no identity element")

    if order == 2:
        g = next(h for h in elems if h != e)
        return [
            Irrep("trivial", elems, {e: ((1,),), g: ((1,),)}),
            Irrep("sign", elems, {e: ((1,),), g: ((-1,),)}),
        ]

    if order == 3:
        g = next(h for h in elems if h != e)
        if g * g * g != e:
            raise GroupError("order-3 group is not cyclic?")
        out = []
        for j in range(3):
            chi = Cyclotomic3(1) if j == 0 else OMEGA ** j
            mats = {e: ((Cyclotomic3(1),),), g: ((chi,),), g * g: ((chi * chi,),)}
            out.append(Irrep(f"chi{j}", elems, mats))
        return out

    if order == 6:
        n = elems[0].n
        if n != 3 or elems != symmetric_group(3):
            raise GroupError(f"unsupported group of order {order}")
        trivial = Irrep("trivial", elems, {g: ((1,),) for g in elems})
        sign = Irrep("sign", elems, {g: ((g.sign(),),) for g in elems})
        return [trivial, sign, S3_STANDARD]

    raise GroupError(f"unsupported group of order {order}")


# The standard irrep of S3, g on x1 + x2 + x3 = 0 in the basis (eps2 - eps3,
# eps1 - eps3): rho(g)[r][c] = [g(s_c) = t_r] - [g(3) = t_r], s = t = (2, 1).
# (12) and (123) send eps2 - eps3 to eps1 - eps3 and eps3 - eps1: that is the
# rho(12)e1 = e2 and rho(123)e1 = -e2 that classify.act's orbit labels rest on.
S3_STANDARD = Irrep("standard", symmetric_group(3), {
    g: tuple(tuple((g(s) == t) - (g(3) == t) for s in (2, 1)) for t in (2, 1))
    for g in symmetric_group(3)})
