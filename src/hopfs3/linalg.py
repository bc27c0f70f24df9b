"""Exact linear algebra over the package's scalar domains.

Sparse vectors are ``{key: coeff}`` dicts that never store a zero
coefficient, so two vectors are equal exactly when their dicts are equal
and a vector is zero exactly when its dict is empty.  Every certificate
ends in such a comparison; the kernel below keeps the rule, and so does
``Hopf72.tensor_mult``, which prunes the int-keyed sums of its join.
Products of nonzero scalars are nonzero in every scalar domain of the
package, so scaling and tensoring zero-free vectors needs no pruning.

Row reduction only ever divides by invertible scalars.  Over polynomial
scalars that means nonzero constants: if elimination would require
inverting a nonconstant polynomial, :class:`NeedsSpecialization` is
raised instead of guessing.  A rank sums those of the support's
components, each found fraction-free, by exact divisions, on ints.
"""

from __future__ import annotations

from .scalars import MultiPoly, NeedsSpecialization, field_invert


# -- sparse vectors ---------------------------------------------------------

def add_into(acc: dict, key, c) -> None:
    """acc[key] += c in place, dropping the key when the sum is zero."""
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    elif key in acc:
        del acc[key]


def vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        add_into(out, k, c)
    return out


def vec_scale(c, v: dict) -> dict:
    return {k: c * x for k, x in v.items()} if c else {}


def vec_tensor(u: dict, v: dict) -> dict:
    """u (x) v over pair keys (a, b)."""
    return {(a, b): ca * cb for a, ca in u.items() for b, cb in v.items()}


def linear(f, x: dict) -> dict:
    """The linear extension of f (key -> vector), applied to x."""
    out: dict = {}
    for key, c in x.items():
        for k, v in f(key).items():
            add_into(out, k, c * v)
    return out


# -- dense row reduction ----------------------------------------------------


def _invertible(x) -> bool:
    """Nonzero, and constant if it is a polynomial."""
    return bool(x) and (not isinstance(x, MultiPoly) or x.is_constant())


def rref(rows):
    """Reduced row echelon form.  Returns (reduced nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        stuck = False
        for i in range(r, len(rows)):
            if _invertible(rows[i][col]):
                pivot_row = i
                break
            if rows[i][col]:
                stuck = True
        if pivot_row is None:
            if stuck:
                raise NeedsSpecialization(
                    f"no invertible pivot in column {col}")
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field_invert(rows[r][col])
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows) -> int:
    """The rank, exact: the sum over the blocks of _components, each
    fraction-free on ints (_int_rank), by rref in every other domain."""
    blocks = _components([list(r) for r in rows])
    return sum(_int_rank(b) if all(type(x) is int for r in b for x in r)
               else len(rref(b)[0]) for b in blocks)


def _components(rows: list) -> list:
    """The connected components of the support, rows joined through a
    shared nonzero column, each as the block of its rows and columns."""
    owner: dict = {}            # column -> its component, [rows, columns]
    for i, row in enumerate(rows):
        part = [[i], {j for j, x in enumerate(row) if x}]
        met = {id(owner[j]): owner[j] for j in part[1] if j in owner}
        for other in met.values():
            part[0], part[1] = part[0] + other[0], part[1] | other[1]
        owner.update(dict.fromkeys(part[1], part))
    return [[[rows[i][j] for j in sorted(cols)] for i in sorted(members)]
            for members, cols in {id(p): p for p in owner.values()}.values()]


def _int_rank(rows: list) -> int:
    """The rank of an int matrix by Bareiss elimination, in place: after
    each pivot every entry below it is a minor of the matrix, so the
    division by the previous pivot is exact and no Fraction is made."""
    r = 0
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // prev
                       for a, b in zip(rows[i], pivot)]
        prev = p
        r += 1
        if r == len(rows):
            break
    return r


def nullspace(rows, ncols: int):
    """Basis of the right nullspace of the matrix (list of length-ncols vectors)."""
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def span_equal(a, b) -> bool:
    """Do the rows of a and the rows of b span the same space?  Exact."""
    return rank(a) == rank(b) == rank(list(a) + list(b))
