"""Exact linear algebra over the package's scalar domains.

Sparse vectors are ``{key: coeff}`` dicts that never store a zero
coefficient, so two vectors are equal exactly when their dicts are equal
and a vector is zero exactly when its dict is empty.  Every certificate
ends in such a comparison; the kernel below is the one place that keeps
the rule (``pruned`` ends a sum accumulated without ``add_into``).
Products of nonzero scalars are nonzero in every scalar domain of the
package, so scaling and tensoring zero-free vectors needs no pruning.

Row reduction only ever divides by invertible scalars.  Over polynomial
scalars that means nonzero constants: if elimination would require
inverting a nonconstant polynomial, :class:`NeedsSpecialization` is
raised instead of guessing.
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


def pruned(acc: dict, dim: int) -> dict:
    """The non-zero entries of an A (x) A accumulator summed on int keys
    l * dim + m without add_into, keyed (l, m): its one pruning."""
    return {divmod(k, dim): c for k, c in acc.items() if c}


def vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        add_into(out, k, c)
    return out


def vec_scale(c, v: dict) -> dict:
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


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
    if isinstance(x, MultiPoly):
        return bool(x) and x.is_constant()
    return bool(x)


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
    return len(rref(rows)[0])


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
