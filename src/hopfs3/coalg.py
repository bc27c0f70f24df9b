"""The coalgebra k^G on an algebra's F_0 = span{delta_g}.

The matrix coefficients f_ij of an irrep and their dual basis e_ij are
sparse dicts ``g -> coeff`` over the group G; hopf72.coradical_certificate
splits F_0 by the f_ij through the algebra's own Delta.  DUAL_E, the e_ij
of the standard irrep of S3, gives the (1, e_ij)-skew-primitive pairs:
their closed form, which the c-relations of hopf72 read, and the exact
solver on F_0 of an algebra, through that algebra's Delta.  An algebra
here is a hopf72.Hopf72 (its index, group, unit, delta_elt and delta).
"""

from __future__ import annotations

from functools import reduce

from .groups import S3_STANDARD
from .linalg import nullspace, vec_add, vec_scale, vec_tensor


def matrix_coefficients(irrep) -> dict:
    """f_ij(g) = (i, j) entry of rho(g), as vectors over the Dirac basis."""
    d = irrep.dim
    return {(i, j): {g: irrep(g)[i - 1][j - 1]
                     for g in irrep.elems if irrep(g)[i - 1][j - 1]}
            for i in range(1, d + 1) for j in range(1, d + 1)}


def dual_basis_e(fs: dict) -> dict:
    """e_ij = S(f_ji) on k^G (S(delta_g) = delta_{g^-1}; involutive here)."""
    out = {}
    d = max(i for i, _ in fs)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            out[(i, j)] = {g.inv(): c for g, c in fs[(j, i)].items()}
    return out


# the dual basis e_ij of the standard-representation coefficients
DUAL_E = dual_basis_e(matrix_coefficients(S3_STANDARD))


def skew_primitive_closed_form(a) -> tuple:
    """y_i = a_i 1 - sum_j a_j e_ij, i = 1, 2, as vectors {g: c} over S3:
    the (1, e_ij)-skew-primitive pairs of k^{S3}, one for each a, which
    the c-relations equate with x_t^2 - x12^2."""
    return tuple(reduce(vec_add, (vec_scale(-a[j - 1], DUAL_E[i, j])
                                  for j in (1, 2)),
                        {g: a[i - 1] for g in S3_STANDARD.elems if a[i - 1]})
                 for i in (1, 2))


def skew_primitive_defect(H, ys) -> list:
    """Delta(y_i) - y_i (x) 1 - sum_j e_ij (x) y_j in A (x) A, for the pair
    (y_1, y_2) of elements of A and the e_ij of DUAL_E on F_0: all zero
    exactly when the pair is (1, e_ij)-skew-primitive."""
    out = []
    for i, y in enumerate(ys, 1):
        d = vec_add(H.delta(y), vec_scale(-1, vec_tensor(y, H.unit())))
        for j, yj in enumerate(ys, 1):
            e_ij = {H.index[((), g)]: c for g, c in DUAL_E[i, j].items()}
            d = vec_add(d, vec_scale(-1, vec_tensor(e_ij, yj)))
        out.append(d)
    return out


def skew_primitive_space(H) -> list:
    """A basis of the (1, e_ij)-skew-primitive pairs (y_1, y_2) in F_0 of H,
    F_0 = span{delta_g}: the null space of skew_primitive_defect on the
    coordinates of y_1 and y_2 at every delta_g, found exactly by
    linalg.nullspace.  Each pair is given as vectors {g: c} over the
    group, as skew_primitive_closed_form."""
    unknowns = [(i, g) for i in range(2) for g in H.group]
    columns = []
    for i, g in unknowns:
        ys = [{}, {}]
        ys[i] = H.delta_elt(g)
        columns.append({(k, pq): c for k, d in
                        enumerate(skew_primitive_defect(H, ys))
                        for pq, c in d.items()})
    rows = [[column.get(key, 0) for column in columns]
            for key in sorted(set().union(*columns))]
    return [tuple({g: v[u] for u, (k, g) in enumerate(unknowns)
                   if k == i and v[u]} for i in range(2))
            for v in nullspace(rows, len(unknowns))]
