"""Finite-dimensional coalgebras by structure constants.

Coalgebras are given by a basis label list, the comultiplication as a
map ``label -> {(label, label): coeff}`` and the counit as a map
``label -> coeff`` (dicts, or lists when the labels are 0..n-1).
Vectors are sparse dicts ``label -> coeff``.

FinCoalgebra is the one checker of coassociativity and the counit, one
basis element at a time; hopf72.verify_hopf_axioms runs the
72-dimensional algebra through it.  Also here: matrix coalgebras, the
skew-primitive solver used to pin down the deformation parameters, and
the matrix coefficients f_ij of an irrep and their dual basis e_ij, as
vectors over the group; hopf72.coradical_certificate puts the f_ij on the
algebra's F_0 and splits it through the algebra's own Delta.  The
sparse-vector helpers ``vec_add``, ``vec_scale`` and ``vec_tensor`` come
from :mod:`hopfs3.linalg` and are importable from here.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import add_into, linear, nullspace, vec_add, vec_scale, vec_tensor


class CoalgError(ValueError):
    pass


class FinCoalgebra:
    """A coalgebra by structure constants: comult[label] is Delta(label)
    as {(label, label): coeff} and counit[label] is eps(label)."""

    def __init__(self, labels, comult, counit):
        self.labels = list(labels)
        self.comult = comult
        self.counit = counit

    def delta(self, v: dict) -> dict:
        """Comultiplication applied to a vector; result over pair labels."""
        return linear(self.comult.__getitem__, v)

    def coassociative_at(self, label) -> bool:
        """(Delta (x) id) Delta == (id (x) Delta) Delta on the basis
        element label: both sides are summed on 3-tuple keys into one
        difference, which must vanish."""
        comult = self.comult
        diff: dict = {}
        get = diff.get
        for (p, q), c in comult[label].items():
            for (p1, p2), c2 in comult[p].items():
                key = (p1, p2, q)
                diff[key] = get(key, 0) + c * c2
            for (q1, q2), c2 in comult[q].items():
                key = (p, q1, q2)
                diff[key] = get(key, 0) - c * c2
        return not any(diff.values())

    def counit_at(self, label) -> bool:
        """(eps (x) id) Delta == id == (id (x) eps) Delta on the basis
        element label."""
        counit = self.counit
        left: dict = {}
        right: dict = {}
        for (p, q), c in self.comult[label].items():
            if counit[p]:
                add_into(left, q, counit[p] * c)
            if counit[q]:
                add_into(right, p, counit[q] * c)
        return left == right == {label: 1}


class MatrixCoalgebra(FinCoalgebra):
    """Basis e_ij with Delta(e_ij) = sum_k e_ik (x) e_kj, eps(e_ij) = [i==j]."""

    def __init__(self, n: int):
        self.rank_n = n
        labels = [("e", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        comult = {("e", i, j): {(("e", i, k), ("e", k, j)): 1
                                for k in range(1, n + 1)}
                  for i in range(1, n + 1) for j in range(1, n + 1)}
        counit = {("e", i, j): 1 if i == j else 0
                  for i in range(1, n + 1) for j in range(1, n + 1)}
        super().__init__(labels, comult, counit)

    def e(self, i: int, j: int):
        return ("e", i, j)


# -- the skew-primitive solver ----------------------------------------------

def skew_primitive_space(g_label, E: MatrixCoalgebra):
    """Solve Delta(x_i) = x_i (x) g + sum_j e_ij (x) x_j in kg + E.

    Returns (ambient coalgebra, basis of the solution space).  Each basis
    element is a tuple (x_1, ..., x_n) of vectors over the ambient labels,
    found by exact nullspace computation of the full linear system.
    """
    n = E.rank_n
    if g_label in E.comult:
        raise CoalgError(f"label clash: {g_label!r} is a label of E")
    ambient = FinCoalgebra([g_label] + E.labels,
                           {g_label: {(g_label, g_label): 1}, **E.comult},
                           {g_label: 1, **E.counit})
    labels = ambient.labels
    nlab = len(labels)
    lab_index = {l: k for k, l in enumerate(labels)}

    # unknown u[i][b]: coordinate of x_i at ambient basis label b
    nunk = n * nlab
    rows_by_eq: dict = {}

    def bump(eq_key, col, coeff):
        row = rows_by_eq.setdefault(eq_key, [0] * nunk)
        row[col] += coeff

    for i in range(n):
        for b in labels:
            col = i * nlab + lab_index[b]
            # + Delta(b) contribution
            for pair, c in ambient.comult[b].items():
                bump((i, pair), col, c)
            # - x_i (x) g
            bump((i, (b, g_label)), col, -1)
        # - sum_j e_ij (x) x_j
        for j in range(n):
            eij = E.e(i + 1, j + 1)
            for b in labels:
                col = j * nlab + lab_index[b]
                bump((i, (eij, b)), col, -1)

    basis = nullspace(list(rows_by_eq.values()), nunk)
    tuples = []
    for v in basis:
        xs = []
        for i in range(n):
            xs.append({labels[k]: Fraction(v[i * nlab + k])
                       for k in range(nlab) if v[i * nlab + k]})
        tuples.append(tuple(xs))
    return ambient, tuples


def skew_primitive_closed_form(g_label, E: MatrixCoalgebra, a) -> tuple:
    """The tuple x_i = a_i g - sum_j a_j e_ij for given coefficients a."""
    n = E.rank_n
    xs = []
    for i in range(n):
        x = {g_label: a[i]} if a[i] else {}
        for j in range(n):
            if a[j]:
                x = vec_add(x, {E.e(i + 1, j + 1): -a[j]})
        xs.append(x)
    return tuple(xs)


# -- matrix coefficients of an irrep ----------------------------------------

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
