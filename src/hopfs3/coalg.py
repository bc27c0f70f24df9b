"""Finite-dimensional coalgebras by structure constants.

Coalgebras are given by a basis label list, the comultiplication as a
dict ``label -> {(label, label): coeff}`` and the counit as a dict.
Vectors are sparse dicts ``label -> coeff``.

Provides dual group coalgebras k^G, matrix coalgebras, direct sums, the
skew-primitive solver used to pin down the deformation parameters, and
the matrix-coefficient subcoalgebras of k^G.  The coradical certificate
of the 72-dimensional algebra (hopf72.coradical_certificate) compares
its F_0 with DualGroupCoalgebra and splits it with
simple_subcoalgebras_of_dual_group.  The sparse-vector helpers
``vec_add``, ``vec_scale`` and ``vec_tensor`` come from
:mod:`hopfs3.linalg` and are importable from here.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import linear, nullspace, rank, vec_add, vec_scale, vec_tensor


class CoalgError(ValueError):
    pass


class FinCoalgebra:
    def __init__(self, labels, comult: dict, counit: dict):
        self.labels = list(labels)
        self.comult = comult
        self.counit = counit

    @property
    def dim(self) -> int:
        return len(self.labels)

    def delta(self, v: dict) -> dict:
        """Comultiplication applied to a vector; result over pair labels."""
        return linear(self.comult.__getitem__, v)

    def eps(self, v: dict):
        return sum((c * self.counit[label] for label, c in v.items()), 0)

    def check_coassociative(self) -> bool:
        for label in self.labels:
            d = self.comult[label]
            left = linear(lambda ab: {(p, q, ab[1]): c for (p, q), c
                                      in self.comult[ab[0]].items()}, d)
            right = linear(lambda ab: {(ab[0], p, q): c for (p, q), c
                                       in self.comult[ab[1]].items()}, d)
            if left != right:
                return False
        return True

    def check_counit(self) -> bool:
        for label in self.labels:
            d = self.comult[label]
            left = linear(lambda ab: {ab[1]: self.counit[ab[0]]}, d)
            right = linear(lambda ab: {ab[0]: self.counit[ab[1]]}, d)
            if left != {label: 1} or right != {label: 1}:
                return False
        return True


class MatrixCoalgebra(FinCoalgebra):
    """Basis e_ij with Delta(e_ij) = sum_k e_ik (x) e_kj, eps(e_ij) = [i==j]."""

    def __init__(self, n: int, prefix: str = "e"):
        self.rank_n = n
        self.prefix = prefix
        labels = [(prefix, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        comult = {(prefix, i, j): {((prefix, i, k), (prefix, k, j)): 1
                                   for k in range(1, n + 1)}
                  for i in range(1, n + 1) for j in range(1, n + 1)}
        counit = {(prefix, i, j): 1 if i == j else 0
                  for i in range(1, n + 1) for j in range(1, n + 1)}
        super().__init__(labels, comult, counit)

    def e(self, i: int, j: int):
        return (self.prefix, i, j)


class DualGroupCoalgebra(FinCoalgebra):
    """k^G on the Dirac basis; also carries the algebra/antipode structure."""

    def __init__(self, elems):
        self.elems = sorted(elems)
        comult = {h: {(t, t.inv() * h): 1 for t in self.elems} for h in self.elems}
        counit = {h: 1 if h.is_identity() else 0 for h in self.elems}
        super().__init__(self.elems, comult, counit)

    def unit(self) -> dict:
        return {g: 1 for g in self.elems}

    def mult(self, u: dict, v: dict) -> dict:
        return {g: u[g] * v[g] for g in u if g in v}

    def antipode(self, v: dict) -> dict:
        return {g.inv(): c for g, c in v.items()}


def direct_sum(C: FinCoalgebra, D: FinCoalgebra) -> FinCoalgebra:
    clash = set(C.labels) & set(D.labels)
    if clash:
        raise CoalgError(f"label clash in direct sum: {sorted(map(str, clash))}")
    return FinCoalgebra(C.labels + D.labels,
                        {**C.comult, **D.comult},
                        {**C.counit, **D.counit})


def grouplike_coalgebra(label) -> FinCoalgebra:
    """The rank-1 matrix coalgebra k*g on a single group-like."""
    return FinCoalgebra([label], {label: {(label, label): 1}}, {label: 1})


# -- the skew-primitive solver ----------------------------------------------

def skew_primitive_space(g_label, E: MatrixCoalgebra):
    """Solve Delta(x_i) = x_i (x) g + sum_j e_ij (x) x_j in kg + E.

    Returns (ambient coalgebra, basis of the solution space).  Each basis
    element is a tuple (x_1, ..., x_n) of vectors over the ambient labels,
    found by exact nullspace computation of the full linear system.
    """
    n = E.rank_n
    ambient = direct_sum(grouplike_coalgebra(g_label), E)
    labels = ambient.labels
    nlab = len(labels)
    lab_index = {l: k for k, l in enumerate(labels)}
    pair_index = {}
    for a in labels:
        for b in labels:
            pair_index.setdefault((a, b), len(pair_index))

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


# -- matrix-coefficient subcoalgebras of k^G --------------------------------

def matrix_coefficients(irrep) -> dict:
    """f_ij(g) = (i, j) entry of rho(g), as vectors over the Dirac basis."""
    d = irrep.dim
    return {(i, j): {g: irrep(g)[i - 1][j - 1]
                     for g in irrep.elems if irrep(g)[i - 1][j - 1]}
            for i in range(1, d + 1) for j in range(1, d + 1)}


def simple_subcoalgebras_of_dual_group(elems, irreps) -> list:
    """The decomposition of k^G into matrix coalgebras spanned by the
    matrix coefficients of the irreps.  Verifies Delta(f_ij) =
    sum_k f_ik (x) f_kj, independence, and the dimension count."""
    elems = sorted(elems)
    if sum(r.dim ** 2 for r in irreps) != len(elems):
        raise CoalgError("irrep list incomplete: dimension count mismatch")
    kG = DualGroupCoalgebra(elems)
    out = []
    all_vectors = []
    for r in irreps:
        fs = matrix_coefficients(r)
        d = r.dim
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                want: dict = {}
                for k in range(1, d + 1):
                    want = vec_add(want, vec_tensor(fs[(i, k)], fs[(k, j)]))
                if kG.delta(fs[(i, j)]) != want:
                    raise CoalgError(
                        f"matrix coefficients of {r.name} are not coalgebraic")
        out.append((r.name, d, fs))
        all_vectors.extend(fs.values())
    dense = [[v.get(g, 0) for g in elems] for v in all_vectors]
    if rank(dense) != len(elems):
        raise CoalgError("matrix coefficients do not span k^G")
    return out


def dual_basis_e(fs: dict, elems) -> dict:
    """e_ij = S(f_ji) on k^G (S(delta_g) = delta_{g^-1}; involutive here)."""
    out = {}
    d = max(i for i, _ in fs)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            out[(i, j)] = {g.inv(): c for g, c in fs[(j, i)].items()}
    return out
