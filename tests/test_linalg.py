"""The sparse-vector kernel: {key: coeff} dicts that never store a zero,
in every scalar domain of the package."""

import random
from fractions import Fraction

import pytest

from hopfs3.linalg import (_components, add_into, linear, rank, rref,
                           span_equal, vec_add, vec_scale, vec_tensor)
from hopfs3.scalars import MultiPoly, OMEGA, NeedsSpecialization

A1, A2 = MultiPoly.gens("a1", "a2")

# (name, c, d) with c + d != 0 and c + (-c) == 0
DOMAINS = [
    ("int", 3, 4),
    ("Fraction", Fraction(2, 3), Fraction(-1, 6)),
    ("MultiPoly", A1, A2 - 1),
    ("Cyclotomic3", OMEGA, OMEGA * OMEGA),
]


@pytest.mark.parametrize("name,c,d", DOMAINS, ids=[n for n, *_ in DOMAINS])
class TestZeroFree:
    def test_add_into_drops_cancelled_key(self, name, c, d):
        acc = {"x": c, "y": d}
        add_into(acc, "x", -c)
        assert acc == {"y": d}
        add_into(acc, "z", -c)
        add_into(acc, "z", c)
        assert acc == {"y": d}

    def test_add_into_keeps_nonzero_sum(self, name, c, d):
        acc = {"x": c}
        add_into(acc, "x", d)
        assert acc == {"x": c + d}

    def test_vec_add_drops_cancelled_key(self, name, c, d):
        u = {"x": c, "y": d}
        assert vec_add(u, {"x": -c}) == {"y": d}
        assert vec_add(u, vec_scale(-1, u)) == {}
        assert u == {"x": c, "y": d}

    def test_linear_drops_cancelled_key(self, name, c, d):
        # f(a) and f(b) share the key "k" with opposite coefficients
        f = {"a": {"k": c, "m": d}, "b": {"k": -c}}.__getitem__
        assert linear(f, {"a": 1, "b": 1}) == {"m": d}
        assert linear(f, {"a": d, "b": d}) == {"m": d * d}

    def test_vec_scale_by_zero(self, name, c, d):
        assert vec_scale(c - c, {"x": d}) == {}
        assert vec_scale(c, {"x": d}) == {"x": c * d}


def test_vec_tensor_pairs_keys():
    u = {"a": 2, "b": -1}
    v = {"x": Fraction(1, 2)}
    assert vec_tensor(u, v) == {("a", "x"): 1, ("b", "x"): Fraction(-1, 2)}
    assert vec_tensor(u, {}) == {}


@pytest.mark.parametrize("a, b, equal", [
    ([[1, 0], [0, 1]], [[1, 1], [1, -1]], True),
    ([[1, 2, 3]], [[2, 4, 6], [0, 0, 0]], True),
    ([[1, 0, 0]], [[0, 1, 0]], False),
    ([[1, 0, 0], [0, 1, 0]], [[1, 1, 0]], False),
    ([], [[0, 0]], True),
    ([[Fraction(1, 3), 1]], [], False),
])
def test_span_equal(a, b, equal):
    # equal spans exactly when rank a = rank b = rank of both together
    assert span_equal(a, b) is equal
    assert span_equal(b, a) is equal


def seeded_int_matrix(rng: random.Random) -> list:
    """An m x n int matrix of rank at most r: a product of m x r and r x n
    factors, some of it zeroed out, or sparse noise."""
    m, n = rng.randint(1, 8), rng.randint(1, 8)
    if rng.random() < 0.25:
        return [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)]
                for _ in range(m)]
    r = rng.randint(0, min(m, n))
    left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(m)]
    right = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            if r else [0] * n for row in left]


def test_int_rank_matches_rref():
    # the fraction-free rank of an int matrix against rref's, which works
    # in Fractions, on 600 seeded matrices; most are rank-deficient
    rng = random.Random(31)
    deficient = 0
    for _ in range(600):
        rows = seeded_int_matrix(rng)
        expected = len(rref(rows)[0])
        deficient += expected < min(len(rows), len(rows[0]))
        assert rank(rows) == expected, rows
        assert rank([[Fraction(c) for c in row] for row in rows]) == expected
    assert deficient > 300


def test_rank_needs_specialization_on_a_nonconstant_pivot():
    # a1 can be neither inverted nor taken for zero, so the rank of
    # [[a1, 0], [0, 1]] is 2 or 1 as a1 is; a constant polynomial pivots
    with pytest.raises(NeedsSpecialization):
        rank([[A1, 0], [0, 1]])
    assert rank([[A1 * 0 + 2, A1], [0, 1]]) == 2


def test_int_rank_leaves_its_input():
    rows = [[2, 4], [1, 2]]
    assert rank(rows) == 1
    assert rows == [[2, 4], [1, 2]]


def block_diagonal(rng: random.Random, blocks: int) -> list:
    """Seeded int blocks on the diagonal, with zero rows added and the
    rows and columns shuffled."""
    parts = [seeded_int_matrix(rng) for _ in range(blocks)]
    width = sum(len(b[0]) for b in parts)
    rows, col = [], 0
    for b in parts:
        rows += [[0] * col + r + [0] * (width - col - len(r)) for r in b]
        col += len(b[0])
    rows += [[0] * width for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    cols = list(range(width))
    rng.shuffle(cols)
    return [[r[j] for j in cols] for r in rows]


def test_component_rank_matches_rref():
    # the rank summed over the support's components against rref's of
    # the whole matrix, on 200 seeded block-diagonal matrices, as ints and
    # as Fractions with seeded denominators
    rng = random.Random(2027)
    split = 0
    for _ in range(200):
        rows = block_diagonal(rng, rng.randint(1, 3))
        split += len(_components(rows)) > 1
        assert rank(rows) == len(rref(rows)[0]), rows
        fractions = [[Fraction(c, rng.randint(1, 7)) for c in r]
                     for r in rows]
        assert rank(fractions) == len(rref(fractions)[0]), fractions
    assert split > 100


def test_components_of_the_support():
    # rows meet through a shared nonzero column, also through a later row;
    # zero rows and zero columns lie in no block
    rows = [[1, 0, 0, 2], [0, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 4],
            [5, 0, 0, 0]]
    assert sorted(_components(rows)) == [[[1, 2], [0, 4], [5, 0]], [[3]]]
    chained = [[1, 0, 0], [0, 2, 0], [0, 0, 3], [4, 5, 6]]
    assert _components(chained) == [chained]
    assert _components([[0, 0], [0, 0]]) == [] and rank([[0, 0]]) == 0
    single = [[1, 2], [3, 4]]
    assert _components(single) == [single] and rank(single) == 2


def test_rank_needs_specialization_in_its_own_component():
    # a nonconstant entry alone in its component cannot pivot, whatever
    # the other components hold; beside a constant pivot it need not
    with pytest.raises(NeedsSpecialization):
        rank([[1, 1, 0], [1, 2, 0], [0, 0, A1]])
    with pytest.raises(NeedsSpecialization):
        rank([[2, 0], [0, A1 + 1]])
    assert rank([[1, A1, 0], [0, 1, 0], [0, 0, 3]]) == 3
