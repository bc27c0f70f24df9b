"""The sparse-vector kernel: {key: coeff} dicts that never store a zero,
in every scalar domain of the package."""

from fractions import Fraction

import pytest

from hopfs3.linalg import add_into, linear, vec_add, vec_scale, vec_tensor
from hopfs3.scalars import OMEGA, PolyRing

A1, A2 = PolyRing("a1", "a2").gens()

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
