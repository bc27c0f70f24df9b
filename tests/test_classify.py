"""Orbit classification of the parameter plane and the explicit
isomorphism certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfs3.classify import (act, canonical_rep, format_pair, orbit_eq,
                             parse_pair, theta_morphism, verify_iso)
from hopfs3.groups import parse_perm, symmetric_group
from hopfs3.rewrite import X12, X13, X23

S3 = symmetric_group(3)
F = Fraction

pair_st = st.tuples(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4))
gamma_st = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
    st.sampled_from(S3))


def proj(a):
    """The projective class of a pair, with (0, 0) its own class."""
    a = (F(a[0]), F(a[1]))
    if a == (0, 0):
        return a
    lead = a[0] if a[0] else a[1]
    return (a[0] / lead, a[1] / lead)


def in_orbit(a, b):
    """Orbit reference that shares no code with canonical_rep: b lies in
    the orbit of a when its projective class is that of one of the six
    images a <| (1, theta)."""
    return proj(b) in {proj(act(a, (1, t))) for t in S3}


class TestAction:
    def test_generating_letters(self):
        assert act((F(1), F(0)), (1, "(12)")) == (0, 1)
        assert act((F(1), F(2)), (1, "(12)")) == (2, 1)
        # (a1, a2) <| (123) = (-a2, -(a2 - a1))
        assert act((F(1), F(0)), (1, "(123)")) == (0, 1)
        assert act((F(0), F(1)), (1, "(123)")) == (-1, -1)

    def test_three_cycle_has_order_three(self):
        a = (F(3), F(-7))
        b = a
        for _ in range(3):
            b = act(b, (1, "(123)"))
        assert b == a

    def test_scaling(self):
        assert act((F(1), F(2)), (F(5), "e")) == (5, 10)

    def test_zero_mu_rejected(self):
        with pytest.raises(ZeroDivisionError):
            act((F(1), F(0)), (0, "(12)"))

    @given(pair_st, gamma_st, gamma_st)
    @settings(max_examples=60, deadline=None)
    def test_right_action_property(self, a, g1, g2):
        # (a <| g1) <| g2 == a <| (g1 g2) with the semidirect composition
        mu1, t1 = g1
        mu2, t2 = g2
        lhs = act(act(a, g1), g2)
        rhs = act(a, (mu1 * mu2, t1 * t2))
        assert lhs == rhs

    @given(pair_st, gamma_st)
    @settings(max_examples=60, deadline=None)
    def test_action_invertible(self, a, g):
        mu, t = g
        back = act(act(a, g), (1 / mu, t.inv()))
        assert back == a


class TestOrbits:
    def test_known_orbit_facts(self):
        assert orbit_eq((1, 0), (0, 1))
        assert orbit_eq((1, 0), (1, 1))
        assert not orbit_eq((1, 0), (1, 2))
        assert orbit_eq((0, 0), (0, 0))
        assert not orbit_eq((0, 0), (1, 0))

    def test_projective_orbit_of_generic_point(self):
        # the orbit of (1, 0) meets exactly the projective classes
        # [1:0], [0:1], [1:1]
        reps = {canonical_rep(act((F(1), F(0)), (1, t))) for t in S3}
        assert len(reps) == 1  # all in one orbit, single canonical label

    def test_canonical_rep(self):
        lab = canonical_rep((3, 0))
        assert lab == canonical_rep((0, 7)) == canonical_rep((-2, -2))
        assert canonical_rep((0, 0)) == (0, 0)

    @given(pair_st, gamma_st)
    @settings(max_examples=80, deadline=None)
    def test_orbit_eq_along_action(self, a, g):
        assert orbit_eq(a, act(a, g))

    @given(pair_st, pair_st)
    @settings(max_examples=80, deadline=None)
    def test_canonical_rep_decides(self, a, b):
        assert orbit_eq(a, b) == in_orbit(a, b)
        assert orbit_eq(a, b) == orbit_eq(b, a)

    @given(pair_st)
    @settings(max_examples=50, deadline=None)
    def test_canonical_rep_idempotent(self, a):
        lab = canonical_rep(a)
        assert canonical_rep(lab) == lab

    def test_brute_force_orbit_oracle(self):
        # the six images against orbit_eq on a sample grid
        pts = [(F(i), F(j)) for i in range(-2, 3) for j in range(-2, 3)]
        for a in pts:
            for b in pts:
                assert orbit_eq(a, b) == in_orbit(a, b), (a, b)


class TestParsing:
    def test_parse_pair(self):
        assert parse_pair("1/2, -3") == (F(1, 2), F(-3))
        assert parse_pair("(2, 5/7)") == (F(2), F(5, 7))
        with pytest.raises(ValueError):
            parse_pair("1")
        with pytest.raises(ValueError):
            parse_pair("a, b")

    def test_format_roundtrip(self):
        a = (F(-5, 3), F(7))
        assert parse_pair(format_pair(a)) == a


class TestIsomorphisms:
    def test_theta_morphism_on_generators(self):
        theta = parse_perm("(12)", 3)
        Theta = theta_morphism(F(3), theta)
        g = parse_perm("(123)", 3)
        out = Theta({((X13,), g): 1})
        # x13 -> mu x_{(12)(13)(12)} = mu x23, tail conjugated
        assert out == {((X23,), parse_perm("(132)", 3)): 3}
        assert Theta({((), g): 1}) == {((), g.inv()): 1}

    def test_theta_morphism_degree_scaling(self):
        Theta = theta_morphism(F(2), parse_perm("e", 3))
        g = parse_perm("e", 3)
        assert Theta({((X12, X13), g): 1}) == {((X12, X13), g): 4}

    def test_verify_iso_both_generators(self):
        for theta in ("(12)", "(123)"):
            rep = verify_iso(theta)
            assert rep["ok"], rep["failures"]

    def test_verify_iso_rejects_wrong_scaling(self, monkeypatch):
        # letters scaled by mu^2 instead of mu: the homogeneous relations
        # still transport, the six with lower-order tails do not
        import hopfs3.classify as classify
        scale_by = classify.theta_morphism
        monkeypatch.setattr(classify, "theta_morphism",
                            lambda mu, theta: scale_by(mu * mu, theta))
        for theta in ("(12)", "(123)"):
            assert verify_iso(theta)["failures"] == [
                "x13x13", "x23x23", "x12x12", "x12x13x12", "x23x12x23",
                "x23x12x13"]
