"""Parameter classification under the scaling-and-relabeling group.

Gamma = k^x times S3 acts on the parameter plane on the right; two
parameter pairs give isomorphic algebras exactly when they lie in the
same orbit.  S3 acts through its standard irrep (groups.S3_STANDARD)
and the scalars by scaling, so the action is well defined by
construction; the test suite checks it on generators and as a right
action.

The explicit candidate isomorphism Theta_{mu,theta} sends delta_g to
delta_{theta g theta^-1} and x_ij to mu x_{theta(ij)theta^-1}; its
verification reduces the transported defining relations in the target
algebra symbolically over Q[a1, a2, mu].
"""

from __future__ import annotations

from fractions import Fraction

from .groups import (S3_STANDARD, Perm, conjugate, parse_perm,
                     symmetric_group)
from .linalg import add_into
from .rewrite import FUEL_DEFAULT, default_rules, smash_mult
from .scalars import MultiPoly


def act(a, gamma):
    """Right action of (mu, theta) on a parameter pair: the row vector
    mu (a rho(theta)), rho the standard irrep of S3; so (12) swaps a1 and
    a2, and (123) sends (a1, a2) to (-a2, a1 - a2)."""
    mu, theta = gamma
    if not mu:
        raise ZeroDivisionError("mu must be nonzero")
    if isinstance(theta, str):
        theta = parse_perm(theta, 3)
    m = S3_STANDARD(theta)
    return tuple(mu * (a[0] * m[0][j] + a[1] * m[1][j]) for j in range(2))


def orbit_eq(a, b) -> bool:
    """a and b lie in one orbit: their canonical labels agree."""
    return canonical_rep(a) == canonical_rep(b)


def canonical_rep(a):
    """Orbit label: lexicographically least among the six images with the
    first nonzero coordinate normalized to 1.  Any nonzero ratio may be
    normalized away: lambda stands for mu^2, and every lambda is a square
    over the algebraically closed field.  The zero pair keeps (0, 0),
    which no other pair reaches."""
    a = (Fraction(a[0]), Fraction(a[1]))
    if a == (0, 0):
        return (Fraction(0), Fraction(0))
    candidates = []
    for theta in symmetric_group(3):
        u = act(a, (Fraction(1), theta))
        lead = u[0] if u[0] else u[1]
        candidates.append((u[0] / lead, u[1] / lead))
    return min(candidates)


def parse_pair(text: str):
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'p/q, r/s': {text!r}")
    return (Fraction(parts[0].strip()), Fraction(parts[1].strip()))


def format_pair(a) -> str:
    return f"{a[0]}, {a[1]}"


# -- the explicit isomorphisms ----------------------------------------------

def theta_morphism(mu, theta: Perm):
    """Generator images as a map on SmashElt: w delta_g goes to
    mu^len(w) (theta w theta^-1) delta_{theta g theta^-1}."""

    def apply(x: dict) -> dict:
        out: dict = {}
        for (w, g), c in x.items():
            w2 = tuple(conjugate(t, theta) for t in w)
            scale = c
            for _ in w:
                scale = scale * mu
            add_into(out, (w2, conjugate(g, theta)), scale)
        return out

    return apply


def verify_iso(theta, fuel: int = FUEL_DEFAULT) -> dict:
    """Certificate for the isomorphism claim: with b = a <| (mu^2, theta),
    the Theta_{mu,theta}-images of the defining relations of the algebra
    at b (one per rule of default_rules) reduce to zero under the rules of
    the algebra at a, symbolically over Q[a1, a2, mu]."""
    a1, a2, mu = MultiPoly.gens("a1", "a2", "mu")
    if isinstance(theta, str):
        theta = parse_perm(theta, 3)
    b = act((a1, a2), (mu * mu, theta))
    rules_a = default_rules(a1, a2, fuel=fuel)
    Theta = theta_morphism(mu, theta)
    failures = []
    for name, rel in default_rules(*b).relations():
        if rules_a.reduce(Theta(rel)):
            failures.append(name)
    return {"theta": str(theta), "orientation": "images of I_{a <| (mu^2, theta)}"
                                                " vanish in A_a",
            "failures": failures, "ok": not failures}

