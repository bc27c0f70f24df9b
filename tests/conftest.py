import pytest

from hopfs3.hopf72 import Hopf72, build
from hopfs3.rewrite import X13

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cli_algebra(a1, a2):
    """The CLI's algebra at the rational point (a1, a2): the rules
    rescaled once (rewrite.rescaled), A_[a] built as A_[D^2 a] on ints."""
    from hopfs3.cli import _algebra, make_parser

    return _algebra(make_parser().parse_args(
        ["verify", "hopf", f"--a1={a1}", f"--a2={a2}"]))


class WrongSign(Hopf72):
    """Hopf72 with the first term of Delta(x13) negated when it is built,
    so in every Delta(e_i) holding x13; a control the axioms must reject."""

    def _comult_generator(self, t, coaction):
        out = super()._comult_generator(t, coaction)
        if t == X13:
            key = next(iter(out))
            out[key] = -out[key]
        return out


@pytest.fixture
def wrong_sign_symbolic():
    """The wrong-sign control over Q[a1, a2]."""
    from hopfs3.scalars import MultiPoly

    return WrongSign(build(*MultiPoly.gens("a1", "a2")))


@pytest.fixture
def wrong_sign_point():
    """The wrong-sign control at the rational point (1/3, -1/2)."""
    from fractions import Fraction

    return WrongSign(build(Fraction(1, 3), Fraction(-1, 2)))


@pytest.fixture
def wrong_sign_rescaled():
    """The wrong-sign control on the CLI's algebra at (1/3, -1/2)."""
    from fractions import Fraction

    return WrongSign(cli_algebra(Fraction(1, 3), Fraction(-1, 2)))


@pytest.fixture
def extra_row_term():
    """The algebra at (1/3, -1/2) with delta_(23) delta_(23) = delta_(23)
    + delta_e in its table: one term added to a delta_h e_k row, a control
    the adjoint gradings must reject."""
    from fractions import Fraction

    from hopfs3.groups import parse_perm

    H = build(Fraction(1, 3), Fraction(-1, 2))
    d = H.index[((), parse_perm("(23)", 3))]
    e = H.index[((), parse_perm("e", 3))]
    H.table.rows[d][d] = {d: 1, e: 1}
    return H
