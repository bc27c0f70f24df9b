import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def wrong_sign_symbolic():
    """The algebra over Q[a1, a2] with one term of Delta(x13) negated and
    the Delta/S tables rebuilt from it; a control the axioms must reject."""
    from hopfs3.hopf72 import build
    from hopfs3.rewrite import X13
    from hopfs3.scalars import PolyRing

    H = build(*PolyRing("a1", "a2").gens())
    gen = H._gen_comult[X13]
    key = next(iter(gen))
    gen[key] = -gen[key]
    H.comult = [H.word_comult(w, g) for (w, g) in H.labels]
    H.antipode = [H.word_antipode(w, g) for (w, g) in H.labels]
    return H
