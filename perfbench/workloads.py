"""Inputs, items and correctness gates of the hopfs3 benchmark workloads.

Each workload is a closed loop run by one thread: the next item starts
when the previous one has returned, as it does for a user waiting on a
batch checker.

* ``verify_symbolic``: one ``hopfs3 verify all --json`` pass over
  Q[a1, a2], the paper's headline certificate.  Every item is the same.
* ``point_sweep``: one seeded rational pair through ``verify diamond``
  and ``verify lemmas``, then ``classify.canonical_rep``.  Every point
  builds a fresh rule system, so the reduction memo starts cold.
* ``s4_completion``: the S4 quadratic system completed at maxdeg 13.
  No Hopf72, MultiPoly or MultTable code runs, so it is the control for
  changes to those layers.

An item passes only if every output matches the known answer in
``EXPECT``; the gate never accepts a sampled or partial check.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("scalars", "groups", "linalg", "coalg", "ydmod", "braidedtensor",
           "rewrite", "hopf72", "classify", "cli")

EXPECT = {
    "ambiguities": 23,
    "basis_words": 12,
    "associativity_checked": 72 * 144,
    "axioms_basis": 72,
    "axioms_pairs": 72 * 72,
    "nichols_words": 12,
    "nichols_profile": [1, 3, 4, 3, 1],
    "dim_F1": 24,
    "s4_relations": 17,
    "s4_rules": 25,
    "s4_words": 576,
    "s4_series": [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1],
    # labels of the degenerate orbits: (0, 0) alone, and the one orbit
    # holding every (a, 0), (0, a) and (a, a) with a != 0
    "label_zero": (Fraction(0), Fraction(0)),
    "label_degenerate": (Fraction(0), Fraction(1)),
}

SYMBOLIC_CHECKS = (
    "nichols.basis", "diamond.ambiguities", "diamond.basis",
    "diamond.associativity", "hopf.build", "hopf.axioms", "hopf.ideal",
    "hopf.c_identity", "hopf.coradical", "hopf.graded", "lemmas.structure",
    "lemmas.isotypics", "classify.orbits", "classify.iso.(12)",
    "classify.iso.(123)")
DIAMOND_CHECKS = ("diamond.ambiguities", "diamond.basis",
                  "diamond.associativity")
LEMMAS_CHECKS = ("lemmas.structure", "lemmas.isotypics")


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def load_program(root: Path = ROOT) -> SimpleNamespace:
    """Import hopfs3 afresh from ``root/src``; never from site-packages."""
    src = (root / "src").resolve()
    if not (src / "hopfs3" / "__init__.py").is_file():
        raise SetupError(f"no hopfs3 sources under {src}")
    for name in [n for n in sys.modules
                 if n == "hopfs3" or n.startswith("hopfs3.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    package = importlib.import_module("hopfs3")
    if Path(package.__file__).resolve().parent != src / "hopfs3":
        raise SetupError(f"hopfs3 imported from {package.__file__}, "
                         f"not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"hopfs3.{m}")
                              for m in MODULES})


# -- inputs -----------------------------------------------------------------

class Point(NamedTuple):
    index: int           # position in the seeded stream
    kind: str            # generic | degenerate | partner
    height: str          # bound class of numerators and denominators
    a1: Fraction
    a2: Fraction
    origin: int = -1     # for a partner, the index of the point it maps from


# kinds per block of the stream, each at every height; so every stretch
# of the stream has nearly the same mix, whatever the seed
POINT_KINDS = (("generic", 2), ("degenerate", 1), ("partner", 1))
HEIGHTS = {"small": 9, "medium": 999, "large": 10 ** 6}
THETAS = ("e", "(12)", "(13)", "(23)", "(123)", "(132)")


def _nonzero_rational(rng: random.Random, height: int) -> Fraction:
    while True:
        p = rng.randint(-height, height)
        if p:
            return Fraction(p, rng.randint(1, height))


def point_inputs(prog, seed: int) -> Iterator[Point]:
    """Endless stream of distinct parameter pairs, a fixed function of
    ``seed``, in shuffled blocks of 12: each kind in POINT_KINDS as often
    as its count says, at each height.

    Generic pairs have a1, a2 and a1 - a2 nonzero.  Degenerate pairs are
    (0, 0), (a, 0), (0, a) or (a, a), where many structure constants
    vanish.  A partner is ``act(p, (mu, theta))`` of an earlier nonzero
    point p of its height, so its canonical label must equal p's."""
    rng = random.Random(seed)
    nonzero: dict = {h: [] for h in HEIGHTS}   # height -> [(index, pair)]
    seen: set = set()
    block = [(kind, height) for kind, count in POINT_KINDS
             for height in HEIGHTS for _ in range(count)]
    while True:
        rng.shuffle(block)
        for kind, height in block:
            if kind == "partner" and not any(nonzero.values()):
                kind = "generic"
            a, origin = _fresh_pair(prog, rng, kind, height, nonzero, seen)
            if a[0] or a[1]:
                nonzero[height].append((len(seen), a))
            seen.add(a)
            yield Point(len(seen) - 1, kind, height, a[0], a[1], origin)


def _fresh_pair(prog, rng, kind: str, height: str, nonzero: dict,
                seen: set) -> tuple:
    """A pair of the given kind and height not in ``seen``, and the index
    of its origin (-1 unless a partner)."""
    bound = HEIGHTS[height]
    while True:
        origin = -1
        if kind == "generic":
            a = (_nonzero_rational(rng, bound), _nonzero_rational(rng, bound))
            if a[0] == a[1]:
                continue
        elif kind == "degenerate":
            shape = rng.choice(("zero", "a0", "0a", "aa"))
            x = _nonzero_rational(rng, bound)
            a = {"zero": (Fraction(0), Fraction(0)), "a0": (x, Fraction(0)),
                 "0a": (Fraction(0), x), "aa": (x, x)}[shape]
        else:
            origin, pair = rng.choice(nonzero[height] or
                                      [p for ps in nonzero.values() for p in ps])
            mu = _nonzero_rational(rng, HEIGHTS["small"])
            a = prog.classify.act(pair, (mu, rng.choice(THETAS)))
            a = (Fraction(a[0]), Fraction(a[1]))
        if a not in seen:
            return a, origin


def repeat_inputs(_prog, _seed: int) -> Iterator[None]:
    """The symbolic pass and the S4 completion take no inputs."""
    while True:
        yield None


# -- items ------------------------------------------------------------------

def run_cli(prog, argv: list) -> tuple:
    """``hopfs3 <argv>`` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = prog.cli.main(list(argv))
    return code, buf.getvalue()


def point_argv(suite: str, p: Point) -> list:
    return ["verify", suite, "--json", f"--a1={p.a1}", f"--a2={p.a2}"]


def symbolic_item(prog, _inp) -> tuple:
    return run_cli(prog, ["verify", "all", "--json"])


def point_item(prog, p: Point) -> tuple:
    diamond = run_cli(prog, point_argv("diamond", p))
    lemmas = run_cli(prog, point_argv("lemmas", p))
    label = prog.classify.canonical_rep((p.a1, p.a2))
    return diamond, lemmas, label


def s4_item(prog, _inp) -> tuple:
    """quadratic_relations(4), oriented deglex, completed to maxdeg 13."""
    rw = prog.rewrite
    rels = prog.braidedtensor.quadratic_relations(4)

    def deglex(w):
        return (len(w), [str(t) for t in w])

    word_rules = {}
    for r in rels:
        lead = max(r, key=deglex)
        inv = Fraction(1) / Fraction(r[lead])
        word_rules[lead] = {w: -c * inv for w, c in r.items() if w != lead}
    rules = rw.RuleSystem([rw.uniform_rule(lhs, rhs)
                           for lhs, rhs in word_rules.items()])
    done = rw.complete(rules, maxdeg=13, fuel=10 ** 7)
    words = rw.irreducible_words(done, maxlen=13)
    return len(rels), len(done.rules), len(words), rw.hilbert_series(words)


# -- gates ------------------------------------------------------------------

def _same_params(reported, expected: str) -> bool:
    return str(reported).replace(" ", "") == expected


def check_reports(out: tuple, required, params: str,
                  expect: dict = EXPECT) -> list:
    """Problems with one ``verify --json`` run; empty when it passes."""
    code, text = out
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        reports = json.loads(text)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if not (isinstance(reports, list)
            and all(isinstance(r, dict) for r in reports)):
        return problems + ["stdout is not a list of reports"]
    by_name = {r.get("check"): r for r in reports}
    problems += [f"missing check {n}" for n in required if n not in by_name]
    problems += [f"{r.get('check')} status {r.get('status')}"
                 for r in reports if r.get("status") != "pass"]

    def counts(name):
        return by_name.get(name, {}).get("counts", {})

    def want(name, key, value):
        if name in by_name and counts(name).get(key) != value:
            problems.append(f"{name} {key}={counts(name).get(key)!r}, "
                            f"expected {value!r}")

    want("diamond.ambiguities", "checked", expect["ambiguities"])
    want("diamond.ambiguities", "resolved", expect["ambiguities"])
    want("diamond.basis", "words", expect["basis_words"])
    want("diamond.associativity", "mode", "exhaustive")
    want("diamond.associativity", "checked", expect["associativity_checked"])
    want("hopf.axioms", "basis", expect["axioms_basis"])
    want("hopf.axioms", "pairs", expect["axioms_pairs"])
    want("nichols.basis", "words", expect["nichols_words"])
    want("nichols.basis", "profile", expect["nichols_profile"])
    want("lemmas.isotypics", "dim_F1", expect["dim_F1"])
    for name, r in by_name.items():
        got = r.get("counts", {}).get("params")
        if got is not None and not _same_params(got, params):
            problems.append(f"{name} ran at {got}, expected {params}")
    return problems


def check_symbolic(out: tuple, expect: dict = EXPECT) -> list:
    return check_reports(out, SYMBOLIC_CHECKS, "symbolic", expect)


def check_point(p: Point, out: tuple, labels: dict,
                expect: dict = EXPECT) -> list:
    """``labels`` maps the index of each point checked so far to its
    canonical label; this point's label is added to it."""
    diamond, lemmas, label = out
    params = f"({p.a1},{p.a2})"
    problems = (check_reports(diamond, DIAMOND_CHECKS, params, expect)
                + check_reports(lemmas, LEMMAS_CHECKS, params, expect))
    if p.kind == "partner":
        if p.origin not in labels or labels[p.origin] != label:
            problems.append(f"label {label} differs from origin "
                            f"{p.origin}'s {labels.get(p.origin)}")
    elif p.kind == "degenerate":
        want = (expect["label_zero"] if not (p.a1 or p.a2)
                else expect["label_degenerate"])
        if label != want:
            problems.append(f"label {label}, expected {want}")
    labels[p.index] = label
    return problems


def check_s4(out: tuple, expect: dict = EXPECT) -> list:
    relations, rules, words, series = out
    problems = []
    for what, got in (("relations", relations), ("rules", rules),
                      ("words", words), ("series", series)):
        if got != expect[f"s4_{what}"]:
            problems.append(f"S4 {what} {got}, expected {expect[f's4_' + what]}")
    return problems


class Workload(NamedTuple):
    why: str
    inputs: Callable      # (program, seed) -> endless iterator of inputs
    item: Callable        # (program, input) -> output
    gate: Callable        # (input, output, labels) -> list of problems
    traced_counts: int    # traced items whose call counts are reported
    # item_tail_s percentile, fixed so that runs stay comparable: at least
    # ten items lie beyond it in a 30-second run of the seed program on
    # 2 vCPUs.  A verify-all pass takes about 4 s, too long for ten items
    # beyond any percentile, so that workload reports its slowest item.
    tail_pct: float


WORKLOADS = {
    "verify_symbolic": Workload(
        "the headline certificate: one symbolic verify-all pass over Q[a1,a2]",
        repeat_inputs, symbolic_item,
        lambda _inp, out, _labels: check_symbolic(out), 1, 100),
    "point_sweep": Workload(
        "seeded rational points through diamond, lemmas and canonical_rep, "
        "cold reduction memo each point",
        point_inputs, point_item, check_point, 8, 80),
    "s4_completion": Workload(
        "S4 completion at maxdeg 13; control that runs no Hopf72, MultiPoly "
        "or MultTable code",
        repeat_inputs, s4_item,
        lambda _inp, out, _labels: check_s4(out), 1, 85),
}
