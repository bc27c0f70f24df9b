"""Command-line front end: verification suites, batch classification,
and structure-table dumps with deterministic output."""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .rewrite import (FUEL_DEFAULT, NonterminationError, check_associativity,
                      default_rules, format_smash, hilbert_series,
                      irreducible_words, overlap_ambiguities, rescaled,
                      resolve_ambiguity, structure_constants)
from .scalars import MultiPoly


def _report(check: str, ok: bool, counts: dict, details, t0: float) -> dict:
    return {
        "check": check,
        "status": "pass" if ok else "fail",
        "counts": counts,
        "details": [str(d) for d in details][:10],
        "ms": int((time.perf_counter() - t0) * 1000),
    }


PARAMS = ("--a1", "--a2")


def _rational(text: str) -> Fraction:
    """The value of --a1 or --a2: an exact rational such as 3, -1/2, 0.25."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from None


def _fuel(text: str) -> int:
    """The value of --fuel: a whole number of rewrite steps, at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"fuel must be a whole number of at least 1: {text!r}")
    return int(text)


def _budget(text: str) -> float:
    """The value of --budget-sec: seconds, 0 or more (inf for no budget)."""
    try:
        if float(text) >= 0:                # nan fails the comparison
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"budget must be a number of seconds, 0 or more: {text!r}")


def _params(args):
    if args.a1 is None and args.a2 is None:
        return (*MultiPoly.gens("a1", "a2"), "symbolic")
    a1 = Fraction(args.a1 if args.a1 is not None else 0)
    a2 = Fraction(args.a2 if args.a2 is not None else 0)
    return a1, a2, f"({a1},{a2})"


def _table(args):
    """The multiplication table at the chosen parameters, reduced once per
    call and shared by the suites that need it.  At a rational point the
    rules are rescaled first (rewrite.rescaled): A_[a] is built as the
    isomorphic A_[D^2 a], on ints, and reports decode what they print."""
    if args.table is None:
        a1, a2, label = _params(args)
        rules = default_rules(a1, a2, fuel=args.fuel)
        if label != "symbolic":
            rules = rescaled(rules)
        args.table = structure_constants(rules)
    return args.table


def _algebra(args):
    """The Algebra on that table, built once per call and shared by the
    suites that need it; its parameters are those of the table's rules,
    so D^2 a at a rational point (a has weight 2).  The hopf suite and
    dump build the one Hopf72 of their call from it, sharing its S."""
    if args.algebra is None:
        from .hopf72 import build
        a1, a2, _label = _params(args)
        table = _table(args)
        scale = table.rules.scale
        if scale is not None:
            a1, a2 = scale.encode(a1, 2), scale.encode(a2, 2)
        args.algebra = build(a1, a2, table)
    return args.algebra


def _suite_nichols(args) -> list:
    t0 = time.perf_counter()
    rules = default_rules(0, 0, fuel=args.fuel)
    words = irreducible_words(rules)
    profile = hilbert_series(words)
    ok = len(words) == 12 and profile == [1, 3, 4, 3, 1]
    return [_report("nichols.basis", ok,
                    {"words": len(words), "profile": profile,
                     "dim_with_tails": len(words) * 6},
                    [] if ok else [profile], t0)]


def _suite_diamond(args) -> list:
    label = _params(args)[2]
    out = []
    t_build = time.perf_counter()
    table = _table(args)
    over_budget = time.perf_counter() - t_build > args.budget_sec
    rules = table.rules
    t0 = time.perf_counter()
    ambs = overlap_ambiguities(rules)
    unresolved = []
    for amb in ambs:
        ok, trace = resolve_ambiguity(amb, rules)
        if not ok:
            # the first tail whose two reductions differ, and by how much
            g, diff = trace[0]
            unresolved.append(f"{amb} under d{g}: left - right = {diff}")
    out.append(_report("diamond.ambiguities", not unresolved,
                       {"checked": len(ambs),
                        "resolved": len(ambs) - len(unresolved),
                        "params": label},
                       unresolved, t0))
    t0 = time.perf_counter()
    out.append(_report("diamond.basis", len(table.words) == 12,
                       {"words": len(table.words)}, [], t0))
    # the associativity report times the table build and the sweep
    t0 = t_build
    if over_budget:
        rep = {"mode": "skipped", "checked": 0, "ok": False,
               "failures": ["budget exceeded at table build"]}
    else:
        rep = {"mode": "exhaustive", **check_associativity(table)}
    out.append(_report("diamond.associativity", rep["ok"],
                       {"mode": rep["mode"], "checked": rep["checked"],
                        "scalars": rep.get("scalars"), "params": label,
                        "stats": table.stats},
                       rep["failures"][:5], t0))
    return out


def _suite_hopf(args) -> list:
    from .hopf72 import (Hopf72, build_check, c_identity,
                         coradical_certificate, gr_check, verify_hopf_axioms,
                         verify_hopf_ideal)
    label = _params(args)[2]
    out = []
    t0 = time.perf_counter()
    H = Hopf72(_algebra(args))
    rep = build_check(H)
    out.append(_report("hopf.build", rep["ok"], {"dim": H.dim, "params": label,
                                                 "stats": H.stats},
                       rep["failures"], t0))
    t0 = time.perf_counter()
    rep = verify_hopf_axioms(H)
    witness = [rep["witness"]] if rep["witness"] else []
    out.append(_report("hopf.axioms", rep["ok"],
                       {"basis": rep["basis_checked"],
                        "pairs": rep["pairs_checked"],
                        "delta_terms": rep["delta_terms"],
                        "terms_compared": rep["terms_compared"],
                        "scalars": rep["scalars"], "stats": rep["stats"]},
                       witness + rep["failures"], t0))
    for name, check, keys in (
            ("hopf.ideal", verify_hopf_ideal, ("elements", "stats")),
            ("hopf.c_identity", c_identity, ("values", "comult_shapes")),
            ("hopf.coradical", coradical_certificate, ("conclusion",)),
            ("hopf.graded", lambda H: gr_check(H, structure_constants(
                default_rules(0, 0, fuel=args.fuel))), ("products",))):
        t0 = time.perf_counter()
        rep = check(H)
        out.append(_report(name, rep["ok"], {k: rep[k] for k in keys},
                           rep["failures"], t0))
    return out


def _suite_lemmas(args) -> list:
    from .hopf72 import adjoint_isotypics, lemma31_suite
    label = _params(args)[2]
    out = []
    t0 = time.perf_counter()
    A = _algebra(args)
    rep = lemma31_suite(A)
    out.append(_report("lemmas.structure", rep["ok"],
                       {"antipode_invertible": rep["antipode_invertible"],
                        "params": label},
                       rep["failures"], t0))
    t0 = time.perf_counter()
    pieces, failures = adjoint_isotypics(A, 1)
    supp = sorted(str(p.g) for p in pieces)
    total = sum(len(p.members) for p in pieces)
    ok = (not failures and total == 24
          and supp == ["(12)", "(13)", "(23)", "e"])
    out.append(_report("lemmas.isotypics", ok,
                       {"supp_F1": supp, "dim_F1": total}, failures, t0))
    return out


def _suite_classify(args) -> list:
    from .classify import act, canonical_rep, orbit_eq, verify_iso
    out = []
    t0 = time.perf_counter()
    checks = [
        orbit_eq((1, 0), (1, 1)),
        not orbit_eq((1, 0), (1, 2)),
        orbit_eq((0, 0), (0, 0)),
        canonical_rep((3, 0)) == canonical_rep((0, 7)) == canonical_rep((-2, -2)),
        act((Fraction(1), Fraction(0)), (1, "(12)")) == (0, 1),
    ]
    out.append(_report("classify.orbits", all(checks),
                       {"checks": len(checks)},
                       [i for i, c in enumerate(checks) if not c], t0))
    for theta in ("(12)", "(123)"):
        t0 = time.perf_counter()
        rep = verify_iso(theta, fuel=args.fuel)
        out.append(_report(f"classify.iso.{theta}", rep["ok"],
                           {"orientation": rep["orientation"]},
                           rep["failures"], t0))
    return out


SUITES = {
    "nichols": _suite_nichols,
    "diamond": _suite_diamond,
    "hopf": _suite_hopf,
    "lemmas": _suite_lemmas,
    "classify": _suite_classify,
}


def cmd_verify(args) -> int:
    scopes = list(SUITES) if args.scope == "all" else [args.scope]
    reports = []
    for scope in scopes:
        t0 = time.perf_counter()
        try:
            reports.extend(SUITES[scope](args))
        except NonterminationError as exc:
            # the tail of rewritten terms, the one that ran out last
            tail = [format_smash({key: 1}) for key in exc.trace[-9:]]
            reports.append(_report(f"{scope}.termination", False,
                                   {"fuel": args.fuel}, [exc] + tail, t0))
    reports.sort(key=lambda r: r["check"])
    if args.json:
        print(json.dumps(reports, indent=2))
    else:
        for r in reports:
            line = f"[{r['status'].upper():4}] {r['check']}  {r['counts']}"
            print(line)
            for d in r["details"]:
                print(f"        {d}")
    return 0 if all(r["status"] == "pass" for r in reports) else 1


def cmd_classify(args) -> int:
    from .classify import canonical_rep, format_pair, parse_pair
    try:
        with open(args.input, encoding="utf-8-sig") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pairs = []
    for lineno, ln in enumerate(lines, 1):
        if not ln or ln.startswith("#"):
            continue
        try:
            pairs.append((lineno, parse_pair(ln)))
        except (ValueError, ZeroDivisionError) as exc:
            print(f"parse error at line {lineno}: {exc}", file=sys.stderr)
            return 2
    groups: dict = {}
    for lineno, p in pairs:
        lab = canonical_rep(p)
        print(f"line {lineno}: ({format_pair(p)}) -> orbit [{format_pair(lab)}]")
        groups.setdefault(lab, []).append(lineno)
    print(f"orbits: {len(groups)}")
    for lab in sorted(groups):
        print(f"  [{format_pair(lab)}]: lines {groups[lab]}")
    return 0


def cmd_dump(args) -> int:
    from .hopf72 import Hopf72, dump_tables
    A = _algebra(args)
    print(f"# structure tables at {_params(args)[2]}")
    print(dump_tables(Hopf72(A)))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Bad usage: one line on stderr, exit code 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_params(p: argparse.ArgumentParser) -> None:
    for flag in PARAMS:
        p.add_argument(flag, type=_rational,
                       help=f"rational {flag[2:]}; symbolic when neither "
                            "--a1 nor --a2 is given, 0 when only the other is")


def _join_params(argv: list) -> list:
    """'--a2 -1/2' -> '--a2=-1/2', so that a negative value is read as
    the value, not as an unknown option; the same for the verify limits."""
    out = []
    for tok in argv:
        if out and out[-1] in PARAMS + ("--budget-sec", "--fuel"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hopfs3",
        description="Exact verification of the 72-dimensional Hopf algebra "
                    "family with dual-S3 coradical")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("scope", choices=["all"] + sorted(SUITES),
                   help="which suite to run")
    _add_params(v)
    v.add_argument("--json", action="store_true", help="machine-readable output")
    v.add_argument("--budget-sec", type=_budget, default="600",
                   dest="budget_sec",
                   help="wall-clock budget in seconds (0 or more)")
    v.add_argument("--fuel", type=_fuel, default=FUEL_DEFAULT,
                   help="rewrite fuel per reduction")
    v.set_defaults(func=cmd_verify, table=None, algebra=None)

    c = sub.add_parser("classify", help="batch orbit classification")
    c.add_argument("input", help="file with one 'p/q, r/s' pair per line")
    c.set_defaults(func=cmd_classify)

    d = sub.add_parser("dump", help="dump structure tables")
    _add_params(d)
    d.set_defaults(func=cmd_dump, table=None, algebra=None,
                   fuel=FUEL_DEFAULT)

    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(
        _join_params(sys.argv[1:] if argv is None else argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
