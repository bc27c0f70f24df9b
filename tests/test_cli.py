"""Command-line interface: suites, exit codes, and deterministic output."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

import hopfs3
from hopfs3.cli import main, make_parser
from hopfs3.hopf72 import Hopf72, build
from hopfs3.rewrite import FUEL_DEFAULT, format_smash
from hopfs3.scalars import MultiPoly

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands() -> list:
    """The commands of README's CLI block, as written."""
    text = README.read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines()
            if ln.strip() and not ln.startswith("#")]


class TestVerify:
    def test_nichols_suite(self, capsys):
        assert main(["verify", "nichols"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "nichols.basis" in out

    def test_classify_suite_json(self, capsys):
        assert main(["verify", "classify", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        checks = {r["check"] for r in reports}
        assert "classify.orbits" in checks
        assert "classify.iso.(12)" in checks
        assert all(r["status"] == "pass" for r in reports)
        for r in reports:
            assert set(r) == {"check", "status", "counts", "details", "ms"}

    def test_classify_orbits_can_fail(self, monkeypatch, capsys):
        # a label without the six images: each pair normalised by its first
        # nonzero coordinate only.  orbit_eq decides by the label, so the
        # orbit fact (1, 0) ~ (1, 1) fails with the label fact.
        import hopfs3.classify as classify

        def projective_label(a):
            a = (Fraction(a[0]), Fraction(a[1]))
            lead = a[0] or a[1] or 1
            return (a[0] / lead, a[1] / lead)

        monkeypatch.setattr(classify, "canonical_rep", projective_label)
        assert main(["verify", "classify", "--json"]) == 1
        reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        assert reports["classify.orbits"]["status"] == "fail"
        assert reports["classify.orbits"]["details"] == ["0", "3"]
        assert reports["classify.iso.(12)"]["status"] == "pass"

    def test_numeric_point(self, capsys):
        assert main(["verify", "diamond", "--a1", "1", "--a2", "-2"]) == 0
        out = capsys.readouterr().out
        assert "diamond.associativity" in out
        assert "(1,-2)" in out

    def test_deterministic_output(self, capsys):
        main(["verify", "nichols", "--json"])
        first = capsys.readouterr().out
        main(["verify", "nichols", "--json"])
        second = capsys.readouterr().out
        strip = lambda s: [
            line for line in s.splitlines() if '"ms"' not in line]
        assert strip(first) == strip(second)

    def test_readme_point_command(self, capsys):
        line = next(ln for ln in README.read_text().splitlines()
                    if ln.startswith("hopfs3 verify diamond"))
        argv = shlex.split(line)[1:]
        assert argv == ["verify", "diamond", "--a1", "1", "--a2", "-1/2",
                        "--json"]
        assert main(argv) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports and all(r["status"] == "pass" for r in reports)
        assert reports[0]["counts"]["params"] == "(1,-1/2)"

    @pytest.mark.parametrize("argv", [
        ["verify", "diamond", "--a1=foo"],
        ["verify", "diamond", "--a1", "foo"],
        ["verify", "diamond", "--a2=1/0"],
        ["verify", "diamond", "--a1", "1", "--a2", "1/0"],
        ["dump", "--a1", "foo"],
        ["dump", "--a2=1/0"],
        # symbolic is the default when neither parameter is given
        ["verify", "all", "--symbolic"],
    ])
    def test_bad_parameter(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert ("unrecognized arguments: --symbolic" if "--symbolic" in argv
                else "not a rational number") in captured.err

    def test_budget_exceeded_fails(self, capsys):
        # a zero budget skips the associativity sweep, which then must
        # not pass
        argv = ["verify", "diamond", "--a1=1/3", "--a2=-1/2", "--json",
                "--budget-sec=0"]
        assert main(argv) == 1
        reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        assoc = reports["diamond.associativity"]
        assert assoc["status"] == "fail"
        assert assoc["counts"]["mode"] == "skipped"
        assert assoc["counts"]["checked"] == 0
        assert assoc["details"] == ["budget exceeded at table build"]
        assert reports["diamond.ambiguities"]["status"] == "pass"

    def test_budget_exceeded_details_in_text(self, capsys):
        # without --json, each detail of a failed check is printed on an
        # indented line under the check's own line
        argv = ["verify", "diamond", "--a1=1/3", "--a2=-1/2", "--budget-sec=0"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("[FAIL] diamond.associativity "))
        assert lines[at + 1] == "        budget exceeded at table build"

    @pytest.mark.parametrize("scope", ["diamond", "hopf", "lemmas",
                                       "classify"])
    def test_fuel_exhaustion_fails(self, scope, capsys):
        # one rewrite step is too few for every suite that rewrites
        assert main(["verify", scope, "--json", "--fuel", "1"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert [r["check"] for r in reports] == [f"{scope}.termination"]
        (rep,) = reports
        assert rep["status"] == "fail"
        assert rep["counts"] == {"fuel": 1}
        assert rep["details"][0] == "fuel of 1 rewrite steps exhausted"
        # the one term rewritten before the fuel ran out
        assert len(rep["details"]) == 2
        assert rep["details"][1].startswith("(1)*x")

    def test_fuel_exhaustion_on_scalars(self, capsys):
        # at a = 0 the rules reduce on scalars; the trace still names each
        # rewritten word with the least tail, as on Tails; the first word
        # to take 3 rewrites runs out of fuel 2
        assert main(["verify", "diamond", "--a1=0", "--a2=0", "--fuel=2",
                     "--json"]) == 1
        (rep,) = json.loads(capsys.readouterr().out)
        del rep["ms"]
        assert rep == {"check": "diamond.termination", "status": "fail",
                       "counts": {"fuel": 2},
                       "details": ["fuel of 2 rewrite steps exhausted",
                                   "(1)*x12x13x12x23.de",
                                   "(1)*x13x12x13x23.de"]}

    @pytest.mark.parametrize("fuel, code", [(6, 0), (5, 1)])
    def test_fuel_boundary(self, fuel, code, capsys):
        # the symbolic check's longest reduction takes 6 rewrites, and
        # fuel N allows exactly N
        assert main(["verify", "diamond", f"--fuel={fuel}"]) == code
        capsys.readouterr()

    def test_fuel_enough_passes(self, capsys):
        assert main(["verify", "diamond", "--a1=1/3", "--a2=-1/2",
                     "--fuel", "100"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("fuel", ["0", "-5", "ten", "1.5"])
    def test_bad_fuel(self, fuel, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "diamond", f"--fuel={fuel}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "fuel must be a whole number" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--budget-sec=-1"], ["--budget-sec", "-1"], ["--budget-sec=-0.5"],
        ["--budget-sec=nan"], ["--budget-sec", "NaN"], ["--budget-sec=ten"],
        ["--budget-sec", "-inf"], ["--budget-sec", "-1e3"],
    ])
    def test_bad_budget(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "diamond", "--a1", "1", "--a2", "2", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "budget must be a number of seconds" in captured.err

    def test_infinite_budget_passes(self, capsys):
        assert main(["verify", "diamond", "--a1=1/3", "--a2=-1/2",
                     "--budget-sec", "inf"]) == 0
        capsys.readouterr()

    def test_optimized_run_reports_the_same(self):
        # python -O drops asserts; no check may rest on one
        argv = ["-m", "hopfs3.cli", "verify", "diamond", "--a1=1/3",
                "--a2=-1/2", "--json"]
        src = str(Path(hopfs3.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            reports = json.loads(proc.stdout)
            for r in reports:
                del r["ms"]
            runs.append(reports)
        assert runs[0] == runs[1]

    def test_one_algebra_per_call(self, monkeypatch, capsys):
        # the diamond, hopf and lemmas suites share one table and the hopf
        # and lemmas suites one algebra on it; gr_check adds the
        # parameter-free table.  A later call builds its own again.
        import hopfs3.hopf72 as hopf72
        from hopfs3.rewrite import MultTable
        calls, tables = [], []
        build = hopf72.build
        monkeypatch.setattr(hopf72, "build",
                            lambda *a, **k: calls.append(a) or build(*a, **k))
        init = MultTable.__init__
        monkeypatch.setattr(MultTable, "__init__",
                            lambda t, *a: tables.append(a) or init(t, *a))
        assert main(["verify", "all", "--json"]) == 0
        assert (len(calls), len(tables)) == (1, 2)
        assert main(["verify", "lemmas", "--json"]) == 0
        assert (len(calls), len(tables)) == (2, 3)
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["verify", "all", "--json"], ["dump"]])
    def test_one_hopf72_per_call(self, argv, monkeypatch, capsys):
        # the call builds one Algebra, which has no Delta, and the one
        # Hopf72 of its hopf suite or dump from that algebra, sharing its
        # table and its S
        import hopfs3.hopf72 as hopf72
        algebras, hopfs = [], []
        build, init = hopf72.build, Hopf72.__init__
        monkeypatch.setattr(hopf72, "build", lambda *a: algebras.append(
            build(*a)) or algebras[-1])
        monkeypatch.setattr(Hopf72, "__init__",
                            lambda H, *a: hopfs.append(H) or init(H, *a))
        assert main(argv) == 0
        capsys.readouterr()
        assert (len(algebras), len(hopfs)) == (1, 1)
        assert not isinstance(algebras[0], Hopf72)
        assert hopfs[0].table is algebras[0].table
        assert hopfs[0].antipode is algebras[0].antipode

    @pytest.mark.parametrize("params", [[], ["--a1=1/3", "--a2=-1/2"]])
    def test_lemmas_construct_no_hopf72(self, params, monkeypatch, capsys):
        # the lemma suite reads the Algebra alone: no Hopf72 is
        # constructed, so no product on A (x) A is taken
        calls = []
        init, tensor_mult = Hopf72.__init__, Hopf72.tensor_mult
        monkeypatch.setattr(Hopf72, "__init__", lambda H, *a: calls.append(
            "init") or init(H, *a))
        monkeypatch.setattr(Hopf72, "tensor_mult", lambda *a: calls.append(
            "tensor_mult") or tensor_mult(*a))
        assert main(["verify", "lemmas", "--json", *params]) == 0
        capsys.readouterr()
        assert calls == []

    def test_symbolic_pass_constructs_few_perms(self, monkeypatch, capsys):
        # products, inverses and sigma's identity are stored, so a warm
        # symbolic pass builds almost no permutations
        from hopfs3.groups import Perm
        assert main(["verify", "all", "--json"]) == 0
        capsys.readouterr()
        new = Perm.__dict__["__new__"].__func__
        calls = []
        monkeypatch.setattr(Perm, "__new__", staticmethod(
            lambda cls, images: calls.append(1) or new(cls, images)))
        assert main(["verify", "all", "--json"]) == 0
        assert 0 < len(calls) <= 200
        counts = {r["check"]: r["counts"]
                  for r in json.loads(capsys.readouterr().out)}
        assert counts["hopf.axioms"]["scalars"] == "kronecker B=24 graded"
        assert counts["diamond.associativity"]["scalars"] == \
            "kronecker B=8 graded"

    def test_hopf_checks_report_counts(self, capsys):
        assert main(["verify", "hopf", "--json", "--a1=1/3",
                     "--a2=-1/2"]) == 0
        counts = {r["check"]: r["counts"]
                  for r in json.loads(capsys.readouterr().out)}
        assert counts["hopf.ideal"] == {"elements": 11,
                                        "stats": {"word_comults": 108}}
        assert counts["hopf.c_identity"] == {"values": 2, "comult_shapes": 2}
        assert counts["hopf.graded"] == {"products": 72 * 12}

    @pytest.mark.parametrize("params", [[], ["--a1=1/3", "--a2=-1/2"]])
    def test_hopf_reports_word_comults(self, params, capsys):
        # Delta of each word is built once per suffix: the build takes one
        # product on A (x) A per basis element with a non-empty word, 66
        # of them (144, one per letter, without sharing); the 11 ideal
        # elements need Delta of 108 words w delta_g, w non-empty
        assert main(["verify", "hopf", "--json", *params]) == 0
        counts = {r["check"]: r["counts"]
                  for r in json.loads(capsys.readouterr().out)}
        assert counts["hopf.build"]["stats"] == {"tensor_mults": 66}
        assert counts["hopf.ideal"]["stats"] == {"word_comults": 108}

    @pytest.mark.parametrize("params, compiles", [
        ([], 2), (["--a1=1/3", "--a2=-1/2"], 1)])
    def test_hopf_compiles_each_table_once(self, params, compiles, capsys,
                                           monkeypatch):
        # the rows of the join are compiled once per algebra: the built
        # one, and at a symbolic point the Kronecker-packed copy of the
        # Hopf-axiom sweep; a rational point packs nothing, so its copy
        # shares the table and its rows.  The right-leg rows, compiled
        # with scale 1, are counted
        scales = []
        real = Hopf72._compiled
        monkeypatch.setattr(Hopf72, "_compiled", lambda self, *args:
                            scales.append(args[-1]) or real(self, *args))
        assert main(["verify", "hopf", "--json", *params]) == 0
        capsys.readouterr()
        assert scales.count(1) == compiles

    def test_isotypics_failure_is_reported(self, extra_row_term,
                                           monkeypatch, capsys):
        # ad delta_e is no longer diagonal on delta_(23): the suite reports
        # the basis index and h, and exits 1 without a traceback
        import hopfs3.cli as cli
        monkeypatch.setattr(cli, "_algebra", lambda _args: extra_row_term)
        assert main(["verify", "lemmas", "--json", "--a1=1/3",
                     "--a2=-1/2"]) == 1
        reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        assert reports["lemmas.structure"]["status"] == "fail"
        isotypics = reports["lemmas.isotypics"]
        assert isotypics["status"] == "fail"
        assert isotypics["details"][0].startswith(
            "ad delta_e not diagonal on basis 1")

    def test_build_failure_is_reported(self, extra_row_term, monkeypatch,
                                       capsys):
        # hopf.build fails on the added row term, with the counts of a
        # pass and the failing pair in its details
        import hopfs3.cli as cli
        monkeypatch.setattr(cli, "_algebra", lambda _args: extra_row_term)
        assert main(["verify", "hopf", "--json", "--a1=1/3",
                     "--a2=-1/2"]) == 1
        report = {r["check"]: r
                  for r in json.loads(capsys.readouterr().out)}["hopf.build"]
        assert report["status"] == "fail"
        assert report["counts"] == {"dim": 72, "params": "(1/3,-1/2)",
                                    "stats": {"tensor_mults": 66}}
        assert report["details"] == ["('counit_mult', 1, 1)"]

    def test_axioms_witness_in_details(self, monkeypatch, capsys):
        # the wrong-sign control constructed in place of the hopf suite's
        # Hopf72, over Q[a1, a2]
        import conftest
        import hopfs3.hopf72 as hopf72
        monkeypatch.setattr(hopf72, "Hopf72", conftest.WrongSign)
        assert main(["verify", "hopf", "--json"]) == 1
        reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        axioms = reports["hopf.axioms"]
        assert axioms["status"] == "fail"
        assert axioms["details"][0].startswith(
            "Delta(e7 e54) - Delta(e7) Delta(e54) = (")
        assert "a1" in axioms["details"][0] or "a2" in axioms["details"][0]
        assert axioms["details"][1:4] == ["('coassoc', 7)", "('coassoc', 9)",
                                          "('coassoc', 12)"]

    def test_axioms_witness_at_a_point(self, wrong_sign_point, monkeypatch,
                                       capsys):
        # the wrong-sign control constructed in place of the hopf suite's
        # Hopf72, so on the rescaled A_[36 a]: the failures and the
        # witness, decoded, are those of the plain Fraction sweep at
        # (1/3, -1/2)
        import conftest
        import hopfs3.hopf72 as hopf72
        built = []
        monkeypatch.setattr(hopf72, "Hopf72", lambda *a: built.append(
            conftest.WrongSign(*a)) or built[-1])
        assert main(["verify", "hopf", "--json", "--a1=1/3",
                     "--a2=-1/2"]) == 1
        axioms = {r["check"]: r
                  for r in json.loads(capsys.readouterr().out)}["hopf.axioms"]
        assert (built[0].a1, built[0].a2) == (12, -18)
        rep = hopf72.verify_hopf_axioms(wrong_sign_point)
        assert rep["witness"] == (
            "Delta(e7 e54) - Delta(e7) Delta(e54) = (1)*[12,6] + "
            "(2)*[12,60] + (-2)*[24,24] + (-2/3)*[30,0] + (-2/3)*[36,0] + "
            "(-2)*[54,12]")
        assert axioms["status"] == "fail"
        assert (axioms["counts"]["scalars"], rep["scalars"]) == \
            ("rescaled D=6", "rational")
        assert axioms["details"] == [rep["witness"]] + [
            str(f) for f in rep["failures"][:9]]
        cli_rep = hopf72.verify_hopf_axioms(built[0])
        assert cli_rep["failures"] == rep["failures"]
        assert cli_rep["witness"] == rep["witness"]

    def test_point_pass_is_rational(self, capsys):
        assert main(["verify", "diamond", "--a1=1/3", "--a2=-1/2",
                     "--json"]) == 0
        counts = {r["check"]: r["counts"]
                  for r in json.loads(capsys.readouterr().out)}
        assert counts["diamond.associativity"]["scalars"] == "rescaled D=6"

    @pytest.mark.parametrize("params", [[], ["--a1=1/3", "--a2=-1/2"]])
    def test_associativity_reports_table_build_stats(self, params, capsys):
        # the build takes each of the 144 products of basis words from the
        # letter times the rest: 180 letter products, under every tail, in
        # 47 word rewrites
        assert main(["verify", "diamond", "--json", *params]) == 0
        counts = {r["check"]: r["counts"]
                  for r in json.loads(capsys.readouterr().out)}
        assert counts["diamond.associativity"]["stats"] == {
            "reductions": 180, "rewrite_steps": 47}

    def test_ambiguity_details_show_difference(self, monkeypatch, capsys):
        # 1 added to the d(12) coefficient of x13 x13 -> (a1 - a2) d(12):
        # each unresolved ambiguity names the first tail where its two
        # reductions part, and their nonzero difference
        import hopfs3.cli as cli
        from hopfs3.rewrite import Rule, RuleSystem, Tails, default_rules

        def perturbed(a1, a2, fuel):
            first, *rest = default_rules(a1, a2, fuel=fuel).rules
            square = Tails(first.words[()])
            square[next(iter(square))] += 1
            return RuleSystem([Rule(first.lhs, {(): square})] + rest,
                              fuel=fuel)

        monkeypatch.setattr(cli, "default_rules", perturbed)
        assert main(["verify", "diamond", "--a1=1/3", "--a2=-1/2",
                     "--json"]) == 1
        reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        amb = reports["diamond.ambiguities"]
        assert amb["status"] == "fail"
        assert amb["counts"]["resolved"] == 13
        assert amb["details"][0] == ("(0, 0, ((13), (13), (13))) under d(12): "
                                     "left - right = (-1)*x13.d(12)")
        assert len(amb["details"]) == 10
        for d in amb["details"]:
            assert " under d" in d and not d.endswith("= 0")

    def test_bad_scope(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestParser:
    """main reuses one parser; each call parses into a fresh Namespace."""

    def test_one_parser_per_process(self):
        assert make_parser() is make_parser()

    def test_point_and_fuel_do_not_leak(self, monkeypatch, capsys):
        # a failing call at a point with little fuel, then a symbolic call
        # under the default fuel, which passes
        import hopfs3.cli as cli
        fuels, rules = [], cli.default_rules
        monkeypatch.setattr(cli, "default_rules", lambda *a, fuel: (
            fuels.append(fuel) or rules(*a, fuel=fuel)))
        assert main(["verify", "diamond", "--a1=1/3", "--a2=-1/2",
                     "--fuel", "5"]) == 1
        capsys.readouterr()
        assert main(["verify", "diamond", "--json"]) == 0
        reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        assert reports["diamond.ambiguities"]["counts"]["params"] == "symbolic"
        assert reports["diamond.associativity"]["counts"]["params"] == \
            "symbolic"
        assert fuels == [5, FUEL_DEFAULT]

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "diamond", "--fuel=0"])
        assert exc.value.code == 2
        assert main(["verify", "diamond", "--a1=1", "--a2=-2", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(r["status"] == "pass" for r in reports)
        assert reports[0]["counts"]["params"] == "(1,-2)"


class TestClassify:
    def test_batch(self, tmp_path, capsys):
        f = tmp_path / "pairs.txt"
        f.write_text("# demo\n1, 0\n0, 1\n1, 1\n\n1, 2\n")
        assert main(["classify", str(f)]) == 0
        out = capsys.readouterr().out
        assert "orbits: 2" in out
        assert "line 2:" in out and "line 6:" in out
        assert "lines [2, 3, 4]" in out and "lines [6]" in out

    def test_fractions(self, tmp_path, capsys):
        f = tmp_path / "pairs.txt"
        f.write_text("1/2, 0\n-3/4, -3/2\n")
        assert main(["classify", str(f)]) == 0
        assert "orbits: 2" in capsys.readouterr().out

    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "pairs.txt"
        f.write_text("1, 0\nbogus line\n")
        assert main(["classify", str(f)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "nope.txt")]) == 2

    def test_not_utf8(self, tmp_path, capsys):
        f = tmp_path / "pairs.txt"
        f.write_bytes(b"\xff\xfe1, 2\n")
        assert main(["classify", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_byte_order_mark(self, tmp_path, capsys):
        f = tmp_path / "pairs.txt"
        f.write_bytes(b"\xef\xbb\xbf1, 2\n")
        assert main(["classify", str(f)]) == 0
        assert "line 1: (1, 2) -> orbit" in capsys.readouterr().out

    def test_empty_file(self, tmp_path, capsys):
        f = tmp_path / "pairs.txt"
        f.write_text("")
        assert main(["classify", str(f)]) == 0
        assert "orbits: 0" in capsys.readouterr().out


class TestDump:
    def test_symbolic_dump(self, capsys):
        assert main(["dump"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# structure tables at symbolic")
        assert "a1" in out  # symbolic coefficients survive into the dump
        assert "basis 0:" in out

    def test_numeric_dump_deterministic(self, capsys):
        main(["dump", "--a1", "1", "--a2", "0"])
        first = capsys.readouterr().out
        main(["dump", "--a1", "1", "--a2", "0"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("argv, digest", [
        ([],
         "7f8f5c87af6e7f5cdfaa62da0f1813b997b6557b983203d640db20c78c08a1ef"),
        (["--a1=1/3", "--a2=-1/2"],
         "2435f67c31923235c8666feb55c3e9930c09e2c07d7e23928cd3138f914ad893"),
    ], ids=["symbolic", "point"])
    def test_dump_digest(self, argv, digest, capsys):
        # every structure constant of the tables, pinned: a change to the
        # rewriting or the Hopf layers that moves one fails here
        assert main(["dump", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, point", [
        ([], None),
        (["--a1=1/3", "--a2=-1/2"], (Fraction(1, 3), Fraction(-1, 2))),
    ], ids=["symbolic", "point"])
    def test_mult_lines_name_their_own_pair(self, argv, point, capsys):
        # both factors of every mult line, looked up through the dump's
        # basis lines, name the pair e_i e_k whose row the line prints,
        # and every nonzero row is printed
        assert main(["dump", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        index = dict(reversed(ln[len("basis "):].split(": ", 1))
                     for ln in lines if ln.startswith("basis "))
        table = build(*(point or MultiPoly.gens("a1", "a2"))).table
        printed = set()
        for ln in lines:
            if ln.startswith("mult "):
                pair, rhs = ln[len("mult "):].split(" = ")
                i, k = (int(index[name]) for name in pair.split(" * "))
                assert rhs == format_smash(
                    {table.labels[l]: c
                     for l, c in table.rows[i][k].items()}), ln
                printed.add((i, k))
        assert len(index) == table.dim
        assert {(i, k) for i, row in enumerate(table.rows)
                for k, e in enumerate(row) if e} <= printed

    @pytest.mark.parametrize("argv, digest", [
        ([],
         "dffc50977dd2040661c655e796d3af2e3ee95548c731b8f99c2005d7064fb8d1"),
        (["--a1=1/3", "--a2=-1/2"],
         "f7e14df1d01b51be1c26e3a17027041feaa2207e903f0c55e9a0b39cdd24f154"),
        # a = 0: the rules are tail-uniform and reduce on scalars
        (["--a1=0", "--a2=0"],
         "82dcdaefe690a96d97124a925b9c8041a5a13d436b8244e8c8fb1662638ba7a0"),
    ], ids=["symbolic", "point", "zero"])
    def test_verify_all_digest(self, argv, digest, capsys):
        # every report of verify all, timings dropped, pinned: a change
        # that moves a count, a verdict, a detail or a scalars name fails
        assert main(["verify", "all", "--json", *argv]) == 0
        reports = json.loads(capsys.readouterr().out)
        for r in reports:
            del r["ms"]
        text = json.dumps(reports, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestReadme:
    def test_cli_block_found(self):
        assert [ln.split()[:2] for ln in readme_cli_commands()] == [
            ["hopfs3", "verify"], ["hopfs3", "verify"],
            ["hopfs3", "classify"], ["hopfs3", "dump"]]

    @pytest.mark.parametrize("line", readme_cli_commands())
    def test_command_runs_as_written(self, line, tmp_path):
        (tmp_path / "pairs.txt").write_text("1, 0\n-1/2, 1/3\n")
        src = str(Path(hopfs3.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = shlex.split(line)
        assert argv[0] == "hopfs3"
        proc = subprocess.run([sys.executable, "-m", "hopfs3.cli", *argv[1:]],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
