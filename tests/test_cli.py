"""Command-line interface: suites, exit codes, and deterministic output."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hopfs3
from hopfs3.cli import main

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
        assert counts["hopf.axioms"]["scalars"] == "kronecker B=24 K=13"
        assert counts["diamond.associativity"]["scalars"] == \
            "kronecker B=8 K=7"

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

    def test_axioms_witness_in_details(self, wrong_sign_symbolic,
                                       monkeypatch, capsys):
        import hopfs3.cli as cli
        monkeypatch.setattr(cli, "_algebra", lambda _args: wrong_sign_symbolic)
        assert main(["verify", "hopf", "--json"]) == 1
        reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
        axioms = reports["hopf.axioms"]
        assert axioms["status"] == "fail"
        assert axioms["details"][0].startswith(
            "Delta(e7 e54) - Delta(e7) Delta(e54) = (")
        assert "a1" in axioms["details"][0] or "a2" in axioms["details"][0]
        assert axioms["details"][1:4] == ["('coassoc', 7)", "('coassoc', 9)",
                                          "('coassoc', 12)"]

    def test_point_pass_is_rational(self, capsys):
        assert main(["verify", "diamond", "--a1=1/3", "--a2=-1/2",
                     "--json"]) == 0
        counts = {r["check"]: r["counts"]
                  for r in json.loads(capsys.readouterr().out)}
        assert counts["diamond.associativity"]["scalars"] == "rescaled D=6"

    @pytest.mark.parametrize("params", [[], ["--a1=1/3", "--a2=-1/2"]])
    def test_associativity_reports_table_build_stats(self, params, capsys):
        # the build reduces each of the 144 products of basis words once,
        # under every tail, in 220 word rewrites
        assert main(["verify", "diamond", "--json", *params]) == 0
        counts = {r["check"]: r["counts"]
                  for r in json.loads(capsys.readouterr().out)}
        assert counts["diamond.associativity"]["stats"] == {
            "reductions": 144, "rewrite_steps": 220}

    def test_ambiguity_details_show_difference(self, monkeypatch, capsys):
        # 1 added to the d(12) coefficient of x13 x13 -> (a1 - a2) d(12):
        # each unresolved ambiguity names the first tail where its two
        # reductions part, and their nonzero difference
        import hopfs3.cli as cli
        from hopfs3.rewrite import Rule, RuleSystem, default_rules

        def perturbed(a1, a2, fuel):
            first, *rest = default_rules(a1, a2, fuel=fuel).rules
            key = next(iter(first.rhs))
            rhs = {**first.rhs, key: first.rhs[key] + 1}
            return RuleSystem([Rule(first.lhs, rhs)] + rest, fuel=fuel)

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
         "1cfac82017f3cc89c8a16ec7baf146d992aa0330b85fbb8cfc184820e2a2bb36"),
        (["--a1=1/3", "--a2=-1/2"],
         "12342cef4ccdf41c75835ade7df7890da8c69ad99a16aa3496292156b8978f0d"),
    ], ids=["symbolic", "point"])
    def test_dump_digest(self, argv, digest, capsys):
        # every structure constant of the tables, pinned: a change to the
        # rewriting or the Hopf layers that moves one fails here
        assert main(["dump", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
