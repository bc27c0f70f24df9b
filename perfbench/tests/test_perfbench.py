"""Tests of the benchmark itself: seeded inputs, gates, tracer.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import itertools
import json
import signal
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import EXPECT, Point  # noqa: E402

PROG = workloads.load_program()


def first_points(seed, n=300):
    return list(itertools.islice(workloads.point_inputs(PROG, seed), n))


def perturbed(key, delta=1):
    expect = copy.deepcopy(EXPECT)
    if isinstance(expect[key], list):
        expect[key][0] += delta
    else:
        expect[key] += delta
    return expect


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(first_points(7), first_points(7))
        self.assertNotEqual(first_points(7), first_points(8))

    def test_no_pair_repeats_and_every_kind_occurs(self):
        points = first_points(11)
        pairs = [(p.a1, p.a2) for p in points]
        self.assertEqual(len(pairs), len(set(pairs)))
        self.assertEqual([p.index for p in points], list(range(len(points))))
        self.assertEqual({p.kind for p in points},
                         {k for k, _ in workloads.POINT_KINDS})
        self.assertEqual({p.height for p in points}, set(workloads.HEIGHTS))
        for p in points:
            if p.kind == "partner":
                origin = points[p.origin]
                self.assertLess(p.origin, p.index)
                self.assertTrue(origin.a1 or origin.a2)
            elif p.kind == "generic":
                self.assertTrue(p.a1 and p.a2 and p.a1 != p.a2)
            else:
                self.assertTrue(p.a1 == 0 or p.a2 == 0 or p.a1 == p.a2)


class Gates(unittest.TestCase):
    """Every gate passes the real output and rejects it once one expected
    value is perturbed (the negative controls)."""

    @classmethod
    def setUpClass(cls):
        cls.point = Point(0, "generic", "small", Fraction(1, 3),
                          Fraction(-1, 2))
        cls.out = workloads.point_item(PROG, cls.point)
        cls.nichols = workloads.run_cli(PROG, ["verify", "nichols", "--json"])

    def test_point_passes(self):
        self.assertEqual(workloads.check_point(self.point, self.out, {}), [])

    def test_perturbed_counts_fail(self):
        for key in ("ambiguities", "basis_words", "associativity_checked",
                    "dim_F1"):
            with self.subTest(key=key):
                self.assertTrue(workloads.check_point(
                    self.point, self.out, {}, perturbed(key)))
        self.assertEqual(workloads.check_reports(
            self.nichols, ["nichols.basis"], "symbolic"), [])
        for key in ("nichols_words", "nichols_profile"):
            with self.subTest(key=key):
                self.assertTrue(workloads.check_reports(
                    self.nichols, ["nichols.basis"], "symbolic",
                    perturbed(key)))

    def test_hopf_axiom_counts_fail(self):
        report = [{"check": "hopf.axioms", "status": "pass",
                   "counts": {"basis": 72, "pairs": 72 * 72}}]
        out = (0, json.dumps(report))
        self.assertEqual(workloads.check_reports(out, ["hopf.axioms"],
                                                 "symbolic"), [])
        for key in ("axioms_basis", "axioms_pairs"):
            with self.subTest(key=key):
                self.assertTrue(workloads.check_reports(
                    out, ["hopf.axioms"], "symbolic", perturbed(key)))

    def test_sampled_associativity_fails(self):
        # a zero budget makes verify diamond fall back to sampling
        out = workloads.run_cli(PROG, workloads.point_argv("diamond",
                                                           self.point)
                                + ["--budget-sec=0"])
        problems = workloads.check_reports(out, workloads.DIAMOND_CHECKS,
                                           "(1/3,-1/2)")
        self.assertTrue(any("mode" in p for p in problems), problems)

    def test_wrong_point_fails(self):
        moved = self.point._replace(a1=Fraction(1, 4))
        self.assertTrue(workloads.check_point(moved, self.out, {}))

    def test_partner_label_must_match(self):
        partner = self.point._replace(index=1, kind="partner", origin=0)
        labels = {0: (Fraction(0), Fraction(1))}
        self.assertTrue(workloads.check_point(partner, self.out, labels))
        labels = {0: self.out[2]}
        self.assertEqual(workloads.check_point(partner, self.out, labels), [])

    def test_degenerate_label_known(self):
        p = Point(0, "degenerate", "small", Fraction(2), Fraction(2))
        out = workloads.point_item(PROG, p)
        self.assertEqual(workloads.check_point(p, out, {}), [])
        self.assertTrue(workloads.check_point(
            p, out[:2] + ((Fraction(1), Fraction(0)),), {}))

    def test_s4(self):
        out = workloads.s4_item(PROG, None)
        self.assertEqual(workloads.check_s4(out), [])
        for key in ("s4_relations", "s4_rules", "s4_words", "s4_series"):
            with self.subTest(key=key):
                self.assertTrue(workloads.check_s4(out, perturbed(key)))


def attribute_snapshot():
    """Every attribute of every hopfs3 module and class, by identity."""
    snap = {}
    for name, mod in sys.modules.items():
        if not name.startswith("hopfs3"):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


class Tracer(unittest.TestCase):
    def test_restores_everything(self):
        before = attribute_snapshot()
        tr = tracing.Tracer()
        with tr:
            tr.run_item(workloads.point_item, PROG,
                        Point(0, "generic", "small", Fraction(2),
                              Fraction(5)))
        after = attribute_snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_restores_after_error(self):
        before = attribute_snapshot()
        with self.assertRaises(ZeroDivisionError):
            with tracing.Tracer() as tr:
                tr.run_item(lambda: 1 / 0)
        after = attribute_snapshot()
        self.assertEqual([k for k in before if before[k] is not after[k]],
                         [])

    def test_every_reference_wrapped(self):
        """Names imported into other modules are wrapped too."""
        before = attribute_snapshot()
        originals = set()
        for _prefix, mod, owner, attr, _kind in tracing.TARGETS:
            key = (f"hopfs3.{mod}", attr) if owner is None else (
                f"hopfs3.{mod}", owner, attr)
            originals.add(id(before[key]))
        holders = [k for k, v in before.items() if id(v) in originals]
        self.assertIn(("hopfs3.hopf72", "sigma"), holders)
        self.assertIn(("hopfs3.classify", "smash_mult"), holders)
        self.assertIn(("hopfs3.classify", "default_rules"), holders)
        self.assertIn(("hopfs3.scalars", "MultiPoly", "__rmul__"), holders)
        with tracing.Tracer():
            during = attribute_snapshot()
            still = [k for k in holders if during[k] is before[k]]
        self.assertEqual(still, [])

    def test_spans_nest_within_items(self):
        tr = tracing.Tracer()
        with tr:
            for _ in range(2):
                tr.run_item(workloads.s4_item, PROG, None)
        by_id = {s[1]: s for s in tr.spans}
        roots = [s for s in tr.spans if s[2] is None]
        self.assertEqual([s[3] for s in roots], ["item", "item"])
        for item, span, parent, _name, start, end in tr.spans:
            self.assertLessEqual(start, end)
            if parent is not None:
                self.assertEqual(by_id[parent][0], item)
                self.assertLessEqual(by_id[parent][4], start)
                self.assertLessEqual(end, by_id[parent][5])


class Report(unittest.TestCase):
    def traced_metrics(self, name, seed):
        workload = workloads.WORKLOADS[name]
        inputs = workload.inputs(PROG, seed)
        plain, traced, tr = run.traced_run(PROG, workload, inputs, 0.01)
        return run.layer_metrics(tr, workload, plain, traced)

    def test_self_check_and_repeatable_counts(self):
        for name in ("point_sweep", "s4_completion"):
            with self.subTest(workload=name):
                first = self.traced_metrics(name, 5)
                self.assertEqual(run.self_check(name, first), [])
                second = self.traced_metrics(name, 5)
                counts = [k for k, (_v, unit) in first.items()
                          if unit == "count"]
                self.assertEqual({k: first[k] for k in counts},
                                 {k: second[k] for k in counts})

    def test_benchmark_json_names(self):
        bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.layer_metric_units())
        e2e = run.end_to_end_metrics([run.Result(None, 1.0, 1.0, [])], 1.0, 50)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {k: unit for k, (_v, unit) in e2e.items()})
        served = {m for names in run.SELF_CHECK.values() for m in names}
        self.assertLessEqual(served, set(run.layer_metric_units()))

    def test_probe_samples_and_restores(self):
        previous = signal.getsignal(signal.SIGALRM)
        with reference.Probe() as probe:
            deadline = time.perf_counter() + 2.2 * reference.PERIOD_S
            while time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(probe.samples), 2)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)

    def test_tail(self):
        times = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail(times, 90), (90.0, 10))
        self.assertEqual(run.tail(times[:5], 100), (5.0, 0))


if __name__ == "__main__":
    unittest.main()
