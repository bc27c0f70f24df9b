"""The hopfs3 benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload point_sweep --seed 1 --seconds 30 --trace 0

Imports hopfs3 from ``src/`` of the checkout it sits in, runs the
workload's items one at a time until ``--seconds`` have passed, checks
every item against known answers, and prints the metrics as the last
line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time is reported scaled to a nominal host speed: ``reference.py``
times a fixed piece of work before, during and after each item, and the
item's wall time is multiplied by the nominal reference time over the
mean of those timings.  On a shared host this removes most of the drift
between runs; the wall times are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
input twice, untraced and then traced, and reports the per-layer metrics
of the traced runs, the tracing overhead against the untraced ones, and
writes the spans to ``perfbench/out/``.  Workloads are described in
``workloads.py``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import NamedTuple

import reference
import tracer as tracing
import workloads
from workloads import ROOT, WORKLOADS, SetupError

SETUP_REPEATS = 7       # set-ups per run; setup_s is their median
PREPARED_INPUTS = 256   # inputs generated during set-up
MIN_ITEMS = 3           # untraced items per run, even past --seconds

COUNTED = ("groups.perm_mul", "groups.perm_new", "rewrite.sigma",
           "rewrite.reduce_term", "rewrite.smash_mult", "rewrite.mult_basis",
           "rewrite.default_rules", "hopf72.build", "hopf72.tensor_mult",
           "scalars.multipoly_mul", "scalars.multipoly_add")
TIMED = tuple(t[0] for t in tracing.TARGETS
              if t[4] == "span" and t[0] != "cli.main")

# per-layer metrics that must be nonzero on the workload they serve
SELF_CHECK = {
    "verify_symbolic": (
        "groups.perm_mul.calls", "groups.perm_new.calls",
        "rewrite.smash_mult.calls", "rewrite.smash_mult.s",
        "hopf72.build.calls", "hopf72.build.s", "hopf72.tensor_mult.calls",
        "hopf72.tensor_mult.s", "hopf72.verify_hopf_axioms.s",
        "hopf72.verify_hopf_ideal.s", "hopf72.lemma31_suite.s",
        "hopf72.coradical_certificate.s", "hopf72.gr_check.s",
        "hopf72.c_identity.s", "hopf72.adjoint_isotypics.s",
        "scalars.multipoly_mul.calls", "scalars.multipoly_add.calls",
        "classify.verify_iso.s", "linalg.rank.s", "cli.self_s"),
    "point_sweep": (
        "groups.perm_mul.calls", "groups.perm_new.calls",
        "rewrite.sigma.calls", "rewrite.reduce_term.calls",
        "rewrite.reduce_term.s", "rewrite.reduce_term.repeat_ratio",
        "rewrite.mult_basis.calls", "rewrite.default_rules.calls",
        "rewrite.resolve_ambiguity.s", "rewrite.structure_constants.s",
        "rewrite.check_associativity.s", "hopf72.build.calls",
        "hopf72.build.s", "hopf72.lemma31_suite.s",
        "classify.canonical_rep.s", "cli.self_s"),
    "s4_completion": (
        "rewrite.complete.s", "rewrite.irreducible_words.s",
        "braidedtensor.quadratic_relations.s"),
}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.calls": "count" for name in COUNTED}
    units["rewrite.reduce_term.repeat_ratio"] = "ratio"
    for name in TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["cli.self_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- set-up and metadata ------------------------------------------------------

def scaled(seconds: float, speeds: list) -> float:
    """``seconds`` at the nominal host speed, given reference pass times
    measured around and during them; see reference.py."""
    return seconds * reference.NOMINAL_S / statistics.mean(speeds)


def setup(workload, seed: int):
    """Import hopfs3 and generate the inputs SETUP_REPEATS times; keep the
    last program and input stream, and the median scaled set-up time."""
    times = []
    ref = reference.reference()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prog = workloads.load_program()
        stream = workload.inputs(prog, seed)
        prepared = list(itertools.islice(stream, PREPARED_INPUTS))
        elapsed = time.perf_counter() - t0
        ref, ref_before = reference.reference(), ref
        times.append(scaled(elapsed, [ref_before, ref]))
    return prog, itertools.chain(prepared, stream), statistics.median(times)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": _git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "src_lines": src_lines}


# -- the closed loop ------------------------------------------------------------

class Result(NamedTuple):
    inp: object
    raw_s: float         # wall time of the item, probe passes excluded
    s: float             # the same, scaled to the nominal host speed
    problems: list       # empty when the item passed its gate


def run_one(prog, workload, inp, labels: dict, ref_before: float,
            tracer=None) -> tuple:
    """One item, timed and gated; returns (Result, reference time after)."""
    gc.collect()
    with reference.Probe() as probe:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.item(prog, inp)
            else:
                out = tracer.run_item(workload.item, prog, inp)
        except Exception as exc:  # an item that raises counts as failed
            out, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - t0 - sum(probe.samples)
    if error is None:
        problems = workload.gate(inp, out, labels)
    else:
        traceback.print_exception(error, file=sys.stderr)
        problems = [f"raised {error!r}"]
    ref_after = reference.reference()
    speeds = probe.samples + [ref_before, ref_after]
    return Result(inp, elapsed, scaled(elapsed, speeds), problems), ref_after


def tail(times: list, pct: float) -> tuple:
    """(value, items beyond it) of the ``pct`` percentile, nearest rank."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def untraced_run(prog, workload, inputs, seconds: float) -> list:
    results, labels = [], {}
    ref = reference.reference()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < MIN_ITEMS:
        result, ref = run_one(prog, workload, next(inputs), labels, ref)
        results.append(result)
    return results


def traced_run(prog, workload, inputs, seconds: float):
    """Each input untraced, then traced; returns both result lists and
    the tracer."""
    plain, traced, labels = [], [], {}
    tracer = tracing.Tracer()
    ref = reference.reference()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(traced) < workload.traced_counts):
        inp = next(inputs)
        result, ref = run_one(prog, workload, inp, labels, ref)
        plain.append(result)
        with tracer:
            result, ref = run_one(prog, workload, inp, labels, ref, tracer)
        traced.append(result)
    return plain, traced, tracer


def end_to_end_metrics(results: list, setup_s: float, tail_pct: float) -> dict:
    times = [r.s for r in results]
    passed = sum(1 for r in results if not r.problems)
    tail_s, _beyond = tail(times, tail_pct)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (passed / sum(times), "1/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def layer_metrics(tracer, workload, plain: list, traced: list) -> dict:
    """Counts: mean per item over the first ``traced_counts`` traced items,
    which are the same inputs on every run with this seed.  Times: median
    per item over all traced items, scaled like the item's own time."""
    first = tracer.items[:workload.traced_counts]

    def count(name):
        return sum(it["counts"].get(name, 0) for it in first) / len(first)

    def per_item(kind, name):
        return statistics.median(it[kind].get(name, 0.0) * r.s / r.raw_s
                                 for it, r in zip(tracer.items, traced))

    units = layer_metric_units()
    values = {f"{name}.calls": count(name) for name in COUNTED}
    calls = count("rewrite.reduce_term")
    values["rewrite.reduce_term.repeat_ratio"] = (
        count("rewrite.reduce_term.repeats") / calls if calls else 0.0)
    for name in TIMED:
        values[f"{name}.s"] = per_item("total", name)
        values[f"{name}.self_s"] = per_item("self", name)
    values["cli.self_s"] = per_item("self", "cli.main")
    values["trace.overhead"] = statistics.median(
        t.s / p.s for p, t in zip(plain, traced)) - 1
    return {name: (values[name], unit) for name, unit in units.items()}


def self_check(workload_name: str, metrics: dict) -> list:
    """Per-layer metrics that read zero on a workload they should serve."""
    return [name for name in SELF_CHECK[workload_name]
            if not metrics[name][0]]


def write_spans(meta: dict, tracer) -> str:
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{meta['workload']}-seed{meta['seed']}-trace.json"
    fields = ("item", "span", "parent", "name", "start", "end")
    with open(path, "w") as fh:
        json.dump({"meta": meta, "items": tracer.items,
                   "spans": [dict(zip(fields, s)) for s in tracer.spans]},
                  fh)
    return str(path.relative_to(ROOT))


# -- report -----------------------------------------------------------------

def describe(results: list, label: str):
    failed = [r for r in results if r.problems]
    print(f"# {label}: {len(results)} items, {len(failed)} failed, "
          f"fail_ratio {len(failed) / len(results):.4f}, median wall time "
          f"{statistics.median(r.raw_s for r in results):.4f} s, scaled "
          f"{statistics.median(r.s for r in results):.4f} s")
    for r in failed[:5]:
        print(f"#   failed {r.inp}: {'; '.join(r.problems)[:500]}")
    if isinstance(results[0].inp, workloads.Point):
        for attr in ("kind", "height"):
            shares: dict = {}
            for r in results:
                key = getattr(r.inp, attr)
                shares[key] = shares.get(key, 0) + 1
            print(f"# {label} {attr} shares: " + ", ".join(
                f"{k} {v / len(results):.2f}"
                for k, v in sorted(shares.items())))


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        prog, inputs, setup_s = setup(workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    meta = metadata(args)
    print("# meta " + json.dumps(meta))
    print(f"# workload {args.workload}: {workload.why}")
    if args.trace:
        plain, traced, tracer = traced_run(prog, workload, inputs,
                                           args.seconds)
        describe(plain, "untraced")
        describe(traced, "traced")
        metrics = layer_metrics(tracer, workload, plain, traced)
        print(f"# tracing overhead {metrics['trace.overhead'][0]:.3f} "
              f"(median traced/untraced item time - 1, {len(plain)} pairs)")
        zeros = self_check(args.workload, metrics)
        print("# self-check: " + (f"zero on {args.workload}: {zeros}" if zeros
                                  else "every served layer metric nonzero"))
        print(f"# spans written to {write_spans(meta, tracer)}")
        results = plain + traced
    else:
        results = untraced_run(prog, workload, inputs, args.seconds)
        describe(results, "items")
        metrics = end_to_end_metrics(results, setup_s, workload.tail_pct)
        _tail_s, beyond = tail([r.s for r in results], workload.tail_pct)
        print(f"# item_tail_s is p{workload.tail_pct:g} of {len(results)} "
              f"items, {beyond} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    failed = sum(1 for r in results if r.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
