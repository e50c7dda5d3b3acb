"""sparsemult benchmark: one workload, one closed loop, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload osculate --seed 1 --seconds 30 --trace 0

One client runs ops back to back (the cli workload starts one sparsemult
process per op).  Every op is checked, and its canonical result is compared
with the stored reference digest.  An op succeeds when it passes both; an
op of a known defect (see workloads.KNOWN_DEFECTS) succeeds when it fails
exactly as documented, or, once fixed, when its output is right.

--trace 0 runs the loop in this process.  The end-to-end metrics are:
  setup_s         median of SETUP_SAMPLES set-ups (interpreter start
                  excluded): import of sparsemult plus input generation,
                  once in this process and once in each of a few fresh
                  interpreters
  ops_per_s       successful ops per second of time spent inside them
  latency_p50_ms  median wall time of a successful op
  latency_p90_ms  90th percentile of the same; every run has at least
                  MIN_OPS successful ops, so ten or more samples lie beyond it
  ok_ratio        successful ops / attempted ops
  peak_rss_mb     peak resident set of this process (cli: of the largest
                  sparsemult process)
The four timings are scaled to the reference host speed by the yardstick
(see REFERENCE_BURST_S): each op's latency by the bursts timed just before
and after it, each set-up by bursts timed just before it.  The context line
has the timings as measured, under "wall_clock", and the run's mean slowdown
as "host_slowdown".

--trace 1 installs the outside-in tracer for the first 3/4 of the run;
then the traced ops run again untraced for the rest, to measure the
overhead, and the per-layer metrics are printed.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it carries the machine context and the workload's property
report.  Both are also written to .bench_build/perfbench/, with the spans of
a traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from itertools import chain, islice
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Cli  # noqa: E402

MIN_OPS = 100
SETUP_SAMPLES = 5
INTERPRETER_SAMPLES = 5
TRACED_SHARE = 0.75
# On a shared host the same Python code can run more than twice as slow for
# minutes at a time, whatever the benchmark does.  So a --trace 0 run times
# a fixed burst of pure-Python work that does not touch sparsemult before
# the first op and after every YARDSTICK_EVERY_S of op time, and scales its
# timings to a host on which one burst takes REFERENCE_BURST_S.  The speed
# drifts within a run too, in under a second, so each op is scaled by the
# bursts timed just before and just after it.
YARDSTICK_EVERY_S = 0.15
REFERENCE_BURST_S = 0.02
OUT_DIR = os.path.join(".bench_build", "perfbench")
SM_MODULES = ("lattice", "algebra", "branches", "construct", "verify", "classify", "reproduce", "cli")


def machine_context():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def make_workload(name, seed):
    cls = WORKLOADS[name]
    if cls is Cli:
        return cls(seed, os.path.join(OUT_DIR, "cli-work"))
    return cls(seed)


def load_program(wl):
    """Import the workload's sparsemult modules; a namespace of them."""
    for mod in wl.modules:
        importlib.import_module(mod)
    return SimpleNamespace(**{m: sys.modules[f"sparsemult.{m}"]
                              for m in SM_MODULES if f"sparsemult.{m}" in sys.modules})


def set_up(wl, seconds):
    """Import sparsemult and generate the inputs; returns (sm, inputs, seconds)."""
    t0 = perf_counter()
    sm = load_program(wl)
    stream = wl.inputs(sm)
    prefix = list(islice(stream, wl.prefix_size(seconds)))
    elapsed = perf_counter() - t0
    return sm, chain(prefix, stream), elapsed


def setup_sample(workload, seed, seconds):
    """Print the set-up time of a fresh interpreter (run in a child)."""
    print(set_up(make_workload(workload, seed), seconds)[2])


def setup_samples(args, first):
    """``first`` and SETUP_SAMPLES - 1 more set-ups, each in a fresh interpreter;
    (seconds, host slowdown measured by three bursts just before it) pairs."""
    code = (f"import sys; sys.path[:0] = [{HERE!r}, {os.path.abspath('src')!r}]; import run; "
            f"run.setup_sample({args.workload!r}, {args.seed}, {args.seconds})")
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        slowdown = statistics.median(yardstick_burst() for _ in range(3)) / REFERENCE_BURST_S
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, timeout=60)
        samples.append((float(out.stdout.strip().splitlines()[-1]), slowdown))
    return samples


def yardstick_burst():
    """Seconds one fixed burst of rational and dict work takes on this host now."""
    t0 = perf_counter()
    for _ in range(5):
        acc = {}
        x = Fraction(1, 3)
        for i in range(1, 400):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, 0) + x.numerator % 1000
            x = Fraction(x.numerator % 10**12, x.denominator % 10**12 + 1)
        sorted(acc.items())
    return perf_counter() - t0


def interpreter_start_s():
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


class Loop:
    """Closed loop over a workload's inputs with per-op outcomes."""

    def __init__(self, wl, sm, inputs, yardstick=False):
        self.wl, self.sm, self.inputs = wl, sm, inputs
        self.bursts = [yardstick_burst()] if yardstick else None
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known_defects = 0
        self.latencies = array("d")
        self.latency_burst = array("l")  # index of the last burst before each latency
        self.op_time = 0.0
        self.done = []  # (key, input, latency) of every traced op, for the overhead re-run
        self.peak_child_mb = 0.0
        self.child_traces = []

    def one(self, key, inp, tracer=None, observe=True):
        wl = self.wl
        t0 = perf_counter()
        try:
            if tracer is not None:
                with tracer.op_span(self.attempted):
                    result = wl.op(self.sm, inp)
            else:
                result = wl.op(self.sm, inp)
        except Exception as exc:  # any failure of the op is counted, not fatal
            dt = perf_counter() - t0
            result, status = None, f"error: {type(exc).__name__}: {exc}"
        else:
            dt = perf_counter() - t0
            status = wl.outcome(key, inp, result)
        self.attempted += 1
        self.op_time += dt
        if tracer is not None:
            self.done.append((key, inp, dt))
        if status in ("ok", "known-defect"):
            self.latencies.append(dt)
            self.latency_burst.append(len(self.bursts) - 1 if self.bursts else 0)
            self.known_defects += status == "known-defect"
        else:
            self.failed += 1
            self.unexpected.append({"op": self.attempted - 1, "key": str(key), "status": status})
        if observe and result is not None:
            wl.observe(inp, result)
        if isinstance(wl, Cli) and result is not None:
            self.peak_child_mb = max(self.peak_child_mb, result.maxrss_mb)
            if result.trace is not None:
                self.child_traces.append(result.trace)

    def run(self, seconds, min_ok, tracer=None, observe=True):
        start = perf_counter()
        next_burst = YARDSTICK_EVERY_S
        for key, inp in self.inputs:
            # past ``seconds``, go on only while too few ops have succeeded
            # and none has failed
            if perf_counter() - start >= seconds and (len(self.latencies) >= min_ok
                                                      or self.failed):
                break
            self.one(key, inp, tracer, observe)
            if self.bursts is not None and self.op_time >= next_burst:
                self.bursts.append(yardstick_burst())
                next_burst = self.op_time + YARDSTICK_EVERY_S
        if self.bursts is not None:
            self.bursts.append(yardstick_burst())


def local_slowdown(bursts, i):
    """Host slowdown between bursts ``i`` and ``i + 1``: their mean time over
    the reference burst time."""
    return (bursts[i] + bursts[i + 1]) / 2 / REFERENCE_BURST_S


def latency_figures(latencies):
    lat = sorted(latencies)
    if not lat:
        return {"ops_per_s": 0.0, "latency_p50_ms": 0.0, "latency_p90_ms": 0.0}
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 10 else lat[-1]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }


def untraced(args, wl):
    """The untraced loop; the end-to-end metrics and totals."""
    sm, inputs, setup_s = set_up(wl, args.seconds)
    loop = Loop(wl, sm, inputs, yardstick=True)
    loop.run(args.seconds, MIN_OPS)
    if isinstance(wl, Cli):
        peak = loop.peak_child_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bursts = loop.bursts
    samples = setup_samples(args, (setup_s, local_slowdown(bursts, 0)))
    wall = {"setup_s": statistics.median(s for s, _ in samples),
            **latency_figures(loop.latencies)}
    scaled = latency_figures([dt / local_slowdown(bursts, i)
                              for dt, i in zip(loop.latencies, loop.latency_burst)])
    values = {
        "setup_s": (statistics.median(s / slow for s, slow in samples), "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "latency_p50_ms": (scaled["latency_p50_ms"], "ms"),
        "latency_p90_ms": (scaled["latency_p90_ms"], "ms"),
        "ok_ratio": (len(loop.latencies) / loop.attempted if loop.attempted else 0.0, "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    totals = {
        "wall_clock": wall,
        "host_slowdown": statistics.fmean(bursts) / REFERENCE_BURST_S,
        "yardstick_bursts": len(bursts),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "known_defect_ops": loop.known_defects,
        "unexpected": loop.unexpected,
        "latency_samples": len(loop.latencies),
        "setup_samples_s": [s for s, _ in samples],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, totals


def traced(args, wl):
    """Traced loop, untraced re-run of the same ops, and the per-layer metrics."""
    sm, inputs, _ = set_up(wl, args.seconds)
    loop = Loop(wl, sm, inputs)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{wl.name}.spans.tsv")
    tracer = tracing.Tracer()
    process = {}
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(tracing.SPAN_HEADER)
    if isinstance(wl, Cli):
        process["interpreter_s"] = interpreter_start_s()
        wl.trace_dir = os.path.abspath(os.path.join(OUT_DIR, "cli-trace"))
        wl.spans_path = os.path.abspath(spans_path)
        os.makedirs(wl.trace_dir, exist_ok=True)
    tracer.install()
    try:
        loop.run(args.seconds * TRACED_SHARE, 1, tracer)
    finally:
        tracer.uninstall()
    wl.trace_dir = None
    traced_ops = list(loop.done)

    # the same ops again, untraced, for as long as the run has left
    rerun = Loop(wl, sm, iter([(k, i) for k, i, _ in traced_ops]))
    rerun.run(args.seconds * (1 - TRACED_SHARE), 1, observe=False)
    n = rerun.attempted
    process["overhead_ratio"] = sum(dt for _, _, dt in traced_ops[:n]) / rerun.op_time

    summaries = [tracer.summary()]
    if isinstance(wl, Cli):
        summaries += [t["summary"] for t in loop.child_traces]
        process["import_s"] = statistics.median(t["import_s"] for t in loop.child_traces)
    summary = tracing.merge_summaries(summaries)
    with open(spans_path, "a", encoding="utf-8") as fh:
        tracer.write_spans(fh)
    metrics = tracing.layer_metrics(summary, loop.op_time, process)
    totals = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "known_defect_ops": loop.known_defects,
        "unexpected": loop.unexpected + rerun.unexpected,
        "latency_samples": len(loop.latencies),
    }
    metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in metrics.items()}
    return metrics, totals, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sparsemult", "__init__.py")):
        print("perfbench: no src/sparsemult here; run from the root of a sparsemult checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    wl = make_workload(args.workload, args.seed)
    summary = None
    if args.trace:
        metrics, totals, summary = traced(args, wl)
    else:
        metrics, totals = untraced(args, wl)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_context(),
        "loop": "closed, one client",
        **{k: v for k, v in totals.items() if k not in ("attempted", "failed", "unexpected")},
        "unexpected": totals["unexpected"][:20],
        "properties": wl.props.report(),
    }
    result = {
        "correct": not totals["unexpected"] and totals["attempted"] > 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"context": context, "result": result, "trace_summary": summary}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
