"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at minimal size (one second, or the 100 successful ops
an untraced run needs at least), traced and untraced, and checks that the
result line has exactly the metrics that BENCHMARK.json declares, with
their units; that every op matched its reference digest; that the traced
runs put the work where the layers say it is; that no op failed; that the
known README defect passes only as documented, or once fixed, with the right
multiplicity; and that the benchmark refuses to run without the program's
sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1


def run(workload, trace, cwd="."):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")


def check_known_defect():
    """README verify --input passes only with the documented error, or once
    it succeeds, when it confirms m = 2."""
    sys.path.insert(0, HERE)
    from workloads import KNOWN_DEFECTS, Cli, ChildResult

    def report(observed):
        return json.dumps({"verified": True, "results": [
            {"point": ["0/1", "0/1"], "claimed": observed, "observed": observed, "pass": True}]})

    cli = Cli.__new__(Cli)
    for observed, want in ((2, "ok"), (3, "mismatch")):
        res = ChildResult(0, report(observed).encode(), b"", 0.0, None)
        got = cli.outcome("readme-verify-input", [], res)
        check(got == want, f"fixed README verify reporting m={observed}: {got}, wanted {want}")
    error, _ = KNOWN_DEFECTS["readme-verify-input"]
    for stderr, want in ((error, "known-defect"), ("some other error", "mismatch")):
        res = ChildResult(2, b"", stderr.encode(), 0.0, None)
        got = cli.outcome("readme-verify-input", [], res)
        check(got == want, f"README verify exiting 2 with {stderr!r}: {got}, wanted {want}")
    print("ok  README verify passes only with the documented error or m = 2")


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    results = {}
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(wl, trace)
            check(proc.returncode == 0, f"{wl} trace {trace} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{wl}: result keys")
            check(res["correct"], f"{wl} trace {trace}: unexpected outcomes {context['unexpected']}")
            check(res["attempted"] >= 1, f"{wl}: no op attempted")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[trace], f"{wl} trace {trace}: metric names or units differ "
                  f"from BENCHMARK.json: {sorted(set(got) ^ set(declared[trace]))}")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  f"{wl}: non-numeric metric")
            check(set(context["machine"]) == {"nproc", "cpu_model", "python"}, f"{wl}: context")
            results[(wl, trace)] = res
            if (wl, trace) == ("cli", 0):
                known_defect_ops = context["known_defect_ops"]
            print(f"ok  {wl:9s} trace {trace}: {res['attempted']} ops, {res['failed']} failed, "
                  f"{context.get('known_defect_ops', 0)} known-defect")

    m = {k: v["value"] for k, v in results[("osculate", 1)]["metrics"].items()}
    kernel = ("branches.branch_series.self_s", "algebra.series_mul.self_s",
              "algebra.series_int_pow.self_s", "algebra.series_inverse.self_s",
              "algebra.series_add.self_s")
    others = [v for k, v in m.items() if k.endswith(".self_s") and k not in kernel]
    check(sum(m[k] for k in kernel) > max(others), "osculate: series kernel is not the largest self time")
    tri = results[("triangles", 1)]["metrics"]
    check(tri["branches.branch_series.calls"]["value"] == 0, "triangles: branch_series was called")
    check(all(r["failed"] == 0 for r in results.values()), "an op failed")
    check(known_defect_ops >= 1, "cli: the known README verify defect did not show")
    check_known_defect()

    # without src/ the benchmark must refuse, print no result and exit non-zero
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("triangles", 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "bare directory: benchmark did not refuse")
    print("ok  bare directory refused")
    print("selftest passed")


if __name__ == "__main__":
    main()
