"""Write the reference digests that every benchmark run compares against.

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/make_reference.py osculate mult3 triangles cli

osculate, mult3 and triangles get a digest for every member of their finite
domain, by index, so every seed is checked; osculate and mult3 also get
their domain ranked by op time, which their samplers stratify on.  cli
gets the exit code and the stdout digest of every request in its mix.
"""

import argparse
import json
import os
import shutil
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import (  # noqa: E402
    CLI_UNITS, KNOWN_DEFECTS, REFERENCE_DIR, atlas_pairs, canon, digest, osculate_domain,
    stdout_digest, triangle_domain)


def reference_for(name):
    wl = run.make_workload(name, seed=1)
    sm = run.load_program(wl)
    if name != "cli":
        domain = {"osculate": osculate_domain, "mult3": atlas_pairs,
                  "triangles": triangle_domain}[name](sm)
        digests, seconds = [], []
        for inp in domain:
            t0 = perf_counter()
            result = wl.op(sm, inp)
            seconds.append(perf_counter() - t0)
            digests.append(digest(canon(result)))
        ref = {"domain_size": len(domain), "digests": digests}
        if name != "triangles":
            ref["cost_order"] = sorted(range(len(domain)), key=seconds.__getitem__)
        return ref
    workdir = os.path.join(run.OUT_DIR, "cli-reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl.workdir = workdir
    entries = {}
    for unit in CLI_UNITS:
        for key, argv in unit:
            res = wl.run_child(argv)
            if res.code != 0 and key not in KNOWN_DEFECTS:
                raise SystemExit(f"{key}: exit {res.code}: {res.stderr.decode()}")
            entries[key] = {"exit": res.code, "stdout": stdout_digest(res.stdout)}
    return {"entries": entries}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+", choices=sorted(run.WORKLOADS))
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    for name in args.workloads:
        ref = reference_for(name)
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
