"""The four workloads: seeded inputs, one op each, its checks and its result.

Every workload draws its inputs from the benchmark seed alone; the program
sees only the generated supports, requests and seeds.  Ops call the
program through module attributes (``sm.classify.decide_mult3``), so the
tracer's rebinding reaches them.  An op raises ``CheckFailed`` when an
independent check disagrees with the program.

Workloads and why they were chosen:

osculate   criterion 2: its 100 random pairs in a 6x6 box, each with every
           contact order m from 1 to the pairing bound D; one op builds the
           system for one m and rechecks it with the verifier.  Branch
           expansion and series multiplication do almost all of the work;
           supports of different pairs rarely repeat.
mult3      criterion 8: the 8778 th2-atlas pairs; one op is one atlas row.
           Mixes lattice-only Impossible pairs with witnessed pairs that go
           through the routes; 132 supports repeat heavily, the property a
           normal_form memo would exploit.
triangles  criterion 7: every non-degenerate triangle in [0, 5]^2 in seeded
           order, one shuffled pass after another; one op is the inflection
           verdict plus the Hessian anchor checks.  No series work at all.
cli        one sparsemult process per op over a seeded mix of small
           README-style requests; interpreter start, import and JSON dominate.

osculate and mult3 visit their domain in stratified passes (see
``stratified_pass``), so a run of a few hundred ops has the domain's cost
mix on every seed; triangles runs whole passes and cli whole blocks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
LAUNCHER = os.path.join(HERE, "cli_launch.py")


class CheckFailed(Exception):
    """An independent check disagreed with the program's output."""


def canon(v):
    """A JSON-ready canonical form of a program result."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [canon(x) for x in v]
    if isinstance(v, dict):
        return {str(k): canon(x) for k, x in v.items()}
    if isinstance(v, (set, frozenset)):
        return sorted(canon(x) for x in v)
    if hasattr(v, "sorted_points"):
        return [list(p) for p in v.sorted_points()]
    if dataclasses.is_dataclass(v):
        return {f.name: canon(getattr(v, f.name))
                for f in dataclasses.fields(v) if not f.name.startswith("_")}
    if isinstance(getattr(v, "terms", None), dict):
        return {"vars": canon(getattr(v, "vars", None)),
                "terms": [[canon(e), canon(c)] for e, c in sorted(v.terms.items())]}
    if hasattr(v, "coeffs"):
        return {"var": getattr(v, "var", None), "coeffs": canon(list(v.coeffs))}
    return repr(v)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return stdout_digest(text.encode())


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Properties:
    """Input properties of a run: support reuse and value distributions."""

    def __init__(self):
        self.ops = 0
        self.repeats = 0
        self.seen = set()
        self.hist = {}

    def supports(self, *supports):
        keys = [s if isinstance(s, str) else
                ";".join(f"{x},{y}" for x, y in s.sorted_points()) for s in supports]
        self.ops += 1
        if all(k in self.seen for k in keys):
            self.repeats += 1
        self.seen.update(keys)

    def count(self, what, value):
        h = self.hist.setdefault(what, {})
        h[str(value)] = h.get(str(value), 0) + 1

    def report(self):
        out = {
            "ops": self.ops,
            "repeat_share": self.repeats / self.ops if self.ops else 0.0,
            "distinct_supports": len(self.seen),
        }
        for what, h in sorted(self.hist.items()):
            out[what] = dict(sorted(h.items(), key=lambda kv: (len(kv[0]), kv[0])))
        return out


def _truncation(cert):
    if cert is not None and cert.kind == "BranchOrder":
        return cert.transcript["truncation"]
    return None


class Workload:
    name = ""
    modules = ("sparsemult",)

    def __init__(self, seed):
        self.seed = seed
        self.props = Properties()
        with open(os.path.join(REFERENCE_DIR, f"{self.name}.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def prefix_size(self, seconds):
        """Ops generated during set-up: one pass over the domain."""
        return self.reference["domain_size"]

    def inputs(self, sm):
        """Endless iterator of (key, input); key selects the reference digest."""
        raise NotImplementedError

    def op(self, sm, inp):
        raise NotImplementedError

    def outcome(self, key, inp, result):
        """"ok", or "mismatch" against the reference digest."""
        return "ok" if self.reference["digests"][key] == digest(canon(result)) else "mismatch"

    def observe(self, inp, result):
        pass


def osculate_domain(sm, pairs=100, seed=616):
    """The ops of acceptance criterion 2: its random 6x6 pairs, each with
    every contact order from 1 to the pairing bound and its draw seed."""
    L = sm.lattice
    rng = random.Random(seed)
    ops = []
    while pairs:
        na, nb = rng.randint(3, 8), rng.randint(3, 8)
        A = L.SupportSet({(rng.randrange(6), rng.randrange(6)) for _ in range(na)})
        B = L.SupportSet({(rng.randrange(6), rng.randrange(6)) for _ in range(nb)})
        if L.is_segment(A) or L.is_segment(B) or L.primitivity_index(A, B) != 1:
            continue
        d = len(A) - len(L.erode(L.convex_hull(A), B)) - 1
        if d < 1:
            continue
        pairs -= 1
        ops.extend((A, B, m, rng.randint(0, 2**32)) for m in range(1, d + 1))
    return ops


def stratified_stream(domain, ranked, seed):
    """Endless (index, input) stream: stratified passes over ``domain``."""
    if sorted(ranked) != list(range(len(domain))):
        raise CheckFailed(f"domain has {len(domain)} members, the reference ranks {len(ranked)}")
    rng = random.Random(seed)
    while True:
        for i in stratified_pass(ranked, rng):
            yield i, domain[i]


class Osculate(Workload):
    name = "osculate"

    def inputs(self, sm):
        return stratified_stream(osculate_domain(sm), self.reference["cost_order"], self.seed)

    def op(self, sm, inp):
        A, B, m, seed = inp
        system = sm.construct.construct_prescribed(A, B, m, seed=seed, retries=16)
        observed, cert = sm.verify.intersection_multiplicity_smooth(
            system.f, system.g, system.point, with_certificate=True)
        if observed != m:
            raise CheckFailed(f"verifier saw {observed}, wanted {m}")
        return system, cert

    def observe(self, inp, result):
        A, B, m, _ = inp
        system, cert = result
        self.props.supports(A, B)
        self.props.count("support_size", len(A))
        self.props.count("m", m)
        self.props.count("truncation", _truncation(system.certificate))
        self.props.count("truncation", _truncation(cert))
        self.props.count("retries_used", system.retries_used)


def stratified_pass(ranked, rng):
    """One pass over ``ranked`` (domain indices, cheapest first) in seeded order.

    The ranking is the op time measured when the references were written.
    It is cut into a power of two of contiguous strata of four to eight
    members; each round takes one random member of every stratum, visiting
    strata in bit-reversed order from a random offset.  So every prefix of
    the pass spreads evenly over the cost range, and runs on different
    seeds draw different members with the same cost mix.
    """
    n = len(ranked)
    strata = 1 << max(0, (n // 4).bit_length() - 1)
    groups = [ranked[n * s // strata:n * (s + 1) // strata] for s in range(strata)]
    for g in groups:
        rng.shuffle(g)
    offset = rng.randrange(strata)
    bits = strata.bit_length() - 1
    visit = [(int(format(j, f"0{bits}b")[::-1], 2) + offset) % strata for j in range(strata)]
    for r in range(max(map(len, groups))):
        for s in visit:
            if r < len(groups[s]):
                yield groups[s][r]


def atlas_pairs(sm):
    """The th2-atlas pairs in the order the atlas scenario visits them."""
    supports = sm.reproduce._convex_supports_in_box(2)
    pairs, done = [], set()
    for i, A in enumerate(supports):
        for B in supports[i:]:
            key = sm.reproduce._pair_key(A, B)
            if key not in done:
                done.add(key)
                pairs.append((A, B))
    return pairs


class Mult3(Workload):
    name = "mult3"
    modules = ("sparsemult", "sparsemult.reproduce")

    def inputs(self, sm):
        return stratified_stream(atlas_pairs(sm), self.reference["cost_order"], self.seed)

    def op(self, sm, inp):
        A, B = inp
        C = sm.classify
        report = C.decide_mult3(A, B, seed=sm.construct.DEFAULT_SEED)
        fam = C.match_exceptional_family(A, B)
        impossible = report.verdict == "Impossible"
        if impossible != (fam is not None):
            raise CheckFailed("verdict disagrees with family membership")
        if not impossible and report.construction is None:
            certified = all(
                ("inapplicable" in line) or ("certified failure" in line)
                for line in report.route_log if not line.endswith("witness found"))
            if not certified:
                raise CheckFailed("achievable pair without witness or certified failures")
        return report, fam

    def observe(self, inp, result):
        A, B = inp
        report, _ = result
        self.props.supports(A, B)
        self.props.count("support_size", len(A))
        self.props.count("mixed_volume", report.mixed_volume)
        if report.verdict == "Impossible":
            verdict = "Impossible"
        elif report.construction is not None:
            verdict = "Achievable-witnessed"
            self.props.count("truncation", _truncation(report.construction.certificate))
        else:
            verdict = "Achievable-unwitnessed"
        self.props.count("verdict", verdict)


def triangle_domain(sm, bound=5):
    """Every non-degenerate lattice triangle with coordinates in [0, bound]."""
    pts = [(x, y) for x in range(bound + 1) for y in range(bound + 1)]
    cross = sm.lattice.cross
    return [sm.lattice.SupportSet(t) for t in combinations(pts, 3) if cross(*t) != 0]


class Triangles(Workload):
    name = "triangles"

    def inputs(self, sm):
        domain = triangle_domain(sm)
        rng = random.Random(self.seed)
        order = list(range(len(domain)))
        while True:
            rng.shuffle(order)
            for i in order:
                yield i, domain[i]

    def op(self, sm, T):
        C = sm.classify
        tc = C.triangle_inflection(T)
        a, b, c = T.sorted_points()
        n, m = b[0] - a[0], b[1] - a[1]
        k, l = c[0] - a[0], c[1] - a[1]
        he = C.hessian_at_one(n, m, k, l)
        if he(Fraction(0)) != -k * l * (k + l) or he(Fraction(-1)) != -m * n * (m + n):
            raise CheckFailed("Hessian anchor identities failed")
        return tc

    def observe(self, T, tc):
        self.props.supports(T)
        self.props.count("verdict", tc.verdict)
        self.props.count("case", tc.case)
        self.props.count("family", tc.family)


# --------------------------------------------------------------------------
# the cli workload: one process per op

SQUARE = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
SIMPLEX = {"points": [[0, 0], [1, 0], [0, 1]]}


def _req(obj):
    return json.dumps(obj)


def _system(f_terms, g_terms, point, m):
    """A bare system object in the README's schema."""
    def poly(terms):
        return {"terms": [{"exp": list(e), "coeff": c} for e, c in terms]}
    return {"f": poly(f_terms), "g": poly(g_terms), "point": point, "multiplicity": m}


# Each unit is a list of (entry name, argv) run in order; a block of the mix
# is every unit once in seeded order.  The README units are its command
# lines as written (the console script is run through the launcher).
CLI_UNITS = (
    [("readme-bounds", ["bounds", "--json", _req({"A": SQUARE, "B": SIMPLEX})])],
    [("readme-construct-output", ["construct", "--json", _req({"A": SQUARE, "B": SIMPLEX, "m": 2}),
                                  "--output", "system.json"]),
     ("readme-verify-input", ["verify", "--input", "system.json"])],
    [("readme-classify", ["classify", "--json", _req(
        {"A": {"points": [[0, 0], [1, 0], [0, 1]]}, "B": {"points": [[0, 1], [3, 0], [4, 0]]}})])],
    [("readme-triangle", ["triangle", "--json", _req({"points": [[0, 0], [2, 1], [1, 2]]})])],
    [("readme-univariate", ["univariate", "--json", _req({"exponents": [0, 1, 3, 7], "l": 3})])],
    [("bounds-hexagon", ["bounds", "--json", _req(
        {"A": {"points": [[0, 0], [1, 0], [2, 1], [2, 2], [1, 2], [0, 1], [1, 1]]}, "B": SQUARE})])],
    [("construct-m1", ["construct", "--json", _req({"A": SQUARE, "B": SIMPLEX, "m": 1}),
                       "--seed", "7"])],
    [("verify-parabola", ["verify", "--json", _req(_system(
        [((2, 0), "1/1"), ((0, 1), "-1/1")], [((0, 1), "1/1"), ((1, 0), "-2/1"), ((0, 0), "1/1")],
        ["1/1", "1/1"], 2))])],
    [("verify-cubic", ["verify", "--json", _req(_system(
        [((0, 1), "1/1"), ((3, 0), "-1/1")], [((0, 1), "1/1")], ["0/1", "0/1"], 3))])],
    [("classify-simplex", ["classify", "--json", _req({"A": SIMPLEX, "B": SIMPLEX})])],
    [("triangle-family1", ["triangle", "--json", _req({"points": [[0, 0], [1, 0], [0, 3]]})])],
    [("univariate-gap", ["univariate", "--json", _req({"exponents": [0, 2, 5], "l": 2})])],
)

# README flow: verify --input system.json on the report that construct
# --output wrote.  The parser rejects the report's envelope, so this op
# exits 2 today.  That exit, with exactly this error, is the documented
# behaviour: the op succeeds and is counted apart as a known-defect op, so
# every run has the same failed count (0).  Any other outcome fails it.
# Each entry holds the error it fails with today and the multiplicity the
# verify must confirm once the defect is fixed (the m of the construct).
KNOWN_DEFECTS = {
    "readme-verify-input": ("unknown fields ['request', 'system', 'version'] in system", 2),
}

CHILD_CPU_LIMIT_S = 120


def _limit_child():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def verified_multiplicity(stdout):
    """The multiplicity a passing single-point ``verify`` report confirms, else None."""
    try:
        report = json.loads(stdout)
        (point,) = report["results"]
        if report["verified"] is True and point["pass"] is True \
                and point["claimed"] == point["observed"]:
            return point["observed"]
    except (ValueError, KeyError, TypeError):
        pass
    return None


class ChildResult:
    __slots__ = ("code", "stdout", "stderr", "maxrss_mb", "trace")

    def __init__(self, code, stdout, stderr, maxrss_mb, trace):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.maxrss_mb, self.trace = maxrss_mb, trace


class Cli(Workload):
    name = "cli"
    modules = ("sparsemult.cli",)

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.workdir = workdir
        self.trace_dir = None  # set for a traced run: children record spans
        self.spans_path = None
        self.op_id = 0
        os.makedirs(workdir, exist_ok=True)

    def prefix_size(self, seconds):
        return 70 * seconds  # about ten times today's rate

    def inputs(self, sm):
        rng = random.Random(self.seed)
        units = list(CLI_UNITS)
        while True:
            rng.shuffle(units)
            for unit in units:
                yield from unit

    def run_child(self, argv, trace_path=None):
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE", None)
        if trace_path is not None:
            env["PERFBENCH_TRACE"] = trace_path
            env["PERFBENCH_SPANS"] = self.spans_path
            env["PERFBENCH_OP"] = str(self.op_id)
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen([sys.executable, LAUNCHER, *argv], cwd=self.workdir, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    preexec_fn=_limit_child)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return ChildResult(code, out.read(), err.read(), usage.ru_maxrss / 1024.0, None)

    def op(self, sm, argv):
        trace_path = None
        if self.trace_dir is not None:
            trace_path = os.path.join(self.trace_dir, "child.json")
        res = self.run_child(argv, trace_path)
        if trace_path is not None:
            with open(trace_path, encoding="utf-8") as fh:
                res.trace = json.load(fh)
            os.remove(trace_path)
        self.op_id += 1
        return res

    def outcome(self, key, argv, res):
        if key in KNOWN_DEFECTS:
            error, m = KNOWN_DEFECTS[key]
            if res.code == 2 and error in res.stderr.decode(errors="replace"):
                return "known-defect"
            # the defect is fixed: the documented success path must confirm m
            return "ok" if res.code == 0 and verified_multiplicity(res.stdout) == m else "mismatch"
        want = self.reference["entries"][key]
        if res.code != want["exit"] or stdout_digest(res.stdout) != want["stdout"]:
            return "mismatch"
        return "ok"

    def observe(self, argv, res):
        self.props.supports(" ".join(argv))
        self.props.count("command", argv[0])
        self.props.count("exit_code", res.code)


WORKLOADS = {"osculate": Osculate, "mult3": Mult3, "triangles": Triangles, "cli": Cli}
