"""Command-line surface.

stdout carries exactly one JSON report per invocation; progress and
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 invalid input, 3 hypothesis violation, 4 retry budget exhausted, 5
internal error (an exception no other code covers, such as a failed
self-check; one ``internal error:`` line on stderr), 141 stdout closed by
its reader (128 + SIGPIPE; the run ends quietly).

All randomness flows from the single --seed value (default 1729) through
Python's Mersenne Twister, so reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .classify import decide_mult3, triangle_inflection
from .construct import (
    DEFAULT_SEED,
    RETRY_BUDGET,
    construct_multipoint,
    construct_prescribed,
    construct_univariate,
    contact_bound,
    probe_curve,
)
from .errors import (
    ConstructionFailure,
    HypothesisViolation,
    InputError,
    RetryBudgetExhausted,
    VerificationError,
)
from .jsonio import (
    MAX_RETRIES,
    _check_keys,
    certificate_to_json,
    exponents_from_json,
    int_from_json,
    ints_from_json,
    point_to_json,
    points_from_json,
    require_keys,
    support_from_json,
    support_to_json,
    system_from_json,
    system_to_json,
    upoly_to_json,
    _value_to_json,
)
from .lattice import convex_hull, mixed_volume
from .reproduce import SCENARIOS, run_scenario
from .verify import (
    NON_ISOLATED,
    Certificate,
    intersection_multiplicity_smooth,
    univariate_multiplicity,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_RETRIES = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE


def _load_request(args) -> dict:
    if getattr(args, "json", None):
        text = args.json
    elif getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from None
    else:
        raise InputError("provide --input FILE or --json TEXT")
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers an integer literal past the digit limit
        raise InputError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError("request must be a JSON object")
    return obj


def _emit(args, report: dict) -> None:
    report = {"version": __version__, **report}
    text = json.dumps(report, indent=2, sort_keys=False)
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from None
    print(text)


def cmd_bounds(args) -> int:
    req = _load_request(args)
    require_keys(req, ["A", "B"], "bounds request")
    A = support_from_json(req["A"])
    B = support_from_json(req["B"])
    d_est = contact_bound(A, B, None)
    # refined along the first non-degenerate draw of construct_prescribed on B
    draws = (probe_curve(B, args.seed, k) for k in range(RETRY_BUDGET))
    d_refined = contact_bound(A, B, next((f for f in draws if f is not None), None))
    mv = mixed_volume(convex_hull(A), convex_hull(B))
    _emit(
        args,
        {
            "request": {"command": "bounds", "A": support_to_json(A), "B": support_to_json(B)},
            "A_size": len(A),
            "erosion_size": len(A) - d_est - 1,
            "D_estimate": d_est,
            "D_refined": d_refined,
            "mixed_volume": mv,
            "chain": {
                "initial_run_lower_bound": d_est,
                "initial_run_lower_bound_refined": d_refined,
                "max_multiplicity_upper_bound": mv,
            },
        },
    )
    return EXIT_OK


def cmd_construct(args) -> int:
    req = _load_request(args)
    require_keys(req, ["A", "B", "m"], "construct request")
    A = support_from_json(req["A"])
    B = support_from_json(req["B"])
    m = int_from_json(req["m"], "m")
    system = construct_prescribed(A, B, m, seed=args.seed, retries=args.retries)
    _emit(args, {"request": {"command": "construct", "m": m, "seed": args.seed},
                 "system": system_to_json(system)})
    return EXIT_OK


def cmd_multipoint(args) -> int:
    req = _load_request(args)
    require_keys(req, ["A", "B", "multiplicities"], "multipoint request")
    system = construct_multipoint(
        support_from_json(req["A"]),
        support_from_json(req["B"]),
        ints_from_json(req["multiplicities"], "multiplicities"),
        seed=args.seed,
        retries=args.retries,
    )
    _emit(args, {"request": {"command": "multipoint", "seed": args.seed},
                 "system": system_to_json(system)})
    return EXIT_OK


def cmd_verify(args) -> int:
    req = _load_request(args)
    if "system" in req:
        # the report `construct --output` or `multipoint --output` writes: verify its system
        _check_keys(req, {"version", "request", "system"}, "system report")
        request = req.get("request")
        if not isinstance(request, dict) or request.get("command") not in ("construct", "multipoint"):
            raise InputError("a report with a 'system' field must come from 'construct' or 'multipoint'")
        req = req["system"]
    system = system_from_json(req)
    results = []
    ok = True
    for pt, claimed in zip(system.points, system.multiplicities):
        observed = intersection_multiplicity_smooth(system.f, system.g, pt)
        if observed == NON_ISOLATED:
            good = False
        elif system.exact:
            good = observed == claimed
        else:
            good = observed >= claimed
        ok = ok and good
        results.append(
            {"point": point_to_json(pt), "claimed": claimed,
             "observed": observed if isinstance(observed, int) else str(observed),
             "pass": good}
        )
    _emit(args, {"request": {"command": "verify"}, "verified": ok, "results": results})
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_classify(args) -> int:
    req = _load_request(args)
    require_keys(req, ["A", "B"], "classify request")
    report = decide_mult3(
        support_from_json(req["A"]), support_from_json(req["B"]),
        seed=args.seed, retries=args.retries,
    )
    out = {
        "request": {"command": "classify", "seed": args.seed},
        "A": support_to_json(report.A),
        "B": support_to_json(report.B),
        "mixed_volume": report.mixed_volume,
        "verdict": report.verdict,
    }
    if report.family is not None:
        out["family"] = _value_to_json(report.family)
    if report.construction is not None:
        out["construction"] = system_to_json(report.construction)
    if report.route_log:
        out["route_log"] = report.route_log
    _emit(args, out)
    return EXIT_OK


def cmd_triangle(args) -> int:
    req = _load_request(args)
    require_keys(req, ["points"], "triangle request")
    T = points_from_json(req["points"])
    tc = triangle_inflection(T)
    out = {
        "request": {"command": "triangle"},
        "triangle": support_to_json(tc.triangle),
        "verdict": tc.verdict,
        "case": tc.case,
    }
    if tc.family is not None:
        out["family"] = tc.family
    if tc.decision_poly is not None:
        out["decision_poly"] = upoly_to_json(tc.decision_poly)
    if tc.reduced_factor is not None:
        out["reduced_factor"] = upoly_to_json(tc.reduced_factor)
    _emit(args, out)
    return EXIT_OK


def cmd_univariate(args) -> int:
    req = _load_request(args)
    require_keys(req, ["exponents", "l"], "univariate request")
    exponents = exponents_from_json(req["exponents"])
    l = int_from_json(req["l"], "l")
    result = construct_univariate(exponents, l)
    request = {"command": "univariate", "exponents": exponents, "l": l}
    if isinstance(result, Certificate):
        _emit(args, {"request": request, "outcome": "impossible", "certificate": certificate_to_json(result)})
        return EXIT_OK
    mult, cert = univariate_multiplicity(result, Fraction(1), with_certificate=True)
    _emit(args, {"request": request, "outcome": "constructed", "polynomial": upoly_to_json(result),
                 "verified_multiplicity": mult, "certificate": certificate_to_json(cert)})
    return EXIT_OK if mult == l else EXIT_VERIFICATION


def cmd_reproduce(args) -> int:
    # a scenario reads the options its signature names; defaults come from there too
    params = inspect.signature(SCENARIOS[args.name]).parameters
    kwargs = {}
    for opt in ("n", "bound", "seed"):
        value = getattr(args, opt)
        if opt in params:
            kwargs[opt] = params[opt].default if value is None else value
        elif value is not None:
            raise InputError(f"reproduce {args.name} takes no --{opt}")
    report = run_scenario(args.name, **kwargs)
    _emit(args, {"request": {"command": "reproduce", "name": args.name, **kwargs}, **report})
    return EXIT_OK if report.get("ok") else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemult",
        description="Exact constructions and certification of root multiplicities "
        "for sparse bivariate systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, seed=False, retries=False, with_input=True):
        """A subcommand with only the options its handler reads."""
        p = sub.add_parser(name, help=help)
        if with_input:
            p.add_argument("--input", help="path to a JSON request")
            p.add_argument("--json", help="inline JSON request")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help=f"PRNG seed (default {DEFAULT_SEED})")
        if retries:
            p.add_argument("--retries", type=int, default=RETRY_BUDGET,
                           help="retry budget for randomized constructions")
        p.add_argument("--output", help="also write the report to this path")
        p.set_defaults(func=func)
        return p

    command("bounds", cmd_bounds, "pairing bounds and mixed volume for a support pair",
            seed=True)
    command("construct", cmd_construct, "build a verified system with a prescribed multiplicity",
            seed=True, retries=True)
    command("multipoint", cmd_multipoint, "prescribed lower bounds at several points",
            seed=True, retries=True)
    command("verify", cmd_verify, "re-check a constructed system")
    command("classify", cmd_classify, "multiplicity-3 classification of a support pair",
            seed=True, retries=True)
    command("triangle", cmd_triangle, "inflection classification of a trinomial support")
    command("univariate", cmd_univariate, "sparse univariate root of prescribed multiplicity")
    p = command("reproduce", cmd_reproduce, "run a named scenario with built-in checks",
                with_input=False)
    p.add_argument("name", choices=list(SCENARIOS))
    # None tells a given --seed from none: triangle-atlas takes no seed
    p.add_argument("--seed", type=int, default=None,
                   help=f"PRNG seed for the scenarios that draw (default {DEFAULT_SEED})")
    p.add_argument("--n", type=int, default=None, help="family parameter for ex10")
    p.add_argument("--bound", type=int, default=None, help="box bound for the atlases")

    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        code = _run(build_parser().parse_args(argv))
        # a report smaller than the pipe buffer is written here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): send what is still buffered to
        # devnull, so the flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run(args) -> int:
    try:
        if not 1 <= getattr(args, "retries", 1) <= MAX_RETRIES:
            raise InputError(f"--retries must lie in [1, {MAX_RETRIES}], got {args.retries}")
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except RetryBudgetExhausted as exc:
        print(f"retry budget exhausted: {exc}", file=sys.stderr)
        for line in exc.diagnostics.get("log", []):
            print(f"  {line}", file=sys.stderr)
        return EXIT_RETRIES
    except ConstructionFailure as exc:
        print(f"construction impossible: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except BrokenPipeError:
        raise  # main ends a closed stdout quietly
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
