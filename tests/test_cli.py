"""The command-line surface: JSON round-trips, exit codes, reproducibility,
and the package exports it rests on."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sparsemult
from sparsemult import cli, construct, reproduce
from sparsemult.classify import decide_mult3
from sparsemult.cli import main
from sparsemult.jsonio import (
    MAX_EXPONENT,
    MAX_EXPONENTS,
    MAX_GAP_FAMILY_N,
    MAX_RETRIES,
    MAX_SPAN,
    MAX_SUPPORT_POINTS,
    MAX_TRIANGLE_BOUND,
    laurent_from_json,
    laurent_to_json,
    support_from_json,
    support_to_json,
    system_from_json,
    system_to_json,
)
from sparsemult.algebra import LaurentPolynomial
from sparsemult.construct import construct_prescribed
from sparsemult.errors import InputError
from sparsemult.lattice import SupportSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


SQUARE = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
SIMPLEX = {"points": [[0, 0], [1, 0], [0, 1]]}


def test_bounds(capsys):
    req = json.dumps({"A": SQUARE, "B": SIMPLEX})
    code, rep = run_cli(capsys, "bounds", "--json", req)
    assert code == 0
    assert rep["D_estimate"] == 2
    assert rep["mixed_volume"] == 2
    assert rep["chain"]["max_multiplicity_upper_bound"] == 2


def test_construct_verify_roundtrip(capsys, tmp_path):
    req = json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2})
    code, rep = run_cli(capsys, "construct", "--json", req, "--seed", "7")
    assert code == 0
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(rep["system"]))
    code2, rep2 = run_cli(capsys, "verify", "--input", str(system_path))
    assert code2 == 0
    assert rep2["verified"] is True


def test_verify_rejects_wrong_claim(capsys, tmp_path):
    req = json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2})
    _, rep = run_cli(capsys, "construct", "--json", req, "--seed", "7")
    tampered = rep["system"]
    tampered["multiplicity"] = 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(tampered))
    code, rep2 = run_cli(capsys, "verify", "--input", str(p))
    assert code == 1
    assert rep2["verified"] is False


def test_multipoint(capsys, tmp_path):
    two_simplex = {"points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]}
    req = json.dumps({"A": two_simplex, "B": SIMPLEX, "multiplicities": [1, 1]})
    code, rep = run_cli(capsys, "multipoint", "--json", req, "--seed", "5")
    assert code == 0
    sysjson = rep["system"]
    assert len(sysjson["points"]) == 2
    p = tmp_path / "mp.json"
    p.write_text(json.dumps(sysjson))
    code2, rep2 = run_cli(capsys, "verify", "--input", str(p))
    assert code2 == 0 and rep2["verified"] is True


def test_multipoint_points_on_a_line_of_f(capsys, tmp_path):
    # both points lie on y = 1, so every curve on the unit square through
    # them is (y - 1)(a + b x); the first kernel vector that is not a
    # multiple of f is y - 1, a component of f, and a later one,
    # x^2 - 3x + 2, verifies at both points
    unit_square = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
    two_simplex = {"points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]}
    req = json.dumps({"A": two_simplex, "B": unit_square, "multiplicities": [1, 1]})
    code, rep = run_cli(capsys, "multipoint", "--json", req)
    assert code == 0 and rep["system"]["multiplicities"] == [1, 1]
    p = tmp_path / "mp.json"
    p.write_text(json.dumps(rep["system"]))
    code2, rep2 = run_cli(capsys, "verify", "--input", str(p))
    assert code2 == 0 and rep2["verified"] is True


def test_multipoint_diagnostics_write_points_as_rationals(capsys, monkeypatch):
    # on every attempt the first kernel curve that is not a multiple of f
    # shares a component with f through a chosen point, so each attempt logs
    # a non-isolated order there; the Descartes rule, which stops this
    # request before any draw, is switched off to reach those diagnostics
    monkeypatch.setattr(construct, "_forces_the_line", lambda A, B, ms: False)
    A = {"points": [[0, 0], [3, 0], [0, 3], [1, 1]]}
    req = json.dumps({"A": A, "B": SQUARE, "multiplicities": [2, 1]})
    code = main(["multipoint", "--json", req, "--retries", "50"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.count("  attempt ") == 50
    assert "Fraction(" not in err
    assert "attempt 0: order non-isolated at (1/1, 1/1), wanted >= 2" in err


def test_verify_reads_multipoint_output(capsys, tmp_path):
    # multipoint --output mp.json, then verify --input mp.json
    out = tmp_path / "mp.json"
    unit_square = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
    two_simplex = {"points": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]}
    req = json.dumps({"A": two_simplex, "B": unit_square, "multiplicities": [1, 1]})
    code, _ = run_cli(capsys, "multipoint", "--json", req, "--output", str(out))
    assert code == 0
    code2, rep2 = run_cli(capsys, "verify", "--input", str(out))
    assert code2 == 0 and rep2["verified"] is True
    assert [(r["claimed"], r["observed"]) for r in rep2["results"]] == [(1, 1), (1, 1)]


def test_classify(capsys):
    req = json.dumps({"A": SQUARE, "B": SQUARE})
    code, rep = run_cli(capsys, "classify", "--json", req)
    assert code == 0
    assert rep["verdict"] == "Impossible"
    assert rep["family"]["family"] == 2


def test_triangle(capsys):
    req = json.dumps({"points": [[0, 0], [3, 0], [0, 3]]})
    code, rep = run_cli(capsys, "triangle", "--json", req)
    assert code == 0
    assert rep["verdict"] == "NoInflection"
    assert rep["family"] == 4


def test_univariate(capsys):
    req = json.dumps({"exponents": [0, 1, 3, 7], "l": 3})
    code, rep = run_cli(capsys, "univariate", "--json", req)
    assert code == 0
    assert rep["outcome"] == "constructed"
    assert rep["verified_multiplicity"] == 3

    req2 = json.dumps({"exponents": [0, 1, 3, 7], "l": 4})
    code2, rep2 = run_cli(capsys, "univariate", "--json", req2)
    assert code2 == 0
    assert rep2["outcome"] == "impossible"
    assert rep2["certificate"]["transcript"]["determinant"] == "1008/1"


def test_reproduce_ex3(capsys):
    code, rep = run_cli(capsys, "reproduce", "ex3")
    assert code == 0
    assert rep["ok"] is True


def test_exit_code_invalid_input(capsys):
    code, _ = run_cli(capsys, "bounds", "--json", "{not json")
    assert code == 2
    code2, _ = run_cli(capsys, "bounds", "--json", json.dumps({"A": SQUARE}))
    assert code2 == 2
    bad_support = json.dumps({"A": {"points": [[0, 0]], "extra": 1}, "B": SIMPLEX})
    code3, _ = run_cli(capsys, "bounds", "--json", bad_support)
    assert code3 == 2


def test_exit_code_hypothesis(capsys):
    seg = {"points": [[0, 0], [1, 0]]}
    req = json.dumps({"A": seg, "B": SIMPLEX, "m": 1})
    code, _ = run_cli(capsys, "construct", "--json", req)
    assert code == 3


def test_reports_reproducible(capsys):
    req = json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2})
    code1, rep1 = run_cli(capsys, "construct", "--json", req, "--seed", "99")
    code2, rep2 = run_cli(capsys, "construct", "--json", req, "--seed", "99")
    assert rep1 == rep2


def test_json_schemas_roundtrip():
    S = SupportSet([(0, 0), (2, -1), (3, 5)])
    assert support_from_json(support_to_json(S)) == S
    f = LaurentPolynomial({(0, 0): 1, (2, -3): -7, (1, 1): 2})
    assert laurent_from_json(laurent_to_json(f)) == f
    system = construct_prescribed(
        SupportSet([(0, 0), (1, 0), (0, 1), (1, 1)]),
        SupportSet([(0, 0), (1, 0), (0, 1)]),
        2,
        seed=7,
    )
    back = system_from_json(system_to_json(system))
    assert back.f == system.f and back.g == system.g
    assert back.points == system.points and back.multiplicities == system.multiplicities


def test_strict_parsing():
    with pytest.raises(InputError):
        support_from_json({"points": [[0, 0]], "colour": "red"})
    with pytest.raises(InputError):
        laurent_from_json({"terms": [{"exp": [0, 0], "coeff": "1/1", "note": "x"}]})


def test_verify_reads_construct_output(capsys, tmp_path):
    # the README flow: construct --output system.json, then verify --input system.json
    out = tmp_path / "system.json"
    req = json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2})
    code, _ = run_cli(capsys, "construct", "--json", req, "--output", str(out))
    assert code == 0
    code2, rep2 = run_cli(capsys, "verify", "--input", str(out))
    assert code2 == 0
    assert rep2["verified"] is True
    assert rep2["results"][0]["observed"] == 2


def test_verify_rejects_other_envelopes(capsys, tmp_path):
    req = json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2})
    _, rep = run_cli(capsys, "construct", "--json", req)
    for bad in (
        {**rep, "extra": 1},
        {**rep, "request": {"command": "classify"}},
        {"system": rep["system"]},
    ):
        code = main(["verify", "--json", json.dumps(bad)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("invalid input:")


_POLY = {"terms": [{"exp": [1, 0], "coeff": "1/1"}, {"exp": [0, 0], "coeff": "-1/1"}]}
_LINE = {"terms": [{"exp": [0, 1], "coeff": "1/1"}, {"exp": [0, 0], "coeff": "-1/1"}]}


def _terms(*pairs):
    return {"terms": [{"exp": e, "coeff": c} for e, c in pairs]}


def _system(**changes):
    obj = {"f": _POLY, "g": _LINE, "point": ["1/1", "1/1"], "multiplicity": 1}
    obj.update(changes)
    return obj



@pytest.mark.parametrize("swap", [False, True], ids=["singular-f", "singular-g"])
def test_verify_at_a_singular_point_of_one_curve(capsys, swap):
    # x^2 - 2x - y^2 + 2y is singular at (1, 1) and y - 1 is smooth there;
    # the multiplicity 2 is read along the smooth curve in either order
    node = _terms(([2, 0], "1/1"), ([1, 0], "-2/1"), ([0, 2], "-1/1"), ([0, 1], "2/1"))
    f, g = (_LINE, node) if swap else (node, _LINE)
    code, rep = run_cli(capsys, "verify", "--json", json.dumps(_system(f=f, g=g, multiplicity=2)))
    assert code == 0
    assert rep["verified"] is True and rep["results"][0]["observed"] == 2


def test_verify_order_zero_at_a_singular_point_of_f(capsys):
    # f = x^2 - 2x - y^2 + 2y is singular at (1, 1) and y - 2 misses the point
    node = _terms(([2, 0], "1/1"), ([1, 0], "-2/1"), ([0, 2], "-1/1"), ([0, 1], "2/1"))
    off = _terms(([0, 1], "1/1"), ([0, 0], "-2/1"))
    code, rep = run_cli(capsys, "verify", "--json", json.dumps(_system(f=node, g=off, multiplicity=0)))
    assert code == 0
    assert rep["verified"] is True and rep["results"][0]["observed"] == 0
    # both curves singular at the point: no branch to read the order from
    code, rep = run_cli(capsys, "verify", "--json", json.dumps(_system(f=node, g=node, multiplicity=2)))
    assert code == 2 and rep is None


def test_verify_laurent_f_at_a_zero_coordinate(capsys):
    # f = y + 1/x - 1 meets g = y simply at (1, 0): x^-1 is a unit there
    f = _terms(([0, 1], "1/1"), ([-1, 0], "1/1"), ([0, 0], "-1/1"))
    g = _terms(([0, 1], "1/1"))
    code, rep = run_cli(capsys, "verify", "--json", json.dumps(_system(f=f, g=g, point=["1/1", "0/1"])))
    assert code == 0
    assert rep["verified"] is True and rep["results"][0]["observed"] == 1


def test_verify_laurent_f_with_a_negative_dependent_exponent(capsys):
    # f = y^-2 + x - 2 and g = x - 2y + 1 share the tangent at (1, 1) and
    # meet there twice; y^-2 is read along the branch through a series inverse
    f = _terms(([0, -2], "1/1"), ([1, 0], "1/1"), ([0, 0], "-2/1"))
    g = _terms(([1, 0], "1/1"), ([0, 1], "-2/1"), ([0, 0], "1/1"))
    code, rep = run_cli(capsys, "verify", "--json", json.dumps(_system(f=f, g=g, multiplicity=2)))
    assert code == 0
    assert rep["verified"] is True and rep["results"][0]["observed"] == 2


def test_verify_negative_exponent_of_g_at_a_zero_coordinate(capsys):
    # g = y + 1/x has no value at (0, 1), where f = x vanishes smoothly
    g = _terms(([0, 1], "1/1"), ([-1, 0], "1/1"))
    f = _terms(([1, 0], "1/1"))
    code = main(["verify", "--json", json.dumps(_system(f=f, g=g, point=["0/1", "1/1"]))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "invalid input: negative exponent at a zero coordinate\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--json", json.dumps({"A": {"points": [[0, 0], [1.7, 0], [0, 1]]}, "B": SIMPLEX})],
        ["bounds", "--json", json.dumps({"A": {"points": [[0, 0], [True, 0], [0, 1]]}, "B": SIMPLEX})],
        ["bounds", "--json", json.dumps({"A": {"points": [[0, 0], [1, 0, 5]]}, "B": SIMPLEX})],
        ["bounds", "--json", json.dumps({"A": {"points": 3}, "B": SIMPLEX})],
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2.0})],
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": True})],
        ["multipoint", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "multiplicities": [1, 1.5]})],
        ["multipoint", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "multiplicities": 2})],
        ["triangle", "--json", json.dumps({"points": [[0, 0], [2, 1.5], [1, 2]]})],
        ["univariate", "--json", json.dumps({"exponents": [0, 1, 3.5], "l": 2})],
        ["univariate", "--json", json.dumps({"exponents": [0, 1, 3], "l": False})],
        ["verify", "--json", json.dumps(_system(multiplicity=1.0))],
        # a claimed multiplicity below 0 is refused, not checked and failed
        ["verify", "--json", json.dumps(_system(multiplicity=-1))],
        ["verify", "--json", json.dumps({"f": _POLY, "g": _LINE, "points": [["1", "1"], ["2", "2"]],
                                         "multiplicities": [1, -2]})],
        ["verify", "--json", json.dumps(_system(f={"terms": [{"exp": [1, 0]}]}))],
        ["verify", "--json", json.dumps(_system(f={"terms": [{"coeff": "1/1"}]}))],
        ["verify", "--json", json.dumps(_system(f={"terms": [{"exp": [0.5, 0], "coeff": "1"}]}))],
        ["verify", "--json", json.dumps(_system(f={"terms": [{"exp": [1, 0], "coeff": True}]}))],
        ["verify", "--json", json.dumps(_system(f={"terms": [{"exp": [1, 0], "coeff": "1/0"}]}))],
        ["verify", "--json", json.dumps({"g": _LINE, "point": ["1/1", "1/1"], "multiplicity": 1})],
        ["verify", "--json", json.dumps({"f": _POLY, "g": _LINE, "points": [["1", "1"], ["2", "2"]],
                                         "multiplicities": [1]})],
        ["verify", "--json", json.dumps(_system(normalization={}))],
        ["verify", "--json", json.dumps(_system(normalization={"matrix": [[1, 0.0], [0, 1]], "shift": [0, 0]}))],
        ["verify", "--json", json.dumps(_system(normalization={"matrix": [[1, 0], [0, 1]], "shift": [True, 0]}))],
        ["verify", "--json", json.dumps(_system(normalization={"matrix": [[1, 0], [0, 1]], "shift": [0, 0, 0]}))],
        ["verify", "--json", json.dumps(_system(normalization={"matrix": [[2, 0], [0, 1]], "shift": [0, 0]}))],
        ["verify", "--json", json.dumps(_system(f={"terms": [{"exp": [1, 0], "coeff": "1"},
                                                             {"exp": [1, 0], "coeff": "2"}]}))],
        # supports beyond the caps exit before any hull, erosion or kernel work
        ["bounds", "--json", json.dumps({"A": {"points": [[0, 0], [100, 0], [0, 100]]}, "B": SIMPLEX})],
        ["bounds", "--json", json.dumps({"A": {"points": [[0, 0], [11, 0], [0, 1]]}, "B": SIMPLEX})],
        ["bounds", "--json", json.dumps({"A": SQUARE, "B": {"points": [[-6, 0], [5, 0], [0, 1]]}})],
        ["classify", "--json", json.dumps({"A": SIMPLEX, "B": {"points": [[0, 0], [50, 0], [0, 50]]}})],
        ["classify", "--json", json.dumps({"A": {"points": [[20, 20], [21, 20], [20, 21]]}, "B": SIMPLEX})],
        ["construct", "--json", json.dumps({"A": {"points": [[0, -11], [1, -11], [0, -10]]},
                                            "B": SIMPLEX, "m": 1})],
        ["construct", "--json", json.dumps({"A": {"points": [[0, 0]] * 122}, "B": SIMPLEX, "m": 1})],
        ["multipoint", "--json", json.dumps({"A": SQUARE, "B": {"points": [[0, 0], [0, 12], [1, 0]]},
                                             "multiplicities": [1]})],
        # so are polynomial exponents, before any series work
        ["verify", "--json", json.dumps(_system(f=_terms(([1, 0], "1"), ([0, 0], "-2")),
                                                g=_terms(([1000000, 1], "1"), ([0, 0], "-1")),
                                                point=["2", "1"]))],
        ["verify", "--json", json.dumps(_system(g=_terms(([0, -11], "1"), ([0, 0], "-1"))))],
        ["verify", "--json", json.dumps(_system(f=_terms(([-1, 0], "1"), ([10, 0], "-1"))))],
        # and univariate exponents, before the dense polynomial is built
        ["univariate", "--json", json.dumps({"exponents": [0, 1, MAX_EXPONENT + 1], "l": 2})],
        ["univariate", "--json", json.dumps({"exponents": [-MAX_EXPONENT - 1, 0, 1], "l": 2})],
        ["univariate", "--json", json.dumps({"exponents": [0, 1, 10**12], "l": 2})],
        ["univariate", "--json", json.dumps({"exponents": list(range(MAX_EXPONENTS + 1)), "l": 2})],
        # a system's exact flag is a JSON boolean: "false" is not coerced to True
        ["verify", "--json", json.dumps(_system(exact="false"))],
        ["verify", "--json", json.dumps(_system(exact=0))],
    ],
)
def test_invalid_json_values_exit_2(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unreadable_request_and_report_files_exit_2(capsys, tmp_path):
    # read, decode and write failures of the request or report file are
    # invalid input, with nothing on stdout; the 5000-digit coordinate is past
    # the interpreter's digit limit, or else past the support caps
    req = json.dumps({"A": SQUARE, "B": SIMPLEX})
    big = req.replace("[1, 1]", "[1, " + "9" * 5000 + "]", 1)
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff" + req.encode())
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv in (
        ["bounds", "--json", big],
        ["bounds", "--input", str(not_utf8)],
        ["bounds", "--input", str(tmp_path)],
        ["bounds", "--input", str(tmp_path / "missing.json")],
        ["bounds", "--input", str(deep)],
        ["bounds", "--json", req, "--output", str(tmp_path)],
        ["bounds", "--json", req, "--output", str(tmp_path / "missing" / "report.json")],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("invalid input:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2}), "--retries", "0"],
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2}), "--retries", "-3"],
        ["multipoint", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "multiplicities": [1]}),
         "--retries", "0"],
        ["classify", "--json", json.dumps({"A": SQUARE, "B": SQUARE}), "--retries", "-1"],
        # and budgets past the cap
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2}),
         "--retries", str(MAX_RETRIES + 1)],
        ["classify", "--json", json.dumps({"A": SQUARE, "B": SQUARE}), "--retries", "1000000000"],
        # reproduce refuses the options a scenario does not read
        ["reproduce", "exim", "--n", "9"],
        ["reproduce", "triangle-atlas", "--seed", "3"],
        ["reproduce", "ex10", "--bound", "2"],
        # and values outside a scenario's domain, before any work
        ["reproduce", "ex10", "--n", "-3"],
        ["reproduce", "ex10", "--n", "4"],
        ["reproduce", "ex10", "--n", str(MAX_GAP_FAMILY_N + 2)],
        ["reproduce", "triangle-atlas", "--bound", "-1"],
        ["reproduce", "triangle-atlas", "--bound", "0"],
        ["reproduce", "triangle-atlas", "--bound", str(MAX_TRIANGLE_BOUND + 1)],
        ["reproduce", "th2-atlas", "--bound", "-1"],
        ["reproduce", "th2-atlas", "--bound", "4"],
    ],
)
def test_invalid_options_exit_2(capsys, argv):
    test_invalid_json_values_exit_2(capsys, argv)


def test_option_caps_admit_their_boundary(capsys, monkeypatch):
    # construct runs to a verified system with the largest budget; each
    # scenario passes its checks and reaches its first unit of work, stubbed
    # here to stop the run
    req = json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2})
    code, rep = run_cli(capsys, "construct", "--json", req, "--retries", str(MAX_RETRIES))
    assert code == 0 and rep["system"]["multiplicity"] == 2

    class Reached(Exception):
        pass

    def stop(*args, **kwargs):
        raise Reached("past the checks")

    monkeypatch.setattr(reproduce, "build_gap_family_member", stop)
    monkeypatch.setattr(reproduce, "triangle_inflection", stop)
    for argv in (["reproduce", "ex10", "--n", str(MAX_GAP_FAMILY_N)],
                 ["reproduce", "triangle-atlas", "--bound", str(MAX_TRIANGLE_BOUND)]):
        assert main(argv) == 5, argv
        assert capsys.readouterr().err == "internal error: Reached: past the checks\n"


def test_support_caps_admit_their_boundary():
    box = [[x, y] for x in range(-5, 6) for y in range(0, 11)]
    assert len(support_from_json({"points": box})) == MAX_SUPPORT_POINTS == 121
    corners = [[-MAX_SPAN, 0], [0, 0], [-MAX_SPAN, -MAX_SPAN], [0, -MAX_SPAN]]
    assert len(support_from_json({"points": corners})) == 4
    f = laurent_from_json(_terms(([-MAX_SPAN, 0], "1"), ([0, MAX_SPAN], "-1")))
    assert f.support() == SupportSet([(-MAX_SPAN, 0), (0, MAX_SPAN)])


def test_univariate_caps_admit_their_boundary(capsys):
    for exps in ([-MAX_EXPONENT, 0, MAX_EXPONENT], list(range(-MAX_EXPONENTS // 2, MAX_EXPONENTS // 2))):
        code, rep = run_cli(capsys, "univariate", "--json", json.dumps({"exponents": exps, "l": 2}))
        assert code == 0 and rep["verified_multiplicity"] == 2


def test_unreachable_multiplicity_exits_3_before_any_draw(capsys, monkeypatch):
    # D = |A| - dim V - 1 never exceeds |A| - 1 = 3 for the square
    def no_work(*args, **kwargs):
        raise AssertionError("a curve was drawn")

    construct._line_failure.cache_clear()  # kernel_basis is also line contact's
    monkeypatch.setattr(construct, "_draw_through_one", no_work)
    monkeypatch.setattr(construct, "kernel_basis", no_work)
    monkeypatch.setattr(construct, "integer_kernel", no_work)
    monkeypatch.setattr(construct, "_bareiss_echelon", no_work)
    for argv in (
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 4})],
        ["multipoint", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "multiplicities": [2, 2]})],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("hypothesis violation:") and "|A| - 1 = 3" in captured.err


def test_multipoint_forced_onto_the_line_exits_3_before_any_draw(capsys, monkeypatch):
    # every curve on the square through two points of y = 1 contains that
    # line (two x-exponents), and g(x, 1) has three terms, too few for the
    # three roots [2, 1] asks for, so g would contain the line as well
    def no_work(*args, **kwargs):
        raise AssertionError("a curve was drawn")

    construct._line_failure.cache_clear()  # kernel_basis is also line contact's
    monkeypatch.setattr(construct, "kernel_basis", no_work)
    A = {"points": [[0, 0], [3, 0], [0, 3], [1, 1]]}
    req = json.dumps({"A": A, "B": SQUARE, "multiplicities": [2, 1]})
    code = main(["multipoint", "--json", req, "--retries", "1000"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "hypothesis violation: every curve on B through 2 points of y = 1 contains that "
        "line, and so would every curve on A meeting it to a total order of 3 there\n")


def test_unreachable_multiplicity_of_a_convex_support_exits_3_after_one_draw(capsys, monkeypatch):
    # m = 3 passes the |A| - 1 screen, but the square is convex, so
    # D = 4 - |erode(square, simplex)| - 1 = 2 on every draw; the first bound
    # check ends the call instead of running the whole retry budget
    checks = []
    real = construct.compute_dim_V

    def counted(A, f):
        checks.append(f)
        return real(A, f)

    monkeypatch.setattr(construct, "compute_dim_V", counted)
    code = main(["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 3})])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and len(checks) == 1
    assert captured.err.startswith("hypothesis violation:")
    assert "D = |A| - |erode(conv A, B)| - 1 = 2" in captured.err


def test_unmapped_exception_is_an_internal_error(capsys, monkeypatch):
    def failing_self_check(args):
        raise AssertionError("branch expansion\ndoes not annihilate f")

    monkeypatch.setattr(cli, "cmd_bounds", failing_self_check)
    code = main(["bounds", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX})])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: branch expansion does not annihilate f\n"


def test_closed_stdout_ends_quietly():
    # the read end is closed before the process starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(sparsemult.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sparsemult.cli", "reproduce", "ex10"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_reproduce_exim_reads_its_seed(capsys, monkeypatch):
    seeds = []

    def spy(A, B, seed):
        seeds.append(seed)
        return decide_mult3(A, B, seed=seed)

    monkeypatch.setattr(reproduce, "decide_mult3", spy)
    code, rep = run_cli(capsys, "reproduce", "exim", "--seed", "5")
    assert code == 0 and rep["ok"] is True
    assert rep["request"]["seed"] == 5 and seeds == [5]


@pytest.mark.parametrize(
    "argv",
    [
        ["triangle", "--json", json.dumps({"points": [[0, 0], [2, 1], [1, 2]]}), "--seed", "3"],
        ["verify", "--json", json.dumps(_system()), "--retries", "3"],
        ["univariate", "--json", json.dumps({"exponents": [0, 1, 3], "l": 2}), "--seed", "3"],
        ["bounds", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX}), "--retries", "3"],
        ["reproduce", "exim", "--retries", "3"],
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2}), "--truncation", "9"],
    ],
)
def test_options_a_command_ignores_exit_2(capsys, argv):
    # each subcommand takes only the options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_construct_seed_and_output(capsys, tmp_path):
    out = tmp_path / "system.json"
    req = json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 1})
    code, rep = run_cli(capsys, "construct", "--json", req, "--seed", "7", "--output", str(out))
    assert code == 0
    assert rep["request"]["seed"] == 7
    assert json.loads(out.read_text(encoding="utf-8")) == rep


# --- random requests -------------------------------------------------------------

_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_small_points = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).map(list),
                         min_size=1, max_size=5)
_support = st.one_of(
    st.builds(lambda p: {"points": p}, _small_points),
    st.just({"points": []}),
    st.just({"points": [[0, 0], [11, 0], [0, 1]]}),
    st.just({"points": [[x, y] for x in range(11) for y in range(12)]}),
    st.builds(lambda p: {"points": p, "extra": 1}, _small_points),
    _junk,
)


def _terms_from(coeffs, min_size=0):
    return st.dictionaries(st.tuples(st.integers(-2, 3), st.integers(-2, 3)), coeffs,
                           min_size=min_size, max_size=4).map(
        lambda t: {"terms": [{"exp": list(e), "coeff": c} for e, c in t.items()]})


_poly = st.one_of(_terms_from(st.sampled_from(["1", "-1", "1/2", "0", 1, "x"])), _junk)
_point = st.one_of(st.lists(st.sampled_from(["1", "0", "-1", "1/2", 2]), min_size=2, max_size=2),
                   _junk)
_count = st.one_of(st.integers(-1, 4), _junk)
_FIELDS = {
    "bounds": {"A": _support, "B": _support},
    "construct": {"A": _support, "B": _support, "m": _count},
    "multipoint": {"A": _support, "B": _support,
                   "multiplicities": st.one_of(st.lists(st.integers(0, 3), max_size=3), _junk)},
    "verify": {"f": _poly, "g": _poly, "point": _point, "multiplicity": _count},
    "classify": {"A": _support, "B": _support},
    "triangle": {"points": st.one_of(_small_points, _junk)},
    "univariate": {"exponents": st.one_of(st.lists(st.integers(-3, 8), max_size=5), _junk),
                   "l": _count},
}

# well-formed requests on small supports, so that the work paths run too
_valid_support = st.builds(lambda p: {"points": p}, _small_points)
_binomial = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any).map(
    lambda e: {"terms": [{"exp": list(e), "coeff": "1"}, {"exp": [0, 0], "coeff": "-1"}]})
_VALID = {
    "bounds": {"A": _valid_support, "B": _valid_support},
    "construct": {"A": _valid_support, "B": _valid_support, "m": st.integers(1, 3)},
    "multipoint": {"A": _valid_support, "B": _valid_support,
                   "multiplicities": st.lists(st.integers(1, 2), min_size=1, max_size=2)},
    "verify": {"f": _binomial, "g": _terms_from(st.sampled_from(["1", "-2", "3/4"]), 1),
               "point": st.just(["1", "1"]), "multiplicity": st.integers(0, 3)},
    "classify": {"A": _valid_support, "B": _valid_support},
    "triangle": {"points": _small_points},
    "univariate": {"exponents": st.lists(st.integers(0, 8), min_size=2, max_size=5, unique=True),
                   "l": st.integers(1, 4)},
}
_SEEDED = {"bounds": ("--seed",), "construct": ("--seed", "--retries"),
           "multipoint": ("--seed", "--retries"), "classify": ("--seed", "--retries")}


def _argv(command, text, options):
    return [command, "--json", text] + [x for opt, v in options for x in (opt, str(v))]


def _request(command):
    fields = _FIELDS[command]
    obj = st.one_of(st.fixed_dictionaries(fields),
                    st.fixed_dictionaries({}, optional={**fields, "unknown": _junk}))
    text = st.one_of(obj.map(json.dumps), _junk.map(json.dumps), st.text(max_size=8))
    options = st.lists(st.tuples(st.sampled_from(("--seed", "--retries")), st.integers(-1, 3)),
                       max_size=2, unique_by=lambda o: o[0])
    seeded = _SEEDED.get(command, ())
    valid_options = st.lists(st.tuples(st.sampled_from(seeded or ("",)), st.integers(1, 3)),
                             max_size=len(seeded), unique_by=lambda o: o[0])
    valid = st.fixed_dictionaries(_VALID[command]).map(json.dumps)
    return st.one_of(st.builds(_argv, st.just(command), valid, valid_options),
                     st.builds(_argv, st.just(command), text, options))


# reproduce takes no request: options a scenario does not read, or values
# outside its domain, so that every case stops before the scenario runs
_reproduce = st.one_of(
    st.builds(lambda name, n: ["reproduce", name, "--n", str(n)],
              st.sampled_from(["exim", "ex3", "triangle-atlas", "th2-atlas"]), st.integers(-9, 9)),
    st.builds(lambda n: ["reproduce", "ex10", "--n", str(n)],
              st.integers(-9, 2) | st.integers(2, 9).map(lambda k: 2 * k)
              | st.integers(MAX_GAP_FAMILY_N + 1, 10**9)),
    st.builds(lambda name, b: ["reproduce", name, "--bound", str(b)],
              st.sampled_from(["exim", "ex3", "ex10"]), st.integers(-9, 9)),
    st.builds(lambda b: ["reproduce", "triangle-atlas", "--bound", str(b)],
              st.integers(-9, 0) | st.integers(MAX_TRIANGLE_BOUND + 1, 10**9)),
    st.builds(lambda b: ["reproduce", "th2-atlas", "--bound", str(b)],
              st.integers(-9, -1) | st.integers(4, 9)),
    st.builds(lambda v: ["reproduce", "triangle-atlas", "--seed", str(v)], st.integers(-9, 9)),
    st.builds(lambda name: ["reproduce", name],
              st.text(max_size=5).filter(lambda name: name not in reproduce.SCENARIOS)),
)


@settings(deadline=None, max_examples=100)
@given(st.one_of(*[_request(c) for c in _FIELDS], _reproduce))
def test_random_requests_exit_cleanly(argv):
    out, err = StringIO(), StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert time.perf_counter() - start < 10
    assert code in range(6), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# --- the package exports -------------------------------------------------------------


# exported but reached by no other line of the package, on purpose
_EXPORT_ALLOW = {
    # the public single-support form of route ii's line contact, pinned by
    # tests/golden/line_contact_grid2x3.json
    "line_contact_construct",
}


def test_every_export_is_used_by_the_package():
    init = Path(sparsemult.__file__)
    names = [alias.asname or alias.name for node in ast.parse(init.read_text()).body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    lines = [line for path in sorted(init.parent.glob("*.py")) if path != init
             for line in path.read_text().splitlines()]
    unused = []
    for name in names:
        used = re.compile(rf"\b{name}\b")
        defined = re.compile(rf"\s*(def|class)\s+{name}\b|{name}\s*[:=]")
        if not any(used.search(line) and not defined.match(line) for line in lines):
            unused.append(name)
    assert sorted(unused) == sorted(_EXPORT_ALLOW)
