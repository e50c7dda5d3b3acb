"""The command-line surface: JSON round-trips, exit codes, reproducibility."""

import json

import pytest

from sparsemult.cli import main
from sparsemult.jsonio import (
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
        {**rep, "request": {"command": "multipoint"}},
        {"system": rep["system"]},
    ):
        code = main(["verify", "--json", json.dumps(bad)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("invalid input:")


_POLY = {"terms": [{"exp": [1, 0], "coeff": "1/1"}, {"exp": [0, 0], "coeff": "-1/1"}]}
_LINE = {"terms": [{"exp": [0, 1], "coeff": "1/1"}, {"exp": [0, 0], "coeff": "-1/1"}]}


def _system(**changes):
    obj = {"f": _POLY, "g": _LINE, "point": ["1/1", "1/1"], "multiplicity": 1}
    obj.update(changes)
    return obj


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
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2}), "--truncation", "-5"],
        ["construct", "--json", json.dumps({"A": SQUARE, "B": SIMPLEX, "m": 2}), "--truncation", "1"],
    ],
)
def test_invalid_json_values_exit_2(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert "Traceback" not in err
