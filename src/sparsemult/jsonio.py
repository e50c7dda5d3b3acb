"""JSON encodings for the shared schemas.

Rationals travel as strings "p/q"; supports as {"points": [[x, y], ...]};
Laurent polynomials as {"terms": [{"exp": [e1, e2], "coeff": "p/q"}, ...]}.
Parsers are strict: unknown fields are rejected so malformed requests fail
loudly instead of half-working.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .algebra import LaurentPolynomial, UnivariatePolynomial, _frac
from .construct import ConstructedSystem
from .errors import InputError
from .lattice import SupportSet, UnimodularAffineMap
from .verify import MultiplicityCertificate


def _check_keys(obj: dict, allowed: set, what: str):
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown fields {sorted(unknown)} in {what}")


def require_keys(obj: dict, keys, what: str):
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InputError(f"missing fields {missing} in {what}")


def int_from_json(v, what: str) -> int:
    """A JSON integer; floats, bools and strings are rejected, not coerced."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"{what} must be an integer, got {v!r}")
    return v


def ints_from_json(v, what: str) -> list:
    if not isinstance(v, list):
        raise InputError(f"{what} must be a list of integers, got {v!r}")
    return [int_from_json(x, what) for x in v]


def _int_pair(p, what: str):
    if not isinstance(p, list) or len(p) != 2:
        raise InputError(f"{what} must be a pair of integers, got {p!r}")
    return (int_from_json(p[0], what), int_from_json(p[1], what))


def points_from_json(pts) -> SupportSet:
    if not isinstance(pts, list) or not pts:
        raise InputError("'points' must be a non-empty list of [x, y] pairs")
    return SupportSet(_int_pair(p, "point") for p in pts)


def fraction_to_json(x: Fraction) -> str:
    x = _frac(x)
    return f"{x.numerator}/{x.denominator}"


def fraction_from_json(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise InputError(f"rational must be a 'p/q' string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"rational must be a 'p/q' string, got {s!r}") from None


def support_to_json(S: SupportSet) -> dict:
    return {"points": [[x, y] for x, y in S.sorted_points()]}


# Caps on a support or a polynomial's exponents read from a request, checked
# before any hull, erosion, kernel or series work.  On each axis the
# coordinates lie in [-MAX_SPAN, MAX_SPAN] and span at most MAX_SPAN; a
# support may list every point of such a box.  The cost of the dimension
# kernel grows like span^6: at these caps the slowest bounds, classify or
# construct request takes under 2 s (2-vCPU Xeon, Python 3.11), at span 11
# about 2.5 s.
MAX_SPAN = 10
MAX_SUPPORT_POINTS = (MAX_SPAN + 1) ** 2

# Caps on a univariate request's exponents: its polynomial is dense over
# their range, its kernel grows with their count.  At the caps the slowest
# request (l = 39) takes under 1 s (2-vCPU Xeon, Python 3.11).
MAX_EXPONENT = 1000
MAX_EXPONENTS = 40

# Caps on the CLI's integer options, checked before any work (2-vCPU Xeon,
# Python 3.11): --retries costs one draw each, about 1.7 s at the cap for a
# multipoint request that fails every draw; ex10 --n costs about n^2.6,
# 0.6 s at the cap; triangle-atlas --bound about bound^6, 35 s at the cap.
MAX_RETRIES = 1000
MAX_GAP_FAMILY_N = 51
MAX_TRIANGLE_BOUND = 10


def _check_span(points, what: str):
    """Raise unless every axis of the non-empty points keeps the caps; ``what``
    names the coordinates, with {} for the axis."""
    for axis, name in ((0, "x"), (1, "y")):
        lo, hi = min(p[axis] for p in points), max(p[axis] for p in points)
        if hi - lo > MAX_SPAN or max(-lo, hi) > MAX_SPAN:
            raise InputError(
                f"{what.format(name)} run from {lo} to {hi}; they must lie in "
                f"[-{MAX_SPAN}, {MAX_SPAN}] and span at most {MAX_SPAN}")


def exponents_from_json(v) -> list:
    if isinstance(v, list) and len(v) > MAX_EXPONENTS:
        raise InputError(f"{len(v)} exponents given, at most {MAX_EXPONENTS} are accepted")
    exps = ints_from_json(v, "exponents")
    if exps and max(map(abs, exps)) > MAX_EXPONENT:
        raise InputError(f"exponents must lie in [-{MAX_EXPONENT}, {MAX_EXPONENT}], got {max(exps, key=abs)}")
    return exps


def support_from_json(obj) -> SupportSet:
    if not isinstance(obj, dict):
        raise InputError("support must be an object with a 'points' field")
    _check_keys(obj, {"points"}, "support")
    pts = obj.get("points")
    if isinstance(pts, list) and len(pts) > MAX_SUPPORT_POINTS:
        raise InputError(f"support lists {len(pts)} points, at most {MAX_SUPPORT_POINTS} are accepted")
    S = points_from_json(pts)
    _check_span(S.points, "support {} coordinates")
    return S


def laurent_to_json(f: LaurentPolynomial) -> dict:
    return {"terms": [{"exp": [e[0], e[1]], "coeff": fraction_to_json(c)}
                      for e, c in sorted(f.terms.items())]}


def laurent_from_json(obj) -> LaurentPolynomial:
    if not isinstance(obj, dict):
        raise InputError("polynomial must be an object with a 'terms' field")
    _check_keys(obj, {"terms"}, "polynomial")
    raw = obj.get("terms", [])
    if not isinstance(raw, list):
        raise InputError("'terms' must be a list of terms")
    terms = {}
    for t in raw:
        if not isinstance(t, dict):
            raise InputError(f"polynomial term must be an object, got {t!r}")
        _check_keys(t, {"exp", "coeff"}, "polynomial term")
        require_keys(t, ["exp", "coeff"], "polynomial term")
        e = _int_pair(t["exp"], "exponent")
        if e in terms:
            raise InputError(f"duplicate exponent {list(e)} in polynomial")
        terms[e] = fraction_from_json(t["coeff"])
    if terms:
        _check_span(terms, "polynomial {} exponents")
    return LaurentPolynomial(terms)


def upoly_to_json(p: UnivariatePolynomial) -> dict:
    return {"var": p.var, "coeffs": [fraction_to_json(c) for c in p.coeffs]}


def point_to_json(p) -> list:
    return [fraction_to_json(p[0]), fraction_to_json(p[1])]


def point_from_json(obj):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise InputError("point must be a pair")
    return (fraction_from_json(obj[0]), fraction_from_json(obj[1]))


def _value_to_json(v):
    if isinstance(v, Fraction):
        return fraction_to_json(v)
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_value_to_json(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _value_to_json(x) for k, x in v.items()}
    if isinstance(v, SupportSet):
        return support_to_json(v)
    if isinstance(v, LaurentPolynomial):
        return laurent_to_json(v)
    if isinstance(v, UnivariatePolynomial):
        return upoly_to_json(v)
    return repr(v)


def certificate_to_json(cert: MultiplicityCertificate) -> dict:
    return {
        "kind": cert.kind,
        "inputs": _value_to_json(cert.inputs),
        "transcript": _value_to_json(cert.transcript),
    }


def system_to_json(s: ConstructedSystem) -> dict:
    out: Dict[str, object] = {
        "f": laurent_to_json(s.f),
        "g": laurent_to_json(s.g),
        "seed": s.seed,
        "exact": s.exact,
    }
    if len(s.points) == 1:
        out["point"] = point_to_json(s.points[0])
        out["multiplicity"] = s.multiplicities[0]
    else:
        out["points"] = [point_to_json(p) for p in s.points]
        out["multiplicities"] = list(s.multiplicities)
    if s.certificate is not None:
        out["certificate"] = certificate_to_json(s.certificate)
    if s.normalization is not None:
        out["normalization"] = {
            "matrix": [list(s.normalization.matrix[0]), list(s.normalization.matrix[1])],
            "shift": list(s.normalization.shift),
        }
    return out


def system_from_json(obj) -> ConstructedSystem:
    if not isinstance(obj, dict):
        raise InputError("system must be an object")
    _check_keys(
        obj,
        {"f", "g", "point", "multiplicity", "points", "multiplicities", "seed",
         "exact", "certificate", "normalization"},
        "system",
    )
    require_keys(obj, ["f", "g"], "system")
    f = laurent_from_json(obj["f"])
    g = laurent_from_json(obj["g"])
    if "point" in obj:
        require_keys(obj, ["multiplicity"], "system")
        points = (point_from_json(obj["point"]),)
        mults = (int_from_json(obj["multiplicity"], "multiplicity"),)
    else:
        require_keys(obj, ["points", "multiplicities"], "system")
        if not isinstance(obj["points"], list):
            raise InputError("'points' must be a list of points")
        points = tuple(point_from_json(p) for p in obj["points"])
        mults = tuple(ints_from_json(obj["multiplicities"], "multiplicity"))
        if not points or len(points) != len(mults):
            raise InputError("'points' and 'multiplicities' must be non-empty and of equal length")
    exact = obj.get("exact", True)
    if not isinstance(exact, bool):
        raise InputError(f"exact must be a boolean, got {exact!r}")
    norm = None
    if "normalization" in obj and obj["normalization"] is not None:
        n = obj["normalization"]
        if not isinstance(n, dict):
            raise InputError("'normalization' must be an object")
        _check_keys(n, {"matrix", "shift"}, "normalization")
        require_keys(n, ["matrix", "shift"], "normalization")
        rows = n["matrix"]
        if not isinstance(rows, list) or len(rows) != 2:
            raise InputError(f"normalization matrix must be 2x2, got {rows!r}")
        norm = UnimodularAffineMap(
            tuple(_int_pair(r, "normalization matrix row") for r in rows),
            _int_pair(n["shift"], "normalization shift"),
        )
    return ConstructedSystem(
        f=f,
        g=g,
        points=points,
        multiplicities=mults,
        seed=int_from_json(obj.get("seed", 0), "seed"),
        retries_used=0,
        exact=exact,
        certificate=None,
        normalization=norm,
    )
