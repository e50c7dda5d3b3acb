"""Print the functions in src/sparsemult that no command reaches.

Runs the command-level test modules and every script under demos/ in this
process under sys.setprofile, then prints each function defined in
src/sparsemult, dunders included, that none of them called, one
``module.qualname`` a line.  Exits 1 when the tests fail, when a function
outside ``KEEPS`` is unreached, so a helper that a refactor leaves without
callers fails the run, or when an entry of ``KEEPS`` is stale: reached, or
no longer defined.  Writes no bytecode and no pytest cache.  Not part of
Tier-1; CI runs it:

    python tools/reach.py
"""

import ast
import contextlib
import io
import os
import runpy
import sys
from pathlib import Path

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
ROOT = Path(__file__).resolve().parent.parent
TESTS = ["test_cli.py", "test_golden.py", "test_acceptance.py", "test_demos.py"]
sys.path.insert(0, str(ROOT / "src"))

# unreached by any command, each kept on purpose
KEEPS = {
    # read by the benchmark tracer's series_mul observer
    "algebra.TruncatedSeries.coeffs",
    # wrapped by name in the benchmark tracer's PLAN (algebra.series_add)
    "algebra.TruncatedSeries.__add__",
    # wrapped by name in the benchmark tracer's PLAN (algebra.resultant), and
    # the tests' Q-only oracle for non-isolated intersections
    "algebra.sylvester_resultant",
    # the tests' ring operations and normal-form checks of UnivariatePolynomial
    "algebra.UnivariatePolynomial.__rsub__",
    "algebra.UnivariatePolynomial.__pow__",
    "algebra.UnivariatePolynomial.__hash__",
    # the tests' comparisons of series: ring operations, rungs as prefixes
    "algebra.TruncatedSeries.__eq__",
    # the tests' oracle for LaurentPolynomial.jet's gradient
    "algebra.LaurentPolynomial.partial",
    # the tests' oracle for UnimodularAffineMap.apply_set
    "lattice.UnimodularAffineMap.apply",
    # the DerivativeTable entry of verify.CHECKS, which no command replays yet
    "verify._derivative_table",
}

import pytest  # noqa: E402


def defined():
    """(file, first line, name) of each def; the first line is that of its
    first decorator, as in ``co_firstlineno``."""
    out = []

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out.append((str(path), first, f"{path.stem}.{name}"))
                visit(child, name + ".", path)

    for path in sorted((ROOT / "src" / "sparsemult").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return out


def main():
    seen = set()
    sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code) if event == "call" else None)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                                *[str(ROOT / "tests" / t) for t in TESTS]])
        for demo in sorted((ROOT / "demos").glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    called = {(c.co_filename, c.co_firstlineno) for c in seen}
    unreached = [name for path, line, name in defined() if (path, line) not in called]
    print("\n".join(unreached))
    print(f"{len(unreached)} functions not reached (pytest exit {int(code)})", file=sys.stderr)
    orphans = [name for name in unreached if name not in KEEPS]
    if orphans:
        print(f"unreached outside KEEPS: {', '.join(orphans)}", file=sys.stderr)
    stale = sorted(KEEPS - set(unreached))
    if stale:
        print(f"stale KEEPS entries, reached or not defined: {', '.join(stale)}", file=sys.stderr)
    return 1 if orphans or stale or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
