"""Print the functions in src/sparsemult that no command reaches.

Runs the command-level test modules and every script under demos/ in this
process under sys.setprofile, then prints each non-dunder function defined
in src/sparsemult that none of them called, one ``module.qualname`` a line.
Writes no bytecode and no pytest cache.  Opt-in, not part of Tier-1:

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

import pytest  # noqa: E402


def defined():
    """(file, first line, name) of each non-dunder def; the first line is
    that of its first decorator, as in ``co_firstlineno``."""
    out = []

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and not (child.name.startswith("__") and child.name.endswith("__")):
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


if __name__ == "__main__":
    main()
