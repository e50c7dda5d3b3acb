"""The demos print the same text, byte for byte.

Each script under ``demos/`` runs in a subprocess with ``PYTHONPATH=src``,
and the sha256 of its stdout is compared with the digest stored in
``tests/golden/demos.sha256`` (one ``<sha256>  <script name>`` line per
demo).  After a deliberate change of a demo's output, regenerate with
``PYTHONPATH=src python tests/test_demos.py`` and review the demo's new
output.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DIGESTS = Path(__file__).parent / "golden" / "demos.sha256"


def _stdout_digest(script: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                         capture_output=True, check=True, timeout=120).stdout
    return hashlib.sha256(out).hexdigest()


def _stored() -> dict:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def test_every_demo_has_a_digest():
    assert sorted(_stored()) == [d.name for d in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_stdout_is_pinned(script):
    assert _stdout_digest(script) == _stored()[script.name]


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{_stdout_digest(d)}  {d.name}\n" for d in DEMOS), encoding="utf-8")
    print(f"wrote {len(DEMOS)} demo digests to {DIGESTS}", file=sys.stderr)
