"""Every function the benchmark tracer wraps still exists under its name.

``perfbench/tracer.py`` times the layers by rebinding the names listed in
its ``PLAN``; a renamed or deleted function would otherwise surface only
in a traced benchmark run.  The tracer module is loaded from its file
without writing bytecode next to it, and nothing in it is changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("mod_name, attr", [(m, a) for m, a, _ in tracer.PLAN],
                         ids=[f"{m}.{a}" for m, a, _ in tracer.PLAN])
def test_plan_entry_resolves(mod_name, attr):
    home = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
    if "." in attr:
        # a method is wrapped on its class, where the class itself defines it
        cls_name, meth = attr.split(".")
        target = vars(getattr(home, cls_name))[meth]
    else:
        target = getattr(home, attr)
    assert callable(target)
    assert target.__module__.startswith(tracer.PACKAGE + ".")
