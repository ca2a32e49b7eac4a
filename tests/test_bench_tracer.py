"""bench/tracer.py wraps package functions by name.  Every name it lists
must still resolve, so that a change which deletes one fails here and not
first in a traced benchmark run; and each report section must reach its
builder through the module global the tracer replaces."""

import importlib
import importlib.util
from pathlib import Path

from branchzeta import cli, poles

_SPEC = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def test_every_traced_name_resolves():
    for mod, name in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"branchzeta.{mod}"), name)), (mod, name)
    for mod, cls, name in tracer.METHODS:
        owner = getattr(importlib.import_module(f"branchzeta.{mod}"), cls)
        assert callable(getattr(owner, name)), (mod, cls, name)
    # the tracer counts Yano terms by patching this method
    assert callable(poles.ExponentMultiset.add)


def test_sections_are_traced_under_the_reader():
    t = tracer.Tracer()
    t.install()
    try:
        t.run_op(0, lambda: cli.report_to_dict(poles.branch_report("4,6,7")))
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    parent = {s[0]: names[s[3]] for s in t.spans if s[3] >= 0}
    for name in ("poles.pi_multisets", "poles.yano_multiset", "poles.eigenvalue_analysis",
                 "toric.divisor_numerics"):
        assert parent[name] == "cli.report_to_dict", name
    assert parent["poles.branch_report"] == "bench.op"
