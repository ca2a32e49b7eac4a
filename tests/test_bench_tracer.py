"""bench/tracer.py wraps package functions by name.  Every name it lists
must still resolve, so that a change which deletes one fails here and not
first in a traced benchmark run; and each report section, and each layer a
command runs, must be reached through the module attribute the tracer
replaces."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from branchzeta import checks, cli, poles

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
    for name in ("poles.pi_multisets", "poles.eigenvalue_analysis", "toric.divisor_numerics"):
        assert parent[name] == "cli.report_to_dict", name
    assert parent["poles.branch_report"] == "bench.op"
    # a report reads Yano's multiset as Pi; only verify's rows assemble it
    assert "poles.yano_multiset" not in names
    t = tracer.Tracer()
    t.install()
    try:
        t.run_op(0, t.wrap("checks.combinatorics_rows",
                           lambda: list(checks.combinatorics_rows(["4,6,7"]))))
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    assert [names[s[3]] for s in t.spans if s[0] == "poles.yano_multiset"] == [
        "checks.combinatorics_rows"]


def test_commands_call_their_layers_through_the_traced_attribute():
    # a command imports its layer when it runs and reads the function off
    # the module then, so it calls the tracer's wrapper; main reads the
    # command off cli when it runs, so a parser built by an earlier call
    # does not bypass the wrappers of cli.cmd_*
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", "4,9", "--format", "tsv"]) == 0
    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t.run_op(0, cli.main, ["analyze", "4,9", "--format", "json"])
            t.run_op(1, cli.main, ["generate", "4,9"])
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    called_under = {(s[0], names[s[3]]) for s in t.spans if s[3] >= 0}
    assert ("poles.branch_report", "cli.cmd_analyze") in called_under
    assert ("curves.plane_equation", "cli.cmd_generate") in called_under
