"""Spans and counters recorded around calls into each layer of branchzeta.

Nothing in the package is changed on disk: ``Tracer.install`` replaces each
public function listed in ``TARGETS``, in every ``branchzeta`` module that
holds it, by a wrapper that records a span, so a caller that looks the name
up (``branchzeta.poles.toric_steps`` inside ``candidate_pole``,
``branchzeta.cli.branch_report`` inside ``cmd_analyze``) goes through it.
``uninstall`` puts the originals back.

A span is (name, start_ns, end_ns, parent index, op id).  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; a layer's self time is
the sum over its spans.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("branch", "toric", "poles", "cli", "gammaratio", "quadrature", "curves")

TARGETS = (
    ("branch", "parse_input"), ("branch", "derive_numerics"),
    ("branch", "validate_plane_semigroup"), ("branch", "charseq_from_semigroup"),
    ("toric", "toric_steps"), ("toric", "divisor_numerics"),
    ("poles", "branch_report"), ("poles", "candidate_pole"), ("poles", "pi_multisets"),
    ("poles", "yano_multiset"), ("poles", "eigenvalue_analysis"),
    ("cli", "main"), ("cli", "cmd_analyze"), ("cli", "cmd_residue"), ("cli", "cmd_verify"),
    ("cli", "cmd_generate"), ("cli", "report_to_dict"), ("cli", "canonical_json"),
    ("gammaratio", "rnm_closed_form"), ("gammaratio", "symmetry_check"),
    ("quadrature", "rnm_quadrature"), ("quadrature", "vanishing_integral_check"),
    ("curves", "plane_equation"), ("curves", "monomial_curve_equations"),
    ("curves", "deformation_family"),
)
METHODS = (("curves", "DeformationFamily", "instantiate"),)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.names: list[str] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, names, counts = self.spans, self.stack, self.names, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            names.append(name)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                names.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if name == "cli.canonical_json":
                counts["cli.out_bytes"] += len(out)
            elif name == "poles.yano_multiset":
                counts["poles.yano_kept"] += out.total
            elif name == "curves.deformation_family":
                counts["curves.terms"] += len(out.terms)
            return out

        return traced

    def run_op(self, op: int, fn, *args):
        """Run one benchmark op under a root span "bench.op"."""
        self.op = op
        return self.wrap("bench.op", fn)(*args)

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    def install(self) -> None:
        mods = {m: importlib.import_module(f"branchzeta.{m}") for m in LAYERS}
        spaces = [importlib.import_module("branchzeta"), *mods.values()]
        for mod, attr in TARGETS:
            orig = getattr(mods[mod], attr)
            wrapped = self.wrap(f"{mod}.{attr}", orig)
            for space in spaces:
                for key, val in list(vars(space).items()):
                    if val is orig:
                        setattr(space, key, wrapped)
                        self._undo.append((space, key, orig))
        for mod, cls_name, attr in METHODS:
            cls = getattr(mods[mod], cls_name)
            orig = getattr(cls, attr)
            setattr(cls, attr, self.wrap(f"{mod}.{cls_name}.{attr}", orig))
            self._undo.append((cls, attr, orig))
        ms_cls = mods["poles"].ExponentMultiset
        orig_add = ms_cls.add
        names, counts = self.names, self.counts

        def add(ms, exponent, mult=1):
            if names and names[-1] == "poles.yano_multiset":
                counts["poles.yano_adds"] += 1
            return orig_add(ms, exponent, mult)

        ms_cls.add = add
        self._undo.append((ms_cls, "add", orig_add))
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc)
        for space, key, orig in reversed(self._undo):
            setattr(space, key, orig)
        self._undo.clear()

    def summary(self, tsv_ops=frozenset()) -> dict[str, float]:
        """Per-layer figures from the recorded spans, named as in the
        per_layer list of BENCHMARK.json."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0] * len(dur)
        for k, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[k]
        total: dict[str, int] = defaultdict(int)
        selft: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        layer_self: dict[str, int] = defaultdict(int)
        tsv_self = 0
        for k, s in enumerate(self.spans):
            name = s[0]
            total[name] += dur[k]
            selft[name] += dur[k] - child[k]
            calls[name] += 1
            layer_self[name.split(".")[0]] += dur[k] - child[k]
            if name == "cli.cmd_analyze" and s[4] in tsv_ops:
                tsv_self += dur[k] - child[k]

        def ms(name):
            return total[name] / 1e6

        def per_call(name, scale):
            return total[name] / scale / calls[name] if calls[name] else 0.0

        c = self.counts
        out = {
            "branch.parse_ms": ms("branch.parse_input"),
            "branch.derive_ms": ms("branch.derive_numerics"),
            "branch.validate_ms": ms("branch.validate_plane_semigroup"),
            "toric.steps_ms": ms("toric.toric_steps"),
            "toric.divisors_ms": ms("toric.divisor_numerics"),
            "toric.steps_calls": calls["toric.toric_steps"],
            "poles.candidates": calls["poles.candidate_pole"],
            "poles.candidate_us": per_call("poles.candidate_pole", 1e3),
            "poles.ladder_ms": ms("poles.candidate_pole"),
            "poles.pi_ms": ms("poles.pi_multisets"),
            "poles.yano_ms": ms("poles.yano_multiset"),
            "poles.eigen_ms": ms("poles.eigenvalue_analysis"),
            "poles.report_self_ms": selft["poles.branch_report"] / 1e6,
            "poles.yano_adds": c["poles.yano_adds"],
            "poles.yano_kept_ratio": c["poles.yano_kept"] / c["poles.yano_adds"] if c["poles.yano_adds"] else 0.0,
            "cli.to_dict_ms": ms("cli.report_to_dict"),
            "cli.json_ms": ms("cli.canonical_json"),
            "cli.out_bytes": c["cli.out_bytes"],
            "cli.out_mb_per_s": (c["cli.out_bytes"] / 1e6) / (ms("cli.canonical_json") / 1e3)
            if total["cli.canonical_json"] else 0.0,
            "cli.tsv_ms": tsv_self / 1e6,
            "cli.analyze_ms": ms("cli.cmd_analyze"),
            "cli.residue_ms": ms("cli.cmd_residue"),
            "cli.verify_ms": ms("cli.cmd_verify"),
            "cli.generate_ms": ms("cli.cmd_generate"),
            "gammaratio.closed_form_us": per_call("gammaratio.rnm_closed_form", 1e3),
            "gammaratio.symmetry_us": per_call("gammaratio.symmetry_check", 1e3),
            "quadrature.call_ms": per_call("quadrature.rnm_quadrature", 1e6),
            "curves.plane_ms": ms("curves.plane_equation"),
            "curves.deform_ms": ms("curves.deformation_family"),
            "curves.instantiate_ms": ms("curves.DeformationFamily.instantiate"),
            "curves.terms": c["curves.terms"],
            "runtime.gc_ms": self.gc_ns / 1e6,
            "runtime.gc_collections": self.gc_collections,
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_self[layer] / 1e6
        return out

    def dump(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
