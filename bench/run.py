#!/usr/bin/env python3
"""Benchmark of branchzeta: four closed-loop workloads, timed or traced.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Workloads (one client, one operation at a time, one process):
  corpus  branch_report + canonical_json(report_to_dict(..)) on seeded branches
  ladder  cli.main(["analyze", spec, "--format", "tsv"]) on single long ladders
  kernel  rnm_closed_form then rnm_quadrature on seeded kernel points
  cli     one fresh `python -m branchzeta.cli` process per command

A run repeats whole rounds (fixed operation lists, see inputs.py); the number
of rounds is --seconds divided by the workload's nominal round time, so every
run of a workload does the same work; --seconds defaults to run_seconds in
BENCHMARK.json, which also names every metric and its unit.  Every output is
checked against the benchmark's own computations (reference.py) outside the
timed region.
Times are scaled by a calibration run next to each op (see
CAL_LOOP_S).  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
traced round gives the per-layer ones (tracer.py) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("corpus", "ladder", "kernel", "cli")
# nominal seconds of op time per round on the reference machine (see README)
ROUND_SECONDS = {"corpus": 3.5, "ladder": 3.7, "kernel": 1.6, "cli": 3.0}
SETUP_REPS = 5
TAIL_BEYOND = 10  # samples beyond the tail percentile


# Every timed duration is scaled to a reference machine speed: divided by the
# mean slowness (measured time over reference time) of a fixed calibration
# run right before and right after it.  In-process ops are calibrated by a
# loop on the same core; fresh processes (cli ops, set-up probes) by a fresh
# `python -c "import numpy"`, because starting an interpreter and numpy's
# thread pool slows differently from computing when this VM is busy.  On the 2-vCPU VM this benchmark was built on, the
# quartile spread of a time metric over runs of identical code was 15-54 %
# unscaled and 2-12 % scaled (see README).  The reference times are roughly
# the calibrations' median times there, so scaled figures read like wall time.
CAL_LOOP_S = 0.002
CAL_PROCESS_S = 0.2


def calibration_work() -> float:
    """Fixed pure-Python and numpy work, independent of branchzeta."""
    import numpy as np

    acc, table = 0, {}
    for i in range(1, 12000):
        acc += (i * i) % 7
        table[i % 97] = acc
    x = np.linspace(0.1, 3.0, 24)
    for _ in range(100):
        v = np.power(x[:, None], 0.3) * np.power(x[None, :] + 1.0, -1.2)
        acc += float(x @ v @ x)
    return acc


def slowness(process: bool = False) -> float:
    """Time of one calibration over its reference time."""
    t0 = time.perf_counter()
    if process:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    else:
        calibration_work()
    return (time.perf_counter() - t0) / (CAL_PROCESS_S if process else CAL_LOOP_S)


@contextlib.contextmanager
def one_core(enabled: bool = True):
    """Keep the calling thread on one core while in-process ops run, so that
    each calibration runs on the core whose speed it measures.  Only this
    thread is pinned (numpy's BLAS threads, made at import, are not), and the
    old mask is restored before any child process is started: a child that
    inherited one core would start numpy with a smaller thread pool."""
    mask = os.sched_getaffinity(0)
    if enabled:
        os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def build_round(workload: str, seed: int):
    """The operation list of one round, with anything the ops need prebuilt."""
    if workload == "corpus":
        return inputs.corpus_round(seed)
    if workload == "ladder":
        return inputs.ladder_round(seed)
    if workload == "kernel":
        from branchzeta.gammaratio import RnmParams

        return [(pt, RnmParams(alpha=pt[0], n=pt[1], beta=pt[2], m=pt[3], lam=float(pt[4])))
                for pt in inputs.kernel_round(seed)]
    return inputs.cli_round(seed)


# ---- operations: op(item) runs inside the timer, finish(result) after it


class Launcher:
    """A launch.py process that starts each cli command, so that the peak RSS
    it reports is the cli processes' own, not run.py's (see launch.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv) -> tuple[int, str]:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return tuple(json.loads(self.proc.stdout.readline()))

    def peak_mb(self) -> float:
        """Close the launcher and return its children's largest ru_maxrss."""
        self.proc.stdin.close()
        peak = json.loads(self.proc.stdout.readline())
        self.proc.wait()
        return peak

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def own_peak_mb() -> float:
    """The high-water RSS of this process since it started.  Not ru_maxrss,
    which also holds the peak of whatever process spawned this one."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def make_ops(workload: str, launcher: Launcher | None = None):
    """op(item) and finish(result) for a workload; cli commands go to
    `launcher` when given, else run in-process through cli.main."""
    from branchzeta import cli, poles

    if workload == "corpus":
        def op(text):
            return cli.canonical_json(cli.report_to_dict(poles.branch_report(text)))

        return op, lambda res: res

    if workload == "kernel":
        from branchzeta import gammaratio, quadrature

        cfg = quadrature.QuadConfig(rel_tol=inputs.KERNEL_REL_TOL)

        def op(item):
            cf = gammaratio.rnm_closed_form(item[1])
            return cf.order, cf.value, quadrature.rnm_quadrature(item[1], cfg)

        return op, lambda res: res

    if workload == "cli" and launcher:
        def op(argv):
            return launcher.run([sys.executable, "-m", "branchzeta.cli", *argv])

        return op, lambda res: res

    def op(argv):
        if workload == "ladder":
            argv = ["analyze", argv, "--format", "tsv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # an uncaught error ends a real process with status 1
                rc = 1
        return rc, out

    return op, lambda res: (res[0], res[1].getvalue())


class FirstOutputs:
    """The first output of each op, pickled to a directory under bench/out/
    with only a digest kept in memory, so that no output is held while the
    peak RSS can still rise.  The digest is hash() of the pickle, a 64-bit
    SipHash, not hashlib, whose OpenSSL adds 3.5 MB to the process measured.
    `record` returns whether an output equals the first one of its op."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="first-", dir=OUT))
        self.digests: dict = {}

    def record(self, k: int, out) -> bool:
        blob = pickle.dumps(out)
        digest = hash(blob)
        if k not in self.digests:
            self.digests[k] = digest
            (self.dir / f"{k}.pickle").write_bytes(blob)
        return self.digests[k] == digest

    def __getitem__(self, k: int):
        return pickle.loads((self.dir / f"{k}.pickle").read_bytes())

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_rounds(items, rounds: int, op, finish, first: FirstOutputs, bad: set, tracer=None,
               process: bool = False):
    """Run whole rounds; return (wall, scaled) op durations in seconds, with a
    calibration between every two ops (of process start when `process`).
    Outputs of the first round ever run go to `first`; a later output that
    differs marks its item bad."""
    wall, scale = [], []
    clock = time.perf_counter
    before = slowness(process)
    for _ in range(rounds):
        for k, item in enumerate(items):
            t0 = clock()
            try:
                res = tracer.run_op(k, op, item) if tracer else op(item)
            except Exception as exc:
                res, out = None, ("error", repr(exc))
                bad.add(k)
            dt = clock() - t0
            after = slowness(process)
            wall.append(dt)
            scale.append(2 * dt / (before + after))
            before = after
            if res is not None:
                out = finish(res)
            if not first.record(k, out):
                bad.add(k)
            del res, out
    return wall, scale


def warm_up(items, count: int, op, finish, first, bad) -> None:
    """Untimed pass over the first `count` items, so that one-time costs
    (lazy imports, the Gauss-Legendre node cache) stay out of the samples."""
    run_rounds(items[:count], 1, op, finish, first, bad)
    gc.collect()


# ---- checks, all outside the timed region


def check_item(workload: str, item, out) -> list[str]:
    if isinstance(out, tuple) and out and out[0] == "error":
        return [f"raised {out[1]}"]
    if workload == "corpus":
        return reference.check_report_json(item, out)
    if workload == "ladder":
        rc, text = out
        return [f"exit code {rc}"] if rc != 0 else reference.check_ladder_tsv(item, text)
    if workload == "kernel":
        from branchzeta.gammaratio import RnmParams, rnm_closed_form

        point, p = item
        order, closed, quad = out
        swapped = rnm_closed_form(RnmParams(alpha=p.alpha_prime, n=-p.n, beta=p.beta_prime,
                                            m=-p.m, lam=complex(p.lam).conjugate()))
        return reference.check_kernel(point, order, closed, quad, swapped.value,
                                      inputs.KERNEL_REL_TOL)
    rc, text = out
    return reference.check_cli(item, rc, text)


def is_known_fault(workload: str, item) -> bool:
    return workload == "cli" and item[0] == "residue" and tuple(item[1:]) in inputs.KNOWN_FAULT_RESIDUES


def tally(workload, items, first, bad, rounds):
    """(correct, failed ops, problem lines).  An op fails when its output
    fails a check or differs from the first round's; only the known-fault
    residue commands may fail with `correct` still true."""
    failed, correct, lines = 0, True, []
    for k, item in enumerate(items):
        try:
            problems = check_item(workload, item, first[k])
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
            problems = [f"output could not be read: {exc!r}"]
        if k in bad:
            problems.append("output differs between rounds or raised")
        if problems:
            failed += rounds
            if not is_known_fault(workload, item):
                correct = False
                lines += [f"FAIL {item!r}: {p}" for p in problems[:5]]
    return correct, failed, lines


# ---- metrics


def tail(times_ms: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it; the
    median alone under 40 samples."""
    n = len(times_ms)
    ordered = sorted(times_ms)
    if n < 40:
        return statistics.median(ordered), f"median of {n}"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100 * (k + 1) / n:.1f} of {n}"


def timed_setup(workload: str, seed: int, items) -> float:
    """Median scaled time of SETUP_REPS fresh processes, launch to ready: the
    interpreter, `import branchzeta` and building the inputs; for cli, a cold
    invocation of the cycle's first command."""
    env = child_env()
    if workload == "cli":
        argv = [sys.executable, "-m", "branchzeta.cli", *items[0]]
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only"]
    walls = []
    before = slowness(process=True)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(argv, stdout=subprocess.DEVNULL, env=env, check=True)
        dt = time.perf_counter() - t0
        after = slowness(process=True)
        walls.append(2 * dt / (before + after))
        before = after
    return statistics.median(walls)


def import_probes() -> dict[str, float]:
    """cli.interp_ms: an empty interpreter; cli.import_ms and
    cli.import_numpy_ms: cumulative `-X importtime` figures; medians of 3."""
    env = child_env()
    interp, imp, numpy_ms = [], [], []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import branchzeta.cli"],
                             env=env, stderr=subprocess.PIPE, check=True)
        cum = {}
        for line in res.stderr.decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)", line)
            if m:
                cum[m.group(3)] = int(m.group(1)) / 1e3
        imp.append(cum.get("branchzeta.cli", 0.0))
        numpy_ms.append(cum.get("numpy", 0.0))
    return {"cli.interp_ms": statistics.median(interp), "cli.import_ms": statistics.median(imp),
            "cli.import_numpy_ms": statistics.median(numpy_ms)}


def relerr_maxima(workload: str, items, first) -> dict[str, float]:
    """Largest closed-form error against mpmath and quadrature error against
    the closed form, over the round's kernel points or cli outputs."""
    closed_err, quad_err = 0.0, 0.0
    if workload == "kernel":
        for k, (point, _) in enumerate(items):
            order, closed, quad = first[k]
            if order == 0 and closed is not None:
                closed_err = max(closed_err, reference.relerr(closed, reference.kernel_mp(*point)))
                quad_err = max(quad_err, reference.relerr(quad, closed))
    elif workload == "cli":
        for k, argv in enumerate(items):
            rc, text = first[k]
            if rc != 0 or is_known_fault(workload, argv):
                continue
            if argv[0] == "verify" and "rnm" in argv:
                for row in text.splitlines()[1:]:
                    if row.startswith("rnm("):
                        quad_err = max(quad_err, float(row.split("\t")[3]))
            if argv[0] == "residue" and "--format" not in argv:
                value = dict(ln.split(" ", 1) for ln in text.splitlines())["value"]
                closed_err = max(closed_err, reference.relerr(
                    complex(value.replace("i", "j")), reference.kernel_mp(*reference.residue_point(argv))))
    return {"gammaratio.relerr_max": closed_err, "quadrature.relerr_max": quad_err}


def emit(workload, seed, trace, correct, attempted, failed, metrics, units, notes):
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:7s} {name:28s} {value:14.6g} {units[name]}{note}")
    print(f"{workload:7s} attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-{seed}-trace{trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))


def timed_run(workload: str, seed: int, items, rounds: int, first, bad):
    """--trace 0: the end-to-end metrics.  Returns (metrics, notes, attempted)."""
    notes = {}
    setup_s = timed_setup(workload, seed, items)
    in_process = workload != "cli"
    with (contextlib.nullcontext() if in_process else Launcher()) as launcher, one_core(in_process):
        op, finish = make_ops(workload, launcher)
        # a fresh cli process is cold by design and needs no warm-up
        warm_up(items, 1 if in_process else 0, op, finish, first, bad)
        wall, times = run_rounds(items, rounds, op, finish, first, bad, process=not in_process)
        peak_mb = own_peak_mb() if in_process else launcher.peak_mb()
    ms = [t * 1e3 for t in times]
    tail_ms, notes["op_ms_tail"] = tail(ms)
    metrics = {"setup_s": setup_s, "ops_per_s": len(times) / sum(times),
               "op_ms_p50": statistics.median(ms), "op_ms_tail": tail_ms,
               "peak_rss_mb": peak_mb}
    notes["setup_s"] = f"median of {SETUP_REPS} fresh processes"
    notes["ops_per_s"] = (f"{len(times)} ops in {rounds} rounds of {len(items)};"
                          f" unscaled {len(wall) / sum(wall):.4g}")
    notes["op_ms_p50"] = f"unscaled {statistics.median(wall) * 1e3:.4g}"
    notes["op_ms_tail"] += f"; unscaled {tail([t * 1e3 for t in wall])[0]:.4g}"
    return metrics, notes, len(times)


def traced_run(workload: str, seed: int, items, rounds: int, first, bad):
    """--trace 1: untraced rounds, then one traced round for the per-layer
    metrics and the tracing overhead.  Returns (metrics, notes, attempted)."""
    from tracer import Tracer

    op, finish = make_ops(workload)
    plain_rounds = max(1, rounds // 2)
    tracer = Tracer()
    with one_core():
        warm_up(items, len(items) if workload == "cli" else 1, op, finish, first, bad)
        _, plain = run_rounds(items, plain_rounds, op, finish, first, bad)
        tracer.install()
        try:
            _, traced = run_rounds(items, 1, op, finish, first, bad, tracer)
            if workload == "kernel":
                from branchzeta import gammaratio

                for k, (_, p) in enumerate(items):
                    tracer.op = k
                    gammaratio.symmetry_check(p, rel_tol=1e-10)
        finally:
            tracer.uninstall()
    tsv_ops = frozenset(k for k, it in enumerate(items) if workload == "ladder" or "tsv" in it)
    metrics = tracer.summary(tsv_ops)
    metrics.update(import_probes())
    metrics.update(relerr_maxima(workload, items, first))
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    metrics["trace.overhead_pct"] = 100 * (1 - traced_rate / plain_rate)
    notes = {"trace.overhead_pct": f"{plain_rate:.4g} ops/s untraced over {plain_rounds} rounds,"
                                   f" {traced_rate:.4g} traced over 1"}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-{seed}.jsonl")
    return metrics, notes, len(plain) + len(traced)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "branchzeta" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import branchzeta.cli  # noqa: F401  (imports every layer: the set-up cost a user pays)

    items = build_round(args.workload, args.seed)
    if args.setup_only:
        return 0

    slowness()  # its first call pays numpy's one-time ufunc set-up
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    measure = timed_run if args.trace == 0 else traced_run
    first, bad = FirstOutputs(), set()
    try:
        metrics, notes, attempted = measure(args.workload, args.seed, items, rounds, first, bad)
        correct, failed, problems = tally(args.workload, items, first, bad, attempted // len(items))
    finally:
        first.remove()
    for line in problems:
        print(line, file=sys.stderr)
    section = spec["end_to_end" if args.trace == 0 else "per_layer"]
    units = {m["name"]: m["unit"] for m in section}
    emit(args.workload, args.seed, args.trace, correct, attempted, failed, metrics, units, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
