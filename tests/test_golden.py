"""Byte goldens of `analyze`, `generate`, `verify --suite
combinatorics|rnm|vanishing` and `residue` (a finite value, a complex lambda,
a pole and a zero): the JSON, TSV and text outputs stored in
tests/golden/ must be reproduced exactly, byte for byte, with the same exit
code, in this process and under `python -O`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from branchzeta.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

SPECS = {
    "2_3": ["2,3"],
    "4_9": ["4,9"],
    "4_6_7": ["4,6,7"],
    "6_9_22": ["6,9,22"],
    "semigroup_4_6_13": ["semigroup:4,6,13"],
    "4_9_nu60": ["4,9", "--nu-max", "60"],
}

CASES = [(f"{stem}.{fmt}", [*args, "--format", fmt])
         for stem, args in SPECS.items() for fmt in ("json", "tsv", "text")]
CASES.append(("2_301.tsv", ["2,301", "--format", "tsv"]))


@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_analyze_bytes(capsys, name, args):
    rc = main(["analyze", *args])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.encode() == (GOLDEN / f"analyze_{name}").read_bytes()


COMMANDS = {
    # conjectural-generic: two-member eigenvalue classes, a multiplicity-2 exponent
    "analyze_6_15_25": (["analyze", "6,15,25"], 0),
    "generate_4_9_deform_c38_s7": (["generate", "4,9", "--deform", "--cutoff", "38",
                                    "--seed", "7"], 0),
    "generate_4_6_7_deform_l2_3": (["generate", "4,6,7", "--deform", "--lambdas", "2/3"], 0),
    "generate_semigroup_4_6_13": (["generate", "semigroup:4,6,13"], 0),
    "generate_4_8": (["generate", "4,8"], 2),
    "verify_combinatorics": (["verify", "--suite", "combinatorics"], 0),
    "verify_rnm": (["verify", "--suite", "rnm"], 0),
    "verify_vanishing": (["verify", "--suite", "vanishing"], 0),
    "residue_finite": (["residue", "--alpha", "-1/4", "--n", "0", "--beta", "-1/3", "--m", "0"], 0),
    "residue_lambda_1p1j": (["residue", "--alpha", "-1/4", "--n", "1", "--beta", "-1/3",
                             "--m", "0", "--lambda", "1+1j"], 0),
    "residue_pole": (["residue", "--alpha", "-1/2", "--n", "0", "--beta", "-1/2", "--m", "0",
                      "--lambda", "-1"], 0),
    "residue_zero": (["residue", "--alpha", "0", "--n", "0", "--beta", "0", "--m", "0"], 0),
}

COMMAND_CASES = [(f"{stem}.{fmt}", [*argv, "--format", fmt], rc)
                 for stem, (argv, rc) in COMMANDS.items() for fmt in ("json", "tsv", "text")]


@pytest.mark.parametrize("name,argv,code", COMMAND_CASES, ids=[c[0] for c in COMMAND_CASES])
def test_command_bytes(capsys, name, argv, code):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == code
    assert out.encode() == (GOLDEN / name).read_bytes()


# every case above as (golden file, argv, exit code)
ALL_CASES = [(f"analyze_{name}", ["analyze", *args], 0) for name, args in CASES] + COMMAND_CASES

# runs each argv through cli.main and prints [sys.flags.optimize, [[rc, stdout], ...]]
OPTIMIZED_RUN = """
import contextlib, io, json, sys
from branchzeta.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        results.append([main(argv), out.getvalue()])
print(json.dumps([sys.flags.optimize, results]))
"""


def test_every_case_under_python_O():
    # -O strips every assert: no output byte or exit code may depend on one
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN, json.dumps([a for _, a, _ in ALL_CASES])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert r.returncode == 0, r.stderr
    optimize, results = json.loads(r.stdout)
    assert optimize == 1 and len(results) == len(ALL_CASES) == 55
    assert [name for (name, _, code), (rc, out) in zip(ALL_CASES, results)
            if (rc, out.encode()) != (code, (GOLDEN / name).read_bytes())] == []
