"""Byte goldens of `analyze`: the JSON, TSV and text outputs stored in
tests/golden/ must be reproduced exactly, byte for byte."""

from pathlib import Path

import pytest

from branchzeta.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
