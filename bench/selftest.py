#!/usr/bin/env python3
"""Self-test of the output checkers: each must accept a real output and
reject it after one corruption.

    python3 bench/selftest.py

Exit status 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import inputs
import reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from branchzeta import cli, poles  # noqa: E402
from branchzeta.gammaratio import RnmParams, rnm_closed_form  # noqa: E402
from branchzeta.quadrature import QuadConfig, rnm_quadrature  # noqa: E402


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def corrupt_exponent(out: str) -> str:
    doc = json.loads(out)
    doc["pi"][0]["exponent"] = "1/7" if doc["pi"][0]["exponent"] != "1/7" else "1/9"
    return json.dumps(doc, sort_keys=True, indent=2)


def corrupt_sigma(tsv: str) -> str:
    lines = tsv.splitlines(keepends=True)
    cells = lines[5].split("\t")
    cells[2] = "-1/3" if cells[2] != "-1/3" else "-2/3"
    lines[5] = "\t".join(cells)
    return "".join(lines)


def main() -> int:
    cases = []  # (label, problems of the real output, problems of the corrupted one)

    for text in ("2,3", "4,9", "4,6,7"):
        out = cli.canonical_json(cli.report_to_dict(poles.branch_report(text)))
        cases.append((f"corpus {text}: one pi exponent changed",
                      reference.check_report_json(text, out),
                      reference.check_report_json(text, corrupt_exponent(out))))
    cases.append(("corpus 4,6,7: JSON re-indented", [],
                  reference.check_report_json("4,6,7", out.replace("\n  ", "\n   ", 1))))

    for spec in ("2,101", "semigroup:4,6,21"):
        rc, tsv = run_cli(["analyze", spec, "--format", "tsv"])
        lines = tsv.splitlines(keepends=True)
        dropped = "".join(lines[:7] + lines[8:])
        cases.append((f"ladder {spec}: one TSV row dropped",
                      reference.check_ladder_tsv(spec, tsv),
                      reference.check_ladder_tsv(spec, dropped)))
        cases.append((f"ladder {spec}: one sigma changed", [],
                      reference.check_ladder_tsv(spec, corrupt_sigma(tsv))))

    point = inputs.kernel_round(7)[3]
    p = RnmParams(alpha=point[0], n=point[1], beta=point[2], m=point[3], lam=float(point[4]))
    cf = rnm_closed_form(p)
    quad = rnm_quadrature(p, QuadConfig(rel_tol=inputs.KERNEL_REL_TOL))
    swapped = rnm_closed_form(RnmParams(alpha=p.alpha_prime, n=-p.n, beta=p.beta_prime, m=-p.m,
                                        lam=complex(p.lam).conjugate())).value
    good = reference.check_kernel(point, cf.order, cf.value, quad, swapped, inputs.KERNEL_REL_TOL)
    cases.append(("kernel: closed form off by 1e-6 relative", good,
                  reference.check_kernel(point, cf.order, cf.value * (1 + 1e-6), quad, swapped,
                                         inputs.KERNEL_REL_TOL)))
    cases.append(("kernel: quadrature off by 1e-3 relative", good,
                  reference.check_kernel(point, cf.order, cf.value, quad * (1 + 1e-3), swapped,
                                         inputs.KERNEL_REL_TOL)))

    for argv in inputs.cli_round(7)[:12]:
        rc, out = run_cli(argv)
        cases.append((f"cli {' '.join(argv)}: exit code changed",
                      reference.check_cli(argv, rc, out),
                      reference.check_cli(argv, 2, out)))
    argv = inputs.cli_round(7)[3]
    rc, out = run_cli(argv)
    head, value, rest = out.split("\n", 2)
    z = complex(value.removeprefix("value ").replace("i", "j")) * (1 + 1e-6)
    off = f"{head}\nvalue {z.real:.12e}{z.imag:+.12e}i\n{rest}"
    cases.append(("cli residue: value off by 1e-6 relative", [], reference.check_cli(argv, rc, off)))
    fault = ["residue", *inputs.KNOWN_FAULT_RESIDUES[1]]
    zero = "order 0\nvalue 0.000000000000e+00+0.000000000000e+00i\nreason -\n"
    cases.append(("cli residue: value 0 where mpmath gives -1.40e-45i", [],
                  reference.check_cli(fault, 0, zero)))
    argv = inputs.cli_round(7)[8]
    rc, out = run_cli(argv)
    doc = json.loads(out)
    doc["deformation"]["terms"][0]["weight"] += 1
    cases.append(("cli generate: one deformation weight changed", [],
                  reference.check_cli(argv, rc, json.dumps(doc, sort_keys=True, indent=2) + "\n")))

    ok = True
    for label, real, corrupted in cases:
        fine = not real and bool(corrupted)
        ok = ok and fine
        print(f"{'ok  ' if fine else 'FAIL'} {label}: real output "
              f"{'accepted' if not real else 'REJECTED ' + real[0]}, corrupted "
              f"{'rejected (' + corrupted[0] + ')' if corrupted else 'ACCEPTED'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
