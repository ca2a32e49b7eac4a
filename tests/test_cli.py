"""CLI contract tests: exit codes, golden outputs, canonical JSON
round-trips, and the verify suites."""

import contextlib
import enum
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import branchzeta.branch
import branchzeta.checks
import branchzeta.cli
import branchzeta.curves
import branchzeta.poles
import curves_oracle
import fraction_oracle
import row_oracle
from branchzeta.branch import gaps, random_charseq
from branchzeta.cli import (_CHUNK_LINES, _RUN, _merge_negative_values, _ratios, _Rows,
                            _write_stdout, build_parser, canonical_json, main, report_to_dict)
from branchzeta.errors import DomainError, IndexOutOfRange
from branchzeta.poles import branch_report

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"


def _child_env(**extra) -> dict:
    """The environment of a cli subprocess that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


# Pythons before 3.10.7 have no limit on the digits str() writes of an int
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="this Python has no int digit limit")


@contextlib.contextmanager
def digit_limit(digits: int):
    """The digits str() writes of an int set to digits inside the block,
    whatever PYTHONINTMAXSTRDIGITS the run has, and restored after it; the
    test is skipped on a Python without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def str_digits_4300():
    """Python's default limit, 4300 digits, for one test."""
    with digit_limit(4300):
        yield


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestAnalyze:
    def test_json_golden_4_9(self, capsys):
        rc, out, _ = run(capsys, "analyze", "4,9", "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert d["mu"] == 24
        assert d["lct"] == "13/36"
        assert sum(e["multiplicity"] for e in d["pi"]) == 24
        assert len(d["candidates"]) == 36
        assert d["verdict"] == "proved-distinct"
        assert d["numerics"]["betabar"] == [4, 9]
        assert set(d) == {
            "candidates", "divisors", "eigenvalues", "input", "lct", "mu",
            "numerics", "pi", "pi_levels", "resonances", "strict_transform",
            "toric_steps", "verdict", "yano",
        }

    def test_json_round_trip_bytes(self, capsys):
        rc, out, _ = run(capsys, "analyze", "6,9,22", "--format", "json")
        assert rc == 0
        assert canonical_json(json.loads(out)) + "\n" == out

    def test_semigroup_alias(self, capsys):
        _, a, _ = run(capsys, "analyze", "semigroup:4,6,13", "--format", "json")
        _, b, _ = run(capsys, "analyze", "4,6,7", "--format", "json")
        da, db = json.loads(a), json.loads(b)
        da.pop("input"), db.pop("input")
        assert da == db

    def test_validation_failure_exit_2(self, capsys):
        rc, out, _ = run(capsys, "analyze", "4,8", "--format", "json")
        assert rc == 2
        d = json.loads(out)
        assert d["error"] == "validation"
        assert "divides" in d["conditions"][0]["detail"]

    def test_semigroup_validation_failure_lists_conditions(self, capsys):
        rc, out, _ = run(capsys, "analyze", "semigroup:4,6,8", "--format", "json")
        assert rc == 2
        d = json.loads(out)
        assert any(not c["passed"] for c in d["conditions"])

    @pytest.mark.parametrize("text", ["SEMIGROUP:4,6,11", " semigroup:4,6,11"])
    def test_semigroup_failure_conditions_ignore_case_and_spaces(self, capsys, text):
        _, want, _ = run(capsys, "analyze", "semigroup:4,6,11", "--format", "json")
        rc, got, _ = run(capsys, "analyze", text, "--format", "json")
        assert rc == 2
        assert json.loads(got)["conditions"] == json.loads(want)["conditions"]
        assert len(json.loads(got)["conditions"]) == 6
        _, want, _ = run(capsys, "analyze", "semigroup:4,6,11", "--format", "text")
        rc, got, _ = run(capsys, "analyze", text, "--format", "text")
        assert rc == 2 and got == want

    def test_syntax_failure_exit_1(self, capsys):
        rc, _, err = run(capsys, "analyze", "not-an-input")
        assert rc == 1
        assert "error" in err

    def test_tsv_candidates(self, capsys):
        rc, out, _ = run(capsys, "analyze", "4,9", "--format", "tsv")
        lines = out.splitlines()
        assert lines[0] == "i\tnu\tsigma\teps1\teps2\teps3\tstatus"
        assert len(lines) == 1 + 36
        first = lines[1].split("\t")
        assert first[:3] == ["1", "0", "-13/36"]
        assert first[6] == "PoleCandidate"

    def test_text_mentions_lct(self, capsys):
        rc, out, _ = run(capsys, "analyze", "4,9")
        assert rc == 0
        assert "lct 13/36" in out
        assert "mu 24" in out

    def test_nu_max_extends_period(self, capsys):
        _, out, _ = run(capsys, "analyze", "4,9", "--nu-max", "40", "--format", "tsv")
        assert len(out.splitlines()) == 1 + 41

    @pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
    def test_negative_nu_max_exit_2(self, capsys, fmt):
        with pytest.raises(IndexOutOfRange):
            branch_report("4,9", nu_max=-7)
        rc, out, err = run(capsys, "analyze", "4,9", "--nu-max", "-1", "--format", fmt)
        assert rc == 2
        assert json.loads(out) == {"error": "domain", "reason": "need nu_max >= 0, got nu_max=-1"}
        assert err == "domain error: need nu_max >= 0, got nu_max=-1\n"

    @pytest.mark.parametrize("stem", ["2_301", "4_6_7"])
    def test_tsv_builds_no_section_but_the_candidates(self, capsys, monkeypatch, stem):
        def refuse(*_):
            raise RuntimeError("a section that tsv does not print was built")

        for name in ("pi_multisets", "yano_multiset", "eigenvalue_analysis", "_resonances"):
            monkeypatch.setattr(branchzeta.poles, name, refuse)
        rc, out, err = run(capsys, "analyze", stem.replace("_", ","), "--format", "tsv")
        assert (rc, err) == (0, "")
        assert out.encode() == (GOLDEN / f"analyze_{stem}.tsv").read_bytes()

    @pytest.mark.parametrize("stem", ["2_3", "4_9", "4_6_7", "6_9_22", "semigroup_4_6_13"])
    def test_text_builds_no_eigenvalue_classes(self, capsys, monkeypatch, stem):
        def refuse(*_):
            raise RuntimeError("text built the eigenvalue classes")

        monkeypatch.setattr(branchzeta.poles, "eigenvalue_analysis", refuse)
        rc, out, err = run(capsys, "analyze", stem.replace("_", ",").replace("semigroup,", "semigroup:"))
        assert (rc, err) == (0, "")
        assert out.encode() == (GOLDEN / f"analyze_{stem}.text").read_bytes()

    BUILDERS = ("divisor_numerics", "log_canonical_threshold", "pi_multisets",
                "yano_multiset", "eigenvalue_analysis", "_resonances")

    @pytest.mark.parametrize("argv,built", [
        (["analyze", "6,9,22", "--format", "json"], dict.fromkeys(BUILDERS, 1)),
        (["analyze", "6,9,22", "--format", "text"],
         {name: 1 for name in BUILDERS if name != "eigenvalue_analysis"}),
        (["verify", "--suite", "combinatorics"],
         dict.fromkeys(("log_canonical_threshold", "pi_multisets", "yano_multiset",
                        "eigenvalue_analysis"), len(branchzeta.checks.COMBINATORIC_CASES))),
    ], ids=["json", "text", "verify"])
    def test_each_section_built_at_most_once_per_report(self, capsys, monkeypatch, argv, built):
        calls = Counter()
        for name in self.BUILDERS:
            def counted(*args, _name=name, _fn=getattr(branchzeta.poles, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(branchzeta.poles, name, counted)
        assert run(capsys, *argv)[0] == 0
        assert calls == built

    def test_sections_share_pi_records(self):
        # g = 1: Yano and Pi_1 are Pi's list; g = 2: Pi_1 is its own list
        for text, g in (("4,9", 1), ("6,9,22", 2)):
            d = report_to_dict(branch_report(text))
            assert d["yano"] is d["pi"]
            assert (d["pi_levels"][0] is d["pi"]) == (g == 1)

    def test_yano_differing_from_pi_is_written_as_its_own(self, capsys, monkeypatch):
        yano = branchzeta.poles.yano_multiset

        def moved(bn):
            # one exponent of Yano moved onto a value that is not in Pi
            ms = yano(bn)
            counts = dict(ms.counts)
            counts.pop(min(counts))
            counts[next(k for k in range(1, ms.den) if k not in counts)] = 1
            return branchzeta.poles.ExponentMultiset(ms.den, counts)

        monkeypatch.setattr(branchzeta.poles, "yano_multiset", moved)
        rc, out, _ = run(capsys, "analyze", "4,9", "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert d["yano"] != d["pi"]
        want = fraction_oracle.exponent_sections(branch_report("4,9"))
        assert {key: d[key] for key in want} == want

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_distinctness_is_checked_once_per_report(self, capsys, monkeypatch, fmt):
        calls = []
        check = branchzeta.poles.eigenvalues_distinct
        monkeypatch.setattr(branchzeta.poles, "eigenvalues_distinct",
                            lambda pi: calls.append(pi) or check(pi))
        assert run(capsys, "analyze", "10,26,91", "--format", fmt)[0] == 0
        assert len(calls) == 1


class TestResidue:
    def test_reference_value(self, capsys):
        rc, out, _ = run(capsys, "residue", "--alpha", "-3/5", "--n", "0",
                         "--beta", "-3/5", "--m", "0", "--lambda", "1",
                         "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert d["order"] == 0
        assert abs(d["value"]["im"] + 54.96898569) <= 1e-6
        assert abs(d["value"]["re"]) <= 1e-9

    def test_simple_zero(self, capsys):
        rc, out, _ = run(capsys, "residue", "--alpha", "0", "--n", "0",
                         "--beta", "-1/2", "--m", "0", "--format", "json")
        d = json.loads(out)
        assert rc == 0 and d["order"] == -1
        assert d["value"] == {"im": 0.0, "re": 0.0}

    def test_integer_arguments_pole(self, capsys):
        rc, out, _ = run(capsys, "residue", "--alpha", "-1", "--n", "0",
                         "--beta", "-1", "--m", "0", "--format", "json")
        d = json.loads(out)
        assert rc == 0 and d["order"] == 1 and d["value"] is None
        orders = {r["factor"]: r["order"] for r in d["reason"]}
        assert orders == {"alpha-pair": 1, "beta-pair": 1, "gamma-pair": -1}

    def test_text_and_tsv_shapes(self, capsys):
        rc, out, _ = run(capsys, "residue", "--alpha", "-3/5", "--n", "0",
                         "--beta", "-3/5", "--m", "0")
        assert rc == 0
        assert out.splitlines()[0] == "order 0"
        rc, out, _ = run(capsys, "residue", "--alpha", "-3/5", "--n", "0",
                         "--beta", "-3/5", "--m", "0", "--format", "tsv")
        lines = out.splitlines()
        assert lines[0] == "order\tvalue\treason"
        assert lines[1].startswith("0\t")

    def test_zero_lambda_exit_2(self, capsys):
        rc, out, err = run(capsys, "residue", "--alpha", "-1", "--n", "0",
                           "--beta", "-1", "--m", "0", "--lambda", "0")
        assert rc == 2
        assert json.loads(out)["error"] == "domain"

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf+1j"])
    def test_non_finite_lambda_exit_2(self, capsys, lam):
        rc, out, err = run(capsys, "residue", "--alpha", "-1/3", "--n", "0",
                           "--beta", "-1/3", "--m", "0", f"--lambda={lam}")
        assert rc == 2
        reason = "lambda must be finite and nonzero"
        assert json.loads(out) == {"error": "domain", "reason": reason}
        assert err == f"domain error: {reason}\n"

    def test_pair_overflow_gives_value(self, capsys):
        rc, out, _ = run(capsys, "residue", "--alpha", "-1/4", "--n", "300",
                         "--beta", "-1/3", "--m", "0", "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert d["order"] == 0
        assert abs(complex(d["value"]["re"], d["value"]["im"]) - 0.0716229136160359j) <= 1e-9 * 0.0717

    def test_pair_underflow_gives_nonzero_value(self, capsys):
        rc, out, _ = run(capsys, "residue", "--alpha", "-1/20", "--n", "-196",
                         "--beta", "-5/6", "--m", "152")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "order 0"
        value = complex(lines[1].split()[1].replace("i", "j"))
        assert abs(value - -1.39588235825556e-45j) <= 1e-9 * 1.396e-45

    def test_value_outside_double_range_exit_2(self, capsys):
        rc, out, err = run(capsys, "residue", "--alpha", "-1/4", "--n", "-1000",
                           "--beta", "-1/3", "--m", "-1000")
        assert rc == 2
        assert "Traceback" not in err
        assert "double range" in json.loads(out)["reason"]

    @pytest.mark.parametrize("alpha,shown", [
        ("--alpha=1e-400", "-0"),
        ("--alpha=-1000000000000000001/2", "-5e+17"),
    ])
    def test_argument_rounding_onto_pole_exit_2(self, capsys, alpha, shown):
        # -alpha or alpha + 1 is no pole of Gamma, though its double `shown`
        # is one: the exact reduction finds a value below the double range,
        # or refuses an input whose exact integers pass their bound
        value = Fraction(alpha.partition("=")[2])
        assert f"{float(min(-value, value + 1)):g}" == shown
        rc, out, err = run(capsys, "residue", alpha, "--n", "0", "--beta", "-1/3", "--m", "0")
        assert rc == 2
        reason = {
            "-0": "|value| = 0.517698 * 2^-1324 lies outside the double range "
                  "[2.22507e-308, 1.79769e+308]",
            "-5e+17": "the exact Gamma products need at least 2^66 bits, "
                      "over the bound of 524288",
        }[shown]
        assert json.loads(out) == {"error": "domain", "reason": reason}
        assert err == f"domain error: {reason}\n"

    def test_bad_rational_exit_1(self, capsys):
        rc, _, err = run(capsys, "residue", "--alpha", "x", "--n", "0",
                         "--beta", "-1", "--m", "0")
        assert rc == 1


RESIDUE = "--alpha -1/4 --n 0 --beta -1/3 --m 0"


class TestNumberFlags:
    """Number flags end in exit 1 (value cannot be converted) or exit 2
    (computation leaves double range), never in a traceback."""

    @pytest.mark.parametrize("argv", [
        "residue --alpha 1/0 --n 0 --beta -1/3 --m 0",
        "residue --alpha 1/0 --n 0 --beta 1/0 --m 0",
        "residue --alpha -1/4 --n 0 --beta 1/0 --m 0",
        "residue " + RESIDUE + " --lambda 1/0",
        "residue " + RESIDUE + " --lambda 1e400",
        "residue " + RESIDUE + " --lambda 1e10000000",  # sized, not built
        "generate 4,6,7 --deform --lambdas 1/0",
    ])
    def test_unconvertible_value_exit_1(self, capsys, argv):
        rc, out, err = run(capsys, *argv.split())
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "Fraction(" not in err

    @pytest.mark.parametrize("argv", [
        "residue --alpha 1e308 --n 0 --beta -1/3 --m 0",
        "residue --alpha 1e309 --n 0 --beta -1/3 --m 0",
        "residue --alpha -1/4 --n 0 --beta 1e400 --m 0",
        "residue --alpha -1/4 --n " + str(10**400) + " --beta -1/3 --m 0",
    ])
    def test_value_beyond_double_range_exit_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv.split())
        assert rc == 2
        assert err.startswith("domain error: ")
        assert "Traceback" not in err
        assert json.loads(out)["error"] == "domain"

    @pytest.mark.parametrize("flags", [
        "--alpha 1e10000000 --beta -1/3",
        "--alpha -1/4 --beta -1e-10000000",
        "--alpha " + "7" * 200000 + " --beta -1/3",
    ], ids=["alpha-exponent", "beta-exponent", "alpha-digits"])
    def test_rational_text_over_the_bound_exit_2_unbuilt(self, capsys, flags):
        # the text is sized before Fraction builds its integers: 1e10000000
        # alone would take seconds and tens of MB to build
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "residue", *flags.split(), "--n", "0", "--m", "0",
                           "--format", "json")
        assert time.perf_counter() - t0 < 0.5
        assert rc == 2
        reason = json.loads(out)["reason"]
        assert reason.endswith("digits, over the bound of 524288 bits")
        assert err == f"domain error: {reason}\n"

    @pytest.mark.usefixtures("str_digits_4300")
    @pytest.mark.parametrize("value, digits", [("1e10000000", 10000001), ("1e5000", 5001)])
    def test_lambdas_text_over_the_printable_bound_exit_1_unbuilt(self, capsys, value, digits):
        # each value is written in full, and str() of an int stops at 4300 digits
        t0 = time.perf_counter()
        rc, out, err = run(capsys, "generate", "4,6,7", "--deform", "--lambdas", value)
        assert time.perf_counter() - t0 < 0.5
        assert (rc, out) == (1, "")
        assert err == f"error: about {digits} digits, over the bound of 14334 bits\n"

    @pytest.mark.usefixtures("str_digits_4300")
    def test_lambdas_text_within_the_printable_bound_is_written(self, capsys):
        rc, out, _ = run(capsys, "generate", "4,6,7", "--deform", "--lambdas", "1e4000",
                         "--format", "json")
        assert rc == 0
        assert json.loads(out)["deformation"]["lambdas"] == [str(10**4000)]

    # each lambda passes its bound, but the base and a seeded fiber hold powers of them
    HUGE_POWERS = ["generate", "8,12,14,15", "--deform", "--lambdas", "1e2200,1e2200"]

    @pytest.mark.usefixtures("str_digits_4300")
    @pytest.mark.parametrize("extra", [["--format", "json"], ["--seed", "1"],
                                       ["--seed", "1", "--format", "tsv"],
                                       ["--seed", "1", "--format", "json"]])
    def test_coefficient_over_the_printable_bound_exit_2_before_any_line(self, capsys, extra):
        rc, out, err = run(capsys, *self.HUGE_POWERS, *extra)
        reason = json.loads(out)["reason"]
        # the refusal names the first such coefficient the format writes: JSON
        # writes the base (4385 digits) before a seeded fiber (4395 digits),
        # and text and tsv write no base
        digits = 4385 if "json" in extra else 4395
        assert rc == 2 and reason.startswith(f"a coefficient of about {digits} digits,")
        assert reason.endswith(" digits, over the bound of 4300 digits that str() writes")
        assert err == f"domain error: {reason}\n"
        # stdout is the error alone: no tsv or text line was written before it
        assert out == canonical_json({"error": "domain", "reason": reason}) + "\n"

    @pytest.mark.usefixtures("str_digits_4300")
    @pytest.mark.parametrize("fmt, sha256", [
        ("text", "37c1dbeb877dd3e23ec031e0e09f1512334a1a92dc8bed8cbe8f309252ca8e72"),
        ("tsv", "8517b33509688c86d210683d8c85a0c1260b8eb13557d47733003568ba1b9fdc"),
    ])
    def test_formats_that_print_no_such_coefficient_keep_their_bytes(self, capsys, fmt, sha256):
        # text and tsv print no base, and without --seed no fiber
        rc, out, err = run(capsys, *self.HUGE_POWERS, "--format", fmt)
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.usefixtures("str_digits_4300")
    def test_printable_bound_is_the_one_str_keeps(self):
        from branchzeta.cli import _printable
        from branchzeta.curves import SparsePoly

        edge = 10**4300 - 1  # 4300 digits
        assert len(str(edge)) == 4300
        def poly(c):  # a polynomial is sized by each coefficient it prints
            return SparsePoly(("x", "y"), {(1, 0): 1, (0, 2): c})

        for value in (edge, Fraction(-edge, edge - 1), poly(edge)):
            assert _printable(value) == str(value)
        for value in (edge + 1, Fraction(-edge - 1), Fraction(1, edge + 1), poly(edge + 1)):
            with pytest.raises(ValueError, match="4300 digits"):
                str(value)
            with pytest.raises(DomainError, match="over the bound of 4300 digits"):
                _printable(value)

    @pytest.mark.parametrize("limit", [640, 4300, 0])
    def test_printable_bound_is_the_limit_read_at_call_time(self, limit):
        # 0 is no limit: str() writes, and the helper passes, any integer
        from branchzeta.cli import _printable

        with digit_limit(limit):
            for digits in (640, 4300, 5000):
                value = Fraction(1, 10**digits)  # a denominator of digits + 1 digits
                if limit and digits >= limit:
                    with pytest.raises(DomainError, match=f"over the bound of {limit} digits"):
                        _printable(value)
                else:
                    assert _printable(value) == str(value)

    @needs_digit_limit
    @pytest.mark.parametrize("limit, lambdas", [("640", "1e500,1e500"), ("0", "1e2200,1e2200")])
    def test_child_sizes_against_its_own_digit_limit(self, limit, lambdas):
        # 640: each lambda passes its text bound, its powers are refused with
        # exit 2 before str() raises; 0: the base of over 4300 digits is written
        r = subprocess.run(
            [sys.executable, "-m", "branchzeta.cli", "generate", "8,12,14,15", "--deform",
             "--lambdas", lambdas, "--format", "json"],
            capture_output=True, text=True, env=_child_env(PYTHONINTMAXSTRDIGITS=limit),
            timeout=120)
        doc = json.loads(r.stdout)
        if limit == "0":
            assert (r.returncode, r.stderr) == (0, "")
            base = doc["deformation"]["base"]["terms"]
            assert max(len(t["coefficient"].lstrip("-")) for t in base) > 4300
        else:
            assert r.returncode == 2
            assert doc["reason"].endswith(" digits, over the bound of 640 digits that str() writes")
            assert r.stderr == f"domain error: {doc['reason']}\n"

    def test_child_without_a_digit_limit_sizes_lambdas_by_max_bits(self):
        # limit 0 (none): --lambdas falls back to errors.MAX_BITS, as --alpha is sized
        t0 = time.perf_counter()
        r = subprocess.run(
            [sys.executable, "-m", "branchzeta.cli", "generate", "4,6,7", "--deform",
             "--lambdas", "1e200000"],
            capture_output=True, text=True, env=_child_env(PYTHONINTMAXSTRDIGITS="0"),
            timeout=120)
        assert time.perf_counter() - t0 < 0.5
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: about 200001 digits, over the bound of 524288 bits\n"

    def test_count_over_the_bound_is_written_bounded(self, capsys):
        # 1e5000 passes the text bound; the kernel's count of bits is an
        # integer of 5000 digits, written as a power of two
        rc, out, err = run(capsys, "residue", "--alpha", "1e5000", "--n", "0",
                           "--beta", "-1/3", "--m", "0")
        assert rc == 2
        assert err == ("domain error: the exact Gamma products need at least 2^16625 bits,"
                       " over the bound of 524288\n")


class TestVerify:
    def test_rnm_suite_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "rnm", "--tol", "1e-4")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "case\texpected\tgot\trelerr"
        assert len(lines) == 1 + 6 + 3  # grid cases plus symmetry rows

    def test_combinatorics_suite_exact(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "combinatorics")
        assert rc == 0
        rows = [l.split("\t") for l in out.splitlines()[1:]]
        assert all(r[3] == "0.000000e+00" for r in rows)
        assert len(rows) == 8 * 4

    def test_vanishing_suite(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "vanishing")
        assert rc == 0
        assert len(out.splitlines()) == 1 + 4

    def test_all_suites_json(self, capsys):
        rc, out, _ = run(capsys, "verify", "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert d["passed"] is True
        assert len(d["rows"]) == 9 + 32 + 4
        assert canonical_json(json.loads(out)) + "\n" == out

    def test_unattainable_tolerance_exit_3(self, capsys):
        rc, out, err = run(capsys, "verify", "--suite", "rnm", "--tol", "1e-9")
        assert rc == 3
        assert "FAILED" in err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_invalid_tolerance_exit_2(self, capsys, tol):
        # an invalid tolerance is a domain error, not a missed one; an
        # infinite one would pass every row
        rc, out, err = run(capsys, "verify", "--suite", "rnm", f"--tol={tol}", "--format", "json")
        assert rc == 2
        assert json.loads(out) == {"error": "domain", "reason": "tol must be positive and finite"}
        assert "FAILED" not in err

    def test_infinite_quadrature_tolerance_exit_2(self, capsys):
        rc, out, err = run(capsys, "verify", "--suite", "rnm", "--rel-tol", "inf",
                           "--format", "json")
        assert rc == 2
        assert json.loads(out) == {"error": "domain",
                                   "reason": "rel_tol must be positive and finite"}
        assert "FAILED" not in err

    def test_text_format(self, capsys):
        rc, out, _ = run(capsys, "verify", "--suite", "vanishing", "--format", "text")
        assert rc == 0
        assert all(l.startswith("ok") for l in out.splitlines())

    def test_conductor_row_fails_on_a_missing_gap(self, capsys, monkeypatch):
        # mu = 2 delta: one gap fewer must fail the row, whatever the conductor
        monkeypatch.setattr(branchzeta.branch, "gaps", lambda bn: gaps(bn)[1:])
        rc, out, err = run(capsys, "verify", "--suite", "combinatorics", "--format", "json")
        assert rc == 3
        failed = [r["case"] for r in json.loads(out)["rows"] if not r["pass"]]
        assert failed == [f"conductor-eq-milnor({t})" for t in ("2,3", "4,9", "4,6,7", "6,9,22")]
        assert "FAILED conductor-eq-milnor(2,3)" in err


# JSON values for the canonical writer; json.dumps(sort_keys=True, indent=2)
# is its oracle.  Text carries quotes, backslashes, "%", control characters
# and non-ASCII; floats carry NaN, infinities and -0.0.
json_text = st.text(st.one_of(st.sampled_from('"\\%\n\t\x00\x1f\x7f'), st.characters()),
                    max_size=6)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), json_text,
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=24,
)


class _Level(enum.IntEnum):
    TWO = 2


# Tables: lists of dicts over one shared key set, the shape the writer
# converts one column per key, each column drawn from one kind of cell so
# that whole columns share a type and shape.  Keys hold "%", quotes and
# non-ASCII; cells nest up to two levels, with empty lists and dicts.
table_keys = st.text(st.sampled_from('ab%s(d"\\\né€'), max_size=4)
table_scalar_kinds = [
    st.none(), st.booleans(), st.integers(-10**30, 10**30), json_text,
    st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
]


def table_cell_kinds(depth: int):
    """A strategy of cell strategies: a scalar type, or lists, tuples or
    dicts of one shape whose items are cells of one kind, depth levels deep."""
    kinds = st.sampled_from(table_scalar_kinds)
    if depth == 0:
        return kinds
    inner = table_cell_kinds(depth - 1)
    return st.one_of(
        kinds,
        inner.map(lambda k: st.lists(k, max_size=3)),
        inner.map(lambda k: st.lists(k, max_size=3).map(tuple)),
        st.lists(st.tuples(table_keys, inner), max_size=3, unique_by=lambda kv: kv[0]).map(
            lambda shape: st.fixed_dictionaries(dict(shape))),
    )


table_cells = table_cell_kinds(2)


@st.composite
def tables(draw):
    keys = draw(st.lists(table_keys, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 6))
    columns = {k: draw(st.lists(draw(table_cells), min_size=n, max_size=n))
               for k in keys}
    rows = [{k: columns[k][r] for k in keys} for r in range(n)]
    # rows that break the shape or the column's type
    for brk in draw(st.lists(st.sampled_from(["key", "extra", "seq", "bool", "enum"]),
                             max_size=2)):
        row = rows[draw(st.integers(0, n - 1))]
        key = draw(st.sampled_from(list(row)))
        if brk == "key":  # the same key count, another key
            row[draw(table_keys.filter(lambda k: k not in keys))] = row.pop(key)
        elif brk == "extra":
            row[draw(table_keys.filter(lambda k: k not in row))] = draw(json_scalars)
        elif brk == "seq":  # a list beside a tuple
            row[key] = [1, "a"]
            rows[-1][key] = (1, "a")
        elif brk == "bool":  # True beside 1
            row[key] = True
            rows[-1][key] = 1
        else:
            row[key] = _Level.TWO
    return rows


@st.composite
def shared_lists(draw):
    """A value that holds one list (or tuple) object, shared, at two or more
    places and depths, in lists, tuples and dicts, beside lists equal to it
    that are other objects.  shared is empty, has one item, is a
    table whose rows are dicts of one key set, or is a tuple."""
    shared = draw(st.one_of(st.just([]), st.lists(json_values, min_size=1, max_size=1),
                            st.lists(json_values, max_size=4), tables(),
                            st.lists(json_values, max_size=4).map(tuple)))
    leaves = st.one_of(json_scalars, st.just(shared),
                       st.builds(lambda: json.loads(json.dumps(shared))))
    tree = st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_text, inner, max_size=3),
    ), max_leaves=12)
    return {"a": shared, "b": draw(tree), "c": [draw(tree), (shared,)], "d": [shared],
            "e": draw(st.sampled_from([shared, 0, [shared, shared]]))}


class TestCanonicalJson:
    @settings(max_examples=500, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=500, deadline=None)
    @given(tables())
    def test_tables_match_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=30, deadline=None)
    # max_n = 12 reaches g = 3 (12 = 2 * 2 * 3)
    @given(st.integers(0, 2**31).map(
               lambda seed: random_charseq(random.Random(seed), max_n=12, max_beta=150)),
           st.none() | st.integers(0, 80))
    @example("6,15,25", None)  # classes of two exponents, multiplicities 2
    @example("10,36,81", 40)
    def test_reports_match_json_dumps(self, cs, nu_max):
        """The report's bytes are json.dumps of its value built as dicts:
        the candidates from the row oracle, the exponent sections from the
        Fraction oracle, the small sections as report_to_dict gives them."""
        rep = branch_report(cs, nu_max=nu_max)
        d = report_to_dict(rep)
        sections = fraction_oracle.exponent_sections(rep)
        fields = ("i", "nu", "sigma", "eps1", "eps2", "eps3", "status")
        oracle = {**{k: v for k, v in d.items() if k not in sections}, **sections,
                  "candidates": [dict(zip(fields, r)) for r in row_oracle.candidate_rows(rep)]}
        assert canonical_json(d) == json.dumps(oracle, sort_keys=True, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(json_values, min_size=1, max_size=4), st.integers(0, 2 * _RUN + 1),
           st.integers(0, 3), st.integers(1, 2))
    def test_rows_placed_at_their_depth(self, values, count, depth, times):
        """A _Rows list of count records, each a value's JSON text written
        relative to itself, placed depth levels down, once or twice (one
        object), writes the bytes of the list of values placed there: empty,
        one run of records, and runs split at _RUN."""
        def place(x, level=depth):
            if level == 0:
                return x
            items = [place(x, level - 1)] * (times if level == 1 else 1)
            return items if level % 2 else {f"%s{j}": v for j, v in enumerate(items)}

        listed = [values[j % len(values)] for j in range(count)]
        rows = _Rows("%s", [(json.dumps(v, sort_keys=True, indent=2),) for v in listed])
        assert canonical_json(place(rows)) == json.dumps(place(listed), sort_keys=True, indent=2)

    def test_peak_memory_below_two_and_a_half_outputs(self, monkeypatch):
        # an analyze report, and the payload of a seeded generate --deform
        payloads = [report_to_dict(branch_report("2,20001"))]
        monkeypatch.setattr(branchzeta.cli, "canonical_json", lambda obj: payloads.append(obj) or "")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["generate", "8,199", "--deform", "--seed", "1", "--format", "json"]) == 0
        for d in payloads:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                text = canonical_json(d)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * len(text)

    @pytest.mark.parametrize("value", [
        {1: "a", 2: [None, {"b": 1}]},
        {"outer": {3: 1.5, 1: True}},
        [{"level": _Level.TWO}, _Level.TWO],
        {"level": _Level.TWO, "rows": [{"%s": "%d"}]},
    ], ids=["int-keys", "nested-int-keys", "intenum-in-list", "intenum-with-percent-keys"])
    def test_fallback_matches_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(shared_lists())
    def test_shared_lists_match_json_dumps(self, value):
        assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_calls_on_short_lived_values_whose_ids_recur(self):
        # the memo of one call must not answer for a list of a later call
        # that took a freed list's id
        ids = set()
        for i in range(200):
            value = {"a": [i, str(i)], "b": [[{"k": i}] * (i % 3)], "c": ([i],)}
            ids.add(id(value["a"]))
            assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)
            del value
        assert len(ids) < 200

    def test_keeps_no_state_between_calls(self):
        """canonical_json keeps nothing past its call: no function cache of
        the module moves, whatever key sets the call meets."""
        def caches():
            return {k: f.cache_info() for k, f in vars(branchzeta.cli).items()
                    if hasattr(f, "cache_info")}

        before = caches()
        canonical_json(report_to_dict(branch_report("4,6,7")))
        canonical_json([{"a key set no other call uses": i, "%s": [{"k": i}]} for i in range(3)])
        assert caches() == before

    def test_analyze_streams_and_every_other_command_calls_it_once(self, capsys, monkeypatch):
        """A successful analyze hands its pieces to the stdout writer and
        makes no call; every other JSON command, on success or failure, an
        analyze validation failure among them, makes one call (generate's
        text is whole before its first write), and the writer recurses
        through its helper, never the public name."""
        calls = []
        write = branchzeta.cli.canonical_json
        monkeypatch.setattr(branchzeta.cli, "canonical_json",
                            lambda obj: calls.append(obj) or write(obj))
        for argv, code, count in [
            (["analyze", "6,9,22"], 0, 0),
            (["generate", "4,6,7", "--deform", "--seed", "5"], 0, 1),
            (["verify", "--suite", "combinatorics"], 0, 1),
            (["residue", "--alpha", "1/2", "--n", "2", "--beta", "1/3", "--m", "3"], 0, 1),
            (["analyze", "4,6"], 2, 1),  # a validation failure
            (["generate", "4,9", "--deform", "--cutoff", "10"], 2, 1),  # a domain error
        ]:
            calls.clear()
            rc, out, _ = run(capsys, *argv, "--format", "json")
            assert (rc, len(calls)) == (code, count), argv
            assert out == write(json.loads(out)) + "\n"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31).map(lambda seed: ",".join(map(str, (
               (cs := random_charseq(random.Random(seed), max_n=12, max_beta=150)).n, *cs.betas)))),
           st.none() | st.integers(0, 2 * _RUN + 1))
    # the specs of the analyze goldens
    @example("2,3", None)
    @example("4,9", None)
    @example("4,9", 60)
    @example("4,6,7", None)
    @example("6,9,22", None)
    @example("6,15,25", None)
    @example("semigroup:4,6,13", None)
    def test_analyze_writes_the_report_bytes(self, spec, nu_max):
        """analyze --format json, streamed piece by piece, writes exactly
        canonical_json of the report's value and a newline."""
        argv = ["analyze", spec, "--format", "json"]
        argv += [] if nu_max is None else ["--nu-max", str(nu_max)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        rep = branch_report(spec, nu_max=nu_max)
        assert out.getvalue() == canonical_json(report_to_dict(rep)) + "\n"


@st.composite
def deformations(draw):
    """(spec, cutoff, lambdas, seed) of generate --deform on a small branch:
    multiplicity <= 8, beta_1 <= 30, a cutoff at most 12 over the top level
    weight, for g >= 2 the default lambdas or nonzero drawn ones, fractional
    and negative among them, and a seed or none."""
    cs = random_charseq(random.Random(draw(st.integers(0, 2**32 - 1))), max_n=8, max_beta=30)
    bn = branchzeta.branch.derive_numerics(cs)
    lam = st.fractions(-3, 3, max_denominator=4).filter(bool)
    lambdas = (draw(st.lists(lam, min_size=bn.g - 1, max_size=bn.g - 1))
               if bn.g >= 2 and draw(st.booleans()) else None)
    cutoff = bn.nn[bn.g] * bn.gens[bn.g] + draw(st.integers(0, 12))
    return (",".join(map(str, (cs.n, *cs.betas))), cutoff, lambdas,
            draw(st.none() | st.integers(0, 2**31)))


class TestGenerate:
    def test_plane_goldens(self, capsys):
        for inp, head in (("4,9", "y^4 - x^9"), ("2,3", "y^2 - x^3"),
                          ("4,6,7", "y^4 - 2*x^3*y^2 + x^6 - x^5*y")):
            rc, out, _ = run(capsys, "generate", inp)
            assert rc == 0
            assert out.splitlines()[0] == head

    def test_monomial_curve_lines(self, capsys):
        _, out, _ = run(capsys, "generate", "4,6,7")
        lines = out.splitlines()
        assert lines[1] == "h1 = u1^2 - u0^3"
        assert lines[2] == "h2 = u2^2 - u0^5*u1"

    def test_deform_symbolic(self, capsys):
        rc, out, _ = run(capsys, "generate", "4,9", "--deform", "--cutoff", "38")
        assert rc == 0
        assert "t^(1)_(7,1)" in out and "t^(1)_(5,2)" in out
        assert "coeff=symbolic" in out
        assert "fiber" not in out

    def test_deform_seeded_deterministic(self, capsys):
        args = ("generate", "4,6,7", "--deform", "--cutoff", "30", "--seed", "7")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert "fiber = " in out1

    def test_deform_json_round_trip(self, capsys):
        rc, out, _ = run(capsys, "generate", "4,6,7", "--deform", "--seed", "3",
                         "--format", "json")
        assert rc == 0
        d = json.loads(out)
        assert canonical_json(d) + "\n" == out
        assert d["plane"]["text"] == "y^4 - 2*x^3*y^2 + x^6 - x^5*y"
        assert all(t["coefficient"] is not None for t in d["deformation"]["terms"])

    @settings(max_examples=100, deadline=None)
    @given(deformations())
    @example(("4,6,7", 30, [Fraction(-2, 3)], 5))
    @example(("8,12,14,15", 112, [Fraction(2), Fraction(-3, 5)], 4))
    @example(("6,9,22", 100, [Fraction(-7, 4)], None))
    def test_deform_json_is_the_dict_oracle_dumped(self, case):
        """generate --deform JSON, written by template, has the bytes of
        json.dumps of the payload as curves_oracle builds it from dicts."""
        spec, cutoff, lambdas, seed = case
        argv = ["generate", spec, "--deform", "--cutoff", str(cutoff), "--format", "json"]
        argv += [] if lambdas is None else ["--lambdas", ",".join(map(str, lambdas))]
        argv += [] if seed is None else ["--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        text, kind, bn = branchzeta.branch.resolve_input(spec)
        fam = branchzeta.curves.deformation_family(bn, weight_cutoff=cutoff, lambdas=lambdas,
                                                   coefficient_source=seed)
        payload = curves_oracle.generate_payload(
            text, kind, branchzeta.curves.plane_equation(bn),
            branchzeta.curves.monomial_curve_equations(bn), fam,
            None if seed is None else fam.instantiate())
        assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_deform_tsv(self, capsys):
        rc, out, _ = run(capsys, "generate", "4,9", "--deform", "--cutoff", "38",
                         "--format", "tsv")
        lines = out.splitlines()
        assert lines[0] == "object\texponents\tcoefficient"
        assert "plane\t0,4\t1" in lines
        assert "plane\t9,0\t-1" in lines
        assert "t^(1)_(5,2)\t5,2\tt^(1)_(5,2)" in lines

    def test_invalid_cutoff_exit_2(self, capsys):
        rc, out, err = run(capsys, "generate", "4,9", "--deform", "--cutoff", "10")
        assert rc == 2
        assert json.loads(out)["error"] == "domain"

    def test_validation_failure(self, capsys):
        rc, _, _ = run(capsys, "generate", "4,8")
        assert rc == 2

    @pytest.mark.parametrize("flag,value", [("--cutoff", "5"), ("--seed", "7"), ("--lambdas", "0")])
    def test_deformation_flag_without_deform_exit_1(self, capsys, flag, value):
        assert run(capsys, "generate", "4,6,7", "--deform", flag, value)[0] in (0, 2)
        rc, out, err = run(capsys, "generate", "4,6,7", flag, value)
        assert (rc, out) == (1, "")
        assert err == f"error: {flag} needs --deform\n"

    def test_negative_lambda_spaced_or_joined(self, capsys):
        spaced = run(capsys, "generate", "4,6,7", "--deform", "--lambdas", "-2/3", "--format", "json")
        joined = run(capsys, "generate", "4,6,7", "--deform", "--lambdas=-2/3", "--format", "json")
        assert spaced[0] == joined[0] == 0
        assert spaced[1] == joined[1]
        assert json.loads(spaced[1])["deformation"]["lambdas"] == ["-2/3"]

    @pytest.mark.parametrize("inp, lambdas, reason", [
        ("4,9", "2", "g = 1 takes no lambda values, got 1"),
        ("4,6,7", "2,3", "g = 2 takes 1 lambda values, for levels 2..2, got 2"),
        ("8,12,14,15", "2", "g = 3 takes 2 lambda values, for levels 2..3, got 1"),
    ])
    def test_wrong_number_of_lambdas_exit_2(self, capsys, inp, lambdas, reason):
        rc, out, err = run(capsys, "generate", inp, "--deform", "--lambdas", lambdas)
        assert rc == 2
        assert json.loads(out) == {"error": "domain", "reason": reason}
        assert err == f"domain error: {reason}\n"

    @pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
    def test_needs_no_pole_report(self, capsys, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("generate built the pole report")

        monkeypatch.setattr(branchzeta.poles, "branch_report", refuse)
        rc, out, _ = run(capsys, "generate", "semigroup:4,6,13", "--format", fmt)
        assert rc == 0
        assert out.encode() == (GOLDEN / f"generate_semigroup_4_6_13.{fmt}").read_bytes()

    @pytest.mark.parametrize("args, sha256", [
        ("8,199 --deform --seed 1",
         "b87b328edeaf1c54d4f950f75b8995375d4f228c9343daf5e549d662ef1cff2f"),
        ("16,199 --deform --seed 1",
         "c5da8f33e6e6afce671c9ee4a9dc85c75770a4941d062a97bac66732ba837703"),
        ("6,9,22 --deform --cutoff 300 --seed 2",
         "c3e1a98ae5f8859270471015a9c62f3282d9e425a965bb66f1963ee9e685bc23"),
    ], ids=["8,199", "16,199", "6,9,22"])
    def test_seeded_fiber_within_3_s(self, args, sha256):
        start = time.perf_counter()
        r = subprocess.run([sys.executable, "-m", "branchzeta.cli", "generate", *args.split()],
                           capture_output=True, env=_child_env(), timeout=120)
        elapsed = time.perf_counter() - start
        assert (r.returncode, r.stderr) == (0, b"")
        assert hashlib.sha256(r.stdout).hexdigest() == sha256
        assert elapsed < 3, elapsed


class _Stdout:
    """A stdout that hands each write to on_write and keeps nothing."""

    def __init__(self, on_write):
        self.on_write = on_write

    def write(self, s):
        self.on_write(s)
        return len(s)

    def flush(self):
        pass


class TestPlumbing:
    @given(st.lists(st.integers()), st.integers(min_value=1))
    def test_ratio_is_str_of_fraction(self, nums, b):
        assert list(_ratios(nums, b)) == [str(Fraction(a, b)) for a in nums]

    def test_reports_leave_the_module_tables_as_they_were(self, capsys):
        """analyze keeps each table to its report: no dict of the module
        grows from one report to the next."""
        def sizes():
            return {k: len(v) for k, v in vars(branchzeta.cli).items()
                    if isinstance(v, dict) and not k.startswith("__")}

        before = sizes()
        for spec in ("2,3", "4,9", "4,6,7", "6,9,22", "12,18,20,23"):
            for fmt in ("json", "text"):
                assert run(capsys, "analyze", spec, "--format", fmt)[0] == 0
        assert sizes() == before

    def test_merge_negative_values(self):
        assert _merge_negative_values(["--alpha", "-3/5", "--n", "0"]) == [
            "--alpha=-3/5", "--n", "0",
        ]
        assert _merge_negative_values(["--alpha", "--n"]) == ["--alpha", "--n"]
        assert _merge_negative_values(["analyze", "4,9"]) == ["analyze", "4,9"]

    def test_negative_value_merges_after_any_long_flag(self, capsys):
        # every long flag merges; --deform, which takes no value, then refuses the merged form
        assert _merge_negative_values(["--deform", "-5", "--", "-5"]) == ["--deform=-5", "--", "-5"]
        assert _merge_negative_values(["--cutoff", "-5"]) == ["--cutoff=-5"]
        rc, out, err = run(capsys, "generate", "4,9", "--deform", "-5")
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "4,9", "--format", "json"],
        ["analyze", "4,9", "--format", "tsv"],
        ["analyze", "4,9", "--format", "text"],
        ["residue", "--alpha=-3/5", "--n", "0", "--beta=-7/10", "--m", "0"],
        ["verify", "--suite", "combinatorics"],
        ["generate", "4,9", "--deform", "--cutoff", "38", "--seed", "7"],
    ], ids=" ".join)
    def test_commands_return_lines_and_main_writes_them(self, capsys, argv):
        ns = build_parser().parse_args(argv)
        result = getattr(branchzeta.cli, f"cmd_{ns.command}")(ns)
        assert isinstance(result, tuple) and len(result) == 2
        rc, lines = result
        lines = list(lines)
        assert capsys.readouterr().out == ""
        assert main(argv) == rc == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)

    def test_parser_is_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_main_reads_the_command_when_it_runs(self, capsys, monkeypatch):
        # after a warm call the parser exists; a replaced cmd_analyze is still
        # the function the next call runs
        assert run(capsys, "analyze", "4,9", "--format", "tsv")[0] == 0
        monkeypatch.setattr(branchzeta.cli, "cmd_analyze",
                            lambda ns: (0, [f"replaced {ns.input} {ns.format}"]))
        assert run(capsys, "analyze", "4,9", "--format", "tsv") == (0, "replaced 4,9 tsv\n", "")

    def test_write_stdout_takes_at_most_one_chunk_before_writing(self, monkeypatch):
        taken, at_write, text = 0, [], []

        def lines():
            nonlocal taken
            for k in range(10**5):
                taken += 1
                yield str(k)

        monkeypatch.setattr(sys, "stdout", _Stdout(lambda s: (at_write.append(taken),
                                                              text.append(s))))
        assert _write_stdout(5, lines()) == 5
        assert 1 <= at_write[0] <= _CHUNK_LINES
        assert all(b - a <= _CHUNK_LINES for a, b in zip(at_write, at_write[1:]))
        assert "".join(text) == "".join(f"{k}\n" for k in range(10**5))

    def test_tsv_peak_memory_is_a_small_part_of_the_output(self, monkeypatch):
        # about 2 MB of rows go to a stdout that keeps only their sizes
        sizes = []
        monkeypatch.setattr(sys, "stdout", _Stdout(lambda s: sizes.append(len(s))))
        assert main(["analyze", "2,301", "--format", "tsv"]) == 0  # imports and parser
        sizes.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["analyze", "2,20001", "--format", "tsv"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sum(sizes) > 1.8e6
        assert peak < 300_000, peak

    def test_json_peak_memory_is_below_the_output(self, monkeypatch):
        # about 78 MB of JSON go to a stdout that keeps only their sizes; the
        # report's sections are held, its text is written a chunk at a time
        sizes = []
        monkeypatch.setattr(sys, "stdout", _Stdout(lambda s: sizes.append(len(s))))
        assert main(["analyze", "2,301", "--format", "json"]) == 0  # imports and parser
        sizes.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["analyze", "4,6,7", "--nu-max", "200000", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sum(sizes) > 7.5e7
        assert peak < sum(sizes), (peak, sum(sizes))

    def test_missing_subcommand_exit_1(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 1

    def test_module_invocation(self):
        r = subprocess.run(
            [sys.executable, "-m", "branchzeta.cli", "analyze", "4,9", "--format", "json"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["mu"] == 24

    def test_closed_stdout_exits_0_without_traceback(self):
        # the reader takes the first line and closes the pipe while the
        # command still has about 2 MB of TSV rows, or 16 MB of JSON, to write
        for fmt, first in (("tsv", b"i\tnu\tsigma\teps1\teps2\teps3\tstatus\n"), ("json", b"{\n")):
            proc = subprocess.Popen(
                [sys.executable, "-m", "branchzeta.cli", "analyze", "2,20001", "--format", fmt],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
            )
            assert proc.stdout.readline() == first
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, fmt
            assert b"Traceback" not in err
            assert err == b""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["print-fails", "flush-fails"])
    @pytest.mark.parametrize("argv, code", [
        (["residue", "--alpha", "-1/4", "--n", "0", "--beta", "-1/3", "--m", "0", "--lambda", "0"], 2),
        (["generate", "4,6,7", "--deform", "--lambdas", "0", "--format", "json"], 2),
        (["analyze", "semigroup:4,6,13,27", "--format", "json"], 2),
        (["analyze", "semigroup:4,6,13,27"], 2),
        (["verify", "--suite", "rnm", "--tol", "1e-9"], 3),
        (["analyze", "4,9", "--format", "tsv"], 0),
    ], ids=["residue-domain", "generate-domain", "validation-json", "validation-text",
            "verify-failure", "analyze-success"])
    def test_closed_stdout_keeps_exit_code_and_stderr(self, argv, code, unbuffered):
        # stdout is a pipe whose read end is closed before the process starts;
        # with PYTHONUNBUFFERED the first print fails, without it the flush
        env = _child_env(PYTHONUNBUFFERED=unbuffered)
        cmd = [sys.executable, "-m", "branchzeta.cli", *argv]
        open_run = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            closed_run = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env,
                                        timeout=120)
        finally:
            os.close(write_end)
        assert open_run.returncode == closed_run.returncode == code
        assert b"Traceback" not in closed_run.stderr
        assert closed_run.stderr == open_run.stderr


# Start-up contract: each command loads only the layers it runs, and numpy
# only through the quadrature.  The probe runs in a fresh interpreter, since
# the test process has every module loaded already; it prints whether numpy
# is loaded and which branchzeta submodules are, after `import branchzeta`,
# after `import branchzeta.cli` and after each cli.main(argv) of the argv
# lists given as JSON, and which of the standard modules in SLOW_STDLIB are:
# imports that cost start-up time and that no command needs (numpy itself
# imports inspect, and a site hook may load typing before the probe runs).
SLOW_STDLIB = ("dataclasses", "inspect", "typing")
STARTUP_PROBE = """
import contextlib, io, json, sys

def loaded():
    return {"numpy": "numpy" in sys.modules,
            "stdlib": [m for m in %r if m in sys.modules],
            "layers": sorted(m.split(".", 1)[1] for m in sys.modules
                             if m.startswith("branchzeta."))}

import branchzeta
states = [loaded()]
import branchzeta.cli
states.append(loaded())
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert branchzeta.cli.main(argv) == 0, argv
    states.append(loaded())
print(json.dumps(states))
""" % (SLOW_STDLIB,)


def _loaded_after(*argvs, flags=()) -> list[dict]:
    r = subprocess.run([sys.executable, *flags, "-c", STARTUP_PROBE, json.dumps(argvs)],
                       capture_output=True, text=True, env=_child_env(), timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


# one command of each kind and the submodules it loads besides cli and errors
COMMAND_LAYERS = [
    (["analyze", "2,3", "--format", "json"], ["branch", "poles", "toric"]),
    (["analyze", "4,6,7"], ["branch", "poles", "toric"]),
    (["residue", "--alpha", "-3/5", "--n", "0", "--beta", "-7/10", "--m", "0"], ["gammaratio"]),
    (["generate", "4,9", "--deform", "--cutoff", "38", "--seed", "1", "--format", "json"],
     ["branch", "curves"]),
    # --lambdas is sized by the routine that sizes --alpha, errors.exact_rational
    (["generate", "4,6,7", "--deform", "--lambdas", "2/3"], ["branch", "curves"]),
    # verify loads checks, and checks the layers of the suite it runs
    (["verify", "--suite", "combinatorics"], ["branch", "poles", "toric", "checks"]),
    (["verify", "--suite", "rnm"], ["gammaratio", "quadrature", "checks"]),
    (["verify", "--suite", "vanishing"], ["quadrature", "checks"]),
]


class TestStartup:
    def test_exact_commands_do_not_load_numpy(self):
        assert [s["numpy"] for s in _loaded_after(
            ["analyze", "2,3", "--format", "json"],
            ["residue", "--alpha", "-3/5", "--n", "0", "--beta", "-7/10", "--m", "0"],
            ["generate", "4,9", "--deform", "--cutoff", "38", "--seed", "1", "--format", "json"],
            ["verify", "--suite", "combinatorics"],
        )] == [False] * 6

    def test_vanishing_suite_loads_numpy(self):
        states = _loaded_after(["verify", "--suite", "vanishing"])
        assert [s["numpy"] for s in states] == [False, False, True]

    def test_imports_load_no_layer(self):
        package, cli = _loaded_after()
        assert package["layers"] == []
        assert cli["layers"] == ["cli", "errors"]

    # one probe per command, since a module stays loaded once imported
    @pytest.mark.parametrize("argv, layers", COMMAND_LAYERS,
                             ids=[" ".join(argv) for argv, _ in COMMAND_LAYERS])
    def test_each_command_loads_only_its_layers(self, argv, layers):
        *_, after = _loaded_after(argv)
        assert after["layers"] == sorted(["cli", "errors", *layers])
        assert "dataclasses" not in after["stdlib"]
        if not after["numpy"]:  # numpy imports inspect itself
            assert "inspect" not in after["stdlib"]

    def test_exact_commands_load_no_slow_stdlib_module_without_site(self):
        # -S: no site hook (a .pth file) loads typing before the probe runs
        exact = [argv for argv, layers in COMMAND_LAYERS if "quadrature" not in layers]
        states = _loaded_after(*exact, flags=["-S"])
        assert not any(s["numpy"] for s in states)
        assert [s["stdlib"] for s in states] == [[]] * (2 + len(exact))

    def test_public_names_are_their_modules_objects(self):
        for name, home in branchzeta._HOME.items():
            module = importlib.import_module(f"branchzeta.{home}")
            assert getattr(branchzeta, name) is getattr(module, name), name
            assert getattr(module, name).__module__ == module.__name__, name  # defined there
        for home in branchzeta._PUBLIC:
            assert branchzeta.__getattr__(home) is importlib.import_module(f"branchzeta.{home}")

    def test_names_read_the_current_module_attribute(self, monkeypatch):
        monkeypatch.setattr(branchzeta.poles, "branch_report", "patched")
        assert branchzeta.branch_report == "patched"
        from branchzeta import branch_report as late

        assert late == "patched"

    def test_dir_lists_the_names_and_submodules(self):
        assert {*branchzeta.__all__, *branchzeta._PUBLIC, "__version__"} <= set(dir(branchzeta))

    @pytest.mark.parametrize("name", ["QuadConfig", "radial_mass", "rnm_quadrature",
                                      "vanishing_integral_check", "vanishing_symbolic_cancellation"])
    def test_quadrature_names_resolve_from_the_module(self, name):
        import branchzeta.quadrature

        assert getattr(branchzeta, name) is getattr(branchzeta.quadrature, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            getattr(branchzeta, "nope")
        assert not hasattr(branchzeta, "nope")


# Exit-code contract under fuzzing: generated argv lists of every kind the
# CLI documents, valid and invalid.  Multiplicities stay at most 16 and the
# other entries below 200, which keeps each command well under a second
# (ladders and deformation cutoffs are not yet budgeted).
NUMBER_TEXTS = ("1/0", "1e400", "10**400", str(10**400), "1e-400", "nan", "-3/5", "0", "-1", "7/4")
FORMATS = st.sampled_from([[], ["--format", "json"], ["--format", "tsv"], ["--format", "text"]])


def _variants(text: str) -> list[str]:
    return [text, text.upper(), f" {text}", f"{text} ", f"\t{text}\t"]


number_texts = st.sampled_from(NUMBER_TEXTS).flatmap(lambda t: st.sampled_from(_variants(t)))
small_ints = st.integers(-3, 60).map(str)
# work-bounding flags (--nu-max, --cutoff) get small or unparseable values only
bound_texts = st.one_of(small_ints, st.sampled_from(["10**400", "1e400", "nan", "-3/5", " 7 "]))
specs = st.one_of(
    st.sampled_from(["2,3", "4,9", "4,6,7", "6,9,22", "4,8", "semigroup:4,6,13"]),
    st.builds(
        lambda prefix, first, rest, sep: prefix + sep.join(map(str, [first, *rest])),
        st.sampled_from(["", "semigroup:", "SemiGroup:", " semigroup: "]),
        st.integers(-3, 16),
        st.lists(st.integers(-3, 199), max_size=3),
        st.sampled_from([",", ", ", " ,"]),
    ),
    st.sampled_from(["", "x", "4,,9", "semigroup:", "4;9"]),
)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


argvs = st.one_of(
    st.tuples(st.just(["analyze"]), specs.map(lambda s: [s]), _opt("--nu-max", bound_texts), FORMATS),
    st.tuples(
        st.just(["generate"]),
        specs.map(lambda s: [s]),
        st.sampled_from([[], ["--deform"]]),
        _opt("--cutoff", bound_texts),
        _opt("--seed", st.one_of(small_ints, number_texts)),
        _opt("--lambdas", st.lists(number_texts, min_size=1, max_size=3).map(",".join)),
        FORMATS,
    ),
    st.tuples(
        st.just(["residue"]),
        st.one_of(number_texts, small_ints).map(lambda v: ["--alpha", v]),
        st.one_of(small_ints, number_texts).map(lambda v: ["--n", v]),
        st.one_of(number_texts, small_ints).map(lambda v: ["--beta", v]),
        st.one_of(small_ints, number_texts).map(lambda v: ["--m", v]),
        _opt("--lambda", st.one_of(number_texts, st.sampled_from(["1+1j", "2", "-1j"]))),
        FORMATS,
    ),
    st.tuples(
        st.just(["verify", "--suite"]),
        st.sampled_from([["combinatorics"], ["vanishing"]]),
        _opt("--tol", st.one_of(number_texts, st.sampled_from(["1e-4", "1e-30"]))),
        FORMATS,
    ),
).map(lambda parts: [tok for part in parts for tok in part])


@settings(max_examples=500, deadline=None)
@given(argvs)
def test_exit_code_contract_under_fuzzing(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if "--format" in argv and argv[argv.index("--format") + 1] == "json" and rc != 1:
        assert canonical_json(json.loads(text)) + "\n" == text, argv

