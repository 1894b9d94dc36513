"""Command-line behaviour: verbs, exit codes, JSON stability."""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from howe import (
    ConstructionMismatchError,
    MixedFieldsError,
    MultiplicityExceedsTwoError,
    NotSingularError,
    ZeroPolynomialError,
    cli,
    reference,
)
from howe.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BUILD_I1 = [
    "build", "--field", "p=31",
    "--alpha", "0,1,-1,20", "--beta", "28,16,7,27",
]


class TestBuild:
    def test_reference_example_json(self, capsys):
        code, out, _ = run(capsys, *BUILD_I1, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["coefficients"] == {
            "c60": 16, "c50": 22, "c42": 27, "c40": 23, "c32": 10, "c30": 13,
            "c22": 14, "c20": 16, "c12": 29, "c10": 10, "c04": 1, "c02": 9,
            "c00": 28,
        }
        assert payload["singularity"]["type"] == "I-1"
        assert payload["singularity"]["total"] == 4
        assert payload["singularity"]["resultant_h1_h1prime"] == 27
        assert payload["irreducibility"]["irreducible"] is True
        assert all(payload["checks"].values())
        coords = {tuple(p["coords"]) for p in payload["singularity"]["points"]}
        assert coords == {(24, 0, 1), (4, 0, 1), (12, 0, 1), (0, 1, 0)}

    def test_text_output_mentions_type(self, capsys):
        code, out, _ = run(capsys, *BUILD_I1)
        assert code == 0
        assert "singularity type I-1" in out
        assert "absolutely irreducible: True" in out

    def test_reference_ii4_two_points(self, capsys):
        code, out, _ = run(
            capsys, "build", "--field", "p=31",
            "--alpha", "0,1,-1,2", "--beta", "8,20,24,12", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["singularity"]["type"] == "II-4"
        assert payload["singularity"]["total"] == 2
        coords = {tuple(p["coords"]) for p in payload["singularity"]["points"]}
        assert coords == {(0, 1, 0), (1, 0, 0)}

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, *BUILD_I1, "--json", "--seed", "5")
        _, second, _ = run(capsys, *BUILD_I1, "--json", "--seed", "5")
        assert first == second

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, *BUILD_I1, "--json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_point_list_with_negative_first_value(self, capsys, json_flag):
        # argparse alone reads "-1,0,2,20" as an option and exits 2
        argv = ["build", "--field", "p=31", *json_flag]
        joined = run(capsys, *argv, "--alpha=-1,0,2,20", "--beta=-3,16,7,27")
        spaced = run(capsys, *argv, "--alpha", "-1,0,2,20", "--beta", "-3,16,7,27")
        assert joined[0] == 0
        assert spaced == joined

    def test_duplicate_points_exit_3(self, capsys):
        code, _, err = run(
            capsys, "build", "--field", "p=31",
            "--alpha", "0,1,1,2", "--beta", "3,4,5,6",
        )
        assert code == 3
        assert "alpha" in err

    def test_infinity_rejected(self, capsys):
        code, _, err = run(
            capsys, "build", "--field", "p=31",
            "--alpha", "0,1,-1,inf", "--beta", "3,4,5,6",
        )
        assert code == 3
        assert "finite" in err

    def test_invalid_field_exit_2(self, capsys):
        for bad in ("p=9", "p=4294967297", "p=x", "gf31", "p=3"):
            code, _, err = run(
                capsys, "build", "--field", bad,
                "--alpha", "0,1,-1,2", "--beta", "3,4,5,6",
            )
            assert code == 2, bad
            assert err

    def test_text_output_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, *BUILD_I1)
        _, second, _ = run(capsys, *BUILD_I1)
        assert first == second

    @pytest.mark.parametrize("alpha,beta,rational_point", [
        # eight unrelated values near 10^30: h1 is an irreducible cubic
        ("1000000000000000000000000000057,-999999999999999999999999999989,"
         "123456789012345678901234567891,-314159265358979323846264338327",
         "271828182845904523536028747135,-161803398874989484820458683436,"
         "141421356237309504880168872420,-173205080756887729352744634150", None),
        # prod(alpha) = prod(beta), so h1(0) = 0 and (0:0:1) is a double point
        ("2000000000000000000000000000002,3000000000000000000000000000009,"
         "700000000000000000000000000001,1000000000000000000000000000000",
         "1000000000000000000000000000001,6000000000000000000000000000018,"
         "1400000000000000000000000000002,500000000000000000000000000000", ["0", "0", "1"]),
    ])
    def test_rational_field_large_height(self, capsys, alpha, beta, rational_point):
        t0 = time.perf_counter()
        code, out, _ = run(
            capsys, "build", "--field", "rational", "--alpha", alpha, "--beta", beta, "--json",
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        payload = json.loads(out)
        assert payload["singularity"]["total"] == 4
        coords = [p["coords"] for p in payload["singularity"]["points"] if p["coords"]]
        assert (rational_point in coords) == (rational_point is not None)

    def test_rational_field(self, capsys):
        code, out, _ = run(
            capsys, "build", "--field", "rational",
            "--alpha", "0,1,-1,1/2", "--beta", "2,3,5,7", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["field"] == {"kind": "rational"}
        assert payload["input"]["alpha"] == ["0", "1", "-1", "1/2"]
        assert payload["irreducibility"]["irreducible"] is True

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_rational_inputs_at_digit_bound(self, capsys, json_flag):
        # the resultant Res(h1, h1') is printed with close to 40 times the
        # input's digits, just below CPython's 4300-digit str() limit
        alpha, beta = fraction_values(cli.MAX_RATIONAL_DIGITS, 1)
        code, out, err = run(capsys, "build", "--field", "rational",
                             f"--alpha={alpha}", f"--beta={beta}", *json_flag)
        assert code == 0, err
        if json_flag:
            res = json.loads(out)["singularity"]["resultant_h1_h1prime"]
        else:
            res = out.split("Res(h1, h1') = ")[1].split()[0]
        assert len(res) > 3900

    @pytest.mark.parametrize("digits", [cli.MAX_RATIONAL_DIGITS + 1, 300])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_rational_inputs_over_digit_bound_exit_3(self, capsys, digits, json_flag):
        alpha, beta = fraction_values(digits, 2)
        code, out, err = run(capsys, "build", "--field", "rational",
                             f"--alpha={alpha}", f"--beta={beta}", *json_flag)
        assert code == cli.EXIT_INPUT == 3
        assert out == ""
        assert f"at most {cli.MAX_RATIONAL_DIGITS} digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["1e10000000", "1e-100000000"])
    def test_rational_exponent_over_digit_bound_exit_3_fast(self, capsys, value):
        # Fraction alone builds 10**exponent, a number of |exponent| digits, first
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "--field", "rational",
                             "--alpha", f"{value},1,2,3", "--beta", "4,5,6,7")
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_INPUT == 3
        assert out == ""
        assert f"at most {cli.MAX_RATIONAL_DIGITS} digits" in err

    def test_rational_exponents_within_bound(self, capsys):
        code, out, err = run(capsys, "build", "--field", "rational", "--json",
                             "--alpha", "1e5,0.5,3/4,0e100000000", "--beta", "4,5,6,7e-3")
        assert code == 0, err
        payload = json.loads(out)["input"]
        assert payload["alpha"] == ["100000", "1/2", "3/4", "0"]
        assert payload["beta"] == ["4", "5", "6", "7/1000"]


def fraction_values(digits: int, seed: int):
    """--alpha and --beta texts of eight signed fractions whose numerator and
    denominator have exactly ``digits`` digits in lowest terms."""
    rng = random.Random(seed)
    values = []
    while len(values) < 8:
        n, d = (rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(2))
        if math.gcd(n, d) == 1:
            values.append(f"{rng.choice(('', '-'))}{n}/{d}")
    return ",".join(values[:4]), ",".join(values[4:])


class TestVerifyPaper:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert "7/7" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] == payload["total"] == 7
        assert [e["name"] for e in payload["examples"]] == [
            "I-1", "I-2", "I-3", "II-1", "II-2", "II-3", "II-4",
        ]

    def test_corrupted_table_detected(self, capsys, monkeypatch):
        broken = list(reference.REFERENCE_EXAMPLES)
        bad_coeffs = dict(broken[0].coefficients)
        bad_coeffs["c60"] = (bad_coeffs["c60"] + 1) % 31
        broken[0] = broken[0]._replace(coefficients=bad_coeffs)
        monkeypatch.setattr(reference, "REFERENCE_EXAMPLES", tuple(broken))
        code, out, _ = run(capsys, "verify-paper")
        assert code == 1
        assert "FAIL" in out and "c60" in out


class TestSample:
    def test_zero_count(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--field", "p=31", "--count", "0", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 0
        assert payload["irreducibility_failures"] == 0

    def test_small_run_totals_in_range(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--field", "p=31", "--count", "200",
            "--seed", "5", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        totals = payload["total_counts"]
        assert sum(totals.values()) == 200
        assert set(totals) == {"2", "3", "4"}
        assert payload["irreducibility_failures"] == 0

    def test_deterministic_given_seed(self, capsys):
        _, a, _ = run(capsys, "sample", "--field", "p=31", "--count", "50",
                      "--seed", "9", "--json")
        _, b, _ = run(capsys, "sample", "--field", "p=31", "--count", "50",
                      "--seed", "9", "--json")
        assert a == b

    def test_rational_field_rejected(self, capsys):
        code, _, err = run(
            capsys, "sample", "--field", "rational", "--count", "5"
        )
        assert code == 2
        assert "prime" in err

    @pytest.mark.parametrize("p", [5, 7])
    def test_field_too_small_for_eight_values_exit_2(self, capsys, p):
        # F_5 and F_7 hold no eight distinct branch values
        start = time.perf_counter()
        code, out, err = run(capsys, "sample", "--field", f"p={p}", "--count", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "at least 8" in err


class TestScan:
    def test_reference_agreement(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--field", "p=31",
            "--alpha", "0,1,-1,20", "--beta", "28,16,7,27", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert len(payload["scan"]) == 4

    def test_reference_ii2(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--field", "p=31",
            "--alpha", "0,1,-1,5", "--beta", "2,10,26,29",
        )
        assert code == 0
        assert "agreement: yes" in out

    def test_prime_limit_exit_4(self, capsys):
        code, _, err = run(
            capsys, "scan", "--field", "p=101",
            "--alpha", "0,1,-1,2", "--beta", "3,4,5,6",
        )
        assert code == 4
        assert "97" in err

    def test_random_p97(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--field", "p=97",
            "--alpha", "0,1,-1,12", "--beta", "17,23,31,88", "--json",
        )
        assert code == 0
        assert json.loads(out)["agree"] is True


class TestExitCodes:
    @pytest.mark.parametrize(
        "error", [NotSingularError, MultiplicityExceedsTwoError, ConstructionMismatchError]
    )
    def test_internal_failure_exit_5_with_replay(self, capsys, monkeypatch, error):
        def broken(rd, seed=0):
            raise error("forced")

        monkeypatch.setattr("howe.report.analyze", broken)
        code, out, err = run(capsys, *BUILD_I1, "--seed", "7")
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert f"{error.__name__}: forced" in err
        assert "replay field=p=31 alpha=0,1,-1,20 beta=28,16,7,27 seed=7" in err.splitlines()[-1]

    def test_invariant_failure_inside_pipeline(self, capsys, monkeypatch):
        # root finding that loses the affine points trips the count check
        import howe.singular as singular

        monkeypatch.setattr(singular, "roots", lambda *a, **k: [])
        code, _, err = run(capsys, *BUILD_I1, "--json")
        assert code == 5
        assert "ConstructionMismatchError" in err
        assert err.splitlines()[-1].startswith("replay field=p=31 alpha=")

    @pytest.mark.parametrize("field,alpha,needle", [
        ("rational", "1/0,2,3,4", "zero denominator"),
        ("rational", "x,2,3,4", "'x'"),
        ("p=31", "1.5,2,3,4", "'1.5'"),
        ("p=31", "1,2,3", "exactly 4"),
    ])
    def test_unparsable_value_exit_3(self, capsys, field, alpha, needle):
        code, out, err = run(
            capsys, "build", "--field", field, "--alpha", alpha, "--beta", "5,6,7,8",
        )
        assert code == cli.EXIT_INPUT == 3
        assert out == ""
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "error", [TypeError, ValueError, ZeroDivisionError, MixedFieldsError, ZeroPolynomialError]
    )
    def test_unexpected_exception_exit_5(self, capsys, monkeypatch, error):
        def broken(rd, seed=0):
            raise error("injected")

        monkeypatch.setattr("howe.report.analyze", broken)
        code, out, err = run(capsys, *BUILD_I1)
        assert code == cli.EXIT_INTERNAL
        assert out == ""
        assert f"internal error: {error.__name__}: injected" in err
        assert err.splitlines()[-1].startswith("replay field=p=31 alpha=0,1,-1,20")

    @pytest.mark.parametrize("argv,needle", [
        (["build", "--field", "p=31", "--beta", "1,2,3,4"], "required: --alpha"),
        (["build", "--field", "p=31", "--alpha", "--beta", "1,2,3,4"],
         "--alpha: expected one argument"),
        (["sample", "--field", "p=31", "--count", "3", "--bogus"], "unrecognized"),
        (["frobnicate"], "invalid choice"),
        ([], "required"),
        # options are not abbreviated: --alph does not stand for --alpha
        (["build", "--field", "p=31", "--alph", "-1,0,2,20", "--beta", "28,16,7,27"],
         "required: --alpha"),
        (["build", "--field", "p=31", "--alph", "0,1,-1,20", "--beta", "28,16,7,27"],
         "required: --alpha"),
        # ... and the error names the option that was typed
        (["build", "--field", "p=31", "--alph", "0,1,-1,20", "--beta", "28,16,7,27"],
         "unrecognized arguments: --alph;"),
        (["build", "--field", "p=31", "--alph=-1,0,2,20", "--beta", "28,16,7,27"],
         "unrecognized arguments: --alph;"),
    ])
    def test_usage_error_exit_3(self, capsys, argv, needle):
        # argparse's own usage errors exit 2, which means a field error here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == cli.EXIT_INPUT == 3
        assert captured.out == ""
        assert captured.err.startswith("usage: howe")
        assert needle in captured.err

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", [BUILD_I1 + ["--json"], ["verify-paper"]])
    def test_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        # the reader is gone before the child writes, as in `howe ... | true`
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "howe.cli", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_CLOSED_PIPE == 141
        assert "internal error" not in proc.stderr
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [["--help"], ["build", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: howe")

    def test_negative_count_exit_3(self, capsys):
        code, out, err = run(capsys, "sample", "--field", "p=31", "--count", "-5")
        assert code == 3
        assert out == ""
        assert "--count" in err
