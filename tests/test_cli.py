"""Command line interface: formats, determinism, exit codes."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from normord import Polynomial
from normord.cli import main


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestExpand:
    def test_inline_rules_text(self):
        code, out, _ = run(
            "expand", "--w", "x", "--grammar", "x->y^2; y->y^2", "--n", "2"
        )
        assert code == 0
        assert out == "D^1: x*y^2 ; D^2: x^2\n"

    def test_preset_name(self):
        code, out, _ = run("expand", "--w", "x", "--grammar", "second-order", "--n", "2")
        assert code == 0
        assert out == "D^1: x*y^2 ; D^2: x^2\n"

    def test_specialized_symbol(self):
        code, out, _ = run(
            "expand", "--w", "x", "--grammar", "second-order", "--n", "2",
            "--at-d", "q",
        )
        assert code == 0
        assert out == "q^2*x^2 + q*x*y^2\n"

    def test_specialized_non_symbol_rejected(self):
        # These would render as text that does not parse back to the polynomial.
        for at_d in ("", "q+1", "2"):
            code, out, err = run(
                "expand", "--w", "x", "--grammar", "second-order", "--n", "2",
                "--at-d", at_d,
            )
            assert code == 2
            assert out == ""
            assert "error:" in err

    def test_json_round_trips(self):
        code, out, _ = run(
            "expand", "--w", "x*y", "--grammar", "eulerian-full", "--n", "3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert len(data["coeffs"]) == 4
        c1 = Polynomial.from_json_dict(data["coeffs"][1])
        assert c1.coefficient({"x": 2, "y": 2}) == 4

    def test_bad_polynomial(self):
        # The second multiplier nests deeper than the parser allows.
        for w in ("x+", "(" * 245 + "x" + ")" * 245):
            code, out, err = run("expand", "--w", w, "--grammar", "swap", "--n", "2")
            assert code == 2
            assert out == ""
            assert "error:" in err

    def test_bad_grammar(self):
        for rules in ("x=>y", "x -> " + "(" * 300 + "y" + ")" * 300):
            code, out, err = run("expand", "--w", "x", "--grammar", rules, "--n", "2")
            assert code == 2
            assert out == ""
            assert "error:" in err


class TestTriangle:
    def test_text_levels(self):
        code, out, _ = run("triangle", "--family", "B", "--n", "2")
        assert code == 0
        assert out == "(1,1,0)=1\n(2,1,0)=1,(2,1,1)=1,(2,2,0)=1\n"

    def test_csv_header_and_rows(self):
        code, out, _ = run("triangle", "--family", "B", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,n,k,l,j,entry"
        assert lines[1] == "B,1,1,0,,1"
        assert len(lines) == 5

    def test_csv_four_index_family(self):
        code, out, _ = run("triangle", "--family", "beta", "--n", "2", "--format", "csv")
        assert code == 0
        assert "beta,2,1,0,1,1" in out.splitlines()

    def test_json_lines(self):
        code, out, _ = run("triangle", "--family", "beta", "--n", "2", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert {"family": "beta", "n": 1, "index": {"k": 1, "j": 0, "l": 0}, "entry": 1} in rows

    def test_polynomial_entries_render_as_text(self):
        code, out, _ = run("triangle", "--family", "Ap", "--n", "3", "--format", "json")
        assert code == 0
        entries = [json.loads(line)["entry"] for line in out.splitlines()]
        assert "p" in entries

    def test_unknown_family(self):
        code, _, err = run("triangle", "--family", "nope", "--n", "2")
        assert code == 2
        assert "error:" in err


class TestEnumerate:
    def test_json_records(self):
        code, out, _ = run("enumerate", "--objects", "permutations", "--n", "2")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records == [
            {"object": "1,2", "stats": {"cdes": 0, "cyc": 2, "des": 0, "exc": 0, "udrun": 1}},
            {"object": "2,1", "stats": {"cdes": 0, "cyc": 1, "des": 1, "exc": 1, "udrun": 2}},
        ]

    def test_stats_filter(self):
        code, out, _ = run(
            "enumerate", "--objects", "permutations", "--n", "2", "--stats", "des"
        )
        assert code == 0
        for line in out.splitlines():
            assert set(json.loads(line)["stats"]) == {"des"}

    def test_text_format(self):
        code, out, _ = run(
            "enumerate", "--objects", "permutations", "--n", "2",
            "--stats", "des", "--format", "text",
        )
        assert code == 0
        assert out == "1,2 des=0\n2,1 des=1\n"

    def test_forest_records(self):
        code, out, _ = run("enumerate", "--objects", "binary-forests", "--n", "1")
        assert code == 0
        assert json.loads(out) == {
            "object": "1(x)",
            "trees": 1,
            "leaves": {"x": 1, "y": 0, "z": 0},
        }

    def test_forests_reject_stats_filter(self):
        code, _, err = run(
            "enumerate", "--objects", "binary-forests", "--n", "2", "--stats", "des"
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_statistic(self):
        code, _, err = run(
            "enumerate", "--objects", "permutations", "--n", "2", "--stats", "blorp"
        )
        assert code == 2
        assert "error:" in err

    def test_cap_exceeded(self):
        for objects, n in (("permutations", "10"), ("binary-forests", "10")):
            code, out, err = run("enumerate", "--objects", objects, "--n", n)
            assert code == 2
            assert out == ""
            assert "capped at n = 9" in err


class TestVerify:
    def test_single_check(self):
        code, out, _ = run("verify", "--check", "lah-closed-form", "--n-max", "4")
        assert code == 0
        assert out.splitlines()[0] == "PASS lah-closed-form (n=1..4)"

    def test_quick_profile(self):
        code, out, _ = run("verify", "--profile", "quick")
        assert code == 0
        assert out.splitlines()[-1] == "33/33 checks passed"

    def test_json_format(self):
        code, out, _ = run(
            "verify", "--check", "catalan-egf", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [
            {"check_id": "catalan-egf", "n_range": [0, 4], "status": "pass", "witness": None}
        ]

    def test_unknown_check(self):
        code, _, err = run("verify", "--check", "nope")
        assert code == 2
        assert "error:" in err

    def test_depth_without_check_rejected(self):
        code, _, err = run("verify", "--n-max", "4")
        assert code == 2
        assert "error:" in err


class TestSeries:
    def test_match(self):
        code, out, _ = run("series", "--identity", "catalan-egf", "--order", "6")
        assert code == 0
        assert out == "catalan-egf: match through order 6\n"

    def test_order_out_of_range(self):
        code, _, err = run("series", "--order", "13")
        assert code == 2
        assert "error:" in err


class TestHarness:
    def test_no_arguments(self):
        code, _, _ = run()
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run("transmogrify")
        assert code == 2

    def test_help_exits_zero(self):
        code, out, _ = run("--help")
        assert code == 0
        assert "expand" in out

    def test_deterministic_output(self):
        args = ("triangle", "--family", "A", "--n", "5", "--format", "csv")
        assert run(*args) == run(*args)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "normord", "expand", "--w", "x",
             "--grammar", "eulerian-xy", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "D^1: x*y ; D^2: x^2\n"
