"""Command line interface: formats, determinism, exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest

import normord
from normord import FAMILY_NAMES, Polynomial, build_triangle, combinat, family_row, family_rows
from normord import triangles
from normord.cli import OBJECT_NAMES, _object_id, main
from normord.combinat import CAPS, SCANS
from normord.forests import FLAVORS, census, grow_forests
from normord.triangles import FAMILIES
from test_triangles import STEPPED, STEPPER


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class CountingOut(io.StringIO):
    """A stdout that keeps the text of each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def run_counting(*argv: str) -> list[str]:
    """The text of each ``write`` that a successful command makes on stdout."""
    out, err = CountingOut(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, "")
    return out.writes


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
        for at_d in ("", "q+1", "2", "é"):
            code, out, err = run(
                "expand", "--w", "x", "--grammar", "second-order", "--n", "2",
                "--at-d", at_d,
            )
            assert code == 2
            assert out == ""
            assert err == f"error: --at-d must be a symbol name, got {at_d!r}\n"

    def test_negative_power_rejected(self):
        code, out, err = run("expand", "--w", "x", "--grammar", "second-order", "--n", "-1")
        assert (code, out, err) == (2, "", "error: --n must be nonnegative\n")

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_beta_columns_name_their_entry(self, fmt):
        # beta's index is (k, j, l); csv writes k, l, j and json sorts its keys,
        # so each line must name the key of its own entry, whatever the digests say.
        code, out, err = run("triangle", "--family", "beta", "--n", "6", "--format", fmt)
        assert (code, err) == (0, "")
        triangle = build_triangle("beta", 6)
        seen = {}
        if fmt == "csv":
            header, *lines = out.splitlines()
            assert header == "family,n,k,l,j,entry"
            for line in lines:
                family, n, k, l, j, entry = line.split(",")
                assert family == "beta"
                seen[int(n), int(k), int(j), int(l)] = int(entry)
        else:
            for line in out.splitlines():
                record = json.loads(line)
                index = record["index"]
                seen[record["n"], index["k"], index["j"], index["l"]] = record["entry"]
        assert seen == triangle
        assert len(seen) == len(out.splitlines()) - (fmt == "csv")
        # The check has teeth: some entries differ under a swap of j and l.
        assert any(triangle.get((n, k, l, j)) != v for (n, k, j, l), v in triangle.items())

    def test_polynomial_entries_render_as_text(self):
        code, out, _ = run("triangle", "--family", "Ap", "--n", "3", "--format", "json")
        assert code == 0
        entries = [json.loads(line)["entry"] for line in out.splitlines()]
        assert "p" in entries

    def test_unknown_family(self):
        code, _, err = run("triangle", "--family", "nope", "--n", "2")
        assert code == 2
        assert err == (
            "error: unknown family 'nope'; known families: A, Ap, a, gamma, C, beta, B, E, W,"
            " S2, S1, eulerian, eulerian2, eulerianB, lah, bessel, catalan\n"
        )

    def test_level_below_start(self):
        code, out, err = run("triangle", "--family", "A", "--n", "0")
        assert (code, out, err) == (2, "", "error: family 'A' starts at n = 1\n")

    @pytest.mark.parametrize("family", STEPPED)
    def test_command_builds_no_row_dict(self, family, monkeypatch):
        # Rows are formatted straight from the walk's columns, in every format.
        reads = []
        row = triangles._row
        monkeypatch.setattr(triangles, "_row",
                            lambda cols, width: reads.append(cols) or row(cols, width))
        for fmt in ("text", "csv", "json"):
            code, out, err = run("triangle", "--family", family,
                                 "--n", str(FAMILIES[family].start + 6), "--format", fmt)
            assert (code, err) == (0, "") and out
        assert reads == []

    @pytest.mark.parametrize("family", STEPPED)
    def test_command_drops_the_kept_row(self, family, monkeypatch):
        # The command steps each level below --n once, none past it, and holds
        # no step state of its walk once it returns: the family's columns
        # (Ap's are A's).
        start = FAMILIES[family].start
        spec = FAMILIES[STEPPER[family]]
        argv = ("triangle", "--family", family, "--n", str(start + 5))
        want = run(*argv)
        stepped = []

        class Columns(list):
            pass

        def step(prev, n):
            state = Columns(spec.step(prev, n))
            stepped.append((n, weakref.ref(state)))
            return state

        monkeypatch.setitem(FAMILIES, STEPPER[family], dataclasses.replace(spec, step=step))
        assert run(*argv) == want
        assert [n for n, _ in stepped] == list(range(start, start + 5))
        assert all(ref() is None for _, ref in stepped)


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
        code, out, err = run(
            "enumerate", "--objects", "stirling-lists", "--n", "2", "--stats", "blorp,asc,nope"
        )
        assert code == 2
        assert out == ""
        assert err == "error: unknown statistic(s) blorp, nope; known: asc, blocks, des, plat\n"

    def test_cap_exceeded(self):
        for objects in OBJECT_NAMES:
            cap = CAPS[objects]
            code, out, err = run("enumerate", "--objects", objects, "--n", str(cap + 1))
            assert code == 2
            assert out == ""
            assert f"capped at n = {cap} (requested {cap + 1})" in err

    def test_lowered_cap_entry(self, monkeypatch):
        # enumerate reads the same CAPS entry as the library, when it runs.
        monkeypatch.setitem(CAPS, "permutations", 2)
        code, out, err = run("enumerate", "--objects", "permutations", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error: permutations enumeration capped at n = 2 (requested 3)\n"

    @pytest.mark.parametrize("objects", sorted(SCANS))
    def test_one_walk_per_command(self, objects, monkeypatch):
        # The word template is read off the first object of the command's one
        # walk, so every object is drawn once and no second walk starts.
        enumerator, calls, drawn = combinat._ENUMERATORS[objects], [], []

        def counted(n):
            calls.append(n)
            return map(lambda obj: drawn.append(obj) or obj, enumerator(n))

        monkeypatch.setitem(combinat._ENUMERATORS, objects, counted)
        code, out, err = run("enumerate", "--objects", objects, "--n", "3")
        assert (code, err) == (0, "")
        assert calls == [3]
        assert drawn == list(enumerator(3)) and len(out.splitlines()) == len(drawn)

    def test_object_id_follows_the_object_shape(self):
        # A word joins its letters by ","; a tuple of blocks joins its words by "|".
        assert _object_id(()) == ""
        assert _object_id((2, -1, 3)) == "2,-1,3"
        assert _object_id(((1, 1),)) == "1,1"
        assert _object_id(((1, 3), (2,))) == "1,3|2"

    def test_object_names_match_caps(self):
        # A kind listed on one side only would fail at its first enumerate.
        assert sorted(OBJECT_NAMES) == sorted(CAPS)

    def test_kind_tables_agree(self):
        # A kind added to one table only would have no cap, scans or walk.
        assert set(SCANS) == set(combinat._ENUMERATORS)
        assert set(CAPS) == set(combinat._ENUMERATORS) | {f"{f}-forests" for f in FLAVORS}


def assert_lines_are_records(out: str, records: list[dict]) -> None:
    """Each json line loads to its record, and json.dumps of the record gives the line."""
    lines = out.splitlines()
    assert [json.loads(line) for line in lines] == records
    assert lines == [json.dumps(record, sort_keys=True) for record in records]


class TestRecordRoundTrip:
    # enumerate and triangle fill json templates; the records built here
    # from the raw walk or the row pin them to what a json encoder writes.

    @pytest.mark.parametrize("objects", OBJECT_NAMES)
    def test_enumerate_json(self, objects):
        names = sorted(SCANS.get(objects, ()))
        variants = [None] if not names else [
            None, names[0], ",".join(reversed(names)), f"{names[-1]},{names[-1]}"]
        for n in range(6):
            for stats in variants:
                argv = ["enumerate", "--objects", objects, "--n", str(n), "--format", "json"]
                code, out, err = run(*argv, *(() if stats is None else ("--stats", stats)))
                assert (code, err) == (0, "")
                if objects in SCANS:
                    scans = SCANS[objects]
                    chosen = scans if stats is None else stats.split(",")
                    records = [{"object": _object_id(obj), "stats": {s: scans[s](obj) for s in chosen}}
                               for obj in combinat._ENUMERATORS[objects](n)]
                else:
                    records = []
                    for word in grow_forests(objects.removesuffix("-forests"), n):
                        lx, ly, lz, trees = census(word)
                        records.append({"object": word, "trees": trees,
                                        "leaves": {"x": lx, "y": ly, "z": lz}})
                assert_lines_are_records(out, records)

    @pytest.mark.parametrize("objects", sorted(SCANS))
    def test_enumerate_text(self, objects):
        # A word's letters fill one slot each; a text line must still read as
        # the object's id, then each chosen statistic once, in sorted order.
        scans = SCANS[objects]
        names = sorted(scans)
        for n in range(6):
            for stats in [None, names[0], ",".join(reversed(names)), f"{names[-1]},{names[-1]}"]:
                argv = ["enumerate", "--objects", objects, "--n", str(n), "--format", "text"]
                code, out, err = run(*argv, *(() if stats is None else ("--stats", stats)))
                assert (code, err) == (0, "")
                chosen = names if stats is None else sorted(set(stats.split(",")))
                objs = list(combinat._ENUMERATORS[objects](n))
                lines = out.splitlines()
                assert len(lines) == len(objs)
                for line, obj in zip(lines, objs):
                    first, *pairs = line.split(" ")
                    assert first == _object_id(obj)
                    assert [pair.split("=") for pair in pairs] == [
                        [s, str(scans[s](obj))] for s in chosen]

    def test_enumerate_json_seven_letter_words(self):
        code, out, err = run("enumerate", "--objects", "permutations", "--n", "7")
        assert (code, err) == (0, "")
        scans = SCANS["permutations"]
        assert_lines_are_records(out, [
            {"object": _object_id(word), "stats": {s: scan(word) for s, scan in scans.items()}}
            for word in combinat._ENUMERATORS["permutations"](7)])

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_triangle_json(self, family):
        code, out, err = run("triangle", "--family", family, "--n", "6", "--format", "json")
        assert (code, err) == (0, "")
        spec = FAMILIES[family]
        assert_lines_are_records(out, [
            {"family": family, "n": n, "index": dict(zip(spec.indices, idx)),
             "entry": v.render() if isinstance(v, Polynomial) else v}
            for n in range(spec.start, 7) for idx, v in sorted(family_row(family, n).items())])


# sha256 of the concatenated ``enumerate`` output for n = 0..5 (n = 0..4 for
# stirling-lists), keyed by object kind, format and ``--stats`` subset.
ENUMERATE_DIGESTS = {
    ("list-partitions", "json", None): "5a853e1498437e21e7507a0bdd3b06805d63754a783ac4fb81d53101ed9b713f",
    ("list-partitions", "text", None): "0c76748ebae7026d675376475fd3f9942103dcdee566567a9755636132baf672",
    ("permutations", "json", None): "6088592c56046ab7306df46f680f8009bb83e5907f3d876cdbf22be03810dded",
    ("permutations", "text", None): "c21e19aef3207915c63be96cf1ab566eebcd41bbeaabc5b303d8b39473882ce3",
    ("signed-permutations", "json", None): "e60aa5ae272facd47d0184df6a1f7f3b2325d28f21d163b4f6c80befe9b058df",
    ("signed-permutations", "text", None): "24b41f3df1509ac5a5750768157557ed56e33d20645240e5993e8265c10e5b80",
    ("stirling-lists", "json", None): "a85933a6c3745578a2fd03f401b1209ba6c07c2ec1212e1571325b0757ea10a6",
    ("stirling-lists", "text", None): "b8e8a4bb599e7748774c691ef338a7936a6df45c4f8240f84486f95f22802afc",
    ("stirling-permutations", "json", None): "9f68b8f4de8194be82a093d2caf3926d9a175aa03239f6a2f785e35dd270e1e5",
    ("stirling-permutations", "text", None): "1831d320f2eee30ce0d51048e6b823f9cd12bcd5bac148244e441312a9cdf891",
    ("binary-forests", "json", None): "bb82170822bfa9b13ae883babe68bab35b59fbe58b1ad03cd51851fbf50fbbd7",
    ("binary-forests", "text", None): "036a7dfdb6eff604c3de165a3bd446b873770f76dc574d7cf725e893d36f5cd6",
    ("full-binary-forests", "json", None): "d697e5e10a17bc038b2ed8e1a93b963370f04940553cc39ff6f1b21e2868a0d6",
    ("full-binary-forests", "text", None): "87147604e9c9547c9a4cb6edd26ef940dd4c85e8809efe4181662a7fef6a6e8d",
    ("full-ternary-forests", "json", None): "3a4f8333764fdcd6814fd8e888136ec7d77efa895e51de6589c7d10afd00ff4a",
    ("full-ternary-forests", "text", None): "47d2b1411b2a9ffa684bbc71d498c75999598b272c50305f83dba18b7bbed760",
    ("ternary-forests", "json", None): "8dadefdce0a7f0ae06618a800c9e3affc21e3a068d08f1c6ce6dfff501e00bba",
    ("ternary-forests", "text", None): "aa32d4e0dc466311d22f2680326782bc285f4aff1bee318f618fbd5354b8cceb",
    ("permutations", "json", "udrun,cyc"): "27b3e6c9c894aa0c45c5e4981f324a1050a358c3771caeaecdb02a1281ba81d9",
    ("permutations", "text", "udrun,cyc"): "acd6e260c9ddb82674a4485759c6c3ccdbc6c57e92064d9e7cbdfb21dda170b0",
    ("signed-permutations", "json", "des_b"): "e60aa5ae272facd47d0184df6a1f7f3b2325d28f21d163b4f6c80befe9b058df",
    ("signed-permutations", "text", "des_b"): "24b41f3df1509ac5a5750768157557ed56e33d20645240e5993e8265c10e5b80",
    ("stirling-permutations", "json", "fap,plat"): "1d273ad24532008f65beedc98b7e3d809ca20a0ed8b48c7b5d98cb6ed884353a",
    ("stirling-permutations", "text", "fap,plat"): "bcddc72571293af9053b24e51002453d5c989d292045c99c416c775472c8b145",
    ("list-partitions", "json", "dd,blocks"): "2076d3ef9ee5e417154f81068c98ae7238035e41ed6aca12d33cf8316f6c2111",
    ("list-partitions", "text", "dd,blocks"): "a2140f1a9c84a64d1572ce4b10bc59b026f23d7d29488b8e13079c44d93645ed",
    ("stirling-lists", "json", "plat,blocks"): "9fbe38f53ea994975e789df4643cfa67e45e14c4af9fd28550569b03001e637e",
    ("stirling-lists", "text", "plat,blocks"): "7c9a676c9251793465211b3ac3f160cfdd04af0d1e95e527e3dea5502dcfd9de",
}

# sha256 of test_invocations_match_recorded_digest's invocations and results.
ENUMERATE_INVOCATIONS_DIGEST = "90153a8b5bff7f565fa804a63c804011b468c8470461aa77978f3d4f4dade3e4"


class TestEnumerateDigests:
    def test_digests_cover_every_kind(self):
        kinds = {objects for objects, _, stats in ENUMERATE_DIGESTS if stats is None}
        assert kinds == set(OBJECT_NAMES)

    def test_output_matches_digest(self):
        for (objects, fmt, stats), want in ENUMERATE_DIGESTS.items():
            h = hashlib.sha256()
            for n in range(5 if objects == "stirling-lists" else 6):
                argv = ["enumerate", "--objects", objects, "--n", str(n), "--format", fmt]
                if stats is not None:
                    argv += ["--stats", stats]
                code, out, _ = run(*argv)
                assert code == 0
                h.update(out.encode())
            assert h.hexdigest() == want, (objects, fmt, stats)

    def test_invocations_match_recorded_digest(self):
        # One sha256 over (argv, exit code, stdout, stderr) of every kind at
        # n = 0..5, one past its cap and -1, in both formats, under each
        # --stats variant: none, the first statistic, all of them reversed,
        # an unknown one and an empty list; forest kinds also take "--stats x".
        h = hashlib.sha256()
        for objects in OBJECT_NAMES:
            names = list(SCANS.get(objects, ()))
            variants = [None, "x"] if not names else [
                None, names[0], ",".join(reversed(names)), "nope", " , "]
            for n in (*range(6), CAPS[objects] + 1, -1):
                for fmt in ("json", "text"):
                    for stats in variants:
                        argv = ["enumerate", "--objects", objects, "--n", str(n),
                                "--format", fmt]
                        if stats is not None:
                            argv += ["--stats", stats]
                        h.update(json.dumps([argv, *run(*argv)]).encode() + b"\n")
        assert h.hexdigest() == ENUMERATE_INVOCATIONS_DIGEST


# sha256 of ``triangle --family F --n 12 --format FMT`` (levels start..12),
# keyed by family and format, recorded before the per-row writes replaced
# one print per entry.
TRIANGLE_DIGEST_TOP = 12
TRIANGLE_DIGESTS = {
    ("A", "text"): "d5e575899ad6a4726937df93660961512faa286a6e080f02db7e83adad8601b6",
    ("A", "csv"): "cd5a769d3c74de949cd5d59d7d35e8372f7641cba0c5b6ab213d51570353ac42",
    ("A", "json"): "56c8bf6fded2fbe4880932eb383dd7ba93249dfaa67cfc310ae539e7dc1f45c3",
    ("Ap", "text"): "0a43f2b397a02908baf38f8598034b0eb8866f7937aa12ad0c7811630ca1e93e",
    ("Ap", "csv"): "d51725edb73ef3f680aa1345c59e3e36f8b44ae34b86fcfbef52ce52f128078f",
    ("Ap", "json"): "e91e006921ae1ca564b446290fc573f7f8b53e468a6a7175a211fcb3b0151507",
    ("a", "text"): "47ff9d6549c4a88d85fef631d00a90f56573d9b118c91e0471d84a7b0fa71a83",
    ("a", "csv"): "082ea318f2707ab6ee2270fd4992b2c60b392402ff449f03674c41372a55261c",
    ("a", "json"): "584533f005c6c568605d75a28006c6c5d6492e8d1bb46e138d64a8d8738d424e",
    ("gamma", "text"): "20d365980c29a658db8c851533da1fe0632b3a6218686e2ab51977dd74dc9cee",
    ("gamma", "csv"): "d0c91f12017e90caee3e0045b516cd02c28868d6c55c879effff90bd851216dd",
    ("gamma", "json"): "8c129f9e019036f5648147abc31c1d1e5628e2aa2408285b26287431d29b1c48",
    ("C", "text"): "e2824592028200c777bf72584d693f7aab50d2cef8df3e6b8843e3e5510bbc0c",
    ("C", "csv"): "e63d4af8915d919ba97288b7dc257d3c3762ecd6ca262d09bc190411e70ca1c6",
    ("C", "json"): "480a30c4f6b4e808a053051fe9b6b43d74a2b74be3591e4e092cb595ea4c8382",
    ("beta", "text"): "168de48b2c0955cb6389d52944b00a3f3ad559cda494221c5781541572ba4d01",
    ("beta", "csv"): "8cd95589374c07e24dbfb07ea015a58e02c9b62f4a5f586cfc63e79d82d6db4b",
    ("beta", "json"): "52252e9713a1bafac5ca4c3926738d992e4fd0af51b90c01f97aba3683d76af8",
    ("B", "text"): "7dccf9f64e0ab019f29ad0c35f1de10eef98b228e6ac4b5473678d4b0b143c7d",
    ("B", "csv"): "66f0e9283ef42b60958ca0d1f8502f030b0a8614af341d4021d7d1807bbddf0b",
    ("B", "json"): "bfe3387c67b71b4e4082bdc700f3858c4a42daa9b752f007bbb98351c99850e4",
    ("E", "text"): "283686a70972754fbc550154d7cdd42c1e63edc199558f6fa9e790dd64ae5ac3",
    ("E", "csv"): "26fef4fcb80ecd75a3e00b73edaa84536c74dd2d9ee46e65805539727877ccc6",
    ("E", "json"): "3e0a90d21c747d9033feb9e39ae4da1074ecc7d179b75da5b539272e8bcfcf06",
    ("W", "text"): "e02ff3165a92f81eb76cbe0606ec9fa087ee26a49940a517fd73f952491279d8",
    ("W", "csv"): "456d0611388dd5f3baa4b0d2e05c3944686748e4ef410c1c91763cfbd1702af1",
    ("W", "json"): "3e0be2e4336e82baa22337293cb5a87fe0c1b70cd94197575d2a15ebf2fa906e",
    ("S2", "text"): "c036c064fe4514ecf0fb636f8911a84b3f32c3f42b29be7b05f76545aa57058f",
    ("S2", "csv"): "d0018bd1aac7b42dde60cc189a0a77cdabc6f6c8d25006a296d51da80dfe5976",
    ("S2", "json"): "82b5a3785dac80fa3bf3ec906e6aa41b4dbbca6cefb44f7e14f9a396bb2beb76",
    ("S1", "text"): "6b2bc89a7aba2081e903ac8e26d1417d2e7b7ad5b0fb07f3f95848bdca9f73f7",
    ("S1", "csv"): "680729f694bd8e9e53f5f579e29bdaaf2a1f71a652522d0afd85d01de4c87af6",
    ("S1", "json"): "1c524986cfb900dd47f87ceeffbaab93888a9dcf42d390fa622bcdddd57bce9e",
    ("eulerian", "text"): "f2cc90c531c955f7afd476d62a5454c3b442a80b999d2f42fa22555f69977bc6",
    ("eulerian", "csv"): "9e80cbe27fac7aa0b55f09ed19c19009f4738656ec8ba60261e890d2cbf611e6",
    ("eulerian", "json"): "ec8fd4b6300d011e16a501adbf9e57c868e0e7715e51b75d188ec809ce635c4c",
    ("eulerian2", "text"): "62263a9caeed066c7259f48d8b0528fe108c42fd96e60c759edde644a8aae442",
    ("eulerian2", "csv"): "f06e6bd64169e068c6f05590a65d392b20695af4ba7d37f375a0d91f4d0d9c77",
    ("eulerian2", "json"): "d34bdbecc8b3fdfb66afab249fb5b721bb149bcc3bd613ba322e1c7757833cd9",
    ("eulerianB", "text"): "7851a35235517fe32d74de43149bdeee9ef7ffd85187b55b57b18083ded051a4",
    ("eulerianB", "csv"): "3e7a6a86759ef99cc7588f713730746413461ccd0978b5af1a20734a50ba128b",
    ("eulerianB", "json"): "333a20e6a7e25a026ac0a9ad13860b585985f7a6babb16ee745b69a2e7c6f30e",
    ("lah", "text"): "8a867e8603da9717465b59078084e8e165079294b10dbe352dc23ef750f8b86d",
    ("lah", "csv"): "e4f637a6b207ba3a6f9a3ee3dfd3ebd2a2475ce20c6c9000de4b31480892e4e3",
    ("lah", "json"): "50f2fe2011496bb056f1d1e534bf87cd91a9732c957c0888483ff06a0373ed8b",
    ("bessel", "text"): "f469fb5846cf2df25da0535354c372091e07a479bfaa53db7bbda6a416f31f1e",
    ("bessel", "csv"): "a1f23efb5b47308f7095df5683b2a70b65c48d1c6b4c184457ce7e10d3192f7b",
    ("bessel", "json"): "de74d1dcb2764dab521fde4fa99b3b74ecc1a28fb47d2074f0563f2c3706bee8",
    ("catalan", "text"): "58a234317e12d45cdb1424b064acd341cb142b8883564c15ffe9e0138ac2a757",
    ("catalan", "csv"): "f3a109e693293a3ec427b4760c18932d35adc5871046be6db6c745b5f66d1690",
    ("catalan", "json"): "ca4f846a5a27bff73e14186ab703f2f93c4781523ec0c579762b211da530c662",
}


class TestTriangleDigests:
    def test_digests_cover_every_family_and_format(self):
        assert set(TRIANGLE_DIGESTS) == {
            (family, fmt) for family in FAMILY_NAMES for fmt in ("text", "csv", "json")}

    def test_output_matches_digest(self):
        for (family, fmt), want in TRIANGLE_DIGESTS.items():
            code, out, err = run("triangle", "--family", family,
                                 "--n", str(TRIANGLE_DIGEST_TOP), "--format", fmt)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == want, (family, fmt)

    def test_rows_written_in_parts_match_digest(self):
        # Rows 32 to 50 of A hold over 512 entries each, so each row is
        # written in two or three parts that must join into the same bytes.
        digests = {
            "text": "04b4d9fde70125e97e4a2bb4f84f7eb8aec1a9bc2a5694db6dd91cb57ba1dcb2",
            "csv": "b7a7550049ac81c5fda28dab1754698bd79e550b7fee847b077b4087513339b8",
            "json": "428b4a3383a4764ddb5803b487f9b25b392f4ee297b1e53b5a6c6a79b7a21756",
        }
        for fmt, want in digests.items():
            code, out, err = run("triangle", "--family", "A", "--n", "50", "--format", fmt)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == want, fmt

    # Recorded before rows were formatted straight from their columns.  B's
    # columns (unit move dl = 0) start at l = 0, and its rows from n = 32 up
    # are written in two parts; Ap's entries are polynomials, quoted for json,
    # and its rows at n = 33 and 34 are written in two parts; beta's rows come
    # from its dict step, and csv and json reorder its index (k, j, l).
    DEEP_DIGESTS = {
        ("B", 40, "csv"): "707879b6f32b3899d2fe78227c25ce71a6463484e24a352409ef6fa8b032b777",
        ("Ap", 34, "text"): "c0dc0c8719728da837561072f53fe354952937ddf941dbde6cd0e6a86d211629",
        ("Ap", 34, "json"): "0f0c5f611f6e9c65b48e5b84f291fafbb484a0c1f4e7f711897b0dabe07935cd",
        ("beta", 20, "csv"): "ef0b447ed7aae548d1a8c7f4aa64d759caf34ce915865078349a3fe5c5e1e062",
        ("beta", 20, "json"): "6b554a72f33ede67bb042baadc77161864775379646a0d1b4fcaecff8c8f95e3",
    }

    @pytest.mark.parametrize("family, n, fmt", sorted(DEEP_DIGESTS))
    def test_deep_rows_match_digest(self, family, n, fmt):
        code, out, err = run("triangle", "--family", family, "--n", str(n), "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DEEP_DIGESTS[family, n, fmt]


class TestBatchedWrites:
    # Records and row entries are joined 512 to a write, never written one by one.

    # The level n of every entry in a write, by format.
    LEVEL = {"text": r"\((\d+),", "csv": r"^A,(\d+),", "json": r'"n": (\d+)\}$'}

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_triangle_writes_per_row(self, fmt):
        writes = run_counting("triangle", "--family", "A", "--n", "50", "--format", fmt)
        if fmt == "csv":
            assert writes.pop(0) == "family,n,k,l,j,entry\n"
        per_level: dict[int, int] = {}
        for text in writes:
            (n,) = set(map(int, re.findall(self.LEVEL[fmt], text, re.MULTILINE)))
            per_level[n] = per_level.get(n, 0) + 1
        sizes = {n: len(row) for n, row in family_rows("A", 50)}
        assert set(per_level) == set(sizes)
        assert all(per_level[n] <= math.ceil(sizes[n] / 512) for n in sizes)
        assert max(sizes.values()) > 1024

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_enumerate_writes_512_records(self, fmt):
        writes = run_counting("enumerate", "--objects", "permutations", "--n", "7", "--format", fmt)
        assert len(writes) == math.ceil(5040 / 512)
        assert [text.count("\n") for text in writes] == [512] * 9 + [5040 - 9 * 512]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_forest_writes_512_records(self, fmt):
        count = sum(1 for _ in grow_forests("full-binary", 6))
        writes = run_counting("enumerate", "--objects", "full-binary-forests", "--n", "6",
                              "--format", fmt)
        assert count > 1024
        assert len(writes) == math.ceil(count / 512)
        assert sum(text.count("\n") for text in writes) == count


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
        assert err == "error: --n-max applies to a single --check run\n"

    def test_profile_with_check_rejected(self):
        code, out, err = run("verify", "--check", "lah-closed-form", "--profile", "quick")
        assert (code, out, err) == (2, "", "error: --profile applies to a whole-registry run\n")

    @pytest.mark.parametrize("argv, profile", [((), "full"), (("--profile", "quick"), "quick"),
                                               (("--profile", "full"), "full")])
    def test_whole_registry_profile(self, argv, profile, monkeypatch):
        import normord.checks

        profiles = []
        monkeypatch.setattr(normord.checks, "run_all", lambda p: profiles.append(p) or [])
        assert run("verify", *argv) == (0, "0/0 checks passed\n", "")
        assert profiles == [profile]

    def test_catalan_egf_match(self):
        code, out, _ = run("verify", "--check", "catalan-egf", "--n-max", "6")
        assert code == 0
        assert out == "PASS catalan-egf (n=0..6)\n1/1 checks passed\n"

    def test_catalan_egf_json_match_carries_no_witness(self):
        code, out, _ = run(
            "verify", "--check", "catalan-egf", "--n-max", "5", "--format", "json"
        )
        assert code == 0
        assert out == json.dumps(
            [{"check_id": "catalan-egf", "n_range": [0, 5], "status": "pass", "witness": None}],
            indent=2,
        ) + "\n"

    def test_catalan_egf_order_out_of_range(self):
        for n_max, text in (("11", "error: catalan-egf is capped at n=10, requested 11\n"),
                            ("-1", "error: catalan-egf starts at n=0, requested -1\n")):
            code, out, err = run("verify", "--check", "catalan-egf", "--n-max", n_max)
            assert (code, out, err) == (2, "", text)

    def test_catalan_egf_mismatch(self, monkeypatch):
        import normord.series

        ctilde_xx = normord.series.ctilde_xx
        monkeypatch.setattr(normord.series, "ctilde_xx",
                            lambda n: ctilde_xx(n) + 1 if n == 3 else ctilde_xx(n))
        lhs = "3*x^5*z + 3*x^4*z^2 + x^3*z^3 + 1"
        rhs = "3*x^5*z + 3*x^4*z^2 + x^3*z^3"
        code, out, _ = run("verify", "--check", "catalan-egf", "--n-max", "5")
        assert code == 1
        assert out == (
            "FAIL catalan-egf (n=0..5): n=3 [recurrence-built series vs exponential"
            f" closed form] left: {lhs} | right: {rhs}\n0/1 checks passed\n"
        )
        code, out, _ = run(
            "verify", "--check", "catalan-egf", "--n-max", "5", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)[0]["witness"] == {
            "left": lhs, "n": 3, "note": "recurrence-built series vs exponential closed form",
            "right": rhs,
        }

    def test_side_that_raises_fails_its_check_and_the_run_goes_on(self, monkeypatch):
        import normord.checks
        import normord.series

        def asymmetric(f):
            raise ValueError("input is not symmetric in x, y, z")

        catalan_number = normord.series.catalan_number
        monkeypatch.setattr(normord.checks, "e_expand", asymmetric)
        monkeypatch.setattr(normord.series, "catalan_number",
                            lambda m: catalan_number(m) + (m == 3))
        code, out, err = run("verify", "--profile", "quick")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (1, "", 34)
        assert lines[-1] == "31/33 checks passed"
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL beta-e-expansion (n=1..4): n=1 [a side raised ValueError]"
            " left: input is not symmetric in x, y, z | right: not built",
            "FAIL catalan-egf (n=0..6): n=3 [a side raised ArithmeticError]"
            " left: Catalan recurrence disagrees with the closed form at m = 3 | right: not built",
        ]
        code, out, _ = run(
            "verify", "--check", "catalan-egf", "--n-max", "5", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)[0]["witness"] == {
            "left": "Catalan recurrence disagrees with the closed form at m = 3", "n": 3,
            "note": "a side raised ArithmeticError", "right": "not built",
        }


# sha256 of each --help text at COLUMNS=80, recorded while the parser still
# read every registry when it was built.  The key is the subcommand before
# --help; the empty key is the top-level help.
HELP_DIGESTS = {
    "": "17f40b693de94adaeaaa69fcd3aeb2d6e0ee7a42f0c00e8900ae48ef567e8a14",
    "expand": "1b9d154907f287b9b3234ba6911bfef377615ee3130972c62b386c502c6397e1",
    "triangle": "6bfafbf88e066dfdf814b5839ca155597e71379e4b20939956658ef7f90f382f",
    "enumerate": "8ed5f85599bb9754dddf11e7bb485bd35c8addf283c8ce8b932cb354fbb6e9a9",
    "verify": "c24c32d2e75db59fda923de3fde879f820af537e4b38118bdde638395dffedb3",
}


def _loaded_modules(code: str) -> list[str]:
    """The normord modules a fresh interpreter holds after running ``code``."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(normord.__file__)))
    child = code + "\nprint(*sorted(m for m in sys.modules if m.partition('.')[0] == 'normord'))\n"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + child],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestStartup:
    """Each entry point imports the modules it runs and no others."""

    def test_parser_loads_no_registry(self):
        loaded = _loaded_modules("import normord.cli\nnormord.cli.build_parser()")
        assert loaded == ["normord", "normord.cli", "normord.combinat", "normord.poly"]

    def test_normal_form_loads_its_layers_alone(self):
        loaded = _loaded_modules("from normord.normal_form import normal_order_power")
        assert loaded == ["normord", "normord.grammar", "normord.normal_form", "normord.poly"]

    def test_package_import_loads_no_module(self):
        assert _loaded_modules("import normord") == ["normord"]

    def test_star_import_binds_every_export(self):
        loaded = _loaded_modules(
            "from normord import *\n"
            "import normord\n"
            "missing = [name for name in normord.__all__ if name not in globals()]\n"
            "assert not missing, missing")
        assert loaded == ["normord", *(f"normord.{m}" for m in (
            "checks", "combinat", "forests", "grammar", "normal_form", "poly", "series",
            "symmetric", "triangles"))]

    def test_dir_covers_the_exports(self):
        assert set(normord.__all__) <= set(dir(normord))

    def test_unknown_attribute_names_itself(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            normord.no_such_name


class TestHarness:
    def test_no_arguments(self):
        code, _, _ = run()
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = run("transmogrify")
        assert code == 2

    def test_series_is_not_a_subcommand(self):
        # catalan-egf reports through verify --check, like every other check.
        code, out, err = run("series", "--order", "5")
        assert (code, out) == (2, "")
        assert "invalid choice: 'series'" in err
        assert "{expand,triangle,enumerate,verify}" in run("--help")[1]

    def test_help_exits_zero(self):
        code, out, _ = run("--help")
        assert code == 0
        assert "expand" in out

    @pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
    def test_help_matches_recorded_digest(self, command, monkeypatch):
        # argparse wraps help to the terminal width, read from COLUMNS.
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(*command.split(), "--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]

    def test_deterministic_output(self):
        args = ("triangle", "--family", "A", "--n", "5", "--format", "csv")
        assert run(*args) == run(*args)

    def test_module_entry_point(self):
        # The child imports the same package as this process, installed or not.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(normord.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "normord", "expand", "--w", "x",
             "--grammar", "eulerian-xy", "--n", "2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "D^1: x*y ; D^2: x^2\n"

    def test_closed_pipe_exits_quietly(self):
        # A reader that stops early, like ``| head -c 10``, is not an error.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(normord.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "normord", "triangle", "--family", "A", "--n", "120"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
        proc.stderr.close()
        assert (head, code, err) == (b"(1,1,1)=1\n", 0, b"")

    def test_benchmark_tracer_installs(self):
        # The benchmark's tracer wraps library names by name; a rename fails here.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(normord.__file__)))
        perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        child = (
            "import sys\n"
            f"sys.path.insert(0, {perfbench!r})\n"
            "import tracer\n"
            "from normord import cli\n"
            "t = tracer.Tracer('contract')\n"
            "tracer.install(t)\n"
            "t.begin()\n"
            "code = cli.main(['verify', '--check', 'catalan-egf', '--n-max', '4'])\n"
            "t.end()\n"
            "assert 'checks.catalan-egf' in t.totals, sorted(t.totals)\n"
            "raise SystemExit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "PASS catalan-egf (n=0..4)\n1/1 checks passed\n"

    def test_benchmark_tracer_sees_enumerate_walks(self):
        # The tracer rebinds the enumerators by identity, wherever a module or
        # a module-level dict holds them; enumerate must walk through those.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(normord.__file__)))
        perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        child = (
            "import sys\n"
            f"sys.path.insert(0, {perfbench!r})\n"
            "import tracer\n"
            "from normord import cli\n"
            "t = tracer.Tracer('contract')\n"
            "tracer.install(t)\n"
            "t.begin()\n"
            "for kind in ('permutations', 'list-partitions', 'binary-forests'):\n"
            "    assert cli.main(['enumerate', '--objects', kind, '--n', '3']) == 0\n"
            "t.end()\n"
            "for name in ('combinat.permutations', 'combinat.list_partitions',"
            " 'forests.binary'):\n"
            "    assert name in t.totals, (name, sorted(t.totals))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 6 + 13 + 6

    def test_benchmark_tracer_keeps_triangle_bytes(self):
        # The benchmark's traced stream runs these commands; under the tracer
        # they must print the same bytes as untraced.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(normord.__file__)))
        perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        child = (
            "import hashlib, io, sys\n"
            "from contextlib import redirect_stdout\n"
            f"sys.path.insert(0, {perfbench!r})\n"
            "import tracer\n"
            "from normord import cli\n"
            "t = tracer.Tracer('contract')\n"
            "tracer.install(t)\n"
            "t.begin()\n"
            "for fmt in ('text', 'csv', 'json'):\n"
            "    out = io.StringIO()\n"
            "    with redirect_stdout(out):\n"
            f"        code = cli.main(['triangle', '--family', 'A', '--n', '{TRIANGLE_DIGEST_TOP}',"
            " '--format', fmt])\n"
            "    assert code == 0, code\n"
            "    print(fmt, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
            "t.end()\n"
            "assert t.totals['cli'][0] == 3, sorted(t.totals)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "".join(
            f"{fmt} {TRIANGLE_DIGESTS['A', fmt]}\n" for fmt in ("text", "csv", "json"))

    def test_benchmark_tracer_sees_row_work(self):
        # Every row read, from row_polynomial and assemble too, goes through
        # family_row, the name the tracer wraps.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(normord.__file__)))
        perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        child = (
            "import sys\n"
            f"sys.path.insert(0, {perfbench!r})\n"
            "import tracer\n"
            "from normord import cli\n"
            "t = tracer.Tracer('contract')\n"
            "tracer.install(t)\n"
            "t.begin()\n"
            "code = cli.main(['verify', '--check', 'ascent-plateau-rows', '--n-max', '3'])\n"
            "t.end()\n"
            "calls = t.totals.get('triangles.family_row', [0])[0]\n"
            "assert calls >= 1, (calls, sorted(t.totals))\n"
            "raise SystemExit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "PASS ascent-plateau-rows (n=0..3)\n1/1 checks passed\n"
