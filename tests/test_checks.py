"""Verification registry: manifest, execution contract, reporting."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from normord import (
    CheckResult,
    Witness,
    check_ids,
    mono,
    render_report,
    results_to_json,
    run_all,
    run_check,
)
from normord.checks import REGISTRY, check

# Frozen manifest: adding or removing a check must be a deliberate edit here.
EXPECTED_CHECK_IDS = (
    "ascent-plateau-rows",
    "bessel-closed-form",
    "bessel-diagonal",
    "beta-e-expansion",
    "beta-positivity",
    "binary-forest-triple",
    "catalan-egf",
    "ctilde-diagonal-recurrence",
    "eulerian-grammar-self-dual",
    "eulerian-specialization-chain",
    "flag-ascent-plateau",
    "full-binary-forest-triple",
    "full-ternary-forest",
    "gamma-basis-expansion",
    "gamma-valley-enumeration",
    "half-square-grammar-expansion",
    "lah-closed-form",
    "list-partition-ascents",
    "pq-eulerian-cycle-stats",
    "second-order-row-link",
    "second-order-row-polynomial",
    "signed-permutation-descents",
    "stirling-first-surrogate",
    "stirling-list-distribution",
    "stirling-second-dual",
    "stirling-second-normal-order",
    "swap-grammar-expansion",
    "ternary-forest-triple",
    "trivariate-second-order",
    "type-b-eulerian-numbers",
    "type-b-normal-order-rows",
    "updown-normal-order",
    "updown-runs",
)


class TestManifest:
    def test_registry_matches_frozen_manifest(self):
        assert tuple(check_ids()) == EXPECTED_CHECK_IDS

    def test_minimum_breadth(self):
        assert len(EXPECTED_CHECK_IDS) >= 25

    def test_duplicate_id_is_rejected(self):
        before = dict(REGISTRY)
        with pytest.raises(ValueError, match="duplicate check id 'lah-closed-form'"):
            check("lah-closed-form", "a second lah check", 1, 4, 2)(lambda n: iter(()))
        assert REGISTRY == before
        assert tuple(check_ids()) == EXPECTED_CHECK_IDS

    def test_specs_are_well_formed(self):
        for check_id, spec in REGISTRY.items():
            assert spec.check_id == check_id
            assert spec.summary
            assert spec.n_min <= spec.quick_cap <= spec.full_cap


class TestRunCheck:
    def test_returns_pass_result(self):
        r = run_check("lah-closed-form", 4)
        assert r.check_id == "lah-closed-form"
        assert r.n_range == (1, 4)
        assert r.status == "pass"
        assert r.witness is None
        assert r.passed

    def test_defaults_to_full_cap(self):
        spec = REGISTRY["stirling-second-normal-order"]
        r = run_check("stirling-second-normal-order")
        assert r.n_range == (spec.n_min, spec.full_cap)
        assert r.passed

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_check("no-such-check")

    def test_rejects_out_of_range_depth(self):
        with pytest.raises(ValueError):
            run_check("lah-closed-form", 99)
        with pytest.raises(ValueError):
            run_check("lah-closed-form", 0)

    @pytest.mark.parametrize("check_id", EXPECTED_CHECK_IDS)
    def test_every_check_passes_at_small_depth(self, check_id):
        spec = REGISTRY[check_id]
        depth = min(spec.n_min + 2, spec.quick_cap)
        assert run_check(check_id, depth).passed


class TestRunAll:
    def test_quick_profile_green(self, quick_run):
        results = quick_run.results
        assert len(results) == len(EXPECTED_CHECK_IDS)
        assert all(r.passed for r in results)
        assert [r.check_id for r in results] == sorted(r.check_id for r in results)

    def test_quick_profile_clamps_to_quick_caps(self, quick_run):
        for r in quick_run.results:
            spec = REGISTRY[r.check_id]
            assert r.n_range == (spec.n_min, spec.quick_cap)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            run_all("exhaustive")

    def test_full_profile_green(self, full_run):
        results = full_run.results
        assert all(r.passed for r in results)
        for r in results:
            spec = REGISTRY[r.check_id]
            assert r.n_range == (spec.n_min, spec.full_cap)
        assert render_report(results).splitlines()[-1] == "33/33 checks passed"


class TestResultContract:
    def test_fail_render_carries_witness(self):
        w = Witness(3, "row mismatch", "a", "b")
        r = CheckResult("demo", (1, 5), w)
        assert not r.passed
        assert r.status == "fail"
        assert r.render().startswith("FAIL demo (n=1..5)")
        assert "row mismatch" in r.render()


class TestReporting:
    def test_render_report(self):
        results = [run_check("lah-closed-form", 4), run_check("catalan-egf", 4)]
        text = render_report(results)
        assert text.splitlines()[-1] == "2/2 checks passed"
        assert "PASS lah-closed-form (n=1..4)" in text

    def test_json_serializable(self):
        results = [run_check("catalan-egf", 4)]
        blob = json.loads(json.dumps(results_to_json(results)))
        assert blob == [
            {
                "check_id": "catalan-egf",
                "n_range": [0, 4],
                "status": "pass",
                "witness": None,
            }
        ]

    def test_side_that_raises_is_the_witness(self, monkeypatch):
        import normord.checks

        def asymmetric(f):
            raise ValueError("input is not symmetric in x, y, z")

        monkeypatch.setattr(normord.checks, "e_expand", asymmetric)
        result = run_check("beta-e-expansion", 3)
        assert result.witness == Witness(1, "a side raised ValueError",
                                         "input is not symmetric in x, y, z", "not built")
        # Exceptions outside ValueError and ArithmeticError are faults of the
        # program, not failed identities, and still propagate.
        monkeypatch.setattr(normord.checks, "e_expand", lambda f: f.no_such_method())
        with pytest.raises(AttributeError):
            run_check("beta-e-expansion", 3)

    def test_negative_beta_entry_raises(self, monkeypatch):
        import normord.checks

        assemble = normord.checks.assemble
        # Entry (k, j, l) = (1, 1, 0) is the term q*v*w.
        monkeypatch.setattr(normord.checks, "assemble",
                            lambda name, n: assemble(name, n) - mono(1, q=1, v=1, w=1))
        with pytest.raises(ValueError,
                           match=r"^negative or non-integer triangle entry \(1, 1, 0\): -1$"):
            list(normord.checks._beta_positivity(3))

    def test_raise_after_equal_pairs_names_them(self, monkeypatch):
        import normord.checks

        # Both sides of beta-positivity's one comparison lose the term q*v*w,
        # entry (1, 1, 0), so they compare equal before the entry check raises.
        assemble = normord.checks.assemble

        def shifted(name, n):
            return assemble(name, n) - mono(1, q=1, v=1, w=1)

        monkeypatch.setattr(normord.checks, "assemble", shifted)
        monkeypatch.setattr(
            normord.checks, "normal_order_power",
            lambda w, g, n: SimpleNamespace(specialize=lambda q: shifted("beta", n)))
        result = run_check("beta-positivity", 3)
        assert result.render() == (
            "FAIL beta-positivity (n=1..3): n=1 [a side raised ValueError]"
            " left: negative or non-integer triangle entry (1, 1, 0): -1"
            " | right: 1 pair built and equal")

    def test_json_failure_payload(self):
        w = Witness(2, "note", "left text", "right text")
        blob = results_to_json([CheckResult("demo", (1, 4), w)])
        assert blob[0]["witness"] == {
            "n": 2,
            "note": "note",
            "left": "left text",
            "right": "right text",
        }
