import dataclasses
import json
import math

import pytest

import qfdiv.propsuite as propsuite
from qfdiv.errors import DomainError
from qfdiv.propsuite import (
    REGISTRY,
    PropertyConfig,
    _PropertySpec,
    derive_seed,
    describe,
    run_property,
    run_suite,
)


def without_timing(report):
    d = report.to_dict()
    d.pop("elapsed_ms")
    return d


class TestRunProperty:
    def test_unknown_id(self):
        with pytest.raises(DomainError, match="unknown property"):
            run_property("no-such-property")

    def test_small_product_identity_run(self):
        report = run_property("product-identity", PropertyConfig(trials=10, seed=1))
        assert report.passed
        assert report.trials == 10
        assert report.worst_margin >= -report.tolerance

    def test_homogeneity_covers_tiny_scale(self):
        # four scale factors per trial, the smallest 1e-9
        report = run_property("homogeneity", PropertyConfig(trials=12, seed=3))
        assert report.trials == 48
        assert report.passed

    def test_config_overrides_tolerance(self):
        report = run_property("alpha-continuity", PropertyConfig(trials=5, tolerance=0.5))
        assert report.tolerance == 0.5

    def test_deterministic_given_seed(self):
        cfg = PropertyConfig(trials=8, seed=77)
        a = run_property("thm2-bounds", cfg)
        b = run_property("thm2-bounds", cfg)
        assert without_timing(a) == without_timing(b)


# margins per run at trials=2: trials times the margins one trial yields (dpi
# and chain-rule check every alpha in each trial)
TRIALS_AT_TWO = {
    "dpi": 10,
    "nonnegativity": 2,
    "homogeneity": 8,
    "orthogonal-additivity": 2,
    "thm2-bounds": 4,
    "chain-rule": 6,
    "mixture-exact": 2,
    "mixture-lower": 2,
    "pure-bounds": 4,
    "product-identity": 2,
    "extension-independence": 6,
    "thm3-data-processing": 2,
    "conditioning-reduces": 2,
    "alpha-continuity": 4,
    "closed-form-vs-optimizer": 2,
}


class TestTrialDriver:
    def test_pins_cover_the_registry(self):
        assert set(TRIALS_AT_TWO) == set(REGISTRY)

    @pytest.mark.parametrize("pid", sorted(TRIALS_AT_TWO))
    def test_margins_per_run(self, pid):
        report = run_property(pid, PropertyConfig(trials=2))
        assert report.trials == TRIALS_AT_TWO[pid]
        assert report.passed


class TestRunSuite:
    def test_empty_filter_runs_nothing(self):
        assert run_suite(PropertyConfig(seed=1), properties=[]) == []

    def test_single_property(self):
        reports = run_suite(PropertyConfig(seed=5), properties=["homogeneity"])
        assert len(reports) == 1
        assert reports[0].property_id == "homogeneity"
        assert reports[0].seed == derive_seed(5, "homogeneity")

    def test_unknown_property_rejected(self):
        with pytest.raises(DomainError):
            run_suite(properties=["bogus"])

    def test_registry_has_fifteen_properties(self):
        assert len(REGISTRY) == 15

    def test_errors_become_failed_reports(self, monkeypatch):
        broken = _PropertySpec(
            check=lambda trial: [][1],  # raises IndexError
            trials=1,
            dims=(2,),
            alphas=(1.0,),
            tolerance=1e-9,
            statement="always broken",
        )
        monkeypatch.setitem(REGISTRY, "broken", broken)
        reports = run_suite(PropertyConfig(seed=3), properties=["broken"])
        assert len(reports) == 1
        assert not reports[0].passed
        assert reports[0].trials == 0
        assert reports[0].worst_margin == -math.inf

    def test_nan_margin_is_a_violation(self, monkeypatch):
        spec = _PropertySpec(
            check=lambda trial: [0.0, math.inf - math.inf, 1.0],
            trials=1,
            dims=(2,),
            alphas=(1.0,),
            tolerance=1e-9,
            statement="one undefined residual",
        )
        monkeypatch.setitem(REGISTRY, "nan-margin", spec)
        report = run_property("nan-margin")
        assert not report.passed
        assert report.violations == 1
        assert report.trials == 3
        assert math.isnan(report.worst_margin)
        assert report.to_dict()["worst_margin"] == "nan"
        json.dumps(report.to_dict(), allow_nan=False)

    def test_empty_ensemble_fails(self, monkeypatch):
        spec = _PropertySpec(
            check=lambda trial: [],
            trials=0,
            dims=(2,),
            alphas=(1.0,),
            tolerance=1e-9,
            statement="checks nothing",
        )
        monkeypatch.setitem(REGISTRY, "empty", spec)
        report = run_property("empty")
        assert not report.passed
        assert report.trials == 0
        assert report.worst_margin == -math.inf

    @pytest.mark.parametrize(
        "pid", ["mixture-exact", "extension-independence", "closed-form-vs-optimizer"]
    )
    def test_unconverged_optimizer_is_a_violation(self, pid, monkeypatch):
        original = propsuite.conditional_entropy_optimize

        def disagreeing(*args, **kwargs):
            return dataclasses.replace(original(*args, **kwargs), converged=False)

        monkeypatch.setattr(propsuite, "conditional_entropy_optimize", disagreeing)
        report = run_property(pid, PropertyConfig(trials=1, seed=4))
        assert not report.passed
        assert report.violations >= 1

    def test_reports_deterministic_across_runs(self):
        props = ["homogeneity", "pure-bounds", "alpha-continuity"]
        a = run_suite(PropertyConfig(seed=11), properties=props)
        b = run_suite(PropertyConfig(seed=11), properties=props)
        assert [without_timing(r) for r in a] == [without_timing(r) for r in b]


class TestReportSerialization:
    def test_snake_case_schema(self):
        report = run_property("homogeneity", PropertyConfig(trials=3, seed=2))
        d = report.to_dict()
        assert set(d) == {
            "property_id",
            "trials",
            "violations",
            "worst_margin",
            "tolerance",
            "seed",
            "elapsed_ms",
        }
        json.dumps(d)  # strictly serializable

    def test_infinite_margin_serialized_as_string(self):
        from qfdiv.propsuite import PropertyReport

        report = PropertyReport("x", 0, 1, -math.inf, 1e-9, 0, 0)
        assert report.to_dict()["worst_margin"] == "-inf"


class TestSeedDerivation:
    def test_stable_values(self):
        # frozen: SHA-256 of little-endian seed plus the id must never change
        assert derive_seed(42, "dpi") == derive_seed(42, "dpi")
        assert derive_seed(42, "dpi") != derive_seed(42, "thm2-bounds")
        assert derive_seed(42, "dpi") != derive_seed(43, "dpi")

    def test_describe(self):
        assert "maps" in describe("dpi")
        with pytest.raises(DomainError):
            describe("missing")
