import dataclasses
import inspect
import json
import logging
import math

import numpy as np
import pytest

import qfdiv.propsuite as propsuite
from qfdiv.condent import OptimizerOptions, conditional_entropy_optimize
from qfdiv.errors import ConvergenceError, DomainError
from qfdiv.fdiv import DivergenceFunction
from qfdiv.propsuite import (
    REGISTRY,
    PropertyConfig,
    _PropertySpec,
    derive_seed,
    run_property,
    run_suite,
)

from conftest import in_fresh_interpreter, served, staged


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

    def test_deterministic_given_seed(self):
        cfg = PropertyConfig(trials=8, seed=77)
        a = run_property("thm2-bounds", cfg)
        b = run_property("thm2-bounds", cfg)
        assert without_timing(a) == without_timing(b)


# margins per run at trials=2: trials times the margins one trial yields
TRIALS_AT_TWO = {
    "dpi": 2,
    "nonnegativity": 2,
    "homogeneity": 8,
    "orthogonal-additivity": 2,
    "thm2-bounds": 4,
    "chain-rule": 2,
    "mixture-exact": 2,
    "mixture-lower": 2,
    "pure-bounds": 4,
    "product-identity": 2,
    "extension-independence": 14,
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


class TestTrialCoordinates:
    @pytest.mark.parametrize("pid", ["dpi", "chain-rule"])
    def test_each_trial_sees_its_own_alpha_only(self, pid, monkeypatch):
        # every alpha these checks use passes through one of the three spied names
        seen = []
        real_f, real_closed, real_rhs = (
            propsuite._tsallis_f, propsuite._closed, propsuite.chain_rule_rhs
        )

        def spy_f(alpha):
            seen.append(alpha)
            return real_f(alpha)

        def spy_closed(state, alpha, cond="B"):
            seen.append(alpha)
            return real_closed(state, alpha, cond)

        def spy_rhs(h, d_c, alpha):
            seen.append(alpha)
            return real_rhs(h, d_c, alpha)

        monkeypatch.setattr(propsuite, "_tsallis_f", spy_f)
        monkeypatch.setattr(propsuite, "_closed", spy_closed)
        monkeypatch.setattr(propsuite, "chain_rule_rhs", spy_rhs)
        spec = REGISTRY[pid]
        for t in range(2 * len(spec.alphas)):
            seen.clear()
            out = served(spec.check(propsuite._Trial(spec, 0, t)))
            assert all(math.isfinite(m) for m in out)
            assert set(seen) == {spec.alphas[t % len(spec.alphas)]}

    def test_rank_cycles_with_the_trial_index(self):
        spec = REGISTRY["dpi"]
        ranks = [propsuite._Trial(spec, 0, t).rank(3) for t in range(6)]
        assert ranks == [1, 2, 3, 1, 2, 3]
        assert propsuite._Trial(spec, 0, 2).rank(3, shift=1) == 1


class TestPropertyConfig:
    @pytest.mark.parametrize(
        "fields",
        [
            {"trials": -1},  # an empty ensemble under another name
            {"trials": True},  # a bool is not a count
            {"trials": 2.5},
            {"seed": 1.5},  # never truncated to 1
            {"seed": "7"},
        ],
    )
    def test_bad_field_is_domain_error(self, fields):
        with pytest.raises(DomainError, match="trials|seed"):
            PropertyConfig(**fields)

    def test_numpy_integers_become_plain_ints(self):
        config = PropertyConfig(trials=np.int64(0), seed=np.uint64(7))
        assert type(config.seed) is int and config.seed == 7
        report = run_property("homogeneity", config)
        assert report.seed == 7 and report.trials == 0 and not report.passed
        json.dumps(report.to_dict())


def _negated(f: DivergenceFunction) -> DivergenceFunction:
    """The concave ``-f``.  Its ``ell`` would be ``-inf`` where f's is ``inf``, which
    is unsupported; there it is taken as 0, which leaves every value below unchanged:
    ``rho'`` puts no mass on the kernel of ``1 (x) sigma'`` beyond ``RANK_TOL``, or
    f's finite margins would be ``inf``."""
    return DivergenceFunction(
        name=f"-{f.name}",
        fn=lambda x: -f.fn(x),
        slope=lambda x: -f.slope(x),
        f_at_zero=-f.f_at_zero,
        ell=-f.ell if math.isfinite(f.ell) else 0.0,
        operator_convex=False,
    )


def padding_margins(trial, state, sigma, f):
    """The six padding margins of one trial, its staged requests served one at a time."""
    return served(propsuite._padding_margins(trial, state, sigma, f))


class TestExtensionIndependence:
    """Each trial solves the k = 4 zero-padding of its state and compares it with
    the closed form; the k = 1 and 2 paddings are spectral margins, valid at any
    sigma, which a concave f fails."""

    @pytest.fixture(scope="class")
    def solved(self):
        spec = REGISTRY["extension-independence"]
        master = derive_seed(42, "extension-independence")
        out = []
        for t in range(spec.trials):
            trial = propsuite._Trial(spec, master, t)
            state = served(trial.state())
            f = propsuite._tsallis_f(trial.alpha)
            out.append((trial, state, f, conditional_entropy_optimize(state, f).sigma_star))
        return out

    def test_power_family_margins_have_slack(self, solved):
        for trial, state, f, sigma in solved:
            margins = padding_margins(trial, state, sigma, f)
            assert len(margins) == 6
            assert min(margins) > 0.0, trial.t

    def test_concave_f_violates_on_every_trial(self, solved):
        tol = REGISTRY["extension-independence"].tolerance
        for trial, state, f, sigma in solved:
            margins = padding_margins(trial, state, sigma, _negated(f))
            assert max(margins) < -tol, trial.t

    # at these master seeds a padded solve certified only to the optimizer's default
    # value_tol, 1e-6, is off the closed form by 2.8e-7 to 5.5e-7, beyond the row's 1e-7
    @pytest.mark.parametrize("b", [7, 31, 39])
    def test_solves_certified_to_the_row_tolerance(self, b):
        config = PropertyConfig(seed=derive_seed(b, "suite/0"), trials=5)
        (report,) = run_suite(config, ["extension-independence"])
        assert report.passed and report.trials == 35

    def test_one_solve_per_trial(self, monkeypatch):
        calls = []
        original = propsuite.conditional_entropy_optimize

        def counted(*args, **kwargs):
            calls.append(args[0].dims)
            return original(*args, **kwargs)

        monkeypatch.setattr(propsuite, "conditional_entropy_optimize", counted)
        report = run_property("extension-independence", PropertyConfig(trials=1, seed=42))
        assert report.passed and report.trials == 7
        assert calls == [(2, 6)]  # the k = 4 padding; the reference is the closed form

    # a wrong infimum must show: the padded solve is compared with the closed form,
    # not with a second solve that would share its error
    def test_biased_solves_are_violations(self, monkeypatch):
        original = propsuite.conditional_entropy_optimize

        def biased(*args, **kwargs):
            report = original(*args, **kwargs)
            return dataclasses.replace(report, value=report.value + 1e-3)

        monkeypatch.setattr(propsuite, "conditional_entropy_optimize", biased)
        report = run_property("extension-independence", PropertyConfig(seed=42))
        assert report.violations >= 45

    def test_loose_solves_are_violations(self, monkeypatch):
        original = propsuite.conditional_entropy_optimize

        def loose(state, f, opts=None, cond="B"):
            return original(state, f, OptimizerOptions(value_tol=1e-2), cond)

        monkeypatch.setattr(propsuite, "conditional_entropy_optimize", loose)
        report = run_property("extension-independence", PropertyConfig(seed=42))
        assert report.violations >= 40


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

    def test_unknown_property_rejected_before_any_check_runs(self, monkeypatch):
        ran = []
        spec = dataclasses.replace(
            REGISTRY["homogeneity"], check=staged(lambda trial: ran.append(trial))
        )
        monkeypatch.setitem(REGISTRY, "counted", spec)
        with pytest.raises(DomainError, match="'bogus'"):
            run_suite(PropertyConfig(seed=1), properties=["counted", "bogus"])
        assert ran == []

    def test_registry_has_fifteen_properties(self):
        assert len(REGISTRY) == 15

    @pytest.mark.parametrize("pid", sorted(REGISTRY))
    def test_every_check_is_a_generator_function(self, pid):
        assert inspect.isgeneratorfunction(REGISTRY[pid].check)

    def test_numpy_random_loads_before_the_clock_starts(self):
        # the first generator imports numpy.random; that cost must not land in the first row
        probe = (
            "import sys, time, types, qfdiv.propsuite as p\n"
            "seen = []\n"
            "def clock():\n"
            "    seen.append('numpy.random' in sys.modules)\n"
            "    return time.perf_counter()\n"
            "p.time = types.SimpleNamespace(perf_counter=clock)\n"
            "p.run_property('homogeneity', p.PropertyConfig(trials=1))\n"
            "print(seen[0])"
        )
        assert in_fresh_interpreter(probe) == "True"

    def test_errors_become_failed_reports(self, monkeypatch):
        broken = _PropertySpec(
            check=staged(lambda trial: [][1] if trial.t % 2 else [0.0, 1.0]),  # odd trials raise
            trials=4,
            dims=(2,),
            alphas=(1.0,),
            tolerance=1e-9,
            statement="broken on odd trials",
        )
        monkeypatch.setitem(REGISTRY, "broken", broken)
        reports = run_suite(PropertyConfig(seed=3), properties=["broken"])
        assert len(reports) == 1
        assert not reports[0].passed
        # two margins from each of trials 0 and 2, one NaN from each of trials 1 and 3
        assert reports[0].trials == 6
        assert reports[0].violations == 2
        assert math.isnan(reports[0].worst_margin)

    def test_failed_report_keeps_registry_tolerance(self, monkeypatch):
        broken = _PropertySpec(
            check=staged(lambda trial: [][1]),  # raises IndexError
            trials=1,
            dims=(2,),
            alphas=(1.0,),
            tolerance=1e-9,
            statement="always broken",
        )
        monkeypatch.setitem(REGISTRY, "broken", broken)
        assert run_suite(PropertyConfig(seed=3), ["broken"])[0].tolerance == 1e-9

    def test_nan_margin_is_a_violation(self, monkeypatch):
        spec = _PropertySpec(
            check=staged(lambda trial: [0.0, math.inf - math.inf, 1.0]),
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
            check=staged(lambda trial: []),
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
        def uncertified(*args, **kwargs):
            raise ConvergenceError("no start certified")

        monkeypatch.setattr(propsuite, "conditional_entropy_optimize", uncertified)
        report = run_property(pid, PropertyConfig(trials=1, seed=4))
        assert not report.passed
        assert report.violations == 1

    @pytest.mark.parametrize(
        "pid", ["mixture-exact", "extension-independence", "closed-form-vs-optimizer"]
    )
    def test_solves_take_the_row_tolerance(self, pid, monkeypatch):
        tols = []
        original = propsuite.conditional_entropy_optimize

        def spied(state, f, opts=None, cond="B"):
            tols.append(None if opts is None else opts.value_tol)
            return original(state, f, opts, cond)

        monkeypatch.setattr(propsuite, "conditional_entropy_optimize", spied)
        assert run_property(pid, PropertyConfig(trials=3, seed=4)).passed
        assert tols == [REGISTRY[pid].tolerance] * 3

    def test_raised_solve_costs_one_trial(self, monkeypatch, caplog):
        pid, k = "closed-form-vs-optimizer", 2
        original = propsuite.conditional_entropy_optimize
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == k + 1:  # one solve per trial: this is trial k
                raise ConvergenceError("no start certified")
            return original(*args, **kwargs)

        clean = run_suite(PropertyConfig(seed=42), [pid])[0]
        monkeypatch.setattr(propsuite, "conditional_entropy_optimize", fails_once)
        with caplog.at_level(logging.ERROR, logger="qfdiv.propsuite"):
            report = run_suite(PropertyConfig(seed=42), [pid])[0]
        assert clean.passed and clean.trials == REGISTRY[pid].trials
        assert report.trials == clean.trials
        assert report.violations == 1
        assert math.isnan(report.worst_margin)
        (record,) = caplog.records
        assert record.args == (pid, k, derive_seed(42, pid))
        assert record.exc_info[0] is ConvergenceError

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

    @pytest.mark.parametrize(
        "margin, shown", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (-0.25, -0.25)]
    )
    def test_fields_in_order_with_non_finite_margins_as_strings(self, margin, shown):
        from qfdiv.propsuite import PropertyReport

        d = PropertyReport("x", 3, 1, margin, 1e-9, 7, 12).to_dict()
        assert list(d.items()) == [
            ("property_id", "x"),
            ("trials", 3),
            ("violations", 1),
            ("worst_margin", shown),
            ("tolerance", 1e-9),
            ("seed", 7),
            ("elapsed_ms", 12),
        ]
        json.dumps(d, allow_nan=False)


class TestSeedDerivation:
    def test_stable_values(self):
        # frozen: SHA-256 of little-endian seed plus the id must never change
        assert derive_seed(42, "dpi") == derive_seed(42, "dpi")
        assert derive_seed(42, "dpi") != derive_seed(42, "thm2-bounds")
        assert derive_seed(42, "dpi") != derive_seed(43, "dpi")

