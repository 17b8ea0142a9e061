import math
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from qfdiv import channels, fdiv, linalg
from qfdiv.errors import DomainError
from qfdiv.fdiv import (
    INF,
    DivergenceFunction,
    csiszar_divergence,
    make_tsallis_f,
    quantum_f_divergence,
    quantum_f_divergence_eps_sweep,
    tsallis_divergence_closed,
    vn_relative_entropy_closed,
)
from qfdiv.linalg import psd_eigh, psd_eigh_pair

from conftest import in_fresh_interpreter

KL_HALF_QUARTER = 0.5 * math.log(4.0 / 3.0)  # D_1((1/2,1/2) || (1/4,3/4))

PLUS = np.full((2, 2), 0.5)
KET0 = np.diag([1.0, 0.0])
KET1 = np.diag([0.0, 1.0])


def conditioned_pair(d, rank, seed):
    """Random pair with a full-support, well-conditioned second argument."""
    a = channels.random_density(d, rank, seed).entries
    b = channels.random_density(d, d, seed + 7919).entries
    return a, 0.9 * b + 0.1 * np.eye(d) / d


class TestCatalog:
    def test_quadratic_value(self):
        f2 = make_tsallis_f(2.0)
        assert float(f2(3.0)) == pytest.approx(6.0)

    def test_ell_below_one(self):
        assert make_tsallis_f(0.5).ell == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_normalization_point(self, alpha):
        f = make_tsallis_f(alpha)
        assert float(f(1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_ell_above_one_is_infinite(self):
        assert make_tsallis_f(1.5).ell == INF
        assert make_tsallis_f(1.0).ell == INF

    def test_operator_convex_range(self):
        assert make_tsallis_f(2.0).operator_convex
        assert make_tsallis_f(0.3).operator_convex
        assert not make_tsallis_f(2.5).operator_convex

    def test_alpha_one_switch(self):
        f = make_tsallis_f(1.0 + 1e-8)
        assert f.name == "kl"
        x = 2.5
        assert float(f(x)) == pytest.approx(x * math.log(x))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            make_tsallis_f(0.0)
        with pytest.raises(DomainError):
            make_tsallis_f(-1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(DomainError, match="positive and finite"):
            make_tsallis_f(alpha)
        with pytest.raises(DomainError, match="positive and finite"):
            tsallis_divergence_closed(KET0, KET1, alpha)

    def test_rejects_negative_infinite_ell(self):
        with pytest.raises(DomainError, match="ell"):
            DivergenceFunction("bad", lambda x: -x * np.log(x), lambda x: x, 0.0, -INF, False)


class TestCsiszar:
    def test_identical_distributions(self):
        f1 = make_tsallis_f(1.0)
        assert csiszar_divergence([0.5, 0.5], [0.5, 0.5], f1) == pytest.approx(0.0)

    def test_kl_value(self):
        f1 = make_tsallis_f(1.0)
        got = csiszar_divergence([0.5, 0.5], [0.25, 0.75], f1)
        assert got == pytest.approx(KL_HALF_QUARTER, abs=1e-12)

    def test_quadratic_value(self):
        # (sum p^2/q - 1) / 1 with p = (1, 0), q = (1/2, 1/2)
        got = csiszar_divergence([1.0, 0.0], [0.5, 0.5], make_tsallis_f(2.0))
        assert got == pytest.approx(1.0)

    def test_zero_q_with_infinite_ell(self):
        assert csiszar_divergence([0.5, 0.5], [1.0, 0.0], make_tsallis_f(1.0)) == INF

    def test_zero_q_with_finite_ell(self):
        # ell(f_0.5) = 2, so the escaping mass contributes p * 2
        fa = make_tsallis_f(0.5)
        got = csiszar_divergence([0.5, 0.5], [1.0, 0.0], fa)
        expected = 1.0 * fa(0.5 / 1.0) + 0.5 * 2.0
        assert got == pytest.approx(float(expected))

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError, match="nonnegative"):
            csiszar_divergence([1.1, -0.1], [0.5, 0.5], make_tsallis_f(1.0))

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError, match="sum to 1"):
            csiszar_divergence([0.5, 0.4], [0.5, 0.5], make_tsallis_f(1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN fails both the sign and the sum test, so finiteness is its own check
        f = make_tsallis_f(0.5)
        with pytest.raises(DomainError, match="p entries must be finite"):
            csiszar_divergence([bad, 1.0], [0.5, 0.5], f)
        with pytest.raises(DomainError, match="q entries must be finite"):
            csiszar_divergence([0.5, 0.5], [bad, 1.0], f)

    @pytest.mark.parametrize("delta", [1e-12, 5e-11, 2e-10, 1e-9])
    def test_kernel_rule_of_the_quantum_route(self, delta):
        # entries either side of RANK_TOL times the largest: the diagonal pair through
        # the spectral route drops the same entries, and an infinite ell or f(0+)
        # counts only a mass above RANK_TOL times the total
        neg_log = DivergenceFunction(
            name="neg-log",
            fn=lambda x: -np.log(x),
            slope=lambda x: 1.0 - np.log(x),
            f_at_zero=INF,
            ell=0.0,
            operator_convex=True,
        )
        near, edge, flat = [1.0 - delta, delta], [1.0, 0.0], [0.5, 0.5]
        for p, q in ((near, edge), (edge, near), (near, flat), (flat, near)):
            for f in (make_tsallis_f(0.5), make_tsallis_f(1.0), make_tsallis_f(2.0), neg_log):
                classical = csiszar_divergence(p, q, f)
                quantum = quantum_f_divergence(np.diag(p), np.diag(q), f)
                assert classical == pytest.approx(quantum, rel=1e-12, abs=1e-24), (p, q, f.name)

    def test_jensen_lower_bound(self):
        gen = np.random.Generator(np.random.Philox(key=9))
        f = make_tsallis_f(1.5)
        for _ in range(100):
            p = gen.random(4) + 1e-3
            q = gen.random(4) + 1e-3
            p /= p.sum()
            q /= q.sum()
            assert csiszar_divergence(p, q, f) >= -1e-12


class TestQuantumDivergence:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_self_divergence_vanishes(self, alpha):
        rho = channels.random_density(3, 2, seed=50).entries
        got = quantum_f_divergence(rho, rho, make_tsallis_f(alpha))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_against_mixed(self):
        got = quantum_f_divergence(PLUS, np.eye(2) / 2, make_tsallis_f(1.0))
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_quadratic_against_mixed(self):
        got = quantum_f_divergence(KET0, np.eye(2) / 2, make_tsallis_f(2.0))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_diverge(self):
        assert quantum_f_divergence(KET0, KET1, make_tsallis_f(2.0)) == INF
        assert quantum_f_divergence(KET0, KET1, make_tsallis_f(1.0)) == INF

    def test_disjoint_supports_finite_below_one(self):
        # ell(f_0.5) = 2 weights the escaping mass: D = (0 - 1)/(-0.5) = 2
        got = quantum_f_divergence(KET0, KET1, make_tsallis_f(0.5))
        assert got == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            quantum_f_divergence(np.eye(2) / 2, np.eye(3) / 3, make_tsallis_f(1.0))

    def test_classical_consistency_with_diagonals(self):
        gen = np.random.Generator(np.random.Philox(key=77))
        for alpha in (0.5, 1.0, 1.5, 2.0):
            f = make_tsallis_f(alpha)
            for t in range(25):
                p = gen.random(4) + 1e-3
                q = gen.random(4) + 1e-3
                if t % 3 == 0:
                    p[0] = 0.0  # exercise the zero-ratio branch
                p /= p.sum()
                q /= q.sum()
                quantum = quantum_f_divergence(np.diag(p), np.diag(q), f)
                classical = csiszar_divergence(p, q, f)
                assert quantum == pytest.approx(classical, abs=1e-10)

    def test_nonnegativity_sample(self):
        for t in range(60):
            d = 2 + t % 3
            rho = channels.random_density(d, 1 + t % d, seed=600 + t).entries
            sig = channels.random_density(d, d, seed=700 + t).entries
            f = make_tsallis_f((0.5, 1.0, 1.5, 2.0)[t % 4])
            assert quantum_f_divergence(rho, sig, f) >= -1e-10

    def test_homogeneity_sample(self):
        f = make_tsallis_f(1.5)
        a, b = conditioned_pair(3, 2, seed=81)
        base = quantum_f_divergence(a, b, f)
        for lam in (0.1, 0.5, 2.0):
            got = quantum_f_divergence(lam * a, lam * b, f)
            assert got == pytest.approx(lam * base, abs=1e-9)

    def test_product_divergence_factorization(self):
        # D(rho_A (x) rho_B || 1 (x) sigma_B) splits into a divergence on B
        # weighted by tr(rho_A**alpha) minus the entropy of rho_A
        from qfdiv.condent import tsallis_entropy

        rho_a = channels.random_density(3, 2, seed=71).entries
        rho_b = channels.random_density(2, 2, seed=72).entries
        sigma_b = channels.random_density(2, 2, seed=73).entries
        for alpha in (0.5, 1.5, 2.0):
            lhs = quantum_f_divergence(
                np.kron(rho_a, rho_b), np.kron(np.eye(3), sigma_b), make_tsallis_f(alpha)
            )
            w_a = np.linalg.eigvalsh(rho_a)
            weight = float(np.sum(w_a[w_a > 1e-12] ** alpha))
            rhs = weight * tsallis_divergence_closed(rho_b, sigma_b, alpha) - tsallis_entropy(
                rho_a, alpha
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_nonzero_limit_at_origin(self):
        # custom convex f with f(0+) = 1/2 exercises the finite zero-ratio branch
        half_square = DivergenceFunction(
            name="half-square",
            fn=lambda x: 0.5 * (x - 1.0) ** 2,
            slope=lambda x: 0.5 * (1.0 - x * x),
            f_at_zero=0.5,
            ell=INF,
            operator_convex=False,
        )
        p = np.array([0.0, 0.4, 0.6])
        q = np.array([0.2, 0.3, 0.5])
        quantum = quantum_f_divergence(np.diag(p), np.diag(q), half_square)
        classical = csiszar_divergence(p, q, half_square)
        assert quantum == pytest.approx(classical, abs=1e-12)
        assert classical == pytest.approx(
            0.2 * 0.5 + 0.3 * 0.5 * (0.4 / 0.3 - 1) ** 2 + 0.5 * 0.5 * (0.6 / 0.5 - 1) ** 2
        )

    def test_orthogonal_additivity_sample(self):
        f = make_tsallis_f(0.5)
        a1, b1 = conditioned_pair(2, 1, seed=91)
        a2, b2 = conditioned_pair(3, 3, seed=92)
        whole = quantum_f_divergence(
            np.block([[a1, np.zeros((2, 3))], [np.zeros((3, 2)), a2]]),
            np.block([[b1, np.zeros((2, 3))], [np.zeros((3, 2)), b2]]),
            f,
        )
        parts = quantum_f_divergence(a1, b1, f) + quantum_f_divergence(a2, b2, f)
        assert whole == pytest.approx(parts, abs=1e-9)


class TestClosedForms:
    def test_identical_states(self):
        rho = channels.random_density(4, 4, seed=101).entries
        assert tsallis_divergence_closed(rho, rho, 2.0) == pytest.approx(0.0, abs=1e-12)
        assert vn_relative_entropy_closed(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_example(self):
        assert tsallis_divergence_closed(KET0, np.eye(2) / 2, 2.0) == pytest.approx(1.0)

    def test_orthogonal_below_one(self):
        assert tsallis_divergence_closed(KET0, KET1, 0.5) == pytest.approx(2.0)

    def test_orthogonal_above_one(self):
        assert tsallis_divergence_closed(KET0, KET1, 1.5) == INF

    def test_vn_plus_state(self):
        got = vn_relative_entropy_closed(PLUS, np.eye(2) / 2)
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_vn_support_violation(self):
        assert vn_relative_entropy_closed(KET0, PLUS) == INF

    def test_alpha_one_delegates(self):
        a, b = conditioned_pair(3, 3, seed=111)
        assert tsallis_divergence_closed(a, b, 1.0 + 1e-9) == pytest.approx(
            vn_relative_entropy_closed(a, b), abs=1e-9
        )

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            tsallis_divergence_closed(KET0, KET1, -0.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
    def test_agrees_with_spectral_engine(self, alpha):
        f = make_tsallis_f(alpha)
        for t in range(40):
            d = 2 + t % 3
            rho = channels.random_density(d, 1 + t % d, seed=900 + t).entries
            sig = channels.random_density(d, 1 + (t + 1) % d, seed=950 + t).entries
            closed = tsallis_divergence_closed(rho, sig, alpha)
            spectral = quantum_f_divergence(rho, sig, f)
            if math.isinf(closed) or math.isinf(spectral):
                assert closed == spectral
            else:
                assert closed == pytest.approx(spectral, abs=1e-9)


class TestEpsSweep:
    def test_identical_states_extrapolate_to_zero(self):
        values, limit = quantum_f_divergence_eps_sweep(
            np.eye(2) / 2, np.eye(2) / 2, make_tsallis_f(2.0)
        )
        assert all(abs(v) < 1e-4 for v in values)
        assert limit == pytest.approx(0.0, abs=1e-10)

    def test_divergent_pair_detected(self):
        values, limit = quantum_f_divergence_eps_sweep(KET0, KET1, make_tsallis_f(2.0))
        assert values[-1] > values[0] > 1.0
        assert limit == INF

    def test_cross_validates_spectral_form(self):
        worst = 0.0
        for t in range(50):
            d = 2 + t % 3
            a, b = conditioned_pair(d, 1 + t % d, seed=1200 + t)
            for alpha in (0.3, 1.0, 1.5, 2.0):
                f = make_tsallis_f(alpha)
                _, limit = quantum_f_divergence_eps_sweep(a, b, f)
                worst = max(worst, abs(limit - quantum_f_divergence(a, b, f)))
        assert worst <= 1e-4

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [1e-14, 1.0, 1e13])
    def test_limit_scales_with_both_arguments(self, lam, alpha):
        # at lam = 1e13 the values (2.11e12, 5.11e12 and 1.78e13) are large but finite
        a, b = np.diag([0.5, 0.5]), np.diag([0.9, 0.1])
        f = make_tsallis_f(alpha)
        unit = quantum_f_divergence_eps_sweep(a, b, f)[1]
        _, limit = quantum_f_divergence_eps_sweep(lam * a, lam * b, f)
        assert limit == pytest.approx(lam * unit, rel=1e-6)

    def test_no_schedule_parameter(self):
        with pytest.raises(TypeError):
            quantum_f_divergence_eps_sweep(
                KET0, KET1, make_tsallis_f(1.0), eps_schedule=(1e-5, 1e-6, 1e-7)
            )

    @pytest.mark.parametrize("rank_b", [1, 3, 4])
    def test_one_eigensolve_per_argument(self, monkeypatch, rank_b):
        # B + c * I shares B's eigenvectors: every eps reuses one pair of spectra
        a = channels.random_density(4, 4, seed=140).entries
        b = channels.random_density(4, rank_b, seed=141).entries
        eigh, spectra = np.linalg.eigh, fdiv._spectra
        calls = {"eigh": 0, "spectra": 0}

        def counted_eigh(m):
            calls["eigh"] += 1
            return eigh(m)

        def counted_spectra(*args):
            calls["spectra"] += 1
            return spectra(*args)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(fdiv, "_spectra", counted_spectra)
        quantum_f_divergence_eps_sweep(a, b, make_tsallis_f(0.5))
        assert calls == {"eigh": 2, "spectra": 1}

    @pytest.mark.parametrize(
        "alpha, expected",
        [(0.5, ([2.0, 2.0, 2.0], 2.0)), (1.0, ([INF] * 3, INF)), (2.0, ([INF] * 3, INF))],
    )
    def test_zero_second_argument(self, alpha, expected):
        # tr B = 0 leaves B's kernel unshifted: all of A's mass is kernel mass
        a = channels.random_density(3, 3, seed=142).entries
        assert quantum_f_divergence_eps_sweep(a, np.zeros((3, 3)), make_tsallis_f(alpha)) == expected

    def test_kernel_mass_within_tolerance_stays_finite(self):
        # sin^2 t = 3e-11 of A's mass lies on ker B, below RANK_TOL * tr A: the spectral
        # route counts it as zero, and so does the sweep, whose sums leave B's kernel
        # out instead of growing like 3e-11 / eps
        s2 = 3e-11
        psi = np.array([math.sqrt(1.0 - s2), math.sqrt(s2)])
        a, b = np.outer(psi, psi), np.diag([1.0, 0.0])
        f = make_tsallis_f(2.0)
        assert quantum_f_divergence(a, b, f) == 0.0
        values, limit = quantum_f_divergence_eps_sweep(a, b, f)
        assert all(math.isfinite(v) for v in values)
        assert limit == pytest.approx(quantum_f_divergence(a, b, f), abs=1e-4)

    def test_infinite_value_at_zero_gives_infinite_limit(self):
        # f = -log x has f(0+) = inf: B's mass on the kernel of A makes the last
        # regularized value, and so the limit, infinite
        neg_log = DivergenceFunction(
            name="neg-log",
            fn=lambda x: -np.log(x),
            slope=lambda x: 1.0 - np.log(x),
            f_at_zero=INF,
            ell=0.0,
            operator_convex=True,
        )
        assert quantum_f_divergence(KET0, np.eye(2) / 2, neg_log) == INF
        values, limit = quantum_f_divergence_eps_sweep(KET0, np.eye(2) / 2, neg_log)
        assert values[-1] == INF
        assert limit == INF

    def test_checks_second_argument_as_spectral_route(self):
        # -5e-8 lies 500 times past -RANK_TOL * ||B||; the shift alone would hide it
        a, b = np.eye(2) / 2, np.diag([1.0, -5e-8])
        f = make_tsallis_f(0.5)
        with pytest.raises(DomainError, match="semi-definiteness"):
            quantum_f_divergence(a, b, f)
        with pytest.raises(DomainError, match="semi-definiteness"):
            quantum_f_divergence_eps_sweep(a, b, f)


def all_routes(a, b, alpha):
    """The spectral sum, the closed form and the epsilon-sweep limit for one pair."""
    f = make_tsallis_f(alpha)
    closed = (
        vn_relative_entropy_closed(a, b) if alpha == 1.0 else tsallis_divergence_closed(a, b, alpha)
    )
    return quantum_f_divergence(a, b, f), closed, quantum_f_divergence_eps_sweep(a, b, f)[1]


class TestKernelRule:
    """Every route clamps the kernel first and compares masses relative to the traces."""

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_small_eigenvalue_is_not_merged_into_the_kernel(self, alpha):
        # B's 1e-9 eigenvalue is support, not kernel; A has mass 1/3 on B's kernel
        a = np.eye(3) / 3
        b = np.diag([1.0 - 1e-9, 1e-9, 0.0])
        assert all_routes(a, b, alpha) == (INF, INF, INF)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("lam", [1.0, 1e-9, 1e-12])
    def test_support_violation_at_any_scale(self, lam, alpha):
        a = lam * np.eye(2) / 2
        b = lam * np.diag([1.0, 0.0])
        assert all_routes(a, b, alpha) == (INF, INF, INF)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @pytest.mark.parametrize("lam", [1e-9, 1e-12])
    def test_finite_ell_scales_with_both_arguments(self, lam, alpha):
        a = np.eye(2) / 2
        b = np.diag([1.0, 0.0])
        base = all_routes(a, b, alpha)
        scaled = all_routes(lam * a, lam * b, alpha)
        for got, want in zip(scaled, base):
            assert got == pytest.approx(lam * want, rel=1e-9)
        # on a rank-deficient B the sweep's tail decays like eps**(1 - alpha)
        assert base[0] == pytest.approx(base[1], rel=1e-12)
        assert base[2] == pytest.approx(base[0], abs=1e-4)

    @pytest.mark.parametrize("lam", [1e-9, 1e-12])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_homogeneity_at_tiny_scale(self, lam, alpha):
        # eigenvalues of lam * A lie within 1e-8 of each other; none may merge
        f = make_tsallis_f(alpha)
        for seed in (81, 82, 83):
            a, b = conditioned_pair(3, 2, seed=seed)
            base = quantum_f_divergence(a, b, f)
            got = quantum_f_divergence(lam * a, lam * b, f)
            assert got == pytest.approx(lam * base, rel=1e-9)

    def test_kernel_mass_inside_tolerance_is_dropped(self):
        # A's mass on B's kernel is 1e-12 of tr A: inside RANK_TOL, so 0 * inf = 0
        a = np.diag([1.0 - 1e-12, 1e-12]) * 1e-6
        b = np.diag([1.0, 0.0]) * 1e-6
        for alpha in (1.0, 1.5):
            spectral, closed, _ = all_routes(a, b, alpha)
            assert math.isfinite(spectral) and math.isfinite(closed)
            assert spectral == pytest.approx(closed, abs=1e-15)

    def test_degenerate_eigenspaces_need_no_merging(self):
        # a rotation inside B's degenerate eigenspace leaves the sum unchanged
        a = channels.random_density(4, 3, seed=131).entries
        u = np.eye(4, dtype=complex)
        u[:2, :2] = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
        b = np.diag([0.3, 0.3, 0.4, 0.0])
        for alpha in (0.5, 1.5):
            f = make_tsallis_f(alpha)
            plain = quantum_f_divergence(a, b, f)
            rotated = quantum_f_divergence(a, u @ b @ u.conj().T, f)
            assert rotated == pytest.approx(plain, rel=1e-12)

    def test_no_cluster_tolerance_parameter(self):
        with pytest.raises(TypeError):
            quantum_f_divergence(KET0, KET0, make_tsallis_f(1.0), cluster_tol=1e-8)
        with pytest.raises(TypeError):
            quantum_f_divergence_eps_sweep(KET0, KET0, make_tsallis_f(1.0), cluster_tol=1e-8)


class TestEpsSweepDivergence:
    """Regularized values may grow only like log(1/eps) or a power of it."""

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_slow_growth_is_still_divergent(self, alpha):
        a = np.eye(2) / 2
        values, limit = quantum_f_divergence_eps_sweep(a, KET0, make_tsallis_f(alpha))
        assert values[-1] < 10.0 * values[-2]  # slow growth: only the kernel-mass test sees it
        assert limit == INF

    def test_finite_ell_keeps_the_extrapolation(self):
        values, limit = quantum_f_divergence_eps_sweep(np.eye(2) / 2, KET0, make_tsallis_f(0.5))
        assert all(math.isfinite(v) for v in values)
        assert limit == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-4)


def spectral_pair(d, rank_b, seed):
    """Raw entries of a full-rank A and a rank-``rank_b`` B of dimension ``d``."""
    a = channels.random_density(d, d, seed).entries
    return a, channels.random_density(d, rank_b, seed + 1).entries


def every_route(a, b):
    """Each divergence route at alpha 0.5 and 1: spectral sum, epsilon sweep, both closed forms."""
    return [
        quantum_f_divergence(a, b, make_tsallis_f(0.5)),
        quantum_f_divergence(a, b, make_tsallis_f(1.0)),
        quantum_f_divergence_eps_sweep(a, b, make_tsallis_f(0.5)),
        tsallis_divergence_closed(a, b, 0.5),
        vn_relative_entropy_closed(a, b),
    ]


@pytest.fixture
def two_cpus(monkeypatch):
    """Take the two-thread path from ``_CONCURRENT_MIN_DIM`` on, whatever the machine has."""
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)


def sequential(fn, *args):
    """``fn(*args)`` with both eigensolves of every pair on the calling thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_usable_cpus", lambda: 1)
        return fn(*args)


def divergence_36(seed):
    a, b = spectral_pair(36, 36, seed)
    return quantum_f_divergence(a, b, make_tsallis_f(0.5))


class TestConcurrentEigensolves:
    """From ``_CONCURRENT_MIN_DIM`` on, B's eigensolve runs on a worker thread, with the same bits."""

    @pytest.mark.parametrize("d", [16, 24, 36, 64])
    def test_pair_is_two_psd_eigh_calls_bit_for_bit(self, two_cpus, monkeypatch, d):
        a, b = spectral_pair(d, d // 3, 200 + d)
        eigh, on_main = np.linalg.eigh, {}

        def recorded_eigh(m):
            on_main["A" if m is a else "B"] = threading.current_thread() is threading.main_thread()
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        got = psd_eigh_pair(a, b)
        # A on the calling thread; B on the worker exactly when d reaches the threshold
        assert on_main == {"A": True, "B": d < linalg._CONCURRENT_MIN_DIM}
        for (w, v), (w_ref, v_ref) in zip(got, (psd_eigh(a), psd_eigh(b))):
            assert w.tobytes() == w_ref.tobytes()
            assert v.tobytes() == v_ref.tobytes()

    @pytest.mark.parametrize("d", [16, 24, 36, 64])
    @pytest.mark.parametrize("rank_b", ["full", "deficient"])
    def test_every_route_keeps_its_bits(self, two_cpus, d, rank_b):
        a, b = spectral_pair(d, d if rank_b == "full" else d // 2, 300 + d)
        assert repr(every_route(a, b)) == repr(sequential(every_route, a, b))

    @pytest.mark.parametrize("d", [16, 36])
    def test_errors_of_a_come_first(self, two_cpus, d):
        a, b = np.diag([1.0] * (d - 1) + [-0.25]), np.diag([1.0] * (d - 1) + [-0.5])
        with pytest.raises(DomainError, match="-2.500e-01"):
            quantum_f_divergence(a, b, make_tsallis_f(0.5))
        with pytest.raises(DomainError, match="-5.000e-01"):
            quantum_f_divergence(np.eye(d) / d, b, make_tsallis_f(0.5))

    def test_an_error_waits_for_the_worker(self, two_cpus, monkeypatch):
        # A's solve raises at once; B's is still running and must finish first
        eigh, finished = np.linalg.eigh, []

        def slow_eigh(m):
            if threading.current_thread() is threading.main_thread():
                raise np.linalg.LinAlgError("A's solve failed")
            time.sleep(0.2)
            finished.append(True)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", slow_eigh)
        a, b = spectral_pair(36, 36, 400)
        with pytest.raises(np.linalg.LinAlgError, match="A's solve"):
            psd_eigh_pair(a, b)
        assert finished == [True]

    def test_more_callers_than_cores(self, two_cpus):
        seeds = range(500, 506)
        want = {s: sequential(divergence_36, s) for s in seeds}
        got, errors = [], []

        def caller():
            try:
                for _ in range(3):
                    got.extend((s, divergence_36(s)) for s in seeds)
            except BaseException as exc:  # reported below, on the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(got) == 4 * 3 * len(seeds)
        assert all(value == want[s] for s, value in got)

    # forking a process that has threads is the case under test; Python 3.12 warns of it
    @pytest.mark.filterwarnings("ignore:This process .* use of fork:DeprecationWarning")
    def test_forked_child_gets_its_own_worker(self, two_cpus):
        want = divergence_36(600)  # the parent's worker exists before the fork
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(divergence_36(600)))
        child.start()
        try:
            assert results.get(timeout=10) == want
            child.join(timeout=10)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert child.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_usable_cpu_starts_no_thread(self):
        probe = (
            "import os, threading, qfdiv\n"
            "from qfdiv.channels import random_density\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "a, b = random_density(36, 36, 700).entries, random_density(36, 36, 701).entries\n"
            "print(repr(qfdiv.quantum_f_divergence(a, b, qfdiv.make_tsallis_f(0.5))))\n"
            "print(threading.active_count())\n"
        )
        out = in_fresh_interpreter(probe).split()
        a, b = spectral_pair(36, 36, 700)
        want = sequential(quantum_f_divergence, a, b, make_tsallis_f(0.5))
        assert out == [repr(want), "1"]
