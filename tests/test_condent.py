import math

import numpy as np
import pytest

from qfdiv.channels import (
    build_classical_register_state,
    embed_ancilla,
    pure_bipartite_from_schmidt,
    random_density,
)
import qfdiv.condent as condent
from qfdiv import _lapack, rng
from qfdiv.condent import (
    BipartiteState,
    OptimizerOptions,
    alpha_log,
    chain_rule_rhs,
    classical_register_closed_form,
    conditional_entropy_optimize,
    conditional_entropy_tsallis_closed,
    pure_state_bounds_tsallis,
    thm2_bounds,
    tsallis_entropy,
)
from qfdiv.errors import ConvergenceError, DomainError, PreconditionError
from qfdiv.fdiv import DivergenceFunction, make_tsallis_f, quantum_f_divergence
from qfdiv.linalg import DensityOperator, partial_trace
from qfdiv.propsuite import derive_seed

from conftest import bell_matrix, random_hermitian, support_projector

LN2 = math.log(2.0)


def random_bipartite(dims, rank, seed):
    return BipartiteState(random_density(int(np.prod(dims)), rank, seed), dims)


def mix_function():
    """A non-catalog operator-convex mix of the alpha = 0.5 and alpha = 2 functions."""
    f_half = make_tsallis_f(0.5)
    f_two = make_tsallis_f(2.0)
    return DivergenceFunction(
        name="mix",
        fn=lambda x: 0.5 * (f_half.fn(x) + f_two.fn(x)),
        slope=lambda x: 0.5 * (f_half.slope(x) + f_two.slope(x)),
        f_at_zero=0.0,
        ell=math.inf,
        operator_convex=True,
    )


def objective_for(state, f):
    return condent._Objective(state, "B", f)


def face_start(objective):
    theta = np.zeros(objective.n_params)
    theta[0] = -800.0  # sigma's first eigenvalue underflows to 0
    return theta


def gap_at(objective, theta):
    """The exact Frank-Wolfe gap at sigma(theta) itself, without polishing."""
    point = objective.evaluate(theta)
    return condent._fw_gap(point.gt, point.g_mean)


def certify_exact(objective, point, tol):
    """``certify`` given the point's exact gap, which holds at every ``tol``."""
    return objective.certify(point, condent._fw_gap(point.gt, point.g_mean), tol)


def fd_gradient(objective, theta, step=1e-6):
    """Central finite differences of the objective value, one parameter at a time."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        up = objective.evaluate(theta + e).value
        down = objective.evaluate(theta - e).value
        grad[i] = (up - down) / (2.0 * step)
    return grad


class TestAlphaLog:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7, 2.0])
    def test_vanishes_at_one(self, alpha):
        assert alpha_log(1.0, alpha) == pytest.approx(0.0)

    def test_quadratic_value(self):
        assert alpha_log(0.5, 2.0) == pytest.approx(-1.0)

    def test_limit_toward_one(self):
        assert alpha_log(math.e, 1.000001) == pytest.approx(1.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_log(0.0, 2.0)
        with pytest.raises(DomainError):
            alpha_log(1.0, -1.0)


class TestTsallisEntropy:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_pure_state_vanishes(self, alpha):
        rho = random_density(3, 1, seed=1)
        assert tsallis_entropy(rho, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_mixed_quadratic(self):
        assert tsallis_entropy(np.eye(2) / 2, 2.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_maximally_mixed_hits_alpha_log(self, d, alpha):
        got = tsallis_entropy(np.eye(d) / d, alpha)
        assert got == pytest.approx(alpha_log(float(d), alpha), abs=1e-12)

    def test_nonnegative(self):
        for t in range(30):
            rho = random_density(4, 1 + t % 4, seed=100 + t)
            assert tsallis_entropy(rho, 0.5 + 0.5 * (t % 4)) >= -1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_accepts_a_factored_state(self, alpha):
        state = random_bipartite((2, 2), 3, seed=130)
        assert tsallis_entropy(state, alpha) == tsallis_entropy(state.entries, alpha)


class TestBipartiteState:
    def test_dims_must_factor_dimension(self):
        with pytest.raises(DomainError, match="dimension mismatch"):
            BipartiteState(np.eye(4) / 4, (2, 3))

    def test_requires_normalization(self):
        with pytest.raises(DomainError, match="normalized"):
            BipartiteState(np.eye(4) / 8, (2, 2))

    def test_raw_input_is_checked_for_positivity(self):
        with pytest.raises(DomainError, match="semi-definiteness"):
            BipartiteState(np.diag([1.0, 0.5, 0.0, -0.5]), (2, 2))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_divergence_engine_accepts_a_state(self, bell_state, alpha):
        f = make_tsallis_f(alpha)
        value = quantum_f_divergence(bell_state, bell_state, f)
        assert value == quantum_f_divergence(bell_state.entries, bell_state.entries, f)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_three_factors(self):
        state = random_bipartite((2, 2, 2), 3, seed=2)
        assert state.dims == (2, 2, 2)


class TestGoldenValues:
    def test_bell_closed_form(self, bell_state):
        value, sigma = conditional_entropy_tsallis_closed(bell_state, 2.0)
        assert value == pytest.approx(-1.0, abs=1e-9)
        np.testing.assert_allclose(DensityOperator(sigma).entries, np.eye(2) / 2, atol=1e-9)

    def test_bell_optimizer(self, bell_state):
        report = conditional_entropy_optimize(bell_state, make_tsallis_f(2.0))
        assert report.converged
        assert report.value == pytest.approx(-1.0, abs=1e-9)

    def test_bell_log_family(self, bell_state):
        value, _ = conditional_entropy_tsallis_closed(bell_state, 1.0)
        assert value == pytest.approx(-LN2, abs=1e-12)
        report = conditional_entropy_optimize(bell_state, make_tsallis_f(1.0))
        assert report.value == pytest.approx(-LN2, abs=1e-8)

    def test_product_state_quadratic(self):
        sigma_b = random_density(3, 3, seed=3)
        state = BipartiteState(np.kron(np.eye(2) / 2, sigma_b.entries), (2, 3))
        value, _ = conditional_entropy_tsallis_closed(state, 2.0)
        assert value == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (3, 2), (4, 3)])
    def test_maximally_mixed_quadratic(self, d_a, d_b):
        d = d_a * d_b
        state = BipartiteState(np.eye(d) / d, (d_a, d_b))
        value, _ = conditional_entropy_tsallis_closed(state, 2.0)
        assert value == pytest.approx(1.0 - 1.0 / d_a, abs=1e-10)

    def test_pure_state_is_minus_marginal_entropy(self):
        # |AB><AB| conditioned on B gives -H(rho_B)
        coeffs = np.sqrt([0.6, 0.3, 0.1])
        state = pure_bipartite_from_schmidt(coeffs, 3, 3, seed=4)
        rho_b = partial_trace(state, "B")
        assert conditional_entropy_tsallis_closed(state, 1.0)[0] == pytest.approx(
            -tsallis_entropy(rho_b, 1.0), abs=1e-10
        )


class TestProductIdentity:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
    def test_product_reduces_to_first_factor(self, alpha):
        rho_a = random_density(3, 2, seed=5)
        rho_b = random_density(2, 2, seed=6)
        state = BipartiteState(np.kron(rho_a.entries, rho_b.entries), (3, 2))
        value, sigma = conditional_entropy_tsallis_closed(state, alpha)
        assert value == pytest.approx(tsallis_entropy(rho_a, alpha), abs=1e-10)
        if alpha != 1.0:
            # the optimizing state of a product is the conditioning marginal
            np.testing.assert_allclose(DensityOperator(sigma).entries, rho_b.entries, atol=1e-8)

    def test_far_below_one(self):
        # the reduced power's spectrum is about 4 here, and its 1000th power overflows unscaled
        rho_a = random_density(4, 4, seed=5)
        rho_b = random_density(2, 2, seed=6)
        state = BipartiteState(np.kron(rho_a.entries, rho_b.entries), (4, 2))
        value, sigma = conditional_entropy_tsallis_closed(state, 0.001)
        assert value == pytest.approx(tsallis_entropy(rho_a, 0.001), abs=1e-12)
        np.testing.assert_allclose(sigma, rho_b.entries, atol=1e-10)


class TestOptimizer:
    def test_agrees_with_closed_form(self):
        for t, alpha in enumerate((0.3, 0.5, 1.5, 2.0)):
            state = random_bipartite((2, 3), 1 + t % 6, seed=700 + t)
            closed, _ = conditional_entropy_tsallis_closed(state, alpha)
            report = conditional_entropy_optimize(state, make_tsallis_f(alpha))
            assert report.converged
            assert report.value == pytest.approx(closed, abs=1e-6)

    def test_report_shape(self, monkeypatch):
        # a start 0 forced onto a face cannot certify, so the real start 1 runs too
        real = condent._start_points
        monkeypatch.setattr(
            condent,
            "_start_points",
            lambda obj, opts: [face_start(obj)] + real(obj, opts)[1:],
        )
        state = random_bipartite((2, 2), 3, seed=8)
        opts = OptimizerOptions(starts=2)
        report = conditional_entropy_optimize(state, make_tsallis_f(2.0), opts)
        assert len(report.iterations_per_start) == 2
        assert report.gap <= opts.value_tol
        assert DensityOperator(report.sigma_star).trace_value == pytest.approx(1.0, abs=1e-9)

    def test_later_start_runs_only_when_earlier_cannot_certify(self, monkeypatch):
        # at alpha = 2 the face start's value and gap are inf, which no polish lowers
        state = random_bipartite((2, 3), 6, seed=47)
        monkeypatch.setattr(
            condent,
            "_start_points",
            lambda obj, opts: [face_start(obj)] + [np.zeros(obj.n_params)] * 3,
        )
        report = conditional_entropy_optimize(state, make_tsallis_f(2.0))
        assert report.iterations_per_start[0] == 0
        assert len(report.iterations_per_start) == 2
        assert report.gap <= OptimizerOptions().value_tol

    def test_sigma_star_supported_on_reduced_state(self):
        # padding makes the conditioning marginal rank deficient
        state = embed_ancilla(random_bipartite((2, 2), 2, seed=9), 2)
        report = conditional_entropy_optimize(state, make_tsallis_f(2.0))
        p = support_projector(partial_trace(state, "B"))
        sigma = DensityOperator(report.sigma_star).entries
        assert np.abs(p @ sigma @ p - sigma).max() <= 1e-8

    def test_rank_one_marginal(self):
        # the support projector is the only feasible point: start 0 stops at once, certified
        state = pure_bipartite_from_schmidt([1.0], 2, 3, seed=10)
        report = conditional_entropy_optimize(state, make_tsallis_f(2.0))
        assert report.converged
        assert report.value == pytest.approx(0.0, abs=1e-10)
        assert report.iterations_per_start == (0,)
        assert report.gap == 0.0
        p = support_projector(partial_trace(state, "B"))
        np.testing.assert_allclose(DensityOperator(report.sigma_star).entries, p, atol=1e-12)

    def test_sigma_star_is_an_array(self):
        state = random_bipartite((2, 2), 3, seed=8)
        sigma = conditional_entropy_optimize(state, make_tsallis_f(2.0)).sigma_star
        assert type(sigma) is np.ndarray
        np.testing.assert_array_equal(sigma, sigma.conj().T)

    def test_second_start_is_the_conditioning_marginal(self):
        # padding makes the marginal rank deficient: the start lives on its support
        state = embed_ancilla(random_bipartite((2, 3), 4, seed=20), 1)
        objective = objective_for(state, make_tsallis_f(2.0))
        theta = list(condent._start_points(objective, OptimizerOptions(starts=2)))[1]
        sigma = certify_exact(objective, objective.evaluate(theta), math.inf)[1]
        np.testing.assert_allclose(sigma, partial_trace(state, "B").entries, atol=1e-12)

    def test_generic_function_between_bounds(self):
        # a non-catalog operator-convex mix exercises the fully generic path
        f_half = make_tsallis_f(0.5)
        f_two = make_tsallis_f(2.0)
        mix = mix_function()
        state = random_bipartite((2, 2), 3, seed=11)
        report = conditional_entropy_optimize(state, mix)
        assert report.converged
        lower, upper = thm2_bounds(state, mix)
        assert lower - 1e-9 <= report.value <= upper + 1e-9
        half = conditional_entropy_optimize(state, f_half).value
        two = conditional_entropy_optimize(state, f_two).value
        assert report.value <= 0.5 * (half + two) + 1e-8

    def test_rejects_nonzero_at_origin(self):
        shifted = DivergenceFunction(
            name="shifted",
            fn=lambda x: (x - 1.0) ** 2,
            slope=lambda x: 1.0 - x * x,
            f_at_zero=1.0,
            ell=math.inf,
            operator_convex=True,
        )
        state = random_bipartite((2, 2), 2, seed=12)
        with pytest.raises(PreconditionError, match="f\\(0\\)"):
            conditional_entropy_optimize(state, shifted)

    def test_rejects_non_operator_convex(self):
        state = random_bipartite((2, 2), 2, seed=13)
        with pytest.raises(PreconditionError, match="operator convex"):
            conditional_entropy_optimize(state, make_tsallis_f(2.5))

    def test_rejects_zero_starts(self):
        state = random_bipartite((2, 2), 2, seed=14)
        with pytest.raises(DomainError):
            conditional_entropy_optimize(state, make_tsallis_f(2.0), OptimizerOptions(starts=0))

    def test_starved_iterations_raise_with_diagnostics(self):
        from qfdiv.errors import ConvergenceError

        state = random_bipartite((3, 3), 6, seed=303)
        opts = OptimizerOptions(max_iters=1, starts=2)
        with pytest.raises(ConvergenceError, match="start 0: gap .* after 1 iterations, max_iters"):
            conditional_entropy_optimize(state, make_tsallis_f(2.0), opts)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_monte_carlo_scan_cannot_beat_optimizer(self, alpha):
        # independent route: draw feasible sigmas directly and evaluate the
        # divergence with the general engine; none may do better, and the
        # best draw must land near the reported optimum
        state = random_bipartite((2, 2), 3, seed=23)
        f = make_tsallis_f(alpha)
        report = conditional_entropy_optimize(state, f)
        gen = np.random.Generator(np.random.Philox(key=2023))
        best = -math.inf
        for _ in range(2000):
            g = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
            sigma = g @ g.conj().T
            sigma /= np.trace(sigma).real
            candidate = -quantum_f_divergence(state.entries, np.kron(np.eye(2), sigma), f)
            best = max(best, candidate)
        assert report.value >= best - 1e-9
        assert report.value <= best + 5e-2

    def test_log_family_optimizer_matches_entropy_difference(self):
        f1 = make_tsallis_f(1.0)
        for t in range(6):
            dims = (2, 2) if t % 2 else (2, 3)
            state = random_bipartite(dims, 1 + t % (dims[0] * dims[1]), seed=650 + t)
            direct = conditional_entropy_optimize(state, f1).value
            closed, _ = conditional_entropy_tsallis_closed(state, 1.0)
            assert direct == pytest.approx(closed, abs=1e-6)

    def test_scaled_optimum_is_monotone_in_mu(self):
        # the divergence against 1 (x) mu * sigma_star decreases toward mu = 1
        state = random_bipartite((2, 3), 4, seed=15)
        f = make_tsallis_f(1.5)
        report = conditional_entropy_optimize(state, f)
        values = [
            quantum_f_divergence(
                state.entries, np.kron(np.eye(2), mu * report.sigma_star), f
            )
            for mu in (0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))


GRADIENT_FUNCTIONS = [make_tsallis_f(a) for a in (0.3, 0.5, 1.0, 1.5, 2.0)] + [mix_function()]


def function_id(f):
    """A test id: the name of ``f``, and ``kl`` for the power family at alpha = 1."""
    return "kl" if f.name == "tsallis-1" else f.name


class TestOptimizerOptions:
    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"starts": -3}, "starts must be 1 or 2"),
            ({"value_tol": math.nan}, "value_tol"),
            ({"value_tol": math.inf}, "value_tol"),
            ({"value_tol": 0.0}, "value_tol"),
            ({"value_tol": -1e-6}, "value_tol"),
            ({"max_iters": -1}, "max_iters"),
            # counts must be integers: a float used to fail only inside the descent
            ({"max_iters": 10.0}, "max_iters"),
            ({"max_iters": math.inf}, "max_iters"),
            ({"starts": 2.5}, "starts"),
            # a bool is an int to Python, but not a count
            ({"starts": True}, "starts"),
            ({"max_iters": False}, "max_iters"),
            # a solve has two deterministic starts, and no third
            ({"starts": 0}, "starts must be 1 or 2, got 0"),
            ({"starts": 3}, "starts must be 1 or 2, got 3"),
            ({"starts": 4}, "starts must be 1 or 2, got 4"),
        ],
    )
    def test_rejects_invalid_values(self, kwargs, named):
        with pytest.raises(DomainError, match=named):
            OptimizerOptions(**kwargs)

    def test_accepts_numpy_integers(self):
        opts = OptimizerOptions(starts=np.int64(2), max_iters=np.int32(3))
        report = conditional_entropy_optimize(
            random_bipartite((2, 2), 4, seed=5), make_tsallis_f(0.5), opts
        )
        assert report.gap <= opts.value_tol

    def test_a_zero_iteration_solve_certifies_a_product_state(self):
        # I/4 = (I/2) (x) (I/2): start 0 is the minimizer, certified with no descent step
        state = BipartiteState(np.eye(4) / 4, (2, 2))
        opts = OptimizerOptions(starts=1, max_iters=0)
        report = conditional_entropy_optimize(state, make_tsallis_f(0.5), opts)
        assert report.iterations_per_start == (0,)
        assert report.gap <= 1e-6


class TestSlope:
    @pytest.mark.parametrize("f", GRADIENT_FUNCTIONS, ids=function_id)
    def test_matches_finite_difference_of_perspective(self, f):
        # d/ds [s f(w/s)] = f(x) - x f'(x) at x = w/s
        for w in (0.1, 0.5, 1.0):
            for s in (0.05, 0.3, 0.9):
                h = 1e-6 * s
                fd = ((s + h) * f(w / (s + h)) - (s - h) * f(w / (s - h))) / (2.0 * h)
                assert float(f.slope(np.asarray(w / s))) == pytest.approx(fd, rel=1e-7, abs=1e-9)


class TestObjectiveGradient:
    """The exact gradient against central finite differences of the value."""

    @staticmethod
    def assert_matches_fd(objective, theta):
        grad = objective.evaluate(theta).grad
        reference = fd_gradient(objective, theta)
        scale = max(np.abs(reference).max(), 1e-3)
        assert np.abs(grad - reference).max() <= 1e-6 * scale

    @pytest.mark.parametrize("f", GRADIENT_FUNCTIONS, ids=function_id)
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4), (4, 4), (2, 8)])
    def test_matches_finite_differences(self, dims, f):
        d = dims[0] * dims[1]
        gen = np.random.Generator(np.random.Philox(key=d))
        for rank in sorted({1, 2, d // 2, d}):
            objective = objective_for(random_bipartite(dims, rank, seed=40 + rank), f)
            for theta in (
                np.zeros(objective.n_params),
                0.7 * gen.standard_normal(objective.n_params),
            ):
                self.assert_matches_fd(objective, theta)

    @pytest.mark.parametrize("f", GRADIENT_FUNCTIONS, ids=function_id)
    def test_padded_marginal(self, f):
        state = embed_ancilla(random_bipartite((2, 3), 4, seed=41), 2)
        objective = objective_for(state, f)
        gen = np.random.Generator(np.random.Philox(key=5))
        self.assert_matches_fd(objective, np.zeros(objective.n_params))
        self.assert_matches_fd(objective, gen.standard_normal(objective.n_params))

    @staticmethod
    def floored_theta(objective):
        # exp(-800) underflows, so one eigenvalue of sigma sits at the 1e-300 floor
        gen = np.random.Generator(np.random.Philox(key=6))
        theta = 0.3 * gen.standard_normal(objective.n_params)
        theta[0] = -800.0
        assert objective.evaluate(theta).p.min() == 0.0
        return theta

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_floored_eigenvalue(self, alpha):
        objective = objective_for(random_bipartite((2, 3), 6, seed=42), make_tsallis_f(alpha))
        self.assert_matches_fd(objective, self.floored_theta(objective))

    @pytest.mark.parametrize(
        "f", [make_tsallis_f(1.5), make_tsallis_f(2.0), mix_function()], ids=lambda f: f.name
    )
    def test_floored_eigenvalue_with_infinite_slope(self, f):
        # ell = inf: the value and the gap are inf at the floor, and the gradient stays finite
        objective = objective_for(random_bipartite((2, 3), 6, seed=42), f)
        theta = self.floored_theta(objective)
        point = objective.evaluate(theta)
        assert point.value == math.inf
        assert np.isfinite(point.grad).all()
        # the gap a descent at 1e-6 sees, and the exact one
        assert condent._fw_gap(point.gt, point.g_mean, 1e-6) == math.inf
        assert gap_at(objective, theta) == math.inf

    @pytest.mark.parametrize("f", GRADIENT_FUNCTIONS, ids=function_id)
    def test_value_matches_divergence_engine(self, f):
        state = random_bipartite((2, 3), 5, seed=43)
        objective = objective_for(state, f)
        gen = np.random.Generator(np.random.Philox(key=7))
        theta = gen.standard_normal(objective.n_params)
        sigma = certify_exact(objective, objective.evaluate(theta), math.inf)[1]
        expected = quantum_f_divergence(state.entries, np.kron(np.eye(2), sigma), f)
        assert objective.evaluate(theta).value == pytest.approx(expected, rel=1e-10)


class TestGapCertificate:
    """The Frank-Wolfe gap bounds a start's distance to the minimum from above."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_gap_bounds_true_error(self, dims, alpha):
        f = make_tsallis_f(alpha)
        d = dims[0] * dims[1]
        gen = np.random.Generator(np.random.Philox(key=int(100 * alpha) + d))
        for rank in range(1, d + 1):
            state = random_bipartite(dims, rank, seed=60 + rank)
            objective = objective_for(state, f)
            minimum = -conditional_entropy_tsallis_closed(state, alpha)[0]
            # the optimizer's first start run to its own stop, and a random start cut short
            for theta, max_iters in (
                (np.zeros(objective.n_params), 500),
                (0.5 * gen.standard_normal(objective.n_params), 2),
            ):
                point = condent._descend(objective, theta, 0.0, max_iters)[0]
                for tol in (math.inf, 1e-6):  # the finished start, then polished
                    value, _, gap = certify_exact(objective, point, tol)
                    assert gap >= value - minimum - 1e-12


class TestSaturatedStarts:
    """A start that settles on a face of the state space away from the minimum fails."""

    @pytest.mark.parametrize(
        "master,t,dims", [(42, 24, (3, 4)), (42, 80, (4, 4)), (0, 80, (4, 4)), (42, 60, (3, 4))]
    )
    def test_suite_solves_converge(self, master, t, dims):
        # closed-form-vs-optimizer solves of the suite at alpha = 0.3 that used
        # to accept a start stuck on a face (seed 42, t 24 and 80), stall
        # (seed 0) or, under a line search without the curvature test, crawl
        # along a face for 500 iterations (seed 42, t 60 and 80)
        seed = derive_seed(master, "closed-form-vs-optimizer")
        state = BipartiteState(
            random_density(dims[0] * dims[1], 1 + t % (dims[0] * dims[1]),
                           derive_seed(seed, f"state/{t}")),
            dims,
        )
        report = conditional_entropy_optimize(state, make_tsallis_f(0.3))
        closed, _ = conditional_entropy_tsallis_closed(state, 0.3)
        assert report.converged
        assert len(report.iterations_per_start) == 1
        assert report.iterations_per_start[0] < 100
        assert report.value == pytest.approx(closed, abs=1e-6)

    def test_gap_separates_face_from_minimum(self):
        state = random_bipartite((2, 3), 6, seed=44)
        f = make_tsallis_f(0.5)
        objective = objective_for(state, f)
        # the closed form's minimizer, written in the parameterization
        _, sigma_opt = conditional_entropy_tsallis_closed(state, 0.5)
        w, v = np.linalg.eigh(objective.support.conj().T @ sigma_opt @ objective.support)
        h = (v * np.log(w)) @ v.conj().T
        assert gap_at(objective, condent._pack_hermitian(h)) <= 1e-9
        assert gap_at(objective, face_start(objective)) >= 1e5

    def test_polish_lifts_start_off_face(self, monkeypatch):
        state = random_bipartite((2, 3), 6, seed=45)
        monkeypatch.setattr(condent, "_start_points", lambda obj, opts: [face_start(obj)])
        report = conditional_entropy_optimize(state, make_tsallis_f(0.5))
        assert report.gap <= 1e-6
        assert report.value == pytest.approx(
            conditional_entropy_tsallis_closed(state, 0.5)[0], abs=1e-12
        )

    def test_start_forced_onto_face_is_rejected(self, monkeypatch):
        # without the polish, the descent leaves this start on the face with a gap of 4e149
        state = random_bipartite((2, 3), 6, seed=45)
        f = make_tsallis_f(0.5)
        monkeypatch.setattr(condent, "_POLISH_STEPS", 0)
        monkeypatch.setattr(condent, "_start_points", lambda obj, opts: [face_start(obj)])
        with pytest.raises(ConvergenceError, match="start 0: gap"):
            conditional_entropy_optimize(state, f)

    def test_face_start_does_not_spoil_agreement(self, monkeypatch):
        state = random_bipartite((2, 3), 6, seed=45)
        f = make_tsallis_f(0.5)
        monkeypatch.setattr(condent, "_POLISH_STEPS", 0)
        monkeypatch.setattr(
            condent,
            "_start_points",
            lambda obj, opts: [face_start(obj), np.zeros(obj.n_params)],
        )
        report = conditional_entropy_optimize(state, f)
        assert report.converged
        assert len(report.iterations_per_start) == 2
        assert report.value == pytest.approx(
            conditional_entropy_tsallis_closed(state, 0.5)[0], abs=1e-6
        )

    def test_options_have_no_fd_step(self):
        assert "fd_step" not in OptimizerOptions.__dataclass_fields__

    def test_options_fields(self):
        # a solve depends on its state, f and these alone: there is no seed
        assert list(OptimizerOptions.__dataclass_fields__) == ["starts", "value_tol", "max_iters"]

    def test_two_deterministic_starts(self):
        # start 0 is theta = 0, the maximally mixed state; start 1 the conditioning marginal
        state = random_bipartite((2, 3), 6, seed=46)
        objective = objective_for(state, make_tsallis_f(0.5))
        zeros = np.zeros(objective.n_params)
        (only,) = condent._start_points(objective, OptimizerOptions(starts=1))
        first, second = condent._start_points(objective, OptimizerOptions(starts=2))
        np.testing.assert_array_equal(only, zeros)
        np.testing.assert_array_equal(first, zeros)
        point = objective.evaluate(second)
        np.testing.assert_allclose(
            objective._embed(point.p, point.u), partial_trace(state, "B").entries, atol=1e-12
        )
        # nothing is drawn: a second call gives the same bits
        np.testing.assert_array_equal(
            condent._start_points(objective, OptimizerOptions(starts=2))[1], second
        )

    def test_report_has_no_derived_fields(self):
        # the number of starts run is len(iterations_per_start)
        assert list(condent.OptimizationReport.__dataclass_fields__) == [
            "value", "sigma_star", "iterations_per_start", "converged", "gap"
        ]


class TestAcceptanceRule:
    """A finished start is judged by its polished gap alone, not by why its descent stopped."""

    def test_line_search_failure_with_small_polished_gap_is_accepted(self, monkeypatch):
        # the descent cannot leave this face start: its line search fails with the gap at 4e149
        state = random_bipartite((2, 3), 6, seed=45)
        f = make_tsallis_f(0.5)
        objective = objective_for(state, f)
        point, gap, nit, reason = condent._descend(objective, face_start(objective), 1e-6, 500)
        assert reason == "line search failed"
        assert nit < 500
        assert gap > 1e100
        assert gap_at(objective, point.theta) > 1e100
        monkeypatch.setattr(condent, "_start_points", lambda obj, opts: [face_start(obj)])
        report = conditional_entropy_optimize(state, f)
        assert report.iterations_per_start == (nit,)
        assert report.gap <= 1e-6
        assert report.value == pytest.approx(
            conditional_entropy_tsallis_closed(state, 0.5)[0], abs=1e-6
        )

    def test_max_iters_stop_with_small_polished_gap_is_accepted(self):
        # 8 iterations leave a gap of 1.6e-5, which the polish brings to 5e-7
        state = random_bipartite((2, 3), 6, seed=47)
        f = make_tsallis_f(0.5)
        objective = objective_for(state, f)
        point, gap, nit, reason = condent._descend(objective, np.zeros(objective.n_params), 1e-6, 8)
        assert (nit, reason) == (8, "max_iters reached")
        assert gap > 1e-6
        assert gap_at(objective, point.theta) > 1e-6
        report = conditional_entropy_optimize(state, f, OptimizerOptions(starts=1, max_iters=8))
        assert report.iterations_per_start == (8,)
        assert report.gap <= 1e-6
        assert report.value == pytest.approx(
            conditional_entropy_tsallis_closed(state, 0.5)[0], abs=1e-6
        )


class TestPolish:
    """The polish never hands back a larger gap than the point it was given."""

    @pytest.mark.parametrize("seed,max_iters", [(47, 5), (45, 6)])
    def test_gap_does_not_grow(self, seed, max_iters):
        # the Frank-Wolfe gap after the last polish step is above the gap before
        # the polish here: 4.1e-3 -> 4.8e-3 (seed 47) and 1.1e-4 -> 1.3e-4 (seed 45)
        state = random_bipartite((2, 3), 6, seed=seed)
        objective = objective_for(state, make_tsallis_f(0.5))
        theta = np.zeros(objective.n_params)
        point, gap, nit, reason = condent._descend(objective, theta, 1e-6, max_iters)
        assert (nit, reason) == (max_iters, "max_iters reached")
        before = gap_at(objective, point.theta)
        value, _, gap = objective.certify(point, gap, 1e-6)
        assert 1e-6 < gap <= before
        minimum = -conditional_entropy_tsallis_closed(state, 0.5)[0]
        assert gap >= value - minimum - 1e-12

    def test_step_past_vanishing_eigenvalue(self):
        # at alpha = 2 the value is inf at the step's vertex, where an eigenvalue of
        # sigma vanishes, so the bisection must keep the step short of it: the
        # polish takes the gap from 2.1e-2 to about 7.1e-4
        state = random_bipartite((2, 3), 6, seed=47)
        objective = objective_for(state, make_tsallis_f(2.0))
        point, gap, nit, reason = condent._descend(objective, np.zeros(objective.n_params), 1e-6, 3)
        assert (nit, reason) == (3, "max_iters reached")
        before = gap_at(objective, point.theta)
        value, _, gap = objective.certify(point, gap, 1e-6)
        assert math.isfinite(value)
        assert gap <= before
        minimum = -conditional_entropy_tsallis_closed(state, 2.0)[0]
        assert gap >= value - minimum - 1e-12


class TestDescent:
    def test_returns_at_first_certified_iterate(self):
        objective = objective_for(random_bipartite((2, 3), 6, seed=46), make_tsallis_f(0.5))
        theta = np.zeros(objective.n_params)
        point, gap, nit, reason = condent._descend(objective, theta, 1e-6, 500)
        assert reason == "certified"
        assert gap == gap_at(objective, point.theta) <= 1e-6
        # capped one iteration earlier, no iterate so far has certified
        early, _, nit_early, reason_early = condent._descend(objective, theta, 1e-6, nit - 1)
        assert (nit_early, reason_early) == (nit - 1, "max_iters reached")
        assert gap_at(objective, early.theta) > 1e-6
        # a tighter tolerance runs on past the same iterate
        assert condent._descend(objective, theta, 1e-12, 500)[2] > nit


@pytest.fixture
def eigensolves(monkeypatch):
    """The names of the ``qfdiv._lapack`` eigensolvers called, one entry per call."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(_lapack, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(_lapack, name, spy)
    return calls


def random_gradients():
    """``(gt, g_mean)`` pairs: Hermitian and diagonal G over many scales, at random sigma."""
    gen = rng.generator(12)
    for r in range(1, 9):
        for k, scale in enumerate((1e-8, 1.0, 1e8)):
            for gt in (
                scale * random_hermitian(r, 100 * r + k),
                np.diag(scale * gen.standard_normal(r)).astype(complex),
            ):
                p = np.exp(3.0 * gen.standard_normal(r))
                p /= p.sum()
                yield gt, float(gt.diagonal().real @ p)


class TestDiagonalGap:
    """``_fw_gap`` alone decides a certificate: its diagonal bound
    ``tr(G sigma) - min_i Re G_ii`` settles a gap above ``tol`` and changes no decision."""

    def test_never_exceeds_the_exact_gap(self):
        for gt, g_mean in random_gradients():
            # at tol = -inf the bound is always above tol, so it is what comes back
            bound = condent._fw_gap(gt, g_mean, -math.inf)
            assert bound == g_mean - float(gt.diagonal().real.min())
            assert bound <= condent._fw_gap(gt, g_mean)

    def test_bound_above_tol_needs_no_eigensolve(self, eigensolves):
        settled = 0
        for gt, g_mean in random_gradients():
            bound = g_mean - float(gt.diagonal().real.min())
            if bound > 0.0:
                assert condent._fw_gap(gt, g_mean, 0.5 * bound) == bound
                settled += 1
        assert settled > 0
        assert eigensolves == []

    def test_bound_within_tol_gives_the_exact_gap(self, eigensolves):
        for gt, g_mean in random_gradients():
            bound = g_mean - float(gt.diagonal().real.min())
            want = max(g_mean - float(np.linalg.eigvalsh(gt)[0]), 0.0)
            eigensolves.clear()
            for tol in (bound, math.inf):
                assert condent._fw_gap(gt, g_mean, tol) == want
            assert eigensolves == ["eigvalsh"] * 2

    @pytest.mark.parametrize(
        "gt,g_mean",
        [
            # finite diagonals, so the bound is 0
            (np.array([[1.0, math.nan], [math.nan, 1.0]], complex), 1.0),
            (np.array([[1.0, math.inf], [math.inf, 1.0]], complex), 1.0),
            (np.array([[math.inf, 0.0], [0.0, 2.0]], complex), math.inf),
            (np.array([[math.nan, 0.0], [0.0, 2.0]], complex), math.nan),
        ],
    )
    def test_non_finite_gradient_gives_inf(self, gt, g_mean, eigensolves):
        for tol in (1e-6, math.inf):
            assert condent._fw_gap(gt, g_mean, tol) == math.inf
        assert eigensolves == []

    @pytest.mark.parametrize("alpha", [0.3, 2.0])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])
    def test_descent_matches_exact_gaps(self, dims, alpha, monkeypatch, eigensolves):
        d = dims[0] * dims[1]
        objective = objective_for(random_bipartite(dims, d - 1, seed=50 + d), make_tsallis_f(alpha))
        starts = list(condent._start_points(objective, OptimizerOptions()))

        def descents():
            eigensolves.clear()
            runs = [
                condent._descend(objective, x0, 1e-6, max_iters)
                for x0 in starts
                for max_iters in (500, 3)
            ]
            return runs, eigensolves.count("eigvalsh")

        with_shortcut, solves = descents()
        fw_gap = condent._fw_gap
        monkeypatch.setattr(condent, "_fw_gap", lambda gt, g_mean, tol=math.inf: fw_gap(gt, g_mean))
        exact, exact_solves = descents()
        # the shortcut ran: some iterates' gaps came back as the bound, without an eigensolve
        assert solves < exact_solves
        for (point, gap, nit, reason), (point_exact, gap_exact, nit_exact, reason_exact) in zip(
            with_shortcut, exact
        ):
            np.testing.assert_array_equal(point.theta, point_exact.theta)
            assert (nit, reason) == (nit_exact, reason_exact)
            # a certified gap is exact; one above tol may be the bound
            assert gap == gap_exact or min(gap, gap_exact) > 1e-6

    @pytest.mark.parametrize("dims,rank", [((2, 3), 6), ((2, 2), 1)])
    def test_certified_descent_costs_certify_no_eigensolve(self, dims, rank, eigensolves):
        objective = objective_for(random_bipartite(dims, rank, seed=46), make_tsallis_f(0.5))
        point, gap, _, reason = condent._descend(objective, np.zeros(objective.n_params), 1e-6, 500)
        assert reason == "certified"
        eigensolves.clear()
        value, _, certified = objective.certify(point, gap, 1e-6)
        assert eigensolves == []
        assert (value, certified) == (point.value, gap)

    def test_certify_from_descent_matches_certify_from_theta(self):
        state = random_bipartite((2, 3), 6, seed=45)
        objective = objective_for(state, make_tsallis_f(0.5))
        reasons = set()
        for theta, max_iters in (
            (face_start(objective), 500),
            (np.zeros(objective.n_params), 500),
            (np.zeros(objective.n_params), 6),
            (np.zeros(objective.n_params), 0),
        ):
            point, gap, _, reason = condent._descend(objective, theta, 1e-6, max_iters)
            reasons.add(reason)
            fresh = objective.evaluate(point.theta)
            # the finished start, then polished: the descent's gap holds at its own
            # tolerance, and the exact gap at any
            for (value, sigma, got), tol in (
                (certify_exact(objective, point, math.inf), math.inf),
                (objective.certify(point, gap, 1e-6), 1e-6),
            ):
                value_theta, sigma_theta, gap_theta = certify_exact(objective, fresh, tol)
                assert (value, got) == (value_theta, gap_theta)
                np.testing.assert_array_equal(sigma, sigma_theta)
        assert reasons == {"line search failed", "certified", "max_iters reached"}


class TestClosedForm:
    def test_rejects_alpha_outside_validity(self):
        state = random_bipartite((2, 2), 2, seed=16)
        for alpha in (0.0, -1.0, 2.2):
            with pytest.raises(PreconditionError):
                conditional_entropy_tsallis_closed(state, alpha)

    def test_alpha_one_has_one_closed_form(self):
        import qfdiv

        assert not hasattr(condent, "conditional_entropy_vn_closed")
        assert "conditional_entropy_vn_closed" not in qfdiv.__all__

    def test_alpha_one_matches_entropy_difference(self):
        state = random_bipartite((2, 3), 4, seed=17)
        value, sigma = conditional_entropy_tsallis_closed(state, 1.0)
        rho_b = partial_trace(state, "B")
        reference = tsallis_entropy(state, 1.0) - tsallis_entropy(rho_b, 1.0)
        assert value == pytest.approx(reference, abs=1e-12)
        np.testing.assert_allclose(DensityOperator(sigma).entries, rho_b.entries, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_minimizer_is_an_array(self, alpha):
        _, sigma = conditional_entropy_tsallis_closed(random_bipartite((2, 3), 4, seed=19), alpha)
        assert type(sigma) is np.ndarray
        np.testing.assert_array_equal(sigma, sigma.conj().T)

    def test_extension_independence(self):
        state = random_bipartite((2, 2), 3, seed=18)
        for alpha in (0.5, 1.0, 2.0):
            base, _ = conditional_entropy_tsallis_closed(state, alpha)
            for k in (1, 2, 4):
                padded, _ = conditional_entropy_tsallis_closed(embed_ancilla(state, k), alpha)
                assert padded == pytest.approx(base, abs=1e-7)

    def test_alpha_continuity(self):
        for t in range(10):
            state = random_bipartite((2, 2), 1 + t % 4, seed=800 + t)
            h1 = conditional_entropy_tsallis_closed(state, 1.0)[0]
            for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
                h, _ = conditional_entropy_tsallis_closed(state, alpha)
                assert abs(h - h1) <= 1e-3


def regrouped(state, cond):
    """The same state as two factors (rest, cond), its tensor factors reordered by hand."""
    dims = state.dims
    idx = ["ABC".index(c) for c in cond]
    order = [i for i in range(len(dims)) if i not in idx] + idx
    d_cond = math.prod(dims[i] for i in idx)
    d = math.prod(dims)
    t = state.entries.reshape(dims + dims).transpose(order + [i + len(dims) for i in order])
    return BipartiteState(t.reshape(d, d), (d // d_cond, d_cond))


THREE_FACTOR_DIMS = [(2, 3, 2), (3, 2, 2), (2, 2, 3)]
PROPER_LABELS = ["A", "B", "C", "AB", "AC", "BC"]


class TestThreeFactorConditioning:
    """Conditioning on any proper subset of three factors, in place or regrouped."""

    @pytest.mark.parametrize("dims", THREE_FACTOR_DIMS)
    @pytest.mark.parametrize("cond", PROPER_LABELS)
    @pytest.mark.parametrize("rank", [2, 5])
    def test_optimizer_matches_closed_form(self, dims, cond, rank):
        state = random_bipartite(dims, rank, seed=sum(dims) * 10 + len(cond) + rank)
        d_cond = math.prod(dims["ABC".index(c)] for c in cond)
        for alpha in (0.5, 1.0, 2.0):
            closed, sigma = conditional_entropy_tsallis_closed(state, alpha, cond=cond)
            report = conditional_entropy_optimize(state, make_tsallis_f(alpha), cond=cond)
            assert report.sigma_star.shape == sigma.shape == (d_cond, d_cond)
            assert abs(report.value - closed) <= OptimizerOptions().value_tol

    @pytest.mark.parametrize("dims", THREE_FACTOR_DIMS)
    @pytest.mark.parametrize("cond", PROPER_LABELS)
    def test_same_as_regrouped_state(self, dims, cond):
        state = random_bipartite(dims, 5, seed=sum(dims) + len(cond))
        two = regrouped(state, cond)
        for alpha in (0.5, 1.0, 2.0):
            f = make_tsallis_f(alpha)
            np.testing.assert_allclose(
                thm2_bounds(state, f, cond=cond), thm2_bounds(two, f), rtol=0, atol=1e-14
            )
            value, sigma = conditional_entropy_tsallis_closed(state, alpha, cond=cond)
            value_two, sigma_two = conditional_entropy_tsallis_closed(two, alpha)
            assert value == pytest.approx(value_two, abs=1e-13)
            np.testing.assert_allclose(sigma, sigma_two, atol=1e-13)

    def test_every_factor_is_refused(self):
        state = random_bipartite((2, 3, 2), 5, seed=5)
        with pytest.raises(DomainError, match="every factor"):
            conditional_entropy_optimize(state, make_tsallis_f(2.0), cond="ABC")


class TestBounds:
    def test_bell_log_bounds_and_saturation(self, bell_state):
        lower, upper = thm2_bounds(bell_state, make_tsallis_f(1.0))
        assert lower == pytest.approx(-LN2, abs=1e-12)
        assert upper == pytest.approx(0.0, abs=1e-12)
        value, _ = conditional_entropy_tsallis_closed(bell_state, 1.0)
        assert value == pytest.approx(lower, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_maximally_mixed_upper_bound(self, alpha):
        state = BipartiteState(np.eye(6) / 6, (2, 3))
        _, upper = thm2_bounds(state, make_tsallis_f(alpha))
        assert upper == pytest.approx(alpha_log(6.0, alpha), abs=1e-12)

    def test_reads_the_spectrum_with_one_eigvalsh(self, monkeypatch):
        # the bounds need eigenvalues only: no eigenvectors are computed
        calls = []
        eigh, eigvalsh = _lapack.eigh, _lapack.eigvalsh
        monkeypatch.setattr(_lapack, "eigh", lambda m: calls.append("eigh") or eigh(m))
        monkeypatch.setattr(_lapack, "eigvalsh", lambda m: calls.append("eigvalsh") or eigvalsh(m))
        thm2_bounds(random_bipartite((2, 3), 4, seed=77), make_tsallis_f(0.5))
        assert calls == ["eigvalsh"]

    def test_bracket_holds_on_random_states(self):
        for t in range(40):
            state = random_bipartite((2, 2) if t % 2 else (2, 3), 1 + t % 4, seed=900 + t)
            alpha = (0.3, 0.5, 1.0, 1.5, 2.0)[t % 5]
            h, _ = conditional_entropy_tsallis_closed(state, alpha)
            lower, upper = thm2_bounds(state, make_tsallis_f(alpha))
            assert lower - 1e-7 <= h <= upper + 1e-7


class TestPureStateBounds:
    def test_product_coefficients(self):
        assert pure_state_bounds_tsallis([1.0, 0.0], 1.3) == pytest.approx((0.0, 0.0))

    def test_equal_coefficients_coincide(self):
        c = 1.0 / math.sqrt(2.0)
        lower, upper = pure_state_bounds_tsallis([c, c], 2.0)
        assert lower == pytest.approx(-1.0)
        assert upper == pytest.approx(-1.0)

    def test_skewed_upper_bound(self):
        lower, upper = pure_state_bounds_tsallis(np.sqrt([0.9, 0.1]), 2.0)
        assert upper == pytest.approx(alpha_log(0.9, 2.0), abs=1e-12)
        assert upper == pytest.approx(-1.0 / 9.0, abs=1e-12)
        assert lower <= upper
        assert upper < 0.0

    def test_entangled_states_strictly_negative(self):
        for t in range(20):
            k = 2 + t % 3
            u = np.linspace(1.0, 2.0, k)
            coeffs = np.sqrt(u / u.sum())
            _, upper = pure_state_bounds_tsallis(coeffs, 0.5 + 0.5 * (t % 4))
            assert upper < 0.0

    def test_bracket_contains_entropy(self):
        coeffs = np.sqrt([0.5, 0.3, 0.2])
        state = pure_bipartite_from_schmidt(coeffs, 3, 4, seed=19)
        for alpha in (0.5, 1.0, 2.0):
            h, _ = conditional_entropy_tsallis_closed(state, alpha)
            lower, upper = pure_state_bounds_tsallis(coeffs, alpha)
            assert lower - 1e-9 <= h <= upper + 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("eps", [1e-7, 1e-11])
    def test_kernel_coefficient_leaves_schmidt_number(self, eps, alpha):
        # eps**2 is below the kernel rule's RANK_TOL * max c**2, so the closed form drops
        # it and the Schmidt number is 2: both bounds are then the closed form's value
        coeffs = np.array([1.0, 1.0, eps]) / math.sqrt(2.0 + eps**2)
        state = pure_bipartite_from_schmidt(coeffs, 3, 3, seed=21)
        h, _ = conditional_entropy_tsallis_closed(state, alpha)
        lower, upper = pure_state_bounds_tsallis(coeffs, alpha)
        assert lower == pytest.approx(h, abs=1e-12)
        assert upper == pytest.approx(h, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError, match="unit square sum"):
            pure_state_bounds_tsallis([0.5, 0.5], 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(DomainError, match="finite"):
            pure_state_bounds_tsallis([bad, 1.0], 0.5)


class TestClassicalRegister:
    def test_single_block_collapses(self):
        for alpha in (0.5, 1.0, 2.0):
            assert classical_register_closed_form([-0.4], [1.0], alpha) == pytest.approx(-0.4)

    def test_zero_weight_block_drops_out(self):
        for alpha in (0.001, 0.5, 1.0, 2.0):
            got = classical_register_closed_form([-0.4, 0.3], [1.0, 0.0], alpha)
            assert got == classical_register_closed_form([-0.4], [1.0], alpha)

    def test_equal_blocks_are_fixed_point(self):
        for alpha in (0.5, 1.0, 2.0):
            got = classical_register_closed_form([0.3, 0.3, 0.3], [0.2, 0.3, 0.5], alpha)
            assert got == pytest.approx(0.3, abs=1e-12)

    def test_two_block_value(self):
        # p = (1/2, 1/2), H = (0, -1), alpha = 2: -(((1 + sqrt 2)/2)^2 - 1)
        got = classical_register_closed_form([0.0, -1.0], [0.5, 0.5], 2.0)
        assert got == pytest.approx(1.0 - ((1.0 + math.sqrt(2.0)) / 2.0) ** 2, abs=1e-12)

    def test_alpha_one_is_the_mean(self):
        got = classical_register_closed_form([0.2, -0.6], [0.25, 0.75], 1.0)
        assert got == pytest.approx(0.25 * 0.2 + 0.75 * -0.6)

    def test_rejects_inconsistent_entropies(self):
        # alpha = 2 requires 1 - H > 0: a state's entropy is below ln_2(d) = 1 - 1/d
        for h in (3.0, 1.0):
            with pytest.raises(DomainError, match="not positive"):
                classical_register_closed_form([h], [1.0], 2.0)

    def test_rejects_bad_distribution(self):
        with pytest.raises(DomainError, match="probability"):
            classical_register_closed_form([0.0, 0.0], [0.7, 0.7], 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(DomainError, match="finite"):
            classical_register_closed_form([0.0, 0.0], [bad, 1.0], 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entropies(self, bad):
        with pytest.raises(DomainError, match="finite"):
            classical_register_closed_form([bad, 0.1], [0.5, 0.5], 0.5)

    def test_matches_assembled_state(self, bell_state):
        pure = BipartiteState(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        assembled = build_classical_register_state([pure, bell_state], [0.5, 0.5])
        for alpha in (0.5, 1.0, 1.3, 2.0):
            h_blocks = [
                conditional_entropy_tsallis_closed(b, alpha)[0] for b in (pure, bell_state)
            ]
            formula = classical_register_closed_form(h_blocks, [0.5, 0.5], alpha)
            direct, _ = conditional_entropy_tsallis_closed(assembled, alpha)
            assert formula == pytest.approx(direct, abs=1e-9)
            # the mixture average can only underestimate the register entropy
            assert np.dot([0.5, 0.5], h_blocks) <= formula + 1e-9


class TestChainRule:
    def test_trivial_dimension(self):
        assert chain_rule_rhs(-0.3, 1, 1.7) == pytest.approx(-0.3)

    def test_alpha_one_additive(self):
        assert chain_rule_rhs(0.4, 3, 1.0) == pytest.approx(0.4 + math.log(3.0))

    def test_quadratic_example(self):
        assert chain_rule_rhs(-1.0, 2, 2.0) == pytest.approx(0.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            chain_rule_rhs(0.0, 0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entropy(self, bad):
        with pytest.raises(DomainError, match="finite"):
            chain_rule_rhs(bad, 2, 0.5)

    def test_holds_on_random_three_qubit_states(self):
        for t in range(15):
            state = random_bipartite((2, 2, 2), 1 + t % 8, seed=1000 + t)
            for alpha in (0.5, 1.0, 2.0):
                h_b = conditional_entropy_tsallis_closed(state, alpha, cond="B")[0]
                h_bc = conditional_entropy_tsallis_closed(state, alpha, cond="BC")[0]
                assert h_b <= chain_rule_rhs(h_bc, 2, alpha) + 1e-7

    def test_conditioning_labels_validated(self):
        state = random_bipartite((2, 2), 2, seed=20)
        with pytest.raises(DomainError):
            conditional_entropy_tsallis_closed(state, 2.0, cond="C")
        with pytest.raises(DomainError):
            conditional_entropy_tsallis_closed(state, 2.0, cond="AB")
