import numpy as np
import pytest

import qfdiv
from qfdiv import channels
from qfdiv.errors import DomainError
from qfdiv.fdiv import make_tsallis_f, quantum_f_divergence
from qfdiv.linalg import (
    BipartiteState,
    DensityOperator,
    as_matrix,
    partial_trace,
    permute_subsystems,
    psd_eigh,
    ptrace_entries,
    support_projector,
)

from conftest import bell_matrix, random_hermitian

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestOperatorTypes:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError, match="Hermiticity"):
            DensityOperator([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DomainError, match="square"):
            DensityOperator(np.zeros((2, 3)))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError, match="semi-definiteness"):
            DensityOperator(np.diag([1.0, -0.5]))

    def test_density_rejects_trace_above_one(self):
        with pytest.raises(DomainError, match="trace bound"):
            DensityOperator(np.diag([1.0, 0.5]))

    def test_subnormalized_allowed(self):
        rho = DensityOperator(np.diag([0.25, 0.25]))
        assert rho.trace_value == pytest.approx(0.5)

    def test_entries_read_only(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0

    def test_density_operator_is_the_only_wrapper(self):
        assert not hasattr(qfdiv, "HermitianOperator")
        assert "HermitianOperator" not in qfdiv.__all__

    def test_factored_state_is_a_density_operator(self):
        assert issubclass(BipartiteState, DensityOperator)
        state = BipartiteState(bell_matrix(), (2, 2))
        assert state.trace_value == pytest.approx(1.0)
        assert as_matrix(state) is state.entries
        assert not hasattr(state, "rho")

    def test_factored_state_lends_validated_entries(self):
        rho = DensityOperator(bell_matrix())
        assert BipartiteState(rho, (2, 2)).entries is rho.entries


class TestAsMatrix:
    def test_rejects_non_hermitian_array(self):
        with pytest.raises(DomainError, match="Hermiticity"):
            as_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_array(self, bad):
        with pytest.raises(DomainError, match="finite"):
            as_matrix(np.diag([1.0, bad]))
        with pytest.raises(DomainError, match="finite"):
            DensityOperator(np.diag([1.0, bad]))

    def test_symmetrizes_a_new_array(self):
        m = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        out = as_matrix(m)
        assert out is not m
        np.testing.assert_array_equal(out, out.conj().T)

    def test_wrapped_entries_pass_through(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert as_matrix(rho) is rho.entries


class TestPsdEigh:
    def test_kernel_is_a_leading_block_of_exact_zeros(self):
        w, v = psd_eigh(np.diag([0.5, 0.0, 0.5, 1e-14]))
        np.testing.assert_array_equal(w, [0.0, 0.0, 0.5, 0.5])
        np.testing.assert_allclose(np.abs(v[:, :2]).sum(axis=1), [0, 1, 0, 1], atol=1e-14)

    @pytest.mark.parametrize("lam", [1.0, 1e-9, 1e-12])
    def test_floor_is_relative_to_the_norm(self, lam):
        # a 1e-9 eigenvalue is support and a 1e-11 one kernel, at every scale
        w, _ = psd_eigh(lam * np.diag([1.0, 1e-9, 1e-11]))
        np.testing.assert_array_equal(w == 0.0, [True, False, False])
        assert w[1] == pytest.approx(lam * 1e-9)

    def test_near_equal_eigenvalues_stay_separate(self):
        w, _ = psd_eigh(np.diag([0.5, 0.5 + 1e-12, 1e-9]))
        assert w[0] == 1e-9
        assert w[1] != w[2]

    @pytest.mark.parametrize("dim", [2, 5, 9, 16])
    def test_reconstruction(self, dim):
        rho = channels.random_density(dim, max(1, dim // 2), seed=100 + dim).entries
        w, v = psd_eigh(rho)
        np.testing.assert_allclose((v * w) @ v.conj().T, rho, atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError, match="semi-definiteness"):
            psd_eigh(PAULI_X)

    @pytest.mark.parametrize(
        "engine",
        [
            psd_eigh,
            DensityOperator,
            lambda m: quantum_f_divergence(m, np.eye(2) / 2, make_tsallis_f(1.5)),
        ],
        ids=["psd_eigh", "DensityOperator", "quantum_f_divergence"],
    )
    def test_rejects_indefinite_matrix_at_tiny_scale(self, engine):
        # eigenvalue -10 * ||M||: the PSD check is relative, so scale cannot hide it
        with pytest.raises(DomainError, match="semi-definiteness"):
            engine(1e-12 * np.diag([1.0, -10.0]))


class TestSupportProjector:
    def test_diagonal(self):
        p = support_projector(np.diag([0.5, 0.5, 0.0]))
        np.testing.assert_allclose(p, np.diag([1, 1, 0]), atol=1e-12)

    def test_returns_a_hermitian_array(self):
        p = support_projector(channels.random_density(4, 2, seed=2))
        assert type(p) is np.ndarray
        np.testing.assert_array_equal(p, p.conj().T)
        # a rank-one projector is a pure state
        DensityOperator(support_projector(channels.random_density(3, 1, seed=3)))

    def test_full_rank_gives_identity(self):
        rho = channels.random_density(4, 4, seed=1)
        np.testing.assert_allclose(support_projector(rho), np.eye(4), atol=1e-10)

    def test_rank_one_is_its_own_support(self):
        plus = np.full((2, 2), 0.5)
        np.testing.assert_allclose(support_projector(plus), plus, atol=1e-12)

    def test_zero_operator(self):
        np.testing.assert_allclose(support_projector(np.zeros((3, 3))), 0.0)

    @pytest.mark.parametrize("lam", [1.0, 1e-12])
    def test_same_kernel_as_psd_eigh(self, lam):
        p = support_projector(lam * np.diag([1.0, 1e-9, 1e-11]))
        np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


class TestPartialTrace:
    def test_product_factorization(self):
        rho_a = channels.random_density(2, 2, seed=5).entries
        rho_b = channels.random_density(3, 3, seed=6).entries
        joint = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, "B", dims=(2, 3)).entries, rho_b, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, "A", dims=(2, 3)).entries, rho_a, atol=1e-12)

    def test_bell_reduction(self):
        reduced = partial_trace(bell_matrix(), "B", dims=(2, 2))
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rho = channels.random_density(6, 4, seed=7)
        assert partial_trace(rho, "A", dims=(2, 3)).trace_value == pytest.approx(rho.trace_value)

    def test_linearity(self):
        a = channels.random_density(4, 4, seed=8).entries
        b = channels.random_density(4, 2, seed=9).entries
        mixed = ptrace_entries(0.3 * a + 0.7 * b, (2, 2), [1])
        split = 0.3 * ptrace_entries(a, (2, 2), [1]) + 0.7 * ptrace_entries(b, (2, 2), [1])
        np.testing.assert_allclose(mixed, split, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="dimension mismatch"):
            partial_trace(np.eye(6) / 6, "B", dims=(2, 2))

    def test_raw_non_psd_input_is_rejected(self):
        # Hermitian with unit trace, but -0.5 is an eigenvalue of its A marginal
        raw = np.diag([1.0, 0.5, -0.5, 0.0])
        with pytest.raises(DomainError, match="semi-definiteness"):
            partial_trace(raw, "A", dims=(2, 2))

    def test_bad_label(self):
        with pytest.raises(DomainError, match="label"):
            partial_trace(np.eye(4) / 4, "C", dims=(2, 2))

    def test_range_inclusion_of_reduced_supports(self):
        # joint support sits inside the product of the marginal supports
        for t in range(200):
            d_a, d_b = (2, 2) if t % 2 else (2, 3)
            rho = channels.random_density(d_a * d_b, 1 + t % (d_a * d_b), seed=3000 + t)
            pa = support_projector(partial_trace(rho, "A", dims=(d_a, d_b)))
            pb = support_projector(partial_trace(rho, "B", dims=(d_a, d_b)))
            lifted = np.kron(pa, pb)
            assert np.abs(lifted @ rho.entries - rho.entries).max() <= 1e-8


class TestPermuteSubsystems:
    def test_swap_two_factors(self):
        a = random_hermitian(2, seed=21)
        b = random_hermitian(3, seed=22)
        swapped = permute_subsystems(np.kron(a, b), (2, 3), (1, 0))
        np.testing.assert_allclose(swapped, np.kron(b, a), atol=1e-14)

    def test_invalid_permutation(self):
        with pytest.raises(DomainError):
            permute_subsystems(np.eye(4), (2, 2), (0, 0))
