import numpy as np
import pytest

from qfdiv import channels
from qfdiv.channels import (
    KrausChannel,
    apply_channel,
    build_classical_register_state,
    embed_ancilla,
    extend_with_identity,
    pure_bipartite_from_schmidt,
    random_channel,
    random_density,
)
from qfdiv.condent import BipartiteState
from qfdiv.errors import DomainError
from qfdiv.linalg import partial_trace

from conftest import support_projector


def completeness_defect(phi):
    """``max |sum_n K_n^dag K_n - 1|`` over the entries."""
    acc = sum(k.conj().T @ k for k in phi.kraus_ops)
    return float(np.abs(acc - np.eye(phi.d_in)).max())


class TestKrausChannel:
    def test_identity_is_tpcp(self):
        KrausChannel((np.eye(2),))

    def test_scaled_identity_rejected(self):
        with pytest.raises(DomainError, match="trace preservation"):
            KrausChannel((np.eye(2) / 2,))

    def test_projective_pinching_is_tpcp(self):
        p = np.diag([1.0, 0.0])
        phi = KrausChannel((p, np.eye(2) - p))
        assert completeness_defect(phi) <= 1e-12

    def test_dims_come_from_the_operator_shape(self):
        phi = KrausChannel((np.eye(3, 2),))
        assert (phi.d_in, phi.d_out) == (2, 3)
        assert phi.kraus_ops.shape == (1, 3, 2)
        assert not phi.kraus_ops.flags.writeable
        with pytest.raises(AttributeError):
            phi.d_in = 4

    def test_constructor_copies(self):
        k = np.eye(2)
        phi = KrausChannel((k,))
        k[0, 0] = 0.0
        assert phi.kraus_ops[0, 0, 0] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DomainError, match="shape"):
            KrausChannel((np.eye(2), np.eye(3)))
        with pytest.raises(DomainError, match="shape"):
            KrausChannel((np.eye(2), np.eye(2, 3)))

    def test_non_matrix_operators_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            KrausChannel((np.ones(2),))
        with pytest.raises(DomainError, match="shape"):
            KrausChannel((np.zeros((0, 0)),))

    def test_no_operators_rejected(self):
        with pytest.raises(DomainError, match="at least one"):
            KrausChannel(())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operators_rejected(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            KrausChannel((k,))
        with pytest.raises(DomainError, match="finite"):
            KrausChannel((np.full((2, 2), bad),))

    def test_dims_are_not_arguments(self):
        with pytest.raises(TypeError):
            KrausChannel((np.eye(2),), 2, 2)

    def test_compares_and_hashes_by_identity(self):
        phi = random_channel(2, 2, 2, seed=1)
        assert phi == phi
        assert phi != random_channel(2, 2, 2, seed=1)
        assert len({phi, phi, random_channel(2, 2, 2, seed=1)}) == 2
        assert hash(phi) == hash(phi)

    def test_short_repr(self):
        assert repr(random_channel(2, 3, 2, seed=1)) == "KrausChannel(n=2, d_in=2, d_out=3)"


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_density(3, 2, seed=1)
        out = apply_channel(KrausChannel((np.eye(3),)), rho)
        np.testing.assert_allclose(out, rho.entries, atol=1e-14)

    def test_returns_array_for_wrapped_input(self):
        out = apply_channel(KrausChannel((np.eye(2),)), random_density(2, 1, seed=3))
        assert type(out) is np.ndarray

    def test_full_dephasing_of_plus(self):
        k0 = np.diag([1.0, 0.0])
        k1 = np.diag([0.0, 1.0])
        phi = KrausChannel((k0, k1))
        out = apply_channel(phi, np.full((2, 2), 0.5))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_trace_out_channel_is_gone(self):
        # partial_trace is the one way to trace out a factor
        assert not hasattr(channels, "trace_out_last_factor_channel")

    def test_accepts_a_factored_state(self):
        state = BipartiteState(random_density(4, 2, seed=4), (2, 2))
        out = apply_channel(KrausChannel((np.eye(4),)), state)
        np.testing.assert_array_equal(out, state.entries)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="dimension mismatch"):
            apply_channel(KrausChannel((np.eye(2),)), np.eye(3) / 3)

    def test_raw_kraus_operators_are_refused(self):
        # no wrapping: only a KrausChannel carries checked, complete operators
        ops = np.eye(2)[None] * 1.0
        for call in (
            lambda: apply_channel(ops, np.eye(2) / 2),
            lambda: apply_channel(ops.tolist(), np.eye(2) / 2),
            lambda: extend_with_identity(ops, 2),
        ):
            with pytest.raises(DomainError, match="expected a KrausChannel"):
                call()

    def test_preserves_trace_hermiticity_psd(self):
        for t in range(500):
            d_in = 2 + t % 3
            d_out = 2 + (t + 1) % 3
            phi = random_channel(d_in, d_out, 2, seed=5000 + t)
            rho = random_density(d_in, 1 + t % d_in, seed=6000 + t)
            out = apply_channel(phi, rho)
            assert abs(np.trace(out).real - rho.trace_value) <= 1e-10
            assert np.abs(out - out.conj().T).max() == 0.0
            assert np.linalg.eigvalsh(out).min() >= -1e-9


class TestRandomChannel:
    def test_draws_are_tpcp(self):
        for t in range(50):
            phi = random_channel(2 + t % 3, 2 + (t + 1) % 3, 1 + t % 3, seed=t)
            assert completeness_defect(phi) <= 1e-12

    def test_unit_environment_gives_unitary(self):
        phi = random_channel(3, 3, 1, seed=9)
        assert len(phi.kraus_ops) == 1
        u = phi.kraus_ops[0]
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_deterministic_per_seed(self):
        a = random_channel(2, 3, 2, seed=123)
        b = random_channel(2, 3, 2, seed=123)
        for ka, kb in zip(a.kraus_ops, b.kraus_ops):
            assert np.array_equal(ka, kb)

    def test_dimension_precondition(self):
        with pytest.raises(DomainError, match="isometry"):
            random_channel(4, 3, 1, seed=0)

    @pytest.mark.parametrize(
        "sizes, named", [((2.0, 3, 2), "d_in"), ((2, 3.5, 2), "d_out"), ((2, 3, True), "env_dim")]
    )
    def test_sizes_must_be_integers(self, sizes, named):
        with pytest.raises(DomainError, match=f"{named} must be an integer"):
            random_channel(*sizes, seed=0)


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = random_density(4, 1, seed=11)
        assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_full_rank_support(self):
        rho = random_density(3, 3, seed=12)
        np.testing.assert_allclose(support_projector(rho), np.eye(3), atol=1e-10)

    def test_unit_trace(self):
        for t in range(20):
            rho = random_density(2 + t % 4, 1 + t % 2, seed=t)
            assert abs(rho.trace_value - 1.0) <= 1e-12

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_density(5, 3, seed=4).entries, random_density(5, 3, seed=4).entries)

    def test_rank_bounds(self):
        with pytest.raises(DomainError):
            random_density(3, 0, seed=0)
        with pytest.raises(DomainError):
            random_density(3, 4, seed=0)

    @pytest.mark.parametrize(
        "d, rank, named",
        [(2.5, 2, "dimension"), (3.0, 2, "dimension"), (True, 1, "dimension"), (3, 2.0, "rank")],
    )
    def test_sizes_must_be_integers(self, d, rank, named):
        # a size is refused unless it is an integer, never truncated or left to numpy
        with pytest.raises(DomainError, match=f"{named} must be an integer"):
            random_density(d, rank, seed=0)

    @pytest.mark.parametrize("d", [0, -2])
    def test_dimension_bound_names_the_dimension(self, d):
        with pytest.raises(DomainError, match=f"dimension must be at least 1, got {d}"):
            random_density(d, 1, seed=0)


class TestSchmidtStates:
    def test_single_coefficient_is_product(self):
        state = pure_bipartite_from_schmidt([1.0], 2, 3, seed=21)
        rho_b = partial_trace(state, "B")
        evals = np.linalg.eigvalsh(rho_b.entries)
        assert evals.max() == pytest.approx(1.0, abs=1e-10)

    def test_bell_equivalent_marginal(self):
        c = 1.0 / np.sqrt(2.0)
        state = pure_bipartite_from_schmidt([c, c], 2, 2, seed=22)
        rho_b = partial_trace(state, "B")
        np.testing.assert_allclose(rho_b.entries, np.eye(2) / 2, atol=1e-10)

    def test_schmidt_number_matches_support(self):
        coeffs = np.sqrt([0.5, 0.3, 0.2])
        state = pure_bipartite_from_schmidt(coeffs, 3, 4, seed=23)
        rho_b = partial_trace(state, "B")
        p = support_projector(rho_b)
        assert np.trace(p).real == pytest.approx(3.0, abs=1e-9)

    def test_reduced_spectrum_matches_coefficients(self):
        coeffs = np.sqrt([0.7, 0.2, 0.1])
        state = pure_bipartite_from_schmidt(coeffs, 3, 3, seed=24)
        evals = np.linalg.eigvalsh(partial_trace(state, "A").entries)
        np.testing.assert_allclose(np.sort(evals)[::-1][:3], [0.7, 0.2, 0.1], atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError, match="unit square sum"):
            pure_bipartite_from_schmidt([1.0, 0.5], 2, 2, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(DomainError, match="finite"):
            pure_bipartite_from_schmidt([bad, 1.0], 2, 2, seed=0)

    def test_rejects_too_many_coefficients(self):
        with pytest.raises(DomainError, match="at most"):
            pure_bipartite_from_schmidt(np.sqrt([0.4, 0.3, 0.3]), 2, 4, seed=0)

    @pytest.mark.parametrize(
        "d_a, d_b, named", [(2.0, 2, "d_a"), (2, 2.5, "d_b"), (2, True, "d_b")]
    )
    def test_sizes_must_be_integers(self, d_a, d_b, named):
        with pytest.raises(DomainError, match=f"{named} must be an integer"):
            pure_bipartite_from_schmidt([1.0], d_a, d_b, seed=0)


class TestRegisterStates:
    def test_single_block_unchanged(self):
        blk = BipartiteState(random_density(4, 2, seed=41), (2, 2))
        out = build_classical_register_state([blk], [1.0])
        np.testing.assert_allclose(out.entries, blk.entries, atol=1e-14)

    def test_two_pure_blocks(self):
        blocks = [
            BipartiteState(random_density(4, 1, seed=42), (2, 2)),
            BipartiteState(random_density(4, 1, seed=43), (2, 2)),
        ]
        out = build_classical_register_state(blocks, [0.5, 0.5])
        assert out.dims == (2, 4)
        assert np.linalg.matrix_rank(out.entries, tol=1e-10) == 2
        # reduced conditioning-state supports are orthogonal sectors
        rho_b = partial_trace(out, "B").entries
        np.testing.assert_allclose(rho_b[:2, 2:], 0.0, atol=1e-14)

    def test_block_diagonal_marginal(self):
        blocks = [
            BipartiteState(random_density(4, 3, seed=44), (2, 2)),
            BipartiteState(random_density(2, 2, seed=45), (2, 1)),
        ]
        out = build_classical_register_state(blocks, [0.25, 0.75])
        rho_b = partial_trace(out, "B").entries
        np.testing.assert_allclose(rho_b[:2, 2:], 0.0, atol=1e-14)
        assert np.trace(rho_b).real == pytest.approx(1.0)

    def test_rejects_empty_and_bad_probabilities(self):
        blk = BipartiteState(random_density(4, 1, seed=46), (2, 2))
        with pytest.raises(DomainError, match="at least one block"):
            build_classical_register_state([], [])
        with pytest.raises(DomainError, match="probability"):
            build_classical_register_state([blk, blk], [0.7, 0.7])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        blk = BipartiteState(random_density(4, 1, seed=47), (2, 2))
        with pytest.raises(DomainError, match="finite"):
            build_classical_register_state([blk, blk], [bad, 1.0])


class TestEmbedAncilla:
    def test_zero_padding_is_identity(self):
        state = BipartiteState(random_density(4, 2, seed=51), (2, 2))
        assert embed_ancilla(state, 0) is state

    def test_trace_and_entries_preserved(self):
        state = BipartiteState(random_density(6, 3, seed=52), (2, 3))
        padded = embed_ancilla(state, 2)
        assert padded.dims == (2, 5)
        assert padded.trace_value == pytest.approx(1.0)
        t = padded.entries.reshape(2, 5, 2, 5)
        np.testing.assert_allclose(
            t[:, :3, :, :3].reshape(6, 6), state.entries, atol=1e-14
        )
        np.testing.assert_allclose(t[:, 3:, :, 3:], 0.0, atol=1e-14)

    def test_rejects_negative_padding(self):
        state = BipartiteState(random_density(4, 2, seed=53), (2, 2))
        with pytest.raises(DomainError):
            embed_ancilla(state, -1)


class TestExtendWithIdentity:
    def test_matches_kron_action(self):
        phi = random_channel(2, 2, 2, seed=61)
        lifted = extend_with_identity(phi, 3)
        rho = random_density(6, 4, seed=62).entries
        expected = sum(
            np.kron(np.eye(3), k) @ rho @ np.kron(np.eye(3), k).conj().T
            for k in phi.kraus_ops
        )
        np.testing.assert_allclose(apply_channel(lifted, rho), expected, atol=1e-13)
