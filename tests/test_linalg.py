import json
import re

import numpy as np
import pytest

import qfdiv
from qfdiv import _lapack, channels
from qfdiv.cli import parse_matrix_file
from qfdiv.condent import OptimizerOptions, chain_rule_rhs
from qfdiv.errors import DomainError
from qfdiv.fdiv import make_tsallis_f, quantum_f_divergence
from qfdiv.linalg import (
    RANK_TOL,
    BipartiteState,
    DensityOperator,
    _probability_vector,
    _schmidt_coefficients,
    as_matrix,
    clamp_psd_spectrum,
    partial_trace,
    psd_eigh,
    ptrace_entries,
)
from qfdiv.propsuite import PropertyConfig

from conftest import bell_matrix, random_hermitian, support_projector

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

    # one tolerance for a unit trace: 1 +- 5e-11 passes both types and 1 + 2e-10
    # neither; 1 - 2e-10 is a sub-normalized density operator, not a normalized state
    @pytest.mark.parametrize("offset", [5e-11, -5e-11])
    def test_unit_trace_within_tolerance(self, offset):
        m = np.eye(4) / 4 * (1 + offset)
        assert DensityOperator(m).trace_value == pytest.approx(1 + offset, abs=1e-15)
        assert BipartiteState(m, (2, 2)).trace_value == pytest.approx(1 + offset, abs=1e-15)

    def test_unit_trace_beyond_tolerance(self):
        heavy, light = np.eye(4) / 4 * (1 + 2e-10), np.eye(4) / 4 * (1 - 2e-10)
        for build in (DensityOperator, lambda m: BipartiteState(m, (2, 2))):
            with pytest.raises(DomainError, match="trace bound"):
                build(heavy)
        assert DensityOperator(light).trace_value < 1.0
        with pytest.raises(DomainError, match="normalized state"):
            BipartiteState(light, (2, 2))

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


class TestUnitSums:
    """A probability vector's sum and a Schmidt vector's square sum may be off 1
    by the unit-trace tolerance, 1e-10, either way, and no further."""

    @staticmethod
    def vectors(offset):
        p = np.array([0.25, 0.75]) * (1 + offset)
        return p, np.sqrt(p)

    @pytest.mark.parametrize("offset", [5e-11, -5e-11])
    def test_within_tolerance(self, offset):
        p, c = self.vectors(offset)
        np.testing.assert_array_equal(_probability_vector(p), p)
        np.testing.assert_array_equal(_schmidt_coefficients(c), c)

    @pytest.mark.parametrize("offset", [2e-10, -2e-10])
    def test_beyond_tolerance(self, offset):
        p, c = self.vectors(offset)
        with pytest.raises(DomainError, match="sum to 1"):
            _probability_vector(p)
        with pytest.raises(DomainError, match="unit square sum"):
            _schmidt_coefficients(c)


class TestAsMatrix:
    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 3), (2,)])
    def test_rejects_anything_but_one_square_matrix(self, shape):
        # a stack included: as_matrix checks one matrix
        with pytest.raises(DomainError, match="expected a square matrix"):
            as_matrix(np.zeros(shape))

    def test_rejects_non_hermitian_array(self):
        with pytest.raises(DomainError, match="Hermiticity"):
            as_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_array(self, bad):
        with pytest.raises(DomainError, match="finite"):
            as_matrix(np.diag([1.0, bad]))
        with pytest.raises(DomainError, match="finite"):
            DensityOperator(np.diag([1.0, bad]))

    @pytest.mark.parametrize(
        "m",
        [
            *(
                mk(big)
                for big in (1e308, -9e307, 9e307j, 1.5e308 + 1.5e308j, np.finfo(float).max * (1 + 1j))
                for mk in (lambda z: np.full((2, 2), z), lambda z: np.diag([0.5, z]))
            ),
            # 8e307 symmetrizes without overflow, but the trace of the first and
            # the top eigenvalue of the second are 2.4e308
            np.diag(np.full(3, 8e307)),
            np.full((3, 3), 8e307),
        ],
    )
    def test_rejects_entries_whose_symmetrization_would_overflow(self, m):
        # one error, and no overflow warning on the way (warnings are errors here)
        bound = np.finfo(float).max / (2 * m.shape[0])
        message = re.escape(f"finite and of modulus at most {bound:.3e}")
        with pytest.raises(DomainError, match=message):
            as_matrix(m)
        with pytest.raises(DomainError, match=message):
            DensityOperator(m)

    def test_entries_at_the_modulus_bound_pass_without_overflow(self):
        z = np.finfo(float).max / 4 * np.exp(0.25j * np.pi)
        m = np.array([[0.0, z], [np.conj(z), 0.0]])
        assert as_matrix(m).tobytes() == m.tobytes()
        # M - M^dag reaches 2|z|, which is finite: a Hermiticity error, not an overflow
        with pytest.raises(DomainError, match="Hermiticity"):
            as_matrix(np.array([[0.0, z], [-np.conj(z), 0.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_trace_and_spectrum_at_the_bound_stay_finite(self, d):
        # every entry at finfo.max / (2 d): trace and top eigenvalue are finfo.max / 2
        m = as_matrix(np.full((d, d), np.finfo(float).max / (2 * d)))
        w = _lapack.eigvalsh(m)
        assert np.isfinite(w).all() and np.isfinite(m.trace())
        assert w[-1] == pytest.approx(np.finfo(float).max / 2, rel=1e-12)
        with pytest.raises(DomainError, match="trace bound violated: trace = 8.98"):
            DensityOperator(m)

    def test_symmetrizes_a_new_array(self):
        m = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        out = as_matrix(m)
        assert out is not m
        np.testing.assert_array_equal(out, out.conj().T)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_symmetrizes_bitwise_into_a_new_c_ordered_array(self, order):
        # Hermitian up to a perturbation well inside the tolerance, so the
        # symmetrization moves bits
        m = random_hermitian(6, seed=31)
        m[4, 1] += 3e-13 * (1 + 1j)
        m = np.array(m, order=order)
        out = as_matrix(m)
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, m)
        expected = np.ascontiguousarray((m + m.conj().T) / 2.0)
        assert not np.array_equal(expected, m)
        assert out.tobytes() == expected.tobytes()

    def test_wrapped_entries_pass_through(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert as_matrix(rho) is rho.entries


class TestPsdEigh:
    def test_kernel_is_a_leading_block_of_exact_zeros(self):
        w, v, k = psd_eigh(np.diag([0.5, 0.0, 0.5, 1e-14]))
        np.testing.assert_array_equal(w, [0.0, 0.0, 0.5, 0.5])
        assert k == 2
        np.testing.assert_allclose(np.abs(v[:, :2]).sum(axis=1), [0, 1, 0, 1], atol=1e-14)

    @pytest.mark.parametrize("lam", [1.0, 1e-9, 1e-12])
    def test_floor_is_relative_to_the_norm(self, lam):
        # a 1e-9 eigenvalue is support and a 1e-11 one kernel, at every scale
        w, _, _ = psd_eigh(lam * np.diag([1.0, 1e-9, 1e-11]))
        np.testing.assert_array_equal(w == 0.0, [True, False, False])
        assert w[1] == pytest.approx(lam * 1e-9)

    def test_near_equal_eigenvalues_stay_separate(self):
        w, _, _ = psd_eigh(np.diag([0.5, 0.5 + 1e-12, 1e-9]))
        assert w[0] == 1e-9
        assert w[1] != w[2]

    @pytest.mark.parametrize("dim", [2, 5, 9, 16])
    def test_reconstruction(self, dim):
        rho = channels.random_density(dim, max(1, dim // 2), seed=100 + dim).entries
        w, v, _ = psd_eigh(rho)
        np.testing.assert_allclose((v * w) @ v.conj().T, rho, atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError, match="semi-definiteness"):
            psd_eigh(PAULI_X)

    @pytest.mark.parametrize("w", [[np.nan, 0.5, 1.0], [0.0, 0.5, np.nan], [np.nan] * 3])
    def test_rejects_a_nan_at_either_end(self, w):
        with pytest.raises(DomainError, match="semi-definiteness"):
            clamp_psd_spectrum(np.array(w))

    def test_kernel_slice_is_the_mask_rule(self):
        # floor = RANK_TOL * 1.0: values at or below it, ties and -0.0 included, are kernel
        floor = RANK_TOL * 1.0
        w = np.array([-floor, -0.0, 0.0, 1e-12, floor, np.nextafter(floor, 1.0), 0.5, 0.5, 1.0])
        want = np.where(w <= floor, 0.0, w)
        got = w.copy()
        clamp_psd_spectrum(got)
        assert got.tobytes() == want.tobytes()
        zeros = np.zeros(3)
        clamp_psd_spectrum(zeros)
        assert zeros.tobytes() == np.zeros(3).tobytes()

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


class TestKernelSize:
    """``clamp_psd_spectrum`` returns the size ``k`` of the kernel it sets to zero: ``w[:k]``."""

    def test_one_spectrum(self):
        w = np.array([-1e-12, 0.0, 1e-11, 0.3, 1.0])
        k = clamp_psd_spectrum(w)
        assert type(k) is int and k == 3
        assert (w[:k] == 0.0).all() and (w[k:] > 0.0).all()

    def test_stack_with_mixed_sizes(self):
        rows = np.array(
            [[-1e-12, 1e-11, 0.5, 1.0], [1e-3, 0.2, 0.3, 0.5], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1e-9, 1.0]]
        )
        k = clamp_psd_spectrum(rows)
        assert k.tolist() == [2, 0, 4, 2]
        assert k.tolist() == np.count_nonzero(rows == 0.0, axis=-1).tolist()

    def test_empty_spectrum(self):
        assert clamp_psd_spectrum(np.zeros(0)) == 0
        assert clamp_psd_spectrum(np.zeros((3, 0))).tolist() == [0, 0, 0]

    def test_zero_operator_is_all_kernel(self):
        w, _, k = psd_eigh(np.zeros((3, 3)))
        assert k == 3 and w.tolist() == [0.0] * 3
        assert clamp_psd_spectrum(np.zeros((2, 3))).tolist() == [3, 3]


class TestSupportProjector:
    """The support of a positive operator, read from ``psd_eigh``'s eigenvectors outside the kernel."""

    def test_diagonal(self):
        p = support_projector(np.diag([0.5, 0.5, 0.0]))
        np.testing.assert_allclose(p, np.diag([1, 1, 0]), atol=1e-12)

    def test_returns_a_hermitian_array(self):
        p = support_projector(channels.random_density(4, 2, seed=2))
        assert type(p) is np.ndarray
        np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
        np.testing.assert_allclose(p @ p, p, atol=1e-14)
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
        joint = BipartiteState(np.kron(rho_a, rho_b), (2, 3))
        np.testing.assert_allclose(partial_trace(joint, "B").entries, rho_b, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, "A").entries, rho_a, atol=1e-12)

    def test_bell_reduction(self):
        reduced = partial_trace(BipartiteState(bell_matrix(), (2, 2)), "B")
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rho = channels.random_density(6, 4, seed=7)
        reduced = partial_trace(BipartiteState(rho, (2, 3)), "A")
        assert reduced.trace_value == pytest.approx(rho.trace_value)

    def test_linearity(self):
        a = channels.random_density(4, 4, seed=8).entries
        b = channels.random_density(4, 2, seed=9).entries
        mixed = ptrace_entries(0.3 * a + 0.7 * b, (2, 2), [1])
        split = 0.3 * ptrace_entries(a, (2, 2), [1]) + 0.7 * ptrace_entries(b, (2, 2), [1])
        np.testing.assert_allclose(mixed, split, atol=1e-15)

    def test_bad_label(self):
        with pytest.raises(DomainError, match="label"):
            partial_trace(BipartiteState(np.eye(4) / 4, (2, 2)), "C")

    def test_range_inclusion_of_reduced_supports(self):
        # joint support sits inside the product of the marginal supports
        for t in range(200):
            d_a, d_b = (2, 2) if t % 2 else (2, 3)
            rho = channels.random_density(d_a * d_b, 1 + t % (d_a * d_b), seed=3000 + t)
            state = BipartiteState(rho, (d_a, d_b))
            pa = support_projector(partial_trace(state, "A"))
            pb = support_projector(partial_trace(state, "B"))
            lifted = np.kron(pa, pb)
            assert np.abs(lifted @ rho.entries - rho.entries).max() <= 1e-8



class TestIntegerDimensions:
    """A dimension is an integer, numpy's included, and is never truncated."""

    STATE = np.eye(4) / 4

    @pytest.mark.parametrize(
        "dims", [(2.5, 2), (2.0, 2), ("x", 2), ("2", 2), ([2], 2), 4, None, 4.0, (True, 4)]
    )
    def test_state_rejects_non_integer_dims(self, dims):
        with pytest.raises(DomainError, match="dims"):
            BipartiteState(self.STATE, dims)

    def test_state_accepts_numpy_integers(self):
        state = BipartiteState(self.STATE, np.array([2, 2]))
        assert state.dims == (2, 2)
        assert all(type(d) is int for d in state.dims)
        assert BipartiteState(self.STATE, (np.int32(2), np.int64(2))).dims == (2, 2)

    @pytest.mark.parametrize("dims", [(2.5, 2), (2.0, 2), 4])
    def test_random_state_rejects_non_integer_dims(self, dims):
        with pytest.raises(DomainError, match="dims"):
            channels.random_bipartite(dims, 2, seed=1)

    def test_random_state_accepts_numpy_integers(self):
        state = channels.random_bipartite(np.array([2, 3]), 2, seed=1)
        assert state.dims == (2, 3)
        np.testing.assert_array_equal(
            state.entries, channels.random_bipartite((2, 3), 2, seed=1).entries
        )

    @pytest.mark.parametrize("extra", [1.7, 1.0, "1"])
    def test_ancilla_rejects_non_integer_padding(self, extra):
        with pytest.raises(DomainError, match="extra_b_dim"):
            channels.embed_ancilla(BipartiteState(self.STATE, (2, 2)), extra)

    def test_ancilla_accepts_numpy_integers(self):
        padded = channels.embed_ancilla(BipartiteState(self.STATE, (2, 2)), np.int64(1))
        assert padded.dims == (2, 3)

    @pytest.mark.parametrize("d_c", [2.9, 2.0, None])
    def test_chain_rule_rejects_non_integer_dimension(self, d_c):
        with pytest.raises(DomainError, match="d_C"):
            chain_rule_rhs(0.1, d_c, 0.5)

    def test_chain_rule_accepts_numpy_integers(self):
        assert chain_rule_rhs(0.1, np.int64(2), 0.5) == chain_rule_rhs(0.1, 2, 0.5)


# every public entry point that reads factor dims, and whether it needs exactly two factors
_DIMS_READERS = {
    "conditional_entropy_optimize": (
        lambda s: qfdiv.conditional_entropy_optimize(s, make_tsallis_f(0.5)), False
    ),
    "conditional_entropy_tsallis_closed": (
        lambda s: qfdiv.conditional_entropy_tsallis_closed(s, 0.5), False
    ),
    "thm2_bounds": (lambda s: qfdiv.thm2_bounds(s, make_tsallis_f(0.5)), False),
    "partial_trace": (lambda s: partial_trace(s, "B"), False),
    "embed_ancilla": (lambda s: channels.embed_ancilla(s, 1), True),
    "build_classical_register_state": (
        lambda s: channels.build_classical_register_state([s], [1.0]), True
    ),
}
_UNFACTORED = {
    "ndarray": lambda: np.eye(8) / 8,
    "DensityOperator": lambda: DensityOperator(np.eye(8) / 8),
    "three-factor": lambda: BipartiteState(np.eye(8) / 8, (2, 2, 2)),
}


@pytest.mark.parametrize(
    "reader, argument",
    [
        (reader, argument)
        for reader, (_, two_factors) in _DIMS_READERS.items()
        for argument in _UNFACTORED
        if two_factors or argument != "three-factor"
    ],
)
def test_readers_of_dims_refuse_what_has_none(reader, argument):
    """Each reader of factor dims refuses an argument without them, or with the
    wrong number, with one domain error that names dims."""
    call, _ = _DIMS_READERS[reader]
    with pytest.raises(DomainError, match="dims"):
        call(_UNFACTORED[argument]())


def _matrix_file(tmp_path, dim):
    """Parse a matrix file with the given ``dim`` and the one entry 1."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": dim, "re": [1.0], "im": [0.0]}))
    return parse_matrix_file(str(path))


_TWO_BY_TWO = np.eye(2) / 2

# every entry point that takes a bounded integer: (name in the message, least, call)
BOUNDED_INTEGERS = {
    "random_channel d_in": ("d_in", 1, lambda v, tmp: channels.random_channel(v, 1, 1, seed=0)),
    "random_channel d_out": ("d_out", 1, lambda v, tmp: channels.random_channel(1, v, 1, seed=0)),
    "random_channel env_dim": (
        "env_dim", 1, lambda v, tmp: channels.random_channel(1, 1, v, seed=0)
    ),
    "random_density d": ("dimension", 1, lambda v, tmp: channels.random_density(v, 1, seed=0)),
    "random_density rank": ("rank", 1, lambda v, tmp: channels.random_density(2, v, seed=0)),
    "pure_bipartite_from_schmidt d_a": (
        "d_a", 1, lambda v, tmp: channels.pure_bipartite_from_schmidt([1.0], v, 2, seed=0)
    ),
    "pure_bipartite_from_schmidt d_b": (
        "d_b", 1, lambda v, tmp: channels.pure_bipartite_from_schmidt([1.0], 2, v, seed=0)
    ),
    "extend_with_identity d_left": (
        "d_left",
        1,
        lambda v, tmp: channels.extend_with_identity(channels.random_channel(2, 2, 1, seed=0), v),
    ),
    "random_bipartite dims": (
        "dims: each dimension", 1, lambda v, tmp: channels.random_bipartite((v, 2), 1, seed=0)
    ),
    "BipartiteState dims": (
        "dims: each dimension", 1, lambda v, tmp: BipartiteState(_TWO_BY_TWO, (v, 2))
    ),
    "embed_ancilla": (
        "extra_b_dim",
        0,
        lambda v, tmp: channels.embed_ancilla(BipartiteState(np.eye(4) / 4, (2, 2)), v),
    ),
    "chain_rule_rhs d_C": ("d_C", 1, lambda v, tmp: chain_rule_rhs(0.1, v, 0.5)),
    "OptimizerOptions max_iters": ("max_iters", 0, lambda v, tmp: OptimizerOptions(max_iters=v)),
    "PropertyConfig trials": ("trials", 0, lambda v, tmp: PropertyConfig(trials=v)),
    "matrix file dim": ("dim", 1, lambda v, tmp: _matrix_file(tmp, v)),
}


@pytest.mark.parametrize("entry", BOUNDED_INTEGERS)
class TestBoundedIntegers:
    """Each bounded integer goes through ``linalg._integer``: one bound check, one message."""

    def test_below_least_is_refused(self, entry, tmp_path):
        name, least, call = BOUNDED_INTEGERS[entry]
        message = f"{name} must be at least {least}, got {least - 1}"
        with pytest.raises(DomainError, match=re.escape(message)):
            call(least - 1, tmp_path)

    def test_least_is_accepted(self, entry, tmp_path):
        name, least, call = BOUNDED_INTEGERS[entry]
        call(least, tmp_path)

    @pytest.mark.parametrize("value", [True, 2.0])
    def test_non_integer_is_refused(self, entry, tmp_path, value):
        name, least, call = BOUNDED_INTEGERS[entry]
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            call(value, tmp_path)
