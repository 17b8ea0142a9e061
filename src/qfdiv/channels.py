"""Quantum channels in Kraus form and seeded random object generators.

Randomness follows the conventions of :mod:`qfdiv.rng`: Philox keyed by the
caller's seed, Gaussians via Box-Muller, Haar isometries via phase-fixed QR.
Every generator is a pure function of its arguments, so equal seeds reproduce
bit-identical objects.

The state builders check their inputs and wrap their results, which are states
by construction, without the constructor's eigensolve; likewise the channel
builders skip the constructor's copy and checks.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import rng
from .errors import DomainError
from .linalg import (
    BipartiteState,
    DensityOperator,
    _factor_dims,
    _factored_dims,
    _integer,
    _probability_vector,
    _schmidt_coefficients,
    as_matrix,
)

_TPCP_TOL = 1e-9


class KrausChannel:
    """A trace-preserving completely positive map ``X -> sum_n K_n X K_n^dag``.

    The Kraus operators are one read-only complex array ``kraus_ops`` of shape
    ``(n, d_out, d_in)``; the dimensions are read from that shape.  Channels
    compare and hash by identity.  The constructor copies the operators and
    rejects an empty set, operators of different shapes, non-finite entries
    and a completeness defect above ``1e-9``; the random channel builders wrap
    operators that are complete by construction with :meth:`_from_valid`,
    which neither copies nor checks.
    """

    __slots__ = ("kraus_ops",)

    def __init__(self, kraus_ops) -> None:
        try:
            ops = np.array(kraus_ops, dtype=np.complex128)
        except ValueError:
            raise DomainError("Kraus operators must share one 2-D shape") from None
        if ops.shape[:1] == (0,):
            raise DomainError("a channel needs at least one Kraus operator")
        if ops.ndim != 3 or 0 in ops.shape:
            raise DomainError(f"Kraus operators must share one nonempty 2-D shape, got {ops.shape}")
        if not np.isfinite(ops).all():
            raise DomainError("Kraus operator entries must be finite")
        acc = (ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0)
        defect = float(np.abs(acc - np.eye(ops.shape[2])).max())
        if not defect <= _TPCP_TOL:  # written this way round so that NaN fails
            raise DomainError(
                f"trace preservation violated: max |sum K^dag K - 1| = {defect:.3e}"
            )
        ops.setflags(write=False)
        self.kraus_ops = ops

    @staticmethod
    def _from_valid(ops: np.ndarray) -> KrausChannel:
        """Wrap a complex ``(n, d_out, d_in)`` array of operators complete by construction.

        The array is made read-only in place, neither copied nor checked.
        """
        ops.setflags(write=False)
        phi = object.__new__(KrausChannel)
        phi.kraus_ops = ops
        return phi

    @property
    def d_in(self) -> int:
        return self.kraus_ops.shape[2]

    @property
    def d_out(self) -> int:
        return self.kraus_ops.shape[1]

    def __repr__(self) -> str:
        return f"KrausChannel(n={len(self.kraus_ops)}, d_in={self.d_in}, d_out={self.d_out})"


def apply_channel(phi: KrausChannel, rho) -> np.ndarray:
    """The Hermitian ndarray ``sum_n K_n rho K_n^dag``, for a wrapped or a raw input.

    The output is not validated; wrap it in a :class:`DensityOperator` or a
    :class:`BipartiteState` where a checked state is needed.
    """
    m = as_matrix(rho)
    if m.shape[0] != phi.d_in:
        raise DomainError(f"dimension mismatch: channel input {phi.d_in}, state {m.shape[0]}")
    k = phi.kraus_ops
    out = (k @ m @ k.conj().transpose(0, 2, 1)).sum(axis=0)
    return (out + out.conj().T) / 2.0


def random_channel(d_in: int, d_out: int, env_dim: int, seed: int) -> KrausChannel:
    """Haar-random channel from a random isometry into output (x) environment.

    The isometry ``V : d_in -> d_out * env_dim`` is drawn Haar (QR with phase
    fixing); Kraus operators are its environment slices.  Deterministic per seed.
    """
    d_in, d_out = _integer(d_in, "d_in", least=1), _integer(d_out, "d_out", least=1)
    env_dim = _integer(env_dim, "env_dim", least=1)
    if d_out * env_dim < d_in:
        raise DomainError(
            f"need d_out * env_dim >= d_in for an isometry, got {d_out}*{env_dim} < {d_in}"
        )
    v = rng.haar_isometry(rng.generator(seed), d_out * env_dim, d_in)
    return KrausChannel._from_valid(v.reshape(d_out, env_dim, d_in).transpose(1, 0, 2).copy())


def random_density(d: int, rank: int, seed: int) -> DensityOperator:
    """Normalized ``G G^dag`` for a ``d x rank`` complex Gaussian ``G``."""
    d, rank = _integer(d, "dimension", least=1), _integer(rank, "rank", least=1)
    if rank > d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    g = rng.complex_gaussian(rng.generator(seed), (d, rank))
    m = g @ g.conj().T
    return DensityOperator._from_valid(m / m.trace().real)


def random_bipartite(dims: Sequence[int], rank: int, seed: int) -> BipartiteState:
    """Random multi-factor state: ``random_density`` on the product space plus dims."""
    dims = _factor_dims(dims)
    return BipartiteState(random_density(math.prod(dims), rank, seed), dims)


def pure_bipartite_from_schmidt(
    coeffs: Sequence[float],
    d_a: int,
    d_b: int,
    seed: int,
) -> BipartiteState:
    """Pure bipartite state with the given Schmidt coefficients in Haar-random bases."""
    c = _schmidt_coefficients(coeffs)
    d_a, d_b = _integer(d_a, "d_a", least=1), _integer(d_b, "d_b", least=1)
    if c.size > min(d_a, d_b):
        raise DomainError(f"at most min({d_a}, {d_b}) Schmidt coefficients allowed")
    gen = rng.generator(seed)
    u_a = rng.haar_isometry(gen, d_a, d_a)[:, : c.size].T
    u_b = rng.haar_isometry(gen, d_b, d_b)[:, : c.size].T
    # term i is c_i (u_a[:, i] (x) u_b[:, i]); accumulate adds the terms in order
    terms = c[:, None, None] * (u_a[:, :, None] * u_b[:, None, :])
    psi = np.add.accumulate(terms)[-1].reshape(-1)
    return BipartiteState(DensityOperator._from_valid(psi[:, None] * psi.conj()), (d_a, d_b))


def extend_with_identity(phi: KrausChannel, d_left: int) -> KrausChannel:
    """Tensor the identity on a left factor: ``id (x) phi`` acting on B of an AB state."""
    d_left = _integer(d_left, "d_left", least=1)
    # the products np.kron(np.eye(d_left), ops) forms, in its operand order
    ops = np.eye(d_left)[:, None, :, None] * phi.kraus_ops[:, None, :, None, :]
    return KrausChannel._from_valid(ops.reshape(len(ops), d_left * phi.d_out, d_left * phi.d_in))


def _sectors(d_a: int, blocks: Sequence[np.ndarray], d_b: int) -> np.ndarray:
    """Block ``y``, an operator on ``A (x) B_y``, on the ``y``-th slice of B; zeros elsewhere.

    The slices run in order from the start of B; with ``d_a = 1`` this is a direct sum.
    """
    out = np.zeros((d_a, d_b, d_a, d_b), dtype=np.complex128)
    lo = 0
    for block in blocks:
        d = len(block) // d_a
        out[:, lo : lo + d, :, lo : lo + d] = block.reshape(d_a, d, d_a, d)
        lo += d
    return out.reshape(d_a * d_b, d_a * d_b)


def build_classical_register_state(
    blocks: Sequence[BipartiteState],
    p: Sequence[float],
) -> BipartiteState:
    """Mix bipartite blocks into orthogonal sectors of the conditioning factor.

    Block ``y`` is embedded into its own slice of the direct-sum B space (in
    input order), so both the joint and the reduced supports of distinct
    blocks are orthogonal by construction.
    """
    if not blocks:
        raise DomainError("at least one block is required")
    w = _probability_vector(p)
    if w.size != len(blocks):
        raise DomainError("probability vector length must match the number of blocks")
    dims = [_factored_dims(b, 2) for b in blocks]
    d_a = dims[0][0]
    if any(d[0] != d_a for d in dims):
        raise DomainError("blocks must share the first factor dimension")
    d_b = sum(d[1] for d in dims)
    out = _sectors(d_a, [weight * b.entries for weight, b in zip(w, blocks)], d_b)
    return BipartiteState(DensityOperator._from_valid(out), (d_a, d_b))


def embed_ancilla(state: BipartiteState, extra_b_dim: int) -> BipartiteState:
    """Zero-pad B of a two-factor state by ``extra_b_dim``; ``_factored_dims`` checks it."""
    extra_b_dim = _integer(extra_b_dim, "extra_b_dim", least=0)
    d_a, d_b = _factored_dims(state, 2)
    if extra_b_dim == 0:
        return state
    out = _sectors(d_a, [state.entries], d_b + extra_b_dim)
    return BipartiteState(DensityOperator._from_valid(out), (d_a, d_b + extra_b_dim))
