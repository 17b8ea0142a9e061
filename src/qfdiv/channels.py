"""Quantum channels in Kraus form and seeded random object generators.

Randomness follows the conventions of :mod:`qfdiv.rng`: Philox keyed by the
caller's seed, Gaussians via Box-Muller, Haar isometries via phase-fixed QR.
Every generator is a pure function of its arguments, so equal seeds reproduce
bit-identical objects.

The state builders check their inputs and wrap their results, which are states
by construction, without the constructor's eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .errors import DomainError
from .linalg import (
    BipartiteState,
    DensityOperator,
    _probability_vector,
    _schmidt_coefficients,
    as_matrix,
)

_TPCP_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving completely positive map ``X -> sum_n K_n X K_n^dag``."""

    kraus_ops: tuple[np.ndarray, ...]
    d_in: int
    d_out: int

    def __post_init__(self) -> None:
        if not self.kraus_ops:
            raise DomainError("a channel needs at least one Kraus operator")
        ops = []
        for k in self.kraus_ops:
            m = np.array(k, dtype=np.complex128)
            if m.shape != (self.d_out, self.d_in):
                raise DomainError(
                    f"Kraus operator shape {m.shape} != ({self.d_out}, {self.d_in})"
                )
            m.setflags(write=False)
            ops.append(m)
        object.__setattr__(self, "kraus_ops", tuple(ops))
        defect = _completeness_defect(self)
        if defect > _TPCP_TOL:
            raise DomainError(
                f"trace preservation violated: max |sum K^dag K - 1| = {defect:.3e}"
            )


def _completeness_defect(phi: KrausChannel) -> float:
    acc = sum(k.conj().T @ k for k in phi.kraus_ops)
    return float(np.abs(acc - np.eye(phi.d_in)).max())


def apply_channel(phi: KrausChannel, rho) -> np.ndarray:
    """The Hermitian ndarray ``sum_n K_n rho K_n^dag``, for a wrapped or a raw input.

    The output is not validated; wrap it in a :class:`DensityOperator` or a
    :class:`BipartiteState` where a checked state is needed.
    """
    m = as_matrix(rho)
    if m.shape[0] != phi.d_in:
        raise DomainError(f"dimension mismatch: channel input {phi.d_in}, state {m.shape[0]}")
    out = np.zeros((phi.d_out, phi.d_out), dtype=np.complex128)
    for k in phi.kraus_ops:
        out += k @ m @ k.conj().T
    return (out + out.conj().T) / 2.0


def random_channel(d_in: int, d_out: int, env_dim: int, seed: int) -> KrausChannel:
    """Haar-random channel from a random isometry into output (x) environment.

    The isometry ``V : d_in -> d_out * env_dim`` is drawn Haar (QR with phase
    fixing); Kraus operators are its environment slices.  Deterministic per seed.
    """
    if d_in < 1 or d_out < 1 or env_dim < 1:
        raise DomainError("dimensions must be positive")
    if d_out * env_dim < d_in:
        raise DomainError(
            f"need d_out * env_dim >= d_in for an isometry, got {d_out}*{env_dim} < {d_in}"
        )
    gen = rng.generator(seed)
    v = rng.haar_isometry(gen, d_out * env_dim, d_in)
    blocks = v.reshape(d_out, env_dim, d_in)
    ops = tuple(np.ascontiguousarray(blocks[:, e, :]) for e in range(env_dim))
    return KrausChannel(ops, d_in=d_in, d_out=d_out)


def random_density(d: int, rank: int, seed: int) -> DensityOperator:
    """Normalized ``G G^dag`` for a ``d x rank`` complex Gaussian ``G``."""
    if not 1 <= rank <= d:
        raise DomainError(f"rank must lie in [1, {d}], got {rank}")
    g = rng.complex_gaussian(rng.generator(seed), (d, rank))
    m = g @ g.conj().T
    return DensityOperator._from_valid(m / np.trace(m).real)


def random_bipartite(dims: Sequence[int], rank: int, seed: int) -> BipartiteState:
    """Random multi-factor state: ``random_density`` on the product space plus dims."""
    dims = tuple(int(d) for d in dims)
    return BipartiteState(random_density(math.prod(dims), rank, seed), dims)


def pure_bipartite_from_schmidt(
    coeffs: Sequence[float],
    d_a: int,
    d_b: int,
    seed: int,
) -> BipartiteState:
    """Pure bipartite state with the given Schmidt coefficients in Haar-random bases."""
    c = _schmidt_coefficients(coeffs)
    if c.size > min(d_a, d_b):
        raise DomainError(f"at most min({d_a}, {d_b}) Schmidt coefficients allowed")
    gen = rng.generator(seed)
    u_a = rng.haar_isometry(gen, d_a, d_a)
    u_b = rng.haar_isometry(gen, d_b, d_b)
    psi = np.zeros(d_a * d_b, dtype=np.complex128)
    for i, ci in enumerate(c):
        psi += ci * np.kron(u_a[:, i], u_b[:, i])
    return BipartiteState(DensityOperator._from_valid(np.outer(psi, psi.conj())), (d_a, d_b))


def extend_with_identity(phi: KrausChannel, d_left: int) -> KrausChannel:
    """Tensor the identity on a left factor: ``id (x) phi`` acting on B of an AB state."""
    eye = np.eye(d_left)
    ops = tuple(np.kron(eye, k) for k in phi.kraus_ops)
    return KrausChannel(ops, d_in=d_left * phi.d_in, d_out=d_left * phi.d_out)


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
    if any(len(b.dims) != 2 for b in blocks):
        raise DomainError("blocks must be two-factor states")
    d_a = blocks[0].dims[0]
    if any(b.dims[0] != d_a for b in blocks):
        raise DomainError("blocks must share the first factor dimension")
    d_bs = [b.dims[1] for b in blocks]
    d_b = sum(d_bs)
    out = np.zeros((d_a, d_b, d_a, d_b), dtype=np.complex128)
    offset = 0
    for weight, block, d in zip(w, blocks, d_bs):
        t = block.entries.reshape(d_a, d, d_a, d)
        out[:, offset : offset + d, :, offset : offset + d] += weight * t
        offset += d
    dim = d_a * d_b
    return BipartiteState(DensityOperator._from_valid(out.reshape(dim, dim)), (d_a, d_b))


def embed_ancilla(state: BipartiteState, extra_b_dim: int) -> BipartiteState:
    """Zero-pad the conditioning factor of a two-factor state by ``extra_b_dim``."""
    extra_b_dim = int(extra_b_dim)
    if extra_b_dim < 0:
        raise DomainError(f"extra_b_dim must be nonnegative, got {extra_b_dim}")
    if len(state.dims) != 2:
        raise DomainError("embed_ancilla expects a two-factor state")
    if extra_b_dim == 0:
        return state
    d_a, d_b = state.dims
    padded = d_b + extra_b_dim
    out = np.zeros((d_a, padded, d_a, padded), dtype=np.complex128)
    out[:, :d_b, :, :d_b] = state.entries.reshape(d_a, d_b, d_a, d_b)
    dim = d_a * padded
    return BipartiteState(DensityOperator._from_valid(out.reshape(dim, dim)), (d_a, padded))
