"""Complex Hermitian linear algebra kernel.

Eigendecompositions are computed with ``numpy.linalg.eigh`` (LAPACK
``heevd``), which is deterministic for fixed input bits.  Every engine reads
the spectrum of a positive operator through one rule, :func:`psd_eigh`: one
eigensolve, a positive semi-definiteness check, and eigenvalues at or below
``RANK_TOL * ||M||`` set to exact zeros (the kernel).  Nothing is merged:
near-equal eigenvalues stay separate, which leaves spectral sums unchanged
because they do not depend on the basis chosen inside an eigenspace.

Tensor index convention: the A index is outer and the B index inner, i.e.
the composite row index is ``i_A * dim_B + i_B`` (the ``numpy.kron``
layout).  All partial traces and subsystem permutations use this
convention.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError

RANK_TOL = 1e-10

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_NORMALIZED_TOL = 1e-10

_FACTOR_LABELS = "ABC"


class HermitianOperator:
    """A square complex matrix that is Hermitian within ``1e-12`` relative tolerance.

    The stored matrix is symmetrized, copied and marked read-only, so instances
    can be shared freely between threads.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        m = as_matrix(entries)
        m.setflags(write=False)
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class DensityOperator(HermitianOperator):
    """Positive semi-definite Hermitian operator with trace in ``(0, 1]``.

    Sub-normalized states (trace strictly below one) are allowed.
    """

    __slots__ = ()

    def __init__(self, entries) -> None:
        super().__init__(entries)
        clamp_psd_spectrum(np.linalg.eigvalsh(self.entries))
        t = self.trace_value
        if not 0.0 < t <= 1.0 + _TRACE_TOL:
            raise DomainError(f"trace bound violated: trace = {t!r}, expected in (0, 1]")

    @property
    def trace_value(self) -> float:
        return float(np.trace(self.entries).real)


class BipartiteState:
    """A normalized density operator together with its tensor factor dimensions."""

    __slots__ = ("rho", "dims")

    def __init__(self, rho, dims: Sequence[int]) -> None:
        if not isinstance(rho, DensityOperator):
            rho = DensityOperator(rho)
        dims = tuple(int(d) for d in dims)
        if len(dims) not in (2, 3) or any(d < 1 for d in dims):
            raise DomainError(f"dims must be two or three positive factors, got {dims}")
        if math.prod(dims) != rho.dim:
            raise DomainError(
                f"dimension mismatch: factors {dims} give {math.prod(dims)}, state has {rho.dim}"
            )
        if abs(rho.trace_value - 1.0) > _NORMALIZED_TOL:
            raise DomainError(
                f"conditional entropies need a normalized state, trace = {rho.trace_value!r}"
            )
        self.rho = rho
        self.dims = dims

    @property
    def entries(self) -> np.ndarray:
        return self.rho.entries

    def __repr__(self) -> str:
        return f"BipartiteState(dims={self.dims})"


def as_matrix(x) -> np.ndarray:
    """Coerce an operator wrapper or array-like to a complex square ndarray.

    A wrapper's entries are returned as they are, since its constructor
    validated them.  A raw array must be finite and Hermitian within
    ``1e-12 * (1 + max|M|)``, and is symmetrized into a new array.
    """
    if isinstance(x, HermitianOperator):
        return x.entries
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    scale = 1.0 + np.abs(m).max(initial=0.0)
    if not math.isfinite(scale):  # max propagates NaN
        raise DomainError("matrix entries must be finite")
    mh = m.conj().T
    defect = np.abs(m - mh).max(initial=0.0)
    if defect > _HERM_TOL * scale:
        raise DomainError(
            f"Hermiticity violated: max |M - M^dag| = {defect:.3e} "
            f"exceeds {_HERM_TOL:.0e} * (1 + max|M|)"
        )
    return (m + mh) / 2.0


def clamp_psd_spectrum(w: np.ndarray) -> np.ndarray:
    """The kernel rule, applied in place to the ascending spectrum of a PSD matrix.

    An eigenvalue below ``-RANK_TOL * ||M||`` is a domain error; eigenvalues
    at or below ``RANK_TOL * ||M||`` become exact zeros, so the kernel is a
    leading block of zeros.  Both thresholds are relative, so the rule does
    not depend on the overall scale of ``M``.
    """
    if not w.size:
        return w
    floor = RANK_TOL * max(w[-1], -w[0])
    if w[0] < -floor:
        raise DomainError(f"positive semi-definiteness violated: eigenvalue {w[0]:.3e}")
    w[w <= floor] = 0.0
    return w


def psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigensystem of a PSD matrix with the kernel clamped to exact zeros.

    One ``eigh`` followed by :func:`clamp_psd_spectrum`, so the eigenvalues
    read ``[0, ..., 0, positive part]``.
    """
    w, v = np.linalg.eigh(m)
    return clamp_psd_spectrum(w), v


def support_projector(A) -> HermitianOperator:
    """Orthogonal projector onto the range of a positive operator.

    The eigenvectors that :func:`psd_eigh` leaves outside the kernel span the
    support; the zero operator maps to the zero projector.
    """
    w, v = psd_eigh(as_matrix(A))
    cols = v[:, w > 0.0]
    return HermitianOperator(cols @ cols.conj().T)


def _factor_indices(keep: str, n_factors: int) -> list[int]:
    labels = _FACTOR_LABELS[:n_factors]
    if not keep or any(c not in labels for c in keep) or len(set(keep)) != len(keep):
        raise DomainError(f"subsystem label {keep!r} invalid for {n_factors} factors")
    idx = sorted(labels.index(c) for c in keep)
    return idx


def _probability_vector(p, name: str = "probability vector") -> np.ndarray:
    """``p`` as a flat float array; a negative entry or a sum off 1 is a domain error."""
    w = np.asarray(p, dtype=float).ravel()
    if (w < 0).any():
        raise DomainError(f"{name} must be entrywise nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-10:
        raise DomainError(f"{name} must sum to 1, got {w.sum()!r}")
    return w


def _schmidt_coefficients(coeffs) -> np.ndarray:
    """Schmidt coefficients as a flat float array: nonnegative with unit square sum."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if (c < 0).any():
        raise DomainError("Schmidt coefficients must be nonnegative")
    if abs(float(np.sum(c**2)) - 1.0) > 1e-10:
        raise DomainError(f"Schmidt coefficients must have unit square sum, got {np.sum(c**2)!r}")
    return c


def ptrace_entries(entries: np.ndarray, dims: Sequence[int], keep_idx: Sequence[int]) -> np.ndarray:
    """Partial trace at the array level, keeping the listed factor indices in order."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if entries.shape != (math.prod(dims),) * 2:
        raise DomainError(
            f"dimension mismatch: matrix of shape {entries.shape} vs factors {dims}"
        )
    t = entries.reshape(*dims, *dims)
    removed = 0
    for ax in sorted(set(range(n)) - set(keep_idx), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + n - removed)
        removed += 1
    d_keep = math.prod(dims[i] for i in keep_idx)
    return np.ascontiguousarray(t.reshape(d_keep, d_keep))


def partial_trace(rho, keep: str, dims: Sequence[int] | None = None) -> DensityOperator:
    """Reduced state over the kept subsystems, e.g. ``keep="B"`` traces out A.

    ``rho`` may be a :class:`BipartiteState` (dims taken from it),
    or any operator together with an explicit ``dims`` tuple.
    """
    if dims is None:
        dims = getattr(rho, "dims", None)
        if dims is None:
            raise DomainError("dims are required unless the state carries them")
    entries = as_matrix(getattr(rho, "rho", rho))
    keep_idx = _factor_indices(keep, len(dims))
    return DensityOperator(ptrace_entries(entries, dims, keep_idx))


def permute_subsystems(entries: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of an operator; ``perm[k]`` is the old index of new factor ``k``."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise DomainError(f"invalid permutation {perm!r} for {n} factors")
    t = entries.reshape(*dims, *dims)
    axes = [*perm, *(p + n for p in perm)]
    d = math.prod(dims)
    return np.ascontiguousarray(t.transpose(axes).reshape(d, d))

