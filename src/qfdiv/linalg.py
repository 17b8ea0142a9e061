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
layout).  All partial traces use this convention.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import DomainError

RANK_TOL = 1e-10

_HERM_TOL = 1e-12
_NORMALIZED_TOL = 1e-10  # how far a unit trace, probability sum or square sum may be off 1

_FACTOR_LABELS = "ABC"


class DensityOperator:
    """Positive semi-definite Hermitian operator with trace in ``(0, 1 + 1e-10]``.

    The stored matrix is symmetrized, copied and marked read-only, so instances
    can be shared freely between threads.  Sub-normalized states (trace
    strictly below one) are allowed.

    Validation runs at the boundary: the constructor checks finiteness,
    Hermiticity, the spectrum and the trace of whatever it is given, raw
    arrays and matrix files included.  Builders whose result is a density
    operator by construction from validated parts (``random_density``, the
    Schmidt, register and ancilla builders in :mod:`qfdiv.channels`, and
    :func:`partial_trace` of a wrapped state) wrap it with
    :meth:`_from_valid`, which skips those checks.  Every engine still reads
    a spectrum through :func:`psd_eigh`, which rejects a negative eigenvalue.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        m = as_matrix(entries)
        m.setflags(write=False)
        clamp_psd_spectrum(np.linalg.eigvalsh(m))
        self.entries = m
        t = self.trace_value
        if not 0.0 < t <= 1.0 + _NORMALIZED_TOL:
            raise DomainError(f"trace bound violated: trace = {t!r}, expected in (0, 1]")

    @staticmethod
    def _from_valid(m: np.ndarray) -> DensityOperator:
        """Wrap a matrix that is a density operator by construction, without checking it.

        The entries are symmetrized and made read-only exactly as the
        constructor does, so they are bitwise equal to ``DensityOperator(m)``'s.
        """
        m = np.asarray(m, dtype=np.complex128)
        op = object.__new__(DensityOperator)
        op.entries = (m + m.conj().T) / 2.0
        op.entries.setflags(write=False)
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace_value(self) -> float:
        return float(self.entries.trace().real)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class BipartiteState(DensityOperator):
    """A normalized density operator together with its tensor factor dimensions.

    A :class:`DensityOperator` argument lends its validated entries; anything
    else is validated as a density operator first.
    """

    __slots__ = ("dims",)

    def __init__(self, rho, dims: Sequence[int]) -> None:
        if isinstance(rho, DensityOperator):
            self.entries = rho.entries
        else:
            super().__init__(rho)
        dims = _factor_dims(dims)
        if len(dims) not in (2, 3) or any(d < 1 for d in dims):
            raise DomainError(f"dims must be two or three positive factors, got {dims}")
        if math.prod(dims) != self.dim:
            raise DomainError(
                f"dimension mismatch: factors {dims} give {math.prod(dims)}, state has {self.dim}"
            )
        if abs(self.trace_value - 1.0) > _NORMALIZED_TOL:
            raise DomainError(
                f"conditional entropies need a normalized state, trace = {self.trace_value!r}"
            )
        self.dims = dims

    def __repr__(self) -> str:
        return f"BipartiteState(dims={self.dims})"


def as_matrix(x) -> np.ndarray:
    """Coerce a :class:`DensityOperator` or an array-like to a complex square ndarray.

    A density operator's entries, a factored state's included, are returned as
    they are, since its constructor validated them.  A raw array must be
    finite and Hermitian within ``1e-12 * (1 + max|M|)``, and is symmetrized
    into a new array.
    """
    if isinstance(x, DensityOperator):
        return x.entries
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    scale = 1.0 + np.abs(m).max(initial=0.0)
    if not math.isfinite(scale):  # max propagates NaN
        raise DomainError("matrix entries must be finite")
    mh = np.conjugate(m.T, order="C")
    defect = np.abs(m - mh).max(initial=0.0)
    if defect > _HERM_TOL * scale:
        raise DomainError(
            f"Hermiticity violated: max |M - M^dag| = {defect:.3e} "
            f"exceeds {_HERM_TOL:.0e} * (1 + max|M|)"
        )
    mh += m
    mh /= 2.0
    return mh


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


def _factor_indices(keep: str, n_factors: int) -> list[int]:
    if keep:
        idx = sorted(map(_FACTOR_LABELS[:n_factors].find, keep))  # -1: not a label
        if idx[0] >= 0 and len(set(idx)) == len(idx):
            return idx
    raise DomainError(f"subsystem label {keep!r} invalid for {n_factors} factors")


def _integer(x, name: str) -> int:
    """``x`` as an ``int``; only an integer, numpy's included, passes: nothing is truncated."""
    if not isinstance(x, bool):  # Python's bool is an int, but never a size or a count
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {x!r}")


def _factor_dims(dims) -> tuple[int, ...]:
    """Factor dimensions as a tuple of ``int``; a non-sequence or non-integer is an error."""
    if not np.iterable(dims):
        raise DomainError(f"dims must be a sequence of integers, got {dims!r}")
    return tuple(_integer(d, "each of dims") for d in dims)


def _probability_vector(p, name: str = "probability vector") -> np.ndarray:
    """``p`` as a flat float array; a non-finite or negative entry or a sum off 1 is an error."""
    w = np.asarray(p, dtype=float).ravel()
    if not np.isfinite(w).all():
        raise DomainError(f"{name} entries must be finite")
    if (w < 0).any():
        raise DomainError(f"{name} must be entrywise nonnegative")
    if abs(float(w.sum()) - 1.0) > _NORMALIZED_TOL:
        raise DomainError(f"{name} must sum to 1, got {w.sum()!r}")
    return w


def _schmidt_coefficients(coeffs) -> np.ndarray:
    """Schmidt coefficients as a flat float array: finite, nonnegative, with unit square sum."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if not np.isfinite(c).all():
        raise DomainError("Schmidt coefficients must be finite")
    if (c < 0).any():
        raise DomainError("Schmidt coefficients must be nonnegative")
    if abs(float(np.sum(c**2)) - 1.0) > _NORMALIZED_TOL:
        raise DomainError(f"Schmidt coefficients must have unit square sum, got {np.sum(c**2)!r}")
    return c


def ptrace_entries(entries: np.ndarray, dims: Sequence[int], keep_idx: Sequence[int]) -> np.ndarray:
    """Partial trace at the array level, keeping the listed factor indices in order."""
    n = len(dims)
    if entries.shape != (math.prod(dims),) * 2:
        raise DomainError(
            f"dimension mismatch: matrix of shape {entries.shape} vs factors {dims}"
        )
    t = entries.reshape(*dims, *dims)
    for removed, ax in enumerate(sorted(set(range(n)) - set(keep_idx), reverse=True)):
        t = t.trace(axis1=ax, axis2=ax + n - removed)
    d_keep = math.prod(dims[i] for i in keep_idx)
    return np.ascontiguousarray(t.reshape(d_keep, d_keep))


def partial_trace(rho, keep: str, dims: Sequence[int] | None = None) -> DensityOperator:
    """Reduced state over the kept subsystems, e.g. ``keep="B"`` traces out A.

    ``rho`` may be a :class:`BipartiteState` (dims taken from it),
    or any operator together with an explicit ``dims`` tuple.  The partial
    trace of a :class:`DensityOperator` is one by construction and is not
    re-checked; a raw array's is validated as a density operator.
    """
    if dims is None and not isinstance(rho, BipartiteState):
        raise DomainError("dims are required unless the state carries them")
    dims = rho.dims if dims is None else _factor_dims(dims)
    entries = as_matrix(rho)
    keep_idx = _factor_indices(keep, len(dims))
    reduced = ptrace_entries(entries, dims, keep_idx)
    if isinstance(rho, DensityOperator):
        return DensityOperator._from_valid(reduced)
    return DensityOperator(reduced)
