"""Complex Hermitian linear algebra kernel.

Eigendecompositions are LAPACK ``heevd``, run through numpy's own gufunc by
:mod:`qfdiv._lapack` (the one module that imports numpy's private LAPACK
gufuncs) without numpy's Python wrapper, with the wrapper's bits; they are
deterministic for fixed input bits.  Every engine reads the spectrum of a
positive operator through one rule, :func:`psd_eigh`: one eigensolve, a
positive semi-definiteness check, and eigenvalues at or below
``RANK_TOL * ||M||`` set to exact zeros (the kernel).  Nothing is merged:
near-equal eigenvalues stay separate, which leaves spectral sums unchanged
because they do not depend on the basis chosen inside an eigenspace.

The rule reports the kernel's size ``k``, so a reader takes the support as
``w[k:]``.  :func:`clamp_psd_spectrum` and :func:`psd_eigh` also take a
stack ``(n, d, d)`` that the package built itself, and apply the rule to
each matrix of it, with the bits of one call per matrix (LAPACK solves a
stack one matrix at a time) and one ``k`` per matrix.

A divergence needs the spectra of both of its arguments, and
:func:`psd_eigh_pair` takes them together, one matrix or one stack each.
From ``d = 32`` (``_CONCURRENT_MIN_DIM``) on, and when the process may use
two CPUs, it solves the second argument on a one-thread worker while the
calling thread solves the first; numpy releases the interpreter lock inside
LAPACK, so the two solves overlap.  Each is the same LAPACK call on the same
bits, so the eigenpairs, the errors and their order are those of two
:func:`psd_eigh` calls.  Pin BLAS to one thread
(``OPENBLAS_NUM_THREADS=1``), as the benchmark does: on a 2-core machine a
threaded BLAS made one d = 36 divergence take 1.4 ms in one run and 5.6 ms
in the next.

Tensor index convention: the A index is outer and the B index inner, i.e.
the composite row index is ``i_A * dim_B + i_B`` (the ``numpy.kron``
layout).  All partial traces use this convention.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from typing import Sequence

import numpy as np

from . import _lapack
from .errors import DomainError

RANK_TOL = 1e-10

_HERM_TOL = 1e-12
_NORMALIZED_TOL = 1e-10  # how far a unit trace, probability sum or square sum may be off 1
# divided by the dimension d, the largest modulus of a raw matrix entry: the
# trace and every eigenvalue (at most d * max|M|) then stay at or below
# finfo.max / 2, so M - M^dag and M + M^dag stay finite too
_MAX_ENTRY = np.finfo(float).max / 2

_FACTOR_LABELS = "ABC"

# Below this dimension the two eigensolves of a pair run one after the other:
# handing one to the worker costs 30-50 us.  A pair's time on two threads over
# its sequential time, on a 2-vCPU machine (OPENBLAS_NUM_THREADS=1, best of 9):
#   d      16    20    24    28    32    36    48    64
#   ratio  1.40  1.06  0.90  0.94  0.90  0.86  0.78  0.72
# Two threads pay from d = 24, but no workload has d in 24-31, so a lower
# threshold could not be measured, and it stays at 32.
_CONCURRENT_MIN_DIM = 32


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
        clamp_psd_spectrum(_lapack.eigvalsh(m))
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
        if len(dims) not in (2, 3):
            raise DomainError(f"dims must be two or three factors, got {dims}")
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
    finite, with no entry of modulus above ``finfo(float).max / (2 d)`` for a
    ``d x d`` matrix (so that neither symmetrizing nor the trace nor an
    eigenvalue can overflow), and Hermitian within
    ``1e-12 * (1 + max|M|)``, and is symmetrized into a new array.
    """
    if isinstance(x, DensityOperator):
        return x.entries
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore"):  # |z| of a finite z can overflow; it is refused below
        big = np.abs(m).max(initial=0.0)
    bound = _MAX_ENTRY / max(m.shape[0], 1)
    if not big <= bound:  # max propagates NaN, which fails too
        raise DomainError(f"matrix entries must be finite and of modulus at most {bound:.3e}")
    mh = np.conjugate(m.T, order="C")
    defect = np.abs(m - mh).max(initial=0.0)
    if not defect <= _HERM_TOL * (1.0 + big):
        raise DomainError(
            f"Hermiticity violated: max |M - M^dag| = {defect:.3e} "
            f"exceeds {_HERM_TOL:.0e} * (1 + max|M|)"
        )
    mh += m
    mh /= 2.0
    return mh


def clamp_psd_spectrum(w: np.ndarray) -> int | np.ndarray:
    """The kernel rule, applied in place to the ascending spectrum of a PSD matrix, or to
    each row of a stack ``(..., d)`` of such spectra; returns the kernel's size.

    An eigenvalue below ``-RANK_TOL * ||M||`` is a domain error, and so is a
    NaN at either end of the spectrum; eigenvalues at or below
    ``RANK_TOL * ||M||`` become exact zeros, so the kernel is a leading block
    of zeros, ``w[:k]`` for the ``k`` returned: an ``int`` for one spectrum,
    one count per row for a stack.  Both thresholds are relative, so the rule
    does not depend on the overall scale of ``M``.  A stack's first failing
    spectrum is the one reported, and each row holds the bits of its own call.
    """
    if w.ndim == 1:  # one spectrum: scalar arithmetic and a slice, cheaper than array operations
        if not w.size:
            return 0
        floor = RANK_TOL * max(w[-1], -w[0])
        if not w[0] >= -floor:  # NaN fails too
            raise _indefinite(w)
        k = int(w.searchsorted(floor, "right"))  # ascending: the kernel is a leading block
        w[:k] = 0.0
        return k
    lo, hi = w[..., :1], w[..., -1:]
    floor = RANK_TOL * np.maximum(hi, -lo)
    ok = lo >= -floor  # NaN fails too
    if not ok.all():
        raise _indefinite(w.reshape(-1, w.shape[-1])[np.argmin(ok.ravel())])
    kernel = w <= floor
    np.putmask(w, kernel, 0.0)
    return np.add.reduce(kernel, -1)


def _indefinite(w: np.ndarray) -> DomainError:
    return DomainError(
        f"positive semi-definiteness violated: eigenvalues from {w[0]:.3e} to {w[-1]:.3e}"
    )


def psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int | np.ndarray]:
    """Ascending eigensystem ``(w, v, k)`` of a PSD matrix, or of each matrix of a stack, with
    the kernel clamped to exact zeros.

    One ``heevd`` followed by :func:`clamp_psd_spectrum`, so the eigenvalues
    read ``[0, ..., 0, positive part]``: the support is ``w[k:]`` and
    ``v[:, k:]``.
    """
    w, v = _lapack.eigh(m)
    return w, v, clamp_psd_spectrum(w)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _eigh_worker(pid: int):
    """The one-thread executor of process ``pid``, made on first use.

    Keyed on the process id: a child forked after its parent made the worker
    inherits the executor but not its thread, and work submitted to it would
    wait forever.  The import is here so that ``import qfdiv`` neither starts
    a thread nor loads ``concurrent.futures``.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="qfdiv-eigh")


def psd_eigh_pair(m_a: np.ndarray, m_b: np.ndarray) -> tuple[tuple, tuple]:
    """``(psd_eigh(m_a), psd_eigh(m_b))``, with the two solves overlapped at large d.

    ``m_a`` and ``m_b`` are two matrices or two stacks of them.  From
    ``_CONCURRENT_MIN_DIM`` on, and when more than one CPU is usable,
    ``m_b`` is solved on the process's worker thread while this thread solves
    ``m_a``.  The worker's solve is waited for before anything returns or
    raises, and ``m_a``'s errors come first, as in the sequential calls.
    """
    if m_a.shape[-1] < _CONCURRENT_MIN_DIM or _usable_cpus() < 2:
        return psd_eigh(m_a), psd_eigh(m_b)
    future = _eigh_worker(os.getpid()).submit(_lapack.eigh, m_b)
    try:
        eig_a = psd_eigh(m_a)
    finally:
        future.exception()  # waits; never leaves the worker running on m_b
    w, v = future.result()
    return eig_a, (w, v, clamp_psd_spectrum(w))


def _factor_indices(keep: str, n_factors: int) -> list[int]:
    if keep:
        idx = sorted(map(_FACTOR_LABELS[:n_factors].find, keep))  # -1: not a label
        if idx[0] >= 0 and len(set(idx)) == len(idx):
            return idx
    raise DomainError(f"subsystem label {keep!r} invalid for {n_factors} factors")


def _integer(x, name: str, least: int | None = None) -> int:
    """``x`` as an ``int`` of at least ``least``; only an integer, numpy's included, passes."""
    try:
        if isinstance(x, bool):  # Python's bool is an int, but never a size or a count
            raise TypeError
        n = operator.index(x)  # never truncates
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {x!r}") from None
    if least is not None and n < least:
        raise DomainError(f"{name} must be at least {least}, got {n}")
    return n


def _factor_dims(dims) -> tuple[int, ...]:
    """Factor dimensions as a tuple of positive ``int``; a non-sequence is an error."""
    if not np.iterable(dims):
        raise DomainError(f"dims must be a sequence of integers, got {dims!r}")
    return tuple(_integer(d, "dims: each dimension", least=1) for d in dims)


def _factored_dims(state, factors: int | None = None) -> tuple[int, ...]:
    """A :class:`BipartiteState`'s ``dims``, of ``factors`` factors if given: the one check."""
    if isinstance(state, BipartiteState) and factors in (None, len(state.dims)):
        return state.dims
    got = repr(state) if isinstance(state, DensityOperator) else type(state).__name__
    need = f"dims of {factors} factors" if factors else "dims"
    raise DomainError(f"expected a state with {need} (a matrix file's dims field), got {got}")


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

    ``rho`` may be any operator with an explicit ``dims`` tuple; without one it must
    be a :class:`BipartiteState`, whose dims :func:`_factored_dims` reads.  The
    partial trace of a :class:`DensityOperator` is one by construction and is not
    re-checked; a raw array's is validated as a density operator.
    """
    dims = _factored_dims(rho) if dims is None else _factor_dims(dims)
    entries = as_matrix(rho)
    keep_idx = _factor_indices(keep, len(dims))
    reduced = ptrace_entries(entries, dims, keep_idx)
    if isinstance(rho, DensityOperator):
        return DensityOperator._from_valid(reduced)
    return DensityOperator(reduced)
