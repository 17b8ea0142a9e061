"""numpy's LAPACK gufuncs, called without the Python wrappers of ``numpy.linalg``.

At desk scale the wrappers (type checks, dtype casts, result wrapping) cost
more than LAPACK does.  Each helper makes exactly the gufunc calls that the
wrapper makes for complex128 input, so its results are the wrapper's, bit for
bit.  A real matrix would be promoted and give other eigenvector bits, so
every caller passes complex128.  The error guard is the wrapper's too: LAPACK
reports a failure through the invalid flag, which the ``errstate`` turns into
:class:`numpy.linalg.LinAlgError`, and input that does not make LAPACK fail
(some NaN entries do not) gives what the wrapper gives.

These are numpy's private gufuncs in ``numpy.linalg._umath_linalg``; the
single ``qr_r_raw`` is there since numpy 2.0 (numpy 1.x split it into
``qr_r_raw_m`` and ``qr_r_raw_n``), which sets the floor in ``pyproject.toml``.
This module is the one place that imports them.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigh_lo, eigvalsh_lo, qr_r_raw, qr_reduced


def _eigensolve_failed(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _qr_failed(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def _guard(fail) -> np.errstate:
    """numpy's own error guard of a LAPACK call: the invalid flag calls ``fail``."""
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a complex Hermitian matrix (LAPACK ``heevd``,
    lower triangle)."""
    with _guard(_eigensolve_failed):
        return eigh_lo(m, signature="D->dD")


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix (LAPACK ``heevd``, lower triangle)."""
    with _guard(_eigensolve_failed):
        return eigvalsh_lo(m, signature="D->d")


def qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a complex ``(m, n)`` matrix, ``m >= n``, or of each matrix of a stack
    ``(k, m, n)``: ``Q`` and the diagonal of ``R``.

    LAPACK ``geqrf`` writes R over ``a``, so ``a`` must be a fresh array that
    nothing else reads (the wrapper works on such a copy); ``ungqr`` then forms Q.
    The gufuncs factor a stack one matrix at a time, each with its own call's bits.
    """
    with _guard(_qr_failed):
        tau = qr_r_raw(a, signature="D->D")
        q = qr_reduced(a, tau, signature="DD->D")
    return q, a.diagonal(axis1=-2, axis2=-1)
