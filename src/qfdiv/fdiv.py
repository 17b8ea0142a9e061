"""Classical and quantum f-divergences.

A divergence is described by a :class:`DivergenceFunction`: a convex scalar
function on the positive axis together with its boundary data -- the limit at
zero and the slope at infinity ``ell = lim f(x)/x``.  Every divergence
returned here is an extended real: a finite ``float`` or ``math.inf``.
The kernel convention ``0 * inf = 0`` is applied explicitly where the mass of
the first argument outside the support of the second vanishes.

The primary evaluation path is the exact spectral double sum over the
eigenvalue pairs of the two operators plus a kernel term weighted by ``ell``;
the epsilon sweep (second argument regularized to full rank) is a
cross-validation mode.  Every route, closed forms included, reads both
spectra through :func:`qfdiv.linalg.psd_eigh_pair` and calls a kernel mass
significant when it exceeds ``RANK_TOL`` times the trace of the operator it
is taken from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .linalg import RANK_TOL, _probability_vector, as_matrix, psd_eigh_pair

INF = math.inf

ALPHA_ONE_TOL = 1e-6  # below this distance from 1, Tsallis paths switch to x*log(x)

EPS_SCHEDULE = (1e-5, 1e-6, 1e-7)  # the epsilon sweep's regularization, geometric


@dataclass(frozen=True)
class DivergenceFunction:
    """Pointwise evaluator of f on (0, inf) plus the boundary data the kernel needs.

    ``fn`` must be vectorized over numpy arrays of positive floats and free of
    side effects.  ``slope`` evaluates ``f(x) - x f'(x)``, the derivative of
    the perspective ``s f(w/s)`` in ``s`` at ``x = w/s``, in the same way; it
    should be written so that nothing cancels (``-x**alpha`` for the power
    family).  ``f_at_zero`` is the limit at 0+ and ``ell`` the limit of
    ``f(x)/x`` at infinity; either may be ``inf``.  ``operator_convex`` records
    whether f is operator convex on the positive axis, which is what the
    monotonicity results need.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    slope: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    f_at_zero: float
    ell: float
    operator_convex: bool

    def __post_init__(self) -> None:
        if self.ell == -INF:
            raise DomainError("divergence functions with ell = -inf are not supported")

    def __call__(self, xi):
        return self.fn(np.asarray(xi, dtype=float))


def _xlogx(xi: np.ndarray) -> np.ndarray:
    return xi * np.log(xi)


def _positive_alpha(alpha: float) -> float:
    """``alpha`` as a float; a power-family order must be positive and finite."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:  # NaN fails both comparisons
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    return alpha


def make_tsallis_f(alpha: float) -> DivergenceFunction:
    """Build the power-family divergence function of order ``alpha``.

    For ``alpha != 1`` this is ``(xi**alpha - xi) / (alpha - 1)``; within
    ``1e-6`` of 1 it switches to ``xi * log(xi)`` to avoid the cancellation in
    the quotient.  The family is operator convex exactly for ``alpha`` in
    ``(0, 2]``.
    """
    alpha = _positive_alpha(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return DivergenceFunction(
            name="kl",
            fn=_xlogx,
            slope=np.negative,
            f_at_zero=0.0,
            ell=INF,
            operator_convex=True,
        )
    return DivergenceFunction(
        name=f"tsallis-{alpha:g}",
        fn=lambda xi, a=alpha: (xi**a - xi) / (a - 1.0),
        slope=lambda xi, a=alpha: -(xi**a),
        f_at_zero=0.0,
        ell=INF if alpha > 1.0 else 1.0 / (1.0 - alpha),
        operator_convex=alpha <= 2.0,
    )


def csiszar_divergence(p, q, f: DivergenceFunction) -> float:
    """Classical f-divergence ``sum_x q_x f(p_x / q_x)`` of two distributions.

    The kernel rule of :func:`quantum_f_divergence`, applied to the entries
    without an eigensolve: entries at or below ``RANK_TOL`` times their
    vector's largest are zeros.  Terms with ``q_x = 0 < p_x`` contribute
    ``p_x * ell`` and terms with ``p_x = 0 < q_x`` contribute
    ``q_x * f(0+)``; an infinite ``ell`` or ``f(0+)`` gives ``inf`` only when
    its mass exceeds ``RANK_TOL`` times the total of ``p`` or ``q``, and
    multiplies a mass taken as zero below that.  Terms with
    ``p_x = q_x = 0`` contribute nothing.
    """
    p = _probability_vector(p, "p")
    q = _probability_vector(q, "q")
    if p.shape != q.shape:
        raise DomainError(f"length mismatch: {p.size} vs {q.size}")
    p = np.where(p > RANK_TOL * p.max(), p, 0.0)
    q = np.where(q > RANK_TOL * q.max(), q, 0.0)

    total = 0.0
    both = (p > 0) & (q > 0)
    if both.any():
        total += float(np.sum(q[both] * f(p[both] / q[both])))
    for coeff, mass, scale in (
        (f.ell, float(p[q == 0].sum()), float(p.sum())),
        (f.f_at_zero, float(q[p == 0].sum()), float(q.sum())),
    ):
        if coeff != INF:
            total += coeff * mass
        elif mass > RANK_TOL * scale:
            return INF
    return total


def _spectra(A, B):
    """Clamped spectra of two PSD operators, their overlap table, and their kernel sizes.

    Returns ``(a, b, table, ka, kb)``: ascending eigenvalues from
    :func:`qfdiv.linalg.psd_eigh_pair`, ``table[i, j] = |<u_i|v_j>|^2`` for the
    eigenvectors, and the number of leading zeros of ``a`` and of ``b``.
    The double sums below do not depend on the basis chosen inside an
    eigenspace, so near-equal eigenvalues need no merging.
    """
    m_a = as_matrix(A)
    m_b = as_matrix(B)
    if m_a.shape != m_b.shape:
        raise DomainError(f"dimension mismatch: {m_a.shape} vs {m_b.shape}")
    (a, u), (b, v) = psd_eigh_pair(m_a, m_b)
    table = np.abs(u.conj().T @ v) ** 2
    return a, b, table, int(a.searchsorted(0.0, "right")), int(b.searchsorted(0.0, "right"))


def _kernel_mass(a, table, ka: int, kb: int) -> float:
    """``tr(A (1 - B^0))``: the mass of ``A`` on the kernel of ``B``."""
    return float(a[ka:] @ table[ka:, :kb].sum(axis=1))


def _spectral_sum(a, b, table, ka: int, kb: int, f: DivergenceFunction) -> float:
    """The double sum and kernel terms of :func:`quantum_f_divergence` on given spectra."""
    total = 0.0
    if kb:
        kernel_mass = _kernel_mass(a, table, ka, kb)
        if f.ell != INF:
            total = f.ell * kernel_mass
        elif kernel_mass > RANK_TOL * a.sum():
            return INF
        # else 0 * inf := 0 -- mass inside rank tolerance contributes nothing
    b_pos = b[kb:]
    if ka and f.f_at_zero != 0.0:
        zero_mass = float(table[:ka, kb:].sum(axis=0) @ b_pos)
        if f.f_at_zero == INF:
            if zero_mass > RANK_TOL * b.sum():
                return INF
        else:
            total += f.f_at_zero * zero_mass
    block = table[ka:, kb:]
    with np.errstate(all="ignore"):
        fvals = f(a[ka:, None] / b_pos)
        pair_sum = float((fvals * block).sum(axis=0) @ b_pos)
        if not math.isfinite(pair_sum):
            # inf * 0 := 0 for eigenvector pairs that do not overlap
            fvals = np.where(np.isinf(fvals) & (block <= 0.0), 0.0, fvals)
            pair_sum = float((fvals * block).sum(axis=0) @ b_pos)
    return total + pair_sum


def quantum_f_divergence(A, B, f: DivergenceFunction) -> float:
    """Quantum f-divergence of PSD operator ``A`` with respect to ``B``.

    Evaluates the spectral double sum ``sum_{a, b>0} b f(a/b) tr(P_a Q_b)``
    over the eigenpairs of ``A`` and ``B``, plus the kernel term
    ``ell * tr(A (1 - B^0))`` and, when ``f(0+)`` is nonzero, the term
    ``f(0+) * tr(B (1 - A^0))``.  Both spectra come from
    :func:`qfdiv.linalg.psd_eigh`: eigenvalues at or below ``RANK_TOL`` times
    the operator's largest eigenvalue are the kernel and count as exact
    zeros.  The result is ``inf`` exactly when ``ell = inf`` and the kernel
    mass exceeds ``RANK_TOL * tr A``, or ``f(0+) = inf`` and the mass of
    ``B`` on the kernel of ``A`` exceeds ``RANK_TOL * tr B``; below those
    thresholds the infinite coefficient multiplies a mass taken as zero.
    """
    return _spectral_sum(*_spectra(A, B), f)


def quantum_f_divergence_eps_sweep(
    A,
    B,
    f: DivergenceFunction,
) -> tuple[list[float], float]:
    """Divergence against ``B + eps * tr(B) * I`` for each ``eps`` in :data:`EPS_SCHEDULE`.

    The regularized second argument is full rank, so no kernel term arises;
    the shift scales with ``B``, so scaling both arguments scales every value.
    It adds ``eps * tr B`` to each eigenvalue of ``B`` and keeps its
    eigenvectors, so one eigensolve of each argument serves every ``eps``, and
    both are checked as :func:`quantum_f_divergence` checks them (a ``B`` with
    an eigenvalue below ``-RANK_TOL * ||B||`` is an error even where the shift
    would make it PSD).  Returns the per-epsilon values and their
    extrapolation to zero: an Aitken delta-squared step on the last three
    points when their differences contract, else the linear step through the
    last two.  Aitken's step is exact for a tail ``c * eps**p`` on a
    geometric schedule, which covers a full-rank ``B`` (``p = 1``) and a
    rank-deficient ``B`` with finite ``ell``, where the power-family tail
    decays like ``eps**(1 - alpha)``.  The limit is ``inf`` when
    ``ell = inf`` and the mass of ``A`` on the kernel of ``B`` exceeds
    ``RANK_TOL * tr A`` (the test of :func:`quantum_f_divergence`; the
    regularized values then grow only like ``log(1/eps)`` or a power of it),
    or when the last regularized value is not finite (``f(0+) = inf`` and the
    mass of ``B`` on the kernel of ``A`` exceeds ``RANK_TOL * tr B``, the
    other test of :func:`quantum_f_divergence`).  With ``ell = inf`` below the
    first threshold the sums leave out B's shifted kernel, the spectral
    route's ``0 * inf = 0``.  Otherwise the limit is the extrapolation.
    """
    a, b, table, ka, kb = _spectra(A, B)
    divergent = f.ell == INF and _kernel_mass(a, table, ka, kb) > RANK_TOL * a.sum()
    if f.ell == INF and not divergent:
        b, table = b[kb:], table[:, kb:]  # 0 * inf := 0: B's kernel columns drop out
    shifted = [b + eps * b.sum() for eps in EPS_SCHEDULE]  # B = 0 stays all kernel
    values = [_spectral_sum(a, s, table, ka, int(s.searchsorted(0.0, "right")), f) for s in shifted]
    if divergent:
        return values, INF
    _, v0, v1 = values
    _, e0, e1 = EPS_SCHEDULE
    if not math.isfinite(v1):
        return values, INF
    d1, d2 = v0 - values[0], v1 - v0
    if abs(d2) < abs(d1):
        return values, v1 - d2 * d2 / (d2 - d1)
    return values, v1 + (v1 - v0) * e1 / (e0 - e1)


def tsallis_divergence_closed(A, B, alpha: float) -> float:
    """Power-family divergence via the closed trace form, powers on supports.

    Computes ``(tr(A^alpha B^(1-alpha)) - tr A) / (alpha - 1)``; for
    ``alpha > 1`` the value is ``inf`` when the mass of ``A`` on the kernel of
    ``B`` exceeds ``RANK_TOL * tr A``.  Within ``1e-6`` of ``alpha = 1`` this
    delegates to the logarithmic form.
    """
    alpha = _positive_alpha(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return vn_relative_entropy_closed(A, B)
    a, b, table, ka, kb = _spectra(A, B)
    if alpha > 1.0 and _kernel_mass(a, table, ka, kb) > RANK_TOL * a.sum():
        return INF
    cross = float(a[ka:] ** alpha @ table[ka:, kb:] @ b[kb:] ** (1.0 - alpha))
    return (cross - float(a.sum())) / (alpha - 1.0)


def vn_relative_entropy_closed(A, B) -> float:
    """Relative entropy ``tr(A log A - A log B)`` on supports, ``inf`` off-support.

    Off-support means the mass of ``A`` on the kernel of ``B`` exceeds
    ``RANK_TOL * tr A``.
    """
    a, b, table, ka, kb = _spectra(A, B)
    if _kernel_mass(a, table, ka, kb) > RANK_TOL * a.sum():
        return INF
    a_pos = a[ka:]
    first = float(np.sum(a_pos * np.log(a_pos)))
    second = float(a_pos @ table[ka:, kb:] @ np.log(b[kb:]))
    return first - second
