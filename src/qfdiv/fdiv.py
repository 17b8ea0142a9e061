"""Classical and quantum f-divergences.

A divergence is described by a :class:`DivergenceFunction`: a convex scalar
function on the positive axis together with its boundary data -- the limit at
zero and the slope at infinity ``ell = lim f(x)/x``.  Every divergence
returned here is an extended real: a finite ``float`` or ``math.inf``.

The primary evaluation path is the exact spectral double sum over the
eigenvalue pairs of the two operators plus two boundary terms,
``ell * tr A(1 - B^0)`` and ``f(0+) * tr B(1 - A^0)``; the epsilon sweep
(second argument regularized to full rank) is a cross-validation mode.  Every
route, closed forms included, reads both spectra through
:func:`qfdiv.linalg.psd_eigh_pair`.  The engine is stacked: spectra, overlap
tables, kernel sizes, the double sum and the boundary terms take an optional
leading stack axis, :func:`quantum_f_divergences` evaluates two stacks
``(n, d, d)`` in one eigensolve per argument, and
:func:`quantum_f_divergence` runs the same engine on one pair.  Only the two
1-D dots whose reduction order sets their bits, the kernel mass and the
double sum's last dot, are taken pair by pair, so a stacked value is bit for
bit the value of its pair alone.  One function, :func:`_boundary_term`,
decides every boundary term of the spectral sum, the sweep and
:func:`csiszar_divergence`: a finite coefficient times its mass, and for an
infinite one ``inf`` when the mass exceeds ``RANK_TOL`` times the trace of
the operator it is taken from, else ``0 * inf = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .linalg import RANK_TOL, _probability_vector, as_matrix, psd_eigh_pair

INF = math.inf

EPS_SCHEDULE = (1e-5, 1e-6, 1e-7)  # the epsilon sweep's regularization, geometric


@dataclass(frozen=True)
class DivergenceFunction:
    """Pointwise evaluator of f on (0, inf) plus the boundary data the kernel needs.

    ``fn`` must be vectorized over numpy arrays of positive floats and free of
    side effects.  ``slope`` evaluates ``f(x) - x f'(x)``, the derivative of
    the perspective ``s f(w/s)`` in ``s`` at ``x = w/s``, in the same way; it
    should be written so that nothing cancels (``-x**alpha`` for the power
    family).  ``f_at_zero`` is the limit at 0+ and ``ell`` the limit of
    ``f(x)/x`` at infinity; either may be ``inf``, neither ``-inf`` nor NaN.
    ``operator_convex`` records whether f is operator convex on the positive
    axis, which is what the monotonicity results need.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    slope: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    f_at_zero: float
    ell: float
    operator_convex: bool

    def __post_init__(self) -> None:
        for name in ("ell", "f_at_zero"):
            value = getattr(self, name)
            if not value > -INF:  # a convex f has both limits in (-inf, inf]; NaN fails too
                raise DomainError(f"divergence functions need {name} in (-inf, inf], got {value!r}")

    def __call__(self, xi):
        return self.fn(np.asarray(xi, dtype=float))


def _qlog(x, c: float):
    """``(x**c - 1) / c`` of positive ``x`` as ``expm1(c log x) / c``, ``log x`` at ``c == 0``: the
    deformed logarithm of every power-family formula, the only code that tells alpha = 1 apart.

    A scalar gives a float, through ``math``: numpy's 0-d calls cost ten times as
    much, and the closed forms call this on scalars.  An array gives a new array.
    """
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        x = float(x)
        return math.expm1(c * math.log(x)) / c if c != 0.0 else math.log(x)
    out = np.log(x)
    if c != 0.0:
        out *= c
        np.expm1(out, out=out)
        out /= c
    return out


def _positive_alpha(alpha: float) -> float:
    """``alpha`` as a float; a power-family order must be positive and finite."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:  # NaN fails both comparisons
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    return alpha


def make_tsallis_f(alpha: float) -> DivergenceFunction:
    """Build the power-family divergence function of order ``alpha``.

    One formula, exact at ``alpha = 1``: ``xi * _qlog(xi, alpha - 1)``, that is
    ``(xi**alpha - xi) / (alpha - 1)``, and ``xi * log(xi)`` at ``alpha = 1``.
    The family is operator convex exactly for ``alpha`` in ``(0, 2]``.
    """
    alpha = _positive_alpha(alpha)
    return DivergenceFunction(
        name=f"tsallis-{alpha:g}",
        fn=lambda xi, c=alpha - 1.0: xi * _qlog(xi, c),
        slope=lambda xi, a=alpha: -(xi**a),
        f_at_zero=0.0,
        ell=INF if alpha >= 1.0 else 1.0 / (1.0 - alpha),
        operator_convex=alpha <= 2.0,
    )


def _boundary_term(coeff: float, mass, weights: np.ndarray):
    """``coeff * mass`` for a finite ``coeff``; for ``coeff = inf``, ``inf`` when ``mass``
    exceeds ``RANK_TOL * weights.sum()`` and 0.0 otherwise (``0 * inf = 0``).

    The one boundary rule: ``ell * tr A(1 - B^0)`` with the spectrum of ``A`` as
    ``weights`` and ``f(0+) * tr B(1 - A^0)`` with that of ``B``.  The trace is
    summed only for an infinite ``coeff``.  A stack of masses takes a stack
    ``(n, d)`` of spectra and gives a stack of terms.
    """
    if coeff != INF:
        return coeff * mass
    return np.where(mass > RANK_TOL * weights.sum(axis=-1), INF, 0.0)[()]  # a scalar for one


def csiszar_divergence(p, q, f: DivergenceFunction) -> float:
    """Classical f-divergence ``sum_x q_x f(p_x / q_x)`` of two distributions.

    The kernel rule of :func:`quantum_f_divergence`, applied to the entries
    without an eigensolve: entries at or below ``RANK_TOL`` times their
    vector's largest are zeros.  The mass of ``p`` where ``q`` is zero and of
    ``q`` where ``p`` is zero enter through :func:`_boundary_term`, with
    ``ell`` and ``f(0+)``.  Terms with ``p_x = q_x = 0`` contribute nothing.
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
    total += _boundary_term(f.ell, float(p[q == 0].sum()), p)
    return float(total + _boundary_term(f.f_at_zero, float(q[p == 0].sum()), q))


def _spectra(m_a: np.ndarray, m_b: np.ndarray):
    """Clamped spectra of two PSD operators, or of two stacks of them, their overlap tables,
    and their kernel sizes.

    ``m_a`` and ``m_b`` are matrices or stacks ``(n, d, d)`` that
    :func:`qfdiv.linalg.as_matrix` has checked.  Returns
    ``(a, b, table, ka, kb)``: ascending eigenvalues from
    :func:`qfdiv.linalg.psd_eigh_pair`, ``table[..., i, j] = |<u_i|v_j>|^2``
    for the eigenvectors of each pair, and the number of leading zeros of
    each spectrum of ``a`` and of ``b``.  The double sums below do not depend
    on the basis chosen inside an eigenspace, so near-equal eigenvalues need
    no merging.
    """
    if m_a.shape != m_b.shape:
        raise DomainError(f"dimension mismatch: {m_a.shape} vs {m_b.shape}")
    (a, u), (b, v) = psd_eigh_pair(m_a, m_b)
    table = np.abs(u.conj().mT @ v)
    table *= table
    return a, b, table, _kernel_sizes(a), _kernel_sizes(b)


def _kernel_sizes(w: np.ndarray):
    """The number of leading zeros of a clamped spectrum, an ``int``, or of each spectrum of a
    stack ``(n, d)``, an array (a search cannot run along rows, and costs less on one)."""
    return int(w.searchsorted(0.0, "right")) if w.ndim == 1 else np.add.reduce(w <= 0.0, -1)


def _kernel_mass(a, table, ka: int, kb: int):
    """``tr(A (1 - B^0))``, the mass of ``A`` on the kernel of ``B``, of one pair or of each pair
    of a stack: one 1-D dot per pair."""
    return np.vecdot(a[..., ka:], table[..., ka:, :kb].sum(axis=-1))


def _spectral_sum(a, b, table, ka, kb, f: DivergenceFunction):
    """The double sums and boundary terms of :func:`quantum_f_divergence` on given spectra: a
    value for one pair, an array for a stack.

    A stack's pairs are evaluated in groups of equal kernel sizes
    ``(ka, kb)``, each by :func:`_group_sum`; one pair is one group.
    """
    if isinstance(ka, int):
        return _group_sum(a, b, table, ka, kb, f)
    keys = ka * (b.shape[-1] + 1) + kb
    out = np.empty(len(keys))
    for key in np.unique(keys):
        idx = np.flatnonzero(keys == key)
        out[idx] = _group_sum(a[idx], b[idx], table[idx], int(ka[idx[0]]), int(kb[idx[0]]), f)
    return out


def _every(flags) -> bool:
    """``flags.all()``; the one flag of a single pair skips numpy's reduction."""
    return bool(flags) if flags.size == 1 else bool(flags.all())


def _group_sum(a, b, table, ka: int, kb: int, f: DivergenceFunction):
    """:func:`_spectral_sum` of one pair, or of a stack whose pairs all have kernel sizes
    ``ka`` and ``kb``.

    Every step but the 1-D dots is elementwise or a sum along one axis, and
    ``numpy.vecdot`` makes each pair's dot with the kernel a lone ``@`` would
    use, so each value holds the bits of its pair alone.
    """
    # only an infinite coefficient makes a boundary term, and then the value, infinite
    infinite = kb and f.ell == INF or ka and f.f_at_zero == INF
    total = _boundary_term(f.ell, _kernel_mass(a, table, ka, kb), a) if kb else 0.0
    b_pos = b[..., kb:]
    if ka and f.f_at_zero != 0.0:
        mass = np.vecdot(table[..., :ka, kb:].sum(axis=-2), b_pos)
        total = total + _boundary_term(f.f_at_zero, mass, b)
    if infinite:
        divergent = total == INF
        if _every(divergent):  # inf, whatever the pair sums
            return total
    block = table[..., ka:, kb:]
    with np.errstate(all="ignore"):
        fvals = f(a[..., ka:, None] / b_pos[..., None, :])
        pair_sum = np.vecdot((fvals * block).sum(axis=-2), b_pos)
        if not _every(np.isfinite(pair_sum)):
            # inf * 0 := 0 for eigenvector pairs that do not overlap; a no-op on finite sums
            fvals = np.where(np.isinf(fvals) & (block <= 0.0), 0.0, fvals)
            pair_sum = np.vecdot((fvals * block).sum(axis=-2), b_pos)
        values = total + pair_sum
    return np.where(divergent, INF, values) if infinite and np.ndim(divergent) else values


def quantum_f_divergence(A, B, f: DivergenceFunction) -> float:
    """Quantum f-divergence of PSD operator ``A`` with respect to ``B``.

    Evaluates the spectral double sum ``sum_{a, b>0} b f(a/b) tr(P_a Q_b)``
    over the eigenpairs of ``A`` and ``B``, plus the boundary terms
    ``ell * tr(A (1 - B^0))`` and, when ``f(0+)`` is nonzero,
    ``f(0+) * tr(B (1 - A^0))``, each from :func:`_boundary_term`.  Both
    spectra come from :func:`qfdiv.linalg.psd_eigh`: eigenvalues at or below
    ``RANK_TOL`` times the operator's largest eigenvalue are the kernel and
    count as exact zeros.  This is the stacked engine of
    :func:`quantum_f_divergences` on one pair, with no stack axis; ``A`` is
    checked before ``B``, so ``A``'s errors come first.
    """
    return float(_spectral_sum(*_spectra(as_matrix(A), as_matrix(B)), f))


def quantum_f_divergences(A, B, f: DivergenceFunction) -> np.ndarray:
    """:func:`quantum_f_divergence` of each pair of two stacks ``(n, d, d)``, in one eigensolve
    per stack.

    Each stack is checked at once by :func:`qfdiv.linalg.as_matrix`, ``A``'s
    first, and each value holds the bits of its pair's own call.  An error in
    any pair raises for the whole stack.
    """
    return _spectral_sum(*_spectra(as_matrix(A, stack=True), as_matrix(B, stack=True)), f)


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
    :func:`_boundary_term` makes the ``ell`` term of
    :func:`quantum_f_divergence` infinite (the regularized values then grow
    only like ``log(1/eps)`` or a power of it), or when the last regularized
    value is not finite (an infinite ``f(0+)`` term).  With ``ell = inf`` and
    a zero ``ell`` term the sums leave out B's shifted kernel, the spectral
    route's ``0 * inf = 0``.  Otherwise the limit is the extrapolation.
    """
    a, b, table, ka, kb = _spectra(as_matrix(A), as_matrix(B))
    divergent = _boundary_term(f.ell, float(_kernel_mass(a, table, ka, kb)), a) == INF
    if f.ell == INF and not divergent:
        b, table = b[kb:], table[:, kb:]  # 0 * inf := 0: B's kernel columns drop out
    shifted = np.stack([b + eps * b.sum() for eps in EPS_SCHEDULE])  # B = 0 stays all kernel
    n = len(EPS_SCHEDULE)
    values = _spectral_sum(
        np.broadcast_to(a, (n, *a.shape)), shifted, np.broadcast_to(table, (n, *table.shape)),
        np.full(n, ka), _kernel_sizes(shifted), f,
    ).tolist()
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
    """Power-family divergence ``(tr(A^alpha B^(1-alpha)) - tr A) / (alpha - 1)``, on supports.

    One formula, exact at ``alpha = 1``: with ``c = alpha - 1``, the overlap-weighted sum of
    ``a _qlog(a, c) b^(-c) - a _qlog(b, -c)`` over the support eigenvalues, plus
    ``ell * tr(A (1 - B^0))`` for ``alpha < 1``.  For ``alpha >= 1`` a kernel mass above
    ``RANK_TOL * tr A`` gives ``inf`` and one below adds nothing, as in the spectral sum.
    """
    c = _positive_alpha(alpha) - 1.0
    a, b, table, ka, kb = _spectra(as_matrix(A), as_matrix(B))
    mass = float(_kernel_mass(a, table, ka, kb))
    if c >= 0.0 and mass > RANK_TOL * a.sum():
        return INF
    a, b, table = a[ka:], b[kb:], table[ka:, kb:]
    cross = float((a * _qlog(a, c)) @ table @ b**-c - a @ table @ _qlog(b, -c))
    return cross - mass / c if c < 0.0 else cross


def vn_relative_entropy_closed(A, B) -> float:
    """Relative entropy ``tr(A log A - A log B)`` on supports, ``inf`` off-support: the
    ``alpha = 1`` point of :func:`tsallis_divergence_closed`."""
    return tsallis_divergence_closed(A, B, 1.0)
