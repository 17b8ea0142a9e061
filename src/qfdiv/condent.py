"""Conditional entropies built from f-divergences.

The defining quantity is ``-inf_sigma D_f(rho || 1 (x) sigma)`` over normalized
density operators ``sigma`` living on the support of the reduced state of the
conditioning factor.  The generic path solves that minimization numerically
with an in-package BFGS descent over an exponential parameterization
``sigma(H) = exp(H) / tr exp(H)``, which keeps iterates strictly feasible; its
gradient is exact, from Daleckii-Krein divided differences, and its line
search is a weak-Wolfe bracketing search.  Every rank of the conditioning
marginal takes this one path.  The objective is convex in sigma, so the
Frank-Wolfe gap of its sigma-gradient certifies an iterate: a descent stops at
the first iterate whose gap is within the value tolerance.  A solve tries the
maximally mixed state on the support, then the conditioning marginal, and
stops at the first certified start.  A third could not help: F is convex in
sigma (D_f is jointly convex for operator-convex f) and ``theta -> sigma`` is
a submersion onto the interior of the states on the support, so every
stationary theta is a global minimum, with no local one to escape.
For the power family there is an independent closed form (the reduced
``alpha``-power trace, which is the entropy difference at ``alpha = 1``),
which the test suite cross-validates against the optimizer.  Its call is the
stack of one of the private ``_tsallis_closed``, which serves a stack of
states of one dims and ``cond``, each at its own alpha, with the bits of one
call each.

States carry their factor dimensions; ``cond`` selects the conditioning
factors by label, any proper subset of them, e.g. ``cond="B"`` on an
(A, B, C) state conditions on the middle factor alone and ``cond="AC"`` on
the outer two.  The state is never reordered: marginals are partial traces
by factor index, and only the optimizer's kets are regrouped as (rest, cond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from . import _lapack
from .errors import ConvergenceError, DomainError, PreconditionError
from .fdiv import DivergenceFunction, _positive_alpha, _qlog
from .linalg import (
    BipartiteState,
    _factor_indices,
    _factored_dims,
    _integer,
    _probability_vector,
    _schmidt_coefficients,
    as_matrix,
    clamp_psd_spectrum,
    psd_eigh,
    ptrace_entries,
)

@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs of the conditional-entropy minimizer; all surfaced by the CLI.

    A solve depends only on its state, f and these values: both starts are
    deterministic.  The values are checked here, once, so a bad one fails
    before any solve.
    """

    starts: int = 2  # 1 or 2: the most starts a solve may run; it stops at the first certified one
    value_tol: float = 1e-6
    max_iters: int = 500

    def __post_init__(self) -> None:
        if _integer(self.starts, "starts") not in (1, 2):
            raise DomainError(f"starts must be 1 or 2, got {self.starts}")
        _integer(self.max_iters, "max_iters", least=0)
        if not 0.0 < self.value_tol < math.inf:
            raise DomainError(f"value_tol must be finite and positive, got {self.value_tol!r}")


@dataclass(frozen=True)
class OptimizationReport:
    """A certified solve: its conditional entropy, minimizer and how it was found.

    ``sigma_star`` is a Hermitian ndarray on the conditioning space.
    """

    value: float
    sigma_star: np.ndarray
    iterations_per_start: tuple[int, ...]
    converged: ClassVar[bool] = True  # a solve with no certified start raises instead
    # the accepted start's value minus the best lower bound on the optimum that its
    # Frank-Wolfe gaps gave: its value is within this of the optimum
    gap: float


def _monotone_alpha(alpha: float) -> float:
    """``alpha`` as a float; the conditional-entropy formulas need ``0 < alpha <= 2``."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise PreconditionError(f"alpha must lie in (0, 2], got {alpha!r}")
    return alpha


def alpha_log(xi: float, alpha: float) -> float:
    """Deformed logarithm ``(xi**(1-alpha) - 1) / (1 - alpha)``, ``log`` at ``alpha=1``."""
    xi = float(xi)
    if xi <= 0.0:
        raise DomainError(f"alpha_log needs a positive argument, got {xi!r}")
    return _qlog(xi, 1.0 - _positive_alpha(alpha))


def tsallis_entropy(rho, alpha: float) -> float:
    """Power-family entropy ``(1 - tr rho**alpha) / (alpha - 1)`` of a normalized state,
    as ``-sum w _qlog(w, alpha - 1)`` over its spectrum: von Neumann's at ``alpha = 1``."""
    alpha = _positive_alpha(alpha)
    # the kernel is dropped: fractional powers would amplify its eigenvalue noise
    w = _lapack.eigvalsh(as_matrix(rho))
    w = w[clamp_psd_spectrum(w):]
    return -float(w @ _qlog(w, alpha - 1.0))


def _from_power_mean(k: float, alpha: float, t: np.ndarray, p=1.0) -> float:
    """``(1 - n**alpha) / c``, ``c = alpha - 1``, for ``n = 1 + c k = sum p t**(1/alpha)``.

    Evaluated as ``-expm1(alpha log n) / c`` (``-k`` at ``c = 0``), ``log n`` as ``log1p(c k)``
    while ``-1/2 < c k < inf`` and else as the log-sum-exp of ``log p + log t / alpha``: near
    ``alpha = 0`` ``1 + c k`` cancels and ``k`` may overflow, and ``1 + c`` would lose
    ``alpha``'s low bits.  Only that fallback takes logs of the terms.
    """
    c = alpha - 1.0
    if c == 0.0:
        return -k
    ck = c * k
    if -0.5 < ck < math.inf:
        log_n = math.log1p(ck)
    else:
        log_n = float(np.logaddexp.reduce(np.log(t) / alpha + np.log(p)))
    return -math.expm1(alpha * log_n) / c


def _conditioning_split(state: BipartiteState, cond: str):
    """``(cond_idx, order, d_cond)``: the ``cond`` factors' indices in ``state``'s checked
    dims, the factor order that puts them after the others, and their joint dimension."""
    dims = _factored_dims(state)
    cond_idx = _factor_indices(cond, len(dims))
    rest = [i for i in range(len(dims)) if i not in cond_idx]
    if not rest:
        raise DomainError("cannot condition on every factor")
    return cond_idx, rest + cond_idx, math.prod([dims[i] for i in cond_idx])


def _require_wellbehaved(f: DivergenceFunction) -> None:
    if f.f_at_zero != 0.0:
        raise PreconditionError(
            f"{f.name}: conditional entropies need f(0) = 0, got {f.f_at_zero!r}"
        )
    if not f.operator_convex:
        raise PreconditionError(f"{f.name}: f is not operator convex on its stated range")


def _pack_hermitian(m: np.ndarray) -> np.ndarray:
    """Inverse and adjoint of the isometry ``T -> H = ((T + T^T) + i (T - T^T)) / 2``.

    ``T = theta.reshape(r, r)``; ``dF/dT_ab = Re M_ab + Im M_ab`` when ``dF = Re tr(M dH)``.
    """
    return (m.real + m.imag).ravel()


# sigma's eigenvalues are floored here so that g(s) = s f(w/s) stays finite
_S_FLOOR = 1e-300
# relative gap between two eigenvalues of sigma below which a divided difference
# of g is replaced by the mean of g' at its two ends: the mean errs by about
# (gap/s)**2 and the quotient's rounding by eps/(gap/s), which eps**(1/3) balances
_NEAR_DEGENERATE = 1e-5
# Frank-Wolfe steps a finished start may take to bring its gap within value_tol
_POLISH_STEPS = 4
# weak-Wolfe line search: sufficient-decrease and curvature constants, and the
# most trial steps one search may take before it fails
_ARMIJO = 1e-4
_CURVATURE = 0.9
_LINE_SEARCH_STEPS = 50
# a polish step's bisection stops once its bracket [lo, hi] is at most this
# fraction of hi wide, or after the most halvings
_ROOT_RTOL = 1e-3
_ROOT_STEPS = 100


def _fw_gap(gt: np.ndarray, g_mean: float) -> float:
    """Frank-Wolfe gap ``tr(G sigma) - lambda_min(G)``: the one rule that certifies an iterate.

    It is exact, from one eigensolve, and ``inf`` without one when G is not finite.
    """
    if not (math.isfinite(g_mean) and np.isfinite(gt).all()):
        return math.inf
    return max(g_mean - float(_lapack.eigvalsh(gt)[0]), 0.0)


class _Point(NamedTuple):
    """One evaluated ``sigma(theta) = u diag(p) u^dag``: what a descent steps with
    and what :meth:`_Objective.certify` starts from; :func:`_fw_gap` gives its gap."""

    theta: np.ndarray
    value: float
    grad: np.ndarray  # in theta
    p: np.ndarray
    u: np.ndarray
    gt: np.ndarray  # the sigma-gradient G in the basis u
    g_mean: float  # tr(G sigma)


class _Objective:
    """Divergence against ``1 (x) sigma(theta)``, its exact gradient in theta and its gap.

    The joint state is eigendecomposed once.  Writing ``rho = sum_n w_n
    |psi_n><psi_n|`` and ``R_n = tr_rest |psi_n><psi_n|`` restricted to the
    support of the conditioning marginal, the objective is
    ``F = sum_n tr(R_n g_n(sigma))`` with ``g_n(s) = s f(w_n / s)``, whose
    derivative ``g_n'(s)`` is ``f.slope(w_n / s)``.  One parameter vector costs
    a single ``r x r`` eigensolve of ``H(theta)``; the gradient chains two
    Daleckii-Krein divided-difference matrices (Bhatia, *Matrix Analysis*,
    V.3): those of ``g_n`` at sigma's eigenvalues give the sigma-gradient
    ``G = sum_n Gamma_n o (U^dag R_n U)``, and those of ``exp`` at H's
    eigenvalues carry it through ``sigma = exp(H) / tr exp(H)``.  F is convex
    in sigma, so the Frank-Wolfe gap of G bounds ``F(sigma) - min F``.
    """

    def __init__(self, state: BipartiteState, cond: str, f: DivergenceFunction):
        self.f = f
        cond_idx, order, d_cond = _conditioning_split(state, cond)
        w, psi, k = psd_eigh(state.entries)
        wb, vb, kb = psd_eigh(ptrace_entries(state.entries, state.dims, cond_idx))
        self.support = vb[:, kb:]
        # the conditioning marginal in the support basis is diag(marginal)
        self.marginal = wb[kb:]
        r = self.support.shape[1]
        self.rank = r
        self.weights = w[k:, None]
        # each ket as a tensor (*dims), its factors reordered to (rest, cond)
        kets = np.ascontiguousarray(psi[:, k:].T).reshape(-1, *state.dims)
        kets = kets.transpose(0, *(1 + i for i in order)).reshape(len(kets), -1, d_cond)
        reduced = np.einsum("nkb,nkc->nbc", kets, kets.conj())
        self.reduced = self.support.conj().T @ reduced @ self.support
        self.n_params = r * r

    def _at(self, p: np.ndarray, u: np.ndarray, uh: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Value, sigma-gradient ``gt`` in the basis ``u`` and ``tr(G sigma)`` at
        ``sigma = u diag(p) uh`` with ``uh = u^dag``; ``0 * inf = 0`` in the value.

        Its callers, :meth:`evaluate` and :meth:`certify`, ignore floating-point errors.
        """
        a = uh @ self.reduced @ u
        a_diag = np.diagonal(a, axis1=1, axis2=2).real
        s = np.maximum(p, _S_FLOOR)
        x = self.weights / s
        g = s * self.f.fn(x)
        dg = self.f.slope(x)
        terms = g * a_diag
        value = float(terms.sum())
        if not math.isfinite(value):  # a sum is finite only if every term is
            value = float(np.where(np.isinf(g) & (a_diag <= 0.0), 0.0, terms).sum())
        diff = s[:, None] - s[None, :]
        near = np.abs(diff) <= _NEAR_DEGENERATE * np.maximum(s[:, None], s[None, :])
        # the divided differences of g, with the mean of g' where sigma's eigenvalues nearly meet
        gamma = 0.5 * (dg[:, :, None] + dg[:, None, :])
        np.divide(g[:, :, None] - g[:, None, :], diff, out=gamma, where=~near)
        gt = (gamma * a).sum(axis=0)
        g_mean = float(gt.diagonal().real @ p)
        return value, gt, g_mean

    def evaluate(self, theta: np.ndarray) -> _Point:
        """The point ``sigma(theta)``: its value, theta-gradient and sigma-gradient."""
        t = theta.reshape(self.rank, self.rank)
        # the inverse of _pack_hermitian; H's eigenvalues are shifted to max 0
        lam, u = _lapack.eigh(0.5 * ((t + t.T) + 1j * (t - t.T)))
        lam = lam - lam[-1]
        ex = np.exp(lam)
        p = ex / ex.sum()
        uh = u.conj().T
        # K = (E / tr exp H) o G - tr(G sigma) diag(sigma), with E the divided
        # differences of exp at lam, written e^max(lam_j, lam_k) expm1(-d) / -d
        # for d = |lam_j - lam_k| so that equal eigenvalues (theta = 0) stay exact
        d = -np.abs(lam[:, None] - lam[None, :])
        with np.errstate(all="ignore"):
            value, gt, g_mean = self._at(p, u, uh)
            e_div = np.divide(np.expm1(d), d, out=np.ones_like(d), where=d != 0.0)
            k = e_div * np.maximum(p[:, None], p[None, :]) * gt
            k.ravel()[:: self.rank + 1] -= g_mean * p
            grad = _pack_hermitian(u @ k @ uh)
        if not np.isfinite(grad).all():
            grad = np.nan_to_num(grad, nan=0.0, posinf=1e12, neginf=-1e12)
        return _Point(theta, value, grad, p, u, gt, g_mean)

    @np.errstate(all="ignore")
    def certify(self, point: _Point, gap: float, tol: float) -> tuple[float, np.ndarray, float]:
        """Value, sigma and gap of a finished start, polished while the gap exceeds ``tol``.

        ``point`` is the start's last iterate and ``gap`` its ``_fw_gap``, such
        as the descent's, so a start its descent certified costs no second
        eigensolve.  Near a face of the state space the theta-gradient
        vanishes along the eigenvectors whose eigenvalues are tiny, however
        steep F is there, so a descent can stop with a small theta-gradient and
        a large gap.  Such a start takes up to ``_POLISH_STEPS`` Frank-Wolfe steps
        ``sigma -> sigma + gamma (vv^dag - sigma)`` toward the eigenvector ``v``
        of G's least eigenvalue.  F is convex along the step, so ``gamma`` is
        the lower end of a bisection of ``[0, 1]`` on the sign of F's slope (a
        slope that is not finite lies past an eigenvalue the value needs and
        counts as positive), stopped at ``_ROOT_RTOL`` relative width.  The gap
        is computed where the step lands, so that width costs progress, never
        a wrong gap.  Each point's ``F - gap`` bounds ``min F`` from below, and
        the Frank-Wolfe gap is not monotone along the steps, so the gap
        returned is the last value minus the greatest of these bounds: never
        above any gap seen.
        """
        _, value, _, p, u, gt, _ = point
        fw, bound = gap, -math.inf
        for _ in range(_POLISH_STEPS):
            if gap <= tol or fw == math.inf:
                break
            bound = max(bound, value - fw)
            v = _lapack.eigh(gt)[1][:, 0]
            direction = np.outer(v, v.conj()) - np.diag(p)  # in the basis u

            def moved(gamma: float):
                q, w = _lapack.eigh(np.diag(p) + gamma * direction)
                return np.clip(q, 0.0, None), u @ w, w

            def slope(gamma: float) -> float:
                q, uw, w = moved(gamma)
                gt_gamma = self._at(q, uw, uw.conj().T)[1]
                return float(np.sum(gt_gamma * (w.conj().T @ direction @ w).T).real)

            lo, hi = 0.0, 1.0
            for _ in range(_ROOT_STEPS):
                if hi - lo <= _ROOT_RTOL * hi:
                    break
                mid = 0.5 * (lo + hi)
                if -math.inf < slope(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            p, u, _ = moved(lo)
            value, gt, g_mean = self._at(p, u, u.conj().T)
            fw = _fw_gap(gt, g_mean)
            gap = min(fw, value - bound)
        return value, self._embed(p, u), gap

    def _embed(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``u diag(p) u^dag`` written on the full conditioning space, exactly Hermitian."""
        sigma = self.support @ ((u * p) @ u.conj().T) @ self.support.conj().T
        return (sigma + sigma.conj().T) / 2.0


def _start_points(objective: _Objective, opts: OptimizerOptions) -> list[np.ndarray]:
    """Start 0, theta = 0 (the maximally mixed state), then at ``opts.starts == 2`` the marginal."""
    starts = [np.zeros(objective.n_params)]
    if opts.starts == 2:
        log_w = np.log(objective.marginal)
        starts.append(_pack_hermitian(np.diag(log_w - log_w.mean())))
    return starts


def _wolfe_step(objective: _Objective, point: _Point, direction: np.ndarray):
    """The point at ``theta + t d`` that meets the weak Wolfe conditions, or ``None``.

    Sufficient decrease ``F(theta + t d) <= F(theta) + c1 t g.d`` and curvature
    ``grad F(theta + t d).d >= c2 g.d``: t doubles while only the curvature test
    fails and no step has yet been too long, and is bisected once one has
    (Lewis and Overton, *Math. Programming* 2013).  A non-finite value counts
    as too long.
    """
    slope = float(point.grad @ direction)
    if not slope < 0.0:
        return None
    lo, hi, t = 0.0, math.inf, 1.0
    for _ in range(_LINE_SEARCH_STEPS):
        trial = objective.evaluate(point.theta + t * direction)
        if not trial.value <= point.value + _ARMIJO * t * slope:
            hi = t
        elif trial.grad @ direction < _CURVATURE * slope:
            lo = t
        else:
            return trial
        t = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    return None


def _descend(objective: _Objective, x: np.ndarray, tol: float, max_iters: int):
    """BFGS from ``x`` that stops at the first iterate whose gap is at most ``tol``.

    The inverse Hessian starts as the identity, is rescaled to
    ``(s.y / y.y) I`` after the first step, and skips its update when
    ``s.y <= 0``.  Returns the last iterate, its ``_fw_gap``, the iterations
    taken and why the descent stopped.
    """
    point = objective.evaluate(x)
    gap = _fw_gap(point.gt, point.g_mean)
    if gap <= tol:
        return point, gap, 0, "certified"
    if not math.isfinite(point.value):
        return point, gap, 0, "value not finite"
    h = None
    for it in range(1, max_iters + 1):
        grad = point.grad
        new = _wolfe_step(objective, point, -(grad if h is None else h @ grad))
        if new is None:
            return point, gap, it - 1, "line search failed"
        s, y = new.theta - point.theta, new.grad - grad
        sy = float(s @ y)
        if sy > 0.0:
            if h is None:
                h = (sy / float(y @ y)) * np.eye(s.size)
            hy = h @ y
            hys = hy[:, None] * s  # np.outer(hy, s), without its wrapper
            h += (sy + float(y @ hy)) / sy**2 * (s[:, None] * s) - (hys + hys.T) / sy
        point = new
        gap = _fw_gap(point.gt, point.g_mean)
        if gap <= tol:
            return point, gap, it, "certified"
    return point, gap, max_iters, "max_iters reached"


def conditional_entropy_optimize(
    state: BipartiteState,
    f: DivergenceFunction,
    opts: OptimizerOptions | None = None,
    cond: str = "B",
) -> OptimizationReport:
    """Conditional entropy by direct minimization over the conditioning marginal.

    Runs BFGS descents (exact Daleckii-Krein gradients, weak-Wolfe line
    search) over ``sigma(H) = exp(H) / tr exp(H)`` restricted to the support of
    the reduced conditioning state: from theta = 0, the maximally mixed state
    on the support, then, at ``opts.starts == 2``, from the conditioning
    marginal.  The divergence is convex in sigma, so every stationary theta is
    a global minimum (a third start could not help; see the module docstring)
    and the Frank-Wolfe gap ``tr(G sigma) - lambda_min(G)`` of the
    sigma-gradient G bounds how far an iterate's value lies above the minimum
    (Jaggi, ICML 2013).  A descent stops at the first iterate whose gap is at
    most ``opts.value_tol``, after ``opts.max_iters`` iterations, or when its
    line search fails.  Whatever the reason, a finished start whose gap exceeds
    ``opts.value_tol`` takes a few Frank-Wolfe polish steps, and a start is
    accepted iff its gap is then at most ``opts.value_tol``.  The first
    accepted start ends the solve, so every report returned is certified.
    Raises :class:`ConvergenceError`, with each start's gap, iterations and
    stop reason, when no start is accepted.
    """
    _require_wellbehaved(f)
    opts = opts or OptimizerOptions()
    objective = _Objective(state, cond, f)

    runs = []
    for x0 in _start_points(objective, opts):
        point, gap, nit, reason = _descend(objective, x0, opts.value_tol, opts.max_iters)
        value, sigma, gap = objective.certify(point, gap, opts.value_tol)
        runs.append((nit, gap, reason))
        if gap <= opts.value_tol:
            return OptimizationReport(
                value=-value,
                sigma_star=sigma,
                iterations_per_start=tuple(nit for nit, _, _ in runs),
                gap=gap,
            )
    details = "; ".join(
        f"start {i}: gap {gap:.3g} after {nit} iterations, {reason}"
        for i, (nit, gap, reason) in enumerate(runs)
    )
    raise ConvergenceError(f"no start certified within value_tol {opts.value_tol:g} ({details})")


def conditional_entropy_tsallis_closed(
    state: BipartiteState,
    alpha: float,
    cond: str = "B",
) -> tuple[float, np.ndarray]:
    """Closed-form power-family conditional entropy and its optimizing state.

    The minimizer, a Hermitian ndarray on the conditioning space, is the
    normalized ``1/alpha`` power of the reduced ``alpha``-power
    ``tr_rest(rho**alpha)``, giving the value
    ``(1 - (tr [tr_rest(rho**alpha)]**(1/alpha))**alpha) / (alpha - 1)``.
    One formula, exact at ``alpha = 1``, where it is ``H(rho) - H(rho_cond)``
    with the conditioning marginal as the minimizer: with ``w`` the spectrum
    divided by its trace and ``t`` that of the reduced power, the trace's
    excess over 1 is ``alpha - 1`` times ``sum w _qlog(w, alpha - 1) -
    sum t _qlog(t, (1 - alpha) / alpha) / alpha``.  Valid, and accurate to a few
    eps (see :func:`_from_power_mean`), for ``alpha`` in ``(0, 2]`` where the
    divergence is monotone.
    """
    alpha = _monotone_alpha(alpha)
    cond_idx = _conditioning_split(state, cond)[0]
    return _tsallis_closed(state.entries, state.dims, alpha, cond_idx)


def _power(x: np.ndarray, e):
    """``x ** e``; for a list ``e`` of one exponent per row of a stack ``x``, each row to its own,
    from one float power of the stack per distinct exponent.  An array of exponents would
    miss numpy's square-root and square paths for 0.5 and 2 and move a one-item call's bits."""
    if isinstance(e, float):
        return x**e
    index: dict[float, int] = {}
    codes = [index.setdefault(u, len(index)) for u in e]
    return np.stack([x**u for u in index])[codes, range(len(codes))]


def _tsallis_closed(rho: np.ndarray, dims, alpha, cond_idx):
    """:func:`conditional_entropy_tsallis_closed` of a state's entries, or of each state of a
    stack ``(n, d, d)`` with its own call's bits, as a list of values and a stack of
    minimizers.  ``alpha`` is one float for every state or a sequence of one per state, so
    states of one dims and ``cond`` share a stack; each power step is taken once per
    distinct alpha.  Unchecked; only the spectral sums are taken state by state."""
    w, v, k = psd_eigh(rho)
    w /= w.sum(axis=-1, keepdims=True)
    rho_pow = (v * _power(w, alpha)[..., None, :]) @ v.conj().mT
    wt, vt, kt = psd_eigh(ptrace_entries(rho_pow, dims, cond_idx))
    # scaled so that it cannot overflow
    inverse = 1.0 / alpha if isinstance(alpha, float) else [1.0 / a for a in alpha]
    root = (vt * _power(wt / wt[..., -1:], inverse)[..., None, :]) @ vt.conj().mT
    sigma = root / root.trace(axis1=-2, axis2=-1).real[..., None, None]
    sigma = (sigma + sigma.conj().mT) / 2.0

    def value(w, wt, k, kt, alpha) -> float:
        w, wt = w[k:], wt[kt:]
        k = float(w @ _qlog(w, alpha - 1.0) - wt @ _qlog(wt, (1.0 - alpha) / alpha) / alpha)
        return _from_power_mean(k, alpha, wt)

    with np.errstate(over="ignore"):  # an infinite k takes the log-sum-exp
        if rho.ndim == 2:
            return value(w, wt, k, kt, alpha), sigma
        alphas = [alpha] * len(k) if isinstance(alpha, float) else alpha
        return [value(*each) for each in zip(w, wt, k, kt, alphas)], sigma


def thm2_bounds(
    state: BipartiteState,
    f: DivergenceFunction,
    cond: str = "B",
) -> tuple[float, float]:
    """Two-sided trace bounds on the conditional entropy.

    ``-tr(f(d rho)) / d <= H_f(rho|cond) <= -tr(f(rho))`` with ``d`` the
    conditioning dimension; for the power family these reduce to expressions
    in the joint power-family entropy.
    """
    _require_wellbehaved(f)
    d_cond = _conditioning_split(state, cond)[2]
    w = _lapack.eigvalsh(state.entries)
    w = w[clamp_psd_spectrum(w):]
    lower = -float(np.sum(f(d_cond * w))) / d_cond
    upper = -float(np.sum(f(w)))
    return lower, upper


def pure_state_bounds_tsallis(
    schmidt_coeffs: Sequence[float],
    alpha: float,
) -> tuple[float, float]:
    """Conditional-entropy bracket of a bipartite pure state from its Schmidt data.

    Lower bound ``ln_alpha(1/S)`` with ``S`` the Schmidt number, upper bound
    ``ln_alpha`` of the largest squared coefficient; both coincide when the
    coefficients are all equal, and the upper bound is strictly negative for
    entangled states.
    """
    alpha = _monotone_alpha(alpha)
    # the squared coefficients are the conditioning marginal's spectrum, and the
    # Schmidt number counts those that the kernel rule keeps, as the closed form does
    w = np.sort(_schmidt_coefficients(schmidt_coeffs) ** 2)
    lower = alpha_log(1.0 / (w.size - clamp_psd_spectrum(w)), alpha)
    upper = alpha_log(float(w[-1]), alpha)
    return lower, upper


def classical_register_closed_form(
    block_entropies: Sequence[float],
    p: Sequence[float],
    alpha: float,
) -> float:
    """Exact conditional entropy of a classical-register mixture from its blocks.

    Combines per-block conditional entropies ``H_y`` through the weighted
    ``1/alpha`` power mean of ``t_y = 1 + (1 - alpha) H_y`` (positive for any
    state's entropy): one formula, exact at ``alpha = 1``, the plain average.
    """
    alpha = _monotone_alpha(alpha)
    h = np.asarray(block_entropies, dtype=float).ravel()
    if not np.isfinite(h).all():
        raise DomainError("block entropies must be finite")
    w = _probability_vector(p)
    if h.size != w.size or h.size == 0:
        raise DomainError("block entropies and probabilities must align and be non-empty")
    t = 1.0 + (1.0 - alpha) * h
    if (t <= 0).any():
        raise DomainError(
            f"inconsistent block entropies: 1 + (1 - alpha) H = {t.min()!r} is not positive"
        )
    keep = w > 0.0  # 0 * inf would be NaN
    w, h, t = w[keep], h[keep], t[keep]
    with np.errstate(over="ignore"):  # an infinite k takes the log-sum-exp
        k = -float(w @ (h + t * _qlog(t, (1.0 - alpha) / alpha) / alpha))
    return _from_power_mean(k, alpha, t, w)


def chain_rule_rhs(h_abc_given_bc: float, d_c: int, alpha: float) -> float:
    """Upper bound on conditioning by less: ``d_C**(1-alpha) h + ln_alpha(d_C)``."""
    d_c = _integer(d_c, "d_C", least=1)
    alpha = _monotone_alpha(alpha)
    h = float(h_abc_given_bc)
    if not math.isfinite(h):
        raise DomainError(f"the conditional entropy must be finite, got {h!r}")
    return d_c ** (1.0 - alpha) * h + alpha_log(float(d_c), alpha)
