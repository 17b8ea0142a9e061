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
the first iterate whose gap is within the value tolerance, and starts run one
at a time until one is certified.
For the power family there is an independent closed form (the reduced
``alpha``-power trace, and at ``alpha = 1`` the entropy difference), which
the test suite cross-validates against the optimizer.

States carry their factor dimensions; ``cond`` selects the conditioning
factors by label, e.g. ``cond="B"`` on an (A, B, C) state conditions on the
middle factor alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConvergenceError, DomainError, PreconditionError
from .fdiv import ALPHA_ONE_TOL, DivergenceFunction, _positive_alpha
from .linalg import (
    BipartiteState,
    _factor_indices,
    _probability_vector,
    _schmidt_coefficients,
    as_matrix,
    clamp_psd_spectrum,
    permute_subsystems,
    psd_eigh,
    ptrace_entries,
)

@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs of the conditional-entropy minimizer; all surfaced by the CLI."""

    starts: int = 4  # the most starts a solve may run; it stops at the first certified one
    value_tol: float = 1e-6
    max_iters: int = 500
    seed: int = 0


@dataclass(frozen=True)
class OptimizationReport:
    """A certified solve: its conditional entropy, minimizer and how it was found.

    ``sigma_star`` is a Hermitian ndarray on the conditioning space.
    """

    value: float
    sigma_star: np.ndarray
    iterations_per_start: tuple[int, ...]
    converged: bool
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
    alpha = _positive_alpha(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return math.log(xi)
    return (xi ** (1.0 - alpha) - 1.0) / (1.0 - alpha)


def tsallis_entropy(rho, alpha: float) -> float:
    """Power-family entropy ``(1 - tr rho**alpha) / (alpha - 1)`` of a normalized state."""
    alpha = _positive_alpha(alpha)
    # the kernel is dropped: fractional powers would amplify its eigenvalue noise
    w = clamp_psd_spectrum(np.linalg.eigvalsh(as_matrix(rho)))
    w = w[w > 0.0]
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return float(-np.sum(w * np.log(w)))
    return (1.0 - float(np.sum(w**alpha))) / (alpha - 1.0)


def _conditioning_view(state: BipartiteState, cond: str):
    """Permute the state so the conditioning factors form one trailing block.

    Returns ``(entries, d_rest, d_cond)`` for the equivalent two-factor split.
    """
    dims = state.dims
    n = len(dims)
    cond_idx = _factor_indices(cond, n)
    rest = [i for i in range(n) if i not in cond_idx]
    if not rest:
        raise DomainError("cannot condition on every factor")
    perm = rest + cond_idx
    entries = state.entries
    if perm != list(range(n)):
        entries = permute_subsystems(entries, dims, perm)
    d_rest = math.prod(dims[i] for i in rest)
    d_cond = math.prod(dims[i] for i in cond_idx)
    return entries, d_rest, d_cond


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
    """Frank-Wolfe gap ``tr(G sigma) - lambda_min(G)``; ``inf`` when G is not finite."""
    if not (math.isfinite(g_mean) and np.isfinite(gt).all()):
        return math.inf
    return max(g_mean - float(np.linalg.eigvalsh(gt)[0]), 0.0)


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

    def __init__(self, entries: np.ndarray, d_rest: int, d_cond: int, f: DivergenceFunction):
        self.f = f
        w, psi = psd_eigh(entries)
        rho_cond = ptrace_entries(entries, (d_rest, d_cond), [1])
        wb, vb = psd_eigh(rho_cond)
        self.support = vb[:, wb > 0.0]
        # the conditioning marginal in the support basis is diag(marginal)
        self.marginal = wb[wb > 0.0]
        r = self.support.shape[1]
        self.rank = r
        pos = w > 0.0
        self.weights = w[pos, None]
        kets = np.ascontiguousarray(psi[:, pos].T).reshape(-1, d_rest, d_cond)
        reduced = np.einsum("nkb,nkc->nbc", kets, kets.conj())
        self.reduced = self.support.conj().T @ reduced @ self.support
        self.n_params = r * r

    def _frame(self, theta: np.ndarray):
        """Eigenvalues of H (shifted to max 0), its eigenvectors and sigma's eigenvalues."""
        t = theta.reshape(self.rank, self.rank)
        # the inverse of _pack_hermitian
        lam, u = np.linalg.eigh(0.5 * ((t + t.T) + 1j * (t - t.T)))
        lam = lam - lam[-1]
        ex = np.exp(lam)
        return lam, u, ex / ex.sum()

    def _at(self, p: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Value, sigma-gradient ``gt`` in the basis ``u`` and ``tr(G sigma)`` at
        ``sigma = u diag(p) u^dag``; ``0 * inf = 0`` in the value."""
        a = u.conj().T @ self.reduced @ u
        a_diag = np.diagonal(a, axis1=1, axis2=2).real
        s = np.maximum(p, _S_FLOOR)
        with np.errstate(all="ignore"):
            x = self.weights / s
            g = s * self.f(x)
            dg = self.f.slope(x)
            terms = g * a_diag
            if not np.isfinite(terms).all():
                terms = np.where(np.isinf(g) & (a_diag <= 0.0), 0.0, terms)
            diff = s[:, None] - s[None, :]
            near = np.abs(diff) <= _NEAR_DEGENERATE * np.maximum(s[:, None], s[None, :])
            gamma = np.where(
                near,
                0.5 * (dg[:, :, None] + dg[:, None, :]),
                (g[:, :, None] - g[:, None, :]) / np.where(near, 1.0, diff),
            )
            gt = (gamma * a).sum(axis=0)
            g_mean = float(gt.diagonal().real @ p)
        return float(terms.sum()), gt, g_mean

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Value, theta-gradient and Frank-Wolfe gap at ``sigma(theta)``."""
        lam, u, p = self._frame(theta)
        value, gt, g_mean = self._at(p, u)
        # K = (E / tr exp H) o G - tr(G sigma) diag(sigma), with E the divided
        # differences of exp at lam, written e^max(lam_j, lam_k) expm1(-d) / -d
        # for d = |lam_j - lam_k| so that equal eigenvalues (theta = 0) stay exact
        d = -np.abs(lam[:, None] - lam[None, :])
        e_div = np.divide(np.expm1(d), d, out=np.ones_like(d), where=d != 0.0)
        with np.errstate(all="ignore"):
            k = e_div * np.maximum(p[:, None], p[None, :]) * gt
            k[np.diag_indices(self.rank)] -= g_mean * p
            grad = _pack_hermitian(u @ k @ u.conj().T)
        if not np.isfinite(grad).all():
            grad = np.nan_to_num(grad, nan=0.0, posinf=1e12, neginf=-1e12)
        return value, grad, _fw_gap(gt, g_mean)

    def certify(self, theta: np.ndarray, tol: float) -> tuple[float, np.ndarray, float]:
        """Value, sigma and gap of a finished start, polished while the gap exceeds ``tol``.

        Near a face of the state space the theta-gradient vanishes along the
        eigenvectors whose eigenvalues are tiny, however steep F is there, so
        a descent can stop with a small theta-gradient and a large gap.  Such a
        start takes up to ``_POLISH_STEPS`` Frank-Wolfe steps
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
        _, u, p = self._frame(theta)
        value, gt, g_mean = self._at(p, u)
        fw = gap = _fw_gap(gt, g_mean)
        bound = -math.inf
        for _ in range(_POLISH_STEPS):
            if gap <= tol or fw == math.inf:
                break
            bound = max(bound, value - fw)
            v = np.linalg.eigh(gt)[1][:, 0]
            direction = np.outer(v, v.conj()) - np.diag(p)  # in the basis u

            def moved(gamma: float):
                q, w = np.linalg.eigh(np.diag(p) + gamma * direction)
                return np.clip(q, 0.0, None), u @ w, w

            def slope(gamma: float) -> float:
                q, uw, w = moved(gamma)
                gt_gamma = self._at(q, uw)[1]
                with np.errstate(all="ignore"):
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
            value, gt, g_mean = self._at(p, u)
            fw = _fw_gap(gt, g_mean)
            gap = min(fw, value - bound)
        return value, self._embed(p, u), gap

    def _embed(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``u diag(p) u^dag`` written on the full conditioning space, exactly Hermitian."""
        sigma = self.support @ ((u * p) @ u.conj().T) @ self.support.conj().T
        return (sigma + sigma.conj().T) / 2.0


def _start_points(objective: _Objective, opts: OptimizerOptions):
    """Mixed state on the support, the reduced state itself, then seeded random.

    Yields at most ``opts.starts`` points, lazily: a solve draws the next one
    only while no start has certified.
    """
    yield np.zeros(objective.n_params)
    if opts.starts >= 2:
        log_w = np.log(objective.marginal)
        yield _pack_hermitian(np.diag(log_w - log_w.mean()))
    gen = rng.generator(opts.seed)
    for _ in range(opts.starts - 2):
        yield 0.5 * rng.standard_normals(gen, objective.n_params)


def _wolfe_step(
    objective: _Objective, x: np.ndarray, value: float, grad: np.ndarray, direction: np.ndarray
):
    """A step ``x + t d`` that meets the weak Wolfe conditions, or ``None``.

    Sufficient decrease ``F(x + t d) <= F(x) + c1 t g.d`` and curvature
    ``grad F(x + t d).d >= c2 g.d``: t doubles while only the curvature test
    fails and no step has yet been too long, and is bisected once one has
    (Lewis and Overton, *Math. Programming* 2013).  A non-finite value counts
    as too long.  Returns the new point with its value, gradient and gap.
    """
    slope = float(grad @ direction)
    if not slope < 0.0:
        return None
    lo, hi, t = 0.0, math.inf, 1.0
    for _ in range(_LINE_SEARCH_STEPS):
        x_t = x + t * direction
        value_t, grad_t, gap_t = objective.evaluate(x_t)
        if not value_t <= value + _ARMIJO * t * slope:
            hi = t
        elif grad_t @ direction < _CURVATURE * slope:
            lo = t
        else:
            return x_t, value_t, grad_t, gap_t
        t = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    return None


def _descend(objective: _Objective, x: np.ndarray, tol: float, max_iters: int):
    """BFGS from ``x`` that stops at the first iterate whose gap is at most ``tol``.

    The inverse Hessian starts as the identity, is rescaled to
    ``(s.y / y.y) I`` after the first step, and skips its update when
    ``s.y <= 0``.  Returns the last iterate, the iterations taken and why the
    descent stopped.
    """
    value, grad, gap = objective.evaluate(x)
    if gap <= tol:
        return x, 0, "certified"
    if not math.isfinite(value):
        return x, 0, "value not finite"
    h = None
    for it in range(1, max_iters + 1):
        step = _wolfe_step(objective, x, value, grad, -(grad if h is None else h @ grad))
        if step is None:
            return x, it - 1, "line search failed"
        x_new, value, grad_new, gap = step
        s, y = x_new - x, grad_new - grad
        sy = float(s @ y)
        if sy > 0.0:
            if h is None:
                h = (sy / float(y @ y)) * np.eye(x.size)
            hy = h @ y
            h += (sy + float(y @ hy)) / sy**2 * np.outer(s, s) - (
                np.outer(hy, s) + np.outer(s, hy)
            ) / sy
        x, grad = x_new, grad_new
        if gap <= tol:
            return x, it, "certified"
    return x, max_iters, "max_iters reached"


def conditional_entropy_optimize(
    state: BipartiteState,
    f: DivergenceFunction,
    opts: OptimizerOptions | None = None,
    cond: str = "B",
) -> OptimizationReport:
    """Conditional entropy by direct minimization over the conditioning marginal.

    Runs BFGS descents (exact Daleckii-Krein gradients, weak-Wolfe line
    search) over ``sigma(H) = exp(H) / tr exp(H)`` restricted to the support of
    the reduced conditioning state, one start at a time and at most
    ``opts.starts`` of them.  The divergence is convex in sigma, so the
    Frank-Wolfe gap ``tr(G sigma) - lambda_min(G)`` of the sigma-gradient G
    bounds how far an iterate's value lies above the minimum (Jaggi, ICML
    2013).  A descent stops at the first iterate whose gap is at most
    ``opts.value_tol``, after ``opts.max_iters`` iterations, or when its line
    search fails.  Whatever the reason, a finished start whose gap exceeds
    ``opts.value_tol`` takes a few Frank-Wolfe polish steps, and a start is
    accepted iff its gap is then at most ``opts.value_tol``.  The first
    accepted start ends the solve, so ``converged`` is true on every report
    returned.  Raises :class:`ConvergenceError`, with each start's gap,
    iterations and stop reason, when no start is accepted.
    """
    _require_wellbehaved(f)
    opts = opts or OptimizerOptions()
    if opts.starts < 1:
        raise DomainError("optimizer needs at least one start")
    entries, d_rest, d_cond = _conditioning_view(state, cond)
    objective = _Objective(entries, d_rest, d_cond, f)

    runs = []
    for x0 in _start_points(objective, opts):
        x, nit, reason = _descend(objective, x0, opts.value_tol, opts.max_iters)
        value, sigma, gap = objective.certify(x, opts.value_tol)
        runs.append((nit, gap, reason))
        if gap <= opts.value_tol:
            return OptimizationReport(
                value=-value,
                sigma_star=sigma,
                iterations_per_start=tuple(nit for nit, _, _ in runs),
                converged=True,
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
    At ``alpha = 1`` this is the entropy difference ``H(rho) - H(rho_cond)``
    with the conditioning marginal ``rho_cond`` as the minimizer.  Valid for
    ``alpha`` in ``(0, 2]`` where the divergence is monotone.
    """
    alpha = _monotone_alpha(alpha)
    entries, d_rest, d_cond = _conditioning_view(state, cond)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        rho_cond = ptrace_entries(entries, (d_rest, d_cond), [1])
        value = tsallis_entropy(entries, 1.0) - tsallis_entropy(rho_cond, 1.0)
        return value, rho_cond
    w, v = psd_eigh(entries)
    rho_pow = (v * w**alpha) @ v.conj().T
    reduced = ptrace_entries(rho_pow, (d_rest, d_cond), [1])
    wt, vt = psd_eigh(reduced)
    root = (vt * wt ** (1.0 / alpha)) @ vt.conj().T
    norm = float(np.trace(root).real)
    value = (1.0 - norm**alpha) / (alpha - 1.0)
    sigma = root / norm
    return value, (sigma + sigma.conj().T) / 2.0


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
    entries, _, d_cond = _conditioning_view(state, cond)
    w, _ = psd_eigh(entries)
    w = w[w > 0.0]
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
    c = _schmidt_coefficients(schmidt_coeffs)
    schmidt_number = int(np.sum(c > 1e-12))
    lower = alpha_log(1.0 / schmidt_number, alpha)
    upper = alpha_log(float(np.max(c) ** 2), alpha)
    return lower, upper


def classical_register_closed_form(
    block_entropies: Sequence[float],
    p: Sequence[float],
    alpha: float,
) -> float:
    """Exact conditional entropy of a classical-register mixture from its blocks.

    Combines per-block conditional entropies ``H_y`` through the weighted
    ``1/alpha`` power mean of ``1 + (1 - alpha) H_y``; at ``alpha = 1`` this
    degenerates to the plain average.
    """
    alpha = _monotone_alpha(alpha)
    h = np.asarray(block_entropies, dtype=float).ravel()
    w = _probability_vector(p)
    if h.size != w.size or h.size == 0:
        raise DomainError("block entropies and probabilities must align and be non-empty")
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return float(np.dot(w, h))
    t = 1.0 + (1.0 - alpha) * h
    if (t < 0).any():
        raise DomainError(
            f"inconsistent block entropies: 1 + (1 - alpha) H = {t.min()!r} is negative"
        )
    mean = float(np.dot(w, t ** (1.0 / alpha)))
    return (mean**alpha - 1.0) / (1.0 - alpha)


def chain_rule_rhs(h_abc_given_bc: float, d_c: int, alpha: float) -> float:
    """Upper bound on conditioning by less: ``d_C**(1-alpha) h + ln_alpha(d_C)``."""
    d_c = int(d_c)
    if d_c < 1:
        raise DomainError(f"d_C must be at least 1, got {d_c}")
    alpha = _monotone_alpha(alpha)
    return d_c ** (1.0 - alpha) * float(h_abc_given_bc) + alpha_log(float(d_c), alpha)
