"""Conditional entropies built from f-divergences.

The defining quantity is ``-inf_sigma D_f(rho || 1 (x) sigma)`` over normalized
density operators ``sigma`` living on the support of the reduced state of the
conditioning factor.  The generic path solves that minimization numerically
with a multi-start quasi-Newton descent over an exponential parameterization
``sigma(H) = exp(H) / tr exp(H)``, which keeps iterates strictly feasible; its
gradient is exact, from Daleckii-Krein divided differences.  Every rank of the
conditioning marginal takes this one path, and one gradient threshold accepts a start.
For the power family there is an independent closed form (the reduced
``alpha``-power trace), and for ``alpha = 1`` the entropy-difference formula;
both are cross-validated against the optimizer in the test suite.

States carry their factor dimensions; ``cond`` selects the conditioning
factors by label, e.g. ``cond="B"`` on an (A, B, C) state conditions on the
middle factor alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from . import rng
from .errors import ConvergenceError, DomainError, PreconditionError
from .fdiv import ALPHA_ONE_TOL, DivergenceFunction, _positive_alpha
from .linalg import (
    BipartiteState,
    DensityOperator,
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

    starts: int = 4
    value_tol: float = 1e-6
    max_iters: int = 500
    seed: int = 0


@dataclass(frozen=True)
class OptimizationReport:
    value: float
    sigma_star: DensityOperator
    starts: int
    iterations_per_start: tuple[int, ...]
    best_start_index: int
    converged: bool


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
# relative step of the central difference giving g', and the relative gap below
# which a divided difference of g switches to the mean of g' at its two ends;
# eps**(1/3) balances truncation against rounding in both
_REL_STEP = 1e-5
_STEPS = np.array([[1.0], [1.0 + _REL_STEP], [1.0 - _REL_STEP]])
# weights moved onto one eigenvector of sigma when probing a finished start
_PROBE_WEIGHTS = np.logspace(-1, -15, 15)[:, None, None]
# the one acceptance rule: a finished start must have max|grad theta| at most this
_GRAD_TOL = 1e-6


class _Objective:
    """Divergence against ``1 (x) sigma(theta)`` and its exact gradient in theta.

    The joint state is eigendecomposed once.  Writing ``rho = sum_n w_n
    |psi_n><psi_n|`` and ``R_n = tr_rest |psi_n><psi_n|`` restricted to the
    support of the conditioning marginal, the objective is
    ``F = sum_n tr(R_n g_n(sigma))`` with ``g_n(s) = s f(w_n / s)``.  One
    parameter vector costs a single ``r x r`` eigensolve of ``H(theta)``; the
    gradient chains two Daleckii-Krein divided-difference matrices (Bhatia,
    *Matrix Analysis*, V.3): those of ``g_n`` at sigma's eigenvalues give the
    sigma-gradient ``G = sum_n Gamma_n o (U^dag R_n U)``, and those of ``exp``
    at H's eigenvalues carry it through ``sigma = exp(H) / tr exp(H)``.
    """

    def __init__(self, entries: np.ndarray, d_rest: int, d_cond: int, f: DivergenceFunction):
        self.f = f
        w, psi = psd_eigh(entries)
        rho_cond = ptrace_entries(entries, (d_rest, d_cond), [1])
        wb, vb = psd_eigh(rho_cond)
        self.support = vb[:, wb > 0.0]
        self.rho_cond = rho_cond
        r = self.support.shape[1]
        self.rank = r
        pos = w > 0.0
        self.weights = w[pos, None]
        kets = np.ascontiguousarray(psi[:, pos].T).reshape(-1, d_rest, d_cond)
        reduced = np.einsum("nkb,nkc->nbc", kets, kets.conj())
        self.reduced = self.support.conj().T @ reduced @ self.support
        self.n_params = r * r

    def _frame(self, theta: np.ndarray):
        """Eigenvalues of H (shifted to max 0), its eigenvectors, sigma's eigenvalues,
        and the ``U^dag R_n U``."""
        t = theta.reshape(self.rank, self.rank)
        # the inverse of _pack_hermitian
        lam, u = np.linalg.eigh(0.5 * ((t + t.T) + 1j * (t - t.T)))
        lam = lam - lam[-1]
        ex = np.exp(lam)
        p = ex / ex.sum()
        return lam, u, p, u.conj().T @ self.reduced @ u

    def _g(self, s: np.ndarray) -> np.ndarray:
        """``g_n(s_j)`` for eigenvalue rows ``s`` of shape ``(..., r)``: shape ``(..., N, r)``."""
        s = np.maximum(s, _S_FLOOR)[..., None, :]
        return s * self.f(self.weights / s)

    @staticmethod
    def _total(g: np.ndarray, a_diag: np.ndarray) -> np.ndarray:
        """``sum_n sum_j g_n(s_j) (U^dag R_n U)_jj`` over the last two axes, ``0 * inf = 0``."""
        terms = g * a_diag
        if not np.isfinite(terms).all():
            terms = np.where(np.isinf(g) & (a_diag <= 0.0), 0.0, terms)
        return terms.sum(axis=(-2, -1))

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        lam, u, p, a = self._frame(theta)
        s = np.maximum(p, _S_FLOOR)
        with np.errstate(all="ignore"):
            # g_n at s and at s (1 +- step), for the value and g_n'
            g0, g_up, g_down = self._g(s * _STEPS)
            value = float(self._total(g0, np.diagonal(a, axis1=1, axis2=2).real))
            dg = (g_up - g_down) / ((2.0 * _REL_STEP) * s)
            gap = s[:, None] - s[None, :]
            near = np.abs(gap) <= _REL_STEP * np.maximum(s[:, None], s[None, :])
            gamma = np.where(
                near,
                0.5 * (dg[:, :, None] + dg[:, None, :]),
                (g0[:, :, None] - g0[:, None, :]) / np.where(near, 1.0, gap),
            )
            gt = (gamma * a).sum(axis=0)
            g_mean = gt.diagonal().real @ p
        # K = (E / tr exp H) o G - tr(G sigma) diag(sigma), with E the divided
        # differences of exp at lam, written e^max(lam_j, lam_k) expm1(-d) / -d
        # for d = |lam_j - lam_k| so that equal eigenvalues (theta = 0) stay exact
        d = -np.abs(lam[:, None] - lam[None, :])
        e_div = np.divide(np.expm1(d), d, out=np.ones_like(d), where=d != 0.0)
        k = e_div * np.maximum(p[:, None], p[None, :]) * gt
        k[np.diag_indices(self.rank)] -= g_mean * p
        grad = _pack_hermitian(u @ k @ u.conj().T)
        if not np.isfinite(grad).all():
            grad = np.nan_to_num(grad, nan=0.0, posinf=1e12, neginf=-1e12)
        return value, grad

    def beaten_on_eigenvectors(self, theta: np.ndarray, tol: float) -> bool:
        """Whether moving weight onto one eigenvector of sigma(theta) lowers the value by > tol.

        Along an eigenvector whose eigenvalue has underflowed, the theta-gradient
        vanishes whatever the objective does, so a descent can settle on a face
        of the state space away from the minimum.  There ``g_n'`` is lost to
        rounding too, since ``s f(w/s)`` no longer resolves its variation, so
        the face is exposed by values instead: sigma is mixed with each of its
        eigenprojectors at the weights ``_PROBE_WEIGHTS``.  A feasible point
        lower by more than ``tol``, beyond rounding, means this start cannot be
        within ``tol`` of the minimum.
        """
        _, _, p, a = self._frame(theta)
        a_diag = np.diagonal(a, axis1=1, axis2=2).real
        mixed = (1.0 - _PROBE_WEIGHTS) * p + _PROBE_WEIGHTS * np.eye(self.rank)
        with np.errstate(all="ignore"):
            base = self._total(self._g(p), a_diag)
            probes = self._total(self._g(mixed), a_diag)
        return bool(np.any(probes < base - tol - 1e-12 * (1.0 + abs(base))))

    def sigma(self, theta: np.ndarray) -> np.ndarray:
        _, u, p, _ = self._frame(theta)
        inner = (u * p) @ u.conj().T
        return self.support @ inner @ self.support.conj().T


def _start_points(objective: _Objective, opts: OptimizerOptions) -> list[np.ndarray]:
    """Mixed state on the support, the reduced state itself, then seeded random."""
    r = objective.rank
    starts = [np.zeros(objective.n_params)]
    if opts.starts >= 2:
        v = objective.support
        sig0 = v.conj().T @ objective.rho_cond @ v
        w0, u0 = np.linalg.eigh(sig0)
        w0 = np.clip(w0.real, 1e-12, None)
        h = (u0 * np.log(w0)) @ u0.conj().T
        h = h - (np.trace(h).real / r) * np.eye(r)
        starts.append(_pack_hermitian(h))
    gen = rng.generator(opts.seed)
    for _ in range(opts.starts - len(starts)):
        starts.append(0.5 * rng.standard_normals(gen, objective.n_params))
    return starts


def conditional_entropy_optimize(
    state: BipartiteState,
    f: DivergenceFunction,
    opts: OptimizerOptions | None = None,
    cond: str = "B",
) -> OptimizationReport:
    """Conditional entropy by direct minimization over the conditioning marginal.

    Runs ``opts.starts`` independent BFGS descents (exact Daleckii-Krein
    gradients) over ``sigma(H) = exp(H) / tr exp(H)`` restricted to the support
    of the reduced conditioning state.  Whatever scipy's status, a start is
    accepted iff its final ``max|grad theta| <= 1e-6`` and no mix of sigma with
    one of its eigenprojectors is lower by more than ``opts.value_tol`` (else
    it is saturated on a face of the state space).  The divergence is convex,
    so ``converged`` needs the accepted starts to agree within ``opts.value_tol``.
    Raises :class:`ConvergenceError` when no start is accepted.
    """
    _require_wellbehaved(f)
    opts = opts or OptimizerOptions()
    if opts.starts < 1:
        raise DomainError("optimizer needs at least one start")
    entries, d_rest, d_cond = _conditioning_view(state, cond)
    objective = _Objective(entries, d_rest, d_cond, f)

    runs = []
    for x0 in _start_points(objective, opts):
        res = minimize(
            objective.value_and_grad,
            x0,
            jac=True,
            method="BFGS",
            options={"gtol": 1e-9, "maxiter": opts.max_iters},
        )
        grad_norm = float(np.abs(res.jac).max())
        failure = None if grad_norm <= _GRAD_TOL else f"max|grad| {grad_norm:.3g}: {res.message}"
        if failure is None and objective.beaten_on_eigenvectors(res.x, opts.value_tol):
            failure = "saturated on a face of the state space"
        runs.append((float(res.fun), np.asarray(res.x), int(res.nit), failure))

    converged = [(v, i) for i, (v, _, _, failure) in enumerate(runs) if failure is None]
    if not converged:
        details = "; ".join(f"start {i}: {failure}" for i, (*_, failure) in enumerate(runs))
        raise ConvergenceError(f"no optimizer start converged ({details})")
    best_value, best_index = min(converged)
    spread = max(v for v, _ in converged) - best_value
    sigma = objective.sigma(runs[best_index][1])
    return OptimizationReport(
        value=-best_value,
        sigma_star=DensityOperator(sigma),
        starts=len(runs),
        iterations_per_start=tuple(r[2] for r in runs),
        best_start_index=best_index,
        converged=spread <= opts.value_tol,
    )


def conditional_entropy_tsallis_closed(
    state: BipartiteState,
    alpha: float,
    cond: str = "B",
) -> tuple[float, DensityOperator]:
    """Closed-form power-family conditional entropy and its optimizing state.

    The minimizer is the normalized ``1/alpha`` power of the reduced
    ``alpha``-power ``tr_rest(rho**alpha)``, giving the value
    ``(1 - (tr [tr_rest(rho**alpha)]**(1/alpha))**alpha) / (alpha - 1)``.
    Valid for ``alpha`` in ``(0, 2]`` where the divergence is monotone.
    """
    alpha = _monotone_alpha(alpha)
    entries, d_rest, d_cond = _conditioning_view(state, cond)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        rho_cond = ptrace_entries(entries, (d_rest, d_cond), [1])
        return conditional_entropy_vn_closed(state, cond), DensityOperator(rho_cond)
    w, v = psd_eigh(entries)
    rho_pow = (v * w**alpha) @ v.conj().T
    reduced = ptrace_entries(rho_pow, (d_rest, d_cond), [1])
    wt, vt = psd_eigh(reduced)
    root = (vt * wt ** (1.0 / alpha)) @ vt.conj().T
    norm = float(np.trace(root).real)
    value = (1.0 - norm**alpha) / (alpha - 1.0)
    return value, DensityOperator(root / norm)


def conditional_entropy_vn_closed(state: BipartiteState, cond: str = "B") -> float:
    """Entropy-difference form ``H(rho) - H(rho_cond)`` of the conditional entropy."""
    entries, d_rest, d_cond = _conditioning_view(state, cond)
    rho_cond = ptrace_entries(entries, (d_rest, d_cond), [1])
    return tsallis_entropy(entries, 1.0) - tsallis_entropy(rho_cond, 1.0)


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
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return float(h_abc_given_bc) + math.log(d_c)
    return d_c ** (1.0 - alpha) * float(h_abc_given_bc) + alpha_log(float(d_c), alpha)
