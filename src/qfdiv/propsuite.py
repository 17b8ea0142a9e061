"""Executable verification of the package's inequalities and identities.

Every registered property runs a randomized ensemble and records signed
margins: for an inequality ``LHS <= RHS`` the margin is ``RHS - LHS`` (slack),
for an exact identity it is ``-|residual|``.  A trial violates the property
when its margin falls below ``-tolerance`` or is NaN (an undefined residual, or
an optimizer solve whose starts disagree), and the property passes when it
recorded at least one margin and no trial violates it.  Seeds derive
deterministically from the master seed and the property id, so reports are
reproducible up to timing.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .channels import (
    apply_channel,
    build_classical_register_state,
    embed_ancilla,
    extend_with_identity,
    pure_bipartite_from_schmidt,
    random_channel,
    random_density,
    trace_out_last_factor_channel,
)
from .condent import (
    BipartiteState,
    OptimizerOptions,
    chain_rule_rhs,
    classical_register_closed_form,
    conditional_entropy_optimize,
    conditional_entropy_tsallis_closed,
    pure_state_bounds_tsallis,
    thm2_bounds,
    tsallis_entropy,
)
from .errors import DomainError
from .fdiv import make_tsallis_f, quantum_f_divergence
from .rng import generator

log = logging.getLogger(__name__)

_U64 = (1 << 64) - 1


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit sub-seed from a master seed and a text label (SHA-256)."""
    payload = (int(master) & _U64).to_bytes(8, "little") + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


@dataclass(frozen=True)
class PropertyConfig:
    """Overrides for a property run; ``None`` fields fall back to registry defaults."""

    trials: int | None = None
    dims: tuple | None = None
    alphas: tuple[float, ...] | None = None
    seed: int = 0
    tolerance: float | None = None


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    trials: int
    violations: int
    worst_margin: float
    tolerance: float
    seed: int
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        def _num(x: float):
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            if math.isnan(x):
                return "nan"
            return x

        return {
            "property_id": self.property_id,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": _num(self.worst_margin),
            "tolerance": self.tolerance,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class _Resolved:
    trials: int
    dims: tuple
    alphas: tuple[float, ...]
    seed: int
    tolerance: float


_BIPARTITE_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))
_WIDE_ALPHAS = (0.3, 0.5, 1.0, 1.5, 2.0)


def _sub(cfg: _Resolved, label: str, t: int) -> int:
    return derive_seed(cfg.seed, f"{label}/{t}")


def _random_bipartite(dims: tuple[int, int], rank: int, seed: int) -> BipartiteState:
    return BipartiteState(random_density(math.prod(dims), rank, seed), dims)


def _entropy(state: BipartiteState, alpha: float, cond: str = "B") -> float:
    return conditional_entropy_tsallis_closed(state, alpha, cond=cond)[0]


def _optimized(state: BipartiteState, alpha: float, opts: OptimizerOptions) -> float:
    """Optimizer value, or NaN (a violation) when its starts disagree."""
    report = conditional_entropy_optimize(state, make_tsallis_f(alpha), opts)
    return report.value if report.converged else math.nan


def _run_dpi(cfg: _Resolved) -> list[float]:
    margins = []
    for ai, alpha in enumerate(cfg.alphas):
        f = make_tsallis_f(alpha)
        for t in range(cfg.trials):
            d = cfg.dims[t % len(cfg.dims)]
            d_out = cfg.dims[(t + 1) % len(cfg.dims)]
            rho = random_density(d, 1 + t % d, _sub(cfg, f"rho{ai}", t))
            sig = random_density(d, d, _sub(cfg, f"sig{ai}", t))
            phi = random_channel(d, d_out, 2, _sub(cfg, f"phi{ai}", t))
            pre = quantum_f_divergence(rho.entries, sig.entries, f)
            post = quantum_f_divergence(
                apply_channel(phi, rho).entries, apply_channel(phi, sig).entries, f
            )
            margins.append(pre - post)
    return margins


def _run_nonnegativity(cfg: _Resolved) -> list[float]:
    margins = []
    alphas = cfg.alphas
    for t in range(cfg.trials):
        d = cfg.dims[t % len(cfg.dims)]
        f = make_tsallis_f(alphas[t % len(alphas)])
        rho = random_density(d, 1 + t % d, _sub(cfg, "rho", t))
        sig = random_density(d, d, _sub(cfg, "sig", t))
        margins.append(quantum_f_divergence(rho.entries, sig.entries, f))
    return margins


def _run_homogeneity(cfg: _Resolved) -> list[float]:
    margins = []
    lams = (1e-9, 0.1, 0.5, 2.0)
    for t in range(cfg.trials):
        d = cfg.dims[t % len(cfg.dims)]
        f = make_tsallis_f(cfg.alphas[t % len(cfg.alphas)])
        a = random_density(d, 1 + t % d, _sub(cfg, "a", t)).entries
        b = random_density(d, d, _sub(cfg, "b", t)).entries
        base = quantum_f_divergence(a, b, f)
        for lam in lams:
            scaled = quantum_f_divergence(lam * a, lam * b, f)
            margins.append(-abs(scaled - lam * base))
    return margins


def _run_orthogonal_additivity(cfg: _Resolved) -> list[float]:
    margins = []
    for t in range(cfg.trials):
        d1 = cfg.dims[t % len(cfg.dims)]
        d2 = cfg.dims[(t + 1) % len(cfg.dims)]
        f = make_tsallis_f(cfg.alphas[t % len(cfg.alphas)])
        a1 = random_density(d1, 1 + t % d1, _sub(cfg, "a1", t)).entries
        b1 = random_density(d1, d1, _sub(cfg, "b1", t)).entries
        a2 = random_density(d2, 1 + (t + 1) % d2, _sub(cfg, "a2", t)).entries
        b2 = random_density(d2, d2, _sub(cfg, "b2", t)).entries

        def dsum(x, y):
            out = np.zeros((d1 + d2, d1 + d2), dtype=np.complex128)
            out[:d1, :d1] = x
            out[d1:, d1:] = y
            return out

        whole = quantum_f_divergence(dsum(a1, a2), dsum(b1, b2), f)
        parts = quantum_f_divergence(a1, b1, f) + quantum_f_divergence(a2, b2, f)
        margins.append(-abs(whole - parts))
    return margins


def _run_thm2_bounds(cfg: _Resolved) -> list[float]:
    margins = []
    for t in range(cfg.trials):
        dims = cfg.dims[t % len(cfg.dims)]
        alpha = cfg.alphas[t % len(cfg.alphas)]
        rank = 1 + t % math.prod(dims)
        state = _random_bipartite(dims, rank, _sub(cfg, "state", t))
        h = _entropy(state, alpha)
        lower, upper = thm2_bounds(state, make_tsallis_f(alpha))
        margins.append(h - lower)
        margins.append(upper - h)
    return margins


def _run_chain_rule(cfg: _Resolved) -> list[float]:
    margins = []
    dims = (2, 2, 2)
    for alpha in cfg.alphas:
        for t in range(cfg.trials):
            rank = 1 + t % math.prod(dims)
            state = _random_bipartite(dims, rank, _sub(cfg, f"state{alpha:g}", t))
            h_b = _entropy(state, alpha, cond="B")
            h_bc = _entropy(state, alpha, cond="BC")
            margins.append(chain_rule_rhs(h_bc, dims[2], alpha) - h_b)
    return margins


def _register_blocks(cfg: _Resolved, t: int, n_blocks: int):
    blocks = []
    for y in range(n_blocks):
        d_b = 1 + (t + y) % 2
        rank = 1 + (t + y) % (2 * d_b)
        blocks.append(_random_bipartite((2, d_b), rank, _sub(cfg, f"block{y}", t)))
    gen = generator(_sub(cfg, "p", t))
    w = gen.random(n_blocks) + 0.1
    return blocks, w / w.sum()


def _run_mixture_exact(cfg: _Resolved) -> list[float]:
    margins = []
    for t in range(cfg.trials):
        alpha = cfg.alphas[t % len(cfg.alphas)]
        blocks, p = _register_blocks(cfg, t, 2 + t % 2)
        assembled = build_classical_register_state(blocks, p)
        h_blocks = [_entropy(b, alpha) for b in blocks]
        formula = classical_register_closed_form(h_blocks, p, alpha)
        direct = _optimized(assembled, alpha, OptimizerOptions(seed=_sub(cfg, "opt", t)))
        margins.append(-abs(formula - direct))
    return margins


def _run_mixture_lower(cfg: _Resolved) -> list[float]:
    margins = []
    for t in range(cfg.trials):
        alpha = cfg.alphas[t % len(cfg.alphas)]
        blocks, p = _register_blocks(cfg, t, 2 + t % 2)
        assembled = build_classical_register_state(blocks, p)
        lhs = float(np.dot(p, [_entropy(b, alpha) for b in blocks]))
        rhs = _entropy(assembled, alpha)
        margins.append(rhs - lhs)
    return margins


def _run_pure_bounds(cfg: _Resolved) -> list[float]:
    margins = []
    for t in range(cfg.trials):
        dims = cfg.dims[t % len(cfg.dims)]
        alpha = cfg.alphas[t % len(cfg.alphas)]
        k = 1 + t % min(dims)
        if t % 10 == 0:
            coeffs = np.full(k, 1.0 / math.sqrt(k))  # equal coefficients saturate
        else:
            gen = generator(_sub(cfg, "coeffs", t))
            u = gen.random(k) + 1e-3
            coeffs = np.sqrt(u / u.sum())
        state = pure_bipartite_from_schmidt(coeffs, dims[0], dims[1], _sub(cfg, "bases", t))
        h = _entropy(state, alpha)
        lower, upper = pure_state_bounds_tsallis(coeffs, alpha)
        margins.append(h - lower)
        margins.append(upper - h)
    return margins


def _run_product_identity(cfg: _Resolved) -> list[float]:
    margins = []
    for t in range(cfg.trials):
        dims = cfg.dims[t % len(cfg.dims)]
        alpha = cfg.alphas[t % len(cfg.alphas)]
        rho_a = random_density(dims[0], 1 + t % dims[0], _sub(cfg, "a", t))
        rho_b = random_density(dims[1], 1 + (t + 1) % dims[1], _sub(cfg, "b", t))
        state = BipartiteState(np.kron(rho_a.entries, rho_b.entries), dims)
        margins.append(-abs(_entropy(state, alpha) - tsallis_entropy(rho_a, alpha)))
    return margins


def _run_extension_independence(cfg: _Resolved) -> list[float]:
    margins = []
    paddings = (1, 2, 4)
    for t in range(cfg.trials):
        dims = cfg.dims[t % len(cfg.dims)]
        alpha = cfg.alphas[t % len(cfg.alphas)]
        rank = 1 + t % math.prod(dims)
        state = _random_bipartite(dims, rank, _sub(cfg, "state", t))
        opts = OptimizerOptions(seed=_sub(cfg, "opt", t))
        base = _optimized(state, alpha, opts)
        for k in paddings:
            padded = _optimized(embed_ancilla(state, k), alpha, opts)
            margins.append(-abs(padded - base))
    return margins


def _run_thm3_data_processing(cfg: _Resolved) -> list[float]:
    margins = []
    outs = (2, 3)
    for t in range(cfg.trials):
        dims = cfg.dims[t % len(cfg.dims)]
        alpha = cfg.alphas[t % len(cfg.alphas)]
        rank = 1 + t % math.prod(dims)
        state = _random_bipartite(dims, rank, _sub(cfg, "state", t))
        d_out = outs[t % len(outs)]
        psi = random_channel(dims[1], d_out, 2, _sub(cfg, "chan", t))
        lifted = extend_with_identity(psi, dims[0])
        moved = BipartiteState(apply_channel(lifted, state.rho), (dims[0], d_out))
        margins.append(_entropy(moved, alpha) - _entropy(state, alpha))
    return margins


def _run_conditioning_reduces(cfg: _Resolved) -> list[float]:
    margins = []
    dims = (2, 2, 2)
    tracer = trace_out_last_factor_channel(dims[0] * dims[1], dims[2])
    for t in range(cfg.trials):
        alpha = cfg.alphas[t % len(cfg.alphas)]
        rank = 1 + t % math.prod(dims)
        state = _random_bipartite(dims, rank, _sub(cfg, "state", t))
        reduced = BipartiteState(apply_channel(tracer, state.rho), dims[:2])
        h_bc = _entropy(state, alpha, cond="BC")
        h_b = _entropy(reduced, alpha, cond="B")
        margins.append(h_b - h_bc)
    return margins


def _run_alpha_continuity(cfg: _Resolved) -> list[float]:
    margins = []
    for t in range(cfg.trials):
        dims = cfg.dims[t % len(cfg.dims)]
        rank = 1 + t % math.prod(dims)
        state = _random_bipartite(dims, rank, _sub(cfg, "state", t))
        h_one = _entropy(state, 1.0)
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            margins.append(-abs(_entropy(state, alpha) - h_one))
    return margins


def _run_closed_vs_optimizer(cfg: _Resolved) -> list[float]:
    margins = []
    for t in range(cfg.trials):
        dims = cfg.dims[t % len(cfg.dims)]
        alpha = cfg.alphas[t % len(cfg.alphas)]
        rank = 1 + t % math.prod(dims)
        state = _random_bipartite(dims, rank, _sub(cfg, "state", t))
        closed, _ = conditional_entropy_tsallis_closed(state, alpha)
        direct = _optimized(state, alpha, OptimizerOptions(seed=_sub(cfg, "opt", t)))
        margins.append(-abs(closed - direct))
    return margins


@dataclass(frozen=True)
class _PropertySpec:
    runner: Callable[[_Resolved], list[float]]
    trials: int
    dims: tuple
    alphas: tuple[float, ...]
    tolerance: float
    statement: str


REGISTRY: dict[str, _PropertySpec] = {
    "dpi": _PropertySpec(
        _run_dpi, 200, (2, 3, 4), _WIDE_ALPHAS, 1e-8,
        "divergences do not increase under trace-preserving completely positive maps",
    ),
    "nonnegativity": _PropertySpec(
        _run_nonnegativity, 500, (2, 3, 4), (0.5, 1.0, 1.5, 2.0), 1e-10,
        "divergence of normalized states with compatible supports is nonnegative",
    ),
    "homogeneity": _PropertySpec(
        _run_homogeneity, 45, (2, 3, 4), (0.5, 1.0, 1.5, 2.0), 1e-9,
        "scaling both arguments scales the divergence by the same factor",
    ),
    "orthogonal-additivity": _PropertySpec(
        _run_orthogonal_additivity, 45, (2, 3), (0.5, 1.0, 1.5, 2.0), 1e-9,
        "divergence of orthogonal direct sums is the sum of block divergences",
    ),
    "thm2-bounds": _PropertySpec(
        _run_thm2_bounds, 200, _BIPARTITE_DIMS, _WIDE_ALPHAS, 1e-7,
        "conditional entropy sits between the scaled-state trace bounds",
    ),
    "chain-rule": _PropertySpec(
        _run_chain_rule, 100, ((2, 2, 2),), (0.5, 1.0, 2.0), 1e-7,
        "conditioning on less is bounded by the dimension-corrected entropy",
    ),
    "mixture-exact": _PropertySpec(
        _run_mixture_exact, 12, ((2,),), (0.5, 0.8, 1.0, 1.3, 2.0), 1e-6,
        "register-state conditional entropy equals the power-mean of block entropies",
    ),
    "mixture-lower": _PropertySpec(
        _run_mixture_lower, 40, ((2,),), (0.5, 0.8, 1.0, 1.3, 2.0), 1e-7,
        "the weighted block entropies lower-bound the register-state entropy",
    ),
    "pure-bounds": _PropertySpec(
        _run_pure_bounds, 100, ((2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (4, 3)),
        (0.3, 0.7, 1.0, 1.5, 2.0), 1e-7,
        "pure-state conditional entropy lies in the Schmidt-data bracket",
    ),
    "product-identity": _PropertySpec(
        _run_product_identity, 50, _BIPARTITE_DIMS, _WIDE_ALPHAS, 1e-8,
        "conditional entropy of a product state is the first-factor entropy",
    ),
    "extension-independence": _PropertySpec(
        _run_extension_independence, 50, ((2, 2),), (0.5, 1.0, 2.0), 1e-7,
        "zero-padding the conditioning space leaves the conditional entropy fixed",
    ),
    "thm3-data-processing": _PropertySpec(
        _run_thm3_data_processing, 100, ((2, 2), (2, 3)), _WIDE_ALPHAS, 1e-7,
        "a channel on the conditioning system cannot decrease the conditional entropy",
    ),
    "conditioning-reduces": _PropertySpec(
        _run_conditioning_reduces, 100, ((2, 2, 2),), _WIDE_ALPHAS, 1e-7,
        "conditioning on an additional system can only reduce the entropy",
    ),
    "alpha-continuity": _PropertySpec(
        _run_alpha_continuity, 50, _BIPARTITE_DIMS, (1.0,), 1e-3,
        "the power-family entropy approaches the logarithmic one as alpha -> 1",
    ),
    "closed-form-vs-optimizer": _PropertySpec(
        _run_closed_vs_optimizer, 100,
        ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4)),
        (0.3, 0.5, 1.5, 2.0), 1e-6,
        "the closed trace form agrees with the generic spectral minimizer",
    ),
}


def describe(property_id: str) -> str:
    """Human-readable statement a property verifies."""
    if property_id not in REGISTRY:
        raise DomainError(f"unknown property id {property_id!r}")
    return REGISTRY[property_id].statement


def run_property(property_id: str, config: PropertyConfig | None = None) -> PropertyReport:
    """Run one property's ensemble and summarize its margins."""
    if property_id not in REGISTRY:
        raise DomainError(f"unknown property id {property_id!r}")
    spec = REGISTRY[property_id]
    config = config or PropertyConfig()
    cfg = _Resolved(
        trials=config.trials if config.trials is not None else spec.trials,
        dims=config.dims if config.dims is not None else spec.dims,
        alphas=config.alphas if config.alphas is not None else spec.alphas,
        seed=config.seed,
        tolerance=config.tolerance if config.tolerance is not None else spec.tolerance,
    )
    start = time.perf_counter()
    margins = spec.runner(cfg)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    margins_arr = np.asarray(margins, dtype=float)
    if margins_arr.size == 0:
        # an ensemble that checked nothing must not pass
        violations, worst = 1, -math.inf
    else:
        # a NaN margin (inf - inf, an unconverged solve) is a violation
        violations = int(np.sum(~(margins_arr >= -cfg.tolerance)))
        worst = float(margins_arr.min())
    return PropertyReport(
        property_id=property_id,
        trials=len(margins),
        violations=violations,
        worst_margin=worst,
        tolerance=cfg.tolerance,
        seed=cfg.seed,
        elapsed_ms=elapsed_ms,
    )


def run_suite(
    config: PropertyConfig | None = None,
    properties: Sequence[str] | None = None,
) -> list[PropertyReport]:
    """Run registered properties with per-property seeds derived from the master seed.

    ``properties=None`` runs everything; an explicit empty list runs nothing.
    A property that raises is recorded as a failed report (one violation, no
    trials) and the rest continue.
    """
    config = config or PropertyConfig()
    if properties is None:
        properties = list(REGISTRY)
    reports = []
    for pid in properties:
        if pid not in REGISTRY:
            raise DomainError(f"unknown property id {pid!r}")
        sub_config = replace(config, seed=derive_seed(config.seed, pid))
        try:
            reports.append(run_property(pid, sub_config))
        except Exception:
            log.exception("property %s failed to run", pid)
            reports.append(
                PropertyReport(
                    property_id=pid,
                    trials=0,
                    violations=1,
                    worst_margin=-math.inf,
                    tolerance=sub_config.tolerance if sub_config.tolerance is not None else 0.0,
                    seed=sub_config.seed,
                    elapsed_ms=0,
                )
            )
    return reports
