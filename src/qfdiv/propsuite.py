"""Executable verification of the package's inequalities and identities.

A property is one row of :data:`REGISTRY`: a per-trial ``check`` together
with its ensemble (default trials, dims, alphas, tolerance) and the
statement it verifies; a :class:`PropertyConfig` sets only the master seed
and the number of trials.  :func:`run_property` is the one trial driver: trial
``t`` sees the ``t``-th dims and alpha of the cycled lists and sub-seeds
derived from the master seed, the trial label and ``t``.  A check returns
signed margins: for an inequality ``LHS <= RHS`` the margin is ``RHS - LHS``
(slack), for an exact identity it is ``-|residual|``.  A margin violates the
property when it falls below ``-tolerance`` or is NaN (an undefined residual,
or an optimizer report that is not converged), and the property passes when it
recorded at least one margin and none violates it.  Seeds derive
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
    random_bipartite,
    random_channel,
    random_density,
)
from .condent import (
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
from .linalg import BipartiteState, partial_trace
from .rng import generator

log = logging.getLogger(__name__)

_U64 = (1 << 64) - 1


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit sub-seed from a master seed and a text label (SHA-256)."""
    payload = (int(master) & _U64).to_bytes(8, "little") + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


@dataclass(frozen=True)
class PropertyConfig:
    """Master seed and trial count of a property run; ``trials=None`` takes the registry's."""

    trials: int | None = None
    seed: int = 0


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


_BIPARTITE_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))
_WIDE_ALPHAS = (0.3, 0.5, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class _Trial:
    """Trial ``t`` of a property: the cycled dims and alpha, sub-seeds and a random state."""

    spec: _PropertySpec
    master: int  # the property's seed
    t: int

    @property
    def dims(self):
        return self.spec.dims[self.t % len(self.spec.dims)]

    @property
    def next_dims(self):
        return self.spec.dims[(self.t + 1) % len(self.spec.dims)]

    @property
    def alpha(self) -> float:
        return self.spec.alphas[self.t % len(self.spec.alphas)]

    def seed(self, label: str) -> int:
        return derive_seed(self.master, f"{label}/{self.t}")

    def state(self, label: str = "state") -> BipartiteState:
        """Random state on ``dims`` whose rank ``1 + t % prod(dims)`` grows with ``t``."""
        return random_bipartite(self.dims, 1 + self.t % math.prod(self.dims), self.seed(label))


def _entropy(state: BipartiteState, alpha: float, cond: str = "B") -> float:
    return conditional_entropy_tsallis_closed(state, alpha, cond=cond)[0]


def _optimized(state: BipartiteState, alpha: float, opts: OptimizerOptions) -> float:
    """Optimizer value, or NaN (a violation) when the report is not converged."""
    report = conditional_entropy_optimize(state, make_tsallis_f(alpha), opts)
    return report.value if report.converged else math.nan


def _check_dpi(trial: _Trial) -> list[float]:
    d, t = trial.dims, trial.t
    margins = []
    for ai, alpha in enumerate(trial.spec.alphas):
        f = make_tsallis_f(alpha)
        rho = random_density(d, 1 + t % d, trial.seed(f"rho{ai}"))
        sig = random_density(d, d, trial.seed(f"sig{ai}"))
        phi = random_channel(d, trial.next_dims, 2, trial.seed(f"phi{ai}"))
        pre = quantum_f_divergence(rho.entries, sig.entries, f)
        post = quantum_f_divergence(apply_channel(phi, rho), apply_channel(phi, sig), f)
        margins.append(pre - post)
    return margins


def _check_nonnegativity(trial: _Trial) -> list[float]:
    d = trial.dims
    rho = random_density(d, 1 + trial.t % d, trial.seed("rho"))
    sig = random_density(d, d, trial.seed("sig"))
    return [quantum_f_divergence(rho.entries, sig.entries, make_tsallis_f(trial.alpha))]


def _check_homogeneity(trial: _Trial) -> list[float]:
    d = trial.dims
    f = make_tsallis_f(trial.alpha)
    a = random_density(d, 1 + trial.t % d, trial.seed("a")).entries
    b = random_density(d, d, trial.seed("b")).entries
    base = quantum_f_divergence(a, b, f)
    return [
        -abs(quantum_f_divergence(lam * a, lam * b, f) - lam * base)
        for lam in (1e-9, 0.1, 0.5, 2.0)
    ]


def _direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix ``a (+) b``."""
    return np.block([[a, np.zeros((len(a), len(b)))], [np.zeros((len(b), len(a))), b]])


def _check_orthogonal_additivity(trial: _Trial) -> list[float]:
    d1, d2, t = trial.dims, trial.next_dims, trial.t
    f = make_tsallis_f(trial.alpha)
    a1 = random_density(d1, 1 + t % d1, trial.seed("a1")).entries
    b1 = random_density(d1, d1, trial.seed("b1")).entries
    a2 = random_density(d2, 1 + (t + 1) % d2, trial.seed("a2")).entries
    b2 = random_density(d2, d2, trial.seed("b2")).entries
    whole = quantum_f_divergence(_direct_sum(a1, a2), _direct_sum(b1, b2), f)
    parts = quantum_f_divergence(a1, b1, f) + quantum_f_divergence(a2, b2, f)
    return [-abs(whole - parts)]


def _check_thm2_bounds(trial: _Trial) -> list[float]:
    state = trial.state()
    h = _entropy(state, trial.alpha)
    lower, upper = thm2_bounds(state, make_tsallis_f(trial.alpha))
    return [h - lower, upper - h]


def _check_chain_rule(trial: _Trial) -> list[float]:
    margins = []
    for alpha in trial.spec.alphas:
        state = trial.state(f"state{alpha:g}")
        h_b = _entropy(state, alpha, cond="B")
        h_bc = _entropy(state, alpha, cond="BC")
        margins.append(chain_rule_rhs(h_bc, state.dims[2], alpha) - h_b)
    return margins


def _register_blocks(trial: _Trial):
    """Two or three random blocks on (2, 1) or (2, 2), and their mixing weights."""
    t = trial.t
    blocks = []
    for y in range(2 + t % 2):
        d_b = 1 + (t + y) % 2
        rank = 1 + (t + y) % (2 * d_b)
        blocks.append(random_bipartite((2, d_b), rank, trial.seed(f"block{y}")))
    w = generator(trial.seed("p")).random(len(blocks)) + 0.1
    return blocks, w / w.sum()


def _check_mixture_exact(trial: _Trial) -> list[float]:
    alpha = trial.alpha
    blocks, p = _register_blocks(trial)
    assembled = build_classical_register_state(blocks, p)
    formula = classical_register_closed_form([_entropy(b, alpha) for b in blocks], p, alpha)
    direct = _optimized(assembled, alpha, OptimizerOptions(seed=trial.seed("opt")))
    return [-abs(formula - direct)]


def _check_mixture_lower(trial: _Trial) -> list[float]:
    alpha = trial.alpha
    blocks, p = _register_blocks(trial)
    lhs = float(np.dot(p, [_entropy(b, alpha) for b in blocks]))
    rhs = _entropy(build_classical_register_state(blocks, p), alpha)
    return [rhs - lhs]


def _check_pure_bounds(trial: _Trial) -> list[float]:
    dims, t = trial.dims, trial.t
    k = 1 + t % min(dims)
    if t % 10 == 0:
        coeffs = np.full(k, 1.0 / math.sqrt(k))  # equal coefficients saturate
    else:
        u = generator(trial.seed("coeffs")).random(k) + 1e-3
        coeffs = np.sqrt(u / u.sum())
    state = pure_bipartite_from_schmidt(coeffs, dims[0], dims[1], trial.seed("bases"))
    h = _entropy(state, trial.alpha)
    lower, upper = pure_state_bounds_tsallis(coeffs, trial.alpha)
    return [h - lower, upper - h]


def _check_product_identity(trial: _Trial) -> list[float]:
    dims, t = trial.dims, trial.t
    rho_a = random_density(dims[0], 1 + t % dims[0], trial.seed("a"))
    rho_b = random_density(dims[1], 1 + (t + 1) % dims[1], trial.seed("b"))
    state = BipartiteState(np.kron(rho_a.entries, rho_b.entries), dims)
    return [-abs(_entropy(state, trial.alpha) - tsallis_entropy(rho_a, trial.alpha))]


def _check_extension_independence(trial: _Trial) -> list[float]:
    state = trial.state()
    opts = OptimizerOptions(seed=trial.seed("opt"))
    base = _optimized(state, trial.alpha, opts)
    return [
        -abs(_optimized(embed_ancilla(state, k), trial.alpha, opts) - base)
        for k in (1, 2, 4)
    ]


def _check_thm3_data_processing(trial: _Trial) -> list[float]:
    state = trial.state()
    d_a, d_b = state.dims
    d_out = (2, 3)[trial.t % 2]
    psi = random_channel(d_b, d_out, 2, trial.seed("chan"))
    moved = BipartiteState(apply_channel(extend_with_identity(psi, d_a), state), (d_a, d_out))
    return [_entropy(moved, trial.alpha) - _entropy(state, trial.alpha)]


def _check_conditioning_reduces(trial: _Trial) -> list[float]:
    state = trial.state()
    reduced = BipartiteState(partial_trace(state, "AB"), state.dims[:2])
    return [_entropy(reduced, trial.alpha, cond="B") - _entropy(state, trial.alpha, cond="BC")]


def _check_alpha_continuity(trial: _Trial) -> list[float]:
    state = trial.state()
    h_one = _entropy(state, 1.0)
    return [-abs(_entropy(state, alpha) - h_one) for alpha in (1.0 - 1e-4, 1.0 + 1e-4)]


def _check_closed_vs_optimizer(trial: _Trial) -> list[float]:
    state = trial.state()
    closed = _entropy(state, trial.alpha)
    direct = _optimized(state, trial.alpha, OptimizerOptions(seed=trial.seed("opt")))
    return [-abs(closed - direct)]


@dataclass(frozen=True)
class _PropertySpec:
    """One property: its per-trial ``check``, ensemble and statement."""

    check: Callable[[_Trial], list[float]]
    trials: int
    dims: tuple
    alphas: tuple[float, ...]
    tolerance: float
    statement: str


REGISTRY: dict[str, _PropertySpec] = {
    "dpi": _PropertySpec(
        _check_dpi, 200, (2, 3, 4), _WIDE_ALPHAS, 1e-8,
        "divergences do not increase under trace-preserving completely positive maps",
    ),
    "nonnegativity": _PropertySpec(
        _check_nonnegativity, 500, (2, 3, 4), (0.5, 1.0, 1.5, 2.0), 1e-10,
        "divergence of normalized states with compatible supports is nonnegative",
    ),
    "homogeneity": _PropertySpec(
        _check_homogeneity, 45, (2, 3, 4), (0.5, 1.0, 1.5, 2.0), 1e-9,
        "scaling both arguments scales the divergence by the same factor",
    ),
    "orthogonal-additivity": _PropertySpec(
        _check_orthogonal_additivity, 45, (2, 3), (0.5, 1.0, 1.5, 2.0), 1e-9,
        "divergence of orthogonal direct sums is the sum of block divergences",
    ),
    "thm2-bounds": _PropertySpec(
        _check_thm2_bounds, 200, _BIPARTITE_DIMS, _WIDE_ALPHAS, 1e-7,
        "conditional entropy sits between the scaled-state trace bounds",
    ),
    "chain-rule": _PropertySpec(
        _check_chain_rule, 100, ((2, 2, 2),), (0.5, 1.0, 2.0), 1e-7,
        "conditioning on less is bounded by the dimension-corrected entropy",
    ),
    "mixture-exact": _PropertySpec(
        _check_mixture_exact, 12, ((2,),), (0.5, 0.8, 1.0, 1.3, 2.0), 1e-6,
        "register-state conditional entropy equals the power-mean of block entropies",
    ),
    "mixture-lower": _PropertySpec(
        _check_mixture_lower, 40, ((2,),), (0.5, 0.8, 1.0, 1.3, 2.0), 1e-7,
        "the weighted block entropies lower-bound the register-state entropy",
    ),
    "pure-bounds": _PropertySpec(
        _check_pure_bounds, 100, ((2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (4, 3)),
        (0.3, 0.7, 1.0, 1.5, 2.0), 1e-7,
        "pure-state conditional entropy lies in the Schmidt-data bracket",
    ),
    "product-identity": _PropertySpec(
        _check_product_identity, 50, _BIPARTITE_DIMS, _WIDE_ALPHAS, 1e-8,
        "conditional entropy of a product state is the first-factor entropy",
    ),
    "extension-independence": _PropertySpec(
        _check_extension_independence, 50, ((2, 2),), (0.5, 1.0, 2.0), 1e-7,
        "zero-padding the conditioning space leaves the conditional entropy fixed",
    ),
    "thm3-data-processing": _PropertySpec(
        _check_thm3_data_processing, 100, ((2, 2), (2, 3)), _WIDE_ALPHAS, 1e-7,
        "a channel on the conditioning system cannot decrease the conditional entropy",
    ),
    "conditioning-reduces": _PropertySpec(
        _check_conditioning_reduces, 100, ((2, 2, 2),), _WIDE_ALPHAS, 1e-7,
        "conditioning on an additional system can only reduce the entropy",
    ),
    "alpha-continuity": _PropertySpec(
        _check_alpha_continuity, 50, _BIPARTITE_DIMS, (1.0,), 1e-3,
        "the power-family entropy approaches the logarithmic one as alpha -> 1",
    ),
    "closed-form-vs-optimizer": _PropertySpec(
        _check_closed_vs_optimizer, 100,
        ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4)),
        (0.3, 0.5, 1.5, 2.0), 1e-6,
        "the closed trace form agrees with the generic spectral minimizer",
    ),
}


def _spec(property_id: str) -> _PropertySpec:
    if property_id not in REGISTRY:
        raise DomainError(f"unknown property id {property_id!r}")
    return REGISTRY[property_id]


def describe(property_id: str) -> str:
    """Human-readable statement a property verifies."""
    return _spec(property_id).statement


def run_property(property_id: str, config: PropertyConfig | None = None) -> PropertyReport:
    """Run one property's ensemble and summarize its margins."""
    spec = _spec(property_id)
    config = config or PropertyConfig()
    trials = spec.trials if config.trials is None else config.trials
    start = time.perf_counter()
    margins = [m for t in range(trials) for m in spec.check(_Trial(spec, config.seed, t))]
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    margins_arr = np.asarray(margins, dtype=float)
    if margins_arr.size == 0:
        # an ensemble that checked nothing must not pass
        violations, worst = 1, -math.inf
    else:
        # a NaN margin (inf - inf, an unconverged solve) is a violation
        violations = int(np.sum(~(margins_arr >= -spec.tolerance)))
        worst = float(margins_arr.min())
    return PropertyReport(
        property_id=property_id,
        trials=len(margins),
        violations=violations,
        worst_margin=worst,
        tolerance=spec.tolerance,
        seed=config.seed,
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
        spec = _spec(pid)  # an unknown id is a usage error, not a failed property
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
                    tolerance=spec.tolerance,
                    seed=sub_config.seed,
                    elapsed_ms=0,
                )
            )
    return reports
