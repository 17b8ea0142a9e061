"""Executable verification of the package's inequalities and identities.

A property is one row of :data:`REGISTRY`: a per-trial ``check`` together
with its ensemble (default trials, dims, alphas, tolerance) and the
statement it verifies; a :class:`PropertyConfig` sets only the master seed
and the number of trials.  :func:`run_property` is the one trial driver, and
its :class:`_Trial` the only source of a trial's coordinates: trial ``t`` is
one problem at the ``t``-th dims and alpha of the cycled lists, with ranks
``1 + (t + shift) % d`` from :meth:`_Trial.rank` and sub-seeds derived from
the master seed, the draw's label and ``t``.  A check returns
signed margins: for an inequality ``LHS <= RHS`` the margin is ``RHS - LHS``
(slack), for an exact identity it is ``-|residual|``.  A margin violates the
property when it falls below ``-tolerance`` or is NaN (an undefined
residual), and the property passes when it recorded at least one margin and
none violates it.  A trial whose check raises (an optimizer with no certified
start, a domain error or a bug) records one NaN margin, and its property id,
trial index and property seed are logged, so the other trials still count and
the failure can be replayed.

The divergence rows (``dpi``, ``nonnegativity``, ``homogeneity``,
``orthogonal-additivity`` and the padding margins of
``extension-independence``) draw every trial first: their check returns the
trial's divergence pairs and the rule that turns the pairs' values into its
margins (a :class:`_Divergences`), each draw still from the trial's own
seeds.  The driver then evaluates all pairs of one f and one dimension in one
stacked call, :func:`qfdiv.fdiv.quantum_f_divergences`, whose values hold the
bits of one call per pair; a group whose call raises is evaluated pair by
pair, so the error is charged to its own trial.  Seeds derive
deterministically from the master seed and the property id, so reports are
reproducible up to timing.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .channels import (
    _sectors,
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
from .fdiv import (
    DivergenceFunction,
    make_tsallis_f,
    quantum_f_divergence,
    quantum_f_divergences,
)
from .linalg import BipartiteState, _integer, partial_trace
from .rng import generator

log = logging.getLogger(__name__)

_U64 = (1 << 64) - 1
_tsallis_f = functools.cache(make_tsallis_f)  # one divergence function per order, not per trial


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit sub-seed from a master seed and a text label (SHA-256)."""
    payload = (int(master) & _U64).to_bytes(8, "little") + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


@dataclass(frozen=True)
class PropertyConfig:
    """Master seed and trial count of a property run; ``trials=None`` takes the registry's."""

    trials: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials is not None:
            _integer(self.trials, "trials", least=0)
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))  # a plain int in reports


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
        d = asdict(self)
        if not math.isfinite(self.worst_margin):
            d["worst_margin"] = str(self.worst_margin)  # "inf", "-inf" or "nan"
        return d


_BIPARTITE_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))
_WIDE_ALPHAS = (0.3, 0.5, 1.0, 1.5, 2.0)
_REGISTER_DIMS = (((2, 1), (2, 2)), ((2, 2), (2, 1), (2, 2)))  # the blocks of one register state


@dataclass(frozen=True)
class _Trial:
    """Trial ``t`` of a property: the cycled dims and alpha, ranks, sub-seeds and a random state."""

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

    def rank(self, d: int, shift: int = 0) -> int:
        """The rank ``1 + (t + shift) % d`` of a draw on dimension ``d``; it grows with ``t``."""
        return 1 + (self.t + shift) % d

    def seed(self, label: str) -> int:
        return derive_seed(self.master, f"{label}/{self.t}")

    def state(self, label: str = "state") -> BipartiteState:
        """Random state on ``dims`` of rank ``rank(prod(dims))``."""
        return random_bipartite(self.dims, self.rank(math.prod(self.dims)), self.seed(label))


def _entropy(state: BipartiteState, alpha: float, cond: str = "B") -> float:
    return conditional_entropy_tsallis_closed(state, alpha, cond=cond)[0]


def _agreement(trial: _Trial, state: BipartiteState, exact: float) -> float:
    """``-|exact - H_opt|`` for ``state`` solved at the trial's alpha and certified to the row's
    tolerance: ``|H_opt - H| <= gap <= tolerance``, so an honest solve is never a violation."""
    opts = OptimizerOptions(value_tol=trial.spec.tolerance)
    return -abs(exact - conditional_entropy_optimize(state, _tsallis_f(trial.alpha), opts).value)


@dataclass(frozen=True)
class _Divergences:
    """A trial's margins, pending: its divergence pairs under one f, and the rule that makes
    the pairs' values, in order, into the trial's margins."""

    f: DivergenceFunction
    pairs: list[tuple[np.ndarray, np.ndarray]]
    margins: Callable[[list[float]], list[float]]


def _evaluate(batch: Sequence[_Divergences]) -> list:
    """Each pending trial's margins, or the exception its first failing pair raised.

    The pairs of every trial are grouped by f and dimension, and each group is
    one :func:`quantum_f_divergences` call.  When a group's call raises, its
    pairs are evaluated one at a time by the same engine, so only the trials
    whose own pairs fail are charged, each with its pair's own error.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, pending in enumerate(batch):
        for j, (a, _) in enumerate(pending.pairs):
            groups.setdefault((pending.f, a.shape[-1]), []).append((i, j))
    values = [[math.nan] * len(pending.pairs) for pending in batch]
    errors: list[Exception | None] = [None] * len(batch)
    for (f, _), members in groups.items():
        pairs = [batch[i].pairs[j] for i, j in members]
        try:
            if len(pairs) == 1:  # a lone pair needs no stack
                out = [quantum_f_divergence(*pairs[0], f)]
            else:
                out = quantum_f_divergences(
                    np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]), f
                ).tolist()
        except Exception:
            out = []
            for (i, _), (a, b) in zip(members, pairs):
                try:
                    out.append(quantum_f_divergence(a, b, f))
                except Exception as exc:
                    errors[i] = errors[i] or exc
                    out.append(math.nan)
        for (i, j), value in zip(members, out):
            values[i][j] = value
    return [
        pending.margins(v) if exc is None else exc
        for pending, v, exc in zip(batch, values, errors)
    ]


def _check_dpi(trial: _Trial) -> _Divergences:
    d = trial.dims
    rho = random_density(d, trial.rank(d), trial.seed("rho"))
    sig = random_density(d, d, trial.seed("sig"))
    phi = random_channel(d, trial.next_dims, 2, trial.seed("phi"))
    pairs = [(rho.entries, sig.entries), (apply_channel(phi, rho), apply_channel(phi, sig))]
    return _Divergences(_tsallis_f(trial.alpha), pairs, lambda v: [v[0] - v[1]])


def _check_nonnegativity(trial: _Trial) -> _Divergences:
    d = trial.dims
    rho = random_density(d, trial.rank(d), trial.seed("rho")).entries
    sig = random_density(d, d, trial.seed("sig")).entries
    return _Divergences(_tsallis_f(trial.alpha), [(rho, sig)], list)


_SCALES = (1e-9, 0.1, 0.5, 2.0)


def _check_homogeneity(trial: _Trial) -> _Divergences:
    d = trial.dims
    a = random_density(d, trial.rank(d), trial.seed("a")).entries
    b = random_density(d, d, trial.seed("b")).entries
    pairs = [(a, b), *((lam * a, lam * b) for lam in _SCALES)]
    return _Divergences(
        _tsallis_f(trial.alpha),
        pairs,
        lambda v: [-abs(scaled - lam * v[0]) for scaled, lam in zip(v[1:], _SCALES)],
    )


def _check_orthogonal_additivity(trial: _Trial) -> _Divergences:
    d1, d2 = trial.dims, trial.next_dims
    a1 = random_density(d1, trial.rank(d1), trial.seed("a1")).entries
    b1 = random_density(d1, d1, trial.seed("b1")).entries
    a2 = random_density(d2, trial.rank(d2, shift=1), trial.seed("a2")).entries
    b2 = random_density(d2, d2, trial.seed("b2")).entries
    whole = (_sectors(1, [a1, a2], d1 + d2), _sectors(1, [b1, b2], d1 + d2))
    return _Divergences(
        _tsallis_f(trial.alpha), [whole, (a1, b1), (a2, b2)], lambda v: [-abs(v[0] - (v[1] + v[2]))]
    )


def _check_thm2_bounds(trial: _Trial) -> list[float]:
    state = trial.state()
    h = _entropy(state, trial.alpha)
    lower, upper = thm2_bounds(state, _tsallis_f(trial.alpha))
    return [h - lower, upper - h]


def _check_chain_rule(trial: _Trial) -> list[float]:
    state = trial.state()
    h_b = _entropy(state, trial.alpha, cond="B")
    h_bc = _entropy(state, trial.alpha, cond="BC")
    return [chain_rule_rhs(h_bc, state.dims[2], trial.alpha) - h_b]


def _register_blocks(trial: _Trial):
    """One random block on each of the trial's dims, and their mixing weights."""
    blocks = [
        random_bipartite(dims, trial.rank(math.prod(dims), shift=y), trial.seed(f"block{y}"))
        for y, dims in enumerate(trial.dims)
    ]
    w = generator(trial.seed("p")).random(len(blocks)) + 0.1
    return blocks, w / w.sum()


def _check_mixture_exact(trial: _Trial) -> list[float]:
    alpha = trial.alpha
    blocks, p = _register_blocks(trial)
    assembled = build_classical_register_state(blocks, p)
    formula = classical_register_closed_form([_entropy(b, alpha) for b in blocks], p, alpha)
    return [_agreement(trial, assembled, formula)]


def _check_mixture_lower(trial: _Trial) -> list[float]:
    alpha = trial.alpha
    blocks, p = _register_blocks(trial)
    lhs = float(np.dot(p, [_entropy(b, alpha) for b in blocks]))
    rhs = _entropy(build_classical_register_state(blocks, p), alpha)
    return [rhs - lhs]


def _check_pure_bounds(trial: _Trial) -> list[float]:
    dims = trial.dims
    k = trial.rank(min(dims))
    if trial.t % 10 == 0:
        coeffs = np.full(k, 1.0 / math.sqrt(k))  # equal coefficients saturate
    else:
        u = generator(trial.seed("coeffs")).random(k) + 1e-3
        coeffs = np.sqrt(u / u.sum())
    state = pure_bipartite_from_schmidt(coeffs, dims[0], dims[1], trial.seed("bases"))
    h = _entropy(state, trial.alpha)
    lower, upper = pure_state_bounds_tsallis(coeffs, trial.alpha)
    return [h - lower, upper - h]


def _check_product_identity(trial: _Trial) -> list[float]:
    dims = trial.dims
    rho_a = random_density(dims[0], trial.rank(dims[0]), trial.seed("a"))
    rho_b = random_density(dims[1], trial.rank(dims[1], shift=1), trial.seed("b"))
    state = BipartiteState(np.kron(rho_a.entries, rho_b.entries), dims)
    return [-abs(_entropy(state, trial.alpha) - tsallis_entropy(rho_a, trial.alpha))]


def _padding_margins(
    trial: _Trial, state: BipartiteState, sigma: np.ndarray, f: DivergenceFunction
) -> _Divergences:
    """``D_f(rho' || 1 (x) sigma') - D_f(rho || 1 (x) sigma)`` for each padding and epsilon,
    pending: the base pair, then the six padded pairs.

    ``rho'`` is ``state`` zero-padded on B by k = 1 and 2, and ``sigma'`` is
    ``(1 - eps) sigma (+) eps tau`` with a random state ``tau`` on the padding.
    An f-divergence is additive over orthogonal direct sums and f(0) = 0, so
    the padded divergence is ``D_f(rho || 1 (x) (1 - eps) sigma)``; f is convex,
    so ``f(x) - x f'(x) <= f(0) = 0`` and the perspective ``s f(w / s)`` does not
    increase in ``s``: no margin may be negative, at any ``sigma``.  For a
    concave f the inequality reverses.
    """
    d_a, d_b = state.dims
    pairs = [(state.entries, np.kron(np.eye(d_a), sigma))]
    for k in (1, 2):
        padded = embed_ancilla(state, k).entries
        tau = random_density(k, k, trial.seed(f"tau{k}")).entries
        for eps in (1e-3, 1e-2, 1e-1):
            sigma_k = np.kron(np.eye(d_a), _sectors(1, [(1 - eps) * sigma, eps * tau], d_b + k))
            pairs.append((padded, sigma_k))
    return _Divergences(f, pairs, lambda v: [x - v[0] for x in v[1:]])


def _check_extension_independence(trial: _Trial) -> _Divergences:
    state = trial.state()
    h, sigma = conditional_entropy_tsallis_closed(state, trial.alpha)
    padding = _padding_margins(trial, state, sigma, _tsallis_f(trial.alpha))
    # the k = 4 solve exercises the optimizer's detection of supp rho_B
    agreement = _agreement(trial, embed_ancilla(state, 4), h)
    return replace(padding, margins=lambda v: [agreement, *padding.margins(v)])


def _check_thm3_data_processing(trial: _Trial) -> list[float]:
    state = trial.state()
    d_a, d_b = state.dims
    psi = random_channel(d_b, d_b, 2, trial.seed("chan"))
    moved = BipartiteState(apply_channel(extend_with_identity(psi, d_a), state), state.dims)
    return [_entropy(moved, trial.alpha) - _entropy(state, trial.alpha)]


def _check_conditioning_reduces(trial: _Trial) -> list[float]:
    state = trial.state()
    reduced = BipartiteState(partial_trace(state, "AB"), state.dims[:2])
    return [_entropy(reduced, trial.alpha, cond="B") - _entropy(state, trial.alpha, cond="BC")]


def _check_alpha_continuity(trial: _Trial) -> list[float]:
    state = trial.state()
    h = _entropy(state, trial.alpha)
    return [-abs(_entropy(state, trial.alpha + da) - h) for da in (-1e-4, 1e-4)]


def _check_closed_vs_optimizer(trial: _Trial) -> list[float]:
    state = trial.state()
    return [_agreement(trial, state, _entropy(state, trial.alpha))]


@dataclass(frozen=True)
class _PropertySpec:
    """One property: its per-trial ``check``, ensemble and statement."""

    check: Callable[[_Trial], list[float] | _Divergences]
    trials: int
    dims: tuple
    alphas: tuple[float, ...]
    tolerance: float
    statement: str


REGISTRY: dict[str, _PropertySpec] = {
    "dpi": _PropertySpec(
        _check_dpi, 1000, (2, 3, 4), _WIDE_ALPHAS, 1e-8,
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
        _check_chain_rule, 300, ((2, 2, 2),), (0.5, 1.0, 2.0), 1e-7,
        "conditioning on less is bounded by the dimension-corrected entropy",
    ),
    "mixture-exact": _PropertySpec(
        _check_mixture_exact, 12, _REGISTER_DIMS, (0.5, 0.8, 1.0, 1.3, 2.0), 1e-6,
        "register-state conditional entropy equals the power-mean of block entropies",
    ),
    "mixture-lower": _PropertySpec(
        _check_mixture_lower, 40, _REGISTER_DIMS, (0.5, 0.8, 1.0, 1.3, 2.0), 1e-7,
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
    """The registry row of ``property_id``; an unknown id is a :class:`DomainError`."""
    if property_id not in REGISTRY:
        raise DomainError(f"unknown property id {property_id!r}")
    return REGISTRY[property_id]


def _logged(property_id: str, t: int, seed: int, out) -> list[float]:
    """Trial ``t``'s margins, or one NaN margin, logged, when ``out`` is the exception it raised."""
    if not isinstance(out, Exception):
        return out
    log.error(
        "property %s trial %d (property seed %d) raised; recorded as a NaN margin",
        property_id, t, seed, exc_info=out,
    )
    return [math.nan]


def run_property(property_id: str, config: PropertyConfig | None = None) -> PropertyReport:
    """Run one property's ensemble and summarize its margins.

    A trial whose check raises records one NaN margin, a violation.
    """
    spec = _spec(property_id)
    config = config or PropertyConfig()
    trials = spec.trials if config.trials is None else config.trials
    start = time.perf_counter()
    margins: list[float] = []
    pending: list[tuple[int, _Divergences]] = []
    for t in range(trials):
        try:
            out = spec.check(_Trial(spec, config.seed, t))
        except Exception as exc:
            out = exc
        if isinstance(out, _Divergences):
            pending.append((t, out))
        else:
            margins.extend(_logged(property_id, t, config.seed, out))
    results = _evaluate([divergences for _, divergences in pending])
    for (t, _), out in zip(pending, results):
        margins.extend(_logged(property_id, t, config.seed, out))
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))
    margins_arr = np.asarray(margins, dtype=float)
    if margins_arr.size == 0:
        # an ensemble that checked nothing must not pass
        violations, worst = 1, -math.inf
    else:
        # a NaN margin (inf - inf, a trial that raised) is a violation
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
    An unknown id raises :class:`DomainError` before any property runs; a
    trial that raises is one NaN margin of its property (see :func:`run_property`).
    """
    config = config or PropertyConfig()
    properties = list(REGISTRY) if properties is None else list(properties)
    for pid in properties:
        _spec(pid)
    return [
        run_property(pid, replace(config, seed=derive_seed(config.seed, pid)))
        for pid in properties
    ]
