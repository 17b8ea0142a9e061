"""Executable verification of the package's inequalities and identities.

A property is one row of :data:`REGISTRY`: a per-trial ``check`` together
with its ensemble (default trials, dims, alphas, tolerance) and the
statement it verifies; a :class:`PropertyConfig` sets only the master seed
and the number of trials.  :func:`run_property` is the one trial driver, and
its :class:`_Trial` the only source of a trial's coordinates: trial ``t`` is
one problem at the ``t``-th dims and alpha of the cycled lists, with ranks
``1 + (t + shift) % d`` from :meth:`_Trial.rank` and sub-seeds derived from
the master seed, the draw's label and ``t``.  A check is a generator
function: its generator yields its trial's calls as requests
(:class:`_Request`), is sent their values and returns signed margins: for
an inequality ``LHS <= RHS`` the margin is ``RHS - LHS`` (slack), for an
exact identity it is ``-|residual|``.  A margin violates the property when
it falls below ``-tolerance`` or is NaN (an undefined residual), and the
property passes when it recorded at least one margin and none violates it.
A trial whose check raises (an optimizer with no certified start, a domain
error or a bug) records one NaN margin, and its property id, trial index and
property seed are logged, so the other trials still count and the failure
can be replayed.  A failed request is thrown into its check at the
``yield`` that asked for it, so it ends the check as the check's own raise
would, and its logged traceback names the check.

A request is a density draw keyed by (d, rank), a channel draw keyed by
(d_in, d_out, env), a channel application keyed by the channel's shape, a
closed form keyed by (dims, alpha, cond) or a divergence pair keyed by (f, d).
:func:`run_property` advances the trials of a block of ``_BLOCK`` together,
round by round, and serves each group of equal keys with one stacked call
(``channels._random_densities``, ``_random_channels`` and
``_apply_channels``, ``condent._tsallis_closed``,
``fdiv._quantum_f_divergences``), whose values hold the bits of one call
each, every draw from its own trial's seed; the stacked calls check nothing,
and every matrix stacked here is built by the package, exactly Hermitian and
finite.  A lone request, and each request of a group whose stacked call
raises, is its own checked one-item call (``random_density`` and the other
public functions), so an error is thrown into its own trial only.  Optimizer
solves stay one per trial, inside the check.  Seeds derive
deterministically from the master seed and the property id, so reports are
reproducible up to timing.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import time
from collections.abc import Generator
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import (
    KrausChannel,
    _apply_channels,
    _random_channels,
    _random_densities,
    _sectors,
    apply_channel,
    build_classical_register_state,
    embed_ancilla,
    extend_with_identity,
    pure_bipartite_from_schmidt,
    random_channel,
    random_density,
)
from .condent import (
    OptimizerOptions,
    _tsallis_closed,
    chain_rule_rhs,
    classical_register_closed_form,
    conditional_entropy_optimize,
    conditional_entropy_tsallis_closed,
    pure_state_bounds_tsallis,
    thm2_bounds,
    tsallis_entropy,
)
from .errors import DomainError
from .fdiv import DivergenceFunction, _quantum_f_divergences, make_tsallis_f, quantum_f_divergence
from .linalg import BipartiteState, DensityOperator, _factor_indices, _integer, partial_trace
from .rng import _philox_key_type, generator

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
_BLOCK = 250  # trials that run_property advances together: it bounds the arrays held at once


class _Request(NamedTuple):
    """A call a trial's check waits for: alone, the checked ``one(*args)``; with the requests
    of equal ``key``, a share of one stacked ``key[0]([args, ...])``, a value per request."""

    key: tuple
    args: tuple
    one: Callable


def _draw(d: int, rank: int, seed: int) -> _Request:
    return _Request((_draws, d, rank), (d, rank, seed), random_density)


def _draws(args: list) -> list:
    stack = _random_densities(*args[0][:2], [seed for *_, seed in args])
    return [DensityOperator._from_valid(m) for m in stack]


def _channel(d_in: int, d_out: int, env_dim: int, seed: int) -> _Request:
    return _Request((_channels, d_in, d_out, env_dim), (d_in, d_out, env_dim, seed), random_channel)


def _channels(args: list) -> list:
    stack = _random_channels(*args[0][:3], [seed for *_, seed in args])
    return [KrausChannel._from_valid(k) for k in stack]


def _applied(phi: KrausChannel, rho: DensityOperator) -> _Request:
    return _Request((_applications, phi.kraus_ops.shape), (phi, rho), apply_channel)


def _applications(args: list) -> list:
    k, m = np.stack([phi.kraus_ops for phi, _ in args]), np.stack([rho.entries for _, rho in args])
    return list(_apply_channels(k, m))


def _closed(state: BipartiteState, alpha: float, cond: str = "B") -> _Request:
    """The closed form's value and minimizer, ``conditional_entropy_tsallis_closed``."""
    return _Request((_closed_forms, state.dims, alpha, cond), (state, alpha, cond),
                    conditional_entropy_tsallis_closed)


def _closed_forms(args: list) -> list:
    state, alpha, cond = args[0]
    rho = np.stack([s.entries for s, _, _ in args])
    values, sigma = _tsallis_closed(rho, state.dims, alpha, _factor_indices(cond, len(state.dims)))
    return list(zip(values, sigma))


def _divergence(f: DivergenceFunction, a: np.ndarray, b: np.ndarray) -> _Request:
    return _Request((_divergences, f, a.shape[-1]), (a, b, f), quantum_f_divergence)


def _divergences(args: list) -> list:
    a, b = np.stack([a for a, _, _ in args]), np.stack([b for _, b, _ in args])
    return _quantum_f_divergences(a, b, args[0][2]).tolist()


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

    def state(self):
        """Random state on ``dims`` of rank ``rank(prod(dims))``: ``yield from`` it in a check."""
        d = math.prod(self.dims)
        (rho,) = yield [_draw(d, self.rank(d), self.seed("state"))]
        return BipartiteState(rho, self.dims)


def _agreement(trial: _Trial, state: BipartiteState, exact: float) -> float:
    """``-|exact - H_opt|`` for ``state`` solved at the trial's alpha and certified to the row's
    tolerance: ``|H_opt - H| <= gap <= tolerance``, so an honest solve is never a violation."""
    opts = OptimizerOptions(value_tol=trial.spec.tolerance)
    return -abs(exact - conditional_entropy_optimize(state, _tsallis_f(trial.alpha), opts).value)


def _serve(batch: list[list[_Request]]) -> list:
    """Each trial's request values, in order, or the exception its first failing request raised.

    The requests of every trial are grouped by key, and each group of two or
    more is one stacked call.  A lone request, and each request of a group
    whose stacked call raises, is its own checked one-item call, so only the
    trials whose own requests fail are charged, each with its request's error.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, requests in enumerate(batch):
        for j, request in enumerate(requests):
            groups.setdefault(request.key, []).append((i, j))
    values = [[None] * len(requests) for requests in batch]
    errors: list[Exception | None] = [None] * len(batch)
    for key, members in groups.items():
        requests = [batch[i][j] for i, j in members]
        out = None
        if len(requests) > 1:  # a lone request needs no stack
            try:
                out = key[0]([request.args for request in requests])
            except Exception:
                pass  # served one by one below
        if out is None:
            out = []
            for (i, _), request in zip(members, requests):
                try:
                    out.append(request.one(*request.args))
                except Exception as exc:
                    errors[i] = errors[i] or exc
                    out.append(None)
        for (i, j), value in zip(members, out):
            values[i][j] = value
    return [v if exc is None else exc for v, exc in zip(values, errors)]


def _advance(checks: list[Generator]) -> list:
    """Each check's margins, or the exception that ended it.

    The checks advance together, round by round: each is sent its last
    round's values, and each round's requests are served by :func:`_serve`.
    A check whose request failed is thrown that request's error at its
    ``yield``, so the error ends it, and names it, as its own raise would.
    """
    results: list = [None] * len(checks)
    live = dict.fromkeys(range(len(checks)))
    while live:
        pending = {}
        for i, values in live.items():
            try:
                if isinstance(values, Exception):
                    pending[i] = checks[i].throw(values)
                else:
                    pending[i] = checks[i].send(values)
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:
                results[i] = exc
        live = dict(zip(pending, _serve(list(pending.values()))))
    return results


def _check_dpi(trial: _Trial):
    d, d_out = trial.dims, trial.next_dims
    rho, sig, phi = yield [
        _draw(d, trial.rank(d), trial.seed("rho")),
        _draw(d, d, trial.seed("sig")),
        _channel(d, d_out, 2, trial.seed("phi")),
    ]
    out_rho, out_sig = yield [_applied(phi, rho), _applied(phi, sig)]
    f = _tsallis_f(trial.alpha)
    pairs = [(rho.entries, sig.entries), (out_rho, out_sig)]
    before, after = yield [_divergence(f, *pair) for pair in pairs]
    return [before - after]


def _check_nonnegativity(trial: _Trial):
    d = trial.dims
    rho, sig = yield [_draw(d, trial.rank(d), trial.seed("rho")), _draw(d, d, trial.seed("sig"))]
    return (yield [_divergence(_tsallis_f(trial.alpha), rho.entries, sig.entries)])


_SCALES = (1e-9, 0.1, 0.5, 2.0)


def _check_homogeneity(trial: _Trial):
    d = trial.dims
    a, b = yield [_draw(d, trial.rank(d), trial.seed("a")), _draw(d, d, trial.seed("b"))]
    a, b, f = a.entries, b.entries, _tsallis_f(trial.alpha)
    pairs = [(a, b), *((lam * a, lam * b) for lam in _SCALES)]
    base, *scaled = yield [_divergence(f, *pair) for pair in pairs]
    return [-abs(value - lam * base) for value, lam in zip(scaled, _SCALES)]


def _check_orthogonal_additivity(trial: _Trial):
    d1, d2 = trial.dims, trial.next_dims
    a1, b1, a2, b2 = (rho.entries for rho in (yield [
        _draw(d1, trial.rank(d1), trial.seed("a1")),
        _draw(d1, d1, trial.seed("b1")),
        _draw(d2, trial.rank(d2, shift=1), trial.seed("a2")),
        _draw(d2, d2, trial.seed("b2")),
    ]))
    f = _tsallis_f(trial.alpha)
    whole, first, second = yield [
        _divergence(f, _sectors(1, [a1, a2], d1 + d2), _sectors(1, [b1, b2], d1 + d2)),
        _divergence(f, a1, b1),
        _divergence(f, a2, b2),
    ]
    return [-abs(whole - (first + second))]


def _check_thm2_bounds(trial: _Trial):
    state = yield from trial.state()
    ((h, _),) = yield [_closed(state, trial.alpha)]
    lower, upper = thm2_bounds(state, _tsallis_f(trial.alpha))
    return [h - lower, upper - h]


def _check_chain_rule(trial: _Trial):
    state = yield from trial.state()
    (h_b, _), (h_bc, _) = yield [_closed(state, trial.alpha, cond) for cond in ("B", "BC")]
    return [chain_rule_rhs(h_bc, state.dims[2], trial.alpha) - h_b]


def _register_blocks(trial: _Trial):
    """One random block on each of the trial's dims, and their mixing weights."""
    d = [math.prod(dims) for dims in trial.dims]
    drawn = yield [_draw(n, trial.rank(n, y), trial.seed(f"block{y}")) for y, n in enumerate(d)]
    w = generator(trial.seed("p")).random(len(d)) + 0.1
    return [BipartiteState(rho, dims) for rho, dims in zip(drawn, trial.dims)], w / w.sum()


def _check_mixture_exact(trial: _Trial):
    alpha = trial.alpha
    blocks, p = yield from _register_blocks(trial)
    closed = yield [_closed(block, alpha) for block in blocks]
    formula = classical_register_closed_form([h for h, _ in closed], p, alpha)
    return [_agreement(trial, build_classical_register_state(blocks, p), formula)]


def _check_mixture_lower(trial: _Trial):
    alpha = trial.alpha
    blocks, p = yield from _register_blocks(trial)
    assembled = build_classical_register_state(blocks, p)
    *closed, (rhs, _) = yield [_closed(state, alpha) for state in (*blocks, assembled)]
    return [rhs - float(np.dot(p, [h for h, _ in closed]))]


def _check_pure_bounds(trial: _Trial):
    dims = trial.dims
    k = trial.rank(min(dims))
    if trial.t % 10 == 0:
        coeffs = np.full(k, 1.0 / math.sqrt(k))  # equal coefficients saturate
    else:
        u = generator(trial.seed("coeffs")).random(k) + 1e-3
        coeffs = np.sqrt(u / u.sum())
    state = pure_bipartite_from_schmidt(coeffs, dims[0], dims[1], trial.seed("bases"))
    ((h, _),) = yield [_closed(state, trial.alpha)]
    lower, upper = pure_state_bounds_tsallis(coeffs, trial.alpha)
    return [h - lower, upper - h]


def _check_product_identity(trial: _Trial):
    dims = trial.dims
    rho_a, rho_b = yield [
        _draw(dims[0], trial.rank(dims[0]), trial.seed("a")),
        _draw(dims[1], trial.rank(dims[1], shift=1), trial.seed("b")),
    ]
    state = BipartiteState(DensityOperator._from_valid(np.kron(rho_a.entries, rho_b.entries)), dims)
    ((h, _),) = yield [_closed(state, trial.alpha)]
    return [-abs(h - tsallis_entropy(rho_a, trial.alpha))]


def _padding_margins(
    trial: _Trial, state: BipartiteState, sigma: np.ndarray, f: DivergenceFunction
):
    """``D_f(rho' || 1 (x) sigma') - D_f(rho || 1 (x) sigma)`` for each padding and epsilon:
    the base pair, then the six padded pairs, as staged requests.

    ``rho'`` is ``state`` zero-padded on B by k = 1 and 2, and ``sigma'`` is
    ``(1 - eps) sigma (+) eps tau`` with a random state ``tau`` on the padding.
    An f-divergence is additive over orthogonal direct sums and f(0) = 0, so
    the padded divergence is ``D_f(rho || 1 (x) (1 - eps) sigma)``; f is convex,
    so ``f(x) - x f'(x) <= f(0) = 0`` and the perspective ``s f(w / s)`` does not
    increase in ``s``: no margin may be negative, at any ``sigma``.  For a
    concave f the inequality reverses.
    """
    d_a, d_b = state.dims
    taus = yield [_draw(k, k, trial.seed(f"tau{k}")) for k in (1, 2)]
    pairs = [(state.entries, np.kron(np.eye(d_a), sigma))]
    for k, tau in zip((1, 2), taus):
        padded = embed_ancilla(state, k).entries
        for eps in (1e-3, 1e-2, 1e-1):
            blocks = [(1 - eps) * sigma, eps * tau.entries]
            pairs.append((padded, np.kron(np.eye(d_a), _sectors(1, blocks, d_b + k))))
    base, *padded = yield [_divergence(f, a, b) for a, b in pairs]
    return [value - base for value in padded]


def _check_extension_independence(trial: _Trial):
    state = yield from trial.state()
    ((h, sigma),) = yield [_closed(state, trial.alpha)]
    padding = yield from _padding_margins(trial, state, sigma, _tsallis_f(trial.alpha))
    # the k = 4 solve exercises the optimizer's detection of supp rho_B
    return [_agreement(trial, embed_ancilla(state, 4), h), *padding]


def _check_thm3_data_processing(trial: _Trial):
    state = yield from trial.state()
    d_a, d_b = state.dims
    (psi,) = yield [_channel(d_b, d_b, 2, trial.seed("chan"))]
    (moved,) = yield [_applied(extend_with_identity(psi, d_a), state)]
    moved = BipartiteState(DensityOperator._from_valid(moved), state.dims)
    (after, _), (before, _) = yield [_closed(moved, trial.alpha), _closed(state, trial.alpha)]
    return [after - before]


def _check_conditioning_reduces(trial: _Trial):
    state = yield from trial.state()
    reduced = BipartiteState(partial_trace(state, "AB"), state.dims[:2])
    (less, _), (more, _) = yield [_closed(reduced, trial.alpha), _closed(state, trial.alpha, "BC")]
    return [less - more]


def _check_alpha_continuity(trial: _Trial):
    state, alpha = (yield from trial.state()), trial.alpha
    (h, _), *near = yield [_closed(state, a) for a in (alpha, alpha - 1e-4, alpha + 1e-4)]
    return [-abs(value - h) for value, _ in near]


def _check_closed_vs_optimizer(trial: _Trial):
    state = yield from trial.state()
    ((h, _),) = yield [_closed(state, trial.alpha)]
    return [_agreement(trial, state, h)]


@dataclass(frozen=True)
class _PropertySpec:
    """One property: its per-trial ``check``, ensemble and statement."""

    check: Callable[[_Trial], Generator]
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
    _philox_key_type()  # loads numpy.random, a cost of the process and not of this row
    start = time.perf_counter()
    margins: list[float] = []
    for block in (range(lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)):
        checks = [spec.check(_Trial(spec, config.seed, t)) for t in block]
        for t, out in zip(block, _advance(checks)):
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
