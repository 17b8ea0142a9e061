"""Every power-family route against a 50-digit reference, near alpha = 1 and away from it.

Each reference takes the float64 inputs as exact and evaluates the textbook
formula in mpmath at 50 significant digits: ``(x**c - 1) / c`` directly, with
its ``c = 0`` limit ``log x`` only at ``c == 0`` exactly.  Within 1e-14 of
``alpha = 1`` that quotient loses 14 digits and keeps 36.  Spectra come from
``mpmath.eighe`` and take the package's kernel rule: an eigenvalue at or
below ``RANK_TOL`` times the largest is an exact zero.

Each error is bounded by ``K * eps * kappa`` with a stated multiple ``K`` and
a condition number ``kappa`` that the reference computes beside its value: the
first-order change of the value when every input the route rounds moves by
eps relative to its own size.  For a spectral sum ``sum phi(lam)`` that is
``sum |phi(lam)| (1 + |c log lam|)`` for rounding each term (the last factor
is the condition number of ``expm1``) plus ``||M|| sum |phi'(lam)|`` for the
eigenvalues, whose errors are eps times the norm; for a divergence, the
overlaps' errors add ``sum |term_ij| (||A|| / gap_i + ||B|| / gap_j)``, with
``gap`` an eigenvalue's distance to the rest of its spectrum.  ``K`` is the
dimension for a route that eigensolves, as the eigensolver's backward error
and each sum grow like it, and 4 for a scalar formula.
"""

import functools
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from qfdiv.channels import random_bipartite, random_density  # noqa: E402
from qfdiv.condent import (  # noqa: E402
    alpha_log,
    classical_register_closed_form,
    conditional_entropy_tsallis_closed,
    tsallis_entropy,
)
from qfdiv.fdiv import (  # noqa: E402
    make_tsallis_f,
    quantum_f_divergence,
    tsallis_divergence_closed,
    vn_relative_entropy_closed,
)
from qfdiv.linalg import RANK_TOL  # noqa: E402

MP = mpmath.MPContext()
MP.dps = 50
EPS = float(np.finfo(float).eps)

ALPHAS = [
    1 - 1e-14, 1 + 1e-14, 1 - 1e-9, 1 + 1e-9, 1 - 9.9e-7, 1 + 9.9e-7,
    1 - 2e-6, 1 + 2e-6, 1 - 1e-3, 1 + 1e-3, 0.3, 2.0, 1.0,
]

# (d, rank of A, seed of A, rank of B, seed of B): full rank, A rank-deficient, B rank-deficient
PAIRS = [(4, 4, 1, 4, 2), (4, 2, 3, 4, 4), (4, 4, 5, 3, 6), (3, 3, 7, 3, 8)]
PAIR_IDS = [f"d{d}-ranks{ra}-{rb}" for d, ra, _, rb, _ in PAIRS]
# (dims, rank, seed) of the states of the conditional closed form
STATES = [((2, 2), 4, 7), ((2, 2), 2, 9), ((2, 2), 3, 11)]


def _mp_c(alpha):
    """``alpha - 1``, exact: the float ``alpha`` is taken as the number it stores."""
    return MP.mpf(alpha) - 1


def _qlog(x, c):
    """The textbook ``(x**c - 1) / c``; ``log x`` at ``c == 0``."""
    return MP.log(x) if c == 0 else (x**c - 1) / c


def _dqlog(x, c):
    """``d/dx [x _qlog(x, c)] = ((1 + c) x**c - 1) / c``; ``log x + 1`` at ``c == 0``."""
    return MP.log(x) + 1 if c == 0 else ((1 + c) * x**c - 1) / c


@functools.cache
def _density(d, rank, seed):
    return random_density(d, rank, seed).entries


@functools.cache
def _eig(d, rank, seed):
    """Ascending spectrum, with the kernel rule, and eigenvectors at 50 digits of
    ``random_density(d, rank, seed)``."""
    w, q = MP.eighe(MP.matrix(_density(d, rank, seed).tolist()))
    w = [MP.re(w[i]) for i in range(len(w))]
    order = sorted(range(len(w)), key=lambda i: w[i])
    w = [w[i] for i in order]
    floor = RANK_TOL * w[-1]
    w = [x if x > floor else MP.zero for x in w]
    cols = [[q[r, i] for r in range(q.rows)] for i in order]
    return w, cols


def _gaps(w):
    """Each eigenvalue's distance to the others, the kernel counted as one cluster at 0."""
    distinct = sorted(set(w))
    out = []
    for x in w:
        others = [abs(x - y) for y in distinct if y != x]
        out.append(min(others) if others else MP.inf)
    return out


def _overlaps(u, v):
    return [[abs(MP.fsum(MP.conj(a) * b for a, b in zip(ui, vj))) ** 2 for vj in v] for ui in u]


def divergence_reference(pair, alpha):
    """``(D, kappa)``: the spectral double sum with the kernel term, and its condition number."""
    d, rank_a, seed_a, rank_b, seed_b = pair
    (a, u), (b, v) = _eig(d, rank_a, seed_a), _eig(d, rank_b, seed_b)
    c = _mp_c(alpha)
    table = _overlaps(u, v)
    norm_a, norm_b = a[-1], b[-1]
    gap_a, gap_b = _gaps(a), _gaps(b)
    value = kappa = MP.zero
    kernel_mass = MP.zero
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            t = table[i][j]
            vectors = norm_a / gap_a[i] + norm_b / gap_b[j]
            if bj == 0:
                kernel_mass += ai * t
                if c < 0:
                    kappa += ai * t * vectors / -c
                continue
            x = ai / bj
            term = t * bj * x * _qlog(x, c)
            value += term
            # the closed form's two terms bound the spectral sum's one
            rounding = t * ai * (abs(_qlog(ai, c)) * bj**-c + abs(_qlog(bj, -c)))
            kappa += rounding * (1 + abs(c * MP.log(ai)) + abs(c * MP.log(bj)))
            kappa += t * (norm_a * abs(_dqlog(x, c)) + norm_b * x ** (1 + c))
            kappa += abs(term) * vectors
    if kernel_mass > RANK_TOL * MP.fsum(a):
        if c >= 0:
            return math.inf, 0.0
        value += kernel_mass / -c
        kappa += kernel_mass / -c
    return float(value), float(kappa)


def _ptrace_keep_last(m, dims):
    """``tr`` over every factor but the last, of an mpmath matrix on ``prod(dims)``."""
    d_keep = dims[-1]
    d_rest = m.rows // d_keep
    out = MP.matrix(d_keep, d_keep)
    for r in range(d_rest):
        for i in range(d_keep):
            for j in range(d_keep):
                out[i, j] += m[r * d_keep + i, r * d_keep + j]
    return out


def _spectral_terms(w, c, scale):
    """``(sum w _qlog(w, c), kappa)`` over the positive entries of a spectrum."""
    total = kappa = MP.zero
    for x in w:
        if x > 0:
            term = x * _qlog(x, c)
            total += term
            kappa += abs(term) * (1 + abs(c * MP.log(x))) + scale * abs(_dqlog(x, c))
    return total, kappa


def _normalized(w):
    total = MP.fsum(w)
    return [x / total for x in w]


def _tsallis(w, c):
    """The textbook ``(1 - sum w**(1 + c)) / c`` of a normalized spectrum; ``-sum w log w`` at 0."""
    if c == 0:
        return -MP.fsum(x * MP.log(x) for x in w if x > 0)
    return (1 - MP.fsum(x ** (1 + c) for x in w)) / c


def conditional_reference(dims, rank, seed, alpha):
    """``(H, kappa)`` of the closed form ``(1 - n**alpha) / (alpha - 1)`` on the
    state divided by its trace, ``n = tr [tr_A rho**alpha]**(1/alpha)``; at
    ``alpha = 1`` the entropy difference ``H(rho) - H(rho_B)``."""
    w, q = _eig(math.prod(dims), rank, seed)
    w = _normalized(w)
    a = MP.mpf(alpha)
    c = a - 1
    d = len(w)
    rho_pow = MP.matrix(d, d)
    for x, col in zip(w, q):
        if x > 0:
            for i in range(d):
                for j in range(d):
                    rho_pow[i, j] += x**a * col[i] * MP.conj(col[j])
    t = MP.eighe(_ptrace_keep_last(rho_pow, dims))[0]
    t = [MP.re(t[i]) for i in range(len(t))]
    t = [x if x > RANK_TOL * max(t) else MP.zero for x in t]
    n = MP.fsum(x ** (1 / a) for x in t if x > 0)
    value = (1 - n**a) / c if c else _tsallis(w, c) - _tsallis(t, c)
    # H = -(k + n _qlog(n, c)) with k = sum w _qlog(w, c) - sum t _qlog(t, -c / alpha) / alpha;
    # a rounding of w moves rho**alpha, and so t, by alpha w**c times as much
    sum_w, kappa_w = _spectral_terms(w, c, w[-1])
    reach = max(a * x**c for x in w if x > 0)
    sum_t, kappa_t = _spectral_terms(t, -c / a, max(t) + reach)
    k = sum_w - sum_t / a
    kappa = abs(k) + abs(n * _qlog(n, c)) + kappa_w + kappa_t / a
    return float(value), float(kappa)


def entropy_reference(d, rank, seed, alpha):
    """``(H, kappa)`` of ``(1 - tr rho**alpha) / (alpha - 1)`` for rho divided by its trace."""
    w = _normalized(_eig(d, rank, seed)[0])
    c = _mp_c(alpha)
    return float(_tsallis(w, c)), float(_spectral_terms(w, c, w[-1])[1])


def register_reference(h, p, alpha):
    """``(H, kappa)`` of ``(mean**alpha - 1) / (1 - alpha)``, ``mean`` the ``p``-weighted
    mean of ``t**(1/alpha)``, ``t = 1 + (1 - alpha) h``; the ``p``-mean of ``h`` at 1."""
    a = MP.mpf(alpha)
    c = a - 1
    p = _normalized([MP.mpf(x) for x in p])
    h = [MP.mpf(x) for x in h]
    t = [1 - c * x for x in h]
    if c == 0:
        value = MP.fsum(py * hy for py, hy in zip(p, h))
    else:
        value = (1 - MP.fsum(py * ty ** (1 / a) for py, ty in zip(p, t)) ** a) / c
    # H = -(k + n _qlog(n, c)) with k = -sum p (h + t _qlog(t, -c / alpha) / alpha) and
    # n = 1 + c k; t is rounded, and log t errs by eps / t
    logs = [ty * _qlog(ty, -c / a) / a for ty in t]
    k = -MP.fsum(py * (hy + ly) for py, hy, ly in zip(p, h, logs))
    n = 1 + c * k
    kappa = MP.fsum(py * (abs(hy) + abs(ly) + ty / a) for py, hy, ly, ty in zip(p, h, logs, t))
    return float(value), float(kappa + abs(n * _qlog(n, c)) + abs(k))


def _pair(pair):
    d, rank_a, seed_a, rank_b, seed_b = pair
    return _density(d, rank_a, seed_a), _density(d, rank_b, seed_b)


def _assert_divergence(got, pair, alpha):
    want, kappa = divergence_reference(pair, alpha)
    if want == math.inf:
        assert got == math.inf
    else:
        assert abs(got - want) <= pair[0] * EPS * kappa, (got, want, kappa)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_spectral_sum(pair, alpha):
    a, b = _pair(pair)
    _assert_divergence(quantum_f_divergence(a, b, make_tsallis_f(alpha)), pair, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_divergence_closed_form(pair, alpha):
    a, b = _pair(pair)
    _assert_divergence(tsallis_divergence_closed(a, b, alpha), pair, alpha)


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_relative_entropy_closed(pair):
    a, b = _pair(pair)
    _assert_divergence(vn_relative_entropy_closed(a, b), pair, 1.0)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("state", STATES, ids=lambda s: "{}x{}-rank{}".format(*s[0], s[1]))
def test_conditional_closed_form(state, alpha):
    dims, rank, seed = state
    want, kappa = conditional_reference(dims, rank, seed, alpha)
    got, _ = conditional_entropy_tsallis_closed(random_bipartite(dims, rank, seed), alpha)
    assert abs(got - want) <= math.prod(dims) * EPS * kappa, (got, want, kappa)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("rank", [4, 2])
def test_tsallis_entropy(rank, alpha):
    want, kappa = entropy_reference(4, rank, 13, alpha)
    got = tsallis_entropy(_density(4, rank, 13), alpha)
    assert abs(got - want) <= 4 * EPS * kappa, (got, want, kappa)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("x", [0.03, 0.5, 2.5, 7.0])
def test_alpha_log(x, alpha):
    c = 1 - MP.mpf(alpha)
    want = _qlog(MP.mpf(x), c)
    kappa = abs(want) * (1 + abs(c * MP.log(x)))
    assert abs(alpha_log(x, alpha) - float(want)) <= 4 * EPS * float(kappa)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_classical_register(alpha):
    h, p = [0.6, -0.4, 0.2], [0.2, 0.3, 0.5]
    want, kappa = register_reference(h, p, alpha)
    got = classical_register_closed_form(h, p, alpha)
    assert abs(got - want) <= 4 * len(h) * EPS * kappa, (got, want, kappa)
