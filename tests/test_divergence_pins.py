"""Fixed quantum f-divergences, pinned: a change to how the boundary terms
``ell * tr A(1 - B^0)`` and ``f(0+) * tr B(1 - A^0)`` are decided must not
change what :func:`quantum_f_divergence` returns, or must show which rows it
moves.

Each row is one call on two random density operators: the dimension, the rank
and seed of each, a leak, whether the arguments are swapped, the function and
the value.  With a leak, the first argument is the first draw compressed onto
the support of the second, at unit trace, plus ``leak * (1 - B^0) / dim ker B``;
a swap then exchanges the two.  The rows cover:

- the finite-``ell`` kernel term of a rank-deficient second argument
  (alpha 0.3 and 0.5);
- ``ell = inf`` (alpha 1 and 2): independent draws and leaks of 1e-6 and
  3e-10 put a kernel mass above ``RANK_TOL * tr A`` and give ``inf``; a leak
  of 1e-12, whose eigenvalues the kernel rule clamps, and one of 6e-11, whose
  eigenvalue the rule keeps (it is above ``RANK_TOL * ||A||``) but whose mass
  is within ``RANK_TOL * tr A``, give ``0 * inf = 0``;
- ``f(0+) = 1`` (the squared Hellinger distance) and ``f(0+) = inf``
  (``-log x``) on rank-deficient first arguments, the latter with ``B``'s
  mass on the kernel of ``A`` above the tolerance (``inf``) and clamped;
- one d = 36 pair, which solves its two eigensystems on two threads when two
  CPUs are usable.
"""

import math

import numpy as np
import pytest

from qfdiv.channels import random_density
from qfdiv.fdiv import DivergenceFunction, make_tsallis_f, quantum_f_divergence

INF = math.inf

FUNCTIONS = {
    "hellinger": DivergenceFunction(
        "hellinger", lambda x: (np.sqrt(x) - 1.0) ** 2, lambda x: 1.0 - np.sqrt(x), 1.0, 1.0, True
    ),
    "-log": DivergenceFunction("-log", lambda x: -np.log(x), lambda x: 1.0 - np.log(x), INF, 0.0, True),
}

PINS = [
    (4, 4, 800, 2, 801, None, False, 0.3, 0.6138737036675341),
    (4, 2, 802, 3, 803, None, False, 0.3, 0.5867648074069006),
    (6, 6, 804, 3, 805, None, False, 0.5, 0.6622724263790035),
    (9, 4, 806, 5, 807, None, False, 0.5, 1.0893183989981012),
    (4, 4, 808, 2, 809, None, False, 1.0, INF),
    (5, 3, 810, 4, 811, None, False, 2.0, INF),
    (4, 4, 812, 2, 813, 1e-12, False, 1.0, 0.3811203704259247),
    (9, 9, 814, 8, 815, 6e-11, False, 1.0, 1.0002686695382128),
    (4, 4, 816, 2, 817, 1e-12, False, 2.0, 1.1338088936230633),
    (9, 9, 818, 8, 819, 6e-11, False, 2.0, 6.974203055552223),
    (9, 9, 820, 8, 821, 1e-6, False, 2.0, INF),
    (9, 9, 832, 8, 833, 3e-10, False, 1.0, INF),
    (4, 2, 822, 4, 823, None, False, "hellinger", 0.7843510682509691),
    (6, 3, 824, 4, 825, None, False, "hellinger", 1.2338191886912078),
    (4, 2, 826, 4, 827, None, False, "-log", INF),
    (5, 5, 828, 3, 829, 1e-12, True, "-log", 0.4674653893553544),
    (4, 4, 834, 2, 835, 3e-10, True, "-log", INF),
    (36, 36, 830, 18, 831, None, False, 0.5, 0.9060015020687044),
]


def _pair(d, rank_a, seed_a, rank_b, seed_b, leak, swap):
    a = random_density(d, rank_a, seed_a).entries
    b = random_density(d, rank_b, seed_b).entries
    if leak is not None:
        w, v = np.linalg.eigh(b)
        v = v[:, w > 1e-12 * w[-1]]
        support = v @ v.conj().T
        a = support @ a @ support
        a = a / np.trace(a).real + leak * (np.eye(d) - support) / (d - v.shape[1])
    return (b, a) if swap else (a, b)


@pytest.mark.parametrize("d, rank_a, seed_a, rank_b, seed_b, leak, swap, f, value", PINS)
def test_divergence_is_pinned(d, rank_a, seed_a, rank_b, seed_b, leak, swap, f, value):
    a, b = _pair(d, rank_a, seed_a, rank_b, seed_b, leak, swap)
    f = FUNCTIONS[f] if isinstance(f, str) else make_tsallis_f(f)
    got = quantum_f_divergence(a, b, f)
    if math.isinf(value):
        assert got == value
    else:
        assert got == pytest.approx(value, rel=1e-9, abs=1e-12)
