"""Fixed optimizer solves, pinned: a change to how the optimizer computes must not
change what it finds.

Each row is one solve of the Tsallis conditional entropy with default options
apart from ``max_iters``: the dims, the rank and seed of the random state, alpha
and ``max_iters``, then either the iterations each start took with the value and
gap reported, or the exact ``ConvergenceError`` message of a solve that no start
certified.  Capped descents (``max_iters`` 0, 1 and 3) leave gaps above
``value_tol``, so the Frank-Wolfe polish runs on them.  Three default-option
solves (seeds 1001, 1088 and 1131, at alpha 0.1) stop start 0's descent with a
failed line search above ``value_tol``, and only the polish certifies them:
without it each raises ``ConvergenceError``.
"""

import numpy as np
import pytest

from qfdiv.channels import random_density
from qfdiv.condent import BipartiteState, OptimizerOptions, conditional_entropy_optimize
from qfdiv.errors import ConvergenceError
from qfdiv.fdiv import make_tsallis_f


def _raised(*gaps_and_iters):
    starts = "; ".join(
        f"start {i}: gap {gap} after {nit} iterations, max_iters reached"
        for i, (gap, nit) in enumerate(gaps_and_iters)
    )
    return f"no start certified within value_tol 1e-06 ({starts})"


SOLVED = [
    ((2, 2), 1, 900, 0.3, 500, (14,), -0.09159689207080779, 4.1961980346005845e-07),
    ((2, 2), 4, 901, 1.0, 3, (3,), 0.15864372863187146, 5.771068976034854e-07),
    ((3, 2), 5, 904, 0.8, 1, (1,), 0.6947861688952222, 5.32762278737664e-10),
    ((3, 2), 2, 905, 1.5, 0, (0,), 0.12352767204815658, 3.146382809848802e-08),
    ((3, 3), 7, 906, 1.0, 0, (0, 0), 0.47659352941506783, 6.661338147750939e-16),
    ((3, 3), 1, 907, 2.0, 500, (9,), -1.0126726041593903, 2.3225757850298123e-07),
    ((2, 4), 5, 908, 1.3, 500, (10,), 0.21034644672832065, 3.402161874443976e-08),
    ((4, 2), 2, 910, 1.5, 3, (3,), -0.05256527458270769, 6.533012819609496e-08),
    ((4, 2), 5, 911, 0.5, 1, (1,), 0.941000856363413, 1.8957770908656357e-09),
    ((4, 3), 3, 915, 1.0, 500, (5,), -0.040941368978545466, 4.3675936900466894e-07),
    ((4, 4), 9, 916, 0.5, 500, (7,), 0.7548092025131088, 2.661714404439408e-08),
    ((2, 16), 14, 918, 0.8, 500, (27,), -0.0011974555749505456, 4.777000166544809e-07),
    ((4, 4), 1, 1001, 0.1, 500, (20,), -0.4885748317800379, 4.125523271891751e-07),
    # start 0's line search fails after 2 iterations and its polish stops at gap 2.6e-5;
    # start 1 certifies
    ((4, 4), 1, 1022, 0.2, 500, (2, 47), -0.3208768264591105, 3.0689497054758874e-08),
    # start 0's line search fails at gap 6.23; the polish certifies it
    ((2, 4), 2, 1088, 0.1, 500, (38,), 0.40560665707425003, 3.2616145340114144e-09),
    # start 0's line search fails at gap 5.99e-6; the polish certifies it
    ((3, 4), 2, 1131, 0.1, 500, (75,), -0.03420361300614441, 5.543973322641449e-07),
]

UNCERTIFIED = [
    ((2, 3), 6, 902, 0.5, 3, _raised((0.00224, 3), (0.000555, 3))),
    ((2, 3), 3, 903, 1.3, 1, _raised((0.0252, 1), (0.00269, 1))),
    ((2, 4), 8, 909, 0.3, 3, _raised((0.0155, 3), (0.00382, 3))),
    ((3, 4), 7, 912, 2.0, 1, _raised((0.145, 1), (0.0186, 1))),
    ((3, 4), 10, 913, 0.8, 0, _raised((0.072, 0), (0.00769, 0))),
    ((4, 3), 12, 914, 0.3, 0, _raised((0.0277, 0), (0.008, 0))),
    ((4, 4), 12, 917, 1.3, 3, _raised((0.00151, 3), (6.67e-05, 3))),
    ((2, 16), 17, 919, 1.5, 3, _raised((0.112, 3), (0.0357, 3))),
]


def _solve(dims, rank, seed, alpha, max_iters):
    state = BipartiteState(random_density(int(np.prod(dims)), rank, seed), dims)
    opts = OptimizerOptions(max_iters=max_iters)
    return conditional_entropy_optimize(state, make_tsallis_f(alpha), opts)


@pytest.mark.parametrize("dims, rank, seed, alpha, max_iters, iterations, value, gap", SOLVED)
def test_solved(dims, rank, seed, alpha, max_iters, iterations, value, gap):
    report = _solve(dims, rank, seed, alpha, max_iters)
    assert report.iterations_per_start == iterations
    assert report.value == pytest.approx(value, abs=1e-12)
    assert report.gap == pytest.approx(gap, abs=1e-12)


@pytest.mark.parametrize("dims, rank, seed, alpha, max_iters, message", UNCERTIFIED)
def test_uncertified(dims, rank, seed, alpha, max_iters, message):
    with pytest.raises(ConvergenceError) as raised:
        _solve(dims, rank, seed, alpha, max_iters)
    assert str(raised.value) == message
