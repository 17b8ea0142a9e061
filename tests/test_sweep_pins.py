"""Fixed epsilon sweeps, pinned: a change to how the sweep computes must not
change what it returns.

Each row is one :func:`quantum_f_divergence_eps_sweep` call on two random
density operators scaled by ``scale_a`` and ``scale_b``: the dimension, the
rank and seed of each, alpha and the two scales, then the regularized values
and the limit.  The rows cover full-rank and rank-deficient second arguments,
divergent pairs (limit ``inf``) and a pair of equal states, whose limit is
zero up to rounding.
"""

import math

import pytest

from qfdiv.channels import random_density
from qfdiv.fdiv import make_tsallis_f, quantum_f_divergence_eps_sweep

INF = math.inf

SWEEPS = [
    (2, 2, 700, 2, 701, 0.5, 1.0, 1.0,
     [0.3814662047206359, 0.3814878017732355, 0.38148996150795456], 0.3814902014821159),
    (3, 3, 702, 3, 703, 1.0, 1.0, 1.0,
     [0.37247300306948433, 0.37255883821867447, 0.3725674229592293], 0.372568376970628),
    (4, 4, 704, 4, 705, 2.0, 1.0, 1.0,
     [16.564720488574558, 16.581378572962482, 16.58304624770719], 16.583231775596044),
    (6, 6, 706, 6, 707, 1.3, 1.0, 1.0,
     [5.595856204792363, 5.702054719189783, 5.713157922036298], 5.714454317320569),
    (3, 3, 708, 2, 709, 0.5, 1.0, 1.0,
     [0.645300354283909, 0.6475043671086702, 0.6481970231598596], 0.6485144679972659),
    (4, 2, 710, 3, 711, 0.3, 1.0, 1.0,
     [0.8522916495046772, 0.852504839253273, 0.8525456478705672], 0.8525553086915219),
    (5, 2, 712, 4, 713, 0.8, 1.0, 1.0,
     [2.024360873295573, 2.0542485293974324, 2.0730497881185994], 2.104934567038384),
    (8, 3, 714, 5, 715, 0.5, 1.0, 1.0,
     [1.2105152478830326, 1.2135368428932243, 1.2144866334035744], 1.21492205190644),
    (3, 3, 716, 3, 717, 2.0, 2.5, 0.4,
     [35.35842527730341, 35.36106396593515, 35.361327861956525], 35.36135718708992),
    (4, 4, 718, 2, 719, 1.0, 1.0, 1.0,
     [7.1601892068164155, 8.735483963991038, 10.310760303430342], INF),
    (4, 4, 720, 2, 721, 1.5, 1.0, 1.0,
     [276.4582315657968, 875.8227828372508, 2771.1798493558535], INF),
    (5, 1, 722, 3, 723, 2.0, 1.0, 1.0,
     [67664.72807499247, 676636.9459709969, 6766359.125519682], INF),
    (4, 2, 724, 2, 724, 1.0, 1.0, 1.0,
     [-1.9999786843204734e-05, -1.999997868548383e-06, -1.999999787615787e-07],
     2.131528786152842e-12),
]


def _close(got, pinned):
    """Equal infinities, or agreement to 1e-9 relative (1e-12 absolute near zero)."""
    if math.isinf(pinned):
        return got == pinned
    return got == pytest.approx(pinned, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "d, rank_a, seed_a, rank_b, seed_b, alpha, scale_a, scale_b, values, limit", SWEEPS
)
def test_sweep_is_pinned(d, rank_a, seed_a, rank_b, seed_b, alpha, scale_a, scale_b, values, limit):
    a = scale_a * random_density(d, rank_a, seed_a).entries
    b = scale_b * random_density(d, rank_b, seed_b).entries
    got_values, got_limit = quantum_f_divergence_eps_sweep(a, b, make_tsallis_f(alpha))
    assert len(got_values) == len(values)
    assert all(_close(g, p) for g, p in zip(got_values, values)), got_values
    assert _close(got_limit, limit), got_limit
