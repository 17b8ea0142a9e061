"""Every seeded stream is pinned bit for bit.

Each digest is the SHA-256 of the raw bytes that one builder returns for the
seeds 0, 5, 2**64 - 1 and 2**64 + 3, in that order; the last seed checks that
only the low 64 bits of a seed key the generator.  A change to the generator's
keying, to the Box-Muller transform or to how a builder draws must leave every
digest as it is.
"""

import hashlib

import numpy as np
import pytest

from qfdiv import rng
from qfdiv.channels import pure_bipartite_from_schmidt, random_channel, random_density

SEEDS = (0, 5, 2**64 - 1, 2**64 + 3)


def _gaussian(shape):
    return lambda seed: [rng.complex_gaussian(rng.generator(seed), shape)]


def _densities(seed):
    return [random_density(d, r, seed).entries for d, r in ((1, 1), (4, 2), (9, 5), (64, 64))]


def _channels(seed):
    shapes = ((2, 2, 1), (2, 3, 2), (4, 2, 3), (3, 9, 4))
    return [k for s in shapes for k in random_channel(*s, seed=seed).kraus_ops]


def _schmidt(seed):
    return [
        pure_bipartite_from_schmidt([0.8, 0.6], 2, 3, seed).entries,
        pure_bipartite_from_schmidt([0.5, 0.5, 0.5, 0.5], 4, 4, seed).entries,
    ]


STREAMS = {
    "uniforms": lambda seed: [rng.generator(seed).random(8)],
    "complex_gaussian_1x1": _gaussian((1, 1)),
    "complex_gaussian_3x1": _gaussian((3, 1)),
    "complex_gaussian_4x2": _gaussian((4, 2)),
    "complex_gaussian_9x9": _gaussian((9, 9)),
    "complex_gaussian_64x64": _gaussian((64, 64)),
    "random_density": _densities,
    "random_channel": _channels,
    "pure_bipartite_from_schmidt": _schmidt,
}

DIGESTS = {
    "complex_gaussian_1x1": "c8e202bd9d36f121992f1e7d07eb18386c2d88b5f23f821dd20dc784206a7e20",
    "complex_gaussian_3x1": "f75399220b3a5338836d6b31c987fc175dddd9531e6e0ebbd943e1447e02ca21",
    "complex_gaussian_4x2": "a4e11998b64994d6883bcd47ec3cddbf4dda9308d85aae47c121a77be180f03a",
    "complex_gaussian_64x64": "4711dfc2919586075d4f74c4ad081e466c2fbb7687b323267f985d278bae2e8f",
    "complex_gaussian_9x9": "d867aaed8b8e377aedefcf2c4ad56dba3521800510b5375a50697d92f2d6a274",
    "pure_bipartite_from_schmidt": "ba5f99b383032705211b8792c3fbae989758133745d256407d6b9a66fc97b3f2",
    "random_channel": "26767ed985d67cfecfa510892f162eeb19425331fae1d735de1b63a4676a84a4",
    "random_density": "9c581583d90b669bf54b45c3b0575f4e99aee195e2ceeb99e8cb054dde7b6ef3",
    "uniforms": "cb510a6d05ea906af558d6f478f3fe04a90746d52569275222f3574ff508f393",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_is_philox_keyed_with_the_seed(seed):
    # the stream numpy's own keyword gives, which first draws and discards OS entropy
    keyed = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    assert rng.generator(seed).random(64).tobytes() == keyed.random(64).tobytes()


def test_key_sequence_gives_only_the_philox_key():
    key = rng.generator(7).bit_generator.seed_seq
    assert key.generate_state(2, np.uint64).tolist() == [7, 0]
    with pytest.raises(RuntimeError, match="2 x uint64 key"):
        key.generate_state(4, np.uint32)
    with pytest.raises(RuntimeError, match="2 x uint64 key"):
        key.generate_state(4, np.uint64)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_is_pinned(name):
    h = hashlib.sha256()
    for seed in SEEDS:
        for a in STREAMS[name](seed):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == DIGESTS[name]
