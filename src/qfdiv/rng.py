"""Seeded randomness primitives.

All random objects in the package derive from the Philox 4x64-10 counter-based
generator keyed directly with the caller's 64-bit seed (no entropy pooling), so
a seed pins the full bit stream.  Normal deviates are produced by the explicit
Box-Muller transform on the generator's uniform doubles rather than a library
sampler, keeping the stream reproducible by any implementation of the same
two building blocks.

The stacked draws serve many seeds at once: each matrix comes from its own
seed's stream, with the bits of its own call, and one Box-Muller pass and
one stacked QR serve the stack; :func:`haar_isometry` is the stack of one of
its stacked form.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _lapack

_U64_MASK = (1 << 64) - 1


@functools.cache
def _philox_key_type() -> type:
    """The seed sequence that hands Philox its key and draws no OS entropy.

    ``Philox(key=k)`` first seeds itself from OS entropy and then overwrites
    the key; this class gives it the key words directly.  It is built on first
    use, so importing the package does not load ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """The two key words ``[seed, 0]`` that ``Philox(key=seed)`` sets, and nothing else."""

        def __init__(self, seed: int) -> None:
            self.seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            # any other request means Philox seeds itself differently, and the
            # stream would silently change
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise RuntimeError(
                    f"Philox asked for {n_words} words of {np.dtype(dtype)}, not a 2 x uint64 key"
                )
            return np.array([self.seed, 0], dtype=np.uint64)

    return PhiloxKey


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed with the low 64 bits of ``seed``."""
    key = _philox_key_type()(int(seed) & _U64_MASK)
    return np.random.Generator(np.random.Philox(key))


def _box_muller(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Normals from uniform pairs ``u[..., 0, :]`` and ``u[..., 1, :]``, written to ``out``.

    Along the last axis ``out`` receives the cosine deviates, then the sine
    deviates.  ``log``, ``cos`` and ``sin`` see only fresh contiguous arrays,
    so each deviate is the same bits whatever the batch shape.
    """
    m = u.shape[-1]
    radius = np.sqrt(-2.0 * np.log(1.0 - u[..., 0, :]))  # 1 - u in (0, 1]: the log is finite
    angle = 2.0 * np.pi * u[..., 1, :]
    np.multiply(radius, np.cos(angle), out=out[..., :m])
    np.multiply(radius, np.sin(angle), out=out[..., m:])
    return out


def complex_gaussian(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """C-ordered matrix with independent N(0, 1) real and imaginary parts.

    One draw of ``4m`` uniforms, ``m = ceil(n / 2)``, and one Box-Muller pass:
    the first ``2m`` give the real parts (``m`` cosine deviates, then ``m``
    sine deviates) and the last ``2m`` the imaginary parts, alike.  The pass
    writes them through a float view of the result.
    """
    return _gaussians(gen.random(4 * ((math.prod(shape) + 1) // 2))[None], shape)[0]


def _complex_gaussians(seeds, shape: tuple[int, ...]) -> np.ndarray:
    """:func:`complex_gaussian` of ``generator(seed)`` for each seed, stacked."""
    return _gaussians(_uniforms(seeds, 4 * ((math.prod(shape) + 1) // 2)), shape)


def _uniforms(seeds, n: int) -> np.ndarray:
    """``generator(seed).random(n)`` for each seed, stacked.

    The first seed's generator serves every seed: its bit generator is
    re-keyed by setting a new generator's state (counter 0, nothing
    buffered) with the next key, which costs a fourth of building one.
    """
    out = np.empty((len(seeds), n))
    gen = generator(seeds[0])
    fresh = gen.bit_generator.state if len(seeds) > 1 else None
    for k, (seed, row) in enumerate(zip(seeds, out)):
        if k:
            fresh["state"]["key"][0] = int(seed) & _U64_MASK
            gen.bit_generator.state = fresh
        gen.random(out=row)
    return out


def _gaussians(u: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A complex Gaussian matrix of ``shape`` from each row of ``4m`` uniforms, stacked: one
    Box-Muller pass serves every row."""
    n, m = math.prod(shape), u.shape[1] // 4
    z = np.empty((len(u), 2 * m), dtype=np.complex128)
    _box_muller(u.reshape(-1, 2, 2, m), z.view(np.float64).reshape(-1, 2 * m, 2).swapaxes(-1, -2))
    return z[:, :n].reshape(-1, *shape)


def haar_isometry(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed isometry via QR of a complex Gaussian matrix, C-ordered.

    The unit phases of the R diagonal are absorbed into Q, which makes the
    distribution exactly Haar (and a Haar unitary when ``rows == cols``).
    """
    if rows < cols:
        raise ValueError(f"isometry needs rows >= cols, got {rows} x {cols}")
    return _haar_isometries(complex_gaussian(gen, (rows, cols))[None])[0]


def _haar_isometries(g: np.ndarray) -> np.ndarray:
    """:func:`haar_isometry` of each complex Gaussian matrix of a stack, which it overwrites,
    from one stacked QR; unchecked."""
    q, d = _lapack.qr(g)  # d: the diagonals of R
    absd = np.abs(d)
    # a zero diagonal entry has probability zero; its phase is 1
    q *= np.divide(d, absd, out=np.ones(d.shape, dtype=np.complex128), where=absd != 0)[:, None]
    return q
