"""Builders that trust their construction make what the validating constructor makes.

``random_density``, the Schmidt, register and ancilla builders and the partial
trace skip the constructor's checks.  Each test here records
the matrix such a builder wraps and checks that the public constructor accepts
it, that the wrapped entries are read-only, C-ordered and exactly Hermitian,
and that they are bitwise equal to what the public constructor makes of the
same matrix.  ``random_channel`` and ``extend_with_identity`` likewise skip the
channel constructor's copy and completeness check; their Kraus operators must
be what the public constructor makes of them, read-only and C-ordered.  The
layout matters beyond the values: a Fortran-ordered operand takes a different
BLAS path through later products.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv import rng
from qfdiv.channels import (
    KrausChannel,
    apply_channel,
    build_classical_register_state,
    embed_ancilla,
    extend_with_identity,
    pure_bipartite_from_schmidt,
    random_bipartite,
    random_channel,
    random_density,
)
from qfdiv.errors import DomainError
from qfdiv.linalg import DensityOperator, partial_trace, ptrace_entries

# Hypothesis reports a failure through code that touches the deprecated
# mypy_extensions.TypedDict; with warnings as errors that report would abort the
# whole session instead of failing one test.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

MAX_DIM = 64
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
# derandomized, so a tier-1 run is reproducible
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


def build_recording(make):
    """``make()`` and the raw matrices it passed to ``DensityOperator._from_valid``."""
    raw = []
    trusted = DensityOperator._from_valid

    def recording(m):
        raw.append(np.array(m, dtype=np.complex128))
        return trusted(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DensityOperator, "_from_valid", staticmethod(recording))
        out = make()
    return out, raw


def assert_as_validated(out, raw):
    """``out`` holds exactly what the validating constructor makes of ``raw``."""
    validated = DensityOperator(raw)
    assert DensityOperator(out.entries).entries.tobytes() == out.entries.tobytes()
    assert not out.entries.flags.writeable
    assert out.entries.flags.c_contiguous
    assert np.array_equal(out.entries, out.entries.conj().T)
    assert out.entries.dtype == validated.entries.dtype
    assert out.entries.tobytes() == validated.entries.tobytes()


@st.composite
def dims_and_rank(draw, n_factors=2):
    """Factor dims with product at most ``MAX_DIM``, and a rank for a state on them."""
    dims = []
    for k in range(n_factors):
        room = MAX_DIM // math.prod(dims) // 2 ** (n_factors - k - 1)
        dims.append(draw(st.integers(min_value=1, max_value=max(1, room))))
    d = math.prod(dims)
    return tuple(dims), draw(st.integers(min_value=1, max_value=d))


@EXAMPLES
@given(d=st.integers(min_value=1, max_value=MAX_DIM), data=st.data(), seed=SEEDS)
def test_random_density(d, data, seed):
    rank = data.draw(st.integers(min_value=1, max_value=d))
    out, raw = build_recording(lambda: random_density(d, rank, seed))
    assert type(out) is DensityOperator
    assert len(raw) == 1
    assert_as_validated(out, raw[0])


@EXAMPLES
@given(spec=dims_and_rank(), data=st.data(), seed=SEEDS)
def test_pure_bipartite_from_schmidt(spec, data, seed):
    (d_a, d_b), _ = spec
    n = data.draw(st.integers(min_value=1, max_value=min(d_a, d_b)))
    weights = np.asarray(
        data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)), dtype=float
    )
    coeffs = np.sqrt(weights / weights.sum())
    out, raw = build_recording(lambda: pure_bipartite_from_schmidt(coeffs, d_a, d_b, seed))
    assert out.dims == (d_a, d_b)
    assert_as_validated(out, raw[0])


@EXAMPLES
@given(data=st.data(), seed=SEEDS)
def test_build_classical_register_state(data, seed):
    d_a = data.draw(st.integers(min_value=1, max_value=8))
    n_blocks = data.draw(st.integers(min_value=1, max_value=min(4, MAX_DIM // d_a)))
    room = MAX_DIM // d_a - n_blocks  # each block takes at least one B dimension
    blocks = []
    for k in range(n_blocks):
        d_b = data.draw(st.integers(min_value=1, max_value=1 + room))
        room -= d_b - 1
        rank = data.draw(st.integers(min_value=1, max_value=d_a * d_b))
        blocks.append(random_bipartite((d_a, d_b), rank, seed + k))
    weights = np.asarray(
        data.draw(st.lists(st.floats(0.01, 1.0), min_size=n_blocks, max_size=n_blocks))
    )
    p = weights / weights.sum()
    p[-1] = 1.0 - p[:-1].sum()
    out, raw = build_recording(lambda: build_classical_register_state(blocks, p))
    assert out.dims == (d_a, sum(b.dims[1] for b in blocks))
    assert out.dim <= MAX_DIM
    assert_as_validated(out, raw[0])


@EXAMPLES
@given(spec=dims_and_rank(), data=st.data(), seed=SEEDS)
def test_embed_ancilla(spec, data, seed):
    (d_a, d_b), rank = spec
    extra = data.draw(st.integers(min_value=1, max_value=max(1, MAX_DIM // d_a - d_b)))
    state = random_bipartite((d_a, d_b), rank, seed)
    out, raw = build_recording(lambda: embed_ancilla(state, extra))
    assert out.dims == (d_a, d_b + extra)
    assert_as_validated(out, raw[0])


@EXAMPLES
@given(n_factors=st.sampled_from((2, 3)), data=st.data(), seed=SEEDS)
def test_partial_trace_of_a_wrapped_state(n_factors, data, seed):
    dims, rank = data.draw(dims_and_rank(n_factors))
    labels = "ABC"[:n_factors]
    keep = data.draw(
        st.sets(st.sampled_from(labels), min_size=1, max_size=n_factors).map(
            lambda s: "".join(sorted(s))
        )
    )
    state = random_bipartite(dims, rank, seed)
    out, raw = build_recording(lambda: partial_trace(state, keep))
    assert type(out) is DensityOperator
    assert_as_validated(out, raw[0])
    # the validating constructor makes the same bits of the same reduced matrix
    idx = [labels.index(label) for label in keep]
    checked = DensityOperator(ptrace_entries(np.array(state.entries), dims, idx))
    assert checked.entries.tobytes() == out.entries.tobytes()


def assert_channel_as_validated(phi):
    """``phi`` holds exactly what the validating constructor makes of its operators."""
    validated = KrausChannel(phi.kraus_ops)
    k = phi.kraus_ops
    assert type(k) is np.ndarray
    assert not k.flags.writeable
    assert k.flags.c_contiguous
    assert k.dtype == validated.kraus_ops.dtype
    assert k.shape == validated.kraus_ops.shape
    assert k.tobytes() == validated.kraus_ops.tobytes()
    acc = (k.conj().transpose(0, 2, 1) @ k).sum(axis=0)
    assert np.abs(acc - np.eye(phi.d_in)).max() <= 1e-12


@st.composite
def channel_dims(draw):
    """``(d_in, d_out, env_dim)`` of a channel whose isometry has at most ``MAX_DIM`` rows."""
    d_out = draw(st.integers(min_value=1, max_value=16))
    env_dim = draw(st.integers(min_value=1, max_value=MAX_DIM // d_out))
    d_in = draw(st.integers(min_value=1, max_value=min(16, d_out * env_dim)))
    return d_in, d_out, env_dim


@EXAMPLES
@given(dims=channel_dims(), seed=SEEDS)
def test_random_channel(dims, seed):
    phi = random_channel(*dims, seed=seed)
    assert (phi.d_in, phi.d_out, len(phi.kraus_ops)) == dims
    assert_channel_as_validated(phi)


@EXAMPLES
@given(dims=channel_dims(), d_left=st.integers(min_value=1, max_value=4), seed=SEEDS)
def test_extend_with_identity(dims, d_left, seed):
    phi = extend_with_identity(random_channel(*dims, seed=seed), d_left)
    assert (phi.d_in, phi.d_out) == (d_left * dims[0], d_left * dims[1])
    assert_channel_as_validated(phi)


def test_raw_non_trace_preserving_channel_still_raises():
    phi = random_channel(3, 2, 2, seed=1)
    with pytest.raises(DomainError, match="trace preservation"):
        KrausChannel(0.9 * phi.kraus_ops)
    with pytest.raises(DomainError, match="trace preservation"):
        KrausChannel(phi.kraus_ops[:1])


@EXAMPLES
@given(dims=channel_dims(), seed=SEEDS)
def test_apply_channel_output_is_c_ordered(dims, seed):
    phi = random_channel(*dims, seed=seed)
    rho = random_density(dims[0], 1 + seed % dims[0], seed)
    out = apply_channel(phi, rho)
    assert out.flags.c_contiguous
    # a Fortran-ordered raw input gives the same bits in the same layout
    raw = apply_channel(phi, np.asfortranarray(rho.entries))
    assert raw.flags.c_contiguous
    assert raw.tobytes() == out.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (4, 2), (2, 4), (9, 9)])
def test_draws_are_c_ordered(shape):
    gen = rng.generator(sum(shape))
    z = rng.complex_gaussian(gen, shape)
    assert z.shape == shape
    assert z.flags.c_contiguous
    rows, cols = max(shape), min(shape)
    v = rng.haar_isometry(gen, rows, cols)
    assert v.flags.c_contiguous
    assert np.abs(v.conj().T @ v - np.eye(cols)).max() <= 1e-12
