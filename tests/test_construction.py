"""Builders that trust their construction make what the validating constructor makes.

``random_density``, the Schmidt, register and ancilla builders and the partial
trace of a wrapped state skip the constructor's checks.  Each test here records
the matrix such a builder wraps and checks that the public constructor accepts
it, that the wrapped entries are read-only and exactly Hermitian, and that they
are bitwise equal to what the public constructor makes of the same matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfdiv.channels import (
    build_classical_register_state,
    embed_ancilla,
    pure_bipartite_from_schmidt,
    random_bipartite,
    random_density,
)
from qfdiv.linalg import DensityOperator, partial_trace

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
    # the raw-array route validates the same reduced matrix
    checked = partial_trace(np.array(state.entries), keep, dims)
    assert checked.entries.tobytes() == out.entries.tobytes()
