"""``qfdiv._lapack`` makes numpy's own LAPACK gufunc calls: the wrapper's bits and errors."""

import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import qfdiv
from qfdiv import _lapack, channels, linalg, rng
from qfdiv.condent import (
    OptimizerOptions,
    conditional_entropy_optimize,
    conditional_entropy_tsallis_closed,
    thm2_bounds,
    tsallis_entropy,
)
from qfdiv.fdiv import make_tsallis_f, quantum_f_divergence
from qfdiv.linalg import DensityOperator, ptrace_entries

DIMS = [1, 2, 3, 4, 9, 16, 24, 25, 26, 32, 36, 64]


def same_bytes(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same_bytes(g, w)
    else:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def inputs(d: int):
    """Named complex Hermitian inputs of dimension ``d``, in the layouts the package passes."""
    full = channels.random_density(d, d, seed=700 + d).entries  # read-only
    deficient = channels.random_density(d, max(1, d // 3), seed=800 + d).entries
    assert not full.flags.writeable
    joint = channels.random_density(2 * d, d, seed=900 + d).entries
    return {
        "full rank": full,
        "deficient rank": deficient,
        "writeable copy": deficient.copy(),
        "transposed view": full.T,
        "ptrace_entries output": ptrace_entries(joint, (2, d), [1]),
    }


class TestSameBits:
    @pytest.mark.parametrize("d", DIMS)
    def test_eigh_and_eigvalsh_match_numpy(self, d):
        for name, m in inputs(d).items():
            assert m.dtype == np.complex128, name
            same_bytes(tuple(_lapack.eigh(m)), tuple(np.linalg.eigh(m)))
            same_bytes(_lapack.eigvalsh(m), np.linalg.eigvalsh(m))

    @pytest.mark.parametrize("d", [4, 36, 64])
    def test_worker_thread_matches_numpy(self, d):
        with ThreadPoolExecutor(1) as pool:
            for m in inputs(d).values():
                same_bytes(tuple(pool.submit(_lapack.eigh, m).result()), tuple(np.linalg.eigh(m)))

    @pytest.mark.parametrize(
        "rows,cols", [(1, 1), (2, 2), (4, 4), (8, 4), (9, 3), (16, 16), (32, 2), (64, 64)]
    )
    def test_haar_isometry_matches_numpy_qr(self, rows, cols):
        for seed in range(5):
            g = rng.complex_gaussian(rng.generator(seed), (rows, cols))
            q, r = np.linalg.qr(g, mode="reduced")
            d = r.diagonal()
            want = q * (d / np.abs(d))
            same_bytes(rng.haar_isometry(rng.generator(seed), rows, cols), want)


    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (4, 3), (6, 4), (9, 3), (16, 16)])
    def test_stacked_qr_is_numpys_qr_of_each_matrix(self, rows, cols):
        # qr_r_raw and qr_reduced factor a stack one matrix at a time; at an odd rows * cols
        # the stacked Gaussian draws leave a gap between one matrix and the next
        for n in (1, 2, 7):
            g = rng._complex_gaussians(range(n), (rows, cols))
            want = [np.linalg.qr(m, mode="reduced") for m in g]
            q, d = _lapack.qr(g)
            for k, (wq, wr) in enumerate(want):
                same_bytes(q[k].copy(), wq)
                same_bytes(d[k].copy(), wr.diagonal().copy())


def nan_inputs():
    """Inputs with NaN or inf entries: LAPACK fails on some and not on others."""
    cases = {
        "all NaN": np.full((3, 3), np.nan, complex),
        "1 x 1 NaN": np.full((1, 1), np.nan, complex),
    }
    for label, index, value in (
        ("first diagonal NaN", (0, 0), np.nan),
        ("last diagonal NaN", (2, 2), np.nan),
        ("lower NaN", (1, 0), np.nan),
        ("upper NaN", (0, 1), np.nan),  # the lower triangle alone is read
        ("diagonal inf", (1, 1), np.inf),
    ):
        m = np.eye(3, dtype=complex)
        m[index] = value
        cases[label] = m
    return cases


def outcome(fn, m):
    """``fn(m)``, a tuple of arrays or an array, or the type of the error it raised."""
    try:
        got = fn(m)
    except np.linalg.LinAlgError as exc:
        return type(exc)
    return tuple(got) if isinstance(got, tuple) else got


@pytest.mark.parametrize("label", sorted(nan_inputs()))
@pytest.mark.parametrize(
    "ours,numpys", [(_lapack.eigh, np.linalg.eigh), (_lapack.eigvalsh, np.linalg.eigvalsh)]
)
def test_nan_input_gives_what_numpy_gives(label, ours, numpys):
    m = nan_inputs()[label]
    got, want = outcome(ours, m), outcome(numpys, m)
    if want is np.linalg.LinAlgError:
        assert got is want
    else:
        same_bytes(got, want)


def test_nan_inputs_cover_both_outcomes():
    # some NaN inputs make LAPACK fail and some do not: no NaN check on the output can stand in
    outcomes = {outcome(np.linalg.eigh, m) is np.linalg.LinAlgError for m in nan_inputs().values()}
    assert outcomes == {True, False}


class TestErrorGuard:
    @staticmethod
    def invalid(*args, signature):
        return np.subtract(np.inf, np.inf)  # sets the invalid flag, as a LAPACK failure does

    @pytest.mark.parametrize(
        "gufunc,helper,message",
        [
            ("eigh_lo", _lapack.eigh, "did not converge"),
            ("eigvalsh_lo", _lapack.eigvalsh, "did not converge"),
            ("qr_r_raw", _lapack.qr, "QR factorization"),
        ],
    )
    def test_invalid_flag_raises_linalg_error(self, monkeypatch, gufunc, helper, message):
        monkeypatch.setattr(_lapack, gufunc, self.invalid)
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError, match=message):
            helper(np.eye(2, dtype=complex))
        assert np.geterr() == before

    def test_overflow_underflow_and_division_are_ignored(self, monkeypatch):
        def noisy(m, signature):
            np.multiply(1e308, 10.0)
            np.multiply(1e-308, 1e-308)
            np.divide(1.0, 0.0)
            return m.diagonal().real.copy()

        monkeypatch.setattr(_lapack, "eigvalsh_lo", noisy)
        same_bytes(_lapack.eigvalsh(np.eye(2, dtype=complex)), np.ones(2))


def test_package_calls_no_numpy_linalg_wrapper():
    # a call through numpy.linalg, or an import of one of its wrappers
    pattern = re.compile(
        r"linalg\.(eigh|eigvalsh|qr)\b|from\s+numpy\.linalg\s+import[^\n]*\b(eigh|eigvalsh|qr)\b"
    )
    hits = [
        f"{path.name}:{n}"
        for path in sorted(Path(qfdiv.__file__).parent.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_every_call_site_passes_complex128(monkeypatch):
    """Each helper call's caller and dtype, over one call of every engine that solves."""
    seen = set()
    for name in ("eigh", "eigvalsh", "qr"):
        real = getattr(_lapack, name)

        def spy(m, _real=real, _name=name):
            on_worker = threading.current_thread().name.startswith("qfdiv-eigh")
            seen.add((_name, "worker" if on_worker else sys._getframe(1).f_code.co_name, m.dtype))
            return _real(m)

        monkeypatch.setattr(_lapack, name, spy)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)

    f = make_tsallis_f(0.5)
    DensityOperator(np.eye(4) / 4)
    state = channels.random_bipartite((2, 2), 3, seed=5)
    channels.random_channel(2, 2, 2, seed=5)
    quantum_f_divergence(state, channels.random_density(4, 2, seed=6), f)
    big = channels.random_density(36, 36, seed=7)
    quantum_f_divergence(big, big, f)
    tsallis_entropy(state, 0.5)
    thm2_bounds(state, f)
    conditional_entropy_tsallis_closed(state, 0.5)
    # no descent step: the polish alone certifies, so it takes its Frank-Wolfe steps
    conditional_entropy_optimize(state, f, OptimizerOptions(starts=1, max_iters=0))

    assert {dtype for _, _, dtype in seen} == {np.dtype(np.complex128)}
    assert {(name, caller) for name, caller, _ in seen} == {
        ("eigvalsh", "__init__"),
        ("eigh", "psd_eigh"),
        ("eigh", "worker"),
        ("qr", "_haar_isometries"),
        ("eigvalsh", "tsallis_entropy"),
        ("eigvalsh", "thm2_bounds"),
        ("eigvalsh", "_fw_gap"),
        ("eigh", "evaluate"),
        ("eigh", "certify"),
        ("eigh", "moved"),
    }
