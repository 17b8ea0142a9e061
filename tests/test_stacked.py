"""The stacked spectral engine against one call per pair, bit for bit.

:func:`qfdiv.fdiv.quantum_f_divergences` evaluates two stacks ``(n, d, d)`` in
one eigensolve per stack, and the property suite's divergence rows evaluate
all their pairs that way.  Every value it gives must be ``==`` the value of
its pair's own :func:`qfdiv.fdiv.quantum_f_divergence` call.  Stacked
``eigh_lo`` and ``numpy.vecdot`` are what make that so, and both are numpy's
to change, so the ``numpy-floor`` CI job runs this module too.
"""

import logging
import math
import threading

import numpy as np
import pytest

import qfdiv.propsuite as propsuite
from qfdiv import _lapack, linalg
from qfdiv.channels import random_density
from qfdiv.errors import DomainError
from qfdiv.fdiv import (
    INF,
    DivergenceFunction,
    make_tsallis_f,
    quantum_f_divergence,
    quantum_f_divergences,
)
from qfdiv.linalg import DensityOperator, as_matrix, clamp_psd_spectrum, psd_eigh
from qfdiv.propsuite import REGISTRY, PropertyConfig, derive_seed, run_suite

ALPHAS = (0.5, 1.0, 2.0)
PAIRS_PER_CELL = 400  # per (d, alpha), every ninth a diagonal pair below: 3600 in all
# A scaled so that a/b overflows f on B's smallest eigenvalue but not on its others
OVERFLOW_SCALE = {0.5: 1e300, 1.0: 1e300, 2.0: 1e150}


def random_pairs(d, n, seed):
    """``n`` pairs at dimension ``d``: A's rank cycles through 1..d, and B is of full rank
    on even pairs and of rank d - 1 on odd ones."""
    pairs = []
    for k in range(n):
        a = random_density(d, 1 + k % d, seed + 2 * k).entries
        b = random_density(d, d if k % 2 == 0 else max(1, d - 1), seed + 2 * k + 1).entries
        pairs.append((a, b))
    return pairs


def overflow_pairs(d, alpha, n, seed):
    """Diagonal pairs on which ``f(a / b)`` overflows to ``inf`` only where the eigenvectors do
    not overlap: B's eigenvalue 1e-9 sits on A's kernel, so the sum takes its ``inf * 0 := 0``
    branch and stays finite."""
    r = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        p = r.random(d) + 0.1
        p[r.integers(d)] = 0.0  # A's kernel
        q = r.random(d) + 0.1
        q /= q.sum()
        q[p == 0.0] = 1e-9
        perm = r.permutation(d)
        pairs.append((OVERFLOW_SCALE[alpha] * np.diag(p[perm] / p.sum()), np.diag(q[perm])))
    return pairs


def looped(pairs, f):
    return [quantum_f_divergence(a, b, f) for a, b in pairs]


def stacked(pairs, f):
    return quantum_f_divergences(np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]), f)


@pytest.fixture(scope="module")
def grid():
    """``(d, alpha, pairs, looped values)`` for every cell of the grid."""
    cells = []
    for d in (2, 4, 9):
        for alpha in ALPHAS:
            seed = 1000 * d + int(10 * alpha)
            pairs = random_pairs(d, PAIRS_PER_CELL, seed)
            # interleaved, so that one stack mixes finite sums with the inf * 0 branch
            pairs[::9] = overflow_pairs(d, alpha, len(pairs[::9]), seed)
            cells.append((d, alpha, pairs, looped(pairs, make_tsallis_f(alpha))))
    return cells


class TestBitIdentityGrid:
    def test_every_value_is_its_pairs_own(self, grid):
        for d, alpha, pairs, want in grid:
            got = stacked(pairs, make_tsallis_f(alpha))
            assert got.tolist() == want, (d, alpha)

    def test_grid_has_3600_pairs(self, grid):
        assert sum(len(pairs) for _, _, pairs, _ in grid) == 3600

    def test_grid_covers_infinite_values_and_the_inf_times_zero_branch(self, grid):
        for d, alpha, pairs, want in grid:
            # B of rank d - 1 carries mass of A on its kernel: inf from alpha = 1 on
            assert (INF in want) == (alpha >= 1.0), (d, alpha)
            f = make_tsallis_f(alpha)
            for a, b in pairs[::9]:
                with np.errstate(all="ignore"):
                    assert not np.isfinite(f(np.diag(a).max() / np.diag(b).min()))
                assert math.isfinite(quantum_f_divergence(a, b, f))

    @pytest.mark.parametrize(
        "f",
        [
            DivergenceFunction(
                "hellinger", lambda x: (np.sqrt(x) - 1.0) ** 2, lambda x: 1.0 - np.sqrt(x),
                1.0, 1.0, True,
            ),
            DivergenceFunction("-log", lambda x: -np.log(x), lambda x: 1.0 - np.log(x), INF, 0.0, True),
        ],
        ids=["hellinger", "-log"],
    )
    def test_nonzero_limit_at_zero(self, f):
        # f(0+) != 0: the boundary term on the kernel of a rank-deficient A, stacked
        pairs = random_pairs(4, 120, seed=77)
        pairs += [(b, a) for a, b in pairs[:60]]
        want = looped(pairs, f)
        assert stacked(pairs, f).tolist() == want
        assert any(math.isinf(v) for v in want) == (f.f_at_zero == INF)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_groups_by_both_kernel_sizes(self, alpha):
        # one kernel size shared by every pair, the other mixed: A of full rank and B
        # alternating, then the same pairs swapped
        f = make_tsallis_f(alpha)
        pairs = [(random_density(4, 4, s).entries, b) for s, (_, b) in enumerate(random_pairs(4, 8, 9))]
        for stack in (pairs, [(b, a) for a, b in pairs]):
            assert stacked(stack, f).tolist() == looped(stack, f)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_short_stacks(self, n):
        f = make_tsallis_f(0.5)
        pairs = random_pairs(3, n, seed=5)
        assert stacked(pairs, f).tolist() == looped(pairs, f)

    def test_d36_stack_takes_the_two_thread_path(self, monkeypatch):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
        pairs = random_pairs(36, 6, seed=36)
        f = make_tsallis_f(0.5)
        want = looped(pairs, f)
        eigh, on_worker = _lapack.eigh, []

        def recorded(m):
            on_worker.append((m.shape, threading.current_thread() is not threading.main_thread()))
            return eigh(m)

        monkeypatch.setattr(_lapack, "eigh", recorded)
        assert stacked(pairs, f).tolist() == want
        # A's stack on the calling thread, B's on the worker, one solve each
        assert on_worker == [((6, 36, 36), False), ((6, 36, 36), True)]


class TestStackedChecks:
    def test_as_matrix_checks_each_matrix_of_a_stack(self):
        ms = [random_density(3, 2, seed=s).entries + 1e-14j * np.eye(3)[::-1] for s in range(5)]
        got = as_matrix(np.stack(ms), stack=True)
        for m, out in zip(ms, got):
            assert out.tobytes() == as_matrix(m).tobytes()

    def test_one_bad_matrix_fails_the_stack(self):
        ms = np.stack([np.eye(2) / 2, np.array([[0.5, 1.0], [0.0, 0.5]])])
        with pytest.raises(DomainError, match="Hermiticity violated: max .* = 1.000e\\+00"):
            as_matrix(ms, stack=True)

    def test_a_single_matrix_is_not_a_stack(self):
        with pytest.raises(DomainError, match="stack of square matrices"):
            as_matrix(np.eye(2), stack=True)
        with pytest.raises(DomainError, match="a square matrix"):
            as_matrix(np.zeros((1, 2, 2)))

    def test_clamp_applies_the_rule_row_by_row(self):
        rows = np.array([[-1e-12, 1e-11, 0.5, 1.0], [1e-3, 0.2, 0.3, 0.5], [0.0, 0.0, 0.0, 0.0]])
        got = clamp_psd_spectrum(rows.copy())
        for row, out in zip(rows, got):
            assert out.tobytes() == clamp_psd_spectrum(row.copy()).tobytes()

    def test_clamp_reports_the_first_failing_spectrum(self):
        rows = np.array([[0.0, 1.0], [-0.25, 1.0], [-0.5, 1.0]])
        with pytest.raises(DomainError, match="from -2.500e-01 to 1.000e\\+00"):
            clamp_psd_spectrum(rows)

    @pytest.mark.parametrize("row", [[np.nan, 0.5, 1.0], [0.0, 0.5, np.nan]])
    def test_clamp_refuses_a_nan_at_either_end_of_any_row(self, row):
        with pytest.raises(DomainError, match="semi-definiteness"):
            clamp_psd_spectrum(np.array([[0.0, 0.5, 1.0], row]))

    def test_psd_eigh_of_a_stack_is_each_matrix_alone(self):
        ms = np.stack([random_density(5, r, seed=r).entries for r in range(1, 6)])
        w, v = psd_eigh(ms)
        for m, wk, vk in zip(ms, w, v):
            w1, v1 = psd_eigh(m)
            assert wk.tobytes() == w1.tobytes() and vk.tobytes() == v1.tobytes()

    def test_errors_of_a_come_first(self):
        a = np.stack([np.eye(2) / 2, np.diag([1.0, -0.25])])
        b = np.stack([np.eye(2) / 2, np.diag([1.0, -0.5])])
        with pytest.raises(DomainError, match="-2.500e-01"):
            quantum_f_divergences(a, b, make_tsallis_f(0.5))


def indefinite_draw(monkeypatch, pid, k):
    """Make trial ``k``'s ``rho`` draw of ``pid`` at master seed 42 indefinite."""
    bad_seed = propsuite._Trial(REGISTRY[pid], derive_seed(42, pid), k).seed("rho")
    original = propsuite.random_density

    def draw(d, rank, seed):
        if seed == bad_seed:
            return DensityOperator._from_valid(np.diag([1.5, -0.5] + [0.0] * (d - 2)))
        return original(d, rank, seed)

    monkeypatch.setattr(propsuite, "random_density", draw)


class TestErrorAttribution:
    """An indefinite draw fails its own trial only: the group's stacked call raises, and its
    pairs are evaluated as stacks of one."""

    @pytest.mark.parametrize("pid", ["dpi", "nonnegativity"])
    def test_one_nan_margin_for_the_failing_trial(self, monkeypatch, caplog, pid):
        k = 7
        clean = run_suite(PropertyConfig(seed=42), [pid])[0]
        indefinite_draw(monkeypatch, pid, k)
        with caplog.at_level(logging.ERROR, logger="qfdiv.propsuite"):
            report = run_suite(PropertyConfig(seed=42), [pid])[0]
        assert clean.passed
        assert report.trials == clean.trials == REGISTRY[pid].trials
        assert report.violations == 1
        assert math.isnan(report.worst_margin)
        (record,) = caplog.records
        assert record.args == (pid, k, derive_seed(42, pid))
        assert record.exc_info[0] is DomainError
        assert "semi-definiteness" in str(record.exc_info[1])

    # at 8 trials the failing pair is alone in its (f, d) group, at 60 it shares it
    @pytest.mark.parametrize("n", [8, 60])
    def test_every_other_trial_keeps_its_margins(self, monkeypatch, n):
        pid, k = "dpi", 7
        spec, master = REGISTRY[pid], derive_seed(42, pid)
        trials = [propsuite._Trial(spec, master, t) for t in range(n)]
        clean = propsuite._evaluate([spec.check(trial) for trial in trials])
        indefinite_draw(monkeypatch, pid, k)
        got = propsuite._evaluate([spec.check(trial) for trial in trials])
        assert isinstance(got[k], DomainError)
        assert got[:k] + got[k + 1:] == clean[:k] + clean[k + 1:]
