"""The stacked calls against one call per item, bit for bit, and the staged property rows.

:func:`qfdiv.fdiv._quantum_f_divergences` evaluates two stacks ``(n, d, d)``
in one eigensolve per stack; the stacked draws, channels, channel
applications and closed forms serve many seeds or states of one shape at
once.  The property suite's rows are served that way, so every value a
stacked call gives must be ``==`` the value of its item's own one-item call.
Stacked ``eigh_lo``, stacked QR, the stacked Gram matmul and
``numpy.vecdot`` are what make that so, and all are numpy's to change, so the
``numpy-floor`` CI job runs this module too.  The stacked calls check
nothing, so this module also checks that every pair the divergence rows
build is one that :func:`qfdiv.linalg.as_matrix` would pass unchanged, and
that a failing request is charged to its own trial alone.
"""

import logging
import math
import threading
import traceback
import tracemalloc

import numpy as np
import pytest

import qfdiv.propsuite as propsuite
from qfdiv import _lapack, linalg
from qfdiv.channels import (
    _apply_channels,
    _random_channels,
    _random_densities,
    apply_channel,
    random_bipartite,
    random_channel,
    random_density,
)
from qfdiv.condent import _tsallis_closed, conditional_entropy_tsallis_closed
from qfdiv.errors import DomainError
from qfdiv.fdiv import (
    INF,
    DivergenceFunction,
    _quantum_f_divergences,
    make_tsallis_f,
    quantum_f_divergence,
)
from qfdiv.linalg import DensityOperator, _factor_indices, as_matrix, clamp_psd_spectrum, psd_eigh
from qfdiv.propsuite import REGISTRY, PropertyConfig, derive_seed, run_property, run_suite

from conftest import served

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
    return _quantum_f_divergences(np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]), f)


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
    def test_clamp_applies_the_rule_row_by_row(self):
        rows = np.array([[-1e-12, 1e-11, 0.5, 1.0], [1e-3, 0.2, 0.3, 0.5], [0.0, 0.0, 0.0, 0.0]])
        got = rows.copy()
        sizes = clamp_psd_spectrum(got)
        for row, out, k in zip(rows, got, sizes):
            row = row.copy()
            assert k == clamp_psd_spectrum(row)
            assert out.tobytes() == row.tobytes()

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
        w, v, k = psd_eigh(ms)
        for m, wk, vk, kk in zip(ms, w, v, k):
            w1, v1, k1 = psd_eigh(m)
            assert wk.tobytes() == w1.tobytes() and vk.tobytes() == v1.tobytes()
            assert kk == k1

    def test_errors_of_a_come_first(self):
        a = np.stack([np.eye(2) / 2, np.diag([1.0, -0.25])])
        b = np.stack([np.eye(2) / 2, np.diag([1.0, -0.5])])
        with pytest.raises(DomainError, match="-2.500e-01"):
            _quantum_f_divergences(a, b, make_tsallis_f(0.5))


def indefinite_draw(monkeypatch, pid, k):
    """Make trial ``k``'s ``rho`` draw of ``pid`` at master seed 42 indefinite, whether it is
    drawn alone or in a stack; returns the indefinite matrix."""
    spec = REGISTRY[pid]
    bad_seed = propsuite._Trial(spec, derive_seed(42, pid), k).seed("rho")
    d = spec.dims[k % len(spec.dims)]
    bad = np.diag([1.5, -0.5] + [0.0] * (d - 2)).astype(complex)
    original, stacked = propsuite.random_density, propsuite._random_densities

    def draw(d, rank, seed):
        if seed == bad_seed:
            return DensityOperator._from_valid(bad)
        return original(d, rank, seed)

    def draws(d, rank, seeds):
        out = stacked(d, rank, seeds)
        out[[seed == bad_seed for seed in seeds]] = bad
        return out

    monkeypatch.setattr(propsuite, "random_density", draw)
    monkeypatch.setattr(propsuite, "_random_densities", draws)
    return bad


def outcomes(monkeypatch, pid, config):
    """``pid``'s report under ``config`` and each trial's margins, or the exception it raised,
    as :func:`qfdiv.propsuite.run_property` hands them to its logger."""
    got, logged = [], propsuite._logged

    def spy(property_id, t, seed, out):
        got.append(out)
        return logged(property_id, t, seed, out)

    monkeypatch.setattr(propsuite, "_logged", spy)
    (report,) = run_suite(config, [pid])
    monkeypatch.setattr(propsuite, "_logged", logged)
    return report, got


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
        clean = [served(spec.check(propsuite._Trial(spec, master, t))) for t in range(n)]
        bad = indefinite_draw(monkeypatch, pid, k)
        checked, calls = propsuite.quantum_f_divergence, []

        def spy(a, b, f):
            calls.append(np.array_equal(a, bad))
            return checked(a, b, f)

        monkeypatch.setattr(propsuite, "quantum_f_divergence", spy)
        got = outcomes(monkeypatch, pid, PropertyConfig(seed=42, trials=n))[1]
        assert isinstance(got[k], DomainError)
        assert got[:k] + got[k + 1:] == clean[:k] + clean[k + 1:]
        # the failing pair, alone in its group or in a group whose stacked call raised,
        # is evaluated once, by the checked call
        assert calls.count(True) == 1


def test_a_failed_request_is_raised_in_its_check(monkeypatch, caplog):
    # thrown into the check at the yield that asked for it, the request's error is logged
    # with a traceback through the driver and the check to the call that failed
    indefinite_draw(monkeypatch, "dpi", 7)
    with caplog.at_level(logging.ERROR, logger="qfdiv.propsuite"):
        run_suite(PropertyConfig(seed=42, trials=8), ["dpi"])
    (record,) = caplog.records
    frames = [frame.name for frame in traceback.extract_tb(record.exc_info[2])]
    assert frames[:4] == ["_advance", "_check_dpi", "_serve", "quantum_f_divergence"]


def trial_state(pid, k):
    """Trial ``k``'s random state of ``pid`` at master seed 42, and the seed it is drawn from."""
    trial = propsuite._Trial(REGISTRY[pid], derive_seed(42, pid), k)
    return served(trial.state()), trial.seed("state")


def trial_rho(pid, k):
    trial = propsuite._Trial(REGISTRY[pid], derive_seed(42, pid), k)
    return random_density(trial.dims, trial.rank(trial.dims), trial.seed("rho")), trial.seed("rho")


# a row, the stacked call made to raise, its checked one-item call, and which arguments of the
# one-item call are trial k's: its draw's seed, or its state's entries (for chain-rule, the
# closed form conditioned on B and C)
FAILURES = {
    "dpi-draw": ("dpi", "_random_densities", "random_density", trial_rho,
                 lambda own, seed: lambda d, rank, s: s == seed),
    "dpi-application": ("dpi", "_apply_channels", "apply_channel", trial_rho,
                        lambda own, seed: lambda phi, rho: np.array_equal(rho.entries, own.entries)),
    "chain-rule-draw": ("chain-rule", "_random_densities", "random_density", trial_state,
                        lambda own, seed: lambda d, rank, s: s == seed),
    "chain-rule-closed-form": (
        "chain-rule", "_tsallis_closed", "conditional_entropy_tsallis_closed", trial_state,
        lambda own, seed: lambda state, alpha, cond="B":
            cond == "BC" and np.array_equal(state.entries, own.entries),
    ),
    "thm2-bounds-draw": ("thm2-bounds", "_random_densities", "random_density", trial_state,
                         lambda own, seed: lambda d, rank, s: s == seed),
    "thm2-bounds-closed-form": (
        "thm2-bounds", "_tsallis_closed", "conditional_entropy_tsallis_closed", trial_state,
        lambda own, seed: lambda state, alpha, cond="B": np.array_equal(state.entries, own.entries),
    ),
}


class TestStagedErrorAttribution:
    """Every stacked call raises and one member's one-item call raises too: that trial alone
    records one NaN margin, and every other trial, served one item at a time, keeps the bits
    of its stacked margins."""

    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_one_nan_margin_at_the_failing_trial(self, monkeypatch, caplog, case):
        pid, stacked, one, own_input, picks = FAILURES[case]
        k, config = 7, PropertyConfig(seed=42)
        clean_report, clean = outcomes(monkeypatch, pid, config)
        is_bad = picks(*own_input(pid, k))
        original = getattr(propsuite, one)

        def refused(*args):
            raise RuntimeError("stacked call refused")

        def one_item(*args):
            if is_bad(*args):
                raise DomainError("this member fails")
            return original(*args)

        monkeypatch.setattr(propsuite, stacked, refused)
        monkeypatch.setattr(propsuite, one, one_item)
        with caplog.at_level(logging.ERROR, logger="qfdiv.propsuite"):
            report, got = outcomes(monkeypatch, pid, config)
        assert clean_report.passed and len(clean) == REGISTRY[pid].trials
        assert report.violations == 1 and math.isnan(report.worst_margin)
        assert report.trials == clean_report.trials - len(clean[k]) + 1
        (record,) = caplog.records
        assert record.args == (pid, k, derive_seed(42, pid))
        assert str(record.exc_info[1]) == "this member fails"
        assert isinstance(got[k], DomainError)
        assert got[:k] + got[k + 1:] == clean[:k] + clean[k + 1:]


class TestCallCounts:
    """The staged rows stay staged, and the optimizer rows solve through the name that
    ``perfbench``'s ``ConvergenceLog`` wraps."""

    def test_dpi_draws_one_stack_per_dimension_and_rank(self, monkeypatch):
        spec, master = REGISTRY["dpi"], derive_seed(42, "dpi")
        calls, stacked = [], propsuite._random_densities

        def counted(d, rank, seeds):
            calls.append((d, rank))
            return stacked(d, rank, seeds)

        monkeypatch.setattr(propsuite, "_random_densities", counted)
        assert run_property("dpi", PropertyConfig(seed=master, trials=100)).passed
        trials = [propsuite._Trial(spec, master, t) for t in range(100)]
        keys = {(t.dims, t.rank(t.dims)) for t in trials} | {(t.dims, t.dims) for t in trials}
        assert sorted(calls) == sorted(keys)

    @pytest.mark.parametrize("pid", ["closed-form-vs-optimizer", "mixture-exact", "extension-independence"])
    def test_one_solve_per_trial(self, monkeypatch, pid):
        calls, original = [], propsuite.conditional_entropy_optimize

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(propsuite, "conditional_entropy_optimize", counted)
        assert run_property(pid, PropertyConfig(seed=42, trials=10)).passed
        assert len(calls) == 10


def test_default_dpi_run_holds_a_block_of_trials_at_once():
    # every trial drawn first kept 2.2 MB alive at 1000 trials; blocks of _BLOCK bound it
    tracemalloc.start()
    try:
        assert run_property("dpi", PropertyConfig(seed=42)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6  # about 1.0 MB at _BLOCK = 250


DIVERGENCE_ROWS = ["dpi", "nonnegativity", "homogeneity", "orthogonal-additivity", "extension-independence"]


@pytest.mark.parametrize("pid", DIVERGENCE_ROWS)
@pytest.mark.parametrize("master", [42, 0])
def test_row_pairs_pass_as_matrix_unchanged(pid, master):
    """The stacked call is unchecked: every matrix a divergence row builds, at its default
    trials, must be finite and exactly Hermitian, so that ``as_matrix`` returns it as it is."""
    spec, seed = REGISTRY[pid], derive_seed(master, pid)
    for t in range(spec.trials):
        requests = []
        served(spec.check(propsuite._Trial(spec, seed, t)), requests)
        for request in requests:
            if request.key[0] is not propsuite._divergences:
                continue
            for m in request.args[:2]:
                assert np.isfinite(m).all(), (t, m)
                assert (m == m.conj().T).all(), (t, m)
                assert (as_matrix(m) == m).all(), (t, m)


def same(got, want):
    """Equal bits: the same dtype, shape and bytes."""
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestStackedCalls:
    """Each stacked draw or evaluation against its one-item call, bit for bit, for stacks of 1,
    2 and 50."""

    @pytest.mark.parametrize("d", range(1, 17))
    def test_draws(self, d):
        for rank in sorted({1, (d + 1) // 2, d}):
            for n in (1, 2, 50):
                seeds = [1000 * d + 100 * rank + s for s in range(n)]
                stack = _random_densities(d, rank, seeds)
                for seed, m in zip(seeds, stack):
                    want = random_density(d, rank, seed).entries
                    assert same(DensityOperator._from_valid(m).entries, want), (d, rank, n, seed)

    @pytest.mark.parametrize(
        "d_in,d_out,env", [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2), (4, 2, 3), (3, 9, 4)]
    )
    def test_channels_and_their_applications(self, d_in, d_out, env):
        for n in (1, 2, 50):
            seeds = [97 * n + s for s in range(n)]
            kraus = _random_channels(d_in, d_out, env, seeds)
            rho = np.stack([random_density(d_in, 1 + s % d_in, s).entries for s in seeds])
            applied = _apply_channels(kraus, rho)
            for seed, k, m, out in zip(seeds, kraus, rho, applied):
                phi = random_channel(d_in, d_out, env, seed)
                assert same(k, phi.kraus_ops), (n, seed)
                assert same(out, apply_channel(phi, m)), (n, seed)

    @pytest.mark.parametrize(
        "dims,cond", [((2, 2), "B"), ((3, 3), "B"), ((4, 4), "B"), ((2, 16), "B"),
                      ((2, 2, 2), "B"), ((2, 2, 2), "BC"), ((2, 2, 2), "AC")],
    )
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 2.0])
    def test_closed_forms(self, dims, cond, alpha):
        d = math.prod(dims)
        states = [random_bipartite(dims, 1 + (s * 5) % d, 31 * d + s) for s in range(24)]
        for n in (1, 2, 24):
            values, sigmas = _tsallis_closed(
                np.stack([s.entries for s in states[:n]]), dims, alpha, _factor_indices(cond, len(dims))
            )
            for state, h, sigma in zip(states, values, sigmas):
                want_h, want_sigma = conditional_entropy_tsallis_closed(state, alpha, cond)
                assert h == want_h, (n, state)
                assert same(sigma, want_sigma), (n, state)
