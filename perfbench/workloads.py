"""The benchmark's workloads: seeded inputs, the ops that are timed, and their checks.

Every input comes from the package's own seeded generators
(``qfdiv.channels.random_density`` and friends) with sub-seeds derived from the
workload seed, so one seed always gives the same inputs and every seed gives
the same mix of sizes, ranks and alphas.  An op is a zero-argument callable
that looks up the qfdiv function at call time, so the wrappers that the traced
run installs are seen.  Results are checked after the timed region, against
oracles computed there too.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys

import qfdiv

_U64 = (1 << 64) - 1
SUITE_SEEDS = 2
SUITE_TRIAL_DIVISOR = 10


def sub_seed(seed: int, label: str) -> int:
    """Stable 64-bit seed for one input, from the workload seed and a label."""
    payload = (int(seed) & _U64).to_bytes(8, "little") + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def rel_close(x: float, y: float, tol: float) -> bool:
    """Both infinite with one sign, or finite and within ``tol`` relative."""
    if math.isinf(x) or math.isinf(y):
        return x == y
    if math.isnan(x) or math.isnan(y):
        return False
    return abs(x - y) <= tol * max(abs(x), abs(y))


class Workload:
    """Base: ``ops[i]()`` is op ``i``; ``check(i, result)`` returns None or a reason.

    Constructors take ``(seed, tiny)``: the workload seed and whether to build
    the tiny smoke-test size.
    """

    name = ""
    warmup_index = 0
    reference_repeats = 1  # see run.Reference

    def __init__(self) -> None:
        self.ops: list = []
        self.labels: list[str] = []

    def check(self, i: int, result) -> str | None:
        raise NotImplementedError


class ConvergenceLog:
    """Records ``OptimizationReport.converged`` of every optimizer solve.

    The property suite reads only the ``value`` of its solves, so a solve whose
    starts disagree would pass unseen.  The recording wrapper is bound in every
    ``qfdiv`` namespace that holds ``conditional_entropy_optimize``, for the
    reason given in ``spans.py``; the tracer then wraps this wrapper.
    """

    def __init__(self) -> None:
        import qfdiv.condent

        self.flags: list[bool] = []
        original = qfdiv.condent.conditional_entropy_optimize

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            report = original(*args, **kwargs)
            self.flags.append(report.converged)
            return report

        for name, mod in list(sys.modules.items()):
            if name == "qfdiv" or name.startswith("qfdiv."):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, attr, recorded)


def suite_trials(spec) -> int:
    """Trials per op: a whole cycle of the property's dims and alphas, and at
    least ``1/SUITE_TRIAL_DIVISOR`` of its default trials."""
    return max(len(spec.dims), len(spec.alphas), math.ceil(spec.trials / SUITE_TRIAL_DIVISOR))


class SuiteWorkload(Workload):
    """``run_suite`` on one property at a time, over a few master seeds.

    One op is ``run_suite(PropertyConfig(seed=s_k, trials=n), properties=[id])``
    for each of the 15 properties and each of ``SUITE_SEEDS`` master seeds
    derived from the workload seed, with ``n`` from :func:`suite_trials`.
    Inside a property, trial ``t`` picks ``dims[t % len(dims)]``,
    ``alphas[t % len(alphas)]`` and a rank that grows with ``t``, so every
    size and alpha of every property runs, with ranks above 1.  Each op lasts
    at most about a second, so every op repeats within a run; a full-trial
    property (up to 10 s) would run once and carry all of the machine's drift
    into the result.  An op's result is its report and the ``converged`` flag
    of each optimizer solve it made.
    """

    name = "suite"
    reference_repeats = 200

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__()
        from qfdiv.propsuite import REGISTRY

        self.log = ConvergenceLog()
        self.pids = []
        for k in range(1 if tiny else SUITE_SEEDS):
            for pid, spec in REGISTRY.items():
                trials = min(2, suite_trials(spec)) if tiny else suite_trials(spec)
                config = qfdiv.PropertyConfig(seed=sub_seed(seed, f"suite/{k}"), trials=trials)
                self.ops.append(lambda pid=pid, c=config: self.run(c, pid))
                self.labels.append(f"{pid}/{k}")
                self.pids.append(pid)
        # cheap, and warms every layer the suite uses
        self.warmup_index = self.labels.index("product-identity/0")

    def run(self, config, pid: str):
        flags = self.log.flags = []
        return qfdiv.run_suite(config, properties=[pid]), flags

    def check(self, i: int, result) -> str | None:
        (report,), flags = result
        if report.trials == 0:
            return "no trials"
        if math.isnan(report.worst_margin):
            return "NaN worst_margin"
        if not report.passed:
            return f"{report.violations} violations, worst_margin={report.worst_margin!r}"
        if not all(flags):
            return f"{flags.count(False)} of {len(flags)} optimizer solves did not converge"
        return None


DIVERGENCE_DIMS = (4, 9, 16, 36, 64)
DIVERGENCE_ALPHAS = (0.5, 1.0, 1.5, 2.0)


def divergence_pair(seed: int, d: int, k: int, per_d: int):
    """Pair ``k`` of size ``d``: alpha cycles, B alternates full/deficient rank in blocks of four."""
    alpha = DIVERGENCE_ALPHAS[k % len(DIVERGENCE_ALPHAS)]
    full_b = (k // len(DIVERGENCE_ALPHAS)) % 2 == 0
    rank_a = 1 + (k * (d - 1)) // max(1, per_d - 1)
    rank_b = d if full_b else 1 + k % (d - 1)
    a = qfdiv.random_density(d, rank_a, sub_seed(seed, f"div/a/{d}/{k}")).entries
    b = qfdiv.random_density(d, rank_b, sub_seed(seed, f"div/b/{d}/{k}")).entries
    return a, b, alpha, rank_b


class DivergenceWorkload(Workload):
    """A batch of ``quantum_f_divergence`` calls over five sizes; one op is one call."""

    name = "divergence"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__()
        per_d = 4 if tiny else 200
        funcs = {alpha: qfdiv.make_tsallis_f(alpha) for alpha in DIVERGENCE_ALPHAS}
        self.pairs = []
        for k in range(per_d):
            for d in DIVERGENCE_DIMS:
                a, b, alpha, rank_b = divergence_pair(seed, d, k, per_d)
                f = funcs[alpha]
                self.pairs.append((a, b, alpha))
                self.ops.append(lambda a=a, b=b, f=f: qfdiv.quantum_f_divergence(a, b, f))
                self.labels.append(f"d{d}/alpha{alpha:g}/rank_b{rank_b}")
        self._oracle: dict[int, float] = {}

    def oracle(self, i: int) -> float:
        if i not in self._oracle:
            a, b, alpha = self.pairs[i]
            if alpha == 1.0:
                self._oracle[i] = qfdiv.vn_relative_entropy_closed(a, b)
            else:
                self._oracle[i] = qfdiv.tsallis_divergence_closed(a, b, alpha)
        return self._oracle[i]

    def check(self, i: int, result) -> str | None:
        want = self.oracle(i)
        if rel_close(float(result), want, 1e-8):
            return None
        return f"got {result!r}, closed form {want!r}"


WORKLOADS = {w.name: w for w in (SuiteWorkload, DivergenceWorkload)}
