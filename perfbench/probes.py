"""Per-layer probes: each layer's public functions timed from outside at fixed sizes.

The probes run untraced, after a traced run's workload passes, on inputs
derived from the workload seed.  They are the same for every workload, so the
size-keyed per-layer metrics (``*.d{n}``, ``*.dB{n}``) compare across
workloads and commits.  Each ``*_us`` value is the best per-call time over
repeated calls, for the reason given in ``run.best_latencies``;
``numpy.linalg.eigh`` is timed too, as the floor that one
``quantum_f_divergence`` call (two eigensolves) cannot beat.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import qfdiv
import qfdiv.channels
import qfdiv.cli
from workloads import divergence_pair, sub_seed

DIMS = (4, 9, 16, 36, 64)
KERNEL_DIMS = (4, 16, 64)
# (d_A, d_B) giving each probe size d = d_A * d_B
CONDENT_SPLITS = {4: (2, 2), 9: (3, 3), 16: (4, 4), 36: (6, 6), 64: (8, 8)}
OPTIMIZE_DB = (2, 3, 4, 6, 8)
PROBE_ALPHAS = (0.5, 1.0, 1.5, 2.0)


def best_us(calls, budget_s: float, min_reps: int = 5) -> float:
    """Best per-call microseconds over ``calls``, cycled through for about ``budget_s``.

    With several inputs, the best time of each input is taken and their median
    reported.
    """
    best = [math.inf] * len(calls)
    deadline = time.perf_counter() + budget_s
    reps = 0
    while reps < min_reps or time.perf_counter() < deadline:
        for k, fn in enumerate(calls):
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - t0)
        reps += 1
    return statistics.median(best) * 1e6


def _pairs(seed: int, d: int, full_b: bool):
    """Four probe pairs of size ``d``, one per alpha, B full rank or deficient."""
    per_d = 8
    ks = range(0, 4) if full_b else range(4, 8)
    return [divergence_pair(seed, d, k, per_d) for k in ks]


def linalg_fdiv_probes(seed: int, budget_s: float) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    funcs = {alpha: qfdiv.make_tsallis_f(alpha) for alpha in PROBE_ALPHAS}
    for d in DIMS:
        pairs = _pairs(seed, d, full_b=True)
        mats = [a for a, _, _, _ in pairs] + [b for _, b, _, _ in pairs]
        m[f"linalg.density_operator_us.d{d}"] = (
            best_us([lambda x=x: qfdiv.DensityOperator(x) for x in mats], budget_s), "us")
        eigh = best_us([lambda x=x: np.linalg.eigh(x) for x in mats], budget_s)
        m[f"linalg.eigh_floor_us.d{d}"] = (eigh, "us")
        qfd = best_us([lambda a=a, b=b, f=funcs[al]: qfdiv.quantum_f_divergence(a, b, f)
                         for a, b, al, _ in pairs], budget_s)
        m[f"fdiv.qfd_us.d{d}"] = (qfd, "us")
        m[f"fdiv.qfd_overhead_ratio.d{d}"] = (qfd / (2.0 * eigh), "ratio")
        closed = [
            (lambda a=a, b=b: qfdiv.vn_relative_entropy_closed(a, b)) if al == 1.0
            else (lambda a=a, b=b, al=al: qfdiv.tsallis_divergence_closed(a, b, al))
            for a, b, al, _ in pairs
        ]
        m[f"fdiv.closed_us.d{d}"] = (best_us(closed, budget_s), "us")
        if d in KERNEL_DIMS:
            low = _pairs(seed, d, full_b=False)
            m[f"fdiv.qfd_kernel_us.d{d}"] = (
                best_us([lambda a=a, b=b, f=funcs[al]: qfdiv.quantum_f_divergence(a, b, f)
                           for a, b, al, _ in low], budget_s), "us")
        d_a, d_b = CONDENT_SPLITS[d]
        states = [qfdiv.channels.random_bipartite((d_a, d_b), d, sub_seed(seed, f"probe/ce/{d}/{k}"))
                  for k in range(2)]
        m[f"condent.closed_us.d{d}"] = (
            best_us([lambda s=s, al=al: qfdiv.conditional_entropy_tsallis_closed(s, al)
                       for s in states for al in (0.5, 2.0)], budget_s), "us")
    for d in (16, 64):
        m[f"channels.random_density_us.d{d}"] = (
            best_us([lambda k=k: qfdiv.random_density(d, d, sub_seed(seed, f"probe/rd/{k}"))
                       for k in range(4)], budget_s), "us")
    phi = qfdiv.random_channel(16, 16, 2, sub_seed(seed, "probe/phi"))
    rho = qfdiv.random_density(16, 16, sub_seed(seed, "probe/rho"))
    m["channels.apply_channel_us.d16"] = (
        best_us([lambda: qfdiv.apply_channel(phi, rho)], budget_s), "us")
    return m


def optimize_probes(seed: int, tiny: bool):
    """One default-options solve per conditioning dimension, on a full-rank (2, d_B) state.

    Each solve is checked: it must report ``converged`` and agree with
    ``conditional_entropy_tsallis_closed`` within 1e-6.  Returns the metrics and
    a list of ``(label, reason)`` for the solves that fail.
    """
    m: dict[str, tuple[float, str]] = {}
    failures = []
    opts = qfdiv.OptimizerOptions(starts=1) if tiny else None
    alpha = 2.0
    f = qfdiv.make_tsallis_f(alpha)
    total_s = 0.0
    iters = []
    for d_b in OPTIMIZE_DB:
        state = qfdiv.channels.random_bipartite((2, d_b), 2 * d_b, sub_seed(seed, f"probe/opt/{d_b}"))
        t0 = time.perf_counter()
        report = qfdiv.conditional_entropy_optimize(state, f, opts)
        elapsed = time.perf_counter() - t0
        m[f"condent.optimize_s.dB{d_b}"] = (elapsed, "s")
        total_s += elapsed
        iters.append(sum(report.iterations_per_start))
        closed, _ = qfdiv.conditional_entropy_tsallis_closed(state, alpha)
        if not report.converged:
            failures.append((f"probe/optimize/dB{d_b}", "optimizer did not converge"))
        elif not abs(report.value - closed) <= 1e-6:
            failures.append((f"probe/optimize/dB{d_b}",
                             f"optimizer {report.value!r}, closed form {closed!r}"))
    m["condent.iters_per_solve"] = (statistics.fmean(iters), "count")
    m["condent.ms_per_iter"] = (1000.0 * total_s / max(1, sum(iters)), "ms")
    return m, failures


def _child_ms(argv: list[str], root: Path) -> float:
    """Wall milliseconds of one child interpreter that uses the package from source.

    The child inherits this process's environment, so BLAS stays pinned.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    elapsed = (time.perf_counter() - t0) * 1e3
    if proc.returncode != 0:
        raise RuntimeError(f"probe child {argv} exited {proc.returncode}: {proc.stderr}")
    return elapsed


def cli_probes(seed: int, root: Path, workdir: Path, reps: int) -> dict[str, tuple[float, str]]:
    """Fresh-interpreter import times (best of ``reps``) and one call of each CLI command."""
    m: dict[str, tuple[float, str]] = {}
    for key, stmt in (("import_qfdiv", "import qfdiv"), ("import_floor", "import numpy")):
        m[f"cli.{key}_ms"] = (
            min(_child_ms([sys.executable, "-c", stmt], root) for _ in range(reps)), "ms")
    with tempfile.TemporaryDirectory(prefix="cli-", dir=workdir) as tmp:
        files = {}
        for key, d, rank, dims in (("a4", 4, 2, None), ("b4", 4, 4, None),
                                   ("s23", 6, 6, (2, 3)), ("s22", 4, 4, (2, 2))):
            files[key] = str(Path(tmp) / f"{key}.json")
            rho = qfdiv.random_density(d, rank, sub_seed(seed, f"probe/cli/{key}"))
            qfdiv.cli.write_matrix_file(files[key], rho.entries, dims=dims)
        calls = {
            "divergence": ["divergence", "--a", files["a4"], "--b", files["b4"], "--family", "kl"],
            "condent_closed": ["condent", "--state", files["s23"], "--family", "tsallis",
                               "--alpha", "2", "--method", "closed"],
            "condent_optimize": ["condent", "--state", files["s22"], "--family", "tsallis",
                                 "--alpha", "0.5", "--method", "optimize"],
            "bounds": ["bounds", "--state", files["s23"], "--alpha", "1.5"],
        }
        for metric, args in calls.items():
            m[f"cli.{metric}_ms"] = (_child_ms([sys.executable, "-m", "qfdiv", *args], root), "ms")
    return m


def all_probes(seed: int, tiny: bool, root: Path, workdir: Path):
    """Every probe metric, the number of probe results checked, and the failed ones."""
    m = linalg_fdiv_probes(seed, budget_s=0.005 if tiny else 0.05)
    optimize, failures = optimize_probes(seed, tiny)
    m.update(optimize)
    m.update(cli_probes(seed, root, workdir, reps=1 if tiny else 3))
    if any(not math.isfinite(v) for v, _ in m.values()):
        raise RuntimeError("a probe produced a non-finite value")
    return m, len(OPTIMIZE_DB), failures
