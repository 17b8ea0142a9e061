"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances and ensemble sizes are pinned here; the randomized machinery lives
in qfdiv.propsuite and is reused with explicit trial counts and seeds.  Each
property's alphas and tolerance come from its registry row, so the tests
assert the row's values: a looser row fails its criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from qfdiv.channels import embed_ancilla, random_density
from qfdiv.condent import (
    BipartiteState,
    conditional_entropy_optimize,
    conditional_entropy_tsallis_closed,
    thm2_bounds,
)
from qfdiv.fdiv import (
    csiszar_divergence,
    make_tsallis_f,
    quantum_f_divergence,
    quantum_f_divergence_eps_sweep,
    tsallis_divergence_closed,
)
from qfdiv.linalg import DensityOperator, partial_trace
from qfdiv.propsuite import REGISTRY, PropertyConfig, run_property

from conftest import bell_matrix, support_projector

LN2 = math.log(2.0)


def report(number, label, ok, elapsed, budget=None):
    within = budget is None or elapsed < budget
    status = "PASS" if ok and within else "FAIL"
    line = f"[acceptance] criterion {number} ({label}): {status} in {elapsed:.2f}s"
    if budget is not None:
        line += f" (budget {budget:.0f}s)"
    print(line)
    assert ok, f"criterion {number} ({label}) violated"
    assert within, f"criterion {number} ({label}) exceeded its runtime budget"


def test_criterion_1_golden_values():
    bell = BipartiteState(bell_matrix(), (2, 2))
    checks = []

    start = time.perf_counter()
    closed, _ = conditional_entropy_tsallis_closed(bell, 2.0)
    optimized = conditional_entropy_optimize(bell, make_tsallis_f(2.0)).value
    checks.append(abs(closed - -1.0) <= 1e-9)
    checks.append(abs(optimized - -1.0) <= 1e-9)
    elapsed_h2 = time.perf_counter() - start
    checks.append(elapsed_h2 < 1.0)

    start = time.perf_counter()
    h1_closed = conditional_entropy_tsallis_closed(bell, 1.0)[0]
    h1_opt = conditional_entropy_optimize(bell, make_tsallis_f(1.0)).value
    checks.append(abs(h1_closed - -LN2) <= 1e-8)
    checks.append(abs(h1_opt - -LN2) <= 1e-8)
    elapsed_h1 = time.perf_counter() - start
    checks.append(elapsed_h1 < 1.0)

    start = time.perf_counter()
    sigma_b = random_density(3, 3, seed=404)
    product = BipartiteState(np.kron(np.eye(2) / 2, sigma_b.entries), (2, 3))
    prod_closed, _ = conditional_entropy_tsallis_closed(product, 2.0)
    prod_opt = conditional_entropy_optimize(product, make_tsallis_f(2.0)).value
    checks.append(abs(prod_closed - 0.5) <= 1e-8)
    checks.append(abs(prod_opt - 0.5) <= 1e-8)
    elapsed_prod = time.perf_counter() - start
    checks.append(elapsed_prod < 1.0)

    start = time.perf_counter()
    kl = csiszar_divergence([0.5, 0.5], [0.25, 0.75], make_tsallis_f(1.0))
    checks.append(abs(kl - 0.143841) <= 1e-6)
    elapsed_kl = time.perf_counter() - start
    checks.append(elapsed_kl < 1.0)

    report(1, "golden values", all(checks), elapsed_h2 + elapsed_h1 + elapsed_prod + elapsed_kl)


def test_criterion_2_data_processing():
    start = time.perf_counter()
    rep = run_property("dpi", PropertyConfig(trials=1000, seed=42))
    elapsed = time.perf_counter() - start
    assert REGISTRY["dpi"].alphas == (0.3, 0.5, 1.0, 1.5, 2.0)
    assert rep.tolerance == 1e-8
    report(2, "divergence monotonicity", rep.violations == 0, elapsed, budget=60.0)


def test_criterion_3_support_and_extension():
    start = time.perf_counter()
    worst_residual = 0.0
    worst_delta = 0.0
    alphas = (0.5, 1.0, 2.0)
    for t in range(50):
        state = BipartiteState(random_density(4, 1 + t % 4, seed=7100 + t), (2, 2))
        f = make_tsallis_f(alphas[t % 3])
        base = conditional_entropy_optimize(state, f)
        runs = [(state, base)]
        for k in (1, 2, 4):
            padded_state = embed_ancilla(state, k)
            padded = conditional_entropy_optimize(padded_state, f)
            worst_delta = max(worst_delta, abs(padded.value - base.value))
            runs.append((padded_state, padded))
        for st, rep in runs:
            p = support_projector(partial_trace(st, "B"))
            sigma = DensityOperator(rep.sigma_star).entries
            worst_residual = max(worst_residual, float(np.abs(p @ sigma @ p - sigma).max()))
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1e-8 and worst_delta <= 1e-7
    print(f"[acceptance]   support residual {worst_residual:.2e}, padding drift {worst_delta:.2e}")
    report(3, "argmin support and extension independence", ok, elapsed, budget=60.0)


def test_criterion_4_entropy_bounds():
    start = time.perf_counter()
    rep = run_property("thm2-bounds", PropertyConfig(trials=200, seed=42))
    assert rep.tolerance == 1e-7
    bell = BipartiteState(bell_matrix(), (2, 2))
    lower, _ = thm2_bounds(bell, make_tsallis_f(1.0))
    saturated = abs(conditional_entropy_tsallis_closed(bell, 1.0)[0] - lower) <= 1e-8
    elapsed = time.perf_counter() - start
    report(4, "two-sided trace bounds", rep.violations == 0 and saturated, elapsed)


def test_criterion_5_conditioning_data_processing():
    start = time.perf_counter()
    channel_rep = run_property("thm3-data-processing", PropertyConfig(trials=100, seed=42))
    tracing_rep = run_property("conditioning-reduces", PropertyConfig(trials=100, seed=42))
    elapsed = time.perf_counter() - start
    assert channel_rep.tolerance == 1e-7
    assert tracing_rep.tolerance == 1e-7
    ok = channel_rep.violations == 0 and tracing_rep.violations == 0
    report(5, "channels and tracing on the conditioning side", ok, elapsed)


def test_criterion_6_chain_rule():
    start = time.perf_counter()
    rep = run_property("chain-rule", PropertyConfig(trials=300, seed=42))
    elapsed = time.perf_counter() - start
    assert REGISTRY["chain-rule"].alphas == (0.5, 1.0, 2.0)
    assert rep.tolerance == 1e-7
    report(6, "chain rule on three-qubit states", rep.violations == 0, elapsed)


def test_criterion_7_register_states():
    start = time.perf_counter()
    exact = run_property("mixture-exact", PropertyConfig(seed=42))
    lower = run_property("mixture-lower", PropertyConfig(seed=42))
    elapsed = time.perf_counter() - start
    assert exact.tolerance == 1e-6
    assert lower.tolerance == 1e-7
    report(7, "register-state mixture formulas", exact.violations == 0 and lower.violations == 0, elapsed)


def test_criterion_8_cross_validation():
    start = time.perf_counter()
    ok = True

    # epsilon sweep against the spectral engine, well-conditioned full-support pairs
    worst_sweep = 0.0
    for t in range(50):
        d = 2 + t % 3
        a = random_density(d, 1 + t % d, seed=8100 + t).entries
        b = random_density(d, d, seed=8200 + t).entries
        b = 0.9 * b + 0.1 * np.eye(d) / d
        alpha = (0.3, 0.5, 1.0, 1.5, 2.0)[t % 5]
        f = make_tsallis_f(alpha)
        _, limit = quantum_f_divergence_eps_sweep(a, b, f)
        worst_sweep = max(worst_sweep, abs(limit - quantum_f_divergence(a, b, f)))
    ok &= worst_sweep <= 1e-4

    # closed trace form against the spectral double sum, including rank-deficient pairs
    worst_closed = 0.0
    for t in range(200):
        d = 2 + t % 3
        a = random_density(d, 1 + t % d, seed=8300 + t).entries
        b = random_density(d, 1 + (t + 1) % d, seed=8400 + t).entries
        alpha = (0.3, 0.5, 1.5, 2.0)[t % 4]
        closed = tsallis_divergence_closed(a, b, alpha)
        spectral = quantum_f_divergence(a, b, make_tsallis_f(alpha))
        if math.isinf(closed) or math.isinf(spectral):
            ok &= closed == spectral
        else:
            worst_closed = max(worst_closed, abs(closed - spectral))
    ok &= worst_closed <= 1e-9

    continuity = run_property("alpha-continuity", PropertyConfig(trials=50, seed=42))
    ok &= continuity.violations == 0

    elapsed = time.perf_counter() - start
    print(
        f"[acceptance]   sweep err {worst_sweep:.2e}, closed-vs-spectral err {worst_closed:.2e}"
    )
    report(8, "cross-validation of evaluation routes", bool(ok), elapsed)


def test_criterion_9_full_suite_cli(tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qfdiv", "suite", "--seed", "42", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    reports = json.loads(out.read_text()) if out.exists() else []
    ok = proc.returncode == 0 and len(reports) == 15
    ok = ok and all(r["violations"] == 0 for r in reports)
    report(9, "full suite via the CLI", ok, elapsed, budget=300.0)
