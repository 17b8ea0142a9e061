"""qfdiv benchmark runner.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 50 --trace 0

Runs one workload as a closed loop with a single caller: whole passes over a
batch of inputs made from ``--seed`` repeat until another pass would overrun
``--seconds``.  Every result of every pass is checked after the timed region.
Time metrics are built from each op's best latency over the passes, in
units of a reference block timed in the same run (see ``Reference`` and
``perfbench/README.md`` for why).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
traced run alternates untraced and traced passes, so it can report the
tracing overhead; its end-to-end numbers are not used.  Full results, the
environment, spans and the self-time table go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 120
REFERENCE_REPS = 5  # reference blocks timed after each pass
# Best time of one repeat of the reference block on the machine where the
# benchmark was defined (2-vCPU Xeon VM, OpenBLAS 0.3.31); see end_to_end.
REFERENCE_NOMINAL_S = 300e-6


def _import_package():
    """Import qfdiv from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qfdiv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src}")
    sys.path.insert(0, str(src))
    import qfdiv

    if Path(qfdiv.__file__).resolve().parent != (src / "qfdiv").resolve():
        sys.exit(f"perfbench: imported qfdiv from {qfdiv.__file__}, not {src}")
    return qfdiv


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Failure:
    """Result of an op that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Reference:
    """A fixed block of work outside qfdiv, timed after every pass.

    Its best time in a run is the unit, ``ref``, of the time metrics.  The
    machine's speed drifts by up to 1.5-2x for seconds to over half a minute,
    and the slow stretches move every op of a run together; a ratio to work
    timed in the same run cancels them.  The block is made of what qfdiv's
    ops are made of: numpy calls on small complex Hermitian matrices and
    LAPACK eigensolves up to d=36, ``repeats`` times over.  A workload sets
    ``repeats`` so that the block lasts about as long as its longer ops:
    a block much shorter than an op slips between the pauses that slow the
    op down, and then does not cancel them.
    """

    def __init__(self, repeats: int) -> None:
        import numpy as np

        self._np = np
        self.repeats = repeats
        gen = np.random.default_rng(20130924)
        self.mats = []
        for d in (4, 9, 16, 36):
            g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            self.mats.append(g @ g.conj().T)

    def block(self) -> float:
        np = self._np
        total = 0.0
        for _ in range(self.repeats):
            for m in self.mats:
                w, v = np.linalg.eigh(m)
                total += float(np.abs(v.conj().T @ m @ v).sum()) + float(w.sum())
        return total

    def best_s(self) -> float:
        best = float("inf")
        for _ in range(REFERENCE_REPS):
            t0 = time.perf_counter()
            self.block()
            best = min(best, time.perf_counter() - t0)
        return best


def run_pass(wl, tracer=None) -> dict:
    latencies, results = [], []
    p0 = time.perf_counter()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op()
            else:
                tracer.op_id += 1
                with tracer.span(f"op.{wl.name}"):
                    result = op()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = Failure(exc)
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    return {"traced": tracer is not None, "wall": time.perf_counter() - p0,
            "latencies": latencies, "results": results}


def run_passes(wl, seconds: float, tracer=None, after_pass=None) -> list[dict]:
    """Closed loop over whole passes until another pass would overrun ``seconds``.

    The reference block is timed after every pass, and then ``after_pass`` is
    called with the seconds elapsed so far.  With a tracer, passes alternate
    untraced and traced (untraced first, at least one of each), so both kinds
    see the same machine conditions.
    """
    reference = Reference(wl.reference_repeats)
    reference.block()
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(wl, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        passes[-1]["reference_s"] = reference.best_s()
        if after_pass is not None:
            after_pass(time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        done = len(passes) >= (2 if tracer is not None else 1)
        if done and elapsed + statistics.fmean(p["wall"] for p in passes) > seconds:
            return passes


def best_latencies(passes: list[dict]) -> list[float]:
    """Each op's minimum latency over the passes.

    Interference from other tenants of the machine only ever adds time, and it
    comes and goes within seconds, so the minimum over passes spread across
    the run is a far steadier estimate of an op's cost than any one pass.
    """
    return [min(lat) for lat in zip(*(p["latencies"] for p in passes))]


def reference_s(passes: list[dict]) -> float:
    """The run's unit of time: the reference block's best time."""
    return min(p["reference_s"] for p in passes)


def check_results(wl, passes: list[dict]) -> list[dict]:
    """Every op result checked; returns one record per failed op."""
    failures = []
    for n, p in enumerate(passes):
        for i, result in enumerate(p["results"]):
            if isinstance(result, Failure):
                reason = result.reason
            else:
                try:
                    reason = wl.check(i, result)
                except Exception as exc:  # a check that cannot run fails the op
                    reason = f"check raised {Failure(exc).reason}"
            if reason is not None:
                failures.append({"pass": n, "input": wl.labels[i], "reason": reason})
    return failures


def setup_workload(workloads, name: str, seed: int, tiny: bool):
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, tiny)
    wl.ops[wl.warmup_index]()
    return wl


class SetupSampler:
    """Fresh-interpreter set-up times, taken at even intervals through the run.

    Each sample is a child interpreter timed from spawn to the moment its first
    op could be timed: ``import qfdiv``, input generation and one warm-up op.
    The samples are spread over the run rather than taken back to back, so
    that one slow stretch of the machine (see ``Reference``) cannot cover all
    of them.  ``end_to_end`` turns them into ``setup_s``.
    """

    def __init__(self, args, seconds: float) -> None:
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-only"]
        if args.tiny:
            self.argv.append("--tiny")
        self.period = seconds / SETUP_REPEATS
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.monotonic()
        proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up child failed:\n{proc.stderr}")
        # the child prints its CLOCK_MONOTONIC reading when the first op could start
        self.times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)

    def due(self, elapsed: float) -> None:
        """Take every sample whose slot has begun by ``elapsed`` seconds into the run."""
        while len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * self.period:
            self.sample()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return self.times


def end_to_end(wl, passes: list[dict], failures: list, setup_s: list[float]) -> dict:
    """The end-to-end metrics of an untraced run.

    ``setup_s`` is the median set-up sample, rescaled from the run's machine
    speed to the speed at which one reference repeat takes
    ``REFERENCE_NOMINAL_S``.  Process start-up and import slow down with the
    rest of the machine, and in raw seconds the ten-seed spread reached 0.31.
    The median, not the minimum, because the smallest sample rests on one
    lucky moment and spread more.
    """
    best = best_latencies(passes)
    ref = reference_s(passes)
    setup = statistics.median(setup_s) * REFERENCE_NOMINAL_S * wl.reference_repeats / ref
    wall = sum(best) / ref
    attempted = sum(len(p["results"]) for p in passes)
    percentiles = statistics.quantiles(best, n=100, method="inclusive")
    return {
        "setup_s": (setup, "s"),
        "wall_ref": (wall, "ref"),
        "ops_per_kref": (1e3 * (attempted - len(failures)) / len(passes) / wall, "1/kref"),
        "op_p50_ref": (percentiles[49] / ref, "ref"),
        "op_p99_ref": (percentiles[98] / ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_times(passes: list[dict]) -> dict:
    """The same quantities in seconds, for the result file."""
    best = best_latencies(passes)
    percentiles = statistics.quantiles(best, n=100, method="inclusive")
    return {"reference_us": reference_s(passes) * 1e6, "wall_s": sum(best),
            "op_p50_ms": percentiles[49] * 1e3, "op_p99_ms": percentiles[98] * 1e3}


def per_layer(wl, passes: list[dict], tracer, probes: dict) -> dict:
    """Probe metrics, plus span counts and self times per traced pass of the workload.

    A layer, or a property, that the workload never calls reads 0 there: the
    metric does not apply to that workload (see ``perfbench/README.md``).
    """
    from qfdiv.propsuite import REGISTRY
    from spans import LAYERS

    m = dict(probes)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    calls, _, _ = tracer.self_times()
    m["linalg.density_operator.calls"] = (
        calls.get("linalg.DensityOperator", 0) / len(traced), "count")
    m["fdiv.qfd.calls"] = (calls.get("fdiv.quantum_f_divergence", 0) / len(traced), "count")
    m["condent.optimize.calls"] = (
        calls.get("condent.conditional_entropy_optimize", 0) / len(traced), "count")
    layer_ns = tracer.layer_self_ns()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_ns[layer] / len(traced) / 1e9, "s")
    property_ms = {pid: 0.0 for pid in REGISTRY}
    if wl.name == "suite":
        for pid, lat in zip(wl.pids, best_latencies(untraced)):
            property_ms[pid] += lat * 1e3
    for pid, ms in property_ms.items():
        m[f"propsuite.{pid}.ms"] = (ms, "ms")
    m["trace.overhead_frac"] = (
        sum(best_latencies(traced)) / sum(best_latencies(untraced)) - 1.0, "frac")
    return m


def property_elapsed_ms(wl, passes: list[dict]) -> dict[str, float]:
    """Each property's ``elapsed_ms`` summed over its ops, median over passes (suite only)."""
    if wl.name != "suite":
        return {}
    per: dict[str, list[int]] = {}
    for p in passes:
        sums: dict[str, int] = {}
        for pid, result in zip(wl.pids, p["results"]):
            if not isinstance(result, Failure):
                sums[pid] = sums.get(pid, 0) + result[0][0].elapsed_ms
        for pid, total in sums.items():
            per.setdefault(pid, []).append(total)
    return {pid: statistics.median(v) for pid, v in per.items()}


def self_time_table(tracer, passes: int) -> list[dict]:
    calls, total, own = tracer.self_times()
    rows = [
        {"name": name, "layer": tracer.layers[tracer.names.index(name)],
         "calls_per_pass": calls[name] / passes, "total_s_per_pass": total[name] / passes / 1e9,
         "self_s_per_pass": own[name] / passes / 1e9}
        for name in calls
    ]
    return sorted(rows, key=lambda r: -r["self_s_per_pass"])


def write_record(path: Path, **fields) -> None:
    path.write_text(json.dumps(fields, indent=1) + "\n")


def emit(metrics: dict, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "divergence"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_only and (args.seconds is None or args.trace is None):
        parser.error("--seconds and --trace are required")

    _import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.setup_only:
        setup_workload(workloads, args.workload, args.seed, args.tiny)
        print(time.monotonic(), flush=True)
        return 0

    tag = f"{args.workload}-seed{args.seed}"
    common = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "tiny": args.tiny, "environment": environment()}
    if args.trace == 0:
        sampler = SetupSampler(args, args.seconds)
        sampler.sample()
        wl = setup_workload(workloads, args.workload, args.seed, args.tiny)
        passes = run_passes(wl, args.seconds, after_pass=sampler.due)
        setup_s = sampler.finish()
        failures = check_results(wl, passes)
        metrics = end_to_end(wl, passes, failures, setup_s)
        attempted = sum(len(p["results"]) for p in passes)
        write_record(
            OUT / f"{tag}-untraced.json", **common,
            setup_samples_s=setup_s, pass_wall_s=[p["wall"] for p in passes],
            reference_us=[p["reference_s"] * 1e6 for p in passes], raw=raw_times(passes),
            best_latency_ms=dict(zip(wl.labels, (x * 1e3 for x in best_latencies(passes)))),
            attempted=attempted, failed=len(failures), failed_frac=len(failures) / attempted,
            failures=failures[:50], property_elapsed_ms=property_elapsed_ms(wl, passes),
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        )
        emit(metrics, attempted, len(failures))
        return 0

    from probes import all_probes
    from spans import Tracer

    wl = setup_workload(workloads, args.workload, args.seed, args.tiny)
    tracer = Tracer()
    passes = run_passes(wl, args.seconds, tracer)
    failures = check_results(wl, passes)
    probes, probe_checked, probe_failures = all_probes(args.seed, args.tiny, ROOT, OUT)
    failures += [{"pass": None, "input": label, "reason": r} for label, r in probe_failures]
    metrics = per_layer(wl, passes, tracer, probes)
    attempted = sum(len(p["results"]) for p in passes) + probe_checked
    n_traced = sum(p["traced"] for p in passes)
    tracer.write(OUT / f"{tag}-spans.jsonl")
    write_record(
        OUT / f"{tag}-traced.json", **common,
        pass_wall_s=[p["wall"] for p in passes], pass_traced=[p["traced"] for p in passes],
        attempted=attempted, failed=len(failures), failures=failures[:50],
        layer_self_s_per_pass={k: v / n_traced / 1e9 for k, v in tracer.layer_self_ns().items()},
        self_time_table=self_time_table(tracer, n_traced),
        property_elapsed_ms=property_elapsed_ms(wl, passes),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    emit(metrics, attempted, len(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
