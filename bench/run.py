"""Seeded benchmark of the vrsp package: end-to-end figures, or per-layer ones when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One process runs one workload as a closed loop with a single client: the next
operation starts when the previous one has finished, and at most one child
process runs at a time.  After a discarded warm-up operation the loop runs
for S seconds and at least MIN_OPS operations, collecting garbage between
operations, outside the timed span.  Every output is checked; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are end to end, and every time in them is
scaled to a reference machine speed by a speed probe (see speed.py) run
between operations.  With ``--trace 1``
untraced and traced operations alternate, and the metrics are per layer
(see spans.py), per traced operation.  ``--smoke`` runs one small operation
of each workload, untraced and traced, with every check on.  See README.md.
"""

from time import perf_counter

_PROCESS_START = perf_counter()  # setup_s counts from here, before vrsp is imported

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from speed import REFERENCE_PROBE_S, speed_probe_s

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "bench" / "out"
MIN_OPS = 40  # enough for a 75th percentile with ten samples above it
MAX_LOOP_S = 120.0  # stop adding operations past this, whatever MIN_OPS says
SETUP_REPEATS = 9
STARTUP_PROBES = 5


def _import_program() -> None:
    """Put the checkout's src/ first on the path and import vrsp from there."""
    src = ROOT / "src"
    if not (src / "vrsp" / "__init__.py").is_file():
        sys.exit(f"error: no vrsp package under {src}; run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import vrsp  # noqa: F401


def _loop(workload, seconds: float, min_ops: int, errors: list[str], tracer=None):
    """Timed operations for ``seconds`` and at least ``min_ops``.

    Returns the untraced latencies, the traced ones, the failure count and
    the speed scale of each untraced operation: the reference probe time
    over the mean of the probes run just before and just after it.  With a
    tracer, untraced and traced operations alternate, so that a drift in
    machine speed affects both alike.
    """
    untraced: list[float] = []
    traced: list[float] = []
    scales: list[float] = []
    failed = 0
    probe = speed_probe_s()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        done = len(untraced) + len(traced) + failed
        if elapsed >= seconds and (done >= min_ops or elapsed >= MAX_LOOP_S):
            return untraced, traced, failed, scales
        tracing = tracer is not None and done % 2 == 1
        gc.collect()
        if tracing:
            tracer.install()
            workload.tracer = tracer
        try:
            t0 = perf_counter()
            out = workload.operation()
            latency = perf_counter() - t0
        except Exception as e:  # a failed operation is counted, not fatal
            failed += 1
            errors.append(f"operation failed: {type(e).__name__}: {e}")
            continue
        finally:
            if tracing:
                tracer.uninstall()
                workload.tracer = None
        workload.check(out)
        del out
        gc.collect()
        before, probe = probe, speed_probe_s()
        if tracing:
            traced.append(latency)
        else:
            untraced.append(latency)
            scales.append(REFERENCE_PROBE_S / ((before + probe) / 2))


def _peak_rss_mb(workload) -> float:
    # ru_maxrss is in KiB on Linux.
    if workload.name == "decompose-grid":
        return workload.child_peak_kb / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup_s(name: str, seed: int, smoke: bool) -> float:
    """Median scaled set-up time of fresh interpreters: import vrsp, then build, validate and write the inputs.

    Each process is a fresh start, so the import counts every time; the
    median of several keeps one slow start from moving the figure.  A first,
    discarded process writes the bytecode caches the others read.  Each time
    is scaled by the speed probes run just before and just after it.
    """
    from workloads import program_env

    cmd = [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)]
    cmd += ["--smoke"] if smoke else []
    env = program_env(ROOT)
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True)
    times = []
    probe = speed_probe_s()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True, text=True).stdout
        before, probe = probe, speed_probe_s()
        times.append(float(out) * REFERENCE_PROBE_S / ((before + probe) / 2))
    return statistics.median(times)


def _cli_startup_s(env: dict) -> float:
    """Median wall time of a child interpreter that only imports vrsp.cli."""
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import vrsp.cli"], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_p75_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith(".calls") or metric.endswith(".arcs_out"):
        return "count"
    if metric.endswith("_ratio") or metric.endswith("_share"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "s"


def _traced_metrics(workload, tracer, untraced: list[float], traced: list[float]) -> dict[str, float]:
    from workloads import program_env

    ops = len(traced)
    metrics = tracer.layer_metrics(ops)
    startup = _cli_startup_s(program_env(ROOT))
    metrics["cli.startup_s"] = startup
    covered = tracer.root_s + (startup * ops if workload.name == "decompose-grid" else 0.0)
    metrics["trace.covered_share"] = covered / sum(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    _import_program()
    from reference import CheckFailed
    from spans import Tracer
    from workloads import WORKLOADS

    if not trace:
        setup_s = _setup_s(name, seed, smoke)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](ROOT, WORKDIR, seed, smoke)
    workload.setup()

    errors: list[str] = []
    correct, untraced, traced, failed, scales = True, [], [], 0, []
    tracer = Tracer() if trace else None
    try:
        workload.prepare()
        workload.check(workload.operation())  # warm-up, not timed
        untraced, traced, failed, scales = _loop(workload, seconds, 2 if smoke else MIN_OPS, errors, tracer)
    except CheckFailed as e:
        correct = False
        errors.append(f"check failed: {e}")

    for line in dict.fromkeys(errors):
        print(f"{name}: {line}", file=sys.stderr)
    attempted = len(untraced) + len(traced) + failed
    latencies = traced if trace else untraced
    if not correct or not latencies:
        return {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}

    if trace:
        values = _traced_metrics(workload, tracer, untraced, traced)
        for metric, value in sorted(values.items()):
            if value and not smoke:
                print(f"{name}: {metric:<48} {value:.6g}", file=sys.stderr)
    else:
        raw = latencies
        latencies = [t * k for t, k in zip(raw, scales)]
        if not smoke:
            print(f"{name}: {len(raw)} operations; unscaled latency p50 {statistics.median(raw):.6g} s;"
                  f" median speed scale {statistics.median(scales):.4f}", file=sys.stderr)
        values = {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_p75_s": statistics.quantiles(latencies, n=4)[2] if len(latencies) > 1 else latencies[0],
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(workload),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small operation per workload, every check on")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        _import_program()
        from workloads import WORKLOADS

        WORKDIR.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.workload](ROOT, WORKDIR, args.seed, args.smoke).setup()
        print(perf_counter() - _PROCESS_START)
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    (WORKDIR / f"{args.workload}.trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if result["correct"] else 1


def smoke() -> int:
    """One small operation per workload, untraced and traced; metric names checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            result = run(w["name"], 1, 0, trace, smoke=True)
            names = set(result["metrics"])
            good = result["correct"] and result["failed"] == 0 and names == expected[trace]
            ok &= good
            missing, extra = sorted(expected[trace] - names), sorted(names - expected[trace])
            print(f"{w['name']:<15} trace={int(trace)} correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']} {'ok' if good else f'FAIL missing={missing} extra={extra}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
