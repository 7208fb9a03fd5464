"""Scan benchmark of renyidpi.

Runs seeded scans of the renyidpi CLI (`cli.run` then `cli.emit` to CSV,
the path of `renyidpi <scenario> --out`, minus interpreter start-up) as a
closed loop from a single thread, and prints the metrics by name with
their units. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count scans.

    python3 bench/run.py --workload saturation-2x2 --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics (BENCHMARK.json "end_to_end").
--trace 1 runs a fixed list of scans three times: once plain, then twice
with the tracer installed, and prints the per-layer metrics
(BENCHMARK.json "per_layer"). Spans of the first traced pass are written
to bench/out/spans-<workload>-seed<seed>.csv.

Exit status: 0 when a result was printed (check "correct"), 2 when the
checkout has no renyidpi source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import SpanStats, Tracer
from workloads import OUT, WORKLOADS, CheckFailed, MissingProgram, Scan, load_program, run_scan

PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = 5      # fresh processes timed for setup_s; the median is reported
MIN_SCANS = 11        # a tail percentile needs ten scans beyond it
MIB = 2.0 ** 20
SATURATION_SCENARIOS = ("equality-scan", "recovery-test")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def probe_setup(workload, seed: int, path: Path) -> float:
    """Seconds from starting a fresh interpreter to the end of its warm-up scan."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE), workload.name, str(seed), str(path)],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        try:
            child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise CheckFailed("set-up probe did not exit") from None
    if line.strip() != "ready" or child.returncode != 0:
        raise CheckFailed(f"set-up probe exited with {child.returncode}: {line!r}")
    return ready - started


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile of `times` with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - MIN_SCANS], 100.0 * (n - MIN_SCANS + 1) / n


class Run:
    """Scans of one benchmark run, with the problems its checks found."""

    def __init__(self, cli, workload, seed: int, path: Path):
        self.cli, self.workload, self.seed, self.path = cli, workload, seed, path
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def scan(self, index: int) -> Scan | None:
        self.attempted += 1
        try:
            return run_scan(self.cli, self.workload, index, self.seed, self.path)
        except CheckFailed as exc:
            self.problems.append(str(exc))
        except Exception as exc:  # a crash of the program fails this scan only
            traceback.print_exc()
            self.problems.append(f"scan {index} raised {type(exc).__name__}: {exc}")
        self.failed += 1
        return None


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: closed loop of whole rotation cycles for `seconds`."""
    workload = run.workload
    setup = [probe_setup(workload, run.seed, run.path) for _ in range(SETUP_PROBES)]
    workload.warm_up(run.cli, run.seed, run.path)
    scans: list[Scan] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or run.attempted < MIN_SCANS:
        for _ in range(workload.cycle):
            scan = run.scan(run.attempted)
            if scan is not None:
                scans.append(scan)
    if len(scans) < MIN_SCANS:
        raise CheckFailed(f"only {len(scans)} scans completed")
    first = scans[0]
    again = run.scan(first.index)
    if again is not None and again.digest != first.digest:
        run.problems.append(f"scan {first.index} rerun gave a different CSV")

    times = [s.seconds for s in scans]
    rows = sum(s.rows for s in scans)
    failed_rows = sum(s.failed_rows for s in scans)
    tail_s, tail_pct = tail(times)
    # Every cycle returns the same number of rows; the median cycle keeps
    # bursts of contention on a shared machine from setting the rate.
    cycle_rows = sum(s.rows for s in scans[:workload.cycle])
    cycles = [sum(times[i:i + workload.cycle]) for i in range(0, len(times), workload.cycle)]
    metrics = {
        "rows_per_s": (cycle_rows / statistics.median(cycles), "rows/s"),
        "scan_p50_s": (statistics.median(times), "s"),
        "scan_tail_s": (tail_s, "s"),
        "fail_ratio": (failed_rows / rows, "1"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {
        "scans": len(scans), "rows": rows, "failed_rows": failed_rows,
        "scan_tail_percentile": tail_pct, "setup_probes": [round(s, 4) for s in setup],
    }
    return metrics, notes


def layer_metrics(stats: SpanStats, scans: list[Scan], overhead: float) -> dict:
    rows = sum(s.rows for s in scans)
    reports = stats.calls["equality.full_report"]
    power_calls = stats.calls["quantum.DensityMatrix.power"]

    def per_row(count: float) -> float:
        return count / rows

    metrics = {f"linalg.np.{k}_per_row": (per_row(stats.kernels[k]), "count/row")
               for k in ("eigh", "eigvalsh", "inv", "svd", "kron")}
    metrics["linalg.np.kron_mib_per_row"] = (per_row(stats.kernels["kron_bytes"]) / MIB,
                                             "MiB/row")
    for name in ("linalg.matrix_power_psd", "linalg.hermitian_eig", "quantum.DensityMatrix"):
        metrics[f"{name}.per_row"] = (per_row(stats.calls[name]), "count/row")
    for name in ("linalg.matrix_power_psd", "linalg.product_power", "quantum.DensityMatrix",
                 "quantum.KrausChannel.apply_density", "quantum.random_density",
                 "modular.quadratic_form", "divergence.closed_form_optimizer",
                 "divergence.sandwiched_renyi", "divergence.petz_renyi",
                 "divergence.relative_entropy", "divergence.dpi_gap"):
        metrics[f"{name}.us"] = (stats.mean(name, 1e6), "us")
    for name in ("modular.jensen_commutator_norm", "modular.CompressionIsometry",
                 "divergence.variational_value", "divergence.integral_power_quadrature",
                 "equality.full_report", "equality.t1_residual", "equality.t1_geo_residual",
                 "equality.necessary1_residual", "equality.necessary2_residual",
                 "equality.recovery_error", "equality.build_recoverable_triple"):
        metrics[f"{name}.ms"] = (stats.mean(name, 1e3), "ms")
    metrics["quantum.DensityMatrix.power.hit_ratio"] = (
        stats.power_hits / power_calls if power_calls else 0.0, "1")
    metrics["divergence.variational_value.eigh_per_call"] = (
        stats.per_call("divergence.variational_value", "eigh"), "count/call")
    metrics["divergence.integral_power_quadrature.inv_per_call"] = (
        stats.per_call("divergence.integral_power_quadrature", "inv"), "count/call")
    metrics["equality.full_report.self_ms"] = (
        stats.self_seconds["equality.full_report"] * 1e3 / reports if reports else 0.0, "ms")
    metrics["equality.full_report.eigh_per_call"] = (
        stats.per_call("equality.full_report", "eigh"), "count/call")
    for name in ("equality.t3_residual", "equality.petz_beta_residual"):
        metrics[f"{name}.ms_per_report"] = (
            stats.seconds[name] * 1e3 / reports if reports else 0.0, "ms/report")
    metrics["cli.run.ms_per_row"] = (per_row(stats.seconds["cli.run"] * 1e3), "ms/row")
    metrics["cli.run.self_ms_per_row"] = (per_row(stats.self_seconds["cli.run"] * 1e3), "ms/row")
    metrics["cli.run.busy_ratio"] = (stats.top_level_seconds / stats.seconds["cli.run"], "1")
    metrics["cli.run.fail_ratio"] = (per_row(sum(s.failed_rows for s in scans)), "1")
    metrics["cli.emit.ms_per_row"] = (per_row(stats.seconds["cli.emit"] * 1e3), "ms/row")
    metrics["cli.emit.bytes_per_row"] = (per_row(sum(s.csv_bytes for s in scans)), "B/row")
    metrics["trace.overhead_ratio"] = (overhead, "1")
    return metrics


def traced(run: Run, package) -> tuple[dict, dict]:
    """Per-layer metrics from two traced passes over a fixed list of scans.

    Checks: traced CSVs equal the plain ones byte for byte; every wrapper
    is removed; the two passes agree on every exact count; each function
    the workload must run was called; full_report ran once per saturation
    row.
    """
    workload = run.workload
    count = workload.cycle * workload.trace_cycles
    workload.warm_up(run.cli, run.seed, run.path)
    plain = [run.scan(index) for index in range(count)]
    passes = []
    for _ in range(2):
        tracer = Tracer()
        try:
            tracer.install(package)
            scans = []
            for index in range(count):
                tracer.scan = index
                scans.append(run.scan(index))
        except (AttributeError, KeyError) as exc:  # run.scan catches the program's own
            raise CheckFailed(f"cannot wrap the program: {exc!r}") from exc
        finally:
            left = tracer.remove()
        if left:
            run.problems.append(f"wrappers left installed: {', '.join(left)}")
        if not passes:
            stats = tracer.stats()
            tracer.write(OUT / f"spans-{workload.name}-seed{run.seed}.csv")
        passes.append((scans, tracer.exact_counts()))
        del tracer

    (first, counts_a), (second, counts_b) = passes
    if any(s is None for s in plain + first + second):
        return {}, {}
    for a, b, c in zip(plain, first, second):
        if not a.digest == b.digest == c.digest:
            run.problems.append(f"scan {a.index}: traced CSV digest differs from the untraced one")
    if counts_a != counts_b:
        differing = sorted(k for k in counts_a.keys() | counts_b.keys()
                           if counts_a.get(k) != counts_b.get(k))
        run.problems.append(f"exact counts differ between traced passes: {differing[:5]}")
    missing = [name for name in workload.must_run if not stats.calls[name]]
    if missing:
        run.problems.append(f"wrapped functions saw no calls: {', '.join(missing)}")
    report_rows = sum(s.rows for s in first if s.scenario in SATURATION_SCENARIOS)
    if stats.calls["equality.full_report"] != report_rows:
        run.problems.append(f"full_report ran {stats.calls['equality.full_report']} times "
                            f"for {report_rows} saturation rows")

    rows = sum(s.rows for s in plain)
    plain_rate = rows / sum(s.seconds for s in plain)
    traced_rate = 2 * rows / sum(s.seconds for s in first + second)
    notes = {"scans": count, "rows": rows, "spans": sum(stats.calls.values())}
    return layer_metrics(stats, first, plain_rate / traced_rate), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_program()
    except (MissingProgram, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = OUT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(cli, workload, args.seed, work_dir / "scan.csv")
    try:
        if args.trace:
            metrics, notes = traced(run, sys.modules["renyidpi"])
        else:
            metrics, notes = untraced(run, args.seconds)
    except CheckFailed as exc:
        run.problems.append(str(exc))
        metrics, notes = {}, {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("environment: " + json.dumps(environment()))
    print("workload: " + json.dumps({"name": workload.name, "seed": args.seed,
                                     **workload.describe(), **notes}))
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:.6g} {unit}")
    for problem in run.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if not args.trace:
        # Printed above but not gated: it is zero on most workloads, and a
        # bound relative to zero means nothing.
        metrics.pop("fail_ratio", None)
    print(json.dumps({
        "correct": not run.problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
