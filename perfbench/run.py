"""Layered benchmark of qcontour: four seeded workloads, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload family_large --seed 1 --trace 0

One process runs units of the workload back to back for ``--seconds``
(default: ``run_seconds`` from ``BENCHMARK.json``).
``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
runs the same timed phase, then traces a fixed number of units and reports
the per-layer metrics (see ``tracer.py``).  Provenance and every metric,
by name and with its unit, go to standard output; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run (raw and calibrated unit times,
check failures) and, in traced runs, the spans are written under
``perfbench/out/``.

Unit times are calibrated against a fixed reference kernel timed between
units (``calibrate.py``), so they read as seconds at reference speed.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# every matrix is at most 8x8 and the load is one client, so extra BLAS
# threads could only compete for the cores; set before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

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

import calibrate  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh processes timed for setup_s; the median is reported
SETUP_REPS = 7
#: one set-up in a fresh process: ``import qcontour`` and its CLI module,
#: calibrated by the reference kernel right after it: one warm-up pass, then
#: the mean of two.  In four samples of 40 fresh processes the spread was
#: 0.10-0.23 calibrated and 0.16-0.48 raw.  The kernel's module is imported
#: after the timed import, which must include numpy's.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t0 = time.perf_counter()\n"
    "import qcontour, qcontour.cli\n"
    "wall = time.perf_counter() - t0\n"
    "import calibrate\n"
    "calibrate.kernel_seconds()\n"
    "kernel = calibrate.kernel_seconds() + calibrate.kernel_seconds()\n"
    "print(repr(wall * 2.0 * calibrate.KERNEL_REF_S / kernel))\n")

#: units run before timing starts
WARMUP_UNITS = 1
#: units beyond the reported tail, and the highest tail percentile.  Beyond
#: p90 the small_sweep tail was set by bursts of interference from outside
#: the process: across five seeds its p99 spread 0.91 in a busy hour and
#: 0.07 in a quiet one, its p90 0.13 and 0.07.
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 90


def parse_args(argv, default_seconds):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="length of the timed phase (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec():
    """Run length, and metric names and units, from BENCHMARK.json at the
    checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (spec["run_seconds"],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure_setup() -> list[float]:
    """Calibrated set-up time in SETUP_REPS fresh processes, in turn."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def provenance(qc, seed, workload):
    import numpy as np

    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "git_commit": commit,
        "qcontour_version": qc.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel_ref_s": calibrate.KERNEL_REF_S,
        "workload": workload,
        "seed": seed,
    }


def run_units(wl, checks, count=None, seconds=None, tracer=None):
    """Run units back to back; returns the clock and histories per unit.

    Stops after ``count`` units or once ``seconds`` have passed.  Inputs
    are fetched and outputs checked outside the timed call.
    """
    clock = calibrate.CalibratedClock()
    histories = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    clock.start()
    k = 0
    while (count is None or k < count) and (
            deadline is None or time.perf_counter() < deadline):
        inp = wl.unit_input(k)
        if tracer is not None:
            tracer.unit = k
        t0 = time.perf_counter()
        try:
            out = wl.run_unit(inp)
        except Exception:  # a failing unit is a failed check, not a crash
            clock.record(time.perf_counter() - t0)
            histories.append(0)
            traceback.print_exc(file=sys.stderr)
            checks.expect(False, f"unit {k} raised")
        else:
            clock.record(time.perf_counter() - t0)
            histories.append(wl.histories(inp))
            try:
                wl.check(inp, out, checks)
            except Exception:  # output the checks cannot read is wrong
                traceback.print_exc(file=sys.stderr)
                checks.expect(False, f"checking unit {k} raised")
        k += 1
    clock.finish()
    return clock, histories


def end_to_end(clock, histories, setup):
    """The end-to-end metrics of an untraced run, and what to record."""
    times = clock.calibrated()
    ordered = sorted(times)
    n = len(ordered)
    # nearest rank with TAIL_BEYOND units above it, capped at the p90 rank
    rank = (n if n <= TAIL_BEYOND else
            min(n - TAIL_BEYOND, -(-n * TAIL_MAX_PERCENTILE // 100)))
    metrics = {
        "setup_s": statistics.median(setup),
        "unit_s_p50": statistics.median(times),
        "unit_s_tail": ordered[rank - 1],
        "histories_per_s": sum(histories) / sum(times),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {
        "setup_runs_s": setup, "unit_calibrated_s": times,
        "tail_percentile": 100.0 * rank / n, "tail_units_beyond": n - rank,
        "raw_unit_s_p50": statistics.median(clock.walls)}


def traced(wl, checks, untraced, spans_path):
    """Trace ``wl.traced_units`` units: per-layer metrics and the record."""
    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        clock, _ = run_units(wl, checks, count=wl.traced_units, tracer=spans)
    finally:
        spans.restore()
    spans.write(spans_path)
    metrics = spans.summary(len(clock.walls))
    metrics["trace.overhead_ratio"] = (
        statistics.median(clock.calibrated())
        / statistics.median(untraced.calibrated()))
    return metrics, {"traced_units": len(clock.walls),
                     "traced_unit_walls_s": clock.walls,
                     "traced_kernel_s": clock.kernel}


def main(argv=None) -> int:
    run_seconds, e2e_units, layer_units = load_spec()
    args = parse_args(argv, run_seconds)
    if not (SRC / "qcontour" / "__init__.py").is_file():
        print(f"error: no qcontour package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcontour as qc
    import qcontour.cli  # noqa: F401  (verify_cli calls qcontour.cli.main)

    if Path(qc.__file__).resolve().parent != (SRC / "qcontour").resolve():
        print(f"error: imported qcontour from {qc.__file__}", file=sys.stderr)
        return 2

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    prov = provenance(qc, seed, args.workload)
    setup = [] if args.trace else measure_setup()

    wl = workloads.WORKLOADS[args.workload](qc, seed, OUT)
    wl.prepare()
    checks = workloads.Checks()
    try:
        run_units(wl, checks, count=WARMUP_UNITS)
        clock, histories = run_units(wl, checks, seconds=args.seconds)
        if args.trace:
            found, extra = traced(wl, checks, clock,
                                  OUT / f"spans-{tag}.npz")
            units = layer_units
        else:
            found, extra = end_to_end(clock, histories, setup)
            units = e2e_units
    finally:
        wl.cleanup()
    # a function a later version no longer has was called zero times
    metrics = {name: float(found.get(name, 0.0)) for name in units}
    fail_ratio = checks.failed / max(checks.attempted, 1)
    record = {"provenance": prov, "units": len(clock.walls),
              "unit_walls_s": clock.walls, "unit_blocks": clock.blocks,
              "kernel_s": clock.kernel,
              **extra, "checks_attempted": checks.attempted,
              "checks_failed": checks.failed,
              "check_fail_ratio": fail_ratio,
              "check_failures": checks.messages, "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1),
                                     encoding="utf-8")

    for key, value in prov.items():
        print(f"# {key}: {value}")
    print(f"# units: {len(clock.walls)}")
    if "tail_percentile" in extra:
        print(f"# tail: p{extra['tail_percentile']:.2f}, "
              f"{extra['tail_units_beyond']} units beyond it")
        print(f"# uncalibrated unit_s_p50: {extra['raw_unit_s_p50']:.6g} s")
    for message in checks.messages:
        print(f"# check failed: {message}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"check_fail_ratio = {fail_ratio:.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
