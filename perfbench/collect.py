"""Run the benchmark repeatedly and summarize each metric across runs.

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --json out.json

Each run is one ``run.py`` process of ``run_seconds`` (``BENCHMARK.json``),
one after another: every workload in turn, each over all the seeds.
For every metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--json``
writes the summaries and every run's result line with its provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = dict(
        line[2:].split(": ", 1) for line in lines[:-1]
        if line.startswith("# ") and ": " in line)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10",
                        help="seeds, e.g. 1-10 or 1,5,9 (default 1-10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the summaries and raw results here")
    args = parser.parse_args(argv)
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.trace)
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()
                             if not args.trace), flush=True)
        names = runs[0]["metrics"]
        summary = {name: summarize([r["metrics"][name]["value"]
                                    for r in runs]) for name in names}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            print(f"  {workload:<14} {name:<44} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f}", flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
