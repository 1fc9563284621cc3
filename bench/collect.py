"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --trace 0 --out bench/results/run.json
    python3 bench/collect.py --workloads planar-exact --seeds 1-3 --trace 1

Runs bench/run.py once per (workload, seed), one after another, with the
run length from BENCHMARK.json unless --seconds is given.  For every metric
it reports the values, their median, first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median.  With --out the summary is
merged into that JSON file under "end_to_end" or "per_layer", keyed by
workload, so traced and untraced collections can share one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def summarise(values: list) -> dict:
    median = statistics.median(values)
    out = {"values": values, "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit "
                           f"{proc.returncode}): {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line)["environment"] for line in lines
                if line.startswith('{"environment"')), None)
    return result, env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    summary = {}
    all_correct = True
    for workload in args.workloads:
        results, envs = [], []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            envs.append(env)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in list(result["metrics"].items())[:6]),
                  flush=True)
        all_correct &= all(r["correct"] for r in results)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            metrics[name] = {"unit": first["unit"], **stats}
        summary[workload] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "correct": [r["correct"] for r in results],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "loadavg": [[e["loadavg_before"], e["loadavg_after"]] for e in envs],
            "environment": {k: v for k, v in envs[0].items()
                            if k not in ("loadavg_before", "loadavg_after", "workload")},
            "metrics": metrics,
        }
        for name, stats in metrics.items():
            spread = stats.get("spread")
            print(f"  {name:44s} median {stats['median']:.6g} {stats['unit']}"
                  + (f"  spread {spread:.4f}" if spread is not None else ""))
        entry = summary[workload]
        print(f"  {'failed_frac':44s} {entry['failed'] / entry['attempted']:.6g} "
              f"({entry['failed']} of {entry['attempted']} jobs)")

    if args.out is not None:
        existing = json.loads(args.out.read_text()) if args.out.exists() else {}
        existing.setdefault(section, {}).update(summary)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
