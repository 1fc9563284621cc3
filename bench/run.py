"""Benchmark for riccati-mdp: one workload, one process, one client.

    python3 bench/run.py --workload scalar-study --seed 1 --seconds 35 --trace 0

The package is imported from `src/` of the checkout this file sits in, never
from an installed copy; without that source the run fails with exit code 2
before measuring anything.

With `--trace 0` the workload's job list (see workloads.py) runs back to back
for `--seconds`, and the last line of standard output is a JSON object whose
metrics are the end-to-end ones:

* wall_s: median wall time of one pass over the job list;
* cpu_s: median user + system CPU time of that pass (all threads);
* setup_s: median over fresh processes of importing riccati_mdp, building
  the workload's model, validate_system and solve_dare;
* peak_rss_mb: peak resident memory of this process.

Jobs that raise, exit non-zero or fail their output check are counted in
`failed` out of `attempted`; the share is printed as failed_frac.

With `--trace 1` the run first times three sample_invariant probes, then
alternates untraced passes with passes under the span wrappers of
spans.py, and reports per-function calls, self time and counters per pass,
each layer's share of the traced pass, and the tracing overhead.

Every run prints an environment record (machine, library versions, BLAS
threads, load average) on the line before the result.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 5
MIN_PASSES = 2
PROBE_CHAINS = 4000
# Steps per chain in the step probes: enough that stepping, not seeding,
# dominates the timed call (N=1 steps are several times cheaper than N=2).
PROBE_STEPS = {"n1": 500, "n2": 200}
PROBE_REPEATS = 3

LIMITS_NOTE = ("runs are not pinned to CPUs and the page cache is not dropped: "
               "the sandbox allows neither")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import riccati_mdp
from riccati_mdp import models
model = getattr(models, sys.argv[2])()
report = riccati_mdp.validate_system(model)
riccati_mdp.solve_dare(model)
elapsed = time.perf_counter() - t0
if not riccati_mdp.__file__.startswith(sys.argv[1]):
    sys.exit("riccati_mdp was not imported from " + sys.argv[1])
if not report.passed:
    sys.exit("model failed validation")
print(repr(elapsed))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return parser, args


class Runner:
    """Runs job lists and keeps the attempted / failed tally."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.job_walls: dict[str, list] = {}

    def record(self, name: str, failure) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{name}: {failure}")

    def job_list(self, workload) -> tuple[float, float]:
        """One pass; returns the wall and CPU seconds spent inside the jobs."""
        wall = cpu = 0.0
        for job in workload.jobs:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = job.run()
                failure = None
            except Exception as exc:  # a failing job is a measured outcome
                failure = f"raised {exc!r}"
            job_wall = time.perf_counter() - w0
            self.job_walls.setdefault(job.name, []).append(job_wall)
            wall += job_wall
            cpu += time.process_time() - c0
            if failure is None:
                try:
                    failure = job.check(result)
                except Exception as exc:
                    failure = f"check raised {exc!r}"
            self.record(job.name, failure)
        return wall, cpu


def repeat(budget_s: float, one_pass, min_passes: int = MIN_PASSES) -> list:
    """Call one_pass until the next call would overrun the budget."""
    results, spans = [], []
    start = time.perf_counter()
    while len(results) < min_passes or (
            time.perf_counter() - start + statistics.median(spans) <= budget_s):
        t0 = time.perf_counter()
        results.append(one_pass())
        spans.append(time.perf_counter() - t0)
    return results


def measure_setup(runner: Runner, model_builder: str) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), model_builder],
            capture_output=True, text=True, timeout=120,
        )
        failure = None
        if proc.returncode != 0:
            failure = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
        runner.record("setup", failure)
    return times


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(runner: Runner, workload, seconds: float) -> dict:
    setup = measure_setup(runner, workload.model_builder)
    passes = repeat(seconds, lambda: runner.job_list(workload))
    print("pass wall_s:", " ".join(f"{w:.4f}" for w, _ in passes))
    return {
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "cpu_s": (statistics.median(c for _, c in passes), "s"),
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def chain_probes(seed: int) -> dict:
    """Per-chain set-up and per-step cost of the public sampler.

    Set-up is the time per chain at burn_in=0; a step is the time per
    chain-step above that, on the scalar (N=1) and planar (N=2) models.
    """
    from riccati_mdp import SimulationConfig, sample_invariant
    from riccati_mdp.models import planar_model, scalar_study_model

    def timed(model, burn_in: int) -> float:
        cfg = SimulationConfig(gamma_bar=0.7, n_samples=PROBE_CHAINS,
                               burn_in=burn_in, seed=seed)
        samples = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            sample_invariant(model, cfg)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    out = {}
    for label, model in (("n1", scalar_study_model()), ("n2", planar_model())):
        setup = timed(model, 0)
        if label == "n1":
            out["montecarlo.chain_setup_us"] = (setup / PROBE_CHAINS * 1e6, "us")
        steps = PROBE_STEPS[label]
        out[f"montecarlo.chain_step_ns.{label}"] = (
            (timed(model, steps) - setup) / (PROBE_CHAINS * steps) * 1e9, "ns")
    return out


def traced(runner: Runner, workload, seconds: float, seed: int) -> dict:
    from spans import CONSTRUCTION_COUNTER, LAYERS, TARGETS, Tracer

    start = time.perf_counter()
    metrics = chain_probes(seed)
    tracer = Tracer()
    plain, spanned = [], []

    def plain_pass():
        plain.append(runner.job_list(workload)[0])

    def spanned_pass():
        with tracer:
            spanned.append(runner.job_list(workload)[0])

    def pair():
        # Alternate which side goes first so warm-up favours neither.
        first, second = ((plain_pass, spanned_pass) if len(plain) % 2 == 0
                         else (spanned_pass, plain_pass))
        first()
        second()

    repeat(seconds - (time.perf_counter() - start), pair, min_passes=1)

    n = len(spanned)
    traced_wall = sum(spanned)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for prefix, _module, _path, counters in TARGETS:
        stats = tracer.stats[prefix]
        metrics[f"{prefix}.calls"] = (stats.calls / n, "count")
        metrics[f"{prefix}.self_s"] = (stats.self_s / n, "s")
        for name in counters:
            metrics[f"{prefix}.{name}"] = (stats.counters.get(name, 0) / n, "count")
        layer_self[prefix.split(".")[0]] += stats.self_s
    walk = tracer.stats["rate.rate_over_set"]
    nodes = walk.counters.get("nodes", 0)
    metrics["rate.rate_over_set.us_per_node"] = (
        walk.total_s / nodes * 1e6 if nodes else 0.0, "us")
    metrics[CONSTRUCTION_COUNTER] = (tracer.constructed / n, "count")
    for layer, self_s in layer_self.items():
        metrics[f"share.{layer}"] = (self_s / traced_wall, "fraction")
    metrics["share.unattributed"] = (1.0 - sum(layer_self.values()) / traced_wall,
                                     "fraction")
    metrics["trace.overhead_frac"] = (
        statistics.median(spanned) / statistics.median(plain) - 1.0, "fraction")
    return metrics


def _read_git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _os_threads():
    """Threads of this process, to show the load stays within nproc."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


# (config, thread count) entry points of the OpenBLAS builds numpy and scipy ship.
_OPENBLAS_ENTRY_POINTS = (
    ("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
    ("openblas_get_config", "openblas_get_num_threads"),
)


def _openblas_runtime() -> list:
    """Configuration string and thread count of each loaded OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for config_name, threads_name in _OPENBLAS_ENTRY_POINTS:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config, threads = getattr(lib, config_name), getattr(lib, threads_name)
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
                break
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas_build": {k: blas.get(k) for k in ("name", "version",
                                                       "openblas configuration")},
        "openblas_runtime": _openblas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": _os_threads(),
        "git_commit": _read_git_commit(),
        "limits": LIMITS_NOTE,
    }


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (SRC / "riccati_mdp" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'riccati_mdp'} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riccati_mdp

    if Path(riccati_mdp.__file__).resolve().parent != (SRC / "riccati_mdp").resolve():
        print(f"error: riccati_mdp imported from {riccati_mdp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    load_before = os.getloadavg()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    runner = Runner()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
        if args.trace:
            metrics = traced(runner, workload, args.seconds, args.seed)
        else:
            metrics = untraced(runner, workload, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    env = environment()
    env["loadavg_before"] = list(load_before)
    env["loadavg_after"] = list(os.getloadavg())
    env["workload"] = {"name": workload.name, "seed": args.seed,
                       "jobs": [j.name for j in workload.jobs]}
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    # Traced runs mix spanned and plain passes, so per-job times would mislead.
    for name, walls in ([] if args.trace else runner.job_walls.items()):
        print(f"job {name:40s} median {statistics.median(walls):.4f} s "
              f"over {len(walls)} runs")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(f"{'failed_frac':44s} {failed / max(runner.attempted, 1):.6g} "
          f"({failed} of {runner.attempted})")
    print(json.dumps({"environment": env}, sort_keys=True))
    correct = failed == 0 and runner.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
