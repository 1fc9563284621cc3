"""The benchmark's three workloads: inputs from a seed, timed jobs, output checks.

Each workload is a fixed, closed-loop job list run by a single client: the
next job starts when the previous one returns.  A job's `run` is the timed
part and calls the package the way a user would (in-process CLI or public
API).  Its `check` runs untimed afterwards and returns None or the reason
the output is wrong.  Reference values in the checks come from this file,
not from the package: open-loop distances are recomputed with scipy's DARE
solver and plain numpy.

Why these three (see also BENCHMARK.json):

* scalar-study: the paper's headline study with its pinned protocol.  Nearly
  all of its time is Monte-Carlo sampling on the N=1 model.
* planar-exact: exact word-tree enumeration on the two-state model; the
  sampler is never called.  Radii are drawn inside the band where the
  open-loop entry step is k, so the tree size, and with it the work, is the
  same for every seed while the inputs still change.
* planar-mc: Monte-Carlo sampling on the N=2 model with long chains, where
  the batched 2x2 step dominates and per-chain seeding is a small share.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_discrete_are

# Package functions are looked up on their module at call time, so that the
# traced run's span wrappers (spans.py) see calls made from this file too.
from riccati_mdp import cli, montecarlo, rate
from riccati_mdp.models import planar_model


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    name: str
    # Model builder in riccati_mdp.models, used by the set-up measurement.
    model_builder: str
    jobs: list


def _run_cli(argv: list) -> tuple:
    """cli.main in-process, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failure(result) -> Optional[str]:
    code, _out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    return None


def open_loop_distances(model, k_max: int) -> list:
    """||f0^k(P*) - P*|| for k = 0..k_max, independent of the package."""
    a, c, q, r = model.A, model.C, model.Q.a, model.R.a
    p_star = solve_discrete_are(a.T, c.T, q, r)
    x, out = p_star, []
    for _ in range(k_max + 1):
        out.append(float(np.max(np.abs(np.linalg.eigvalsh(x - p_star)))))
        x = a @ x @ a.T + q
    return out


def radius_in_band(distances: list, k: int, rng: random.Random) -> float:
    """A ballc radius whose open-loop entry step is exactly k.

    Entry at k means d[k-1] < M <= d[k]; the draw keeps 10% of the band
    clear at each end so round-off in P* cannot move the entry step.
    """
    lo, hi = distances[k - 1], distances[k]
    return lo + (hi - lo) * rng.uniform(0.1, 0.9)


def binomial_slope_se(points) -> float:
    """Standard error of the least-squares slope of ln p_hat on ln(1 - g).

    Each ln p_hat has variance about (1 - p) / hits (delta method on a
    binomial count); the slope is a fixed linear combination of them.
    """
    xs = [math.log(1.0 - g) for g, _p, _hits in points]
    mean = sum(xs) / len(xs)
    sxx = sum((x - mean) ** 2 for x in xs)
    return math.sqrt(sum(((x - mean) / sxx) ** 2 * (1.0 - p) / hits
                         for x, (_g, p, hits) in zip(xs, points)))


# scalar-study ---------------------------------------------------------------

STUDY_ARTIFACTS = ("probs.csv", "fit.csv", "cdf.csv", "summary.json")


def scalar_study(seed: int, workdir: Path) -> Workload:
    out = workdir / "study"
    first_digest: dict = {}

    def run():
        return _run_cli(["reproduce-scalar", "--seed", str(seed), "--out", str(out)])

    def check(result) -> Optional[str]:
        try:
            failure = _cli_failure(result)
            if failure:
                return failure
            digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                      for name in STUDY_ARTIFACTS}
            summary = json.loads((out / "summary.json").read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if summary.get("pass") is not True:
            return f"study gate failed: {summary}"
        if not 3.0 <= summary["fitted_slope"] <= 5.0:
            return f"fitted slope {summary['fitted_slope']} outside [3, 5]"
        if summary["exact_exponent"] != 4:
            return f"exact exponent {summary['exact_exponent']} != 4"
        if not first_digest:
            first_digest.update(digest)
        elif digest != first_digest:
            changed = sorted(n for n in digest if digest[n] != first_digest[n])
            return f"artifacts differ between repeats with one seed: {changed}"
        return None

    return Workload(
        name="scalar-study",
        model_builder="scalar_study_model",
        jobs=[Job("reproduce-scalar", run, check)],
    )


# planar-exact ---------------------------------------------------------------

RATE_LEVELS = range(6, 14)
FINITE_DIM_HORIZON = 12
LAW_CHECK_GAMMAS = (0.3, 0.6, 0.9)


def planar_exact(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    model = planar_model()
    distances = open_loop_distances(model, max(RATE_LEVELS))
    jobs = []
    for k in RATE_LEVELS:
        radius = radius_in_band(distances, k, rng)
        config = workdir / f"rate-k{k}.json"
        config.write_text(json.dumps({
            "model": model.to_dict(),
            "rate": {"predicate": f"ballc:{radius!r}", "k_cap": 22},
        }))
        jobs.append(Job(f"rate-k{k}",
                        lambda config=config: _run_cli(["rate", "--config", str(config)]),
                        lambda result, k=k: _check_rate(result, k)))

    t1 = rng.randint(1, FINITE_DIM_HORIZON - 1)
    times = (t1, FINITE_DIM_HORIZON)

    def check_law(law) -> Optional[str]:
        if law.times != times or law.horizon != FINITE_DIM_HORIZON:
            return f"law recorded at {law.times}, horizon {law.horizon}; wanted {times}"
        for g in LAW_CHECK_GAMMAS:
            total = law.total_probability(g)
            if abs(total - 1.0) > 1e-9:
                return f"total probability {total!r} at g={g}"
        return None

    jobs.append(Job(f"finite-dim-{t1}-{FINITE_DIM_HORIZON}",
                    lambda: rate.finite_dim_exact(model, model.P0, times), check_law))
    return Workload(
        name="planar-exact",
        model_builder="planar_model",
        jobs=jobs,
    )


def _check_rate(result, k: int) -> Optional[str]:
    failure = _cli_failure(result)
    if failure:
        return failure
    payload = json.loads(result[1])
    want = {"exponent": k, "k_gamma": k, "minimizer": f"0^{k}"}
    got = {key: payload.get(key) for key in want}
    return None if got == want else f"rate reported {got}, wanted {want}"


# planar-mc ------------------------------------------------------------------

MC_EXACT_EXPONENT = 3
MC_RADIUS_RANGE = (19.0, 21.0)
MC_GRID = (0.55, 0.65, 0.75)
MC_CHAINS = 2000
MC_BURN_IN = 400
# The fit is checked against the exact exponent with a tolerance taken from
# the hit counts alone, so the check holds for any random-stream scheme.  At
# 2000 chains the slope's standard error is about 0.35 (over 40 seeds the
# slopes had mean 3.01 and standard deviation 0.39), so a fixed window of
# +-1 would fail about one seed in a hundred.
MC_SLOPE_SIGMAS = 4.0
EXCEEDANCE_GAMMA = 0.7
EXCEEDANCE_HORIZON = 200
# Vacuous, vacuous and non-vacuous bounds on the planar model at g = 0.7.
EXCEEDANCE_THRESHOLDS = (20.0, 100.0, 1000.0)


def planar_mc(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    model = planar_model()
    radius = rng.uniform(*MC_RADIUS_RANGE)
    distances = open_loop_distances(model, MC_EXACT_EXPONENT)
    if not distances[MC_EXACT_EXPONENT - 1] < radius <= distances[MC_EXACT_EXPONENT]:
        raise RuntimeError(f"radius {radius} does not have entry step {MC_EXACT_EXPONENT}")
    fit_seed = rng.randrange(2**31)
    exceedance_seed = rng.randrange(2**31)
    config = workdir / "exponent.json"
    config.write_text(json.dumps({
        "model": model.to_dict(),
        "exponent": {"predicate": f"ballc:{radius!r}", "gamma_grid": list(MC_GRID),
                     "n_samples": MC_CHAINS, "burn_in": MC_BURN_IN, "seed": fit_seed},
    }))
    out = workdir / "exponent"

    def check_fit(result) -> Optional[str]:
        try:
            failure = _cli_failure(result)
            if failure:
                return failure
            with open(out / "fit.csv", newline="") as fh:
                slope = float(next(csv.DictReader(fh))["slope"])
            with open(out / "probs.csv", newline="") as fh:
                points = [(float(row["gamma_bar"]), float(row["p_hat"]), int(row["hits"]))
                          for row in csv.DictReader(fh)]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if any(hits == 0 for _g, _p, hits in points):
            return f"censored gridpoint: {points}"
        se = binomial_slope_se(points)
        if abs(slope - MC_EXACT_EXPONENT) > MC_SLOPE_SIGMAS * se:
            return (f"fitted slope {slope} is more than {MC_SLOPE_SIGMAS} standard "
                    f"errors ({se:.4f}) from the exact exponent {MC_EXACT_EXPONENT}")
        return None

    sup = {}

    def check_exceedance(report) -> Optional[str]:
        sup.clear()
        if report.thresholds != EXCEEDANCE_THRESHOLDS or report.n_chains != MC_CHAINS:
            return f"exceedance report for {report.thresholds}, {report.n_chains} chains"
        if not all(0.0 <= f <= 1.0 for f in report.sup_frequency):
            return f"frequencies out of range: {report.sup_frequency}"
        sup.update(zip(report.thresholds, report.sup_frequency))
        return None

    def check_bound(bound, threshold) -> Optional[str]:
        if threshold not in sup:
            return "no exceedance frequency to compare against"
        if not bound.applicable or bound.bound < sup[threshold]:
            return (f"tail bound {bound.bound} does not dominate the empirical "
                    f"exceedance {sup[threshold]} at M={threshold}")
        return None

    jobs = [
        Job("exponent",
            lambda: _run_cli(["exponent", "--config", str(config), "--out", str(out)]),
            check_fit),
        Job("exceedance-sup",
            lambda: montecarlo.exceedance_sup(
                model, EXCEEDANCE_GAMMA, EXCEEDANCE_THRESHOLDS, EXCEEDANCE_HORIZON,
                MC_CHAINS, seed=exceedance_seed),
            check_exceedance),
    ]
    for threshold in EXCEEDANCE_THRESHOLDS:
        jobs.append(Job(
            f"tail-bound-{threshold:g}",
            lambda t=threshold: montecarlo.tail_bound(model, EXCEEDANCE_GAMMA, t),
            lambda bound, t=threshold: check_bound(bound, t)))
    return Workload(
        name="planar-mc",
        model_builder="planar_model",
        jobs=jobs,
    )


WORKLOADS = {
    "scalar-study": scalar_study,
    "planar-exact": planar_exact,
    "planar-mc": planar_mc,
}
