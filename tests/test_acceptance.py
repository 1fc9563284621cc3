"""End-to-end acceptance checks for the scalar rare-event study and the
supporting machinery.  Each test prints a single PASS/FAIL line (run with -s
to see them all); tolerances and runtime budgets are part of the checks.
"""

import math
import time

import numpy as np
import pytest

from riccati_mdp import (
    EventPredicate,
    SimulationConfig,
    SymMatrix,
    decay_exponent_fit,
    eval_string,
    exceedance_sup,
    finite_dim_exact,
    iota,
    iota_plus,
    loewner_leq,
    lyapunov_step,
    prohorov_distance_scalar,
    rate_over_set,
    riccati_step,
    sample_invariant,
    solve_dare,
    spectral_norm,
    string_upper_bound,
    tail_bound,
)
from riccati_mdp import GammaString, random_psd
from riccati_mdp.models import planar_model, scalar_study_model

import oracles

SQRT2 = math.sqrt(2.0)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def scalar():
    return scalar_study_model()


@pytest.fixture(scope="module")
def planar2():
    return planar_model()


@pytest.fixture(scope="module")
def pstar(scalar):
    return solve_dare(scalar).p_star


@pytest.fixture(scope="module")
def m1(pstar):
    return 40.0 - pstar.item()


def test_criterion_01_exact_variational_answer(scalar, pstar, m1):
    t0 = time.perf_counter()
    lo = iota(scalar, m1, p_star=pstar)
    hi = iota_plus(scalar, m1, p_star=pstar)
    sol = rate_over_set(scalar, EventPredicate.ball_complement(m1), p_star=pstar)
    elapsed = time.perf_counter() - t0
    ok = (
        lo == 4 and hi == 4
        and sol.exponent == 4
        and sol.minimizer is not None
        and sol.minimizer.bits == (0, 0, 0, 0)
        and elapsed < 1.0
    )
    _line(1, ok, f"iota={lo} iota_plus={hi} enum={sol.exponent} "
                 f"witness={sol.minimizer.to_text() if sol.minimizer else None} "
                 f"({elapsed:.3f}s < 1s)")
    assert ok


def test_criterion_02_dare_fixed_point(scalar, pstar):
    sol = solve_dare(scalar)
    err = abs(sol.p_star.item() - (1.0 + SQRT2))
    ok = err <= 1e-9 and sol.residual <= 1e-10
    _line(2, ok, f"p_star={sol.p_star.item():.12f} err={err:.2e} <= 1e-09, "
                 f"residual={sol.residual:.2e} <= 1e-10")
    assert ok


def test_criterion_03_ordering_chain(scalar, pstar, m1):
    f3 = lyapunov_step(scalar, lyapunov_step(scalar, lyapunov_step(scalar, pstar)))
    f4 = lyapunov_step(scalar, f3)
    vals = (pstar.item(), f3.item(), m1 + pstar.item(), f4.item())
    surds = (1.0 + SQRT2, 15.0 + 8.0 * SQRT2, 40.0, 31.0 + 16.0 * SQRT2)
    errs = [abs(v - s) for v, s in zip(vals, surds)]
    ok = (
        all(e <= 1e-9 for e in errs)
        and vals[0] < vals[1] < vals[2] < vals[3]
    )
    chain = " < ".join(f"{v:.4f}" for v in vals)
    _line(3, ok, f"{chain}; max surd error {max(errs):.2e} <= 1e-09")
    assert ok


def test_criterion_04_monte_carlo_exponent(scalar, m1):
    grid = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80)
    t0 = time.perf_counter()
    fit = decay_exponent_fit(scalar, EventPredicate.ball_complement(m1),
                             grid, n_samples=10_000, burn_in=100, seed=2024)
    elapsed = time.perf_counter() - t0
    ok = 3.0 <= fit.slope <= 5.0 and elapsed < 60.0
    _line(4, ok, f"slope={fit.slope:.4f} in [3, 5] (stderr {fit.stderr:.3f}), "
                 f"{fit.points_used}/6 gridpoints, ({elapsed:.1f}s < 60s)")
    assert ok


def test_criterion_05_finite_time_slope(scalar, pstar, m1):
    t0 = time.perf_counter()
    dist = finite_dim_exact(scalar, pstar, [12])
    center = pstar.item()
    event = lambda vals: abs(vals[-1].item() - center) >= m1
    slopes = []
    for gamma in (1.0 - 1e-3, 1.0 - 1e-5):
        p = dist.event_probability(event, gamma)
        slopes.append(math.log(p) / math.log(1.0 - gamma))
    elapsed = time.perf_counter() - t0
    d1, d2 = abs(slopes[0] - 4.0), abs(slopes[1] - 4.0)
    ok = d2 <= d1 + 1e-12 and d2 <= 0.1 and elapsed < 5.0
    _line(5, ok, f"slope estimates {slopes[0]:.6f} -> {slopes[1]:.6f}, "
                 f"|err| {d1:.2e} -> {d2:.2e} <= 0.1 ({elapsed:.2f}s < 5s)")
    assert ok


def test_criterion_06_enumeration_matches_brute_force(planar2):
    t0 = time.perf_counter()
    p_star = solve_dare(planar2).p_star

    # Orbit distances fix the radius range so every predicate has k_Gamma in
    # [1, 14]; radii are drawn log-uniformly with a fixed generator.
    orbit, dists = p_star, []
    for _ in range(14):
        orbit = lyapunov_step(planar2, orbit)
        dists.append(spectral_norm(orbit - p_star))
    rng = np.random.default_rng(20240817)
    radii = np.exp(rng.uniform(math.log(0.5 * dists[0]),
                               math.log(0.98 * dists[-1]), size=20))

    f0, f1 = oracles.make_batched_maps(oracles.A_PLANAR, oracles.C_PLANAR,
                                       oracles.Q_PLANAR, oracles.R_PLANAR)
    levels = oracles.value_tree(f0, f1, p_star.a, 17)
    level_dists = [oracles.spectral_norms(v - p_star.a) for v in levels]
    level_zeros = [L - oracles.popcounts(len(levels[L])) for L in range(18)]

    mismatches = []
    for radius in radii:
        sol = rate_over_set(planar2, EventPredicate.ball_complement(float(radius)),
                            p_star=p_star)
        assert math.isfinite(sol.k_gamma) and sol.k_gamma <= 14
        depth = int(sol.k_gamma) + 3
        best = math.inf
        for L in range(depth + 1):
            hit = level_dists[L] >= radius
            if hit.any():
                best = min(best, int(level_zeros[L][hit].min()))
        if best != sol.exponent:
            mismatches.append((float(radius), sol.exponent, best))
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    _line(6, ok, f"20/20 predicates agree with brute force to depth "
                 f"k_Gamma+3 ({elapsed:.1f}s)" if ok else
          f"mismatches: {mismatches}")
    assert ok


def test_criterion_07_property_suites(scalar, planar2):
    t0 = time.perf_counter()
    models = ((scalar, solve_dare(scalar).p_star),
              (planar2, solve_dare(planar2).p_star))
    failures = []

    # Monotonicity of both maps and f1 <= f0, 500 cases per model.
    for model, _ in models:
        rng = np.random.default_rng(101)
        n = model.dim_state
        for _ in range(500):
            x = random_psd(rng, n, scale=float(10.0 ** rng.uniform(-1, 3)))
            y = x + random_psd(rng, n, scale=float(10.0 ** rng.uniform(-1, 2)))
            if not loewner_leq(riccati_step(model, x), riccati_step(model, y)):
                failures.append("monotone-f1")
            if not loewner_leq(lyapunov_step(model, x), lyapunov_step(model, y)):
                failures.append("monotone-f0")
            if not loewner_leq(riccati_step(model, x), lyapunov_step(model, x)):
                failures.append("f1-below-f0")

    # String upper bound, 500 random words per model.
    for model, p_star in models:
        rng = np.random.default_rng(102)
        for _ in range(500):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=rng.integers(0, 13)))
            r = GammaString(bits=bits, initial=p_star)
            bound, _scale = string_upper_bound(model, r)
            if not loewner_leq(eval_string(model, r).value, bound, tol=1e-7):
                failures.append("string-upper-bound")

    # Support ordering on sampled invariant chains: P* below every sample.
    for model, p_star in models:
        cfg = SimulationConfig(gamma_bar=0.6, n_samples=500, burn_in=100, seed=77)
        d = sample_invariant(model, cfg)
        for s in d.samples:
            if not loewner_leq(p_star, SymMatrix(s), tol=1e-8):
                failures.append("support-ordering")

    # Finite-dim normalization at 500 random (horizon, gamma) pairs per model.
    for model, p_star in models:
        rng = np.random.default_rng(103)
        dists = {t: finite_dim_exact(model, p_star, [t]) for t in range(1, 11)}
        for _ in range(500):
            t = int(rng.integers(1, 11))
            g = float(rng.uniform(0.01, 0.99))
            if abs(dists[t].total_probability(g) - 1.0) > 1e-12:
                failures.append("finite-dim-normalization")

    # Escape-index adjacency, 500 radii per model.
    for model, p_star in models:
        rng = np.random.default_rng(104)
        for _ in range(500):
            radius = float(10.0 ** rng.uniform(-1.0, 3.0))
            lo = iota(model, radius, cap=60, p_star=p_star)
            hi = iota_plus(model, radius, cap=60, p_star=p_star)
            if not lo <= hi <= lo + 1:
                failures.append("iota-adjacency")

    elapsed = time.perf_counter() - t0
    ok = not failures
    detail = (f"6 property families x 2 models x >= 500 cases, all hold "
              f"({elapsed:.1f}s)" if ok else
              f"violations: {sorted(set(failures))}")
    _line(7, ok, detail)
    assert ok


def test_criterion_08_tail_bound_dominates(scalar):
    t0 = time.perf_counter()
    n_chains, horizon = 10_000, 200
    rows = []
    ok = True
    for gamma in (0.4, 0.6, 0.8):
        rep = exceedance_sup(scalar, gamma, [50.0, 100.0, 200.0],
                             horizon=horizon, n_chains=n_chains, seed=314)
        for thr, freq in zip(rep.thresholds, rep.sup_frequency):
            tb = tail_bound(scalar, gamma, thr)
            se = math.sqrt(freq * (1.0 - freq) / n_chains)
            hold = freq <= tb.bound + 3.0 * se
            ok = ok and hold
            rows.append(f"g={gamma} M={int(thr)}: {freq:.4f} <= {tb.bound:.4f}+3se")
    elapsed = time.perf_counter() - t0
    detail = (f"9/9 cells dominated ({elapsed:.1f}s < 120s)" if ok
              else "; ".join(r for r in rows))
    ok = ok and elapsed < 120.0
    _line(8, ok, detail)
    assert ok


def test_criterion_09_prohorov_trend(scalar, pstar):
    t0 = time.perf_counter()
    distances = []
    for j, gamma in enumerate((0.6, 0.75, 0.9)):
        cfg = SimulationConfig(gamma_bar=gamma, n_samples=10_000, burn_in=100,
                               seed=(4242, j))
        d = sample_invariant(scalar, cfg)
        distances.append(prohorov_distance_scalar(d, pstar.item()))
    elapsed = time.perf_counter() - t0
    ok = distances[0] > distances[1] > distances[2]
    _line(9, ok, "d_P = " + " > ".join(f"{d:.4f}" for d in distances) +
          f" strictly decreasing ({elapsed:.1f}s)")
    assert ok


def test_criterion_10_reproducibility(tmp_path):
    from riccati_mdp import cli

    t0 = time.perf_counter()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli.main(["reproduce-scalar", "--out", str(out1)])
    code2 = cli.main(["reproduce-scalar", "--out", str(out2)])
    same = {
        name: (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("probs.csv", "fit.csv", "cdf.csv", "summary.json")
    }
    elapsed = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and all(same.values())
    detail = (f"two runs byte-identical across {len(same)} artifacts, "
              f"exit codes ({code1}, {code2}) ({elapsed:.1f}s)" if ok else
              f"exit codes ({code1}, {code2}), mismatched: "
              f"{[n for n, s in same.items() if not s]}")
    _line(10, ok, detail)
    assert ok
