"""Command-line front end.

Subcommands: simulate, invariant, rate, exponent, reproduce-scalar, validate.
Exit codes are stable: 0 success, 2 configuration problem (bad JSON, missing
fields, inadmissible model), 3 numeric failure (non-convergence, degenerate
fits, a `LinAlgError` from the numeric core).  All CSV floats are printed
with 17 significant digits so files parse back losslessly and reruns with one
seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .linalg import SystemModel, validate_system
from .models import scalar_study_model
from .montecarlo import (
    SimulationConfig,
    decay_exponent_fit,
    sample_invariant,
    simulate_rre,
)
from .operators import solve_dare
from .rate import DEFAULT_K_CAP, EventPredicate, iota, iota_plus, rate_over_set

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

STUDY_SEED = 2024
STUDY_GRID = (0.55, 0.60, 0.65, 0.70, 0.75, 0.80)
STUDY_GRID_FULL = STUDY_GRID + (0.85, 0.90, 0.95)
STUDY_N_SAMPLES = 10_000
STUDY_BURN_IN = 100
SLOPE_WINDOW = (3.0, 5.0)


class ConfigError(Exception):
    """Anything wrong with user-supplied configuration."""


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f'{where} config is missing "{key}"')
    return block[key]


def _block(config: dict, name: str) -> dict:
    block = _require(config, name, "top-level")
    if not isinstance(block, dict):
        raise ConfigError(f'"{name}" must be a JSON object')
    return block


def _model_from_config(config: dict, check: bool = True) -> SystemModel:
    raw = _block(config, "model")
    try:
        model = SystemModel.from_dict(raw)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    if check:
        report = validate_system(model)
        if not report.passed:
            names = "; ".join(c.name for c in report.failures())
            raise ConfigError(f"model failed validation: {names}")
    return model


def _resolve_seed(args, block: dict, default: int = 0) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(block.get("seed", default))


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _entry_header(dim: int) -> list:
    return [f"p_{i}_{j}" for i in range(dim) for j in range(dim)]


def _predicate_from_block(block: dict, where: str) -> EventPredicate:
    text = _require(block, "predicate", where)
    try:
        return EventPredicate.from_spec(str(text))
    except ValueError as exc:
        raise ConfigError(f"{where} predicate: {exc}") from exc


def cmd_validate(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config, check=False)
    report = validate_system(model)
    print(report)
    return EXIT_OK if report.passed else EXIT_CONFIG


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config)
    block = _block(config, "simulate")
    gamma = float(_require(block, "gamma", "simulate"))
    horizon = int(_require(block, "horizon", "simulate"))
    seed = _resolve_seed(args, block)
    try:
        cfg = SimulationConfig(gamma_bar=gamma, horizon=horizon, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"simulate: {exc}") from exc
    traj = simulate_rre(model, cfg)

    out = _out_dir(args)
    dim = model.dim_state
    rows = []
    for t, p in enumerate(traj.path):
        gamma_t = traj.arrivals[t] if t < len(traj.arrivals) else ""
        rows.append([t, gamma_t] + [float(v) for v in p.a.ravel()])
    _write_csv(out / "trajectory.csv", ["t", "gamma_t"] + _entry_header(dim), rows)
    print(f"wrote {out / 'trajectory.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_invariant(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config)
    block = _block(config, "invariant")
    gamma = float(_require(block, "gamma", "invariant"))
    n_samples = int(_require(block, "n_samples", "invariant"))
    burn_in = int(_require(block, "burn_in", "invariant"))
    seed = _resolve_seed(args, block)
    try:
        cfg = SimulationConfig(gamma_bar=gamma, n_samples=n_samples,
                               burn_in=burn_in, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"invariant: {exc}") from exc
    dist = sample_invariant(model, cfg)
    dist.require_finite()

    out = _out_dir(args)
    rows = [
        [i] + [float(v) for v in dist.samples[i].ravel()]
        for i in range(dist.n)
    ]
    _write_csv(out / "samples.csv", ["chain_id"] + _entry_header(model.dim_state), rows)
    print(f"wrote {out / 'samples.csv'} ({dist.n} rows)")
    return EXIT_OK


def cmd_rate(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config)
    block = _block(config, "rate")
    pred = _predicate_from_block(block, "rate")
    k_cap = int(block.get("k_cap", DEFAULT_K_CAP))

    p_star = solve_dare(model).p_star
    fast_ok = (
        model.dim_state == 1 and pred.kind == "ballc" and pred.center is None
    )
    if args.verify and not fast_ok:
        raise ConfigError("--verify applies only to the orbit fast path "
                          "(scalar models with a ballc predicate)")
    payload: dict
    if fast_ok:
        escape = iota_plus if pred.open_ else iota
        # Same cap as the enumeration path, so --verify compares like with like.
        exponent = escape(model, pred.threshold, cap=k_cap, p_star=p_star)
        payload = {
            "exponent": exponent if math.isfinite(exponent) else "inf",
            "k_gamma": exponent if math.isfinite(exponent) else "inf",
            "minimizer": f"0^{int(exponent)}" if math.isfinite(exponent) and exponent > 0
                         else ("" if exponent == 0 else None),
            "strings_examined": int(exponent) + 1 if math.isfinite(exponent) else 0,
            "method": "orbit-fast-path",
        }
        if args.verify:
            solution = rate_over_set(model, pred, k_cap=k_cap, p_star=p_star)
            if solution.exponent != exponent:
                raise RuntimeError(
                    f"fast path exponent {exponent} disagrees with enumeration "
                    f"{solution.exponent}"
                )
            payload["verified"] = True
            payload["strings_examined"] = solution.strings_examined
    else:
        solution = rate_over_set(model, pred, k_cap=k_cap, p_star=p_star)
        payload = solution.to_dict()
        payload["method"] = "enumeration"

    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        out = _out_dir(args)
        with open(out / "rate.json", "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _fit_rows(fit) -> tuple[list, list]:
    prob_rows = [
        [g, p, h, fit.n_samples, c]
        for g, p, h, c in zip(fit.gamma_grid, fit.probs, fit.hits, fit.censored)
    ]
    drift = fit.burn_in_drift or {}
    fit_row = [
        fit.slope, fit.intercept, fit.stderr, fit.points_used,
        fit.n_samples, fit.burn_in,
        drift.get("gamma_bar", ""), drift.get("p_at_burn_in", ""),
        drift.get("p_at_doubled_burn_in", ""), drift.get("within_2se", ""),
    ]
    return prob_rows, fit_row


_PROBS_HEADER = ["gamma_bar", "p_hat", "hits", "n_samples", "censored"]
_FIT_HEADER = [
    "slope", "intercept", "stderr", "points_used", "n_samples", "burn_in",
    "drift_gamma_bar", "drift_p_hat", "drift_p_hat_doubled", "drift_within_2se",
]


def cmd_exponent(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config)
    block = _block(config, "exponent")
    pred = _predicate_from_block(block, "exponent")
    grid = _require(block, "gamma_grid", "exponent")
    n_samples = int(_require(block, "n_samples", "exponent"))
    burn_in = int(_require(block, "burn_in", "exponent"))
    seed = _resolve_seed(args, block)

    try:
        fit = decay_exponent_fit(model, pred, grid, n_samples=n_samples,
                                 burn_in=burn_in, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"exponent: {exc}") from exc

    out = _out_dir(args)
    prob_rows, fit_row = _fit_rows(fit)
    _write_csv(out / "probs.csv", _PROBS_HEADER, prob_rows)
    _write_csv(out / "fit.csv", _FIT_HEADER, [fit_row])
    print(f"slope {fit.slope:.6f} (stderr {fit.stderr:.6f}) "
          f"from {fit.points_used} gridpoints")
    return EXIT_OK


def cmd_reproduce_scalar(args) -> int:
    model = scalar_study_model()
    grid = STUDY_GRID_FULL if args.full else STUDY_GRID
    seed = args.seed if args.seed is not None else STUDY_SEED

    p_star = solve_dare(model).p_star
    radius = 40.0 - p_star.item()
    pred = EventPredicate.ball_complement(radius)

    fit = decay_exponent_fit(model, pred, grid, n_samples=STUDY_N_SAMPLES,
                             burn_in=STUDY_BURN_IN, seed=seed)
    exact = iota(model, radius, p_star=p_star)

    out = _out_dir(args)
    prob_rows, fit_row = _fit_rows(fit)
    _write_csv(out / "probs.csv", _PROBS_HEADER, prob_rows)
    _write_csv(out / "fit.csv", _FIT_HEADER, [fit_row])

    # The fit's own samples: gridpoint j was drawn with seed (seed, j).  Each
    # sample size's cdf column is formatted once, into per-line templates
    # "%.17g,<cdf>\n"; a gridpoint joins them with its gamma field and
    # formats all its values with one %.  Gridpoints are written one at a
    # time: one string for the whole file raised peak memory by about 10 MB.
    cdf_tails = {}
    with open(out / "cdf.csv", "w", newline="") as fh:
        fh.write("gamma_bar,x,cdf\n")
        for gamma, dist in zip(grid, fit.distributions):
            values = np.sort(dist.scalar_values())
            n = values.size
            if n not in cdf_tails:
                cdf_tails[n] = ["%%.17g,%.17g\n" % (i / n) for i in range(1, n + 1)]
            head = "%.17g," % gamma
            fh.write((head + head.join(cdf_tails[n])) % tuple(values.tolist()))

    lo, hi = SLOPE_WINDOW
    passed = lo <= fit.slope <= hi and exact == 4
    summary = {
        "event": f"ballc:{format(radius, '.17g')}",
        "gamma_grid": list(grid),
        "n_samples": STUDY_N_SAMPLES,
        "burn_in": STUDY_BURN_IN,
        "seed": seed,
        "fitted_slope": fit.slope,
        "stderr": fit.stderr,
        "intercept": fit.intercept,
        "exact_exponent": int(exact) if math.isfinite(exact) else "inf",
        "slope_window": [lo, hi],
        "pass": passed,
    }
    _write_json(out / "summary.json", summary)

    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict}: fitted slope {fit.slope:.4f} in [{lo}, {hi}] "
          f"with exact exponent {summary['exact_exponent']}")
    return EXIT_OK if passed else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riccati-mdp",
        description=(
            "Covariance iteration with Bernoulli observation arrivals: "
            "simulation, exact decay exponents, and rare-event studies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="directory for output artifacts")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed from the config")

    p = sub.add_parser("simulate", help="one covariance path to CSV")
    add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("invariant", help="sample the long-run covariance law")
    add_common(p)
    p.set_defaults(handler=cmd_invariant)

    p = sub.add_parser("rate", help="exact decay exponent of an event")
    add_common(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check the orbit fast path against the word-tree "
                        "enumeration (scalar models with a ballc predicate only)")
    p.set_defaults(handler=cmd_rate)

    p = sub.add_parser("exponent", help="Monte-Carlo decay-exponent fit")
    add_common(p)
    p.set_defaults(handler=cmd_exponent)

    p = sub.add_parser("reproduce-scalar",
                       help="rerun the scalar rare-event study end to end")
    add_common(p, config_required=False)
    p.add_argument("--full", action="store_true",
                   help="extend the arrival-rate grid to 0.95")
    p.set_defaults(handler=cmd_reproduce_scalar)

    p = sub.add_parser("validate", help="check a model's admissibility")
    add_common(p)
    p.set_defaults(handler=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but raised by the numeric core, not by input.
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
