"""Command-line front end.

Subcommands: simulate, invariant, rate, exponent, reproduce-scalar, validate.
Each registers only the options its handler reads, so an option another
subcommand takes is a usage error (exit 2).  `rate` gets every exponent from
`rate_over_set`, whatever the model and predicate.  Each config block is
read against one table (`_TABLES`).  Exit codes are stable: 0 success, 2
configuration problem (an unreadable file, bad JSON, a config that is not a
JSON object, unknown or missing keys, text, a boolean or a fraction where a
number or integer belongs, inadmissible model), 3 numeric failure
(non-convergence, degenerate fits, a `LinAlgError` from the numeric core).
Every CSV artifact goes through the columnar writer of `csvout`: floats are
written byte for byte as Python's `'%.17g' % x`, so files parse back
losslessly and reruns with one seed are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .csvout import cells, write_csv
from .linalg import SystemModel, validate_system
from .models import scalar_study_model
from .montecarlo import (
    SimulationConfig,
    decay_exponent_fit,
    sample_invariant,
    simulate_rre,
)
from .operators import solve_dare
from .rate import DEFAULT_K_CAP, EventPredicate, iota, rate_over_set

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


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("must be a number")
    return float(value)


def _integer(value) -> int:
    if not _real(value).is_integer():
        raise ValueError("must be an integer")
    return int(value)


def _seed(value) -> int:
    if _integer(value) < 0:
        raise ValueError("must be a non-negative integer")
    return int(value)


def _floats(value) -> list:
    if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ValueError("must be a list of numbers")
    return [float(v) for v in value]


def _predicate(value) -> EventPredicate:
    if not isinstance(value, str):
        raise ValueError('must be text such as "ballc:5"')
    return EventPredicate.from_spec(value)


# One table per config block: each key's reader and, for an optional key,
# its default.  Model matrices pass as written; SystemModel checks them.
_REQUIRED = object()
_TABLES = {
    "model": dict.fromkeys(("A", "C", "Q", "R", "P0"), (lambda matrix: matrix, _REQUIRED)),
    "simulate": {"gamma": (_real, _REQUIRED), "horizon": (_integer, _REQUIRED),
                 "seed": (_seed, 0)},
    "invariant": {"gamma": (_real, _REQUIRED), "n_samples": (_integer, _REQUIRED),
                  "burn_in": (_integer, _REQUIRED), "seed": (_seed, 0)},
    "rate": {"predicate": (_predicate, _REQUIRED), "k_cap": (_integer, DEFAULT_K_CAP)},
    "exponent": {"predicate": (_predicate, _REQUIRED), "gamma_grid": (_floats, _REQUIRED),
                 "n_samples": (_integer, _REQUIRED), "burn_in": (_integer, _REQUIRED),
                 "seed": (_seed, 0)},
}


def _value(where: str, key: str, reader, value):
    if value is _REQUIRED:
        raise ConfigError(f'{where} config is missing "{key}"')
    try:
        return reader(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f'{where} "{key}" = {json.dumps(value)}: {exc}') from exc


def _object(what: str, value, allowed: dict) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {json.dumps(value)}")
    for key in value:
        if key not in allowed:
            raise ConfigError(f'{what} has unknown key "{key}"; allowed: '
                              + ", ".join(f'"{k}"' for k in allowed))
    return value


def _read(config, name: str, seed=None) -> dict:
    """Block `name` of a config, read by its table; `seed` (--seed) overrides "seed".

    The config's top-level keys must name blocks, and the block's keys its
    fields.  A seed for a block whose table has no "seed" is a ConfigError.
    """
    _object("the config", config, _TABLES)
    if name not in config:
        raise ConfigError(f'config is missing the "{name}" block')
    block = _object(f'"{name}"', config[name], _TABLES[name])
    fields = {key: _value(name, key, reader, block.get(key, default))
              for key, (reader, default) in _TABLES[name].items()}
    if seed is not None:
        if "seed" not in fields:
            raise ConfigError(f'the "{name}" block reads no "seed"')
        fields["seed"] = _value("option", "--seed", _seed, seed)
    return fields


def _model_from_config(config, check: bool = True) -> SystemModel:
    try:
        model = SystemModel(**_read(config, "model"))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    if check:
        report = validate_system(model)
        if not report.passed:
            names = "; ".join(c.name for c in report.failures())
            raise ConfigError(f"model failed validation: {names}")
    return model


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _entry_header(dim: int) -> list:
    return [f"p_{i}_{j}" for i in range(dim) for j in range(dim)]


def cmd_validate(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config, check=False)
    report = validate_system(model)
    print(report)
    return EXIT_OK if report.passed else EXIT_CONFIG


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config)
    fields = _read(config, "simulate", args.seed)
    cfg = SimulationConfig(gamma_bar=fields["gamma"], horizon=fields["horizon"],
                           seed=fields["seed"])
    traj = simulate_rre(model, cfg)

    out = _out_dir(args)
    entries = np.array([p.a.ravel() for p in traj.path])
    # P_t for t = 0..horizon; the last has no arrival after it.
    columns = [np.arange(len(entries)), [*traj.arrivals, ""], *entries.T]
    write_csv(out / "trajectory.csv", ["t", "gamma_t"] + _entry_header(model.dim_state),
              [[cells(c) for c in columns]])
    print(f"wrote {out / 'trajectory.csv'} ({len(entries)} rows)")
    return EXIT_OK


def cmd_invariant(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config)
    fields = _read(config, "invariant", args.seed)
    cfg = SimulationConfig(gamma_bar=fields["gamma"], n_samples=fields["n_samples"],
                           burn_in=fields["burn_in"], seed=fields["seed"])
    dist = sample_invariant(model, cfg)
    dist.require_finite()

    out = _out_dir(args)
    columns = [np.arange(dist.n), *dist.samples.reshape(dist.n, -1).T]
    write_csv(out / "samples.csv", ["chain_id"] + _entry_header(model.dim_state),
              [[cells(c) for c in columns]])
    print(f"wrote {out / 'samples.csv'} ({dist.n} rows)")
    return EXIT_OK


def cmd_rate(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config)
    fields = _read(config, "rate")

    p_star = solve_dare(model).p_star
    solution = rate_over_set(model, fields["predicate"], k_cap=fields["k_cap"],
                             p_star=p_star)
    payload = solution.to_dict()
    payload["method"] = "enumeration"

    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        out = _out_dir(args)
        with open(out / "rate.json", "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _write_fit(out: Path, fit) -> None:
    """probs.csv, one row per gridpoint, and fit.csv, one row."""
    probs = [fit.gamma_grid, fit.probs, fit.hits, fit.n_samples, fit.censored]
    write_csv(out / "probs.csv", _PROBS_HEADER, [[cells(c) for c in probs]])
    drift = fit.burn_in_drift
    row = [
        fit.slope, fit.intercept, fit.stderr, fit.points_used,
        fit.n_samples, fit.burn_in,
        drift["gamma_bar"], drift["p_at_burn_in"],
        drift["p_at_half_burn_in"], drift["within_2se"],
    ]
    write_csv(out / "fit.csv", _FIT_HEADER, [[cells(v) for v in row]])


def _print_drift(fit) -> None:
    d = fit.burn_in_drift
    print(f"burn-in drift at gamma_bar {d['gamma_bar']:g}: p_hat {d['p_at_half_burn_in']:.6g} "
          f"after {fit.burn_in // 2} steps, {d['p_at_burn_in']:.6g} after {fit.burn_in}; "
          f"{'' if d['within_2se'] else 'NOT '}within 2 standard errors")


_PROBS_HEADER = ["gamma_bar", "p_hat", "hits", "n_samples", "censored"]
_FIT_HEADER = [
    "slope", "intercept", "stderr", "points_used", "n_samples", "burn_in",
    "drift_gamma_bar", "drift_p_hat", "drift_p_hat_half", "drift_within_2se",
]


def cmd_exponent(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(config)
    fields = _read(config, "exponent", args.seed)
    fit = decay_exponent_fit(model, fields["predicate"], fields["gamma_grid"],
                             n_samples=fields["n_samples"], burn_in=fields["burn_in"],
                             seed=fields["seed"])

    _write_fit(_out_dir(args), fit)
    print(f"slope {fit.slope:.6f} (stderr {fit.stderr:.6f}) "
          f"from {fit.points_used} gridpoints")
    _print_drift(fit)
    return EXIT_OK


def cmd_reproduce_scalar(args) -> int:
    model = scalar_study_model()
    grid = STUDY_GRID_FULL if args.full else STUDY_GRID
    seed = STUDY_SEED if args.seed is None else _value("option", "--seed", _seed, args.seed)

    p_star = solve_dare(model).p_star
    radius = 40.0 - p_star.item()
    pred = EventPredicate.ball_complement(radius)

    fit = decay_exponent_fit(model, pred, grid, n_samples=STUDY_N_SAMPLES,
                             burn_in=STUDY_BURN_IN, seed=seed)
    exact = iota(model, radius, p_star=p_star)

    out = _out_dir(args)
    _write_fit(out, fit)

    # The fit's own samples, one block per gridpoint: gridpoint j was drawn
    # with seed (seed, j).  Every gridpoint shares one cdf column.
    n = STUDY_N_SAMPLES
    cdf = cells(np.arange(1, n + 1) / n)
    write_csv(out / "cdf.csv", ["gamma_bar", "x", "cdf"],
              ([cells(gamma), cells(np.sort(dist.scalar_values())), cdf]
               for gamma, dist in zip(grid, fit.distributions)))

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
    _print_drift(fit)
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

    def add(name, handler, help_text, *options):
        """Subcommand reading the named options: config, out and seed."""
        p = sub.add_parser(name, help=help_text)
        if "config" in options:
            p.add_argument("--config", required=True, help="JSON configuration file")
        if "out" in options:
            p.add_argument("--out", default=None, help="directory for output artifacts")
        if "seed" in options:
            p.add_argument("--seed", type=int, default=None,
                           help="override the seed of the config or study")
        p.set_defaults(handler=handler)
        return p

    add("simulate", cmd_simulate, "one covariance path to CSV", "config", "out", "seed")
    add("invariant", cmd_invariant, "sample the long-run covariance law",
        "config", "out", "seed")
    add("rate", cmd_rate, "exact decay exponent of an event, by word-tree enumeration",
        "config", "out")
    add("exponent", cmd_exponent, "Monte-Carlo decay-exponent fit", "config", "out", "seed")
    p = add("reproduce-scalar", cmd_reproduce_scalar,
            "rerun the scalar rare-event study end to end", "out", "seed")
    p.add_argument("--full", action="store_true",
                   help="extend the arrival-rate grid to 0.95")
    add("validate", cmd_validate, "check a model's admissibility", "config")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
