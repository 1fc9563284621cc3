"""Span wrappers for the traced benchmark run.

The package has no instrumentation of its own, so the traced run measures
from outside: it replaces each public function listed in `TARGETS` by a
wrapper that times the call and tallies it.  Nothing here is imported or
installed unless the benchmark runs with `--trace 1`.

A function imported by name into another module (for example
`from .operators import riccati_step` in `rate`) lives on as a second
binding in that module's namespace.  `Tracer.install` therefore rebinds
the wrapper under every name, in every loaded `riccati_mdp` module, that
points at the original object; otherwise calls made inside the package
would bypass the span.  Private helpers are deliberately not wrapped:
their cost lands in the self time of the public function that called them,
so refactoring them never breaks the benchmark.

Self time of a span is its duration minus the time covered by the spans it
directly caused.  Spans are folded into per-function totals as they close
instead of being stored, because the planar word-tree walk makes hundreds
of thousands of calls per job list.

Which end-to-end metric each group of per-layer metrics should move:

* montecarlo (sample_invariant, the chain probes, decay_exponent_fit,
  event_probability): wall_s on scalar-study (set-up and N=1 step) and on
  planar-mc (N=2 step); no change on planar-exact.  exceedance_sup and
  tail_bound: wall_s on planar-mc.
* rate (rate_over_set, finite_dim_exact, iota, EventPredicate): wall_s and
  peak_rss_mb on planar-exact; EventPredicate.batch is a small share of
  scalar-study and planar-mc.
* strings (value_key): wall_s on planar-exact.
* operators: lyapunov_step and riccati_step move wall_s on planar-exact
  (one call per tree node); uniform_bound_kappa moves wall_s on planar-mc
  (tail_bound); solve_dare moves setup_s on every workload.
* linalg (spectral_norm, validate_system, SymMatrix constructions): wall_s
  on planar-exact, where every step checks and builds matrices.
* cli (main self time: config parsing, CSV and JSON writing): wall_s on
  scalar-study, which writes a 60 000-row cdf.csv per pass.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (metric prefix, module, attribute path, extra counters).  An extra counter
# maps the call's result to a count added under "<prefix>.<counter name>".
TARGETS = (
    ("cli.main", "riccati_mdp.cli", "main", {}),
    ("montecarlo.sample_invariant", "riccati_mdp.montecarlo", "sample_invariant",
     {"chain_steps": lambda r: r.n * r.burn_in}),
    ("montecarlo.decay_exponent_fit", "riccati_mdp.montecarlo", "decay_exponent_fit", {}),
    ("montecarlo.event_probability", "riccati_mdp.montecarlo", "event_probability", {}),
    ("montecarlo.exceedance_sup", "riccati_mdp.montecarlo", "exceedance_sup", {}),
    ("montecarlo.tail_bound", "riccati_mdp.montecarlo", "tail_bound", {}),
    ("rate.rate_over_set", "riccati_mdp.rate", "rate_over_set",
     {"nodes": lambda r: r.strings_examined}),
    ("rate.finite_dim_exact", "riccati_mdp.rate", "finite_dim_exact",
     {"atoms": lambda r: len(r.atoms)}),
    ("rate.iota", "riccati_mdp.rate", "iota", {}),
    ("rate.EventPredicate.matches", "riccati_mdp.rate", "EventPredicate.matches", {}),
    ("rate.EventPredicate.batch", "riccati_mdp.rate", "EventPredicate.batch",
     {"matrices": lambda r: r.size}),
    ("strings.value_key", "riccati_mdp.strings", "value_key", {}),
    ("operators.lyapunov_step", "riccati_mdp.operators", "lyapunov_step", {}),
    ("operators.riccati_step", "riccati_mdp.operators", "riccati_step", {}),
    ("operators.solve_dare", "riccati_mdp.operators", "solve_dare",
     {"iterations": lambda r: r.iterations}),
    ("operators.uniform_bound_kappa", "riccati_mdp.operators", "uniform_bound_kappa", {}),
    ("linalg.spectral_norm", "riccati_mdp.linalg", "spectral_norm", {}),
    ("linalg.validate_system", "riccati_mdp.linalg", "validate_system", {}),
)

# Counted, not timed: a span per matrix construction would cost more than
# the construction itself.
CONSTRUCTION_COUNTER = "linalg.SymMatrix.constructed"

LAYERS = ("cli", "montecarlo", "rate", "strings", "operators", "linalg")


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Installs span wrappers into the package and folds spans into totals."""

    def __init__(self):
        self.stats = {prefix: FunctionStats() for prefix, *_ in TARGETS}
        self.constructed = 0
        # One entry per open span: time covered by its direct children so far.
        self._child_time: list[float] = []
        self._restore: list[tuple] = []

    def _wrap(self, prefix: str, fn, counters: dict):
        stats = self.stats[prefix]
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                stats.calls += 1
                stats.self_s += duration - covered
                stats.total_s += duration
            for name, count in counters.items():
                stats.counters[name] = stats.counters.get(name, 0) + count(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("span wrappers are already installed")
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "riccati_mdp" or name.startswith("riccati_mdp.")}
        for prefix, module, path, counters in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = package[module]
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(prefix, original, counters)
            if owner_name:
                self._rebind(owner, attr, original, wrapper)
                continue
            # Every module namespace that imported the function by name.
            for mod in package.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapper)

        sym = package["riccati_mdp.linalg"].SymMatrix
        original_init = sym.__dict__["__init__"]

        def counting_init(obj, values):
            self.constructed += 1
            original_init(obj, values)

        self._rebind(sym, "__init__", original_init, counting_init)

    def _rebind(self, owner, name: str, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
