"""Decay exponents of rare covariance events, by exact word enumeration.

With arrival probability g close to 1, the chance that the running covariance
sits in a set G far from the fixed point P* decays like (1 - g)^e.  The
exponent e is a variational quantity: the fewest open-loop updates any word
needs in order to carry P* into G.  This module computes it exactly.

The search space is cut down by one observation: if the open-loop orbit
f0^k(P*) first enters G at step k_G, then words longer than k_G cannot lower
the minimum, so enumeration over lengths <= k_G suffices.  Enumeration runs
in order of increasing open-loop count and stops at the first hit, which is
equivalent to scanning everything (property-tested against brute force).

Exact finite-time distributions are also computed here: for small horizons
the chain's law is a finite mixture over arrival paths, and each atom's
probability is a polynomial in g whose lowest-order term gives the atom's
decay exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .linalg import SymMatrix, as_sym, loewner_leq, spectral_norm
from .operators import lyapunov_step, norms, random_psd, riccati_step, solve_dare
from .strings import GammaString, value_key

# Hard ceiling on enumeration depth: 2^26 states is the direct-search limit.
K_CAP_LIMIT = 26
DEFAULT_K_CAP = 22
IOTA_CAP = 1000
FINITE_DIM_MAX_HORIZON = 22


class EventPredicate:
    """Membership test for a set of covariance matrices.

    Three built-in shapes cover the rare events of interest:

    * ``ball_complement(M)``: points at distance >= M (or > M when open)
      from a center, default the model fixed point;
    * ``norm_above(b)``: points with spectral norm > b;
    * ``custom(fn)``: arbitrary user test.

    A center of None is resolved to the fixed point by whoever evaluates the
    predicate, so one predicate value can serve several models.
    """

    __slots__ = ("kind", "threshold", "center", "open_", "fn")

    def __init__(self, kind, threshold=math.nan, center=None, open_=False, fn=None):
        self.kind = kind
        self.threshold = float(threshold) if threshold is not None else math.nan
        self.center = as_sym(center) if center is not None else None
        self.open_ = bool(open_)
        self.fn = fn

    @classmethod
    def ball_complement(cls, m_radius: float, center: Optional[SymMatrix] = None,
                        open_: bool = False) -> "EventPredicate":
        if not m_radius > 0.0:
            raise ValueError(f"ball-complement radius must be positive, got {m_radius}")
        return cls("ballc", threshold=m_radius, center=center, open_=open_)

    @classmethod
    def norm_above(cls, b: float) -> "EventPredicate":
        if not b >= 0.0:
            raise ValueError(f"norm threshold must be nonnegative, got {b}")
        return cls("norm-above", threshold=b)

    @classmethod
    def custom(cls, fn: Callable[[SymMatrix], bool]) -> "EventPredicate":
        return cls("custom", fn=fn)

    @classmethod
    def from_spec(cls, text: str) -> "EventPredicate":
        """Parse "ballc:M", "ballc-open:M", or "norm-above:b"."""
        head, sep, tail = text.partition(":")
        if not sep:
            raise ValueError(f"predicate {text!r} must look like 'kind:threshold'")
        try:
            threshold = float(tail)
        except ValueError as exc:
            raise ValueError(f"predicate threshold {tail!r} is not a number") from exc
        if head == "ballc":
            return cls.ball_complement(threshold)
        if head == "ballc-open":
            return cls.ball_complement(threshold, open_=True)
        if head == "norm-above":
            return cls.norm_above(threshold)
        raise ValueError(f"unknown predicate kind {head!r}")

    def to_spec(self) -> str:
        if self.kind == "ballc":
            return f"{'ballc-open' if self.open_ else 'ballc'}:{self.threshold!r}"
        if self.kind == "norm-above":
            return f"norm-above:{self.threshold!r}"
        return "custom"

    def _resolved_center(self, p_star: Optional[SymMatrix]) -> SymMatrix:
        if self.center is not None:
            return self.center
        if p_star is None:
            raise ValueError("predicate needs the model fixed point to resolve its center")
        return p_star

    def matches(self, x: SymMatrix, p_star: Optional[SymMatrix] = None) -> bool:
        x = as_sym(x)
        if self.kind == "ballc":
            dist = spectral_norm(x - self._resolved_center(p_star))
            return dist > self.threshold if self.open_ else dist >= self.threshold
        if self.kind == "norm-above":
            return spectral_norm(x) > self.threshold
        if self.kind == "custom":
            return bool(self.fn(x))
        raise ValueError(f"unknown predicate kind {self.kind!r}")

    def batch(self, values: np.ndarray, p_star: Optional[SymMatrix] = None) -> np.ndarray:
        """Vectorized membership over a stack of symmetric matrices (n, N, N)."""
        values = np.asarray(values, dtype=float)
        if self.kind == "custom":
            return np.array([bool(self.fn(SymMatrix(v))) for v in values], dtype=bool)
        if self.kind == "ballc":
            delta = values - self._resolved_center(p_star).a
            dist = norms(delta)
            return dist > self.threshold if self.open_ else dist >= self.threshold
        if self.kind == "norm-above":
            return norms(values) > self.threshold
        raise ValueError(f"unknown predicate kind {self.kind!r}")


def iota(m, m_radius: float, cap: int = IOTA_CAP,
         p_star: Optional[SymMatrix] = None) -> float:
    """First k with ||f0^k(P*) - P*|| >= m_radius, or math.inf past the cap."""
    return _first_escape(m, m_radius, strict=False, cap=cap, p_star=p_star)


def iota_plus(m, m_radius: float, cap: int = IOTA_CAP,
              p_star: Optional[SymMatrix] = None) -> float:
    """First k with ||f0^k(P*) - P*|| > m_radius (strict), or math.inf."""
    return _first_escape(m, m_radius, strict=True, cap=cap, p_star=p_star)


def _first_escape(m, m_radius: float, strict: bool, cap: int,
                  p_star: Optional[SymMatrix]) -> float:
    if not m_radius > 0.0:
        raise ValueError(f"radius must be positive, got {m_radius}")
    if p_star is None:
        p_star = solve_dare(m).p_star
    x = p_star
    for k in range(cap + 1):
        dist = spectral_norm(x - p_star)
        if (dist > m_radius) if strict else (dist >= m_radius):
            return k
        x = lyapunov_step(m, x)
    return math.inf


@dataclass(frozen=True)
class ClassAReport:
    """Verdict on the one-sided geometry that makes exponents orbit-computable.

    The property asks that every point dominating the one-step open-loop image
    of P* is mapped downward by the measurement update.  Scalar models satisfy
    it outright; in higher dimension the report is a randomized screen, not a
    proof, so `counterexample` is the interesting field.
    """

    scalar_proof: bool
    trials_run: int
    counterexample: Optional[SymMatrix]

    @property
    def passed(self) -> bool:
        return self.scalar_proof or self.counterexample is None


def is_class_A(m, trials: int = 200, seed: int = 0,
               p_star: Optional[SymMatrix] = None) -> ClassAReport:
    """Scalar models: analytic yes.  Otherwise randomized screening.

    Samples X = f0(P*) + W with W a random PSD bump at log-uniform scales in
    [1e-3, 1e4] and checks f1(X) <= X in the Loewner order.
    """
    if m.dim_state == 1:
        return ClassAReport(scalar_proof=True, trials_run=0, counterexample=None)
    if p_star is None:
        p_star = solve_dare(m).p_star
    base = lyapunov_step(m, p_star)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        scale = 10.0 ** rng.uniform(-3.0, 4.0)
        x = base + random_psd(rng, m.dim_state, scale)
        if not loewner_leq(riccati_step(m, x), x):
            return ClassAReport(scalar_proof=False, trials_run=trials, counterexample=x)
    return ClassAReport(scalar_proof=False, trials_run=trials, counterexample=None)


@dataclass(frozen=True)
class VariationalSolution:
    """Result of the exponent search: the minimum open-loop count over a set.

    exponent is math.inf when the open-loop orbit never reaches the target set
    within the enumeration cap (the marker, not a claim about the true
    infimum).  minimizer is a witness word attaining the exponent, with ties
    broken toward the lexicographically smallest bit tuple.
    """

    exponent: float
    minimizer: Optional[GammaString]
    k_gamma: float
    strings_examined: int

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent if math.isfinite(self.exponent) else "inf",
            "k_gamma": self.k_gamma if math.isfinite(self.k_gamma) else "inf",
            "minimizer": self.minimizer.to_text() if self.minimizer is not None else None,
            "strings_examined": self.strings_examined,
        }


def rate_over_set(m, pred: EventPredicate, k_cap: int = DEFAULT_K_CAP,
                  p_star: Optional[SymMatrix] = None,
                  dedup_tol: float = 1e-9) -> VariationalSolution:
    """Minimum open-loop count over words from P* whose value lands in the set.

    First finds k_G, the open-loop orbit's entry step into the set (capped at
    k_cap); the search then covers every word of length <= k_G.  Words are
    visited in increasing open-loop count with values deduplicated on a
    rounding grid: words sharing a running value generate identical futures,
    so each distinct value is expanded once.  The first count with a hit is
    the exponent, and the witness is the lexicographically smallest hitting
    word (0 sorts before 1, shorter before longer at equal prefix).
    """
    if not 0 <= k_cap <= K_CAP_LIMIT:
        raise ValueError(f"k_cap must be in [0, {K_CAP_LIMIT}], got {k_cap}")
    if p_star is None:
        p_star = solve_dare(m).p_star

    examined = 0
    k_gamma = math.inf
    orbit = p_star
    for k in range(k_cap + 1):
        examined += 1
        if pred.matches(orbit, p_star):
            k_gamma = k
            break
        orbit = lyapunov_step(m, orbit)
    if not math.isfinite(k_gamma):
        return VariationalSolution(exponent=math.inf, minimizer=None,
                                   k_gamma=math.inf, strings_examined=examined)

    # Dynamic program over (length, open-loop count) cells.  A cell maps the
    # rounding key of a value to (value, lexicographically smallest word).
    # Count p is built from count p-1 (prepend 0) and count p itself
    # (prepend 1), so only two rows are alive at a time.
    prev_row: Optional[list[dict]] = None
    for p in range(k_gamma + 1):
        row: list[dict] = [dict() for _ in range(k_gamma + 1)]
        if p == 0:
            row[0][value_key(p_star, dedup_tol)] = (p_star, ())
            examined += 1
            for length in range(1, k_gamma + 1):
                for value, bits in row[length - 1].values():
                    examined += 1
                    _keep_min(row[length], riccati_step(m, value), (1,) + bits, dedup_tol)
        else:
            for length in range(p, k_gamma + 1):
                for value, bits in prev_row[length - 1].values():
                    examined += 1
                    _keep_min(row[length], lyapunov_step(m, value), (0,) + bits, dedup_tol)
                for value, bits in row[length - 1].values():
                    examined += 1
                    _keep_min(row[length], riccati_step(m, value), (1,) + bits, dedup_tol)

        hits = [bits for cell in row for value, bits in cell.values()
                if pred.matches(value, p_star)]
        if hits:
            witness = GammaString(bits=min(hits), initial=p_star)
            return VariationalSolution(exponent=p, minimizer=witness,
                                       k_gamma=k_gamma, strings_examined=examined)
        prev_row = row

    raise RuntimeError(
        "exhausted the enumeration without a hit, yet the orbit point "
        f"f0^{k_gamma}(P*) was in the set; dedup tolerance {dedup_tol} is too coarse"
    )


def _keep_min(cell: dict, value: SymMatrix, bits: tuple, dedup_tol: float) -> None:
    key = value_key(value, dedup_tol)
    old = cell.get(key)
    if old is None or bits < old[1]:
        cell[key] = (value, bits)


def rate_point(m, x: SymMatrix, match_tol: float, k_cap: int = DEFAULT_K_CAP,
               p_star: Optional[SymMatrix] = None) -> VariationalSolution:
    """Exponent of the closed match_tol-ball around a single target value.

    The ball must be reachable by the open-loop orbit for the enumeration cut
    to apply; a target off that orbit comes back as math.inf (cap marker)
    rather than a finite answer.
    """
    x = as_sym(x)
    if not match_tol > 0.0:
        raise ValueError(f"match_tol must be positive, got {match_tol}")
    pred = EventPredicate.custom(lambda y: spectral_norm(y - x) <= match_tol)
    return rate_over_set(m, pred, k_cap=k_cap, p_star=p_star)


@dataclass(frozen=True)
class LscReport:
    """rate_point exponents along a shrinking sequence of match balls."""

    tolerances: tuple
    exponents: tuple
    passed: bool
    # True when some ball was never reached within the cap, so no verdict.
    inconclusive: bool


def lsc_check(m, x: SymMatrix, tol_sequence: Iterable[float],
              k_cap: int = DEFAULT_K_CAP) -> LscReport:
    """Exponents must not drop as the ball shrinks, and must stabilize.

    Passes when the exponent sequence is non-decreasing and its last two
    entries agree; any cap marker makes the outcome inconclusive instead of
    failed.
    """
    tols = tuple(float(t) for t in tol_sequence)
    if len(tols) < 2:
        raise ValueError("need at least two tolerances to check stabilization")
    if any(b >= a for a, b in zip(tols, tols[1:])):
        raise ValueError(f"tolerances must be strictly decreasing, got {tols}")
    p_star = solve_dare(m).p_star
    exponents = tuple(
        rate_point(m, x, tol, k_cap=k_cap, p_star=p_star).exponent for tol in tols
    )
    inconclusive = any(not math.isfinite(e) for e in exponents)
    monotone = all(a <= b for a, b in zip(exponents, exponents[1:]))
    stabilized = exponents[-1] == exponents[-2]
    return LscReport(
        tolerances=tols,
        exponents=exponents,
        passed=(not inconclusive) and monotone and stabilized,
        inconclusive=inconclusive,
    )


@dataclass(frozen=True)
class Atom:
    """One support point of an exact finite-time law.

    multiplicity[p] counts arrival paths with exactly p open-loop steps (out
    of the full horizon) that produce this atom, so the atom's probability at
    arrival rate g is sum_p multiplicity[p] * (1-g)^p * g^(horizon - p) and
    its decay exponent ell is the smallest contributing p.
    """

    values: tuple
    horizon: int
    multiplicity: dict
    ell: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ell", min(self.multiplicity))

    def probability(self, gamma_bar: float) -> float:
        return poly_probability(self.multiplicity, gamma_bar, self.horizon)


def poly_probability(multiplicity: dict, gamma_bar: float, horizon: int) -> float:
    """Evaluate sum_p count_p * (1-g)^p * g^(horizon-p) at g = gamma_bar."""
    g = float(gamma_bar)
    return float(sum(c * (1.0 - g) ** p * g ** (horizon - p)
                     for p, c in sorted(multiplicity.items())))


@dataclass(frozen=True)
class FiniteDimDistribution:
    """Exact joint law of the covariance at finitely many times.

    Built by exhausting all 2^horizon arrival paths (with merging of paths
    that share every recorded value), so probabilities are polynomials in the
    arrival rate, exact up to float round-off.
    """

    times: tuple
    horizon: int
    atoms: tuple

    def total_probability(self, gamma_bar: float) -> float:
        return float(sum(a.probability(gamma_bar) for a in self.atoms))

    def event_multiplicities(self, event: Callable[[tuple], bool]) -> dict:
        """Combined path counts of atoms whose value tuple satisfies the event."""
        combined: dict = {}
        for atom in self.atoms:
            if event(atom.values):
                for p, c in atom.multiplicity.items():
                    combined[p] = combined.get(p, 0) + c
        return combined

    def event_probability(self, event: Callable[[tuple], bool], gamma_bar: float) -> float:
        return poly_probability(self.event_multiplicities(event), gamma_bar, self.horizon)

    def event_exponent(self, event: Callable[[tuple], bool]) -> float:
        mult = self.event_multiplicities(event)
        return min(mult) if mult else math.inf


def finite_dim_exact(m, p0: SymMatrix, times: Iterable[int],
                     dedup_tol: float = 1e-9) -> FiniteDimDistribution:
    """Exact law of (P_{t_1}, ..., P_{t_n}) for increasing recording times.

    Walks t = 0..t_n once, maintaining a merged state per distinct (recorded
    values, running value) signature with a path-count polynomial attached.
    Merging is sound because the future depends only on the running value.
    """
    times = tuple(int(t) for t in times)
    if not times:
        raise ValueError("need at least one recording time")
    if any(t < 0 for t in times):
        raise ValueError(f"recording times must be nonnegative, got {times}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"recording times must be strictly increasing, got {times}")
    horizon = times[-1]
    if horizon > FINITE_DIM_MAX_HORIZON:
        raise ValueError(
            f"horizon {horizon} exceeds the exact-enumeration limit "
            f"{FINITE_DIM_MAX_HORIZON}"
        )
    p0 = as_sym(p0)
    if p0.dim != m.dim_state:
        raise ValueError(f"P0 must be {m.dim_state}x{m.dim_state}, got {p0.dim}x{p0.dim}")

    timeset = frozenset(times)
    recorded = (p0,) if 0 in timeset else ()
    rec_keys = tuple(value_key(v, dedup_tol) for v in recorded)
    # state: signature -> [recorded values, recorded keys, running value, counts]
    states = {rec_keys + (value_key(p0, dedup_tol),): [recorded, rec_keys, p0, {0: 1}]}

    for t in range(horizon):
        next_states: dict = {}
        for rec_vals, rec_keys, current, counts in states.values():
            for bit in (0, 1):
                nxt = riccati_step(m, current) if bit else lyapunov_step(m, current)
                d_open = 0 if bit else 1
                n_vals, n_keys = rec_vals, rec_keys
                if (t + 1) in timeset:
                    n_vals = rec_vals + (nxt,)
                    n_keys = rec_keys + (value_key(nxt, dedup_tol),)
                signature = n_keys + (value_key(nxt, dedup_tol),)
                entry = next_states.get(signature)
                if entry is None:
                    next_states[signature] = [
                        n_vals, n_keys, nxt,
                        {p + d_open: c for p, c in counts.items()},
                    ]
                else:
                    tallies = entry[3]
                    for p, c in counts.items():
                        tallies[p + d_open] = tallies.get(p + d_open, 0) + c
        states = next_states

    atoms = tuple(
        Atom(values=rec_vals, horizon=horizon, multiplicity=dict(counts))
        for rec_vals, _keys, _cur, counts in states.values()
    )
    total_paths = sum(c for a in atoms for c in a.multiplicity.values())
    if total_paths != 2**horizon:
        raise RuntimeError(
            f"path accounting is off: {total_paths} paths for horizon {horizon}"
        )
    return FiniteDimDistribution(times=times, horizon=horizon, atoms=atoms)


def min_decay_exponent(terms: Iterable[float]) -> float:
    """Exponent of a sum of decaying terms: the smallest exponent dominates.

    math.inf entries stand for terms that vanish identically and never lower
    the minimum; an empty collection is an error because an empty sum has no
    decay order.
    """
    terms = [float(t) for t in terms]
    if not terms:
        raise ValueError("need at least one exponent")
    if any(math.isnan(t) for t in terms):
        raise ValueError("exponents must not be NaN")
    return min(terms)
