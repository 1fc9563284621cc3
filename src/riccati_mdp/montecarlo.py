"""Seeded Monte-Carlo sampling of the covariance chain, and its analytics.

Reproducibility protocol: one sampling run draws its arrival bits from the
keyed Philox stream of its seed tuple (`operators._stream`), eight bits per
64-bit word.  Bit b = i * steps + t of chain i at step t reads lane b % 8 of
word b // 8, where lane j of word w is (w >> 8j) & 0xFF, so chain i reads
row i of an (n_chains, steps) block of lanes whatever the chain count, and
the first chains of a large run are those of a small run with the same seed.
With h = floor(256 gamma_bar), a lane below h is an arrival.  A lane equal to
h is a tie: it reads the next word of the run's tie stream (purpose
`operators._TIES`), ties in row-major order, and arrives when that word's
uniform (w >> 11) * 2^-53 lies below 256 gamma_bar - h; the scaling and the
subtraction are both exact.  The arrival probability is then gamma_bar to
within 2^-61.  A sweep over arrival rates derives per-gridpoint seed tuples
as (master seed, gridpoint index).

The exponent fit's burn-in drift check reads gridpoint 0's own chains at
B // 2 steps on their way to B.  Since the invariant law does not depend on
the start, the hit fraction should not move between B // 2 and B steps.

Chains advance in lockstep as a stacked array of covariances through the
batched kernel `operators.step`; threshold events and the exceedance
thresholds are decided by `linalg.norms_exceed`, whose verdicts equal
comparing `linalg.norms` directly.  A chain that overflows is counted, never
silently scored: the analytics below raise RuntimeError when any chain is
non-finite.

Every chain starts at the model's P0: the invariant law does not depend on
the start, so a different start is a different model,
`SystemModel(**{**m.to_dict(), "P0": x})`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .linalg import SymMatrix, norms, norms_exceed, spectral_norm
from .operators import _TIES, _entry, _stream, solve_dare, step, uniform_bound_kappa
from .rate import EventPredicate

# Lanes drawn per chunk when building arrival bits, a multiple of 8 so that
# every chunk starts on a word; bounds the word scratch instead of holding a
# whole (n_chains, steps) block of words.  The bits do not depend on it.
_DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one sampling run.

    The seed may be an int or a tuple of ints; tuples are how sweeps hand
    out derived, non-colliding seeds.
    """

    gamma_bar: float
    n_samples: int = 1
    burn_in: int = 0
    horizon: int = 0
    seed: int | tuple = 0

    def __post_init__(self):
        if not 0.0 < self.gamma_bar <= 1.0:
            raise ValueError(f"gamma_bar must be in (0, 1], got {self.gamma_bar}")
        for name in ("n_samples", "burn_in", "horizon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")

    def seed_tuple(self) -> tuple:
        return _as_seed_tuple(self.seed)


def _as_seed_tuple(seed) -> tuple:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _word_threshold(u: float) -> int:
    """T with (w >> 11) * 2^-53 < u exactly when w < T, for u in [0, 1).

    For an integer j, j < u * 2^53 (exact: a power-of-two scaling) holds
    exactly when j < ceil(u * 2^53); T is that bound times 2^11, below 2^64
    since u < 1, and 0 (no word) for u = 0.
    """
    return math.ceil(u * 2.0**53) << 11


def _arrival_bits(seed_tuple: tuple, gamma_bar: float, n: int,
                  steps: int) -> np.ndarray:
    """Arrival bits of n chains at gamma_bar in (0, 1], shape (n, steps).

    Row-major bit b reads lane b % 8 of word b // 8 of the seed tuple's
    stream, as a byte of the word's little-endian form, whatever the host's
    byte order: ceil(n * steps / 8) words.  Lanes below h = floor(256
    gamma_bar) arrive; each lane equal to h reads one word of the tie stream
    and arrives when that word is below `_word_threshold(256 gamma_bar - h)`
    (none when 256 gamma_bar is h).  gamma_bar = 1 sets every bit and draws
    nothing.  See the module docstring.
    """
    bits = np.empty((n, steps), dtype=bool)
    if gamma_bar >= 1.0:
        bits.fill(True)
        return bits
    scaled = gamma_bar * 256.0
    h = math.floor(scaled)
    tie_threshold = np.uint64(_word_threshold(scaled - h))
    words = _stream(seed_tuple).bit_generator
    tie_words = _stream(seed_tuple, _TIES).bit_generator
    flat = bits.reshape(-1)
    for i in range(0, flat.size, _DRAW_CHUNK):
        chunk = flat[i:i + _DRAW_CHUNK]
        raw = words.random_raw(-(-chunk.size // 8)).astype("<u8", copy=False)
        lanes = raw.view(np.uint8)[:chunk.size]
        np.less(lanes, h, out=chunk)
        ties = np.flatnonzero(lanes == h)
        chunk[ties] = tie_words.random_raw(ties.size) < tie_threshold
    return bits


def _count_non_finite(p: np.ndarray) -> int:
    """Chains in a stack (n, N, N) with any non-finite entry."""
    finite = np.isfinite(p)
    if finite.all():
        return 0
    return int(p.shape[0] - np.count_nonzero(finite.all(axis=(1, 2))))


@dataclass(frozen=True)
class Trajectory:
    """One simulated covariance path with the arrival bits that produced it."""

    path: tuple
    arrivals: tuple

    def __len__(self) -> int:
        return len(self.path)


def simulate_rre(m, cfg: SimulationConfig) -> Trajectory:
    """Single chain over cfg.horizon steps; returns P_0..P_horizon and the bits.

    The path advances through `operators.step` on a batch of one.  A step
    that overflows raises RuntimeError naming that step.
    """
    p = _entry(m, m.P0, "P0")
    bits = _arrival_bits(cfg.seed_tuple(), cfg.gamma_bar, 1, cfg.horizon)
    path = [SymMatrix(p[0])]
    for t in range(cfg.horizon):
        p = step(m, p, bits[:, t])
        try:
            path.append(SymMatrix(p[0]))
        except ValueError:
            raise RuntimeError(f"the path went non-finite at step {t + 1} "
                               f"(gamma_bar={cfg.gamma_bar})") from None
    return Trajectory(path=tuple(path), arrivals=tuple(int(b) for b in bits[0]))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Final covariances of n independent chains after the burn-in.

    non_finite counts the chains that overflowed to inf or NaN; analytics
    over the sample refuse to run while it is nonzero.
    """

    samples: np.ndarray
    gamma_bar: float
    burn_in: int
    seed: tuple
    non_finite: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "non_finite", _count_non_finite(self.samples))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def scalar_values(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError(f"scalar view needs 1x1 samples, got dim {self.dim}")
        return self.samples[:, 0, 0]

    def require_finite(self) -> None:
        """Raise RuntimeError when any chain went non-finite."""
        if self.non_finite:
            raise RuntimeError(
                f"{self.non_finite} of {self.n} chains went non-finite "
                f"(gamma_bar={self.gamma_bar}, burn_in={self.burn_in})"
            )


def _distribution(cfg: SimulationConfig, samples: np.ndarray) -> EmpiricalDistribution:
    """cfg's sample, frozen read-only."""
    samples.flags.writeable = False
    return EmpiricalDistribution(samples=samples, gamma_bar=cfg.gamma_bar,
                                 burn_in=cfg.burn_in, seed=cfg.seed_tuple())


def _run_chains(m, cfg: SimulationConfig) -> tuple[EmpiricalDistribution,
                                                   EmpiricalDistribution]:
    """cfg's chains from the model's P0, after burn_in // 2 steps and after burn_in.

    Chain i's bits are row i of the run's block of lanes; the whole stack of
    chains advances in lockstep through `operators.step`.
    """
    half_cfg = replace(cfg, burn_in=cfg.burn_in // 2)
    bits = _arrival_bits(cfg.seed_tuple(), cfg.gamma_bar, cfg.n_samples, cfg.burn_in)
    p = half = np.repeat(_entry(m, m.P0, "P0"), cfg.n_samples, axis=0)
    for t in range(cfg.burn_in):
        p = step(m, p, bits[:, t])
        if t + 1 == half_cfg.burn_in:
            half = p
    return _distribution(half_cfg, half), _distribution(cfg, p)


def sample_invariant(m, cfg: SimulationConfig) -> EmpiricalDistribution:
    """Draw n_samples chains for burn_in steps each; keep the final covariances.

    Chain i's bits are row i of the run's block of lanes (`_run_chains`).
    """
    return _run_chains(m, cfg)[1]


def event_probability(d: EmpiricalDistribution, pred: EventPredicate,
                      p_star: Optional[SymMatrix] = None) -> tuple[float, int]:
    """Hit fraction and raw hit count of the event over the sample.

    Raises RuntimeError when any chain went non-finite: a NaN sample would
    otherwise count as a miss.
    """
    d.require_finite()
    mask = pred.batch(d.samples, p_star)
    hits = int(np.sum(mask))
    return hits / d.n, hits


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of ln(hit fraction) against ln(1 - gamma_bar).

    Gridpoints with zero hits cannot enter the log fit; they are kept, flagged
    censored, and excluded from the regression.  burn_in_drift compares
    gridpoint 0's hit fraction with that of its chains at burn_in // 2, an
    adequacy cross-check: the two should agree within 2 combined standard errors.
    distributions holds each gridpoint's sample, so callers reuse it instead
    of sampling again; it is not part of to_dict.
    """

    gamma_grid: tuple
    probs: tuple
    hits: tuple
    censored: tuple
    slope: float
    intercept: float
    stderr: float
    points_used: int
    n_samples: int
    burn_in: int
    seed: tuple
    burn_in_drift: dict
    distributions: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "gamma_grid": list(self.gamma_grid),
            "probs": list(self.probs),
            "hits": list(self.hits),
            "censored": list(self.censored),
            "slope": self.slope,
            "intercept": self.intercept,
            "stderr": self.stderr,
            "points_used": self.points_used,
            "n_samples": self.n_samples,
            "burn_in": self.burn_in,
            "seed": list(self.seed),
            "burn_in_drift": self.burn_in_drift,
        }


def decay_exponent_fit(m, pred: EventPredicate, gamma_grid: Sequence[float],
                       n_samples: int, burn_in: int, seed: int | tuple) -> ExponentFit:
    """Estimate the decay exponent of a rare event across an arrival-rate grid.

    For each gridpoint j, samples the chain with master seed (seed, j) and
    evaluates the event's hit fraction; the exponent is the slope of
    ln p_hat on ln(1 - gamma_bar) over the uncensored gridpoints.  At least
    three uncensored points are required for a slope with a standard error.
    The drift check reads gridpoint 0's chains at burn_in // 2 on their way
    to burn_in (see the module docstring), so it makes no extra chain-steps.
    """
    grid = tuple(float(g) for g in gamma_grid)
    if len(grid) < 3:
        raise ValueError(f"need at least 3 gridpoints, got {len(grid)}")
    if any(not 0.0 < g < 1.0 for g in grid):
        raise ValueError("gamma_grid entries must lie strictly inside (0, 1)")
    if len(set(grid)) != len(grid):
        raise ValueError("gamma_grid entries must be distinct")
    seed_tuple = _as_seed_tuple(seed)
    p_star = solve_dare(m).p_star

    probs, hits, dists = [], [], []
    for j, g in enumerate(grid):
        cfg = SimulationConfig(gamma_bar=g, n_samples=n_samples, burn_in=burn_in,
                               seed=seed_tuple + (j,))
        if j == 0:
            half, dist = _run_chains(m, cfg)
        else:
            dist = sample_invariant(m, cfg)
        p_hat, k = event_probability(dist, pred, p_star)
        probs.append(p_hat)
        hits.append(k)
        dists.append(dist)
    censored = tuple(k == 0 for k in hits)

    xs = np.array([math.log(1.0 - g) for g, c in zip(grid, censored) if not c])
    ys = np.array([math.log(p) for p, c in zip(probs, censored) if not c])
    if xs.size < 3:
        raise RuntimeError(
            f"only {xs.size} gridpoints had any hits; increase n_samples or "
            "move the grid toward smaller gamma_bar"
        )
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = xs.size - 2
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if dof > 0 else math.nan

    drift = _burn_in_drift(pred, probs[0], half, p_star)
    return ExponentFit(
        gamma_grid=grid, probs=tuple(probs), hits=tuple(hits), censored=censored,
        slope=float(slope), intercept=float(intercept), stderr=stderr,
        points_used=int(xs.size), n_samples=n_samples, burn_in=burn_in,
        seed=seed_tuple, burn_in_drift=drift, distributions=tuple(dists),
    )


def _burn_in_drift(pred, p1, half: EmpiricalDistribution, p_star) -> dict:
    """Hit fraction p1 at burn_in vs the same chains at burn_in // 2.

    p1 is the fit's own hit fraction at gridpoint 0; half is its chains
    after half the burn-in.
    """
    p2, _ = event_probability(half, pred, p_star)
    n = half.n
    se = math.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
    return {
        "gamma_bar": half.gamma_bar,
        "p_at_burn_in": p1,
        "p_at_half_burn_in": p2,
        "combined_se": se,
        "within_2se": abs(p2 - p1) <= 2.0 * se,
    }


def prohorov_distance_scalar(d: EmpiricalDistribution, target: float) -> float:
    """Exact Prohorov distance between a scalar sample and a point mass.

    Against a Dirac at `target` the general definition collapses to

        inf { eps > 0 : fraction(|x - target| > eps) <= eps },

    computed here from the sorted absolute deviations, so the result is
    exact for the empirical measure rather than a grid approximation.  At
    breakpoint i (0..n) the candidate is max(devs[i-1], (n - i) / n), with
    devs[-1] read as 0; it counts when it lies below devs[i], and the last
    breakpoint always counts.  Raises RuntimeError when any chain went
    non-finite, and ValueError for an empty sample or a non-finite target.
    """
    d.require_finite()
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    devs = np.sort(np.abs(d.scalar_values() - float(target)))
    n = devs.size
    if n == 0:
        raise ValueError("the sample is empty")
    eps = np.maximum(np.concatenate(([0.0], devs)), (n - np.arange(n + 1)) / n)
    counts = np.append(eps[:-1] < devs, True)
    return float(eps[counts].min())


@dataclass(frozen=True)
class TailBound:
    """Analytic ceiling on sup_t P(||P_t|| > M) for unstable open-loop maps.

    applicable is False when ||A|| <= 1: the open-loop map is non-expanding,
    thresholds are never forced, and the geometric argument says nothing.
    vacuous flags bounds >= 1.  kappa is the least value with f1^N(X) <=
    kappa * I for every X, and k_of_m is the number of consecutive open-loop
    steps needed to push a state below max(kappa, ||P0||) * I past M.
    """

    gamma_bar: float
    threshold: float
    applicable: bool
    k_of_m: Optional[int]
    bound: Optional[float]
    vacuous: bool
    alpha: float
    kappa: Optional[float]
    kappa1: Optional[float]

    def to_dict(self) -> dict:
        return {
            "gamma_bar": self.gamma_bar,
            "threshold": self.threshold,
            "applicable": self.applicable,
            "k_of_m": self.k_of_m,
            "bound": self.bound,
            "vacuous": self.vacuous,
            "alpha": self.alpha,
            "kappa": self.kappa,
            "kappa1": self.kappa1,
        }


def tail_bound(m, gamma_bar: float, threshold: float) -> TailBound:
    """Geometric tail bound on the running covariance norm.

    After any window of N = state-dimension consecutive arrivals the iterate
    is below kappa * I, so exceeding M requires a long enough arrival-free
    stretch: at least k(M) steps, where k(M) is when the open-loop envelope

        kappa1 * a^(2k) + ||Q|| * (a^(2k) - 1) / (a^2 - 1),   a = ||A||

    first reaches M, with kappa1 = max(kappa, ||P0||).  Summing the chance of
    such stretches over time gives, with r = (1 - gamma_bar^N)^(1/N),

        sup_t P(||P_t|| > M) <= r^k(M) / ((1 - gamma_bar^N) * (1 - r)).

    kappa is the model's exact `uniform_bound_kappa` and P0 is the model's;
    a model that is not observable in N steps has no kappa: ValueError.
    k(M) comes in closed form from the envelope, corrected against the
    envelope as evaluated, so it is the least k that reaches M.  Where r
    rounds to 1 the bound is inf, and vacuous.
    """
    if not 0.0 < gamma_bar < 1.0:
        raise ValueError(f"gamma_bar must be in (0, 1), got {gamma_bar}")
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    p0 = _entry(m, m.P0, "P0")
    alpha = float(np.linalg.norm(m.A, 2))
    if alpha <= 1.0:
        return TailBound(gamma_bar=gamma_bar, threshold=threshold, applicable=False,
                         k_of_m=None, bound=None, vacuous=False, alpha=alpha,
                         kappa=None, kappa1=None)
    kappa = uniform_bound_kappa(m)
    kappa1 = max(kappa, float(norms(p0)[0]))
    q_norm = spectral_norm(m.Q)
    a2 = alpha * alpha

    def envelope(k: int) -> float:
        return kappa1 * a2**k + q_norm * (a2**k - 1.0) / (a2 - 1.0)

    # envelope(k) = (kappa1 + c) * a2^k - c with c = ||Q|| / (a^2 - 1).
    c = q_norm / (a2 - 1.0)
    k = max(0, math.ceil(math.log((threshold + c) / (kappa1 + c)) / math.log(a2)))
    while k > 0 and envelope(k - 1) >= threshold:
        k -= 1
    while envelope(k) < threshold:
        k += 1

    n = m.dim_state
    decay = (1.0 - gamma_bar**n) ** (1.0 / n)
    bound = (decay**k / ((1.0 - gamma_bar**n) * (1.0 - decay))
             if decay < 1.0 else math.inf)
    return TailBound(gamma_bar=gamma_bar, threshold=threshold, applicable=True,
                     k_of_m=k, bound=float(bound), vacuous=bound >= 1.0,
                     alpha=alpha, kappa=float(kappa), kappa1=float(kappa1))


@dataclass(frozen=True)
class ExceedanceReport:
    """Worst-over-time empirical exceedance frequencies per threshold."""

    thresholds: tuple
    sup_frequency: tuple
    argmax_t: tuple
    n_chains: int
    horizon: int


def exceedance_sup(m, gamma_bar: float, thresholds: Sequence[float], horizon: int,
                   n_chains: int, seed: int | tuple) -> ExceedanceReport:
    """Empirical sup_t P(||P_t|| > M) over t = 0..horizon for each M.

    All thresholds share one batch of chains (chain i reads row i of the
    run's block of lanes, as everywhere else), so the frequencies are
    comparable across thresholds.  gamma_bar, n_chains, horizon and seed are
    checked as a `SimulationConfig` with n_chains samples; ValueError also
    when no threshold is given or one is NaN, and RuntimeError when any
    chain went non-finite within the horizon.
    """
    cfg = SimulationConfig(gamma_bar=gamma_bar, n_samples=n_chains, horizon=horizon,
                           seed=seed)
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds or any(math.isnan(t) for t in thresholds):
        raise ValueError(f"need at least one threshold and no NaN, got {thresholds}")
    p0 = _entry(m, m.P0, "P0")
    bits = _arrival_bits(cfg.seed_tuple(), gamma_bar, n_chains, horizon)

    p = np.repeat(p0, n_chains, axis=0)
    # counts[t, j]: chains above threshold j at step t.
    counts = np.empty((horizon + 1, len(thresholds)), dtype=np.int64)
    for t in range(horizon + 1):
        bad = _count_non_finite(p)
        if bad:
            raise RuntimeError(f"{bad} of {n_chains} chains went non-finite by step "
                               f"{t} (gamma_bar={gamma_bar})")
        counts[t] = np.count_nonzero(norms_exceed(p, thresholds), axis=1)
        if t < horizon:
            p = step(m, p, bits[:, t])
    # argmax takes the first step at the largest count, and step 0 when none is hit.
    arg_t = counts.argmax(axis=0)
    return ExceedanceReport(
        thresholds=thresholds,
        sup_frequency=tuple(int(counts[t, j]) / n_chains for j, t in enumerate(arg_t)),
        argmax_t=tuple(int(t) for t in arg_t), n_chains=n_chains, horizon=horizon)
