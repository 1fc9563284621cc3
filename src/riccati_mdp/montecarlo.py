"""Seeded Monte-Carlo sampling of the covariance chain, and its analytics.

Reproducibility protocol: one sampling run draws its arrival bits from the
keyed Philox stream of its seed tuple (`operators._stream`).  Chain i reads
row i of an (n_chains, steps) block of uniforms, whatever the chain count, so
the first chains of a large run are those of a small run with the same seed.
A sweep over arrival rates derives per-gridpoint seed tuples as (master seed,
gridpoint index).  A uniform is the raw Philox word w as (w >> 11) * 2^-53,
so u < gamma_bar exactly when w < ceil(gamma_bar * 2^53) * 2^11, and the bits
are thresholded on the raw words.

The block is read row-major, so the (2n, B) block of a stream is its (n, 2B)
block reshaped: row i of the latter is rows 2i and 2i + 1 of the former.  The
exponent fit's burn-in drift check, n chains run for 2B steps at gridpoint
0's seed, uses this to share gridpoint 0's draw.  One (2n, B) block is drawn;
its first n rows are gridpoint 0's chains, whose samples are the first n of
2n by the prefix property.  Drift chain i starts from the result of row 2i,
which for 2i < n is a gridpoint-0 sample already in hand and otherwise is
stepped afresh, and then runs B more steps on row 2i + 1.  A chain's result
does not depend on its position in the stack, so the drift equals a fresh
run at 2B bit for bit.

Chains advance in lockstep as a stacked array of covariances through the
batched kernel `operators.step`.  Its elementwise work runs on an
entry-major (N, N, k) copy of the stack, so every pass runs along the chain
axis; the products with C stay on the chain-major input, because BLAS
accumulates a transposed matrix-vector product in another order and the
bits must not move.  That keeps the per-step cost at a handful of
vectorized operations even for tens of thousands of chains, and a step
returns a (k, N, N) view of the entry-major result.  Threshold
events and the exceedance thresholds are decided by the screened test
`linalg.norms_exceed`: the bounds max_ij |X_ij| <= ||X|| <= max_i sum_j |X_ij|
settle every chain that clears a threshold by the relative margin
`linalg.SCREEN_MARGIN`, and only chains inside that band, or with a
non-finite entry, fall back to an eigendecomposition.  The verdicts equal
comparing `linalg.norms` directly.  A chain that overflows is counted, never
silently scored: the analytics below raise RuntimeError when any chain is
non-finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .linalg import SymMatrix, as_sym, norms, norms_exceed, spectral_norm
from .operators import _entry, _stream, solve_dare, step, uniform_bound_kappa
from .rate import EventPredicate

# Uniforms drawn per chunk when building arrival bits; bounds the float64
# scratch instead of holding a whole (n_chains, steps) block of doubles.
_DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one sampling run.

    p0 of None means "use the model's P0".  The seed may be an int or a tuple
    of ints; tuples are how sweeps hand out derived, non-colliding seeds.
    """

    gamma_bar: float
    n_samples: int = 1
    burn_in: int = 0
    horizon: int = 0
    seed: int | tuple = 0
    p0: Optional[SymMatrix] = None

    def __post_init__(self):
        if not 0.0 < self.gamma_bar <= 1.0:
            raise ValueError(f"gamma_bar must be in (0, 1], got {self.gamma_bar}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.p0 is not None:
            object.__setattr__(self, "p0", as_sym(self.p0))

    def seed_tuple(self) -> tuple:
        return _as_seed_tuple(self.seed)


def _as_seed_tuple(seed) -> tuple:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _word_threshold(gamma_bar: float) -> int:
    """T with (w >> 11) * 2^-53 < gamma_bar exactly when w < T, for gamma_bar in (0, 1).

    For an integer j, j < gamma_bar * 2^53 (exact: a power-of-two scaling)
    holds exactly when j < ceil(gamma_bar * 2^53); T is that bound times
    2^11, below 2^64 since gamma_bar < 1.
    """
    return math.ceil(gamma_bar * 2.0**53) << 11


def _arrival_bits(seed_tuple: tuple, gamma_bar: float, n: int,
                  steps: int) -> np.ndarray:
    """Arrival bits of n chains, shape (n, steps).

    The run's (n, steps) uniform block of the seed tuple's stream, row-major,
    thresholded at gamma_bar in (0, 1] on the raw words (`_word_threshold`),
    so the bits equal `_stream(seed_tuple).random((n, steps)) < gamma_bar`.
    """
    bits = np.empty((n, steps), dtype=bool)
    if gamma_bar >= 1.0:
        bits.fill(True)
        return bits
    threshold = np.uint64(_word_threshold(gamma_bar))
    words = _stream(seed_tuple).bit_generator
    flat = bits.reshape(-1)
    for i in range(0, flat.size, _DRAW_CHUNK):
        chunk = flat[i:i + _DRAW_CHUNK]
        np.less(words.random_raw(chunk.size), threshold, out=chunk)
    return bits


def _count_non_finite(p: np.ndarray) -> int:
    """Chains in a stack (n, N, N) with any non-finite entry."""
    finite = np.isfinite(p)
    if finite.all():
        return 0
    return int(p.shape[0] - np.count_nonzero(finite.all(axis=(1, 2))))


def _resolve_p0(m, p0: Optional[SymMatrix]) -> np.ndarray:
    """p0, or the model's P0 when None, shape- and PSD-checked as a batch of one."""
    return _entry(m, p0 if p0 is not None else m.P0, "P0")


@dataclass(frozen=True)
class Trajectory:
    """One simulated covariance path with the arrival bits that produced it."""

    path: tuple
    arrivals: tuple

    def __len__(self) -> int:
        return len(self.path)


def simulate_rre(m, cfg: SimulationConfig,
                 arrivals: Optional[Sequence[int]] = None) -> Trajectory:
    """Single chain over cfg.horizon steps; returns P_0..P_horizon and the bits.

    `arrivals` overrides the random bit stream with a forced sequence (the
    deterministic hook used to pin down corner cases); it must have exactly
    horizon entries of 0 or 1.  The path advances through `operators.step`
    on a batch of one, and a step that overflows raises RuntimeError naming
    that step.
    """
    p = _resolve_p0(m, cfg.p0)
    t_max = cfg.horizon
    if arrivals is None:
        bits = _arrival_bits(cfg.seed_tuple(), cfg.gamma_bar, 1, t_max)[0].astype(int)
    else:
        bits = np.asarray(list(arrivals), dtype=int)
        if bits.shape != (t_max,):
            raise ValueError(f"need exactly {t_max} forced arrivals, got {bits.shape}")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("forced arrivals must be 0 or 1")
    path = [SymMatrix(p[0])]
    for t in range(t_max):
        p = step(m, p, bits[t:t + 1])
        if _count_non_finite(p):
            raise RuntimeError(f"the path went non-finite at step {t + 1} "
                               f"(gamma_bar={cfg.gamma_bar})")
        path.append(SymMatrix(p[0]))
    return Trajectory(path=tuple(path), arrivals=tuple(int(b) for b in bits))


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


def _run_chains(m, p: np.ndarray, bits: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Step the stack p once per column t of bits, reading bits[rows, t]."""
    for t in range(bits.shape[1]):
        p = step(m, p, bits[rows, t])
    return p


def _distribution(cfg: SimulationConfig, samples: np.ndarray) -> EmpiricalDistribution:
    """cfg's sample, frozen read-only."""
    samples.flags.writeable = False
    return EmpiricalDistribution(samples=samples, gamma_bar=cfg.gamma_bar,
                                 burn_in=cfg.burn_in, seed=cfg.seed_tuple())


def sample_invariant(m, cfg: SimulationConfig) -> EmpiricalDistribution:
    """Draw n_samples chains for burn_in steps each; keep the final covariances.

    Chain i's bits are row i of the run's uniform block; the whole stack of
    chains advances in lockstep through `operators.step`.
    """
    p0 = _resolve_p0(m, cfg.p0)
    bits = _arrival_bits(cfg.seed_tuple(), cfg.gamma_bar, cfg.n_samples, cfg.burn_in)
    return _distribution(cfg, _run_chains(m, np.repeat(p0, cfg.n_samples, axis=0), bits))


def _sample_with_doubled_burn_in(
        m, cfg: SimulationConfig) -> tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """cfg's sample and the same seed's sample at 2 * burn_in, from one draw.

    One (2n, B) block is drawn: its first n rows give cfg's sample, and row
    pair (2i, 2i + 1) is row i of the (n, 2B) block, so drift chain i is
    sample 2i when 2i < n, else row 2i stepped from p0, stepped on through
    row 2i + 1.  Each column is gathered from the block, never copied whole.
    """
    p0 = _resolve_p0(m, cfg.p0)
    n = cfg.n_samples
    bits = _arrival_bits(cfg.seed_tuple(), cfg.gamma_bar, 2 * n, cfg.burn_in)
    start = np.repeat(p0, n, axis=0)
    samples = _run_chains(m, start, bits[:n])
    shared = (n + 1) // 2  # drift chains whose first half is a sample
    rest = _run_chains(m, start[:n - shared], bits, slice(2 * shared, None, 2))
    doubled = _run_chains(m, np.concatenate([samples[::2], rest]), bits, slice(1, None, 2))
    return (_distribution(cfg, samples),
            _distribution(replace(cfg, burn_in=2 * cfg.burn_in), doubled))


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
    censored, and excluded from the regression.  burn_in_drift compares one
    gridpoint against a doubled burn-in as an adequacy cross-check: the two
    hit fractions should agree within 2 combined standard errors.
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
    burn_in_drift: Optional[dict] = None
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
                       n_samples: int, burn_in: int, seed: int | tuple,
                       check_burn_in: bool = True,
                       p0: Optional[SymMatrix] = None) -> ExponentFit:
    """Estimate the decay exponent of a rare event across an arrival-rate grid.

    For each gridpoint j, samples the chain with master seed (seed, j) and
    evaluates the event's hit fraction; the exponent is the slope of
    ln p_hat on ln(1 - gamma_bar) over the uncensored gridpoints.  At least
    three uncensored points are required for a slope with a standard error.
    With check_burn_in, gridpoint 0 and its doubled burn-in share one draw
    (see the module docstring); the drift is scored after the grid.
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
    doubled = None
    for j, g in enumerate(grid):
        cfg = SimulationConfig(gamma_bar=g, n_samples=n_samples, burn_in=burn_in,
                               seed=seed_tuple + (j,), p0=p0)
        if j == 0 and check_burn_in:
            dist, doubled = _sample_with_doubled_burn_in(m, cfg)
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

    drift = None
    if doubled is not None:
        drift = _burn_in_drift(pred, probs[0], doubled, p_star)

    return ExponentFit(
        gamma_grid=grid, probs=tuple(probs), hits=tuple(hits), censored=censored,
        slope=float(slope), intercept=float(intercept), stderr=stderr,
        points_used=int(xs.size), n_samples=n_samples, burn_in=burn_in,
        seed=seed_tuple, burn_in_drift=drift, distributions=tuple(dists),
    )


def _burn_in_drift(pred, p1, doubled: EmpiricalDistribution, p_star) -> dict:
    """Hit fraction p1 at burn_in vs the same chains run to 2 * burn_in.

    p1 is the fit's own hit fraction at gridpoint 0; doubled is the sample
    at twice its burn-in with the same seed.
    """
    p2, _ = event_probability(doubled, pred, p_star)
    n = doubled.n
    se = math.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
    return {
        "gamma_bar": doubled.gamma_bar,
        "p_at_burn_in": p1,
        "p_at_doubled_burn_in": p2,
        "combined_se": se,
        "within_2se": abs(p2 - p1) <= 2.0 * se or se == 0.0,
    }


def prohorov_distance_scalar(d: EmpiricalDistribution, target: float) -> float:
    """Exact Prohorov distance between a scalar sample and a point mass.

    Against a Dirac at `target` the general definition collapses to

        inf { eps > 0 : fraction(|x - target| > eps) <= eps },

    computed here by scanning the sorted absolute deviations, so the result
    is exact for the empirical measure rather than a grid approximation.
    """
    devs = np.sort(np.abs(d.scalar_values() - float(target)))
    n = devs.size
    best = math.inf
    for i in range(n + 1):
        lo = 0.0 if i == 0 else float(devs[i - 1])
        hi = float(devs[i]) if i < n else math.inf
        frac_outside = (n - i) / n
        eps = max(lo, frac_outside)
        if eps < hi or i == n:
            best = min(best, eps)
    return best


@dataclass(frozen=True)
class TailBound:
    """Analytic ceiling on sup_t P(||P_t|| > M) for unstable open-loop maps.

    applicable is False when ||A|| <= 1: the open-loop map is non-expanding,
    thresholds are never forced, and the geometric argument says nothing.
    vacuous flags bounds >= 1.  k_of_m is the number of consecutive open-loop
    steps needed to push the worst bounded state past M.
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


def tail_bound(m, gamma_bar: float, threshold: float,
               p0: Optional[SymMatrix] = None, kappa: Optional[float] = None) -> TailBound:
    """Geometric tail bound on the running covariance norm.

    After any window of N = state-dimension consecutive arrivals the iterate
    is below kappa * I, so exceeding M requires a long enough arrival-free
    stretch: at least k(M) steps, where k(M) is when the open-loop envelope

        kappa1 * a^(2k) + ||Q|| * (a^(2k) - 1) / (a^2 - 1),   a = ||A||

    first reaches M, with kappa1 = max(kappa, ||P0||).  Summing the chance of
    such stretches over time gives, with r = (1 - gamma_bar^N)^(1/N),

        sup_t P(||P_t|| > M) <= r^k(M) / ((1 - gamma_bar^N) * (1 - r)).

    kappa defaults to the model's calibrated uniform bound, which
    `uniform_bound_kappa` caches per model; an explicit kappa, finite and
    positive, reproduces a bound computed elsewhere.
    """
    if not 0.0 < gamma_bar < 1.0:
        raise ValueError(f"gamma_bar must be in (0, 1), got {gamma_bar}")
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if kappa is not None and not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be finite and positive, got {kappa}")
    p0 = _resolve_p0(m, p0)
    alpha = float(np.linalg.norm(m.A, 2))
    if alpha <= 1.0:
        return TailBound(gamma_bar=gamma_bar, threshold=threshold, applicable=False,
                         k_of_m=None, bound=None, vacuous=False, alpha=alpha,
                         kappa=None, kappa1=None)
    if kappa is None:
        kappa = uniform_bound_kappa(m)
    kappa1 = max(kappa, float(norms(p0)[0]))
    q_norm = spectral_norm(m.Q)
    a2 = alpha * alpha

    k = 0
    while kappa1 * a2**k + q_norm * (a2**k - 1.0) / (a2 - 1.0) < threshold:
        k += 1
        if k > 10_000:
            raise RuntimeError("threshold unreachable by the geometric envelope")

    n = m.dim_state
    decay = (1.0 - gamma_bar**n) ** (1.0 / n)
    bound = decay**k / ((1.0 - gamma_bar**n) * (1.0 - decay))
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
                   n_chains: int, seed: int | tuple,
                   p0: Optional[SymMatrix] = None) -> ExceedanceReport:
    """Empirical sup_t P(||P_t|| > M) over t = 0..horizon for each M.

    All thresholds share one batch of chains (chain i reads row i of the
    run's uniform block, as everywhere else), so the frequencies are
    comparable across thresholds.  Raises ValueError unless gamma_bar is in
    (0, 1], n_chains >= 1, horizon >= 0 and thresholds are given, none NaN,
    and RuntimeError when any chain went non-finite within the horizon.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if not 0.0 < gamma_bar <= 1.0:
        raise ValueError(f"gamma_bar must be in (0, 1], got {gamma_bar}")
    if n_chains < 1:
        raise ValueError(f"n_chains must be >= 1, got {n_chains}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if not thresholds or any(math.isnan(t) for t in thresholds):
        raise ValueError(f"need at least one threshold and no NaN, got {thresholds}")
    p0 = _resolve_p0(m, p0)
    bits = _arrival_bits(_as_seed_tuple(seed), gamma_bar, n_chains, horizon)

    p = np.repeat(p0, n_chains, axis=0)
    sup_freq = [0.0] * len(thresholds)
    arg_t = [0] * len(thresholds)
    for t in range(horizon + 1):
        bad = _count_non_finite(p)
        if bad:
            raise RuntimeError(f"{bad} of {n_chains} chains went non-finite by step "
                               f"{t} (gamma_bar={gamma_bar})")
        over = norms_exceed(p, thresholds)
        for j in range(len(thresholds)):
            freq = float(np.mean(over[j]))
            if freq > sup_freq[j]:
                sup_freq[j] = freq
                arg_t[j] = t
        if t < horizon:
            p = step(m, p, bits[:, t])
    return ExceedanceReport(thresholds=thresholds, sup_frequency=tuple(sup_freq),
                            argmax_t=tuple(arg_t), n_chains=n_chains, horizon=horizon)
