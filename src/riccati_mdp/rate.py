"""Decay exponents of rare covariance events, by exact word enumeration.

With arrival probability g close to 1, the chance that the running covariance
sits in a set G far from the fixed point P* decays like (1 - g)^e.  The
exponent e is a variational quantity: the fewest open-loop updates any word
needs in order to carry P* into G.  This module computes it exactly.

The search is cut at k_G, the step at which the open-loop orbit f0^k(P*)
first enters G: only words of length <= k_G are enumerated.  For the
one-sided (class A) geometry, which every scalar model has, longer words
cannot lower the minimum.  Elsewhere the cut is unproven (on about 2% of
random N=2 and N=3 models a longer word with fewer drops hits G), so the
exponent is an upper bound; `is_class_A` screens for the property.  The
word tree is walked one level (word length) at a time on stacked arrays,
merging words whose values coincide on a rounding grid (property-tested
against a brute force walk without merging).  Inside the cut, a node is
pruned when no word of the remaining length can carry it into G: any word
of length l sends X to at most f0^l(X), whose norm is at most
||X|| ||A^l||^2 + ||f0^l(0)||, so for `ballc` (radius above the center's
top eigenvalue) and `norm-above` sets a node below a per-length norm floor
cannot hit (`_reach_floor`; `custom` sets are never pruned).  On the
planar model this leaves two children per level instead of 2^L.

Exact finite-time distributions are also computed here: for small horizons
the chain's law is a finite mixture over arrival paths, and each atom's
probability is a polynomial in g whose lowest-order term gives the atom's
decay exponent.  A law is held as two arrays, the atoms' recorded values and
their path counts per number of open-loop steps, so an event over the atoms
is a boolean mask, one sum of count rows and one polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .linalg import DEFAULT_ORDER_TOL, SymMatrix, as_sym, norms, norms_exceed
from .operators import _SCREEN, _entry, _random_psd_array, _stream, lyapunov_step, solve_dare, step
from .strings import DEDUP_TOL, GammaString, _fold_groups, _grid_keys, _next_level

# Hard ceiling on enumeration depth: 2^26 states is the direct-search limit.
K_CAP_LIMIT = 26
DEFAULT_K_CAP = 22
IOTA_CAP = 1000
FINITE_DIM_MAX_HORIZON = 22
# Relative slack of the reach bound (`_reach_floor`): a node is pruned only
# when its bound stays this share below the set, far above DEDUP_TOL.
REACH_MARGIN = 1e-6


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
        """Membership of one matrix: `batch` on a batch of one."""
        return bool(self.batch(as_sym(x).a[None], p_star)[0])

    def batch(self, values: np.ndarray, p_star: Optional[SymMatrix] = None) -> np.ndarray:
        """Vectorized membership over an exactly symmetric stack (n, N, N).

        Raises RuntimeError when a matrix has a non-finite entry, which has
        no norm to score.
        """
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise RuntimeError("event predicate evaluated on a non-finite matrix")
        if self.kind == "custom":
            return np.array([bool(self.fn(SymMatrix(v))) for v in values], dtype=bool)
        if self.kind == "ballc":
            delta = values - self._resolved_center(p_star).a
            return norms_exceed(delta, [self.threshold], strict=self.open_)[0]
        if self.kind == "norm-above":
            return norms_exceed(values, [self.threshold])[0]
        raise ValueError(f"unknown predicate kind {self.kind!r}")


def iota(m, m_radius: float, cap: int = IOTA_CAP,
         p_star: Optional[SymMatrix] = None) -> float:
    """First k with ||f0^k(P*) - P*|| >= m_radius, or math.inf past the cap."""
    return _orbit_entry(m, EventPredicate.ball_complement(m_radius), cap, p_star)


def iota_plus(m, m_radius: float, cap: int = IOTA_CAP,
              p_star: Optional[SymMatrix] = None) -> float:
    """First k with ||f0^k(P*) - P*|| > m_radius (strict), or math.inf."""
    return _orbit_entry(m, EventPredicate.ball_complement(m_radius, open_=True), cap, p_star)


def _orbit_entry(m, pred: EventPredicate, cap: int,
                 p_star: Optional[SymMatrix]) -> float:
    """First k <= cap with f0^k(P*) in the set, or math.inf past the cap.

    Raises RuntimeError when the orbit overflows before it enters the set.
    """
    if p_star is None:
        p_star = solve_dare(m).p_star
    orbit = p_star.a[None]
    for k in range(cap + 1):
        if not np.isfinite(orbit).all():
            raise RuntimeError(f"the open-loop orbit went non-finite at step {k}")
        if pred.batch(orbit, p_star)[0]:
            return k
        orbit = step(m, orbit, np.zeros(1, dtype=bool))
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


def is_class_A(m, p_star: Optional[SymMatrix] = None) -> ClassAReport:
    """Scalar models: analytic yes.  Otherwise randomized screening.

    Samples 200 X = f0(P*) + W with W a random PSD bump at log-uniform scales
    in [1e-3, 1e4], scales and then normals drawn as blocks of the screen
    stream, and checks f1(X) <= X in the Loewner order at the tolerance of
    `loewner_leq`, stepping them as one stack and deciding them by one
    batched eigendecomposition.  The counterexample is the first failing one.
    """
    if m.dim_state == 1:
        return ClassAReport(scalar_proof=True, trials_run=0, counterexample=None)
    if p_star is None:
        p_star = solve_dare(m).p_star
    rng = _stream((0,), _SCREEN)
    scales = 10.0 ** rng.uniform(-3.0, 4.0, 200)
    xs = lyapunov_step(m, p_star).a + _random_psd_array(rng, m.dim_state, scales)
    f1 = step(m, xs, np.ones(len(xs), dtype=bool))
    lam_min = np.linalg.eigvalsh(xs - f1).min(axis=-1)
    # NaN fails, as in `loewner_leq`.
    failed = np.flatnonzero(~(lam_min >= -DEFAULT_ORDER_TOL * (1.0 + norms(f1) + norms(xs))))
    counterexample = SymMatrix(xs[failed[0]]) if failed.size else None
    return ClassAReport(scalar_proof=False, trials_run=len(xs), counterexample=counterexample)


@dataclass(frozen=True)
class VariationalSolution:
    """Result of the exponent search: the minimum open-loop count over a set.

    exponent is math.inf when the open-loop orbit never reaches the target set
    within the enumeration cap (the marker, not a claim about the true
    infimum).  minimizer is a witness word attaining the exponent, with ties
    broken toward the lexicographically smallest bit tuple.
    strings_examined is the number of open-loop orbit points tested plus the
    number of word-tree nodes generated (every child, before merging), so
    it falls when the reach bound prunes nodes that cannot hit the set.
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
                  p_star: Optional[SymMatrix] = None) -> VariationalSolution:
    """Minimum open-loop count over words from P* whose value lands in the set.

    First finds k_G, the open-loop orbit's entry step into the set (capped at
    k_cap); the search then covers every word of length <= k_G, one length
    at a time.  The cut at k_G is exact only for class A models (every
    scalar model; see `is_class_A`): elsewhere a longer word with fewer
    drops can hit the set, and the exponent is then an upper bound.  Words
    with one open-loop count whose values share a rounding-grid cell
    generate identical futures, so each level keeps one node per distinct
    (count, value), carrying the smallest word that reaches it; nodes whose
    count exceeds the best hit so far are pruned.  Once a level's hits are
    scored, nodes whose norm lies below the reach floor for the k_G - L
    steps left are pruned as well (`_reach_floor`): no word of that length
    can carry them into the set.  This applies to `norm-above` sets and to
    `ballc` sets whose radius exceeds the center's top eigenvalue, and it
    changes only `strings_examined`.  The exponent is the smallest count of
    a hit, and the witness is the lexicographically smallest hitting word
    with that count (0 sorts before 1, shorter before longer at equal
    prefix).
    """
    if not 0 <= k_cap <= K_CAP_LIMIT:
        raise ValueError(f"k_cap must be in [0, {K_CAP_LIMIT}], got {k_cap}")
    if p_star is None:
        p_star = solve_dare(m).p_star

    k_gamma = _orbit_entry(m, pred, k_cap, p_star)
    if not math.isfinite(k_gamma):
        return VariationalSolution(exponent=math.inf, minimizer=None,
                                   k_gamma=math.inf, strings_examined=k_cap + 1)
    examined = k_gamma + 2  # the orbit points tested, then the tree root
    # The floor for R steps left is read at levels 0 < L = k_G - R < k_G.
    floor = _reach_floor(m, pred, p_star, k_gamma - 1)

    # A node is a distinct (open-loop count, value) pair carrying the smallest
    # word code that reaches it.  Codes put the outermost bit in the most
    # significant place, so at one length integer order is tuple order.
    level = p_star.a[None]
    zeros = np.zeros(1, dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    best = math.inf
    hits = []
    for length in range(k_gamma + 1):
        if length:
            zeros = np.concatenate([zeros + 1, zeros])
            codes = np.concatenate([codes, codes | (1 << (length - 1))])
            children, _keys, sizes, first, inverse = _next_level(
                m, level, prefix=zeros[:, None])
            examined += len(children)
            # Each node keeps the value of its smallest word, and nodes whose
            # count already exceeds the best hit cannot lower it.
            fold = _fold_groups(np.minimum, codes, first, inverse)
            winner = np.nonzero(codes == fold[inverse])[0]
            keep = winner[zeros[winner] <= best]
            level, zeros, codes = children[keep], zeros[keep], codes[keep]
        hit = pred.batch(level, p_star)
        if hit.any():
            best = min(best, int(zeros[hit].min()))
            hits += [(int(z), _code_bits(int(c), length))
                     for z, c in zip(zeros[hit], codes[hit])]
        if floor is not None and 0 < length < k_gamma:
            # Nodes too small to reach the set in the steps left cannot hit;
            # a NaN floor or size compares false and keeps the node.
            live = ~(sizes[keep] < floor[k_gamma - length - 1])
            if not live.any():
                break
            level, zeros, codes = level[live], zeros[live], codes[live]

    if not hits:
        raise RuntimeError(
            "exhausted the enumeration without a hit, yet the orbit point "
            f"f0^{k_gamma}(P*) was in the set; dedup tolerance {DEDUP_TOL} is too coarse"
        )
    witness = GammaString(bits=min(bits for z, bits in hits if z == best), initial=p_star)
    return VariationalSolution(exponent=best, minimizer=witness,
                               k_gamma=k_gamma, strings_examined=examined)


def _reach_floor(m, pred: EventPredicate, p_star: SymMatrix,
                 depth: int) -> Optional[np.ndarray]:
    """Least norm from which a word of length <= R can hit the set, for R = 1..depth.

    f1 <= f0 and f0 is monotone, so any word of length l sends X to at most
    f0^l(X) = A^l X A^l' + f0^l(0), whose norm is at most ||X|| g_l + s_l
    with g_l = ||A^l||^2 and s_l = ||f0^l(0)||.  Word values are PSD, so a
    `norm-above:b` hit needs that sum above b, and a `ballc:M` hit with
    center c and M > lambda_max(c) needs it at or above M + lambda_min(c):
    Y - c has no eigenvalue below -lambda_max(c).  So a node X can hit
    within R steps only if ||X|| >= min over l <= R of (t - s_l) / g_l,
    the floor returned at index R - 1, with the target t lowered by the
    relative REACH_MARGIN.  An l whose g_l or s_l is not finite, or whose
    g_l is zero or below REACH_MARGIN * ||A||^(2 l) (A^l near nilpotent,
    where float steps can stand far above the exact bound), gives a floor
    of -inf, which prunes nothing.  Returns None for `custom` predicates,
    for a ball no larger than the center's top eigenvalue, and for
    depth < 1 (an entry step of 0 or 1 leaves no level to prune).
    """
    if depth < 1:
        return None
    if pred.kind == "norm-above":
        target = pred.threshold
    elif pred.kind == "ballc":
        spectrum = np.linalg.eigvalsh(pred._resolved_center(p_star).a)
        if not pred.threshold * (1.0 - REACH_MARGIN) > spectrum[-1]:
            return None
        target = pred.threshold + spectrum[0]
    else:
        return None
    target *= 1.0 - REACH_MARGIN
    n = m.dim_state
    powers = np.empty((depth + 1, n, n))
    powers[0] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for l in range(depth):
            powers[l + 1] = m.A @ powers[l]
        gram = powers[1:] @ powers[1:].transpose(0, 2, 1)
        # f0^l(0) = sum_{j < l} A^j Q A^j'.
        drift = np.cumsum(powers[:-1] @ m.Q.a @ powers[:-1].transpose(0, 2, 1), axis=0)
        g = norms((gram + gram.transpose(0, 2, 1)) / 2.0)
        s = norms((drift + drift.transpose(0, 2, 1)) / 2.0)
        # A non-finite entry gives a NaN norm, which fails both comparisons.
        usable = ((g > 0.0) & (g >= REACH_MARGIN * g[0] ** np.arange(1, depth + 1))
                  & np.isfinite(s))
        floor = np.where(usable, (target - s) / g, -np.inf)
    return np.minimum.accumulate(floor)


def _code_bits(code: int, length: int) -> tuple:
    """Bit tuple of a word code, most significant (outermost) bit first."""
    return tuple((code >> (length - 1 - i)) & 1 for i in range(length))


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


class _AtomView(Sequence):
    """Read-only sequence of a law's atoms; each `Atom` is built on first read and kept."""

    __slots__ = ("_law", "_built")

    def __init__(self, law: "FiniteDimDistribution"):
        self._law = law
        self._built: Optional[list] = None

    def __len__(self) -> int:
        return len(self._law.counts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        if self._built is None:
            self._built = [None] * len(self)
        atom = self._built[i]
        if atom is None:
            law = self._law
            atom = self._built[i] = Atom(
                values=tuple(SymMatrix(v) for v in law.values[i]),
                horizon=law.horizon, multiplicity=_multiplicity(law.counts[i]))
        return atom

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _multiplicity(row: np.ndarray) -> dict:
    """Path-count row {open-loop steps: paths}, zero counts left out."""
    return {p: int(c) for p, c in enumerate(row.tolist()) if c}


@dataclass(frozen=True, eq=False)
class FiniteDimDistribution:
    """Exact joint law of the covariance at finitely many times, as two arrays.

    Atom i of the law has the recorded values values[i], one (N, N) matrix
    per recording time, so values has shape (n_atoms, len(times), N, N);
    counts[i, p] is the number of the 2^horizon arrival paths with exactly
    p open-loop steps that produce atom i (int64, shape (n_atoms,
    horizon + 1)).  Probabilities are polynomials in the arrival rate,
    exact up to float round-off.  Both arrays are read-only copies of the
    constructor's arguments.  `atoms` is a lazy read-only sequence of
    `Atom` values: its length costs nothing, and each `Atom` is built the
    first time it is indexed or iterated and kept for later reads.

    An event is either a callable on an atom's value tuple, evaluated atom
    by atom through `atoms`, or a boolean mask of shape (n_atoms,) over the
    atoms, e.g. ``pred.batch(law.values[:, -1], p_star)``.  Both fold into
    one path-count row, ``counts[mask].sum(0)``, and one polynomial.
    """

    times: tuple
    horizon: int
    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        # Copies, so later writes to the caller's arrays cannot reach the law.
        values = np.array(self.values, dtype=float)
        counts = np.array(self.counts, dtype=np.int64)
        n = len(counts)
        if values.ndim != 4 or values.shape[:2] != (n, len(self.times)):
            raise ValueError(f"values must have shape ({n}, {len(self.times)}, N, N), "
                             f"got {values.shape}")
        if counts.shape != (n, self.horizon + 1):
            raise ValueError(f"counts must have shape (n_atoms, {self.horizon + 1}), "
                             f"got {counts.shape}")
        values.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def atoms(self) -> _AtomView:
        return _AtomView(self)

    def total_probability(self, gamma_bar: float) -> float:
        return poly_probability(_multiplicity(self.counts.sum(axis=0)),
                                gamma_bar, self.horizon)

    def event_multiplicities(self, event: Callable[[tuple], bool] | np.ndarray) -> dict:
        """Combined path counts of the atoms in the event (callable or mask)."""
        if callable(event):
            mask = np.fromiter((bool(event(a.values)) for a in self.atoms),
                               dtype=bool, count=len(self.counts))
        else:
            mask = np.asarray(event)
            if mask.dtype != bool or mask.shape != (len(self.counts),):
                raise ValueError(f"an event mask must be boolean with shape "
                                 f"({len(self.counts)},), got {mask.dtype} {mask.shape}")
        return _multiplicity(self.counts[mask].sum(axis=0))

    def event_probability(self, event: Callable[[tuple], bool] | np.ndarray,
                          gamma_bar: float) -> float:
        return poly_probability(self.event_multiplicities(event), gamma_bar, self.horizon)

    def event_exponent(self, event: Callable[[tuple], bool] | np.ndarray) -> float:
        mult = self.event_multiplicities(event)
        return min(mult) if mult else math.inf


def finite_dim_exact(m, p0: SymMatrix, times: Iterable[int]) -> FiniteDimDistribution:
    """Exact law of (P_{t_1}, ..., P_{t_n}) for increasing recording times.

    Walks t = 0..t_n once, one tree level per step, maintaining a merged
    node per distinct (recorded values, running value) signature with a
    path-count vector attached.  Merging is sound because the future depends
    only on the running value.
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

    # One node per distinct (recorded values, running value) signature, with
    # counts[i, p] the number of paths reaching node i with p open-loop steps.
    timeset = frozenset(times)
    level = _entry(m, p0, "P0")
    rec_keys = _grid_keys(level)
    if 0 in timeset:
        recorded = level[:, None]
    else:
        recorded, rec_keys = np.empty((1, 0) + level.shape[1:]), rec_keys[:, :0]
    counts = np.ones((1, 1), dtype=np.int64)

    for t in range(1, horizon + 1):
        children, keys, _, first, inverse = _next_level(
            m, level, prefix=np.concatenate([rec_keys, rec_keys]))
        # f0 children (the first half) add one open-loop step to every path.
        child_counts = np.concatenate([np.pad(counts, ((0, 0), (1, 0))),
                                       np.pad(counts, ((0, 0), (0, 1)))])
        counts = _fold_groups(np.add, child_counts, first, inverse)
        level = children[first]
        recorded = np.concatenate([recorded, recorded])[first]
        if t in timeset:
            recorded = np.concatenate([recorded, level[:, None]], axis=1)
            rec_keys = keys[first]
        else:
            rec_keys = keys[first, :rec_keys.shape[1]]

    total_paths = int(counts.sum())
    if total_paths != 2**horizon:
        raise RuntimeError(
            f"path accounting is off: {total_paths} paths for horizon {horizon}"
        )
    return FiniteDimDistribution(times=times, horizon=horizon, values=recorded, counts=counts)
