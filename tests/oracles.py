"""Independent reference implementations used to cross-check the package.

Nothing in this module imports riccati_mdp. Model matrices are restated as
literals and every computation is re-derived from scratch (closed forms for
the scalar model, batched brute-force enumeration for matrix models) so that
agreement with the package is evidence rather than tautology.
"""

import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)

# Scalar study model: A = sqrt(2), C = Q = R = 1, P0 = 1.
# Update maps reduce to f0(x) = 2x + 1 and f1(x) = (3x + 1)/(x + 1).
P_STAR_SCALAR = 1.0 + SQRT2
F0_ORBIT_SCALAR = (
    3.0 + 2.0 * SQRT2,
    7.0 + 4.0 * SQRT2,
    15.0 + 8.0 * SQRT2,
    31.0 + 16.0 * SQRT2,
)
F1_OF_F0_SCALAR = 2.0 + SQRT2 / 2.0

# Planar demo model, restated.
A_PLANAR = [[1.2, 0.5], [0.0, 0.8]]
C_PLANAR = [[1.0, 0.0]]
Q_PLANAR = [[1.0, 0.0], [0.0, 1.0]]
R_PLANAR = [[1.0]]


def f0_scalar(x):
    return 2.0 * x + 1.0


def f1_scalar(x):
    return (3.0 * x + 1.0) / (x + 1.0)


def eval_word_scalar(bits, start=P_STAR_SCALAR):
    """Apply the maps named by bits, rightmost bit first."""
    x = start
    for b in reversed(bits):
        x = f1_scalar(x) if b else f0_scalar(x)
    return x


def finite_time_event_prob_scalar(horizon, gamma_bar, event, start=P_STAR_SCALAR):
    """P(event(X_horizon)) by summing over all 2^horizon arrival words.

    Bit k of the path code is the arrival indicator at time k, so the word
    is consumed in chronological order starting from `start`.
    """
    total = 0.0
    for code in range(2 ** horizon):
        x, zeros = start, 0
        for step in range(horizon):
            bit = (code >> step) & 1
            x = f1_scalar(x) if bit else f0_scalar(x)
            zeros += 1 - bit
        if event(x):
            total += (1.0 - gamma_bar) ** zeros * gamma_bar ** (horizon - zeros)
    return total


def min_zeros_scalar(threshold, length_cap, start=P_STAR_SCALAR):
    """Fewest skipped observations over words of length <= length_cap whose
    value lands at distance >= threshold from the scalar fixed point."""
    best = math.inf
    if abs(start - P_STAR_SCALAR) >= threshold:
        best = 0
    level = [(start, 0)]
    for _ in range(length_cap):
        nxt = []
        for v, z in level:
            for b in (0, 1):
                w = f1_scalar(v) if b else f0_scalar(v)
                zz = z + (1 - b)
                nxt.append((w, zz))
                if abs(w - P_STAR_SCALAR) >= threshold:
                    best = min(best, zz)
        level = nxt
    return best


def make_batched_maps(a, c, q, r):
    """Return (f0, f1) acting on stacks of symmetric matrices, shape (m, n, n)."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)

    def sym(v):
        return 0.5 * (v + np.swapaxes(v, -1, -2))

    def f0(v):
        return sym(a @ v @ a.T + q)

    def f1(v):
        axct = a @ v @ c.T
        innov = c @ v @ c.T + r
        corr = axct @ np.linalg.solve(innov, np.swapaxes(axct, -1, -2))
        return sym(a @ v @ a.T + q - corr)

    return f0, f1


def step_broadcast(m, p, bits):
    """Frozen verbatim copy of `operators.step` in its broadcast (k, N, N)
    form.  The package kernel does its elementwise work on an entry-major
    (N, N, k) copy but keeps the products with C on the chain-major input,
    as here, and must equal this bit for bit.  m is any object with the
    SystemModel fields."""
    k, n, _ = p.shape
    arrived = np.asarray(bits, dtype=bool)[:, None, None]
    if n == 1 and m.dim_obs == 1:
        a, c = m.A[0, 0], m.C[0, 0]
        f0 = a * a * p + m.Q.a[0, 0]
        f1 = f0 - (a * c * p) ** 2 / (c * c * p + m.R.a[0, 0])
        return np.where(arrived, f1, f0)
    a, c = m.A, m.C
    flat = p.reshape(k * n, n)
    # Rows of A P, stacked: each P A^T transposed, since P = P^T.
    ap = (flat @ a.T).reshape(k, n, n).transpose(0, 2, 1).reshape(k * n, n)
    f0 = (ap @ a.T).reshape(k, n, n) + m.Q.a
    if m.dim_obs == 1:
        pc = (flat @ c[0]).reshape(k, n)
        u = pc @ a.T
        s = pc @ c[0] + m.R.a[0, 0]
        corr = u[:, :, None] * (u / s[:, None])[:, None, :]
    else:
        axct = (ap @ c.T).reshape(k, n, -1)
        innov = c @ (flat @ c.T).reshape(k, n, -1) + m.R.a
        innov = (innov + np.transpose(innov, (0, 2, 1))) / 2.0
        try:
            corr = axct @ np.linalg.solve(innov, np.transpose(axct, (0, 2, 1)))
        except np.linalg.LinAlgError as exc:
            # Admissible models keep the innovation positive definite, so
            # this only happens once a chain has gone non-finite.
            raise RuntimeError(f"innovation matrix is singular: {exc}") from exc
    out = np.where(arrived, f0 - corr, f0)
    return (out + np.transpose(out, (0, 2, 1))) / 2.0


def class_a_screen_loop(m, p_star, trials=200, tol=1e-9):
    """Frozen copy of the one-trial-at-a-time class A screen of matrix models.

    The screen's stream is Philox keyed by SeedSequence((0,), spawn_key=(2,)),
    restated here.  It holds the trials' uniforms, then their normals, so two
    copies of it are read: one for the scales and one, past the uniforms,
    for the bumps.  Each trial takes a log-uniform scale, then a PSD bump
    G G^T * scale / N, adds it to f0(P*), and stops at the first X without
    f1(X) <= X, at the `loewner_leq` tolerance lambda_min(X - f1(X)) >= -tol
    (1 + ||f1(X)|| + ||X||).  The maps are `step_broadcast` on a batch of
    one, and every symmetrization of the package's matrix wrapper is kept.
    p_star is an (N, N) array.  Returns the first counterexample, or None.
    """
    def sym(x):
        return (x + x.T) / 2.0

    def norm(x):
        return float(np.max(np.abs(np.linalg.eigvalsh(x[None])), axis=-1)[0])

    def stream():
        key = np.random.SeedSequence((0,), spawn_key=(2,)).generate_state(2, np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    n = p_star.shape[0]
    base = sym(step_broadcast(m, p_star[None], np.zeros(1, dtype=bool))[0])
    rng, normals = stream(), stream()
    normals.random(trials)
    for _ in range(trials):
        scale = 10.0 ** rng.uniform(-3.0, 4.0)
        g = normals.standard_normal((n, n))
        bump = sym(sym(g @ g.T * (scale / n)))
        x = sym(base + bump)
        fx = sym(step_broadcast(m, x[None], np.ones(1, dtype=bool))[0])
        lam_min = float(np.min(np.linalg.eigvalsh(x - fx)))
        if not lam_min >= -tol * (1.0 + norm(fx) + norm(x)):
            return x
    return None


def solve_dare_unscreened(m, tol=1e-12, max_iterations=100_000):
    """Frozen copy of `operators.solve_dare` before its stop test was
    screened: both spectral norms are taken at every iteration.  Steps with
    `step_broadcast`; m is any object with the SystemModel fields.  Returns
    (p_star array, iterations, residual); raises RuntimeError as the
    package does."""
    arrived = np.ones(1, dtype=bool)
    x = np.asarray(m.Q.a, dtype=float)[None]
    for k in range(1, max_iterations + 1):
        x_next = step_broadcast(m, x, arrived)
        if not np.isfinite(x_next).all():
            raise RuntimeError(f"fixed-point iteration went non-finite at iteration {k}")
        if spectral_norms(x_next - x)[0] <= tol * (1.0 + spectral_norms(x)[0]):
            residual = float(spectral_norms(step_broadcast(m, x_next, arrived) - x_next)[0])
            return x_next[0], k, residual
        x = x_next
    raise RuntimeError(f"fixed-point iteration did not converge in {max_iterations} iterations")


# Relative pitch of the package's rounding grid (strings.DEDUP_TOL), restated.
DEDUP_TOL = 1e-9


def rate_walk_unpruned(m, hit, p_star, k_cap):
    """Frozen copy of the merged word-tree walk of `rate.rate_over_set`
    before nodes were pruned by their reach, on `step_broadcast` and
    `first_occurrence_groups`.

    hit(stack) -> mask tests membership of a stack (k, N, N); p_star is an
    (N, N) array.  The walk finds k_G, the open-loop orbit's entry step
    into the set, then walks every word of length <= k_G one level at a
    time.  Children whose drop count and rounding-grid key
    (DEDUP_TOL * (1 + ||X||) pitch) coincide merge into the one with the
    smallest word code, and nodes with more drops than the best hit so far
    are dropped.  Returns (exponent, witness bits, k_G, strings_examined),
    with (inf, None, inf, k_cap + 1) when the orbit misses the set within
    k_cap steps.
    """
    p_star = np.asarray(p_star, dtype=float)
    zeros1 = np.zeros(1, dtype=bool)
    orbit, k_gamma = p_star[None], math.inf
    for k in range(k_cap + 1):
        if not np.isfinite(orbit).all():
            raise RuntimeError(f"the open-loop orbit went non-finite at step {k}")
        if hit(orbit)[0]:
            k_gamma = k
            break
        orbit = step_broadcast(m, orbit, zeros1)
    if not math.isfinite(k_gamma):
        return math.inf, None, math.inf, k_cap + 1
    examined = k_gamma + 2

    level = p_star[None]
    zeros = np.zeros(1, dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    best = math.inf
    hits = []
    for length in range(k_gamma + 1):
        if length:
            zeros = np.concatenate([zeros + 1, zeros])
            codes = np.concatenate([codes, codes | (1 << (length - 1))])
            k = len(level)
            children = step_broadcast(m, np.concatenate([level, level]),
                                      np.arange(2 * k) >= k)
            if not np.isfinite(children).all():
                raise RuntimeError("a word-tree level went non-finite")
            pitch = DEDUP_TOL * (1.0 + spectral_norms(children))
            keys = np.round(children / pitch[:, None, None]).astype(np.int64)
            keys = np.concatenate([zeros[:, None], keys.reshape(2 * k, -1)], axis=1)
            first, inverse = first_occurrence_groups(keys)
            examined += len(children)
            fold = codes[first]
            merged = np.ones(len(codes), dtype=bool)
            merged[first] = False
            np.minimum.at(fold, inverse[merged], codes[merged])
            winner = np.nonzero(codes == fold[inverse])[0]
            keep = winner[zeros[winner] <= best]
            level, zeros, codes = children[keep], zeros[keep], codes[keep]
        found = hit(level)
        if found.any():
            best = min(best, int(zeros[found].min()))
            hits += [(int(z), tuple((int(c) >> (length - 1 - i)) & 1 for i in range(length)))
                     for z, c in zip(zeros[found], codes[found])]
    if not hits:
        raise RuntimeError("exhausted the enumeration without a hit")
    witness = min(bits for z, bits in hits if z == best)
    return best, witness, k_gamma, examined


def value_tree(f0, f1, start, depth):
    """levels[L][i] is the value of the length-L word whose bit k (LSB first)
    is the map applied at position k from the innermost end. Appending a new
    outermost map sets the new high bit, hence the concatenation order."""
    levels = [np.asarray(start, dtype=float).reshape(1, *np.shape(start))]
    for _ in range(depth):
        v = levels[-1]
        levels.append(np.concatenate([f0(v), f1(v)], axis=0))
    return levels


def lightest_hitting_word(levels, hit):
    """(fewest zero bits, lexicographically smallest word with that many)
    over every word in value_tree `levels` whose value satisfies
    hit(stack) -> mask; None when no word hits.  The word of entry i at
    level L, outermost map first, is the L binary digits of i, most
    significant first."""
    best = None
    for length, vals in enumerate(levels):
        for i in np.nonzero(hit(vals))[0]:
            word = tuple((int(i) >> (length - 1 - k)) & 1 for k in range(length))
            cand = (length - sum(word), word)
            if best is None or cand < best:
                best = cand
    return best


def popcounts(n_codes):
    codes = np.arange(n_codes, dtype=np.uint64)
    out = np.zeros(n_codes, dtype=np.int64)
    while codes.any():
        out += (codes & 1).astype(np.int64)
        codes >>= 1
    return out


def first_occurrence_groups(keys):
    """Equal rows of an int array (n, c) grouped with np.unique(axis=0), the
    groups renumbered by first occurrence: returns (first, inverse) with
    first[g] the first row of group g, increasing, and inverse[i] the group
    of row i."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def spectral_norms(stack):
    stack = np.asarray(stack, dtype=float)
    if stack.shape[-1] == 1:
        return np.abs(stack[..., 0, 0])
    return np.abs(np.linalg.eigvalsh(stack)).max(axis=-1)


def min_zeros_tree(a, c, q, r, p_star, threshold, length_cap):
    """Brute-force counterpart of min_zeros_scalar for matrix models.

    Enumerates every word up to length_cap, batched per level, and returns
    the fewest zero bits among words whose value leaves the closed ball of
    radius `threshold` around p_star (inf when none do).
    """
    f0, f1 = make_batched_maps(a, c, q, r)
    p_star = np.asarray(p_star, dtype=float)
    levels = value_tree(f0, f1, p_star, length_cap)
    best = math.inf
    for length, vals in enumerate(levels):
        dists = spectral_norms(vals - p_star)
        hit = dists >= threshold
        if not hit.any():
            continue
        zeros = length - popcounts(len(vals))
        best = min(best, int(zeros[hit].min()))
    return best


def dare_fixed_point_scalar_bisect(a, c, q, r, lo=0.0, hi=1e6):
    """Fixed point of x -> a^2 x + q - a^2 c^2 x^2 / (c^2 x + r) by bisection."""

    def g(x):
        return a * a * x + q - (a * c * x) ** 2 / (c * c * x + r) - x

    assert g(lo) > 0 and g(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def prohorov_dirac_slow(values, target):
    """Smallest eps with frac(|x - target| > eps) <= eps, by scanning every
    candidate breakpoint (each deviation and each fraction k/n)."""
    devs = np.abs(np.asarray(values, dtype=float) - target)
    n = len(devs)
    cands = sorted(set(devs.tolist()) | {k / n for k in range(n + 1)})
    for eps in cands:
        if np.count_nonzero(devs > eps) / n <= eps:
            return eps
    return math.inf


def envelope_steps_loop(kappa1, q_norm, a2, threshold, cap=10_000):
    """Least k with kappa1 a2^k + ||Q|| (a2^k - 1) / (a2 - 1) >= threshold,
    counted one step at a time; None past cap steps."""
    k = 0
    while kappa1 * a2**k + q_norm * (a2**k - 1.0) / (a2 - 1.0) < threshold:
        k += 1
        if k > cap:
            return None
    return k


def exceedance_scan_loop(step, p0, bits, thresholds):
    """Frozen copy of the threshold-at-a-time scan of `exceedance_sup`.

    Chains start at the (1, N, N) array p0 and take step(p, bits[:, t]) for
    t < horizon = bits.shape[1].  At every t each threshold M is scored on
    its own as the mean of ||P_t|| > M, and a step replaces the best so far
    only when its frequency is strictly higher, so the first step at the
    largest frequency is kept, and step 0 when none is hit.  Returns
    (sup_frequency, argmax_t) as tuples of Python numbers.
    """
    n_chains, horizon = bits.shape
    p = np.repeat(p0, n_chains, axis=0)
    sup_freq = [0.0] * len(thresholds)
    arg_t = [0] * len(thresholds)
    for t in range(horizon + 1):
        norms = spectral_norms(p)
        for j, threshold in enumerate(thresholds):
            freq = float(np.mean(norms > threshold))
            if freq > sup_freq[j]:
                sup_freq[j] = freq
                arg_t[j] = t
        if t < horizon:
            p = step(p, bits[:, t])
    return tuple(sup_freq), tuple(arg_t)


# Purpose of a sampling run's tie stream, restated.
TIE_PURPOSE = 3


def philox_stream(seed_tuple, *purpose):
    """Philox keyed by SeedSequence(seed_tuple, spawn_key=purpose), restated."""
    key = np.random.SeedSequence(seed_tuple, spawn_key=purpose).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def arrival_lanes(seed_tuple, size):
    """The first `size` 8-bit lanes of the seed tuple's stream, as Python ints.

    Lane j of raw word w is (w >> 8j) & 0xFF, low byte first, so word k gives
    lanes 8k to 8k + 7.
    """
    words = philox_stream(seed_tuple).bit_generator.random_raw(-(-size // 8)).tolist()
    return [(w >> (8 * j)) & 0xFF for w in words for j in range(8)][:size]


def lane_arrival_bits(seed_tuple, gamma_bar, n, steps):
    """Reference arrival bits (n, steps) under the eight-lanes-per-word contract.

    Bit b = i * steps + t takes lane b of `arrival_lanes`.  With q = 256
    gamma_bar as an exact fraction and h = floor(q), a lane below h arrives,
    and a lane equal to h takes the next uniform (w >> 11) / 2^53 of the tie
    stream, in row-major order, and arrives when it is below q - h, compared
    as exact fractions.  gamma_bar = 1 arrives everywhere and draws nothing.
    """
    if gamma_bar == 1.0:
        return np.ones((n, steps), dtype=bool)
    q = Fraction(gamma_bar) * 256
    h = math.floor(q)
    ties = philox_stream(seed_tuple, TIE_PURPOSE).bit_generator
    bits = []
    for lane in arrival_lanes(seed_tuple, n * steps):
        if lane == h:
            bits.append(Fraction(int(ties.random_raw()) >> 11, 2**53) < q - h)
        else:
            bits.append(lane < h)
    return np.array(bits, dtype=bool).reshape(n, steps)


def prohorov_breakpoint_loop(values, target):
    """The breakpoint scan of prohorov_distance_scalar as a Python loop over
    the n + 1 breakpoints of the sorted deviations, with the same float
    operations, so that the vectorized scan must match it exactly."""
    devs = np.sort(np.abs(np.asarray(values, dtype=float) - float(target)))
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


def write_csv_per_value(path, header, rows):
    """The CLI's CSV writer before it went columnar, frozen: one row at a
    time, booleans as true/false, floats through format(x, ".17g") and
    everything else through str."""
    def fmt(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, float):
            return format(x, ".17g")
        return str(x)

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
