"""The two covariance update maps and their fixed-point analysis.

A missed observation applies the open-loop update

    f0(X) = A X A^T + Q,

an arrived observation applies the measurement update

    f1(X) = A X A^T + Q - A X C^T (C X C^T + R)^(-1) C X A^T.

f1 is the arrival map even though sample paths select between the two at
random; randomness lives entirely in which map gets applied.  Both maps
preserve the PSD cone and are monotone in the Loewner order, and f1 admits a
unique PSD fixed point P* for validated models, found here by plain
fixed-point iteration (`solve_dare`).  Every random draw of the package,
arrival bits included, reads blocks of one keyed Philox stream (`_stream`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_ORDER_TOL, SymMatrix, as_sym, norms, step_exceeds

# Iterates are symmetrized every step; this is the PSD slack allowed on inputs.
_PSD_INPUT_TOL = 1e-8
_DARE_MAX_ITERATIONS = 100_000
# Purposes of the two streams that feed no chain, both read at seed (0,).
_CALIBRATION, _SCREEN = 1, 2


def _entry(m, x, what: str) -> np.ndarray:
    """Shape and PSD check where a matrix enters; returns it as a batch of one."""
    x = as_sym(x)
    if x.dim != m.dim_state:
        raise ValueError(f"{what} must be {m.dim_state}x{m.dim_state}, got {x.dim}x{x.dim}")
    p = x.a[None]
    lam_min = float(np.min(np.linalg.eigvalsh(x.a)))
    if lam_min < -_PSD_INPUT_TOL * (1.0 + norms(p)[0]):
        raise ValueError(f"{what} must be PSD, min eigenvalue {lam_min:.6e}")
    return p


def _steps(m, p: np.ndarray, bits: np.ndarray, what: str) -> np.ndarray:
    """Step p once per row of bits (t, k); RuntimeError names a non-finite step."""
    for t, row in enumerate(bits, 1):
        p = step(m, p, row)
        if not np.isfinite(p).all():
            raise RuntimeError(f"{what} went non-finite at step {t}")
    return p


def lyapunov_step(m, x: SymMatrix) -> SymMatrix:
    """Open-loop update f0(X) = A X A^T + Q; `step` on a batch of one."""
    return SymMatrix(step(m, _entry(m, x, "X"), np.zeros(1, dtype=bool))[0])


def riccati_step(m, x: SymMatrix) -> SymMatrix:
    """Measurement update f1(X) = A X A^T + Q - A X C^T (C X C^T + R)^(-1) C X A^T.

    `step` on a batch of one, so single matrices and stacks share numerics.
    """
    return SymMatrix(step(m, _entry(m, x, "X"), np.ones(1, dtype=bool))[0])


def step(m, p: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """One update of a stack p of shape (k, N, N): f1 where bits (k,) is set, else f0.

    The one f0/f1 kernel: chains, word-tree levels and the single-matrix
    `lyapunov_step` / `riccati_step` all step through it.  Inputs are trusted
    to be symmetric PSD and are not checked.

    * N = 1 with one output uses the closed forms a^2 x + q and
      a^2 x + q - (a c x)^2 / (c^2 x + r), elementwise.
    * Otherwise the elementwise work runs on an entry-major (N, N, k) copy
      of the stack, so each pass runs along the chain axis instead of in
      inner loops of length N*N.  A @ (A P)^T gives A P A^T with its two
      matrix indices swapped, so Q and the correction are added swapped as
      well, and X + X^T, halved, leaves no trace of the swap while it keeps
      round-off from drifting across steps.  A single output makes the
      correction the rank-one term u u^T / s with u = A P c^T and
      s = c P c^T + r; more outputs solve against the innovation matrix,
      and a singular one raises RuntimeError.  The correction is taken
      where bits is set.  The result is a (k, N, N) view of the entry-major
      output.
    * P c^T and c P c^T stay matrix-vector products on the chain-major
      (k*N, N) input: BLAS accumulates a matrix-vector product in another
      order when its operand is transposed, which would move the last bit
      of the correction for a general c, while the matrix products agree
      in both layouts.  So the result equals the broadcast (k, N, N) form
      to the bit.
    """
    k, n, _ = p.shape
    arrived = np.asarray(bits, dtype=bool)
    if n == 1 and m.dim_obs == 1:
        a, c = m.A[0, 0], m.C[0, 0]
        f0 = a * a * p + m.Q.a[0, 0]
        f1 = f0 - (a * c * p) ** 2 / (c * c * p + m.R.a[0, 0])
        return np.where(arrived[:, None, None], f1, f0)
    a, c = m.A, m.C
    flat = p.reshape(k * n, n)
    em = np.ascontiguousarray(p.transpose(1, 2, 0))
    # ap[i, j] is (A P)[i, j] along the chains; f0[j, i] is (A P A^T)[i, j].
    ap = (a @ em.reshape(n, n * k)).reshape(n, n, k)
    f0 = (a @ ap.transpose(1, 0, 2).reshape(n, n * k)).reshape(n, n, k)
    f0 += m.Q.a[:, :, None]
    if m.dim_obs == 1:
        pc = (flat @ c[0]).reshape(k, n)
        u = a @ pc.T
        s = pc @ c[0] + m.R.a[0, 0]
        corr = (u / s)[:, None, :] * u[None, :, :]
    else:
        axct = (ap.transpose(2, 0, 1).reshape(k * n, n) @ c.T).reshape(k, n, -1)
        innov = c @ (flat @ c.T).reshape(k, n, -1) + m.R.a
        innov = (innov + np.transpose(innov, (0, 2, 1))) / 2.0
        try:
            corr = axct @ np.linalg.solve(innov, np.transpose(axct, (0, 2, 1)))
        except np.linalg.LinAlgError as exc:
            # Admissible models keep the innovation positive definite, so
            # this only happens once a chain has gone non-finite.
            raise RuntimeError(f"innovation matrix is singular: {exc}") from exc
        corr = corr.transpose(2, 1, 0)
    out = np.where(arrived, f0 - corr, f0)
    out = out + out.transpose(1, 0, 2)
    # Halving by a product is exact, so it rounds as (X + X^T) / 2 does.
    out *= 0.5
    return out.transpose(2, 0, 1)


@dataclass(frozen=True)
class DareSolution:
    """Fixed point of the measurement update, with solver diagnostics."""

    p_star: SymMatrix
    iterations: int
    residual: float

    def to_dict(self) -> dict:
        return {
            "p_star": self.p_star.a.tolist(),
            "iterations": self.iterations,
            "residual": self.residual,
        }


def solve_dare(m, tol: float = 1e-12) -> DareSolution:
    """Fixed point of f1 by direct iteration from X = Q.

    Stops when the step size drops below tol * (1 + ||X||), a test that
    `linalg.step_exceeds` decides from entry bounds on all but the steps
    near the cut.  Validated models contract geometrically near the fixed
    point, so the plain iteration is reliable and keeps the solver free of
    model-reduction heuristics.  An iterate that goes non-finite (an
    inadmissible model) raises RuntimeError.
    """
    x = _entry(m, m.Q, "Q")
    arrived = np.ones(1, dtype=bool)
    for k in range(1, _DARE_MAX_ITERATIONS + 1):
        x_next = step(m, x, arrived)
        if not np.isfinite(x_next).all():
            raise RuntimeError(f"fixed-point iteration went non-finite at iteration {k}")
        if not step_exceeds(x_next - x, x, tol):
            residual = float(norms(step(m, x_next, arrived) - x_next)[0])
            return DareSolution(p_star=SymMatrix(x_next[0]), iterations=k, residual=residual)
        x = x_next
    raise RuntimeError(
        f"fixed-point iteration did not converge in {_DARE_MAX_ITERATIONS} iterations"
    )


def _stream(seed_tuple: tuple, *purpose: int) -> np.random.Generator:
    """Philox keyed by SeedSequence(seed_tuple, spawn_key=purpose); chains pass no purpose.

    A purpose pads the entropy to four words before the spawn key, so it never
    gives the key of a seed tuple of under five entries (Salmon, Moraes, Dror
    and Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11).
    """
    key = np.random.SeedSequence(seed_tuple, spawn_key=purpose).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> SymMatrix:
    """Random PSD matrix scale * G G^T / n with Gaussian G.

    The norm concentrates near `scale` but keeps sampling spread; exact
    normalization would collapse all 1x1 draws to the same value.
    """
    return SymMatrix(_random_psd_array(rng, n, np.array([scale]))[0])


def _random_psd_array(rng: np.random.Generator, n: int, scales: np.ndarray) -> np.ndarray:
    """`random_psd` arrays (k, n, n), one per scale, from one block of normals."""
    g = rng.standard_normal((len(scales), n, n))
    a = g @ g.transpose(0, 2, 1) * (scales / n)[:, None, None]
    return (a + a.transpose(0, 2, 1)) / 2.0


@functools.lru_cache(maxsize=16)
def uniform_bound_kappa(m) -> float:
    """Constant kappa with f1^N(X) <= kappa * I across operating scales.

    Takes twice the largest ||f1^N(X)|| over scaled identities and 50 random
    PSD draws per norm 1 through 1e4, then checks it on blocks of 200 draws at
    log-uniform norms, doubling on a violation, up to 10 times; all draws read
    the calibration stream.  The result is cached per (immutable) model, so a
    `tail_bound` per threshold calibrates once.
    """
    rng = _stream((0,), _CALIBRATION)
    n = m.dim_state
    scales = np.array([1.0, 10.0, 100.0, 1e3, 1e4])

    def n_step_norms(xs):
        return norms(_steps(m, xs, np.ones((n, len(xs)), dtype=bool), "f1^N(X)"))

    probes = np.concatenate([scales[:, None, None] * np.eye(n),
                             _random_psd_array(rng, n, np.repeat(scales, 50))])
    kappa = 2.0 * float(n_step_norms(probes).max())

    for _ in range(11):
        draws = _random_psd_array(rng, n, 10.0 ** rng.uniform(0.0, 4.0, 200))
        if np.all(n_step_norms(draws) <= kappa * (1.0 + DEFAULT_ORDER_TOL)):
            return kappa
        kappa *= 2.0
    raise RuntimeError(
        "no uniform N-step bound found after 10 doublings; "
        "the measurement update does not appear uniformly bounded for this model"
    )
